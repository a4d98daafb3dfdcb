"""Scripted Byzantine behaviors, kept out of the honest role classes in
`nodes`: each is a function `(node, spec)` that corrupts a node after
`scenario.build_world` has built it, `spec` being its adversary entry."""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import crypto
from .hotstuff import Proposal, Vote, vote_payload
from .state import Role


def non_responsive(node, spec: dict) -> None:
    """Never starts and handles no message."""
    node.handlers.clear()
    node.start = lambda: None


def withhold_collection(node, spec: dict) -> None:
    """Serves no collection text: it pushes none to executors at guarantee,
    and does not answer a finalized missing-collection challenge against
    it."""
    node._serve = lambda h, names: None


def stale_vote(node, spec: dict) -> None:
    """Re-signs each vote it sends one round lower, so honest leaders
    aggregate it apart from the proposal's round. Votes leave the engine
    only through `send`."""
    send = node.engine.send

    def stale_send(key, msg):
        if isinstance(msg, Vote) and msg.round > 1:
            sig = node.keypair.sign(vote_payload(msg.round - 1, msg.payload_digest))
            msg = replace(msg, round=msg.round - 1, signature=sig)
        send(key, msg)

    node.engine.send = stale_send


@dataclass(frozen=True)
class _Junk:
    """What an equivocating leader lists as a slashing challenge to make its
    twin proposal differ; honest nodes reject it at condition 9."""

    def to_dict(self) -> dict:
        return {"equivocation": 1}


def equivocate_proposal(node, spec: dict) -> None:
    """Signs a conflicting twin of each proposal it makes and broadcasts it
    after the proposal. Proposals leave the engine only through `broadcast`,
    so it proposes, and waits for its high-QC block, as an honest leader
    does, and processes its own first proposal."""
    engine = node.engine
    broadcast = engine.broadcast

    def equivocating_broadcast(msg):
        broadcast(msg)
        if isinstance(msg, Proposal):
            pb = msg.payload
            twin = replace(pb, slashing_challenges=pb.slashing_challenges + (_Junk(),))
            broadcast(engine._proposal(twin))

    engine.broadcast = equivocating_broadcast


def faulty_execution(node, spec: dict) -> None:
    """Tampers with every result it publishes, before it chains on, signs
    and logs it: with chunk `target_chunk`'s consumption when the entry
    names a chunk the result has, else with the final state."""
    publish, target = node._publish, spec.get("target_chunk")

    def tampered(pb, result, out, txs):
        if target is not None and target < len(result.chunks):
            c = result.chunks[target]
            fake = replace(c, computation_consumption=c.computation_consumption + 1)
            chunks = result.chunks[:target] + (fake,) + result.chunks[target + 1 :]
            result = replace(result, chunks=chunks)
        else:
            result = replace(result, final_state=crypto.hash("tampered", result.final_state))
        publish(pb, result, out, txs)

    node._publish = tampered


# the one table of behaviors: name -> (the roles whose nodes it can
# corrupt, the function that corrupts one)
BEHAVIORS = {
    "non_responsive": (tuple(r.value for r in Role), non_responsive),
    "withhold_collection": ((Role.COLLECTOR.value,), withhold_collection),
    "equivocate_proposal": ((Role.CONSENSUS.value,), equivocate_proposal),
    "stale_vote": ((Role.CONSENSUS.value,), stale_vote),
    "faulty_execution": ((Role.EXECUTION.value,), faulty_execution),
}
