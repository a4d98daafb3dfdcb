"""Main-chain block formation: proto-block and seal structures, the
ten-condition proposal check, and seal formation over verifier approvals.

Conditions 1-3 (the round's primary proposed, the block extends a known
chain, the locking rule allows the vote) are enforced by
`hotstuff.ConsensusEngine.on_proposal`; `evaluate_proposal` keeps only the
height part of condition 2 and checks conditions 4, 6 and 8-10. Conditions 5
and 7 (each included guarantee and seal was received) hold by construction,
because a guarantee and a seal reach a voter inside the proposal that
includes them; condition 6 authenticates the guarantee and condition 8
validates the seal.

Every condition is judged over a `ChainView`, plain data a consensus node
builds for the parent block: the parent's `ChainCtx`, which descends from
the node's finalized tip, whose facts are the finalized prefix's, and the
challenges the node holds. A seal carries the result it seals, so
condition 8 reads the seal, the chain and the held challenges, never the
node's receipts. The chain-fact lookup and the pending-challenge rule live
here, next to the conditions that read them, and the node's proposer calls
the same functions; condition 9 takes a challenge by
`challenges.challenge_valid` and `challenge_mark`, as the node's challenge
intake does."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from . import crypto
from .challenges import ChallengeKind, SlashingChallenge, challenge_mark, challenge_valid
from .collection import GuaranteedCollection, guarantee_authentic
from .encoding import canonical_json, hexify, once, once_for
from .execution import GENESIS_RESULT_HASH, ExecutionResult
from .hotstuff import GENESIS_DIGEST
from .state import ProtocolState, StakeTable, StateUpdate, Tally, UpdateRejected, apply_updates

GENESIS_RANDOMNESS = crypto.hash("genesis", b"")


@dataclass(frozen=True)
class BlockSeal:
    """The seal of `result` on the verifiers' approvals of its hash. The
    hash covers the whole result, so the approvals bind the sealed block,
    the previous result and the final state with it."""

    result: ExecutionResult
    approvals: tuple[Approval, ...]  # sorted by verifier key

    @property
    def execution_result_hash(self) -> bytes:
        return self.result.result_hash()

    @property
    def sealed_block_hash(self) -> bytes:
        return self.result.block_hash

    def to_dict(self) -> dict:
        return {
            "execution_result": self.result.to_dict(),
            "approvers": [hexify(a.verifier) for a in self.approvals],
            "approval_signatures": [hexify(a.signature) for a in self.approvals],
        }


# a result is approved, and its approvals checked, within a few blocks, so a
# small bound keeps every hit; each key is computed once
@functools.lru_cache(maxsize=256)
def approval_payload(result_hash: bytes) -> bytes:
    return canonical_json({"approve_result": hexify(result_hash)})


@dataclass(frozen=True)
class Approval:
    """A verifier's signature over `approval_payload(result_hash)`."""

    result_hash: bytes
    verifier: bytes  # staking public key
    signature: bytes

    @once
    def valid(self) -> bool:
        """The signature check, once per object: a verifier sends one
        approval to every consensus node, and the seals that carry it carry
        the same object."""
        return crypto.staking_verify(
            self.verifier, approval_payload(self.result_hash), self.signature
        )


@dataclass(frozen=True)
class ProtoBlock:
    previous_block_hash: bytes
    height: int
    guaranteed_collections: tuple[GuaranteedCollection, ...]
    block_seals: tuple[BlockSeal, ...]
    slashing_challenges: tuple[SlashingChallenge, ...]
    protocol_state_updates: tuple[StateUpdate, ...]
    state_commitment: bytes

    def to_dict(self) -> dict:
        return {
            "previous_block_hash": hexify(self.previous_block_hash),
            "height": self.height,
            "guaranteed_collections": [g.to_dict() for g in self.guaranteed_collections],
            "block_seals": [s.to_dict() for s in self.block_seals],
            "slashing_challenges": [c.to_dict() for c in self.slashing_challenges],
            "protocol_state_updates": [u.to_dict() for u in self.protocol_state_updates],
            "state_commitment": hexify(self.state_commitment),
        }

    @once
    def hash(self) -> bytes:
        return crypto.hash("protoblock", canonical_json(self.to_dict()))

    def replay(self, parent_state: ProtocolState) -> Optional[ProtocolState]:
        """The protocol state this block's updates lead to from
        `parent_state`, or None when `apply_updates` rejects them. Kept per
        parent commitment, so every node judging the block on the same parent
        state reads one replay."""
        return once_for(self, parent_state.commitment, _replay, self, parent_state)


def _replay(pb: ProtoBlock, parent_state: ProtocolState) -> Optional[ProtocolState]:
    try:
        return apply_updates(parent_state, pb.protocol_state_updates)
    except UpdateRejected:
        return None


def block_seed(sigma: int) -> bytes:
    """Per-block seed derived from the block's threshold-signature value."""
    return crypto.hash("block-seed", crypto.signature_bytes(crypto.GroupSignature(value=sigma)))


# ---------------------------------------------------------------------------
# Proposal assembly and the ten-condition evaluation
# ---------------------------------------------------------------------------


def propose_proto_block(
    parent_hash: bytes,
    parent_height: int,
    parent_protocol_state: ProtocolState,
    pending_collections: Sequence[GuaranteedCollection],
    ready_seals: Sequence[BlockSeal],
    pending_challenges: Sequence[SlashingChallenge],
    pending_updates: Sequence[StateUpdate],
) -> ProtoBlock:
    """Assemble a proposal from the primary's mempool view. Invalid state
    updates are dropped rather than poisoning the block; an empty collection
    list never blocks production."""
    accepted: list[StateUpdate] = []
    working = parent_protocol_state
    for upd in pending_updates:
        try:
            working = apply_updates(working, [upd])
        except UpdateRejected:
            continue
        accepted.append(upd)
    return ProtoBlock(
        previous_block_hash=parent_hash,
        height=parent_height + 1,
        guaranteed_collections=tuple(pending_collections),
        block_seals=tuple(ready_seals),
        slashing_challenges=tuple(pending_challenges),
        protocol_state_updates=tuple(accepted),
        state_commitment=working.commitment,
    )


def guarantee_valid(gc: GuaranteedCollection, clusters: dict[int, StakeTable]) -> bool:
    """Proposal condition 6 for one guarantee: its cluster exists and the
    guarantee is authentic for that cluster."""
    cluster = clusters.get(gc.cluster_index)
    return cluster is not None and guarantee_authentic(gc, cluster)


# kinds of chain fact and their keys: "block" (digest, height >= 1),
# "collection" (collection hash), "sealed" (result hash), "challenged"
# (`challenges.challenge_mark`), "fcc" ((result hash, id) of a recorded
# faulty-computation challenge), "adjudicated" and "upheld" (challenge id;
# upheld when the accused was slashed)
FACT_KINDS = ("block", "collection", "sealed", "challenged", "fcc", "adjudicated", "upheld")


@dataclass
class ChainCtx:
    """A block as a consensus node judges chains through it: the protocol
    state after it, the head of its sealed results (sealing is sequential,
    so the sealed set is a chain) and `facts`. An unfinalized block's facts
    hold only what the block itself records, and earlier ones sit in its
    ancestors, reached through `parent`; the node's finalized tip has no
    parent, and its facts are the whole finalized prefix's
    (`ConsensusNode._on_finalize` merges each finalized block's into them)."""

    digest: bytes
    height: int
    state: ProtocolState
    sealed_tip: bytes
    parent: Optional[ChainCtx]  # None on the finalized tip
    facts: dict[str, set]  # kind -> keys


def genesis_ctx(state: ProtocolState) -> ChainCtx:
    """The genesis block's context: protocol state `state`, and the genesis
    result sealed."""
    facts = {kind: set() for kind in FACT_KINDS}
    facts["sealed"].add(GENESIS_RESULT_HASH)
    return ChainCtx(GENESIS_DIGEST, 0, state, GENESIS_RESULT_HASH, None, facts)


@dataclass
class ChainView:
    """What a consensus node consults to judge the chain through the block
    of `ctx`, as plain data: the recorded challenges it indexed, the
    challenges it holds for a proposal and the stake tables. `ctx` descends
    from the node's finalized tip, as every context `_ctx_for` returns does.
    The maps are the node's own, read and never copied."""

    ctx: ChainCtx
    # result hash -> ids of the faulty-computation challenges (FCCs) against
    # it that a block the node built a context for records
    fcc_ids: Mapping[bytes, set]
    # the node's challenges not yet on its finalized chain, by `challenge_mark`
    pending: Mapping[object, SlashingChallenge]
    clusters: dict[int, StakeTable]  # collector cluster index -> its table
    verifiers: StakeTable

    def on_chain(self, kind: str, key) -> bool:
        """Whether the chain through `ctx` records the fact: in the block of
        `ctx` or of an ancestor, up to the finalized tip, whose facts are the
        finalized prefix's."""
        ctx = self.ctx
        while key not in ctx.facts[kind]:
            ctx = ctx.parent
            if ctx is None:
                return False
        return True

    def result_pending_challenge(self, result_hash: bytes) -> bool:
        """An FCC against the result blocks its seal on the chain through
        `ctx`: one recorded there that is unadjudicated or upheld, or one
        held here whose mark the chain does not record yet. The chain records
        one FCC per mark, so another of a recorded mark blocks nothing."""
        for cid in self.fcc_ids.get(result_hash, ()):
            if self.on_chain("fcc", (result_hash, cid)) and (
                not self.on_chain("adjudicated", cid) or self.on_chain("upheld", cid)
            ):
                return True
        return any(
            ch.kind == ChallengeKind.FAULTY_COMPUTATION and ch.evidence[0] == result_hash
            and not self.on_chain("challenged", mark)
            for mark, ch in self.pending.items()
        )


def evaluate_proposal(pb: ProtoBlock, view: ChainView) -> tuple[bool, Optional[str]]:
    """Vote decision on a proposal extending `view.ctx`: every condition
    must hold; the reason names the first failed one. The consensus engine
    has already checked conditions 1-3. An accepted block's protocol state
    is `pb.replay(view.ctx.state)`, kept on the block."""
    if pb.height != view.ctx.height + 1:
        return False, "condition-2:chain-extension"
    seen: set[bytes] = set()
    for gc in pb.guaranteed_collections:
        if view.on_chain("collection", gc.collection_hash) or gc.collection_hash in seen:
            return False, "condition-4:stale-collection"
        seen.add(gc.collection_hash)
    for gc in pb.guaranteed_collections:
        if not guarantee_valid(gc, view.clusters):
            return False, "condition-6:collection-authenticity"
    # a seal may extend one listed before it in the same block
    tip = view.ctx.sealed_tip
    for seal in pb.block_seals:
        if not validate_seal(seal, view, tip):
            return False, "condition-8:seal-invalid"
        tip = seal.execution_result_hash
    # a block lists each challenge mark once, and none already on the chain
    marks: set = set()
    for ch in pb.slashing_challenges:
        mark = challenge_mark(ch) if challenge_valid(ch) else None
        if mark is None or mark in marks or view.on_chain("challenged", mark):
            return False, "condition-9:challenge-unverified"
        marks.add(mark)
    replay = pb.replay(view.ctx.state)
    if replay is None or replay.commitment != pb.state_commitment:
        return False, "condition-10:state-commitment"
    return True, None


# ---------------------------------------------------------------------------
# Sealing
# ---------------------------------------------------------------------------


def form_seal(result: ExecutionResult, approvals: Optional[Tally]) -> Optional[BlockSeal]:
    """The seal of `result` on the certificate of `approvals`, the node's
    intake tally of the result's approvals, once it holds a verifier quorum;
    None before. Intake already dropped outsiders, repeats and bad
    signatures, so nothing is counted or checked here; whether the seal may
    go in a block is condition 8's (`validate_seal`)."""
    if approvals is None or not approvals.quorum:
        return None
    return BlockSeal(result, approvals.certificate()[1])


def validate_seal(seal: BlockSeal, view: ChainView, tip: Optional[bytes] = None) -> bool:
    """Proposal condition 8 for one seal on the chain through `view`, whose
    context descends from the node's finalized tip (`_ctx_for` builds no
    other), and the rule a leader picks its seals by: the carried result is
    not sealed on the chain, its block is on the chain, no challenge on it
    is pending (`ChainView.result_pending_challenge`), its previous result is the sealed tip so far (`tip`: the last seal listed
    earlier in the same block, else the chain's), so a block is sealed at
    most once, and every listed approval of its hash counts toward a genuine
    quorum of `view.verifiers`. The hash covers the whole result, so a
    result changed after approval fails the quorum. The quorum verdict is
    kept on the seal per table: every receiver of a proposal checks the same
    seal."""
    rh = seal.execution_result_hash
    prev = view.ctx.sealed_tip if tip is None else tip
    if (
        view.on_chain("sealed", rh)
        or not view.on_chain("block", seal.sealed_block_hash)
        or seal.result.previous_execution_result_hash != prev
        or view.result_pending_challenge(rh)
    ):
        return False
    return once_for(seal, view.verifiers, _approved, seal, view.verifiers)


def _approved(seal: BlockSeal, verifiers: StakeTable) -> bool:
    """The listed approvals certify the result (`StakeTable.certifies`): a
    duplicate, an outsider, a bad signature or an approval of another
    result fails the seal."""
    rh = seal.execution_result_hash
    return verifiers.certifies(
        [a.verifier for a in seal.approvals],
        seal.approvals,
        lambda verifier, a: a.result_hash == rh and a.valid(),
    )
