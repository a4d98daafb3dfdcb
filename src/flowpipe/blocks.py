"""Main-chain block formation: proto-block and seal structures, the
ten-condition proposal check, and seal formation over verifier approvals.

Conditions 1-3 (the round's primary proposed, the block extends a known
chain, the locking rule allows the vote) are enforced by
`hotstuff.ConsensusEngine.on_proposal`; `evaluate_proposal` keeps only the
height part of condition 2 and checks conditions 4-6 and 8-10. Condition 7
(each included seal was received) holds by construction, because a seal
reaches a voter inside the proposal that includes it; condition 8 validates
it."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import crypto
from .collection import GuaranteedCollection, guarantee_authentic
from .encoding import canonical_json, hexify, once, once_for
from .state import (
    ProtocolState,
    SlashingChallenge,
    StakeTable,
    StateUpdate,
    UpdateRejected,
    apply_updates,
)

GENESIS_RANDOMNESS = crypto.hash("genesis", b"")


@dataclass(frozen=True)
class BlockSeal:
    sealed_block_hash: bytes
    execution_result_hash: bytes
    final_state_commitment: bytes
    approvals: tuple[Approval, ...]  # sorted by verifier key

    def to_dict(self) -> dict:
        return {
            "sealed_block_hash": hexify(self.sealed_block_hash),
            "execution_result_hash": hexify(self.execution_result_hash),
            "final_state_commitment": hexify(self.final_state_commitment),
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


@dataclass
class EvaluationContext:
    """Everything a voting node consults when judging a proposal.
    `evaluate_proposal` fills in `new_state`, the protocol state the
    proposal's updates lead to, when it accepts the proposal."""

    parent_height: int
    collection_on_chain: Callable[[bytes], bool]
    received_collections: set[bytes]
    collector_clusters: dict[int, StakeTable]
    seal_valid: Callable[[BlockSeal], bool]
    challenge_verified: Callable[[SlashingChallenge], bool]
    parent_protocol_state: ProtocolState
    new_state: Optional[ProtocolState] = None


def evaluate_proposal(pb: ProtoBlock, ctx: EvaluationContext) -> tuple[bool, Optional[str]]:
    """Vote decision: every condition must hold; the reason names the first
    failed one. The consensus engine has already checked conditions 1-3."""
    if pb.height != ctx.parent_height + 1:
        return False, "condition-2:chain-extension"
    seen: set[bytes] = set()
    for gc in pb.guaranteed_collections:
        if ctx.collection_on_chain(gc.collection_hash) or gc.collection_hash in seen:
            return False, "condition-4:stale-collection"
        seen.add(gc.collection_hash)
    for gc in pb.guaranteed_collections:
        if gc.collection_hash not in ctx.received_collections:
            return False, "condition-5:collection-not-received"
    for gc in pb.guaranteed_collections:
        if not guarantee_valid(gc, ctx.collector_clusters):
            return False, "condition-6:collection-authenticity"
    for seal in pb.block_seals:
        if not ctx.seal_valid(seal):
            return False, "condition-8:seal-invalid"
    for ch in pb.slashing_challenges:
        if not ctx.challenge_verified(ch):
            return False, "condition-9:challenge-unverified"
    replay = pb.replay(ctx.parent_protocol_state)
    if replay is None or replay.commitment != pb.state_commitment:
        return False, "condition-10:state-commitment"
    ctx.new_state = replay
    return True, None


# ---------------------------------------------------------------------------
# Sealing
# ---------------------------------------------------------------------------


def _approval_quorum(
    result_hash: bytes, approvals: Iterable[Approval], verifiers: StakeTable
) -> Optional[dict[bytes, Approval]]:
    """The approvals that count toward sealing `result_hash`, one per signer:
    the approval is for `result_hash`, the signer is a registered verifier
    and its signature verifies. None unless they carry a verifier
    supermajority."""
    valid: dict[bytes, Approval] = {}
    for a in approvals:
        if a.result_hash == result_hash and a.verifier in verifiers.keys and a.valid():
            valid.setdefault(a.verifier, a)
    if not valid or not verifiers.supermajority(valid):
        return None
    return valid


def form_seal(
    sealed_block_hash: bytes,
    execution_result_hash: bytes,
    final_state_commitment: bytes,
    approvals: Iterable[Approval],
    verifiers: StakeTable,
) -> Optional[BlockSeal]:
    """Seal once the valid approvals pass the verifier supermajority; None
    until then. The caller seals sequentially along the receipt chain and
    skips challenged results."""
    valid = _approval_quorum(execution_result_hash, approvals, verifiers)
    if valid is None:
        return None
    return BlockSeal(
        sealed_block_hash=sealed_block_hash,
        execution_result_hash=execution_result_hash,
        final_state_commitment=final_state_commitment,
        approvals=tuple(valid[k] for k in sorted(valid)),
    )


def validate_seal(
    seal: BlockSeal,
    verifiers: StakeTable,
    result_lookup: Callable[[bytes], Optional[tuple[bytes, bytes]]],
    parent_result_sealed: Callable[[bytes], bool],
    challenge_pending: Callable[[bytes], bool],
) -> bool:
    """Structural seal check used by proposal condition 8: the referenced
    result exists and matches the seal's block/state fields, no challenge on
    the result is pending, the parent result is sealed, and every listed
    approval counts toward a genuine quorum. The quorum verdict is kept on
    the seal per table: every receiver of a proposal checks the same seal."""
    looked_up = result_lookup(seal.execution_result_hash)
    if looked_up is None:
        return False
    block_hash, final_state = looked_up
    if block_hash != seal.sealed_block_hash or final_state != seal.final_state_commitment:
        return False
    if challenge_pending(seal.execution_result_hash):
        return False
    if not parent_result_sealed(seal.execution_result_hash):
        return False
    return once_for(seal, verifiers, _approved, seal, verifiers)


def _approved(seal: BlockSeal, verifiers: StakeTable) -> bool:
    """Every listed approval counts toward a verifier quorum; a duplicate, an
    outsider, a bad signature or an approval of another result does not."""
    valid = _approval_quorum(seal.execution_result_hash, seal.approvals, verifiers)
    return valid is not None and len(valid) == len(seal.approvals)
