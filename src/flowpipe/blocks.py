"""Main-chain block formation: block and seal structures, the ten-condition
proposal check, randomness attachment from beacon signature shares, and seal
formation over verifier approvals."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import crypto
from .collection import GuaranteedCollection, guarantee_authentic
from .encoding import canonical_json, hexify
from .state import (
    NodeIdentity,
    ProtocolState,
    StateUpdate,
    UpdateRejected,
    apply_updates,
    commit_state,
    effective_votes,
    meets_supermajority,
)

GENESIS_PARENT = b"\x00" * 32
GENESIS_RANDOMNESS = crypto.hash("genesis", b"")


@dataclass(frozen=True)
class BlockSeal:
    sealed_block_hash: bytes
    execution_result_hash: bytes
    final_state_commitment: bytes
    approvers: tuple[bytes, ...]  # verifier staking keys (signer bitmap)
    approval_signatures: tuple[bytes, ...]

    def to_dict(self) -> dict:
        return {
            "sealed_block_hash": hexify(self.sealed_block_hash),
            "execution_result_hash": hexify(self.execution_result_hash),
            "final_state_commitment": hexify(self.final_state_commitment),
            "approvers": [hexify(a) for a in self.approvers],
            "approval_signatures": [hexify(s) for s in self.approval_signatures],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BlockSeal":
        return cls(
            sealed_block_hash=bytes.fromhex(d["sealed_block_hash"]),
            execution_result_hash=bytes.fromhex(d["execution_result_hash"]),
            final_state_commitment=bytes.fromhex(d["final_state_commitment"]),
            approvers=tuple(bytes.fromhex(a) for a in d["approvers"]),
            approval_signatures=tuple(bytes.fromhex(s) for s in d["approval_signatures"]),
        )

    def digest(self) -> bytes:
        try:
            return object.__getattribute__(self, "_digest_memo")
        except AttributeError:
            pass
        d = crypto.hash("seal", canonical_json(self.to_dict()))
        object.__setattr__(self, "_digest_memo", d)
        return d


def approval_payload(result_hash: bytes) -> bytes:
    return canonical_json({"approve_result": hexify(result_hash)})


@dataclass(frozen=True)
class ProtoBlock:
    previous_block_hash: bytes
    height: int
    guaranteed_collections: tuple[GuaranteedCollection, ...]
    block_seals: tuple[BlockSeal, ...]
    slashing_challenges: tuple[dict, ...]  # canonical challenge documents
    protocol_state_updates: tuple[StateUpdate, ...]
    state_commitment: bytes

    def to_dict(self) -> dict:
        return {
            "previous_block_hash": hexify(self.previous_block_hash),
            "height": self.height,
            "guaranteed_collections": [g.to_dict() for g in self.guaranteed_collections],
            "block_seals": [s.to_dict() for s in self.block_seals],
            "slashing_challenges": list(self.slashing_challenges),
            "protocol_state_updates": [u.to_dict() for u in self.protocol_state_updates],
            "state_commitment": hexify(self.state_commitment),
        }

    def hash(self) -> bytes:
        try:
            return object.__getattribute__(self, "_hash_memo")
        except AttributeError:
            pass
        h = crypto.hash("protoblock", canonical_json(self.to_dict()))
        object.__setattr__(self, "_hash_memo", h)
        return h


@dataclass(frozen=True)
class Block:
    proto: ProtoBlock
    source_of_randomness: Optional[int]  # threshold signature value; None at genesis

    def hash(self) -> bytes:
        return crypto.hash(
            "block",
            canonical_json(
                {
                    "proto": hexify(self.proto.hash()),
                    "randomness": self.source_of_randomness,
                }
            ),
        )

    def random_seed(self) -> bytes:
        """Seed for every per-block pseudo-random generator."""
        if self.source_of_randomness is None:
            return GENESIS_RANDOMNESS
        return block_seed(self.source_of_randomness)


def block_seed(sigma: int) -> bytes:
    """Per-block seed derived from the block's threshold-signature value."""
    return crypto.hash("block-seed", crypto.signature_bytes(crypto.GroupSignature(value=sigma)))


def genesis_block(initial_state: ProtocolState) -> Block:
    proto = ProtoBlock(
        previous_block_hash=GENESIS_PARENT,
        height=0,
        guaranteed_collections=(),
        block_seals=(),
        slashing_challenges=(),
        protocol_state_updates=(),
        state_commitment=commit_state(initial_state),
    )
    return Block(proto=proto, source_of_randomness=None)


# ---------------------------------------------------------------------------
# Proposal assembly and the ten-condition evaluation
# ---------------------------------------------------------------------------


def propose_proto_block(
    parent_hash: bytes,
    parent_height: int,
    parent_protocol_state: ProtocolState,
    pending_collections: Sequence[GuaranteedCollection],
    ready_seals: Sequence[BlockSeal],
    pending_challenges: Sequence[dict],
    pending_updates: Sequence[StateUpdate],
) -> ProtoBlock:
    """Assemble a proposal from the primary's mempool view. Invalid state
    updates are dropped rather than poisoning the block; an empty collection
    list never blocks production."""
    accepted: list[StateUpdate] = []
    working = parent_protocol_state
    for upd in pending_updates:
        try:
            result = apply_updates(working, [upd])
        except UpdateRejected:
            continue
        working = result.state
        accepted.append(upd)
    commitment = commit_state(working)
    return ProtoBlock(
        previous_block_hash=parent_hash,
        height=parent_height + 1,
        guaranteed_collections=tuple(pending_collections),
        block_seals=tuple(ready_seals),
        slashing_challenges=tuple(pending_challenges),
        protocol_state_updates=tuple(accepted),
        state_commitment=commitment,
    )


@dataclass
class EvaluationContext:
    """Everything a voting node consults when judging a proposal; the
    consensus layer supplies the proposer/extension/safety verdicts."""

    proposer_is_primary: bool
    extends_known_chain: bool
    parent_height: int
    consensus_safe: bool
    ancestor_collection_hashes: set[bytes]
    received_collections: set[bytes]
    collector_clusters: dict[int, list[NodeIdentity]]
    received_seals: set[bytes]  # seal digests the node holds
    seal_valid: Callable[[BlockSeal], bool]
    challenge_verified: Callable[[dict], bool]
    parent_protocol_state: ProtocolState


def evaluate_proposal(pb: ProtoBlock, ctx: EvaluationContext) -> tuple[bool, Optional[str]]:
    """Vote decision: every condition must hold; the reason names the first
    failed one."""
    if not ctx.proposer_is_primary:
        return False, "condition-1:proposer"
    if not ctx.extends_known_chain or pb.height != ctx.parent_height + 1:
        return False, "condition-2:chain-extension"
    if not ctx.consensus_safe:
        return False, "condition-3:consensus-safety"
    seen: set[bytes] = set()
    for gc in pb.guaranteed_collections:
        if gc.collection_hash in ctx.ancestor_collection_hashes or gc.collection_hash in seen:
            return False, "condition-4:stale-collection"
        seen.add(gc.collection_hash)
    for gc in pb.guaranteed_collections:
        if gc.collection_hash not in ctx.received_collections:
            return False, "condition-5:collection-not-received"
    for gc in pb.guaranteed_collections:
        cluster = ctx.collector_clusters.get(gc.cluster_index)
        if not cluster or not guarantee_authentic(gc, cluster):
            return False, "condition-6:collection-authenticity"
    for seal in pb.block_seals:
        if seal.digest() not in ctx.received_seals:
            return False, "condition-7:seal-not-received"
    for seal in pb.block_seals:
        if not ctx.seal_valid(seal):
            return False, "condition-8:seal-invalid"
    for ch in pb.slashing_challenges:
        if not ctx.challenge_verified(ch):
            return False, "condition-9:challenge-unverified"
    try:
        replay = apply_updates(ctx.parent_protocol_state, pb.protocol_state_updates)
    except UpdateRejected:
        return False, "condition-10:state-commitment"
    if replay.commitment != pb.state_commitment:
        return False, "condition-10:state-commitment"
    return True, None


# ---------------------------------------------------------------------------
# Randomness attachment (beacon committee)
# ---------------------------------------------------------------------------


def attach_randomness(
    params: crypto.ThresholdParams,
    pb: ProtoBlock,
    shares: Sequence[crypto.SignatureShare],
    vv: crypto.VerificationVector,
) -> Block:
    """Recover the unique group signature over the proposal hash from t+1
    shares and attach it; raises InsufficientShares below the threshold."""
    message = pb.hash()
    sigma = crypto.threshold_recover(params, vv, shares, message)
    if not crypto.threshold_verify(params, sigma, vv.group_public_key, message):
        raise ValueError("recovered randomness does not verify")
    return Block(proto=pb, source_of_randomness=sigma.value)


def verify_block_randomness(
    params: crypto.ThresholdParams, block: Block, group_public_key: int
) -> bool:
    if block.proto.height == 0:
        return block.source_of_randomness is None
    if block.source_of_randomness is None:
        return False
    sig = crypto.GroupSignature(value=block.source_of_randomness)
    return crypto.threshold_verify(params, sig, group_public_key, block.proto.hash())


# ---------------------------------------------------------------------------
# Sealing
# ---------------------------------------------------------------------------


def form_seal(
    sealed_block_hash: bytes,
    execution_result_hash: bytes,
    final_state_commitment: bytes,
    approvals: dict[bytes, bytes],  # verifier key -> signature over approval_payload
    verifiers: Sequence[NodeIdentity],
    parent_result_sealed: bool,
    pending_challenge: bool,
) -> Optional[BlockSeal]:
    """Seal once approvals pass the verifier supermajority, the parent result
    is sealed (sealing is sequential along the receipt chain), and no
    challenge is pending. Returns None while any condition is unmet."""
    if pending_challenge or not parent_result_sealed:
        return None
    payload = approval_payload(execution_result_hash)
    valid = {
        k: sig for k, sig in approvals.items() if crypto.staking_verify(k, payload, sig)
    }
    member_keys = {m.staking_public_key for m in verifiers}
    valid = {k: sig for k, sig in valid.items() if k in member_keys}
    if not valid or not meets_supermajority(effective_votes(valid.keys(), verifiers)):
        return None
    approvers = tuple(sorted(valid))
    return BlockSeal(
        sealed_block_hash=sealed_block_hash,
        execution_result_hash=execution_result_hash,
        final_state_commitment=final_state_commitment,
        approvers=approvers,
        approval_signatures=tuple(valid[a] for a in approvers),
    )


def validate_seal(
    seal: BlockSeal,
    verifiers: Sequence[NodeIdentity],
    result_lookup: Callable[[bytes], Optional[tuple[bytes, bytes]]],
    parent_result_sealed: Callable[[bytes], bool],
    challenge_pending: Callable[[bytes], bool],
) -> bool:
    """Structural seal check used by proposal condition 8: the referenced
    result exists and matches the seal's block/state fields, the approval
    quorum is genuine, the parent result is sealed, and no challenge on the
    result is pending."""
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
    if len(set(seal.approvers)) != len(seal.approvers) or len(seal.approvers) != len(
        seal.approval_signatures
    ):
        return False
    member_keys = {m.staking_public_key for m in verifiers}
    if not set(seal.approvers) <= member_keys:
        return False
    payload = approval_payload(seal.execution_result_hash)
    for key, sig in zip(seal.approvers, seal.approval_signatures):
        if not crypto.staking_verify(key, payload, sig):
            return False
    return meets_supermajority(effective_votes(seal.approvers, verifiers))
