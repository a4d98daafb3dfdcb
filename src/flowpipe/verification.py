"""Chunk verification and challenge adjudication: deterministic chunk
assignment, re-execution checks that pass a chunk or ground a
faulty-computation challenge, and consensus-side resolution of both
challenge kinds."""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import crypto
from .collection import collection_hash as compute_collection_hash
from .encoding import once_for
from .execution import (
    EMPTY_TRACE,
    BlockExecutionOutput,
    ExecutionReceipt,
    ExecutionResult,
    trace_update,
)
from .merkle import ExecutionState, UnprovenRegister, value_proof_vrfy
from .state import (
    Adjudication,
    ChallengeKind,
    ProtocolState,
    SlashingChallenge,
    StateUpdate,
    adjudicate_challenge,
    challenge_id,
)
from .vm import SignedTransaction, execute

_U64 = 1 << 64


def assign_chunks(verifier: bytes, chunk_count: int, randomness: bytes, p: float) -> set[int]:
    """Publicly recomputable sample: chunk i is assigned iff a seeded draw
    keyed by (block randomness, verifier, i) lands below p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("coverage fraction must lie in (0, 1]")
    threshold = int(p * _U64)
    assigned = set()
    for i in range(chunk_count):
        seed = crypto.derive_seed(["verify"], randomness + verifier + i.to_bytes(8, "big"))
        if crypto.seeded_stream(seed).word(0) < threshold:
            assigned.add(i)
    return assigned


@dataclass(frozen=True)
class ChunkDataPackage:
    """Executor-provided verification inputs for one chunk, as in the source
    design's chunk data pack: only the registers the chunk's transactions
    touch, each with its value at the chunk's start (None for a register
    that does not exist yet) and a membership or non-membership proof
    against the chunk's start commitment, plus the full transaction texts.
    Deeply immutable: one package goes by reference to every verifier and
    adjudicator, which share its verdict."""

    registers: Mapping[bytes, Optional[bytes]]
    proofs: Mapping[bytes, object]  # key -> ValueProof
    transactions: tuple[SignedTransaction, ...]

    def __post_init__(self):
        object.__setattr__(self, "registers", MappingProxyType(dict(self.registers)))
        object.__setattr__(self, "proofs", MappingProxyType(dict(self.proofs)))
        object.__setattr__(self, "transactions", tuple(self.transactions))

    def verdict(
        self, result: ExecutionResult, chunk_index: int, executor_spock: bytes
    ) -> ChunkVerdict:
        """`verify_chunk` on this package, computed once per (result hash,
        chunk index, spock): the verifiers drawing the chunk and every
        adjudicator of a challenge against it read one verdict."""
        key = (result.result_hash(), chunk_index, executor_spock)
        return once_for(self, key, verify_chunk, result, chunk_index, self, executor_spock)


def chunk_data_packages(
    out: BlockExecutionOutput, transactions: Sequence[SignedTransaction]
) -> tuple[ChunkDataPackage, ...]:
    """One package per chunk of an executed block, proving exactly the
    registers the chunk touches against the chunk's start state."""
    packages = []
    for start, touched, (lo, hi) in zip(
        out.chunk_start_states, out.chunk_touched, out.chunk_tx_ranges
    ):
        keys = sorted(touched)
        packages.append(
            ChunkDataPackage(
                registers={key: start.get(key) for key in keys},
                proofs={key: start.prove(key) for key in keys},
                transactions=transactions[lo:hi],
            )
        )
    return tuple(packages)


@dataclass(frozen=True)
class ChunkVerdict:
    ok: bool
    reason: Optional[str] = None

    @property
    def result_fault(self) -> bool:
        """Re-execution from the proven start state disagrees with the
        result's own commitments. The other failures (a bad proof, a register
        outside the package, a wrong SPoCK) belong to the one package or SPoCK
        read, which the executor's signature over the result does not cover."""
        return self.reason in ("consumption-mismatch", "end-state-mismatch")


def _reexecute(
    state: ExecutionState, transactions: Sequence[SignedTransaction]
) -> tuple[int, bytes, bytes]:
    consumed = 0
    trace = EMPTY_TRACE
    for tx in transactions:
        out = execute(state, tx)
        state = out.state
        consumed += out.cost
        trace = trace_update(trace, out.trace)
    return consumed, state.root(), trace


def verify_chunk(
    result: ExecutionResult,
    chunk_index: int,
    package: ChunkDataPackage,
    executor_spock: bytes,
) -> ChunkVerdict:
    """Re-execute an assigned chunk on the partial tree its data package
    proves and approve only a full match of consumption, end commitment, and
    trace. A register the re-execution touches outside the package rejects
    the chunk; it never reads as absent."""
    chunk = result.chunks[chunk_index]
    commitment = chunk.start_state_commitment
    for key, value in package.registers.items():
        proof = package.proofs.get(key)
        if proof is None or not value_proof_vrfy(key, value, proof, commitment):
            return ChunkVerdict(ok=False, reason="state-proof-failure")
    start = ExecutionState.from_proofs(commitment, package.registers, package.proofs)
    if start is None:
        return ChunkVerdict(ok=False, reason="state-proof-failure")
    try:
        consumed, end_root, trace = _reexecute(start, package.transactions)
    except UnprovenRegister:
        return ChunkVerdict(ok=False, reason="unproven-register")
    expected_end = (
        result.chunks[chunk_index + 1].start_state_commitment
        if chunk_index + 1 < len(result.chunks)
        else result.final_state
    )
    if consumed != chunk.computation_consumption:
        reason = "consumption-mismatch"
    elif end_root != expected_end:
        reason = "end-state-mismatch"
    elif trace != executor_spock:
        reason = "trace-mismatch"
    else:
        return ChunkVerdict(ok=True)
    return ChunkVerdict(ok=False, reason=reason)


def _chunk_digest(chunk_index: int) -> bytes:
    return crypto.hash("chunk-index", chunk_index.to_bytes(8, "big"))


def make_fcc(
    challenger: bytes,
    executor: bytes,
    result_hash: bytes,
    chunk_index: int,
    executor_signature: bytes,
    deadline: int,
) -> SlashingChallenge:
    """The evidence names the result, its chunk by digest, and the
    executor's receipt signature over the result."""
    ch = SlashingChallenge(
        kind=ChallengeKind.FAULTY_COMPUTATION,
        challenger=challenger,
        accused=(executor,),
        evidence=(result_hash, _chunk_digest(chunk_index), executor_signature),
        deadline=deadline,
    )
    return dataclasses.replace(ch, challenge_id=challenge_id(ch))


def fcc_signed(challenge: SlashingChallenge) -> bool:
    """The FCC accuses one executor and carries that executor's signature
    over the disputed result, so only a signer of the result answers for it."""
    return (
        len(challenge.accused) == 1
        and len(challenge.evidence) == 3
        and crypto.staking_verify(challenge.accused[0], challenge.evidence[0], challenge.evidence[2])
    )


def fcc_chunk(challenge: SlashingChallenge, result: ExecutionResult) -> Optional[int]:
    """Index of the result chunk whose digest the challenge names in
    `evidence[1]`, or None when it names none of them."""
    named = challenge.evidence[1:2]
    for k in range(len(result.chunks)):
        if named == (_chunk_digest(k),):
            return k
    return None


def make_mcc(
    challenger: bytes, guarantors: Sequence[bytes], coll_hash: bytes, deadline: int
) -> SlashingChallenge:
    ch = SlashingChallenge(
        kind=ChallengeKind.MISSING_COLLECTION,
        challenger=challenger,
        accused=tuple(guarantors),
        evidence=(coll_hash,),
        deadline=deadline,
    )
    return dataclasses.replace(ch, challenge_id=challenge_id(ch))


def adjudicate_fcc(
    state: ProtocolState,
    challenge: SlashingChallenge,
    receipt: ExecutionReceipt,
    packages: Sequence[ChunkDataPackage],
) -> tuple[Adjudication, StateUpdate]:
    """Re-execute the chunk the challenge names from the disputed receipt's
    package; a genuine divergence slashes the named executor, who is the
    fault origin because each executor chains only its own results; a clean
    replay, or a challenge naming no chunk of the result, slashes the
    challenger."""
    result = receipt.execution_result
    k = fcc_chunk(challenge, result)
    clean = k is None or packages[k].verdict(result, k, receipt.spocks[k]).ok
    return adjudicate_challenge(state, challenge, accused_at_fault=not clean)


@dataclass(frozen=True)
class MissingCollectionAttestation:
    """Licence for executors to skip a collection whose guarantors all went
    silent; references the upholding adjudication."""

    collection_hash: bytes
    adjudication_id: bytes


def mcc_texts(
    challenge: SlashingChallenge, responses: Mapping[bytes, Sequence[SignedTransaction]]
) -> Optional[Sequence[SignedTransaction]]:
    """The texts of the first guarantor, in key order, whose response
    rebuilds the challenged collection's hash, or None when none does. Any
    such response dismisses the challenge; otherwise every guarantor is at
    fault."""
    for guarantor in sorted(responses):
        texts = responses[guarantor]
        if compute_collection_hash([t.tx_hash() for t in texts]) == challenge.evidence[0]:
            return texts
    return None
