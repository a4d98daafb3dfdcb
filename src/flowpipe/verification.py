"""Chunk verification: deterministic chunk assignment, chunk data
packages, and the re-execution check that passes a chunk or grounds a
faulty-computation challenge."""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from . import crypto
from .encoding import once_for
from .execution import EMPTY_TRACE, BlockExecutionOutput, ExecutionResult, trace_update
from .merkle import ExecutionState, UnprovenRegister, value_proof_vrfy
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
