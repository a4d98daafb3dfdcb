"""Block execution: canonical transaction ordering, chunked execution with
per-chunk trace commitments, and execution receipts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import crypto
from .crypto import hash as fhash
from .encoding import canonical_json, hexify, once
from .merkle import ExecutionState, state_proof_gen
from .vm import SignedTransaction, execute

EMPTY_TRACE = b"\x00" * 32

GENESIS_RESULT_HASH = fhash("genesis-result", b"")


def trace_update(chunk_trace: bytes, tx_trace: bytes) -> bytes:
    """Fold a transaction trace into the running chunk trace commitment.

    Hash-commitment stand-in for a proof of confidential knowledge: producing
    it requires walking the actual execution trace."""
    return fhash("spock", chunk_trace + tx_trace)


@dataclass(frozen=True)
class Chunk:
    start_state_commitment: bytes
    starting_transaction_cc: int
    starting_transaction_index: int
    computation_consumption: int

    def to_dict(self) -> dict:
        return {
            "start_state_commitment": hexify(self.start_state_commitment),
            "starting_transaction_cc": self.starting_transaction_cc,
            "starting_transaction_index": self.starting_transaction_index,
            "computation_consumption": self.computation_consumption,
        }


@dataclass(frozen=True)
class ExecutionResult:
    block_hash: bytes
    previous_execution_result_hash: bytes
    chunks: tuple[Chunk, ...]
    final_state: bytes

    def to_dict(self) -> dict:
        return {
            "block_hash": hexify(self.block_hash),
            "previous_execution_result_hash": hexify(self.previous_execution_result_hash),
            "chunks": [c.to_dict() for c in self.chunks],
            "final_state": hexify(self.final_state),
        }

    @once
    def result_hash(self) -> bytes:
        return fhash("execresult", canonical_json(self.to_dict()))


@dataclass(frozen=True)
class ExecutionReceipt:
    execution_result: ExecutionResult
    spocks: tuple[bytes, ...]  # one per chunk
    executor: bytes  # staking public key
    executor_signature: bytes

    def __post_init__(self):
        if len(self.spocks) != len(self.execution_result.chunks):
            raise ValueError("one trace commitment per chunk required")

    @once
    def signed(self) -> bool:
        """The executor's signature over the result hash, checked once per
        object: an executor sends one receipt to every consensus node and
        every verifier."""
        return crypto.staking_verify(
            self.executor, self.execution_result.result_hash(), self.executor_signature
        )


def canonical(collections: Sequence[Sequence[SignedTransaction]]) -> list[SignedTransaction]:
    """Canonical transaction order: collections in block order, transactions
    in collection order; first transaction of the first collection is index 0."""
    out: list[SignedTransaction] = []
    for coll in collections:
        out.extend(coll)
    return out


@dataclass
class BlockExecutionOutput:
    result: ExecutionResult
    spocks: tuple[bytes, ...]
    end_state: ExecutionState
    chunk_start_states: list[ExecutionState]
    chunk_tx_ranges: list[tuple[int, int]]  # [start, end) indices per chunk
    chunk_touched: list[frozenset]  # registers each chunk's transactions touch


def block_execution(
    block_hash: bytes,
    transactions: Sequence[SignedTransaction],
    previous_result_hash: bytes,
    state: ExecutionState,
    gamma_chunk: int,
) -> BlockExecutionOutput:
    """Execute a block's canonical transaction sequence into chunks.

    A chunk closes (before the current transaction) once adding its cost
    would exceed gamma_chunk; the closing transaction becomes the first of
    the next chunk, and its trace lands in the next chunk's commitment. A
    chunk always holds at least one transaction, so a single transaction
    costing more than gamma_chunk occupies an oversized chunk of its own.
    Each chunk records the registers its transactions touch, from which its
    chunk data package is built.
    """
    spocks: list[bytes] = []
    chunks: list[Chunk] = []
    chunk_start_states: list[ExecutionState] = []
    chunk_touched: list[frozenset] = []

    state_start = state
    start_index = 0
    consumption = 0
    chunk_trace = EMPTY_TRACE
    touched: set[bytes] = set()
    tau_0 = 0

    def close_chunk():
        chunks.append(
            Chunk(
                start_state_commitment=state_proof_gen(state_start),
                starting_transaction_cc=tau_0,
                starting_transaction_index=start_index,
                computation_consumption=consumption,
            )
        )
        spocks.append(chunk_trace)
        chunk_start_states.append(state_start)
        chunk_touched.append(frozenset(touched))

    for i, tx in enumerate(transactions):
        outcome = execute(state, tx)
        tau = outcome.cost
        if consumption + tau > gamma_chunk and consumption > 0:
            close_chunk()
            state_start, start_index = state, i
            chunk_trace, consumption, touched = EMPTY_TRACE, 0, set()
        if i == start_index:
            tau_0 = tau
        state = outcome.state
        consumption += tau
        chunk_trace = trace_update(chunk_trace, outcome.trace)
        touched |= outcome.touched
    close_chunk()

    result = ExecutionResult(
        block_hash=block_hash,
        previous_execution_result_hash=previous_result_hash,
        chunks=tuple(chunks),
        final_state=state_proof_gen(state),
    )
    starts = [c.starting_transaction_index for c in chunks]
    ranges = list(zip(starts, starts[1:] + [len(transactions)]))
    return BlockExecutionOutput(
        result=result,
        spocks=tuple(spocks),
        end_state=state,
        chunk_start_states=chunk_start_states,
        chunk_tx_ranges=ranges,
        chunk_touched=chunk_touched,
    )

