import dataclasses
import random

import pytest

from flowpipe.crypto import hash as fhash
from flowpipe.encoding import canonical_json
from flowpipe.execution import (
    EMPTY_TRACE,
    GENESIS_RESULT_HASH,
    BlockExecutionOutput,
    block_execution,
    canonical,
    trace_update,
)
from flowpipe.merkle import ExecutionState
from flowpipe.vm import (
    MalformedScript,
    SignedTransaction,
    ToyTransaction,
    account_key,
    decode_balance,
    encode_balance,
    execute,
    register_key,
)

BLOCK_HASH = b"\xb0" * 32
REF_HASH = b"\x00" * 32


def make_tx(ops) -> SignedTransaction:
    return SignedTransaction(
        script=ToyTransaction(operations=tuple(ops)).to_script(),
        payer_signature=b"\x01" * 32,
        script_signatures=(),
        reference_block_hash=REF_HASH,
    )


def cost_tx(i: int, cost: int) -> SignedTransaction:
    return make_tx([{"kind": "set_register", "register": f"r{i}", "value": "ff", "cost": cost}])


def base_state() -> ExecutionState:
    return ExecutionState(
        {account_key("alice"): (50).to_bytes(8, "big"), account_key("bob"): (0).to_bytes(8, "big")}
    )


class TestVm:
    def test_transfer(self):
        st = base_state()
        tx = make_tx([{"kind": "transfer", "from": "alice", "to": "bob", "amount": 10, "cost": 4}])
        out = execute(st, tx)
        assert out.status == "ok"
        assert decode_balance(out.state.get(account_key("alice"))) == 40
        assert decode_balance(out.state.get(account_key("bob"))) == 10
        assert out.cost == 4

    def test_overdraft_consumes_cost_without_state_change(self):
        st = base_state()
        tx = make_tx([{"kind": "transfer", "from": "alice", "to": "bob", "amount": 60, "cost": 4}])
        out = execute(st, tx)
        assert out.status == "failed"
        assert out.cost == 4
        assert out.state.root() == st.root()

    def test_transfer_to_self_keeps_the_balance(self):
        """A transfer from an account to itself moves nothing, and one larger
        than the balance fails like any overdraft."""
        st = base_state()
        tx = make_tx([{"kind": "transfer", "from": "alice", "to": "alice", "amount": 10}])
        out = execute(st, tx)
        assert out.status == "ok"
        assert decode_balance(out.state.get(account_key("alice"))) == 50
        tx = make_tx([{"kind": "transfer", "from": "alice", "to": "alice", "amount": 60}])
        out = execute(st, tx)
        assert (out.status, out.detail, out.state.root()) == ("failed", "insufficient balance", st.root())

    def test_malformed_script(self):
        tx = SignedTransaction(
            script=b"not json",
            payer_signature=b"\x01" * 32,
            script_signatures=(),
            reference_block_hash=REF_HASH,
        )
        out = execute(base_state(), tx)
        assert out.status == "malformed"
        assert out.cost == 1

    def test_ill_formed_operations_are_malformed(self):
        """An operation with a missing or ill-typed field cannot run: `parse`
        rejects it, so `execute` reports the script malformed at the minimum
        cost instead of raising."""
        st = base_state()
        for ops in (
            [{"kind": "transfer"}],
            [{"kind": "create_account", "account": 5}],
            [{"kind": "set_register", "register": "r", "value": "01", "cost": "3"}],
            [{"kind": "set_register", "register": "r", "value": "01", "cost": 1.5}],
            [{"kind": "set_register", "register": "r", "value": "zz"}],
            [{"kind": "create_account", "account": "carol", "balance": -1}],
            [{"kind": "transfer", "from": "alice", "to": "bob", "amount": True}],
            [{"kind": ["transfer"]}],
        ):
            tx = make_tx(ops)
            with pytest.raises(MalformedScript):
                ToyTransaction.parse(tx.script)
            out = execute(st, tx)
            assert (out.status, out.cost, out.state.root()) == ("malformed", 1, st.root()), ops

    def test_transfer_past_the_balance_limit_fails(self):
        st = ExecutionState(
            {account_key("alice"): encode_balance(5), account_key("bob"): encode_balance((1 << 64) - 1)}
        )
        out = execute(st, make_tx([{"kind": "transfer", "from": "alice", "to": "bob", "amount": 5}]))
        assert (out.status, out.detail, out.state.root()) == ("failed", "balance overflow", st.root())

    def test_determinism(self):
        st = base_state()
        tx = make_tx([{"kind": "transfer", "from": "alice", "to": "bob", "amount": 5, "cost": 2}])
        a, b = execute(st, tx), execute(st, tx)
        assert a.state.root() == b.state.root()
        assert (a.cost, a.trace) == (b.cost, b.trace)


    def test_touched_registers(self):
        # reads (present or absent) and writes; a failure keeps what it read
        # before failing, a malformed script touches nothing
        st = base_state()
        alice, bob, carol = (account_key(a) for a in ("alice", "bob", "carol"))
        cases = [
            ([{"kind": "transfer", "from": "alice", "to": "bob", "amount": 5}], "ok", {alice, bob}),
            ([{"kind": "transfer", "from": "alice", "to": "carol", "amount": 5}], "failed", {alice, carol}),
            ([{"kind": "create_account", "account": "carol"}], "ok", {carol}),
            ([{"kind": "create_account", "account": "alice"}], "failed", {alice}),
            ([{"kind": "set_register", "register": "r", "value": "01"}], "ok", {register_key("r")}),
            (
                [
                    {"kind": "create_account", "account": "carol", "balance": 3},
                    {"kind": "transfer", "from": "carol", "to": "bob", "amount": 1},
                ],
                "ok",
                {carol, bob},
            ),
        ]
        for ops, status, touched in cases:
            out = execute(st, make_tx(ops))
            assert (out.status, out.touched) == (status, touched), ops
        malformed = SignedTransaction(b"not json", b"\x01" * 32, (), REF_HASH)
        assert execute(st, malformed).touched == frozenset()

    def test_chunks_gather_what_their_transactions_touch(self):
        txs = [cost_tx(i, c) for i, c in enumerate((4, 4, 4))]
        out = block_execution(BLOCK_HASH, txs, GENESIS_RESULT_HASH, base_state(), 10)
        assert out.chunk_tx_ranges == [(0, 2), (2, 3)]
        assert out.chunk_touched == [
            {register_key("r0"), register_key("r1")},
            {register_key("r2")},
        ]
        empty = block_execution(BLOCK_HASH, [], GENESIS_RESULT_HASH, base_state(), 10)
        assert empty.chunk_touched == [frozenset()]


class TestCanonicalOrder:
    def test_concatenation(self):
        colls = [[cost_tx(0, 1), cost_tx(1, 1)], [cost_tx(2, 1), cost_tx(3, 1), cost_tx(4, 1)]]
        txs = canonical(colls)
        assert [t.tx_hash() for t in txs] == [t.tx_hash() for c in colls for t in c]
        assert len(txs) == 5

    def test_empty(self):
        assert canonical([]) == []

    def test_skipped_collection_shifts_indices(self):
        with_skip = canonical([[cost_tx(0, 1)], [cost_tx(5, 1)]])
        assert len(with_skip) == 2


def run_block(costs, gamma) -> BlockExecutionOutput:
    txs = [cost_tx(i, c) for i, c in enumerate(costs)]
    return block_execution(BLOCK_HASH, txs, GENESIS_RESULT_HASH, ExecutionState(), gamma)


class TestChunking:
    def test_costs_4_4_4_gamma_10(self):
        out = run_block([4, 4, 4], 10)
        got = [
            (c.starting_transaction_index, c.computation_consumption, c.starting_transaction_cc)
            for c in out.result.chunks
        ]
        assert got == [(0, 8, 4), (2, 4, 4)]

    def test_single_tx(self):
        out = run_block([3], 10)
        (chunk,) = out.result.chunks
        assert chunk.starting_transaction_index == 0
        assert chunk.computation_consumption == 3
        assert chunk.starting_transaction_cc == 3

    def test_costs_6_6_gamma_10(self):
        out = run_block([6, 6], 10)
        got = [(c.starting_transaction_index, c.computation_consumption) for c in out.result.chunks]
        assert got == [(0, 6), (1, 6)]

    def test_oversized_transaction_gets_own_chunk(self):
        out = run_block([4, 15, 2], 10)
        got = [(c.starting_transaction_index, c.computation_consumption) for c in out.result.chunks]
        assert got == [(0, 4), (1, 15), (2, 2)]
        assert out.chunk_tx_ranges[1] == (1, 2)

    def test_empty_block(self):
        out = run_block([], 10)
        (chunk,) = out.result.chunks
        assert chunk.computation_consumption == 0
        assert out.spocks == (EMPTY_TRACE,)

    def test_chunk_bound_property(self):
        rng = random.Random(21)
        for _ in range(50):
            gamma = rng.randrange(5, 30)
            costs = [rng.randrange(1, gamma + 5) for _ in range(rng.randrange(0, 40))]
            out = run_block(costs, gamma)
            chunks = out.result.chunks
            for k, chunk in enumerate(chunks):
                if chunk.computation_consumption > gamma:
                    lo, hi = out.chunk_tx_ranges[k]
                    assert hi - lo == 1  # only single oversized transactions exceed
            # contiguous coverage and consumption bookkeeping
            starts = [c.starting_transaction_index for c in chunks]
            assert starts[0] == 0
            assert starts == sorted(set(starts))
            assert sum(c.computation_consumption for c in chunks) == sum(costs)

    def test_reexecution_reproduces_commitments(self):
        # independent oracle: execute each chunk's range from its start
        # snapshot and compare against the committed boundaries
        rng = random.Random(33)
        costs = [rng.randrange(1, 12) for _ in range(25)]
        gamma = 16
        txs = [cost_tx(i, c) for i, c in enumerate(costs)]
        out = block_execution(BLOCK_HASH, txs, GENESIS_RESULT_HASH, ExecutionState(), gamma)
        chunks = out.result.chunks
        for k, chunk in enumerate(chunks):
            lo, hi = out.chunk_tx_ranges[k]
            st = out.chunk_start_states[k]
            assert st.root() == chunk.start_state_commitment
            trace = EMPTY_TRACE
            consumed = 0
            for tx in txs[lo:hi]:
                o = execute(st, tx)
                st = o.state
                consumed += o.cost
                trace = trace_update(trace, o.trace)
            assert consumed == chunk.computation_consumption
            assert trace == out.spocks[k]
            if k + 1 < len(chunks):
                assert st.root() == chunks[k + 1].start_state_commitment
            else:
                assert st.root() == out.result.final_state

    def test_executor_agreement(self):
        costs = [3, 9, 2, 8]
        a = run_block(costs, 10)
        b = run_block(costs, 10)
        assert a.result.result_hash() == b.result.result_hash()
        assert a.spocks == b.spocks


class TestResultHash:
    def test_equals_fresh_encoding(self):
        result = run_block([4, 4, 4], 10).result
        fresh = fhash("execresult", canonical_json(result.to_dict()))
        assert result.result_hash() == fresh
        assert result.result_hash() == fresh

    def test_replace_hashes_afresh(self):
        result = run_block([4, 4, 4], 10).result
        before = result.result_hash()
        tampered = dataclasses.replace(result, final_state=b"\xee" * 32)
        assert tampered.result_hash() != before
        assert tampered.result_hash() == fhash("execresult", canonical_json(tampered.to_dict()))
        assert result.result_hash() == before

    def test_memo_outside_equality(self):
        result = run_block([6, 6], 10).result
        copy = dataclasses.replace(result)
        result.result_hash()
        assert result == copy and hash(result) == hash(copy)
