import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from flowpipe import crypto
from flowpipe.merkle import (
    EMPTY_ROOT,
    ExecutionState,
    ValueProof,
    state_proof_gen,
    value_proof_gen,
    value_proof_vrfy,
)


def random_state(rng, n):
    return ExecutionState({rng.randbytes(8): rng.randbytes(4) for _ in range(n)})


# -- oracle: the whole-tree rebuild, once per root and once per proof ------


def _oracle_leaf(key: bytes, value: bytes) -> bytes:
    return crypto.hash("leaf", len(key).to_bytes(8, "big") + key + value)


def _oracle_node(left: bytes, right: bytes) -> bytes:
    return crypto.hash("node", left + right)


def _oracle_next(level: list[bytes]) -> list[bytes]:
    nxt = [_oracle_node(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
    if len(level) % 2:
        nxt.append(level[-1])  # odd node promoted unchanged
    return nxt


def oracle_root(registers: dict[bytes, bytes]) -> bytes:
    level = [_oracle_leaf(k, registers[k]) for k in sorted(registers)]
    if not level:
        return EMPTY_ROOT
    while len(level) > 1:
        level = _oracle_next(level)
    return level[0]


def oracle_prove(registers: dict[bytes, bytes], key: bytes) -> tuple:
    keys = sorted(registers)
    idx = keys.index(key)
    level = [_oracle_leaf(k, registers[k]) for k in keys]
    path = []
    while len(level) > 1:
        pair = idx ^ 1
        if pair < len(level):
            path.append((pair > idx, level[pair]))
        idx //= 2
        level = _oracle_next(level)
    return tuple(path)


def oracle_vrfy(key: bytes, value: bytes, proof: ValueProof, commitment: bytes) -> bool:
    try:
        acc = _oracle_leaf(key, value)
        for right, sibling in proof.path:
            acc = _oracle_node(acc, sibling) if right else _oracle_node(sibling, acc)
        return acc == commitment
    except Exception:
        return False


def assert_matches_oracle(st: ExecutionState, registers: dict[bytes, bytes]):
    assert st.registers == registers
    assert st.root() == oracle_root(registers)
    for key in registers:
        assert st.prove(key).path == oracle_prove(registers, key)


registers_maps = hs.dictionaries(hs.binary(max_size=6), hs.binary(max_size=4), max_size=40)


class TestRoot:
    def test_empty(self):
        assert ExecutionState().root() == EMPTY_ROOT

    def test_order_independence(self):
        a = ExecutionState({b"a": b"1", b"b": b"2"})
        b = ExecutionState({b"b": b"2", b"a": b"1"})
        assert a.root() == b.root()

    def test_value_sensitivity(self):
        a = ExecutionState({b"a": b"1"})
        b = ExecutionState({b"a": b"2"})
        assert a.root() != b.root()

    def test_updates_immutable(self):
        a = ExecutionState({b"a": b"1"})
        root_before = a.root()
        b = a.with_updates({b"b": b"2"})
        assert a.root() == root_before
        assert b.root() != root_before


class TestProofs:
    def test_prove_verify_random_state(self):
        rng = random.Random(2)
        st = random_state(rng, 100)
        root = state_proof_gen(st)
        for key in st.keys():
            proof = value_proof_gen(st, key)
            assert value_proof_vrfy(key, st.get(key), proof, root)

    def test_flipped_value_rejected(self):
        st = ExecutionState({b"k%d" % i: b"v%d" % i for i in range(9)})
        root = st.root()
        proof = value_proof_gen(st, b"k3")
        bad = bytes([st.get(b"k3")[0] ^ 1]) + st.get(b"k3")[1:]
        assert not value_proof_vrfy(b"k3", bad, proof, root)

    def test_wrong_root_rejected(self):
        a = ExecutionState({b"a": b"1", b"b": b"2"})
        other = ExecutionState({b"a": b"1", b"b": b"3"})
        proof = value_proof_gen(a, b"a")
        assert not value_proof_vrfy(b"a", b"1", proof, other.root())

    def test_missing_key_raises(self):
        with pytest.raises(KeyError):
            value_proof_gen(ExecutionState({b"a": b"1"}), b"zz")

    def test_soundness_exhaustive_small_states(self):
        # proofs accept exactly the (key, value) pairs present in the state
        rng = random.Random(9)
        for n in (1, 2, 3, 5, 8, 13, 64):
            st = random_state(rng, n)
            root = st.root()
            for key in st.keys():
                proof = value_proof_gen(st, key)
                assert value_proof_vrfy(key, st.get(key), proof, root)
                assert not value_proof_vrfy(key, st.get(key) + b"x", proof, root)
                assert not value_proof_vrfy(key + b"x", st.get(key), proof, root)


class TestCachedTreeMatchesOracle:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 64, 65, 100])
    def test_sizes(self, n):
        registers = {b"k%03d" % i: b"v%d" % i for i in range(n)}
        assert_matches_oracle(ExecutionState(registers), registers)

    def test_prove_before_root(self):
        registers = {b"k%d" % i: b"v" for i in range(11)}
        st = ExecutionState(registers)
        assert st.prove(b"k5").path == oracle_prove(registers, b"k5")
        assert st.root() == oracle_root(registers)

    @settings(max_examples=150, deadline=None)
    @given(registers_maps)
    @example({})
    @example({b"": b""})
    @example({b"a": b"1", b"b": b"2"})
    def test_random_maps(self, registers):
        assert_matches_oracle(ExecutionState(registers), registers)

    @settings(max_examples=60, deadline=None)
    @given(registers_maps, hs.lists(registers_maps, max_size=6))
    def test_update_chains(self, registers, updates):
        chain = [(ExecutionState(registers), dict(registers))]
        for upd in updates:
            st, regs = chain[-1]
            chain.append((st.with_updates(upd), {**regs, **upd}))
            assert_matches_oracle(*chain[-1])
        for st, regs in chain:  # earlier snapshots are unchanged
            assert_matches_oracle(st, regs)


def _flip(b: bytes) -> bytes:
    return bytes([b[0] ^ 1]) + b[1:] if b else b"\x01"


def tampered_claims(registers: dict[bytes, bytes], key: bytes, root: bytes):
    """(label, key, value, proof, commitment) variants of a valid claim."""
    value = registers[key]
    path = ExecutionState(registers).prove(key).path
    yield "flipped-value", key, _flip(value), ValueProof(path), root
    yield "wrong-commitment", key, value, ValueProof(path), _flip(root)
    yield "extended-path", key, value, ValueProof(path + ((True, root),)), root
    if path:
        yield "truncated-path", key, value, ValueProof(path[:-1]), root
    for i, (right, sibling) in enumerate(path):
        def at(entry):
            return ValueProof(path[:i] + (entry,) + path[i + 1 :])

        yield f"flipped-sibling-{i}", key, value, at((right, _flip(sibling))), root
        yield f"wrong-side-{i}", key, value, at((not right, sibling)), root
        yield f"short-sibling-{i}", key, value, at((right, sibling[:-1])), root
    for i in range(len(path) - 1):
        if path[i] != path[i + 1]:
            swapped = path[:i] + (path[i + 1], path[i]) + path[i + 2 :]
            yield f"swapped-siblings-{i}", key, value, ValueProof(swapped), root


class TestMemoizedVerification:
    """A memo shared by many proof checks must give each the verdict an
    unmemoized check gives, whatever it was warmed with."""

    @settings(max_examples=60, deadline=None)
    @given(registers_maps.filter(bool), registers_maps)
    def test_memo_agrees_on_tampered_claims(self, registers, other):
        root = oracle_root(registers)
        memo: dict = {}
        for regs in (registers, other):  # warm with valid proofs of two states
            st = ExecutionState(regs)
            for key in regs:
                assert value_proof_vrfy(key, regs[key], st.prove(key), st.root(), memo)
        for key in registers:
            for label, k, v, proof, commitment in tampered_claims(registers, key, root):
                plain = value_proof_vrfy(k, v, proof, commitment)
                assert plain == oracle_vrfy(k, v, proof, commitment), label
                assert value_proof_vrfy(k, v, proof, commitment, memo) == plain, label
                assert not plain, label

    def test_memo_entries_are_node_hashes(self):
        st = random_state(random.Random(4), 33)
        memo: dict = {}
        for key in st.keys():
            assert value_proof_vrfy(key, st.get(key), st.prove(key), st.root(), memo)
        assert memo and all(v == crypto.hash("node", l + r) for (l, r), v in memo.items())
        assert len(memo) == 33 - 1  # one entry per internal node
