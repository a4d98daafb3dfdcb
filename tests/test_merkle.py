import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from flowpipe import crypto
from flowpipe.merkle import (
    EMPTY_ROOT,
    ExecutionState,
    UnprovenRegister,
    ValueProof,
    state_proof_gen,
    value_proof_vrfy,
)


def random_state(rng, n):
    return ExecutionState({rng.randbytes(8): rng.randbytes(4) for _ in range(n)})


# -- oracle: a naive rebuild of the whole tree from the map ------------------


def _path(key: bytes) -> bytes:
    return crypto.hash("register-path", key)


def _bit(path: bytes, depth: int) -> int:
    return (path[depth // 8] >> (7 - depth % 8)) & 1


def _oracle_subtree(items: list[tuple[bytes, bytes]], depth: int) -> bytes:
    """Digest of the subtree at `depth` holding `items` (path, value)."""
    if not items:
        return EMPTY_ROOT
    if len(items) == 1:
        path, value = items[0]
        return crypto.hash("leaf", path + value)
    left = [it for it in items if not _bit(it[0], depth)]
    right = [it for it in items if _bit(it[0], depth)]
    return crypto.hash(
        "node", _oracle_subtree(left, depth + 1) + _oracle_subtree(right, depth + 1)
    )


def _items(registers: dict[bytes, bytes]) -> list[tuple[bytes, bytes]]:
    return [(_path(k), v) for k, v in registers.items()]


def oracle_root(registers: dict[bytes, bytes]) -> bytes:
    return _oracle_subtree(_items(registers), 0)


def oracle_prove(registers: dict[bytes, bytes], key: bytes) -> ValueProof:
    path = _path(key)
    items, depth, siblings = _items(registers), 0, []
    while len(items) > 1:
        on = [it for it in items if _bit(it[0], depth) == _bit(path, depth)]
        off = [it for it in items if _bit(it[0], depth) != _bit(path, depth)]
        siblings.append(_oracle_subtree(off, depth + 1))
        items, depth = on, depth + 1
    other = items[0] if items and items[0][0] != path else None
    return ValueProof(siblings=tuple(siblings), other=other)


def oracle_vrfy(key: bytes, value, proof: ValueProof, commitment: bytes) -> bool:
    """Recompute the root from the claim; the other register of a
    non-membership claim must lie on the key's path."""
    try:
        path, depth = _path(key), len(proof.siblings)
        if value is not None:
            if proof.other is not None:
                return False
            acc = crypto.hash("leaf", path + value)
        elif proof.other is None:
            acc = EMPTY_ROOT
        else:
            other_path, other_value = proof.other
            if len(other_path) != 32 or other_path == path:
                return False
            if any(_bit(other_path, d) != _bit(path, d) for d in range(depth)):
                return False
            acc = crypto.hash("leaf", other_path + other_value)
        if depth > 256:
            return False
        for d in reversed(range(depth)):
            sibling = proof.siblings[d]
            acc = crypto.hash("node", sibling + acc if _bit(path, d) else acc + sibling)
        return acc == commitment
    except Exception:
        return False


def assert_matches_oracle(st: ExecutionState, registers: dict[bytes, bytes], probes=()):
    assert st.registers == registers
    assert st.root() == oracle_root(registers)
    for key in list(registers) + list(probes):
        assert st.prove(key) == oracle_prove(registers, key)
        assert st.get(key) == registers.get(key)


registers_maps = hs.dictionaries(hs.binary(max_size=6), hs.binary(max_size=4), max_size=40)
probe_keys = hs.lists(hs.binary(max_size=6), max_size=8)


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

    def test_single_register_is_its_leaf(self):
        # compression: a subtree holding one register collapses to its leaf
        st = ExecutionState({b"a": b"1"})
        assert st.root() == crypto.hash("leaf", _path(b"a") + b"1")
        assert st.prove(b"a").siblings == ()


class TestProofs:
    def test_prove_verify_random_state(self):
        rng = random.Random(2)
        st = random_state(rng, 100)
        root = state_proof_gen(st)
        for key in sorted(st.registers):
            proof = st.prove(key)
            assert value_proof_vrfy(key, st.get(key), proof, root)

    def test_proofs_stay_logarithmic(self):
        st = random_state(random.Random(3), 1000)
        depths = [len(st.prove(key).siblings) for key in sorted(st.registers)]
        assert max(depths) <= 32 and sum(depths) / len(depths) < 14

    def test_flipped_value_rejected(self):
        st = ExecutionState({b"k%d" % i: b"v%d" % i for i in range(9)})
        root = st.root()
        proof = st.prove(b"k3")
        bad = bytes([st.get(b"k3")[0] ^ 1]) + st.get(b"k3")[1:]
        assert not value_proof_vrfy(b"k3", bad, proof, root)

    def test_wrong_root_rejected(self):
        a = ExecutionState({b"a": b"1", b"b": b"2"})
        other = ExecutionState({b"a": b"1", b"b": b"3"})
        proof = a.prove(b"a")
        assert not value_proof_vrfy(b"a", b"1", proof, other.root())

    def test_missing_key_proven_absent(self):
        st = ExecutionState({b"a": b"1"})
        proof = st.prove(b"zz")
        assert st.get(b"zz") is None
        assert value_proof_vrfy(b"zz", None, proof, st.root())
        assert not value_proof_vrfy(b"zz", b"1", proof, st.root())
        assert not value_proof_vrfy(b"a", None, st.prove(b"a"), st.root())

    def test_soundness_exhaustive_small_states(self):
        # proofs accept exactly the (key, value) pairs present in the state,
        # and absence exactly for the keys missing from it
        rng = random.Random(9)
        for n in (0, 1, 2, 3, 5, 8, 13, 64):
            st = random_state(rng, n)
            root = st.root()
            for key in sorted(st.registers):
                proof = st.prove(key)
                assert value_proof_vrfy(key, st.get(key), proof, root)
                assert not value_proof_vrfy(key, st.get(key) + b"x", proof, root)
                assert not value_proof_vrfy(key + b"x", st.get(key), proof, root)
                assert not value_proof_vrfy(key, None, proof, root)
            for _ in range(20):
                absent = rng.randbytes(9)
                proof = st.prove(absent)
                assert value_proof_vrfy(absent, None, proof, root)
                assert not value_proof_vrfy(absent, b"", proof, root)


class TestNonMembershipSoundness:
    """No proof, honest or not, shows a present key absent; and a
    non-membership proof shows only keys whose path ends where it does."""

    @settings(max_examples=80, deadline=None)
    @given(registers_maps.filter(bool), probe_keys)
    def test_no_proof_shows_a_present_key_absent(self, registers, probes):
        st = ExecutionState(registers)
        root = st.root()
        proofs = [st.prove(k) for k in list(registers) + probes]
        for key in registers:
            for proof in proofs:
                assert not value_proof_vrfy(key, None, proof, root)

    @settings(max_examples=80, deadline=None)
    @given(registers_maps, probe_keys)
    def test_absence_proofs_accept_no_value(self, registers, probes):
        st = ExecutionState(registers)
        for key in probes:
            if key in registers:
                continue
            proof = st.prove(key)
            assert value_proof_vrfy(key, None, proof, st.root())
            for value in set(registers.values()) | {b"", b"\x00"}:
                assert not value_proof_vrfy(key, value, proof, st.root())

    def test_other_register_off_the_path_rejected(self):
        st = random_state(random.Random(6), 40)
        root = st.root()
        rng = random.Random(7)
        checked = 0
        while checked < 20:
            absent = rng.randbytes(9)
            proof = st.prove(absent)
            if proof.other is None:
                continue
            checked += 1
            other_path, other_value = proof.other
            assert value_proof_vrfy(absent, None, proof, root)
            # the same leaf claimed by a key whose path diverges above it
            for probe in (rng.randbytes(9) for _ in range(30)):
                if st.get(probe) is None and st.prove(probe) != proof:
                    assert not value_proof_vrfy(probe, None, proof, root)
            # the other register claimed as its own absence
            owner = next(k for k in sorted(st.registers) if _path(k) == other_path)
            assert not value_proof_vrfy(owner, None, proof, root)
            assert value_proof_vrfy(owner, other_value, st.prove(owner), root)


    def test_leaf_off_its_path_proves_no_absence(self):
        # a commitment to a tree that puts a register's leaf under the wrong
        # prefix: the leaf must not prove absent a key whose path leads there
        owner = next(k for k in (b"k%d" % i for i in range(64)) if _bit(_path(k), 0))
        stray = next(k for k in (b"s%d" % i for i in range(64)) if not _bit(_path(k), 0))
        leaf = crypto.hash("leaf", _path(owner) + b"v")
        root = crypto.hash("node", leaf + EMPTY_ROOT)  # owner's leaf on the left
        proof = ValueProof(siblings=(EMPTY_ROOT,), other=(_path(owner), b"v"))
        assert not value_proof_vrfy(stray, None, proof, root)
        assert not oracle_vrfy(stray, None, proof, root)


class TestCachedTreeMatchesOracle:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 31, 64, 65, 100])
    def test_sizes(self, n):
        registers = {b"k%03d" % i: b"v%d" % i for i in range(n)}
        assert_matches_oracle(ExecutionState(registers), registers, [b"absent", b"k999"])

    def test_prove_before_root(self):
        registers = {b"k%d" % i: b"v" for i in range(11)}
        st = ExecutionState(registers)
        assert st.prove(b"k5") == oracle_prove(registers, b"k5")
        assert st.root() == oracle_root(registers)

    @settings(max_examples=150, deadline=None)
    @given(registers_maps, probe_keys)
    @example({}, [b""])
    @example({b"": b""}, [b"a"])
    @example({b"a": b"1", b"b": b"2"}, [])
    def test_random_maps(self, registers, probes):
        assert_matches_oracle(ExecutionState(registers), registers, probes)

    @settings(max_examples=60, deadline=None)
    @given(registers_maps, hs.lists(registers_maps, max_size=6), probe_keys)
    def test_update_chains(self, registers, updates, probes):
        chain = [(ExecutionState(registers), dict(registers))]
        for upd in updates:
            st, regs = chain[-1]
            chain.append((st.with_updates(upd), {**regs, **upd}))
            assert_matches_oracle(*chain[-1], probes)
        for st, regs in chain:  # earlier snapshots are unchanged
            assert_matches_oracle(st, regs, probes)


def _flip(b: bytes) -> bytes:
    return bytes([b[0] ^ 1]) + b[1:] if b else b"\x01"


def tampered_claims(st: ExecutionState, key: bytes, root: bytes):
    """(label, key, value, proof, commitment) variants of a valid claim,
    for a present key or an absent one."""
    value = st.get(key)
    proof = st.prove(key)
    siblings, other = proof.siblings, proof.other

    def claim(sibs=siblings, oth=other):
        return ValueProof(tuple(sibs), oth)

    yield "flipped-value", key, _flip(value or b""), proof, root
    yield "wrong-commitment", key, value, proof, _flip(root)
    yield "extended-path", key, value, claim(siblings + (root,)), root
    yield "over-long-path", key, value, claim(siblings + (EMPTY_ROOT,) * 257), root
    if siblings:
        yield "truncated-path", key, value, claim(siblings[:-1]), root
    for i, sibling in enumerate(siblings):
        def at(entry):
            return claim(siblings[:i] + (entry,) + siblings[i + 1 :])

        yield f"flipped-sibling-{i}", key, value, at(_flip(sibling)), root
        yield f"short-sibling-{i}", key, value, at(sibling[:-1]), root
    for i in range(len(siblings) - 1):
        if siblings[i] != siblings[i + 1]:
            swapped = siblings[:i] + (siblings[i + 1], siblings[i]) + siblings[i + 2 :]
            yield f"swapped-siblings-{i}", key, value, claim(swapped), root
    if value is None:
        yield "claimed-present", key, b"", proof, root
        if other is not None:
            yield "dropped-other", key, None, claim(oth=None), root
            yield "flipped-other-value", key, None, claim(oth=(other[0], _flip(other[1]))), root
            yield "other-is-key", key, None, claim(oth=(_path(key), other[1])), root
            yield "short-other-path", key, None, claim(oth=(other[0][:-1], other[1])), root
        else:
            yield "invented-other", key, None, claim(oth=(_flip(_path(key)), b"")), root
    else:
        yield "claimed-absent", key, None, proof, root
        yield "member-with-other", key, value, claim(oth=(_flip(_path(key)), b"")), root


class TestTamperedClaims:
    """Every tampered variant of a valid membership or non-membership claim
    is rejected, as the oracle rejects it."""

    @settings(max_examples=60, deadline=None)
    @given(registers_maps.filter(bool), probe_keys)
    def test_tampered_claims_rejected(self, registers, probes):
        st = ExecutionState(registers)
        root = st.root()
        for key in list(registers) + probes:
            assert value_proof_vrfy(key, st.get(key), st.prove(key), root)
            for label, k, v, proof, commitment in tampered_claims(st, key, root):
                verdict = value_proof_vrfy(k, v, proof, commitment)
                assert verdict == oracle_vrfy(k, v, proof, commitment), label
                assert not verdict, label

    def test_malformed_proof_never_raises(self):
        st = ExecutionState({b"a": b"1", b"b": b"2"})
        for proof in (ValueProof(None), ValueProof((b"x", 3)), ValueProof((), ("p",))):
            assert not value_proof_vrfy(b"a", b"1", proof, st.root())
            assert not value_proof_vrfy(b"c", None, proof, st.root())


class TestPartialTree:
    """`from_proofs` rebuilds the proven paths only: it reads and updates the
    proven registers as the full tree does, and refuses every other one."""

    @staticmethod
    def partial(st: ExecutionState, keys):
        registers = {k: st.get(k) for k in keys}
        proofs = {k: st.prove(k) for k in keys}
        for k in keys:
            assert value_proof_vrfy(k, registers[k], proofs[k], st.root())
        return ExecutionState.from_proofs(st.root(), registers, proofs)

    @settings(max_examples=100, deadline=None)
    @given(registers_maps, probe_keys, hs.data())
    def test_update_equals_full_tree_update(self, registers, probes, data):
        st = ExecutionState(registers)
        keys = sorted(set(probes) | set(data.draw(hs.lists(hs.sampled_from(sorted(registers) or [b""])))))
        part = self.partial(st, keys)
        assert part is not None and part.root() == st.root()
        for k in keys:
            assert part.get(k) == st.get(k)
        for _ in range(3):
            if not keys:
                break
            upd = data.draw(hs.dictionaries(hs.sampled_from(keys), hs.binary(max_size=4), max_size=4))
            st, part = st.with_updates(upd), part.with_updates(upd)
            assert part.root() == st.root()
            for k in keys:
                assert part.get(k) == st.get(k)

    def test_unproven_register_raises(self):
        st = random_state(random.Random(11), 30)
        present = sorted(st.registers)[0]
        part = self.partial(st, [present, b"absent"])
        assert part.get(b"absent") is None
        for key in (sorted(st.registers)[1], b"other-absent"):
            with pytest.raises(UnprovenRegister):
                part.get(key)
            with pytest.raises(UnprovenRegister):
                part.with_updates({key: b"v"})
        with pytest.raises(UnprovenRegister):
            part.with_updates({present: b"v", b"other-absent": b"v"})

    def test_unproven_key_in_a_proven_slot_raises(self):
        # `hidden` ends where the proven `shown` does, in a slot the partial
        # tree knows; it is still not in the package, so it never reads as
        # absent and cannot be written
        st = random_state(random.Random(14), 3)
        rng = random.Random(15)
        shown = rng.randbytes(9)
        hidden = next(
            k for k in (rng.randbytes(9) for _ in range(10_000)) if st.prove(k) == st.prove(shown)
        )
        part = self.partial(st, [shown])
        assert part.get(shown) is None
        with pytest.raises(UnprovenRegister):
            part.get(hidden)
        with pytest.raises(UnprovenRegister):
            part.with_updates({hidden: b"v"})

    def test_no_registers_is_the_bare_commitment(self):
        st = random_state(random.Random(12), 10)
        part = ExecutionState.from_proofs(st.root(), {}, {})
        assert part.root() == st.root()
        with pytest.raises(UnprovenRegister):
            part.get(sorted(st.registers)[0])

    def test_proofs_disagreeing_on_shape_refused(self):
        rng = random.Random(13)
        st = random_state(rng, 20)
        key = sorted(st.registers)[0]
        # a valid proof of `key`, but from a state with more registers
        other = st.with_updates({rng.randbytes(8): b"x" for _ in range(20)})
        assert other.prove(key) != st.prove(key)
        assert ExecutionState.from_proofs(st.root(), {key: st.get(key)}, {key: other.prove(key)}) is None
        assert ExecutionState.from_proofs(_flip(st.root()), {key: st.get(key)}, {key: st.prove(key)}) is None
        # one proof ends at the root where another goes on below it
        lone = ExecutionState({b"a": b"1"})
        pair = lone.with_updates({b"b": b"2"})
        registers = {b"a": b"1", b"b": b"2"}
        proofs = {b"a": lone.prove(b"a"), b"b": pair.prove(b"b")}
        for root in (lone.root(), pair.root()):
            assert ExecutionState.from_proofs(root, registers, proofs) is None
