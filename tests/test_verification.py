import dataclasses
import math
import random

import pytest

from flowpipe import crypto
from flowpipe.challenges import (
    ChallengeKind,
    adjudicate_challenge,
    adjudicate_fcc,
    fcc_chunk,
    fcc_signed,
    make_fcc,
    make_mcc,
    mcc_texts,
)
from flowpipe.execution import (
    GENESIS_RESULT_HASH,
    ExecutionReceipt,
    ExecutionResult,
    block_execution,
)
from flowpipe.merkle import ExecutionState, value_proof_vrfy
from flowpipe.state import NodeIdentity, ProtocolState, Role
from flowpipe.verification import (
    ChunkDataPackage,
    assign_chunks,
    chunk_data_packages,
    verify_chunk,
)
from flowpipe.vm import (
    SignedTransaction,
    ToyTransaction,
    account_key,
    encode_balance,
    register_key,
)

BLOCK_HASH = b"\xb1" * 32
RAND = crypto.hash("rand", b"x")


def op_tx(op, cost):
    return SignedTransaction(
        script=ToyTransaction(operations=({**op, "cost": cost},)).to_script(),
        payer_signature=b"\x01" * 32,
        script_signatures=(),
        reference_block_hash=b"\x00" * 32,
    )


def cost_tx(i, cost):
    return op_tx({"kind": "set_register", "register": f"r{i}", "value": "ab"}, cost)


ALICE, BOB, CAROL = (account_key(a) for a in ("alice", "bob", "carol"))

# registers present before the block; the u* registers stay untouched
START = {
    register_key("r0"): b"\x00",
    register_key("r1"): b"\x01",
    ALICE: encode_balance(50),
    BOB: encode_balance(0),
    **{register_key(f"u{j}"): bytes([j]) for j in range(20)},
}

# with gamma 8 the costs make three chunks: [0, 1], [2, 3], [4]
BLOCK_OPS = (
    ({"kind": "set_register", "register": "r0", "value": "ab"}, 3),
    ({"kind": "transfer", "from": "alice", "to": "bob", "amount": 10}, 4),
    ({"kind": "set_register", "register": "r2", "value": "cd"}, 5),
    ({"kind": "transfer", "from": "alice", "to": "carol", "amount": 1}, 2),  # fails
    ({"kind": "set_register", "register": "r1", "value": "ef"}, 6),
)

# the registers each chunk reads or writes; carol and r2 are absent at its start
TOUCHED = [
    {register_key("r0"), ALICE, BOB},
    {register_key("r2"), ALICE, CAROL},
    {register_key("r1")},
]


def executed_block(ops=BLOCK_OPS, gamma=8, start=START):
    txs = [op_tx(op, cost) for op, cost in ops]
    out = block_execution(BLOCK_HASH, txs, GENESIS_RESULT_HASH, ExecutionState(start), gamma)
    return txs, out


def package_for(out, txs, k) -> ChunkDataPackage:
    return chunk_data_packages(out, txs)[k]


def receipt_for(result, out, executor=b"") -> ExecutionReceipt:
    """An (unsigned) receipt for `result` with the spocks of `out`."""
    return ExecutionReceipt(result, out.spocks, executor, b"")


class TestAssignChunks:
    def test_full_coverage(self):
        v = crypto.hash("v", b"1")
        assert assign_chunks(v, 10, RAND, 1.0) == set(range(10))

    def test_deterministic(self):
        v = crypto.hash("v", b"2")
        assert assign_chunks(v, 50, RAND, 0.5) == assign_chunks(v, 50, RAND, 0.5)

    def test_rate_matches_p(self):
        # oracle: binomial 3-sigma band over 10^4 (verifier, chunk) pairs
        n_verifiers, n_chunks, p = 100, 100, 0.5
        hits = 0
        for i in range(n_verifiers):
            v = crypto.hash("v", bytes([i]))
            hits += len(assign_chunks(v, n_chunks, RAND, p))
        trials = n_verifiers * n_chunks
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(hits - trials * p) < 3 * sigma

    def test_invalid_p_rejected(self):
        with pytest.raises(ValueError):
            assign_chunks(b"\x00" * 32, 5, RAND, 0.0)


class TestVerifyChunk:
    def setup_method(self):
        self.txs, self.out = executed_block()

    def test_honest_result_approved_every_chunk(self):
        for k in range(len(self.out.result.chunks)):
            verdict = verify_chunk(
                self.out.result, k, package_for(self.out, self.txs, k), self.out.spocks[k]
            )
            assert verdict.ok, verdict.reason

    def test_tampered_final_state_detected(self):
        r = self.out.result
        tampered = ExecutionResult(r.block_hash, r.previous_execution_result_hash, r.chunks, b"\xee" * 32)
        last = len(r.chunks) - 1
        verdict = verify_chunk(
            tampered, last, package_for(self.out, self.txs, last), self.out.spocks[last]
        )
        assert not verdict.ok
        assert verdict.reason == "end-state-mismatch"
        assert verdict.result_fault

    def test_tampered_consumption_detected(self):
        r = self.out.result
        from flowpipe.execution import Chunk

        c0 = r.chunks[0]
        fake = Chunk(c0.start_state_commitment, c0.starting_transaction_cc,
                     c0.starting_transaction_index, c0.computation_consumption + 1)
        tampered = ExecutionResult(r.block_hash, r.previous_execution_result_hash,
                                   (fake,) + r.chunks[1:], r.final_state)
        verdict = verify_chunk(
            tampered, 0, package_for(self.out, self.txs, 0), self.out.spocks[0]
        )
        assert not verdict.ok
        assert verdict.reason == "consumption-mismatch"
        assert verdict.result_fault

    def test_wrong_spock_detected(self):
        verdict = verify_chunk(
            self.out.result, 0, package_for(self.out, self.txs, 0), b"\x00" * 32
        )
        assert not verdict.ok
        assert verdict.reason == "trace-mismatch"
        # the signature over the result does not cover the SPoCK
        assert not verdict.result_fault

    def test_tampered_register_value_fails_proof(self):
        pkg = package_for(self.out, self.txs, 1)
        key = next(iter(pkg.registers))
        registers = dict(pkg.registers)
        registers[key] = registers[key] + b"\x01"
        tampered = dataclasses.replace(pkg, registers=registers)
        verdict = verify_chunk(self.out.result, 1, tampered, self.out.spocks[1])
        assert not verdict.ok
        assert verdict.reason == "state-proof-failure"
        assert not verdict.result_fault

    def test_missing_proof_fails(self):
        pkg = package_for(self.out, self.txs, 1)
        if pkg.proofs:
            proofs = dict(pkg.proofs)
            proofs.pop(next(iter(proofs)))
            tampered = dataclasses.replace(pkg, proofs=proofs)
            verdict = verify_chunk(self.out.result, 1, tampered, self.out.spocks[1])
            assert not verdict.ok
            assert verdict.reason == "state-proof-failure"


class TestTouchedRegisterPackages:
    """A package proves exactly the registers its chunk touches, each
    against the chunk's start commitment, and a verifier re-executes on the
    partial tree those proofs span."""

    def setup_method(self):
        self.txs, self.out = executed_block()
        self.packages = chunk_data_packages(self.out, self.txs)

    def verdict(self, k, registers=None, proofs=None):
        pkg = self.packages[k]
        twin = dataclasses.replace(
            pkg,
            registers=pkg.registers if registers is None else registers,
            proofs=pkg.proofs if proofs is None else proofs,
        )
        v = verify_chunk(self.out.result, k, twin, self.out.spocks[k])
        return v.ok, v.reason

    def test_packages_carry_only_touched_registers(self):
        assert len(self.packages) == len(TOUCHED)
        for k, pkg in enumerate(self.packages):
            assert set(pkg.registers) == set(pkg.proofs) == TOUCHED[k]
            start = self.out.chunk_start_states[k]
            root = self.out.result.chunks[k].start_state_commitment
            for key, value in pkg.registers.items():
                assert value == start.get(key)
                assert value_proof_vrfy(key, value, pkg.proofs[key], root)
        assert self.packages[1].registers[CAROL] is None
        assert self.packages[1].registers[register_key("r2")] is None

    def test_empty_chunk_package_carries_zero_registers(self):
        malformed = SignedTransaction(b"not json", b"\x01" * 32, (), b"\x00" * 32)
        for txs in ([], [malformed]):
            out = block_execution(BLOCK_HASH, txs, GENESIS_RESULT_HASH, ExecutionState(START), 8)
            (pkg,) = chunk_data_packages(out, txs)
            assert dict(pkg.registers) == {} and dict(pkg.proofs) == {}
            assert verify_chunk(out.result, 0, pkg, out.spocks[0]).ok

    def test_package_lacking_a_touched_key_rejected(self):
        # a read of a present key, a read of an absent key, a pure write
        for key in (ALICE, CAROL, register_key("r2")):
            registers = {k: v for k, v in self.packages[1].registers.items() if k != key}
            assert self.verdict(1, registers=registers) == (False, "unproven-register"), key

    def test_missing_key_in_a_proven_slot_rejected(self):
        # two absent accounts whose paths end in the same empty slot or at
        # the same neighbouring leaf: proving one does not prove the other
        start = ExecutionState(START)
        names = [f"x{i}" for i in range(2000)]
        first = {}
        for name in names:
            proof = start.prove(account_key(name))
            if proof in first:
                a, b = first[proof], name
                break
            first[proof] = name
        ops = (({"kind": "transfer", "from": a, "to": b, "amount": 1}, 1),)
        txs, out = executed_block(ops)
        (pkg,) = chunk_data_packages(out, txs)
        assert set(pkg.registers) == {account_key(a), account_key(b)}
        assert verify_chunk(out.result, 0, pkg, out.spocks[0]).ok
        registers = {account_key(a): None}
        twin = dataclasses.replace(pkg, registers=registers)
        verdict = verify_chunk(out.result, 0, twin, out.spocks[0])
        assert (verdict.ok, verdict.reason) == (False, "unproven-register")
        assert not verdict.result_fault

    def test_package_lying_about_an_absence_rejected(self):
        pkg = self.packages[1]
        start = self.out.chunk_start_states[1]
        # a present register claimed absent, with its own or a borrowed proof
        for proof in (pkg.proofs[ALICE], pkg.proofs[CAROL], start.prove(b"nowhere")):
            registers = {**pkg.registers, ALICE: None}
            proofs = {**pkg.proofs, ALICE: proof}
            assert self.verdict(1, registers, proofs) == (False, "state-proof-failure")
        # an absent register claimed present
        registers = {**pkg.registers, CAROL: encode_balance(100)}
        assert self.verdict(1, registers=registers) == (False, "state-proof-failure")

    def test_package_carrying_a_bogus_register_rejected(self):
        pkg = self.packages[1]
        start = self.out.chunk_start_states[1]
        untouched = register_key("u3")
        for key, value, proof in [
            (b"reg/bogus", b"\x01", pkg.proofs[ALICE]),
            (b"reg/bogus", b"\x01", start.prove(b"reg/bogus")),
            (untouched, b"\xff", start.prove(untouched)),
        ]:
            registers = {**pkg.registers, key: value}
            proofs = {**pkg.proofs, key: proof}
            assert self.verdict(1, registers, proofs) == (False, "state-proof-failure")
        # an untouched register with its true value and proof does no harm
        registers = {**pkg.registers, untouched: start.get(untouched)}
        proofs = {**pkg.proofs, untouched: start.prove(untouched)}
        assert self.verdict(1, registers, proofs) == (True, None)


def adjudication_state():
    records = {}
    for i, role in enumerate([Role.EXECUTION, Role.EXECUTION, Role.VERIFICATION]):
        kp = crypto.StakingKeyPair.from_seed(bytes([120 + i]) * 32)
        records[kp.public] = NodeIdentity(kp.public, role, 100, f"a{i}")
    keys = sorted(records)
    return ProtocolState(records=records), keys


class TestAdjudicateFcc:
    def setup_method(self):
        self.state, self.keys = adjudication_state()
        self.executor, self.challenger = self.keys[0], self.keys[2]
        self.txs, self.out = executed_block()

    def test_genuine_fault_slashes_executor(self):
        r = self.out.result
        tampered = ExecutionResult(r.block_hash, r.previous_execution_result_hash, r.chunks, b"\xee" * 32)
        last = len(r.chunks) - 1
        fcc = make_fcc(self.challenger, self.executor, tampered.result_hash(), last, b"")
        packages = chunk_data_packages(self.out, self.txs)
        adj, upd = adjudicate_fcc(self.state, fcc, receipt_for(tampered, self.out), packages)
        assert adj.outcome == "accused_slashed"
        assert adj.slashed == (self.executor,)
        assert upd.entries[0]["amount"] == 100

    def test_frivolous_challenge_slashes_challenger(self):
        last = len(self.out.result.chunks) - 1
        fcc = make_fcc(self.challenger, self.executor, self.out.result.result_hash(), last, b"")
        packages = chunk_data_packages(self.out, self.txs)
        adj, upd = adjudicate_fcc(self.state, fcc, receipt_for(self.out.result, self.out), packages)
        assert adj.outcome == "challenger_slashed"
        assert adj.slashed == (self.challenger,)

    def test_challenge_names_its_chunk(self):
        """The chunk digest in `evidence[1]` picks the package judged; a
        digest naming no chunk of the result slashes the challenger."""
        r = self.out.result
        assert len(r.chunks) >= 2
        c1 = r.chunks[1]
        fake = dataclasses.replace(c1, computation_consumption=c1.computation_consumption + 1)
        tampered = dataclasses.replace(r, chunks=(r.chunks[0], fake) + r.chunks[2:])
        receipt = receipt_for(tampered, self.out)
        packages = chunk_data_packages(self.out, self.txs)
        rh = tampered.result_hash()
        outcomes = {}
        for k in (0, 1, len(r.chunks)):
            fcc = make_fcc(self.challenger, self.executor, rh, k, b"")
            assert fcc_chunk(fcc, tampered) == (k if k < len(r.chunks) else None)
            outcomes[k] = adjudicate_fcc(self.state, fcc, receipt, packages)[0].outcome
        assert outcomes == {
            0: "challenger_slashed",
            1: "accused_slashed",
            len(r.chunks): "challenger_slashed",
        }
        unnamed = dataclasses.replace(fcc, evidence=(rh,))
        assert fcc_chunk(unnamed, tampered) is None

    def test_fcc_signed_only_by_its_one_accused(self):
        """`fcc_signed` holds when the FCC carries its one accused
        executor's signature over the disputed result, and for no other
        accused, signature, result or second accused."""
        signer = crypto.StakingKeyPair.from_seed(b"\x77" * 32)
        other = crypto.StakingKeyPair.from_seed(b"\x78" * 32)
        rh = self.out.result.result_hash()
        sig = signer.sign(rh)
        fcc = make_fcc(self.challenger, signer.public, rh, 0, sig)
        assert fcc_signed(fcc)
        for accused, result, signature in (
            (other.public, rh, sig),
            (signer.public, rh, other.sign(rh)),
            (signer.public, crypto.hash("other", b""), sig),
            (signer.public, rh, b""),
        ):
            assert not fcc_signed(make_fcc(self.challenger, accused, result, 0, signature))
        assert not fcc_signed(dataclasses.replace(fcc, accused=(signer.public, other.public)))
        assert not fcc_signed(dataclasses.replace(fcc, evidence=fcc.evidence[:2]))


class TestAdjudicateMcc:
    def setup_method(self):
        self.state, self.keys = adjudication_state()
        self.txs, _ = executed_block()
        from flowpipe.collection import collection_hash

        self.coll_hash = collection_hash([t.tx_hash() for t in self.txs])
        self.guarantors = tuple(self.keys[:2])
        self.mcc = make_mcc(self.keys[2], self.guarantors, self.coll_hash)

    def test_total_silence_slashes_all_and_attests(self):
        """No response rebuilds the collection, so every guarantor is at
        fault; the upholding adjudication carries the challenge's id, which
        an executor matches against the finalized MCC before it skips."""
        assert mcc_texts(self.mcc, {}) is None
        adj, upd = adjudicate_challenge(self.state, self.mcc, accused_at_fault=True)
        assert adj.outcome == "accused_slashed"
        assert adj.challenge_id == self.mcc.challenge_id
        assert set(adj.slashed) == set(self.guarantors)
        assert [e["amount"] for e in upd.entries] == [100, 100]

    def test_one_valid_response_dismisses(self):
        texts = mcc_texts(self.mcc, {self.guarantors[1]: tuple(self.txs)})
        assert [t.tx_hash() for t in texts] == [t.tx_hash() for t in self.txs]

    def test_first_rebuilding_guarantor_in_key_order(self):
        first, second = sorted(self.guarantors)
        responses = {second: tuple(self.txs), first: tuple(self.txs)}
        assert mcc_texts(self.mcc, responses) is responses[first]

    def test_corrupt_response_counts_as_silence(self):
        responses = {self.guarantors[0]: self.txs[:-1]}  # wrong contents
        assert mcc_texts(self.mcc, responses) is None

    def test_challenge_kinds(self):
        assert self.mcc.kind == ChallengeKind.MISSING_COLLECTION
        fcc = make_fcc(self.keys[2], self.keys[0], b"\x01" * 32, 0, b"")
        assert fcc.kind == ChallengeKind.FAULTY_COMPUTATION


class TestDetectionScaling:
    def test_zero_check_probability_matches_independence(self):
        # oracle: a faulty chunk escapes when no honest verifier draws it;
        # empirical rate must sit within 3 sigma of (1-p)^v
        rng = random.Random(5)
        for p, v in [(0.3, 3), (0.5, 5)]:
            trials = 10_000
            misses = 0
            for t in range(trials):
                rand = crypto.hash("trial", t.to_bytes(4, "big") + bytes([int(p * 10), v]))
                chunk = 0
                checked = any(
                    chunk in assign_chunks(crypto.hash("ver", bytes([i])), 1, rand, p)
                    for i in range(v)
                )
                if not checked:
                    misses += 1
            expect = (1 - p) ** v
            sigma = math.sqrt(trials * expect * (1 - expect))
            assert abs(misses - trials * expect) < 3 * sigma, (p, v)


class TestSharedVerdict:
    """`ChunkDataPackage.verdict` keeps `verify_chunk`'s verdict on the
    package, which every verifier and adjudicator receives by reference.
    Twins built with `dataclasses.replace` and other results are judged on
    their own."""

    def setup_method(self):
        self.txs, self.out = executed_block()
        self.last = len(self.out.result.chunks) - 1

    def test_package_is_deeply_immutable(self):
        st = self.out.chunk_start_states[1]
        registers = st.registers
        pkg = ChunkDataPackage(
            registers=registers,
            proofs={key: st.prove(key) for key in registers},
            transactions=list(self.txs[:2]),
        )
        key = next(iter(registers))
        registers[key] = b"\xff"  # the caller's dict is not the package's
        assert pkg.registers[key] == st.get(key)
        with pytest.raises(TypeError):
            pkg.registers[key] = b"\xff"
        with pytest.raises(TypeError):
            pkg.proofs[key] = None
        with pytest.raises(dataclasses.FrozenInstanceError):
            pkg.registers = {}
        assert pkg.transactions == tuple(self.txs[:2])
        with pytest.raises(dataclasses.FrozenInstanceError):
            pkg.verdict(self.out.result, 1, self.out.spocks[1]).ok = False

    def test_tampered_package_twin_rejected_after_original_accepted(self):
        pkg = package_for(self.out, self.txs, 1)
        assert pkg.verdict(self.out.result, 1, self.out.spocks[1]).ok
        key = next(iter(pkg.registers))
        registers = dict(pkg.registers)
        registers[key] = registers[key] + b"\x01"
        twin = dataclasses.replace(pkg, registers=registers)
        verdict = twin.verdict(self.out.result, 1, self.out.spocks[1])
        assert (verdict.ok, verdict.reason) == (False, "state-proof-failure")
        dropped = dataclasses.replace(pkg, transactions=pkg.transactions[:-1])
        assert not dropped.verdict(self.out.result, 1, self.out.spocks[1]).ok
        assert pkg.verdict(self.out.result, 1, self.out.spocks[1]).ok

    def test_tampered_result_and_spock_judged_on_their_own(self):
        pkg = package_for(self.out, self.txs, self.last)
        spock = self.out.spocks[self.last]
        assert pkg.verdict(self.out.result, self.last, spock).ok
        bad = dataclasses.replace(self.out.result, final_state=crypto.hash("bad", b""))
        verdict = pkg.verdict(bad, self.last, spock)
        assert (verdict.ok, verdict.reason) == (False, "end-state-mismatch")
        verdict = pkg.verdict(self.out.result, self.last, b"\x00" * 32)
        assert (verdict.ok, verdict.reason) == (False, "trace-mismatch")
        assert pkg.verdict(self.out.result, self.last, spock).ok

    def test_verifiers_and_adjudicators_share_one_check(self, monkeypatch):
        import flowpipe.verification as verification

        calls = []
        real = verification.verify_chunk

        def counting(*args):
            calls.append(args[1])
            return real(*args)

        counting.__name__ = real.__name__
        monkeypatch.setattr(verification, "verify_chunk", counting)
        result = dataclasses.replace(self.out.result, final_state=crypto.hash("bad", b""))
        pkg = package_for(self.out, self.txs, self.last)
        spock = self.out.spocks[self.last]
        for _ in range(5):  # five verifiers draw the chunk
            assert not pkg.verdict(result, self.last, spock).ok
        state, keys = adjudication_state()
        fcc = make_fcc(keys[2], keys[0], result.result_hash(), self.last, b"")
        receipt = receipt_for(result, self.out)
        packages = chunk_data_packages(self.out, self.txs)[: self.last] + (pkg,)
        for _ in range(7):  # seven consensus nodes adjudicate
            adj, _ = adjudicate_fcc(state, fcc, receipt, packages)
            assert adj.slashed == (keys[0],)
        assert calls == [self.last]
