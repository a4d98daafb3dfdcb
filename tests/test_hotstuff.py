import math

import pytest

from flowpipe import crypto
from flowpipe.encoding import canonical_json
from flowpipe.hotstuff import (
    GENESIS_DIGEST,
    GENESIS_QC,
    BlockTree,
    ConsensusEngine,
    EquivocationEvidence,
    NewRound,
    Proposal,
    QuorumCertificate,
    Vote,
    finality_check,
    leader_for_round,
    qc_valid,
    vote_payload,
)
from flowpipe.scenario import DEFAULTS
from flowpipe.sim import SimConfig, Simulator
from flowpipe.state import NodeIdentity, Role

SEED = b"\x07" * 32


def make_members(stakes):
    kps = [crypto.StakingKeyPair.from_seed(bytes([i + 1]) * 32) for i in range(len(stakes))]
    members = [
        NodeIdentity(kp.public, Role.CONSENSUS, stake, f"n{i}")
        for i, (kp, stake) in enumerate(zip(kps, stakes))
    ]
    return kps, members


class TestLeaderSelection:
    def test_single_member(self):
        kps, members = make_members([5])
        for r in range(1, 20):
            assert leader_for_round(r, members, SEED) == kps[0].public

    def test_agreement_regardless_of_input_order(self):
        kps, members = make_members([3, 1, 2])
        for r in range(1, 50):
            assert leader_for_round(r, members, SEED) == leader_for_round(
                r, list(reversed(members)), SEED
            )

    def test_equal_stakes_frequency(self):
        # oracle: binomial 3-sigma band around 1/n over 10^5 rounds
        n, rounds = 5, 100_000
        kps, members = make_members([7] * n)
        counts = {kp.public: 0 for kp in kps}
        for r in range(1, rounds + 1):
            counts[leader_for_round(r, members, SEED)] += 1
        p = 1 / n
        sigma = math.sqrt(rounds * p * (1 - p))
        for c in counts.values():
            assert abs(c - rounds * p) < 3 * sigma

    def test_double_stake_double_frequency(self):
        kps, members = make_members([2, 1, 1])
        rounds = 100_000
        counts = {kp.public: 0 for kp in kps}
        for r in range(1, rounds + 1):
            counts[leader_for_round(r, members, SEED)] += 1
        p = 1 / 2
        sigma = math.sqrt(rounds * p * (1 - p))
        assert abs(counts[kps[0].public] - rounds * p) < 3 * sigma

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            leader_for_round(1, [], SEED)


class TestQcValidity:
    def make_qc(self, kps, members, signer_idx, round_number=3, digest=b"\xcd" * 32):
        msg = vote_payload(round_number, digest)
        signers = tuple(kps[i].public for i in signer_idx)
        sigs = tuple(kps[i].sign(msg) for i in signer_idx)
        return QuorumCertificate(digest, round_number, signers, sigs)

    def test_supermajority_required(self):
        kps, members = make_members([1] * 10)
        assert qc_valid(self.make_qc(kps, members, range(7)), members)
        assert not qc_valid(self.make_qc(kps, members, range(6)), members)

    def test_forged_signature_rejected(self):
        kps, members = make_members([1] * 4)
        qc = self.make_qc(kps, members, range(3))
        forged = QuorumCertificate(
            qc.payload_digest, qc.round, qc.signers, qc.signatures[:-1] + (b"\xff" * 32,)
        )
        assert not qc_valid(forged, members)

    def test_genesis_qc(self):
        _, members = make_members([1] * 4)
        assert qc_valid(GENESIS_QC, members)


def chain_tree(rounds):
    """Linear tree of certified blocks at the given rounds above genesis."""
    tree = BlockTree()
    parent = GENESIS_DIGEST
    digests = []
    for r in rounds:
        d = crypto.hash("blk", bytes([r]))
        tree.add(d, r, parent, {"r": r})
        tree.certify(QuorumCertificate(d, r, (), ()))
        digests.append(d)
        parent = d
    return tree, digests


class TestFinalityRule:
    def test_three_consecutive_on_top_finalizes(self):
        tree, d = chain_tree([1, 2, 3, 4])
        final = finality_check(tree)
        assert d[0] in final and GENESIS_DIGEST in final
        assert d[1] not in final

    def test_two_on_top_insufficient(self):
        tree, d = chain_tree([1, 2, 3])
        assert d[0] not in finality_check(tree)

    def test_round_gap_blocks_finality(self):
        tree, d = chain_tree([1, 2, 4, 5])
        assert d[0] not in finality_check(tree)
        tree2, d2 = chain_tree([1, 3, 4, 5])
        # gap sits below the 3-chain: b1 still finalizes
        assert d2[0] in finality_check(tree2)

    def test_uncertified_descendant_does_not_count(self):
        tree, d = chain_tree([1, 2, 3])
        extra = crypto.hash("blk", b"x")
        tree.add(extra, 4, d[-1], None)  # never certified
        assert d[0] not in finality_check(tree)

    def test_chain_order(self):
        tree, d = chain_tree([1, 2, 3, 4, 5, 6])
        final = finality_check(tree)
        assert final == [GENESIS_DIGEST, d[0], d[1], d[2]]


class Harness:
    """Engines wired through the simulator; payloads are opaque dicts."""

    def __init__(self, stakes, cfg=None, silent=(), seed=SEED):
        self.cfg = cfg or SimConfig(
            **dict(DEFAULTS["network"], delta_t=5), seed=seed, max_sim_time=50_000
        )
        self.sim = Simulator(self.cfg)
        self.kps, self.members = make_members(stakes)
        self.names = {kp.public: f"n{i}" for i, kp in enumerate(self.kps)}
        self.engines: dict[str, ConsensusEngine] = {}
        self.finalized: dict[str, list[bytes]] = {f"n{i}": [] for i in range(len(stakes))}
        self.evidence: list[EquivocationEvidence] = []
        self.silent = set(silent)
        for i in range(len(stakes)):
            self._wire(i)

    def _wire(self, i, engine_cls=ConsensusEngine):
        name = f"n{i}"
        kp = self.kps[i]
        counter = iter(range(10**9))

        def handler(sender, msg):
            if name in self.silent:
                return
            eng = self.engines[name]
            if isinstance(msg, Proposal):
                eng.on_proposal(msg)
            elif isinstance(msg, Vote):
                eng.on_vote(msg)
            elif isinstance(msg, NewRound):
                eng.on_new_round(msg)

        if name not in self.engines:  # a re-wired node keeps its handler
            self.sim.register_node(name, handler)
        engine = engine_cls(
            keypair=kp,
            members=self.members,
            seed=SEED,
            base_timeout=4 * self.cfg.delta_t,
            digest_payload=lambda p: crypto.hash("payload", canonical_json(p)),
            validate_payload=lambda p, parent: True,
            make_payload=lambda parent, name=name, c=counter: {"by": name, "seq": next(c)},
            broadcast=lambda m, name=name: self.sim.broadcast(name, m),
            send=lambda k, m, name=name: self.sim.send(name, self.names[k], m),
            set_timer=lambda dur, rnd, name=name: self.sim.set_timer(
                name, dur, lambda: self.engines[name].on_local_timeout(rnd)
            ),
            on_finalize=lambda node, name=name: self.finalized[name].append(node.digest),
            on_evidence=self.evidence.append,
        )
        self.engines[name] = engine

    def run(self, until=None):
        for name, eng in self.engines.items():
            if name not in self.silent:
                eng.start()
        self.sim.run(until)

    def assert_prefix_consistent(self):
        seqs = [s for n, s in self.finalized.items() if n not in self.silent]
        longest = max(seqs, key=len)
        for s in seqs:
            assert s == longest[: len(s)]


class TestEngineIntegration:
    def test_happy_path_finalizes(self):
        h = Harness([1] * 4)
        h.run(until=5_000)
        assert all(len(s) >= 5 for s in h.finalized.values())
        h.assert_prefix_consistent()

    def test_silent_minority_tolerated(self):
        h = Harness([1] * 4, silent={"n3"})
        h.run(until=20_000)
        live = [h.finalized[f"n{i}"] for i in range(3)]
        assert all(len(s) >= 3 for s in live)
        h.assert_prefix_consistent()

    def test_silent_majority_halts_without_divergence(self):
        h = Harness([1] * 4, silent={"n2", "n3"})
        h.run(until=20_000)
        assert all(not s for n, s in h.finalized.items() if n not in h.silent)

    def test_determinism(self):
        runs = []
        for _ in range(2):
            h = Harness([1] * 4)
            h.run(until=3_000)
            runs.append({n: list(s) for n, s in h.finalized.items()})
        assert runs[0] == runs[1]

    def test_unequal_stakes(self):
        h = Harness([5, 3, 2, 1, 1])
        h.run(until=10_000)
        assert all(len(s) >= 5 for s in h.finalized.values())
        h.assert_prefix_consistent()


class EquivocatingEngine(ConsensusEngine):
    """Leader that signs two conflicting proposals per round it leads."""

    def _propose(self):
        r = self.current_round
        if r in self._proposed_rounds:
            return
        self._proposed_rounds.add(r)
        for variant in ("a", "b"):
            payload = {"equivocator": variant, "round": r}
            digest = self.digest_payload(payload)
            proposal = Proposal(
                round=r,
                payload=payload,
                payload_digest=digest,
                justify=self.high_qc,
                proposer=self.keypair.public,
                signature=self._sign_proposal(r, digest, self.high_qc),
            )
            self.broadcast(proposal)


class TestEquivocation:
    def test_evidence_emitted_and_safety_holds(self):
        h = Harness([1] * 4)
        h._wire(0, engine_cls=EquivocatingEngine)  # rebuild n0 as the equivocator
        h.run(until=30_000)
        assert any(ev.proposer == h.kps[0].public for ev in h.evidence)
        for ev in h.evidence:
            assert ev.first.payload_digest != ev.second.payload_digest
            assert ev.first.round == ev.second.round
        h.assert_prefix_consistent()


class TestPacemaker:
    def test_timeout_doubles_then_resets(self):
        h = Harness([1] * 4, silent={"n0", "n1", "n2", "n3"})
        eng = h.engines["n0"]
        base = eng.base_timeout
        eng.start()
        eng.on_local_timeout(eng.current_round)
        eng.on_local_timeout(eng.current_round)
        assert eng.timeout == 4 * base
        better = QuorumCertificate(b"\x01" * 32, eng.high_qc.round + 1, (), ())
        eng._update_high_qc(better)
        assert eng.timeout == base

    def test_stale_timer_ignored(self):
        h = Harness([1] * 4, silent={"n0", "n1", "n2", "n3"})
        eng = h.engines["n0"]
        eng.start()
        old_round = eng.current_round
        eng.on_local_timeout(old_round)
        advanced = eng.current_round
        eng.on_local_timeout(old_round)  # fires late, must not advance again
        assert eng.current_round == advanced
