"""Acceptance gate: one test per release criterion, each printing a single
pass/fail line (run with `pytest -s` to see them as they complete)."""

import hashlib
import itertools
import math
import random
import time
from bisect import bisect_left
from fractions import Fraction
from importlib import resources

import numpy as np

from flowpipe import crypto
from flowpipe.clustering import cluster_compromise_probability, cluster_assignment
from flowpipe.collection import TxCheck, validate_transaction
from flowpipe.encoding import canonical_json, hexify
from flowpipe.execution import GENESIS_RESULT_HASH, block_execution
from flowpipe.hotstuff import ConsensusEngine, LeaderSchedule, NewRound, Proposal, Vote
from flowpipe.merkle import ExecutionState, state_proof_gen
from flowpipe.scenario import (
    DEFAULTS,
    apply_overrides,
    build_world,
    load_scenario,
    run_scenario,
    run_world,
)
from flowpipe.sim import SimConfig, Simulator
from flowpipe.state import NodeIdentity, Role, StakeTable
from flowpipe.verification import assign_chunks
from flowpipe.vm import SignedTransaction, ToyTransaction, execute

BUNDLED = [
    "happy-path",
    "byzantine-executor",
    "withheld-collection",
    "equivocating-leader",
    "network-partition",
    "pre-gst-chaos",
]


def bundled(name: str) -> str:
    return str(resources.files("flowpipe") / "scenarios" / f"{name}.json")


def mark(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:2d} [{status}] {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


def cost_tx(i, cost):
    script = ToyTransaction(
        operations=(
            {"kind": "set_register", "register": f"r{i}", "value": "ab", "cost": cost},
        )
    ).to_script()
    return SignedTransaction(
        script=script,
        payer_signature=b"\x01" * 32,
        script_signatures=(),
        reference_block_hash=b"\x00" * 32,
    )


class TestThresholdFormula:
    def test_criterion_1(self):
        t0 = time.monotonic()
        for n_s in range(1, 101):
            # oracle: largest t with 2t <= n_s - 1, found by brute search
            brute = 0
            while 2 * (brute + 1) <= n_s - 1:
                brute += 1
            assert crypto.compute_threshold_t(n_s) == brute, n_s
        elapsed = time.monotonic() - t0
        mark(1, "threshold formula", elapsed < 1.0,
             f"n_s 1..100 matches brute force in {elapsed:.2f}s")


class TestDrbUniqueness:
    def test_criterion_2(self):
        t0 = time.monotonic()
        checked = 0
        for n_s in (4, 5, 6, 7):
            params = crypto.make_params(n_s, crypto.TEST_FIELD)
            entropy = [
                crypto.derive_seed(["accept-dkg", str(n_s), str(i)], b"\x05" * 32)
                for i in range(n_s)
            ]
            dkg = crypto.dkg_setup(params, entropy)
            message = crypto.hash("accept-msg", bytes([n_s]))
            shares = [
                crypto.threshold_sign(params, s, message) for s in dkg.shares
            ]
            for sig in shares:
                assert crypto.signature_share_verify(
                    params, dkg.verification_vector, sig, message
                )
            t = params.t
            reference = None
            for subset in itertools.combinations(shares, t + 1):
                sigma = crypto.threshold_recover(
                    params, dkg.verification_vector, subset, message
                )
                assert crypto.threshold_verify(
                    params, sigma, dkg.verification_vector.group_public_key, message
                )
                if reference is None:
                    reference = sigma.value
                assert sigma.value == reference
                checked += 1
            for subset in itertools.combinations(shares, t):
                try:
                    crypto.threshold_recover(
                        params, dkg.verification_vector, subset, message
                    )
                    raised = False
                except crypto.InsufficientShares:
                    raised = True
                assert raised
                checked += 1
        elapsed = time.monotonic() - t0
        mark(2, "beacon uniqueness and threshold", elapsed < 10.0,
             f"{checked} subsets over n_s in 4..7 in {elapsed:.1f}s")


class TestClusterAssignment:
    def test_criterion_3(self):
        t0 = time.monotonic()
        seed = crypto.hash("accept-cluster", b"")
        keys_all = [crypto.hash("member", i.to_bytes(2, "big")) for i in range(200)]
        for n_c in range(1, 201):
            keys = keys_all[:n_c]
            for c in range(1, n_c + 1):
                assignment = cluster_assignment(keys, c, seed)
                sizes = [0] * c
                for cluster in assignment.mapping.values():
                    sizes[cluster] += 1
                assert max(sizes) - min(sizes) <= 1, (n_c, c)
                oversized = sum(1 for s in sizes if s == max(sizes))
                if n_c % c:
                    assert sizes.count(n_c // c + 1) == n_c % c, (n_c, c)
                else:
                    assert sizes == [n_c // c] * c, (n_c, c)
        # three independent computations agree byte for byte
        for n_c, c in [(17, 3), (100, 7), (200, 13)]:
            keys = keys_all[:n_c]
            serialized = {
                canonical_json(
                    {hexify(k): v for k, v in cluster_assignment(keys, c, seed).mapping.items()}
                )
                for _ in range(3)
            }
            assert len(serialized) == 1
        elapsed = time.monotonic() - t0
        mark(3, "cluster assignment", elapsed < 30.0,
             f"all (n_c<=200, c<=n_c) balanced and replicable in {elapsed:.1f}s")


class TestRoutingWindow:
    def test_criterion_4(self):
        kp = crypto.StakingKeyPair.from_seed(b"payer-accept" + b"\x00" * 20)
        script = ToyTransaction(
            operations=({"kind": "set_register", "register": "r", "value": "aa", "cost": 1},)
        ).to_script()
        ref_hash = crypto.hash("ref-block", b"")
        tx = SignedTransaction(
            script=script,
            payer_signature=kp.public + kp.sign(script),
            script_signatures=(),
            reference_block_hash=ref_hash,
        )
        accepted = []
        for height in range(995, 1016):
            verdict = validate_transaction(
                tx,
                resolve_height=lambda h: 1000 if h == ref_hash else None,
                inclusion_height=height,
                window=10,
                expected_cluster=0,
                cluster_count=1,
                registered_accounts=[kp.public],
            )
            if verdict == TxCheck.OK:
                accepted.append(height)
            else:
                assert verdict == TxCheck.EXPIRED_WINDOW, (height, verdict)
        ok = accepted == list(range(1001, 1011))
        mark(4, "routing window", ok,
             f"W=10 ref=1000 accepts exactly heights {accepted[0]}..{accepted[-1]}")


class TestChunking:
    def test_criterion_5(self):
        t0 = time.monotonic()
        rng = random.Random(11)
        gamma = 10
        oversized_seen = 0
        for trial in range(1000):
            n = rng.randint(1, 25)
            costs = [rng.randint(1, 15) for _ in range(n)]
            txs = [cost_tx(i, c) for i, c in enumerate(costs)]
            block_hash = crypto.hash("accept-blk", trial.to_bytes(2, "big"))
            out = block_execution(block_hash, txs, GENESIS_RESULT_HASH, ExecutionState(), gamma)
            chunks = out.result.chunks
            ranges = out.chunk_tx_ranges
            # contiguous coverage
            assert ranges[0][0] == 0 and ranges[-1][1] == n
            for k in range(1, len(ranges)):
                assert ranges[k][0] == ranges[k - 1][1]
            # consumption bound with the single-oversized-transaction exception
            for k, chunk in enumerate(chunks):
                lo, hi = ranges[k]
                if chunk.computation_consumption > gamma:
                    assert hi - lo == 1
                    oversized_seen += 1
            # independent replay reproduces every start commitment + final state
            state = ExecutionState()
            for k, chunk in enumerate(chunks):
                assert state_proof_gen(state) == chunk.start_state_commitment
                assert chunk.starting_transaction_index == ranges[k][0]
                consumed = 0
                for i in range(*ranges[k]):
                    outcome = execute(state, txs[i])
                    state, consumed = outcome.state, consumed + outcome.cost
                assert consumed == chunk.computation_consumption
            assert state_proof_gen(state) == out.result.final_state
        elapsed = time.monotonic() - t0
        mark(5, "chunking", elapsed < 60.0,
             f"1000 random cost sequences replayed ({oversized_seen} oversized chunks) in {elapsed:.1f}s")


class EquivocatingEngine(ConsensusEngine):
    """Leader signing two conflicting proposals per round it leads."""

    def _propose(self):
        r = self.current_round
        if r <= self._proposed_round:
            return
        self._proposed_round = r
        for variant in ("a", "b"):
            self.broadcast(self._proposal({"equivocator": variant, "round": r}))


class EngineHarness:
    """Engine-level network for fast consensus-safety sweeps."""

    def __init__(self, n: int, seed_byte: int, equivocators=(), silent=()):
        seed = bytes([seed_byte]) * 32
        self.sim = Simulator(
            SimConfig(**dict(DEFAULTS["network"], delta_t=5), seed=seed, max_sim_time=10**6)
        )
        self.kps = [
            crypto.StakingKeyPair.from_seed(bytes([seed_byte, i]) * 16) for i in range(n)
        ]
        table = StakeTable(
            NodeIdentity(kp.public, Role.CONSENSUS, 1, f"n{i}") for i, kp in enumerate(self.kps)
        )
        self.schedule = LeaderSchedule(table, seed)
        self.names = {kp.public: f"n{i}" for i, kp in enumerate(self.kps)}
        self.silent = {f"n{i}" for i in silent}
        self.finalized = {f"n{i}": [] for i in range(n)}
        self.engines = {}
        for i in range(n):
            cls = EquivocatingEngine if i in equivocators else ConsensusEngine
            self._wire(i, cls)

    def _wire(self, i, engine_cls):
        name = f"n{i}"
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

        self.sim.register_node(name, handler)
        self.engines[name] = engine_cls(
            keypair=self.kps[i],
            schedule=self.schedule,
            base_timeout=20,
            digest_payload=lambda p: crypto.hash("payload", canonical_json(p)),
            validate_payload=lambda p, parent: True,
            make_payload=lambda parent, name=name, c=counter: {"by": name, "seq": next(c)},
            broadcast=lambda m, name=name: self._broadcast(name, m),
            send=lambda k, m, name=name: self.sim.send(name, self.names[k], m),
            set_timer=lambda dur, rnd, name=name: self.sim.set_timer(
                name, dur, lambda: self.engines[name].on_local_timeout(rnd)
            ),
            on_finalize=lambda node, name=name: self.finalized[name].append(node.digest),
            on_evidence=lambda ev: None,
        )

    def _broadcast(self, sender, msg):
        """Send to every other engine, in registration order."""
        for name in self.names.values():
            if name != sender:
                self.sim.send(sender, name, msg)

    def run(self, until):
        for name, eng in self.engines.items():
            if name not in self.silent:
                eng.start()
        self.sim.run(until)

    def conflicts(self) -> bool:
        seqs = [s for n, s in self.finalized.items() if n not in self.silent]
        longest = max(seqs, key=len)
        return any(s != longest[: len(s)] for s in seqs)


class TestConsensusSafety:
    def test_criterion_6(self):
        t0 = time.monotonic()
        runs = 0
        for seed in range(100):
            n = (4, 5, 7)[seed % 3]
            byz_budget = (n - 1) // 3  # at most a third of the (equal) stake
            fault = seed % 4
            equivocators, silent = (), ()
            if fault == 1:
                equivocators = (0,)[:byz_budget]
            elif fault == 2:
                silent = tuple(range(byz_budget))
            elif fault == 3 and byz_budget >= 2:
                equivocators, silent = (0,), (1,)
            elif fault == 3:
                equivocators = (0,)[:byz_budget]
            h = EngineHarness(n, seed_byte=seed + 1, equivocators=equivocators, silent=silent)
            h.run(until=2500)
            assert not h.conflicts(), f"seed {seed}"
            runs += 1
        elapsed = time.monotonic() - t0
        mark(6, "consensus safety", runs >= 100 and elapsed < 300.0,
             f"{runs} seeded runs (equivocating/silent mixes) conflict-free in {elapsed:.1f}s")


class TestConsensusLiveness:
    def test_criterion_7(self):
        t0 = time.monotonic()
        doc = apply_overrides(
            load_scenario(bundled("happy-path")),
            ["run.max_sim_time=100000", "network.delta_t=150", "consensus.base_timeout=600"],
        )
        worst = None
        for seed in range(1, 21):
            res = run_scenario(doc, seed=seed)
            finalized = res.world.metrics.blocks_finalized
            worst = finalized if worst is None else min(worst, finalized)
            assert finalized >= 50, f"seed {seed}: {finalized}"
            assert res.report["passed"], f"seed {seed}"
        elapsed = time.monotonic() - t0
        mark(7, "consensus liveness", True,
             f"20 seeds finalize >= 50 blocks in 1e5 ticks (worst {worst}) in {elapsed:.0f}s")


class TestExecutionSafety:
    def test_criterion_8_no_faulty_seals_and_origin_slash(self):
        t0 = time.monotonic()
        doc = apply_overrides(
            load_scenario(bundled("byzantine-executor")),
            ["run.max_sim_time=9000", "checks.min_finalized=15", "checks.min_sealed=3"],
        )
        for seed in range(1, 51):
            res = run_scenario(doc, seed=seed)
            assert res.report["passed"], (
                seed,
                [p for p in res.report["properties"] if not p["passed"]],
            )
            world = res.world
            faulty = {hexify(world.executors[i].keypair.public) for i in (1, 2)}
            slashed = set()
            for rec in world.sim.log.select("adjudication", world.observer.name):
                if rec["payload"]["outcome"] == "accused_slashed":
                    slashed.update(rec["payload"]["slashed"])
            assert faulty <= slashed, f"seed {seed}: fault origin not slashed"
        elapsed = time.monotonic() - t0
        mark(8, "execution safety (full coverage)", True,
             f"50 seeds: zero faulty seals, both fault origins slashed, in {elapsed:.0f}s")

    def test_criterion_8_detection_scaling(self):
        # oracle: a faulty chunk escapes iff no honest verifier draws it,
        # so the empirical zero-check rate must match (1-p)^v within 3 sigma
        trials = 10_000
        for p in (0.3, 0.5):
            for v in (3, 5):
                misses = 0
                for trial in range(trials):
                    rand = crypto.hash(
                        "accept-scaling",
                        trial.to_bytes(4, "big") + bytes([int(p * 10), v]),
                    )
                    checked = any(
                        0 in assign_chunks(crypto.hash("ver", bytes([i])), 1, rand, p)
                        for i in range(v)
                    )
                    misses += not checked
                expect = (1 - p) ** v
                sigma = math.sqrt(trials * expect * (1 - expect))
                assert abs(misses - trials * expect) < 3 * sigma, (p, v, misses)
        mark(8, "detection scaling", True,
             "zero-check rate matches (1-p)^v within 3 sigma for p in {0.3,0.5}, v in {3,5}")


class TestCollectionAvailability:
    def test_criterion_9(self):
        t0 = time.monotonic()
        doc = apply_overrides(
            load_scenario(bundled("withheld-collection")),
            ["run.max_sim_time=12000", "checks.min_finalized=20", "checks.min_sealed=5"],
        )
        for seed in range(1, 21):
            res = run_scenario(doc, seed=seed)
            assert res.report["passed"], (
                seed,
                [p for p in res.report["properties"] if not p["passed"]],
            )
        elapsed = time.monotonic() - t0
        mark(9, "collection availability", True,
             f"20 seeds: one challenge per withheld collection, guarantors slashed, "
             f"attested, sealing continues, in {elapsed:.0f}s")


class TestClusterCalculator:
    def test_criterion_10_exact(self):
        t0 = time.monotonic()
        threshold = Fraction(2, 3)
        for n_c in range(1, 13):
            for size in range(1, n_c + 1):
                m = -((-2 * size) // 3)  # ceil(2/3 * size)
                tallies = [0] * (n_c + 1)  # per byzantine count b
                total = 0
                for subset in itertools.combinations(range(n_c), size):
                    total += 1
                    for b in range(n_c + 1):
                        # byzantine members = indices below b
                        if bisect_left(subset, b) >= m:
                            tallies[b] += 1
                for b in range(n_c + 1):
                    exact = cluster_compromise_probability(n_c, b, size, threshold)
                    assert exact == Fraction(tallies[b], total), (n_c, b, size)
        elapsed = time.monotonic() - t0
        assert elapsed < 120.0
        print(f"criterion 10 exact enumeration n_c<=12 matched in {elapsed:.1f}s")

    def test_criterion_10_monte_carlo(self):
        t0 = time.monotonic()
        rng = np.random.Generator(np.random.PCG64(2026))
        draws = 10**6
        details = []
        for size in (50, 80):
            m = -((-2 * size) // 3)
            p = float(cluster_compromise_probability(1040, 346, size, Fraction(2, 3)))
            sample = rng.hypergeometric(346, 1040 - 346, size, draws)
            hits = int((sample >= m).sum())
            sigma = math.sqrt(draws * p * (1 - p))
            assert abs(hits - draws * p) <= 3 * sigma + 1, (size, hits, p)
            details.append(f"size {size}: {hits} hits vs {draws * p:.2f} expected")
        elapsed = time.monotonic() - t0
        mark(10, "byzantine-cluster calculator", elapsed < 120.0,
             "; ".join(details) + f" ({elapsed:.0f}s)")


class TestDeterminism:
    def test_criterion_11(self):
        import pathlib

        golden = pathlib.Path(__file__).parent / "golden"
        checked = []
        for name in BUNDLED:
            doc = load_scenario(bundled(name))
            logs = []
            for _ in range(2):
                world = build_world(doc)
                run_world(world)
                logs.append(world.sim.log.to_jsonl().encode())
            assert logs[0] == logs[1], f"{name}: replay diverged"
            digest = hashlib.sha256(logs[0]).hexdigest()
            stored = (golden / f"{name}.sha256").read_text().strip()
            assert digest == stored, f"{name}: log digest drifted from golden"
            checked.append(name)
        # the full golden log is diffable for the smallest scenario
        full = (golden / "network-partition.events.jsonl").read_bytes()
        world = build_world(load_scenario(bundled("network-partition")))
        run_world(world)
        assert world.sim.log.to_jsonl().encode() == full
        mark(11, "determinism", len(checked) == len(BUNDLED),
             f"{len(checked)} bundled scenarios replayed identically and match goldens")
