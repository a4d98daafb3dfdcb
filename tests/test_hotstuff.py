import dataclasses
import math
import random
from importlib import resources

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from flowpipe import crypto
from flowpipe.encoding import canonical_json
from flowpipe.hotstuff import (
    GENESIS_DIGEST,
    GENESIS_QC,
    RETRIEVAL_WINDOW,
    BlockRequest,
    BlockResponse,
    BlockTree,
    ConsensusEngine,
    EquivocationEvidence,
    LeaderSchedule,
    NewRound,
    Proposal,
    QuorumCertificate,
    Vote,
    leader_for_round,
    qc_valid,
    vote_payload,
)
from flowpipe.scenario import DEFAULTS, build_world, load_scenario
from flowpipe.sim import SimConfig, Simulator
from flowpipe.state import NodeIdentity, Role, StakeTable

SEED = b"\x07" * 32


def make_members(stakes):
    """Key pairs in member order and the group's stake table."""
    kps = [crypto.StakingKeyPair.from_seed(bytes([i + 1]) * 32) for i in range(len(stakes))]
    members = [
        NodeIdentity(kp.public, Role.CONSENSUS, stake, f"n{i}")
        for i, (kp, stake) in enumerate(zip(kps, stakes))
    ]
    return kps, StakeTable(members)


class TestLeaderSelection:
    def test_single_member(self):
        kps, table = make_members([5])
        for r in range(1, 20):
            assert leader_for_round(r, table, SEED) == kps[0].public

    def test_agreement_regardless_of_input_order(self):
        kps, table = make_members([3, 1, 2])
        for r in range(1, 50):
            assert leader_for_round(r, table, SEED) == leader_for_round(
                r, StakeTable(reversed(table.members)), SEED
            )

    def test_equal_stakes_frequency(self):
        # oracle: binomial 3-sigma band around 1/n over 10^5 rounds
        n, rounds = 5, 100_000
        kps, table = make_members([7] * n)
        counts = {kp.public: 0 for kp in kps}
        for r in range(1, rounds + 1):
            counts[leader_for_round(r, table, SEED)] += 1
        p = 1 / n
        sigma = math.sqrt(rounds * p * (1 - p))
        for c in counts.values():
            assert abs(c - rounds * p) < 3 * sigma

    def test_double_stake_double_frequency(self):
        kps, table = make_members([2, 1, 1])
        rounds = 100_000
        counts = {kp.public: 0 for kp in kps}
        for r in range(1, rounds + 1):
            counts[leader_for_round(r, table, SEED)] += 1
        p = 1 / 2
        sigma = math.sqrt(rounds * p * (1 - p))
        assert abs(counts[kps[0].public] - rounds * p) < 3 * sigma

    def test_empty_members_rejected(self):
        with pytest.raises(ValueError):
            leader_for_round(1, StakeTable([]), SEED)


def reference_leader(round_number, members, seed):
    """The leader walk over a plain member list, sorting and summing the
    stakes afresh each round: the form it had before stake tables."""
    ordered = sorted(members, key=lambda m: m.staking_public_key)
    total = sum(m.stake for m in ordered)
    stream = crypto.seeded_stream(
        crypto.derive_seed(["leader"], seed + round_number.to_bytes(8, "big"))
    )
    pick = stream.next_below(total)
    acc = 0
    for m in ordered:
        acc += m.stake
        if pick < acc:
            return m.staking_public_key
    raise AssertionError("cumulative stake walk must terminate")


class TestLeaderWalkAgainstReference:
    ROUNDS = range(1, 5001)

    def test_bundled_consensus_group(self):
        doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
        schedule = build_world(doc).directory.consensus_schedule
        members = list(schedule.table.members)
        for r in self.ROUNDS:
            assert leader_for_round(r, schedule.table, schedule.seed) == reference_leader(
                r, members, schedule.seed
            ), r

    def test_random_stakes_with_zero_stake_members(self):
        rng = random.Random(19)
        for case in range(6):
            n = rng.randint(2, 7)
            stakes = [rng.choice([0, 0, 1, 2, 5, 9]) for _ in range(n)]
            stakes[rng.randrange(n)] = 0
            stakes[rng.randrange(n)] = rng.randint(1, 9)  # the total is positive
            assert 0 in stakes and sum(stakes) > 0
            _, table = make_members(stakes)
            members = list(table.members)
            rng.shuffle(members)  # the reference sorts its own input
            seed = bytes([case]) * 32
            leaders = set()
            for r in self.ROUNDS:
                leader = leader_for_round(r, table, seed)
                assert leader == reference_leader(r, members, seed), (stakes, r)
                leaders.add(leader)
            assert all(table.stake[k] > 0 for k in leaders), stakes


def make_engine(kps, table, sent: list, **wiring) -> ConsensusEngine:
    """Engine of `kps[0]` that accepts every payload and appends every
    message it sends to `sent`; `wiring` adds engine arguments."""
    return ConsensusEngine(
        keypair=kps[0],
        schedule=LeaderSchedule(table, SEED),
        base_timeout=100,
        digest_payload=lambda p: crypto.hash("payload", canonical_json(p)),
        validate_payload=lambda p, parent: True,
        make_payload=lambda parent: {"by": "n0"},
        broadcast=sent.append,
        send=lambda key, msg: sent.append(msg),
        set_timer=lambda duration, rnd: None,
        on_finalize=lambda node: None,
        **wiring,
    )


class TestCachedEncodings:
    """Every memoised encoding equals the formula computed afresh."""

    def test_engine_leader_memo_matches_formula(self):
        kps, table = make_members([3, 1, 2, 5])
        eng = make_engine(kps, StakeTable(reversed(table.members)), [])
        for r in range(1, 2001):
            assert eng.leader(r) == leader_for_round(r, table, SEED)
        info = eng.leader.cache_info()
        assert info.currsize <= info.maxsize < 2000
        # the early rounds were evicted and are recomputed
        for r in range(1, 2001, 7):
            assert eng.leader(r) == leader_for_round(r, table, SEED)

    def test_vote_payload(self):
        for r, digest in [(1, b"\x00" * 32), (7, b"\xcd" * 32), (7, b"\xce" * 32), (2**40, bytes(range(32)))]:
            expected = canonical_json({"vote_round": r, "digest": digest.hex()})
            assert vote_payload(r, digest) == expected
            assert vote_payload(r, digest) == expected

    def test_proposal_signed_bytes(self):
        justify = QuorumCertificate(b"\x02" * 32, 4, (), ())
        p = Proposal(5, {"x": 1}, b"\x01" * 32, justify, b"\x03" * 32, b"")

        def fresh(prop):
            return canonical_json(
                {
                    "round": prop.round,
                    "digest": prop.payload_digest.hex(),
                    "parent": prop.justify.payload_digest.hex(),
                    "justify_round": prop.justify.round,
                }
            )

        assert p.signed_bytes() == fresh(p)
        assert p.signed_bytes() == fresh(p)
        moved = dataclasses.replace(p, round=6)
        assert moved.signed_bytes() == fresh(moved) != p.signed_bytes()


class TestQcValidity:
    def make_qc(self, kps, table, signer_idx, round_number=3, digest=b"\xcd" * 32):
        msg = vote_payload(round_number, digest)
        signers = tuple(kps[i].public for i in signer_idx)
        sigs = tuple(kps[i].sign(msg) for i in signer_idx)
        return QuorumCertificate(digest, round_number, signers, sigs)

    def test_supermajority_required(self):
        kps, table = make_members([1] * 10)
        assert qc_valid(self.make_qc(kps, table, range(7)), table)
        assert not qc_valid(self.make_qc(kps, table, range(6)), table)

    def test_forged_signature_rejected(self):
        kps, table = make_members([1] * 4)
        qc = self.make_qc(kps, table, range(3))
        forged = QuorumCertificate(
            qc.payload_digest, qc.round, qc.signers, qc.signatures[:-1] + (b"\xff" * 32,)
        )
        assert not qc_valid(forged, table)

    def test_genesis_qc(self):
        _, table = make_members([1] * 4)
        assert qc_valid(GENESIS_QC, table)


def finality_check(tree: BlockTree) -> list[bytes]:
    """Oracle for the 2-chain commit rule of DiemBFT v4 / Jolteon
    (Gelashvili et al., arXiv 2106.10362): a full scan of the tree, not the
    engine's incremental walk. Digests finalized, in chain order from
    genesis.

    A block b is committed when b <- b' are certified with consecutive
    rounds, b' a child of b; its ancestors are committed with it."""
    committed: set[bytes] = set()
    for child in tree.nodes.values():
        b = tree.nodes.get(child.parent)
        if b is None or child.digest not in tree.certified:
            continue
        if b.digest not in tree.certified or child.round != b.round + 1:
            continue
        cur = b.digest
        while cur in tree.nodes and cur not in committed:
            committed.add(cur)
            cur = tree.nodes[cur].parent
    depth: dict[bytes, int] = {}
    for n in tree.nodes.values():  # a node is added only after its parent
        depth[n.digest] = depth.get(n.parent, -1) + 1
    return sorted(committed, key=depth.__getitem__)


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
    def test_two_consecutive_on_top_finalizes(self):
        tree, d = chain_tree([1, 2])
        final = finality_check(tree)
        assert d[0] in final and GENESIS_DIGEST in final
        assert d[1] not in final

    def test_one_on_top_insufficient(self):
        tree, d = chain_tree([1])
        assert finality_check(tree) == [GENESIS_DIGEST]  # genesis <- 1 is a 2-chain

    def test_round_gap_blocks_finality(self):
        tree, d = chain_tree([1, 3, 5])
        assert finality_check(tree) == [GENESIS_DIGEST]  # genesis <- 1 is the only 2-chain
        tree2, d2 = chain_tree([1, 3, 4])
        # the gap sits below the 2-chain: its head and every ancestor finalize
        assert finality_check(tree2) == [GENESIS_DIGEST, d2[0], d2[1]]

    def test_uncertified_descendant_does_not_count(self):
        tree, d = chain_tree([1])
        extra = crypto.hash("blk", b"x")
        tree.add(extra, 2, d[-1], None)  # never certified
        assert d[0] not in finality_check(tree)

    def test_chain_order(self):
        tree, d = chain_tree([1, 2, 3, 4, 5, 6])
        final = finality_check(tree)
        assert final == [GENESIS_DIGEST, d[0], d[1], d[2], d[3], d[4]]


class Harness:
    """Engines wired through the simulator; payloads are opaque dicts."""

    def __init__(self, stakes, cfg=None, silent=(), seed=SEED):
        self.cfg = cfg or SimConfig(
            **dict(DEFAULTS["network"], delta_t=5), seed=seed, max_sim_time=50_000
        )
        self.sim = Simulator(self.cfg)
        self.kps, self.table = make_members(stakes)
        self.schedule = LeaderSchedule(self.table, SEED)  # shared, as in a world
        self.names = {kp.public: f"n{i}" for i, kp in enumerate(self.kps)}
        self.keys = {name: key for key, name in self.names.items()}
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
            elif isinstance(msg, BlockRequest):
                eng.on_block_request(self.keys[sender], msg)
            elif isinstance(msg, BlockResponse):
                eng.on_block_response(msg)

        if name not in self.engines:  # a re-wired node keeps its handler
            self.sim.register_node(name, handler)
        engine = engine_cls(
            keypair=kp,
            schedule=self.schedule,
            base_timeout=4 * self.cfg.delta_t,
            digest_payload=lambda p: crypto.hash("payload", canonical_json(p)),
            validate_payload=lambda p, parent: True,
            make_payload=lambda parent, name=name, c=counter: {"by": name, "seq": next(c)},
            broadcast=lambda m, name=name: self._broadcast(name, m),
            send=lambda k, m, name=name: self.sim.send(name, self.names[k], m),
            set_timer=lambda dur, rnd, name=name: self.sim.set_timer(
                name, dur, lambda: self.engines[name].on_local_timeout(rnd)
            ),
            on_finalize=lambda node, name=name: self.finalized[name].append(node.digest),
            on_evidence=self.evidence.append,
        )
        self.engines[name] = engine

    def _broadcast(self, sender, msg):
        """Send to every other engine, in registration order."""
        for name in self.names.values():
            if name != sender:
                self.sim.send(sender, name, msg)

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

    def live(self) -> dict[str, ConsensusEngine]:
        return {n: e for n, e in self.engines.items() if n not in self.silent}

    def check_each_finalization(self):
        """From now on, every block a live engine finalizes must be final
        under `finality_check` of its tree, and its lock at or above the
        block's round, which becomes the engine's floor."""
        for eng in self.live().values():

            def checked(node, eng=eng, record=eng.on_finalize):
                assert node.digest in finality_check(eng.tree)  # never ahead of the rule
                assert eng.locked_round >= node.round
                record(node)

            eng.on_finalize = checked

    def assert_matches_oracle(self):
        """Each live engine finalized exactly what the rule finalizes in its
        tree, in chain order, and its lock is at or above its floor."""
        for name, eng in self.live().items():
            assert self.finalized[name] == finality_check(eng.tree)[1:], name  # never behind it
            assert eng.locked_round >= eng.floor, name


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

    @pytest.mark.parametrize("silent", [set(), {"n3"}], ids=["all-honest", "silent-minority"])
    def test_engine_finality_matches_oracle(self, silent):
        h = Harness([1] * 4, silent=silent)
        h.check_each_finalization()
        h.run(until=5_000)
        for name, eng in h.live().items():
            rounds = {n.round for n in eng.tree.nodes.values()}
            if silent:  # a silent leader's rounds pass by timeout and leave no block
                assert set(range(1, max(rounds))) - rounds
            assert h.finalized[name], name
        h.assert_matches_oracle()


class EquivocatingEngine(ConsensusEngine):
    """Leader that signs two conflicting proposals per round it leads."""

    def _propose(self):
        r = self.current_round
        if r <= self._proposed_round:
            return
        self._proposed_round = r
        for variant in ("a", "b"):
            self.broadcast(self._proposal({"equivocator": variant, "round": r}))


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


class TestSafetyUnderFaults:
    """Seven equal stakes tolerate two faults: here up to one silent node
    and one equivocating leader, over network seeds, while some nodes miss
    some proposals and fetch the blocks they lack. Every live engine's
    finality agrees with the others' and with the oracle, at every
    finalization and at the end, and the honest ones finalize. (The
    equivocator never processes its own twins, so it may stall behind
    them.)"""

    @settings(max_examples=25, deadline=None)
    @given(
        seed=hs.binary(min_size=32, max_size=32),
        silent=hs.sampled_from([None, 1, 4, 6]),
        equivocator=hs.sampled_from([None, 0, 3]),
        dropped=hs.frozensets(hs.tuples(hs.integers(0, 6), hs.integers(1, 40)), max_size=12),
    )
    # n3 misses round 1 and leads round 2; by the time its first fetch is
    # answered the block of round 1 is finalized: answered only from the
    # floor up, it never gets that block and finalizes nothing
    @example(
        seed=bytes.fromhex("f51a496e9cdb189b4b1ed47e08185757d2f26b3a3f6d1af7bc40d445421171f7"),
        silent=6,
        equivocator=None,
        dropped=frozenset({(3, 1)}),
    )
    def test_prefix_consistent_and_matches_oracle(self, seed, silent, equivocator, dropped):
        h = Harness([1] * 7, silent={f"n{silent}"} if silent is not None else (), seed=seed)
        if equivocator is not None:
            h._wire(equivocator, engine_cls=EquivocatingEngine)
        send = h.sim.send

        def lossy(sender, receiver, msg):
            """Drop the copies of the drawn (receiver, round) proposals."""
            if not (isinstance(msg, Proposal) and (int(receiver[1:]), msg.round) in dropped):
                send(sender, receiver, msg)

        h.sim.send = lossy
        h.check_each_finalization()
        h.run(until=4_000)
        assert all(h.finalized[name] for name in h.live() if name != f"n{equivocator}")
        h.assert_prefix_consistent()
        h.assert_matches_oracle()


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

    def test_catch_up_needs_more_than_a_third_of_the_stake(self):
        """Of seven equal stakes, two members timing into later rounds move
        nothing, nor do repeats, older rounds or an outsider; a third member
        moves the node to the highest round that three have reached, and its
        leader proposes there."""
        kps, table = make_members([1] * 7)
        sent = []
        eng = make_engine(kps, table, sent)
        r = next(r for r in range(10, 100) if eng.is_leader(r))
        outsider = crypto.StakingKeyPair.from_seed(b"\xff" * 32)

        def timed_out(kp, round_number):
            eng.on_new_round(NewRound(round_number, GENESIS_QC, kp.public))

        timed_out(kps[1], r + 5)
        timed_out(kps[2], r)
        timed_out(kps[2], r - 3)  # older than its last: not counted
        timed_out(kps[1], r + 5)
        timed_out(outsider, r)
        assert eng.current_round == 1 and not sent
        timed_out(kps[3], r)
        assert eng.current_round == r
        assert [(m.round, m.proposer) for m in sent if isinstance(m, Proposal)] == [
            (r, eng.keypair.public)
        ]

    def test_lost_proposals_beside_an_equivocator_do_not_stall(self):
        """Seven equal stakes, n4 silent and n3 an equivocating leader, at
        network seed zero; n0 and n6 lose their round-2 proposals and time
        out ahead of the rest. Before a leader entered the round that more
        than a third of the stake had timed into, no live node finalized
        anything by 4,000 ticks: every high QC stayed at round 1, the rounds
        drifted to 9-11 and the timeout doubled to 2,560 (base 20), each
        leader proposing a round after the nodes ahead had left it.
        `TestSafetyUnderFaults` found this case."""
        h = Harness([1] * 7, silent={"n4"}, seed=bytes(32))
        h._wire(3, engine_cls=EquivocatingEngine)
        send = h.sim.send

        def lossy(sender, receiver, msg):
            if not (isinstance(msg, Proposal) and receiver in ("n0", "n6") and msg.round == 2):
                send(sender, receiver, msg)

        h.sim.send = lossy
        h.run(until=4_000)
        assert all(h.finalized[name] for name in h.live() if name != "n3")


class TestParking:
    """A host with no work parks its engine: a round timer that fires while
    idle changes no view, doubles nothing and sends nothing. `wake` re-arms
    the timer from that moment, and the round's leader proposes at once."""

    def idle_harness(self):
        """Four engines whose hosts have work only while `work` is
        non-empty, and the (tick, sender, message) of every send."""
        h = Harness([1] * 4)
        work, sent, send = [], [], h.sim.send
        for eng in h.engines.values():
            eng.has_work = lambda: bool(work)
            eng.make_payload = lambda parent, make=eng.make_payload: make(parent) if work else None

        def recording(sender, receiver, msg):
            sent.append((h.sim.now, sender, msg))
            send(sender, receiver, msg)

        h.sim.send = recording
        return h, work, sent

    def test_idle_group_sends_nothing_and_keeps_its_view(self):
        h, _, sent = self.idle_harness()
        h.run(until=5_000)
        assert sent == []
        for eng in h.engines.values():
            assert (eng.current_round, eng.timeout, eng._parked) == (1, eng.base_timeout, True)

    def test_work_wakes_the_leader_at_once(self):
        h, work, sent = self.idle_harness()
        h.run(until=5_000)
        work.append("tx")
        for eng in h.engines.values():
            eng.wake()
        h.sim.run(until=5_001)
        proposals = [(t, msg.round) for t, _, msg in sent if isinstance(msg, Proposal)]
        assert proposals and proposals[0] == (5_000, 1)
        h.sim.run(until=10_000)
        assert all(len(s) >= 5 for s in h.finalized.values())
        h.assert_prefix_consistent()

    def test_silent_leader_replaced_within_one_base_timeout_of_the_work(self):
        h, work, sent = self.idle_harness()
        leader = h.names[h.schedule.leader(1)]
        h.silent.add(leader)
        h.run(until=5_000)
        base = h.engines[leader].base_timeout
        work.append("tx")
        for eng in h.live().values():
            eng.wake()
        h.sim.run(until=5_000 + base - 1)
        assert {eng.current_round for eng in h.live().values()} == {1} and sent == []
        h.sim.run(until=5_000 + base)
        assert all(eng.current_round >= 2 for eng in h.live().values())
        h.sim.run(until=10_000)
        assert all(h.finalized[name] for name in h.live())


class TestVotingRules:
    """Proposal conditions 1 and 3 as the engine enforces them: only the
    round's leader may propose, and a vote needs a justify at or above the
    lock."""

    def setup_method(self):
        self.kps, self.table = make_members([1] * 4)
        self.by_key = {kp.public: kp for kp in self.kps}
        self.sent = []
        self.eng = make_engine(self.kps, self.table, self.sent)

    def proposal(self, round_number, justify, proposer=None, tag="p"):
        proposer = proposer or self.by_key[self.eng.leader(round_number)]
        payload = {"round": round_number, "tag": tag}
        digest = crypto.hash("payload", canonical_json(payload))
        stub = Proposal(round_number, None, digest, justify, proposer.public, b"")
        return Proposal(
            round_number, payload, digest, justify, proposer.public,
            proposer.sign(stub.signed_bytes()),
        )

    def qc(self, proposal):
        msg = vote_payload(proposal.round, proposal.payload_digest)
        signers = tuple(sorted(kp.public for kp in self.kps))
        sigs = tuple(self.by_key[k].sign(msg) for k in signers)
        return QuorumCertificate(proposal.payload_digest, proposal.round, signers, sigs)

    def votes(self):
        return [m for m in self.sent if isinstance(m, Vote)]

    def test_non_leader_proposal_ignored(self):
        leader = self.eng.leader(1)
        other = next(kp for kp in self.kps if kp.public != leader)
        forged = self.proposal(1, GENESIS_QC, proposer=other)
        self.eng.on_proposal(forged)
        assert forged.payload_digest not in self.eng.tree.nodes
        assert self.eng.last_voted_round == 0 and not self.votes()
        genuine = self.proposal(1, GENESIS_QC)
        self.eng.on_proposal(genuine)
        assert genuine.payload_digest in self.eng.tree.nodes
        assert self.eng.last_voted_round == 1

    def test_justify_below_lock_gets_no_vote(self):
        """The lock is the round of the justify of the newest proposal
        accepted: the parent's round, not the grandparent's."""
        p1 = self.proposal(1, GENESIS_QC)
        p2 = self.proposal(2, self.qc(p1))
        p3 = self.proposal(3, self.qc(p2))
        for p in (p1, p2, p3):
            self.eng.on_proposal(p)
        assert self.eng.locked_round == 2 and self.eng.last_voted_round == 3
        # a later round forks off p1: its justify (round 1) is below the
        # lock, though the grandparent lock would have allowed it. Another
        # member leads it and the next round, so the engine makes no
        # proposal of its own there.
        r = next(r for r in range(4, 100) if not (self.eng.is_leader(r) or self.eng.is_leader(r + 1)))
        fork = self.proposal(r, self.qc(p1), tag="fork")
        self.eng.on_proposal(fork)
        assert fork.payload_digest in self.eng.tree.nodes
        assert self.eng.last_voted_round == 3
        assert all(v.payload_digest != fork.payload_digest for v in self.votes())
        # a later round extending the locked chain is voted for
        later = self.proposal(r + 1, self.qc(p3))
        self.eng.on_proposal(later)
        assert self.eng.last_voted_round == r + 1

    def proposals(self):
        return [m for m in self.sent if isinstance(m, Proposal)]

    def test_leader_waits_for_its_high_qc_block(self):
        """A leader whose QC certifies a block that has not reached it gets
        no payload from its host (None) and sends no proposal, however often
        it is asked; once the block enters its tree it proposes exactly once,
        extending that block."""
        eng = self.eng
        eng.make_payload = lambda parent: {"by": "n0"} if parent in eng.tree.nodes else None
        r = next(r for r in range(2, 100) if eng.is_leader(r + 1) and not eng.is_leader(r))
        block = self.proposal(r, GENESIS_QC)
        qc = self.qc(block)
        for signer, signature in zip(qc.signers, qc.signatures):
            eng.on_vote(Vote(r, block.payload_digest, signer, signature))
        assert (eng.high_qc.payload_digest, eng.current_round) == (block.payload_digest, r + 1)
        other = next(kp for kp in self.kps if kp.public != eng.keypair.public)
        eng.on_new_round(NewRound(r + 1, eng.high_qc, other.public))
        assert not self.proposals()
        eng.on_proposal(block)
        sent = self.proposals()
        assert [(p.round, p.justify.payload_digest) for p in sent] == [(r + 1, block.payload_digest)]
        eng.on_proposal(block)
        eng.on_new_round(NewRound(r + 1, eng.high_qc, other.public))
        assert self.proposals() == sent

    def test_valid_twin_after_invalid_one_is_kept_and_voted(self):
        """An equivocating leader's two proposals of one round reach the node
        in either order. The evidence is emitted once per round, both blocks
        enter the tree, and the node votes once per round, for the valid
        twin: the invalid one no longer shuts out the valid one behind it."""
        eng = self.eng
        evidence = []
        eng.on_evidence = evidence.append
        eng.validate_payload = lambda payload, parent: payload["tag"] != "invalid"
        rounds = [r for r in range(1, 100) if not eng.is_leader(r) and not eng.is_leader(r + 1)]
        for r, order in zip(rounds, (("invalid", "valid"), ("valid", "invalid"))):
            first, second = (self.proposal(r, GENESIS_QC, tag=tag) for tag in order)
            for p in (first, second, first, second):
                eng.on_proposal(p)
            assert {first.payload_digest, second.payload_digest} <= set(eng.tree.nodes)
            assert [(ev.round, ev.first, ev.second) for ev in evidence[-1:]] == [(r, first, second)]
            valid = first if order[0] == "valid" else second
            assert [v.payload_digest for v in self.votes() if v.round == r] == [valid.payload_digest]
            assert eng.last_voted_round == r
        assert len(evidence) == 2

    def test_late_vote_once_per_round_and_never_below_the_lock(self):
        """A proposal refused for its payload is voted for by `retry_vote`
        once the payload validates, while its round is current: once, and
        only on a justify at or above the lock."""
        eng = self.eng
        held = set()
        eng.validate_payload = lambda payload, parent: payload["tag"] in held
        r, later = [r for r in range(3, 100) if not eng.is_leader(r) and not eng.is_leader(r + 1)][:2]
        refused = self.proposal(r, GENESIS_QC, tag="a")
        eng.retry_vote()  # nothing refused yet
        eng.on_proposal(refused)
        eng.retry_vote()  # still refused
        assert not self.votes()
        held.add("a")
        eng.retry_vote()
        eng.retry_vote()
        eng.on_proposal(refused)
        assert [(v.round, v.payload_digest) for v in self.votes()] == [(r, refused.payload_digest)]
        assert eng.last_voted_round == r
        # a refusal of an earlier round is not voted for in a later one
        stale = self.proposal(later, GENESIS_QC, tag="b")
        eng.on_proposal(stale)
        newest = next(x for x in range(later + 1, 200) if not eng.is_leader(x) and not eng.is_leader(x + 1))
        eng.on_proposal(self.proposal(newest, GENESIS_QC, tag="c"))
        held.update("bc")
        eng.retry_vote()
        assert [v.round for v in self.votes()] == [r, newest]

    def test_late_vote_refused_below_a_lock_raised_in_its_round(self):
        """The lock rises within a round when a late proposal of an earlier
        round arrives; a refused proposal whose justify is now below the
        lock gets no vote, though its payload validates."""
        eng = self.eng
        held = {"p1"}
        eng.validate_payload = lambda payload, parent: payload["tag"] in held
        p1 = self.proposal(1, GENESIS_QC, tag="p1")
        p2 = self.proposal(2, self.qc(p1), tag="p2")
        r = next(r for r in range(3, 100) if not eng.is_leader(r) and not eng.is_leader(r + 1))
        fork = self.proposal(r, GENESIS_QC, tag="fork")
        for p in (p1, fork, p2):
            eng.on_proposal(p)
        assert (eng.current_round, eng.locked_round) == (r, 1)
        held.add("fork")
        eng.retry_vote()
        assert all(v.payload_digest != fork.payload_digest for v in self.votes())
        assert eng.last_voted_round == 1

    def test_late_votes_ignored_once_qc_formed(self, monkeypatch):
        r = next(r for r in range(1, 100) if self.eng.is_leader(r + 1))
        digest = crypto.hash("payload", b"late")
        msg = vote_payload(r, digest)
        checked = []
        real = crypto.staking_verify

        def counting(public, message, signature):
            if message == msg:
                checked.append(public)
            return real(public, message, signature)

        monkeypatch.setattr(crypto, "staking_verify", counting)
        voters = sorted(self.kps, key=lambda kp: kp.public)
        for kp in voters[:3]:  # three of four equal stakes pass 2/3
            self.eng.on_vote(Vote(r, digest, kp.public, kp.sign(msg)))
        formed = self.eng.high_qc
        assert (formed.round, formed.payload_digest, len(formed.signers)) == (r, digest, 3)
        late = voters[3]
        before = len(checked)
        self.eng.on_vote(Vote(r, digest, late.public, late.sign(msg)))
        assert self.eng.high_qc is formed
        assert len(checked) == before  # the late vote's signature is not checked
        # a vote for another digest of the round still counts toward its own QC
        other = crypto.hash("payload", b"other")
        self.eng.on_vote(Vote(r, other, late.public, late.sign(vote_payload(r, other))))
        assert self.eng._votes[(r, other)] == {late.public: late.sign(vote_payload(r, other))}


    def test_payload_not_hashing_to_its_digest_ignored(self):
        """The signature covers the digest, not the payload: a copy whose
        payload differs (or cannot be hashed) but keeps the digest and
        signature is ignored, and the genuine proposal still counts."""
        genuine = self.proposal(1, GENESIS_QC)
        for payload in ({"round": 1, "tag": "swapped"}, {"round": object()}):
            self.eng.on_proposal(dataclasses.replace(genuine, payload=payload))
            assert genuine.payload_digest not in self.eng.tree.nodes
            assert self.eng.last_voted_round == 0 and not self.votes()
        self.eng.on_proposal(genuine)
        assert self.eng.tree.nodes[genuine.payload_digest].payload == genuine.payload
        assert self.eng.last_voted_round == 1

    def test_rounds_below_the_floor_ignored(self):
        """Once the block of round 4 is finalized (rounds 4 and 5 are
        certified), the books of rounds 1-3 are dropped, and so is a fork of
        round 3; a proposal, vote or certificate of such a round is ignored,
        and the finalized blocks stay in the tree."""
        p1 = self.proposal(1, GENESIS_QC)
        p2 = self.proposal(2, self.qc(p1))
        fork = self.proposal(3, self.qc(p1), tag="fork")
        chain = [p1, p2]
        for r in range(4, 7):
            chain.append(self.proposal(r, self.qc(chain[-1])))
        for proposal in [p1, p2, fork] + chain[2:]:
            self.eng.on_proposal(proposal)
        finalized = {p.payload_digest for p in chain[:3]}
        assert self.eng.finalized_set == finalized and self.eng.floor == 4
        assert finalized <= set(self.eng.tree.nodes)
        assert fork.payload_digest not in self.eng.tree.nodes
        assert all(key[1] >= 4 for key in self.eng._proposal_seen)
        assert all(qc.round >= 4 for qc in self.eng.tree.certified.values())
        late = self.proposal(3, self.qc(p2), tag="late")
        self.eng.on_proposal(late)
        assert late.payload_digest not in self.eng.tree.nodes
        assert (late.proposer, 3) not in self.eng._proposal_seen
        digest = crypto.hash("payload", b"old")
        for r in range(1, 4):
            for kp in self.kps:
                self.eng.on_vote(Vote(r, digest, kp.public, kp.sign(vote_payload(r, digest))))
        assert all(key[0] >= 4 for key in self.eng._votes)
        self.eng._certify(self.qc(p2))
        assert p2.payload_digest not in self.eng.tree.certified

    @pytest.mark.parametrize("keep_finalized", [True, False], ids=["justify-kept", "justify-dropped"])
    def test_proposal_justified_below_the_floor_ignored(self, keep_finalized):
        """A proposal of a live round whose justify certifies a block below
        the floor could get no vote, since the lock is at or above the floor.
        It changes nothing, whether the tree still holds the justify's block
        (a finalized block an engine keeps) or has dropped it. Here the
        certificate of round 6 arrives in a NewRound before any proposal
        justified by it, so the block of round 5 is finalized while the lock
        is still on round 5."""
        eng = make_engine(self.kps, self.table, self.sent, keep_finalized=keep_finalized)
        self.eng = eng
        chain = [self.proposal(1, GENESIS_QC)]
        for r in range(2, 7):
            chain.append(self.proposal(r, self.qc(chain[-1])))
        for proposal in chain:
            eng.on_proposal(proposal)
        assert (eng.floor, eng.locked_round) == (4, 5)
        other = next(kp for kp in self.kps if kp.public != eng.keypair.public)
        eng.on_new_round(NewRound(7, self.qc(chain[-1]), other.public))
        assert eng.floor == eng.locked_round == 5
        stale_parent = chain[1]  # finalized, round 2
        assert (stale_parent.payload_digest in eng.tree.nodes) == keep_finalized

        def state():
            return (
                eng.current_round, eng.locked_round, eng.last_voted_round, eng.high_qc,
                dict(eng.tree.nodes), dict(eng.tree.certified),
                {digest: list(parked) for digest, parked in eng._orphans.items()},
            )

        before, sent = state(), len(self.sent)
        r = next(r for r in range(eng.current_round + 1, 100) if not eng.is_leader(r))
        stale = self.proposal(r, self.qc(stale_parent), tag="stale")
        eng.on_proposal(stale)
        assert state() == before and len(self.sent) == sent

    def test_outsider_vote_dropped(self, monkeypatch):
        """A vote signed by a registered key outside the group is dropped
        before its signature is checked: counted, it would make the quorum
        count raise, and a QC listing it fails `qc_valid` at every
        receiver. The members' votes still form the QC."""
        r = next(r for r in range(1, 100) if self.eng.is_leader(r + 1))
        digest = crypto.hash("payload", b"outsider")
        msg = vote_payload(r, digest)
        outsider = crypto.StakingKeyPair.from_seed(b"\x55" * 32)
        assert crypto.staking_verify(outsider.public, msg, outsider.sign(msg))
        checked = []
        real = crypto.staking_verify

        def counting(public, message, signature):
            checked.append(public)
            return real(public, message, signature)

        monkeypatch.setattr(crypto, "staking_verify", counting)
        self.eng.on_vote(Vote(r, digest, outsider.public, outsider.sign(msg)))
        assert not checked and not self.eng._votes.get((r, digest))
        for kp in sorted(self.kps, key=lambda kp: kp.public)[:3]:
            self.eng.on_vote(Vote(r, digest, kp.public, kp.sign(msg)))
        formed = self.eng.high_qc
        assert (formed.round, formed.payload_digest) == (r, digest)
        assert outsider.public not in formed.signers and qc_valid(formed, self.table)


class TestBlockRetrieval:
    """A node that lacks the parent of a proposal parks it and asks the
    proposer for the chain, at once and at each local timeout while it
    stays parked; the answer is replayed through `on_proposal`. A node
    answers a member at most once per round, from the proposals it keeps:
    those of the rounds down to `RETRIEVAL_WINDOW` below its floor."""

    proposal = TestVotingRules.proposal
    qc = TestVotingRules.qc

    def setup_method(self):
        TestVotingRules.setup_method(self)
        self.addressed = []  # (receiver, message) of each message the engine sends one node
        self.eng.send = lambda key, msg: self.addressed.append((key, msg))

    def requests(self):
        return [(key, m) for key, m in self.addressed if isinstance(m, BlockRequest)]

    def chain(self, rounds):
        chain = [self.proposal(rounds[0], GENESIS_QC)]
        for r in rounds[1:]:
            chain.append(self.proposal(r, self.qc(chain[-1])))
        return chain

    def test_missing_parent_fetched_from_the_proposer_and_replayed(self):
        eng = self.eng
        p1, p2, p3 = self.chain([r for r in range(1, 100) if not eng.is_leader(r)][:3])
        eng.on_proposal(p1)
        eng.on_proposal(p3)  # p2 never arrived
        assert p3.payload_digest not in eng.tree.nodes
        assert self.requests() == [(p3.proposer, BlockRequest(p2.payload_digest, eng.floor))]
        eng.on_local_timeout(eng.current_round)  # still parked: ask again
        assert self.requests()[1:] == [(p3.proposer, BlockRequest(p2.payload_digest, eng.floor))]
        eng.on_block_response(BlockResponse((p2,)))
        assert {p2.payload_digest, p3.payload_digest} <= set(eng.tree.nodes)
        assert not eng._orphans
        eng.on_local_timeout(eng.current_round)
        assert len(self.requests()) == 2

    def test_forged_block_in_an_answer_ignored(self):
        eng = self.eng
        p1, p2 = self.chain([r for r in range(1, 100) if not eng.is_leader(r)][:2])
        eng.on_proposal(p2)
        forged = dataclasses.replace(p1, payload={"round": p1.round, "tag": "forged"})
        eng.on_block_response(BlockResponse((forged,)))
        assert p2.payload_digest not in eng.tree.nodes and p1.payload_digest not in eng.tree.nodes
        eng.on_block_response(BlockResponse((p1,)))
        assert {p1.payload_digest, p2.payload_digest} <= set(eng.tree.nodes)

    def test_answered_from_the_window_up_once_per_member_and_round(self):
        eng = self.eng
        chain = self.chain(range(1, RETRIEVAL_WINDOW + 6))
        for p in chain:
            eng.on_proposal(p)
        floor = RETRIEVAL_WINDOW + 3  # its block and the next are certified
        assert eng.floor == floor
        head = chain[-1].payload_digest
        kept = list(range(3, floor + 3))
        a, b = (kp.public for kp in self.kps[1:3])

        def answers():
            return [
                (key, [p.round for p in m.proposals])
                for key, m in self.addressed if isinstance(m, BlockResponse)
            ]

        eng.on_block_request(a, BlockRequest(head, 0))
        eng.on_block_request(a, BlockRequest(head, 0))  # again in the same round
        eng.on_block_request(b, BlockRequest(head, floor))  # b holds the floor's block
        outsider = crypto.StakingKeyPair.from_seed(b"\x55" * 32).public
        eng.on_block_request(outsider, BlockRequest(head, 0))
        assert answers() == [(a, kept), (b, [floor + 1, floor + 2])]
        eng.on_local_timeout(eng.current_round)  # a new round
        eng.on_block_request(a, BlockRequest(chain[1].payload_digest, 0))  # below the window
        eng.on_block_request(b, BlockRequest(head, 0))
        assert answers()[2:] == [(b, kept)]


class TestSharedVerdicts:
    """Certificate and proposal checks are kept on the broadcast object, so
    every receiver reads one verdict. A `dataclasses.replace` twin is a new
    instance and is judged on its own, and a certificate judged for one
    member set is judged again for another."""

    def make_qc(self, kps, signer_idx, round_number=3, digest=b"\xcd" * 32):
        msg = vote_payload(round_number, digest)
        signers = tuple(kps[i].public for i in signer_idx)
        return QuorumCertificate(
            digest, round_number, signers, tuple(kps[i].sign(msg) for i in signer_idx)
        )

    def test_tampered_qc_twin_rejected_after_original_accepted(self):
        kps, group = make_members([1] * 4)
        qc = self.make_qc(kps, range(3))
        assert qc.valid_for(group) and qc.valid_for(group)
        forged = dataclasses.replace(qc, signatures=qc.signatures[:-1] + (b"\xff" * 32,))
        assert not forged.valid_for(group)
        short = dataclasses.replace(qc, signers=qc.signers[:2], signatures=qc.signatures[:2])
        assert not short.valid_for(group)
        moved = dataclasses.replace(qc, round=4)  # signatures cover round 3
        assert not moved.valid_for(group)
        assert qc.valid_for(group)

    def test_qc_valid_for_one_member_set_rejected_by_another(self):
        kps, cluster_a = make_members([1] * 4)
        qc = self.make_qc(kps, range(3))
        assert qc.valid_for(cluster_a)
        # another cluster: other keys
        other_kps = [crypto.StakingKeyPair.from_seed(bytes([i + 50]) * 32) for i in range(4)]
        cluster_b = StakeTable(
            NodeIdentity(kp.public, Role.CONSENSUS, 1, f"m{i}") for i, kp in enumerate(other_kps)
        )
        assert not qc.valid_for(cluster_b)
        # the same keys under other stakes: the three signers lack 2/3
        restaked = StakeTable(
            dataclasses.replace(m, stake=10) if m.staking_public_key == kps[3].public else m
            for m in cluster_a.members
        )
        assert not qc.valid_for(restaked)
        assert qc.valid_for(cluster_a)

    def test_verdict_computed_once_per_member_set(self, monkeypatch):
        import flowpipe.hotstuff as hotstuff

        calls = []
        real = hotstuff.qc_valid

        def counting(qc, table):
            calls.append(table)
            return real(qc, table)

        counting.__name__ = real.__name__
        monkeypatch.setattr(hotstuff, "qc_valid", counting)
        kps, group = make_members([1] * 4)
        qc = self.make_qc(kps, range(3))
        for _ in range(5):
            assert qc.valid_for(group)
        assert calls == [group]
        # a table compares by identity: an equal twin is another key
        twin = StakeTable(group.members)
        assert twin != group and qc.valid_for(twin)
        assert calls == [group, twin]
        # the module-wide genesis certificate keeps nothing of a world
        assert GENESIS_QC.valid_for(group)
        assert set(vars(GENESIS_QC)) == {f.name for f in dataclasses.fields(GENESIS_QC)}

    def test_tampered_proposal_twin_rejected_after_original_accepted(self):
        kps, _ = make_members([1] * 4)
        justify = QuorumCertificate(b"\x02" * 32, 4, (), ())
        stub = Proposal(5, {"x": 1}, b"\x01" * 32, justify, kps[0].public, b"")
        p = dataclasses.replace(stub, signature=kps[0].sign(stub.signed_bytes()))
        assert p.signed_by_proposer() and p.signed_by_proposer()
        assert not dataclasses.replace(p, signature=b"\xff" * 32).signed_by_proposer()
        assert not dataclasses.replace(p, round=6).signed_by_proposer()
        assert not dataclasses.replace(p, proposer=kps[1].public).signed_by_proposer()
        assert p.signed_by_proposer()


class TestLeaderSchedule:
    def test_engines_share_schedule(self):
        h = Harness([1] * 4)
        leaders = {id(eng.leader) for eng in h.engines.values()}
        assert leaders == {id(h.schedule.leader)}
        assert all(eng.table is h.schedule.table for eng in h.engines.values())

    def test_members_sorted_tuple(self):
        _, table = make_members([3, 1, 2, 5])
        members = list(reversed(table.members))
        schedule = LeaderSchedule(StakeTable(members), SEED)
        assert schedule.table.members == tuple(sorted(members, key=lambda m: m.staking_public_key))
