import heapq
import math
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from flowpipe import crypto
from flowpipe.encoding import CANONICAL_ENCODER
from flowpipe.scenario import DEFAULTS
from flowpipe.sim import EventLog, Metrics, SimConfig, Simulator

SEED = b"\x11" * 32


def sim_config(**over) -> SimConfig:
    """The scenario-default network and horizon, with `over` applied."""
    fields = dict(DEFAULTS["network"], seed=SEED, max_sim_time=DEFAULTS["run"]["max_sim_time"])
    return SimConfig(**dict(fields, **over))


def echo_net(config, n_messages, receiver="b"):
    """Send n messages a->b and record each delivery tick."""
    sim = Simulator(config)
    deliveries = []
    sim.register_node("a", lambda s, m: None)
    sim.register_node(receiver, lambda s, m: deliveries.append((sim.now, m)))
    for i in range(n_messages):
        sim.schedule(i * 100, lambda i=i: sim.send("a", receiver, i))
    sim.run()
    return sim, deliveries


class TestConfigValidation:
    def test_bad_delta_rejected(self):
        with pytest.raises(ValueError):
            sim_config(delta_t=0)

    def test_bad_phi_rejected(self):
        with pytest.raises(ValueError):
            sim_config(phi_t=0.5)

    def test_bad_drop_rejected(self):
        with pytest.raises(ValueError):
            sim_config(pre_gst_drop_probability=1.5)

    def test_negative_gst_rejected(self):
        with pytest.raises(ValueError):
            sim_config(gst=-1)


class TestDelivery:
    def test_post_gst_delay_bounded(self):
        # oracle: every post-GST delay must land in [1, delta_t]
        cfg = sim_config(delta_t=20, max_sim_time=200_000)
        _, deliveries = echo_net(cfg, 1000)
        assert len(deliveries) == 1000
        for i, (t, m) in enumerate(deliveries):
            delay = t - m * 100
            assert 1 <= delay <= 20

    def test_delays_cover_full_range(self):
        cfg = sim_config(delta_t=10, max_sim_time=500_000)
        _, deliveries = echo_net(cfg, 2000)
        delays = {t - m * 100 for t, m in deliveries}
        assert delays == set(range(1, 11))

    def test_pre_gst_drop_rate(self):
        # oracle: binomial 3-sigma band on dropped messages before GST
        p, n = 0.3, 5000
        cfg = sim_config(
            delta_t=10,
            gst=10**9,
            pre_gst_drop_probability=p,
            max_sim_time=n * 100 + 1000,
        )
        sim, deliveries = echo_net(cfg, n)
        dropped = n - len(deliveries)
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(dropped - n * p) < 3 * sigma
        assert sim.dropped == dropped

    def test_pre_gst_delay_multiplier(self):
        cfg = sim_config(
            delta_t=10,
            gst=10**9,
            pre_gst_delay_multiplier=4,
            max_sim_time=500_000,
        )
        _, deliveries = echo_net(cfg, 2000)
        delays = [t - m * 100 for t, m in deliveries]
        assert max(delays) > 10  # beyond the post-GST bound
        assert all(1 <= d <= 40 for d in delays)

    def test_no_drops_after_gst(self):
        cfg = sim_config(
            delta_t=10,
            gst=0,
            pre_gst_drop_probability=1.0,  # irrelevant once past GST
            max_sim_time=500_000,
        )
        _, deliveries = echo_net(cfg, 500)
        assert len(deliveries) == 500

    def test_unknown_receiver_rejected(self):
        sim = Simulator(sim_config())
        sim.register_node("a", lambda s, m: None)
        with pytest.raises(ValueError):
            sim.send("a", "ghost", 1)


class TestDeterminism:
    def test_identical_seed_identical_schedule(self):
        runs = []
        for _ in range(2):
            cfg = sim_config(delta_t=15, max_sim_time=200_000)
            _, deliveries = echo_net(cfg, 500)
            runs.append(deliveries)
        assert runs[0] == runs[1]

    def test_different_seed_different_schedule(self):
        a = echo_net(sim_config(delta_t=15, max_sim_time=200_000), 500)[1]
        b = echo_net(
            sim_config(delta_t=15, seed=b"\x22" * 32, max_sim_time=200_000), 500
        )[1]
        assert a != b

    def test_fifo_tiebreak_at_same_tick(self):
        # two callbacks at the same tick run in scheduling order
        sim = Simulator(sim_config())
        order = []
        sim.schedule(5, lambda: order.append("first"))
        sim.schedule(5, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]


NODES = ("a", "b", "c")


class HeapSim:
    """Reference model of the ordering contract: one heap keyed by (time,
    sequence), with the simulator's network rules restated."""

    def __init__(self, config):
        self.config = config
        self.now = self.delivered = self.dropped = 0
        self._heap, self._seq, self._handlers = [], 0, {}
        self._net = crypto.seeded_stream(crypto.derive_seed(["net"], config.seed))

    def register_node(self, name, handler):
        self._handlers[name] = handler

    def _push(self, t, fn, args):
        heapq.heappush(self._heap, (t, self._seq, fn, args))
        self._seq += 1

    def schedule(self, delay, fn):
        self._push(self.now + delay, fn, ())

    def send(self, sender, receiver, message):
        bound = self.config.delta_t
        if self.now < self.config.gst:
            if self._net.next_unit() < self.config.pre_gst_drop_probability:
                self.dropped += 1
                return
            bound *= self.config.pre_gst_delay_multiplier
        self._push(self.now + 1 + self._net.next_below(bound), self._deliver, (receiver, sender, message))

    def _deliver(self, receiver, sender, message):
        self.delivered += 1
        self._handlers[receiver](sender, message)

    def run(self, until=None):
        horizon = self.config.max_sim_time if until is None else until
        while self._heap and self._heap[0][0] <= horizon:
            t, _, fn, args = heapq.heappop(self._heap)
            self.now = t
            fn(*args)
        self.now = max(self.now, min(horizon, self._heap[0][0]) if self._heap else horizon)


def drive(sim, plan, pieces):
    """Play `plan` on `sim`, running it to each horizon in `pieces` and then
    to the end. `plan[i]` is `(parent, action)`: entry i is issued from the
    callback of entry `parent`, or, for `parent == -k - 1`, before the k-th
    run. An action is `("schedule", delay)` or `("send", sender, receiver)`.
    Returns every callback as (entry, (sender, receiver) or None, now), and
    (now, delivered, dropped) after each run."""
    children = defaultdict(list)
    for i, (parent, _) in enumerate(plan):
        children[parent].append(i)
    calls = []

    def fire(i, link):
        calls.append((i, link, sim.now))
        for child in children[i]:
            issue(child)

    def issue(i):
        kind, *args = plan[i][1]
        if kind == "schedule":
            sim.schedule(args[0], lambda: fire(i, None))
        else:
            sim.send(NODES[args[0]], NODES[args[1]], i)

    for name in NODES:
        sim.register_node(name, lambda sender, i, name=name: fire(i, (sender, name)))
    states = []
    for k, until in enumerate(pieces + [None]):
        for i in children[-k - 1]:
            issue(i)
        sim.run(until=until)
        states.append((sim.now, sim.delivered, sim.dropped))
    return calls, states


actions = hs.one_of(
    hs.tuples(hs.just("schedule"), hs.integers(0, 4)),
    hs.tuples(hs.just("send"), hs.integers(0, 2), hs.integers(0, 2)),
)


@hs.composite
def programs(draw):
    """A network, run horizons and a plan for `drive`."""
    pieces = sorted(draw(hs.lists(hs.integers(0, 60), max_size=3)))
    plan = []
    for i in range(draw(hs.integers(1, 40))):
        plan.append((draw(hs.integers(-len(pieces) - 1, i - 1)), draw(actions)))
    return {
        "delta_t": draw(hs.integers(1, 4)),
        "gst": draw(hs.sampled_from([0, 12, 10**6])),
        "max_sim_time": draw(hs.integers(0, 80)),
        "pieces": pieces,
        "plan": plan,
    }


class TestOrderingContract:
    """The calendar queue runs callbacks in exactly the order, and at exactly
    the ticks, of a (time, sequence) heap, with the same delay draws."""

    @settings(max_examples=200, deadline=None)
    @given(programs())
    # a zero-delay chain inside one tick, behind an entry already queued there
    @example(
        {"delta_t": 1, "gst": 0, "max_sim_time": 10, "pieces": [],
         "plan": [(-1, ("schedule", 2)), (-1, ("schedule", 2)), (0, ("schedule", 0)), (2, ("schedule", 0))]}
    )
    def test_matches_heap_model(self, program):
        config = sim_config(
            delta_t=program["delta_t"],
            gst=program["gst"],
            pre_gst_drop_probability=0.25,
            pre_gst_delay_multiplier=3,
            max_sim_time=program["max_sim_time"],
        )
        want = drive(HeapSim(config), program["plan"], program["pieces"])
        assert drive(Simulator(config), program["plan"], program["pieces"]) == want

    def test_zero_delay_runs_later_in_the_same_tick(self):
        sim = Simulator(sim_config())
        order = []

        def first():
            order.append(("first", sim.now))
            sim.schedule(0, lambda: order.append(("zero", sim.now)))

        sim.schedule(5, first)
        sim.schedule(5, lambda: order.append(("second", sim.now)))
        sim.run()
        assert order == [("first", 5), ("second", 5), ("zero", 5)]


class TestClockSkew:
    def test_no_skew_when_phi_is_one(self):
        sim = Simulator(sim_config(phi_t=1.0))
        fired = []
        sim.register_node("a", lambda s, m: None)
        sim.set_timer("a", 100, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [100]

    def test_skew_dilates_within_phi(self):
        cfg = sim_config(phi_t=2.0)
        sim = Simulator(cfg)
        fired = {}
        for i in range(50):
            name = f"n{i}"
            sim.register_node(name, lambda s, m: None)
            sim.set_timer(name, 1000, lambda n=name: fired.setdefault(n, sim.now))
        sim.run()
        assert all(1000 <= t <= 2000 for t in fired.values())
        assert len(set(fired.values())) > 1  # skews actually differ

    def test_duplicate_node_rejected(self):
        sim = Simulator(sim_config())
        sim.register_node("a", lambda s, m: None)
        with pytest.raises(ValueError):
            sim.register_node("a", lambda s, m: None)


class TestScheduling:
    def test_negative_delay_rejected(self):
        sim = Simulator(sim_config())
        with pytest.raises(ValueError):
            sim.schedule(-1, lambda: None)

    def test_horizon_respected(self):
        sim = Simulator(sim_config(max_sim_time=100))
        fired = []
        sim.schedule(50, lambda: fired.append(50))
        sim.schedule(150, lambda: fired.append(150))
        sim.run()
        assert fired == [50]
        assert sim.now == 100


class TestEventLog:
    def test_digest_stable_and_order_sensitive(self):
        a, b = EventLog(), EventLog()
        for log in (a, b):
            log.append(1, "n0", "x", {"v": 1})
            log.append(2, "n1", "y", {"v": 2})
        assert a.digest() == b.digest()
        c = EventLog()
        c.append(2, "n1", "y", {"v": 2})
        c.append(1, "n0", "x", {"v": 1})
        assert c.digest() != a.digest()

    def test_select_filters_kind(self):
        log = EventLog()
        log.append(1, "n0", "x", {})
        log.append(2, "n0", "y", {})
        assert [r["kind"] for r in log.select("x")] == ["x"]

    def test_jsonl_roundtrip(self, tmp_path):
        log = EventLog()
        log.append(3, "n0", "k", {"a": [1, 2]})
        path = tmp_path / "events.jsonl"
        log.write_jsonl(str(path))
        assert path.read_text() == log.to_jsonl()

    def test_payload_mutated_after_append_is_not_logged(self):
        log = EventLog()
        payload = {"a": [1, 2], "b": "x"}
        log.append(1, "n0", "k", payload)
        text = log.to_jsonl()
        payload["a"].append(3)
        payload["c"] = 4
        assert log.to_jsonl() == text
        assert log.select("k") == [{"t": 1, "node": "n0", "kind": "k", "payload": {"a": [1, 2], "b": "x"}}]

    def test_records_round_trip_canonical_lines(self):
        appended = [
            {"t": 0, "node": "n0", "kind": "note", "payload": {"text": "café ✓ 𝄞", "ratio": 0.1}},
            {"t": 5, "node": "n1", "kind": "grid", "payload": {"rows": [[1, [2.5, -3]], [], ["z"]]}},
            {"t": 7, "node": "n0", "kind": "empty", "payload": {}},
        ]
        log = EventLog()
        for rec in appended:
            log.append(rec["t"], rec["node"], rec["kind"], rec["payload"])
        assert log.records == appended
        assert log.to_jsonl() == "".join(CANONICAL_ENCODER.encode(r) + "\n" for r in appended)

    def test_select_by_node_equals_filtering_records(self):
        log = EventLog()
        # packed blocks and unpacked lines; every payload holds a nested
        # {"kind":"x","node":"n0",...} that a match must not start inside
        for t in range(2 * EventLog.BLOCK_LINES + 7):
            log.append(t, f"n{t % 3}", ("x", "y", "xy")[t % 5 % 3], {"kind": "x", "node": "n0", "t": t})
        records = log.records
        for kind in ("x", "y", "xy", "z"):
            for node in ("n0", "n1", "n3"):
                want = [r for r in records if r["kind"] == kind and r["node"] == node]
                assert log.select(kind, node) == want
            assert log.select(kind) == [r for r in records if r["kind"] == kind]

    def test_to_jsonl_twice_returns_equal_text(self):
        log = EventLog()
        for t in range(EventLog.BLOCK_LINES + 5):
            log.append(t, "n0", "k", {"v": t})
        records = log.records
        first = log.to_jsonl()
        assert log.to_jsonl() == first
        assert log.records == records and log.select("k", "n0") == records
        assert len(first.splitlines()) == EventLog.BLOCK_LINES + 5


class TestMetrics:
    def test_csv_shape(self):
        m = Metrics(blocks_finalized=3, finalization_latencies=[10, 20])
        csv = m.to_csv()
        lines = csv.strip().splitlines()
        assert lines[0] == "metric,value"
        rows = dict(line.split(",") for line in lines[1:])
        assert rows["blocks_finalized"] == "3"
        assert rows["mean_finalization_latency"] == "15.0"
