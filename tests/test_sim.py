import math

import pytest

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
