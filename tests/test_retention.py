"""Finality frees what it settled: every per-round structure that a
finalization makes unreachable is dropped, so what an engine or a node
keeps of it stays under one fixed bound however long the run.

Each engine (consensus and collector clusters) keeps its vote, proposal,
certificate, pending-certificate, orphan and reported-equivocation books
only for rounds at or above its newest finalized block, the proposals it
answers block fetches from only `RETRIEVAL_WINDOW` rounds below it, and no
tree node below that round off the finalized chain. A collector engine keeps of the finalized
chain only its newest block. A consensus node drops the approvals of each
result a finalized block seals, the seal-index entries of the results
before its sealed tip, a block's first-seen stamp
once the block is finalized or pruned, each guarantee a finalized
block lists, and its `Finalized` copy, with its beacon share, of each
block a finalized block seals;
an executor drops each block it executed; a verifier drops a
block's beacon shares once it recovers the block's seed.

The simulator's calendar queue holds a bucket only for a tick still to
come, so it never keeps one per tick already run.

The event log keeps each record as its canonical line, packed into text:
replayed into a fresh `EventLog`, a run's records take at most
`LOG_BOUND` times the length of their JSONL text (kept as dicts, the 30k
happy-path run's records took 5.5 times).

The soak test (`pytest -m soak`, deselected by default) runs the same
checks at a horizon 25 times the tier-1 one."""

import io
import json
import tracemalloc
from importlib import resources

import pytest

from flowpipe.scenario import build_world, evaluate_properties, load_scenario, run_world
from flowpipe.sim import EventLog

BOUND = 16  # entries; happy-path keeps 11 proposals for fetches and at most 8 of any other
LOG_BOUND = 1.5  # bytes an event log keeps per character of its JSONL text


def retained(world) -> dict[str, int]:
    """The largest size of each pruned structure over every engine and node."""
    sizes: dict[str, int] = {}

    def note(name: str, size: int) -> None:
        sizes[name] = max(sizes.get(name, 0), size)

    for node in world.consensus + world.collectors:
        engine = node.engine
        note("engine._votes", len(engine._votes))
        note("engine._proposal_seen", len(engine._proposal_seen))
        note("engine._pending_qcs", len(engine._pending_qcs))
        note("engine._orphans", len(engine._orphans))
        note("engine._proposals", len(engine._proposals))
        note("engine.tree.certified", len(engine.tree.certified))
        note("engine.tree.recent", len(engine.tree.recent))
        note("engine.tree.nodes off the finalized chain", len(engine.tree.nodes) - len(engine.finalized_set))
    for node in world.collectors:
        note("collector engine.tree.nodes", len(node.engine.tree.nodes))
        note("collector engine.finalized_set", len(node.engine.finalized_set))
    for node in world.consensus:
        note("ConsensusNode.approvals", len(node.approvals))
        note("ConsensusNode.results_by_prev", len(node.results_by_prev))
        note("ConsensusNode.pending_collections", len(node.pending_collections))
        note("ConsensusNode.beacon_shares", len(node.beacon_shares))
    for node in world.executors:
        note("ExecutionNode.blocks", len(node.blocks))
    for node in world.verifiers:
        note("VerificationNode.drb_shares", len(node.drb_shares))
    return sizes


def bundled(name: str, max_sim_time=None):
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / f"{name}.json"))
    if max_sim_time is not None:
        doc["run"]["max_sim_time"] = max_sim_time
    return build_world(doc)


def happy_path(max_sim_time: int):
    return bundled("happy-path", max_sim_time)


def assert_bounded(world) -> None:
    sizes = retained(world)
    assert len(sizes) == 16
    over = {name: size for name, size in sizes.items() if size > BOUND}
    assert not over, over


def assert_queue_ahead(sim) -> None:
    """The simulator queues only future ticks, each once: a bucket left
    behind for a tick already run would grow the queue by one per tick."""
    assert sorted(sim._ticks) == sorted(sim._buckets)
    assert all(t > sim.now and bucket for t, bucket in sim._buckets.items())


def assert_log_compact(log) -> None:
    """Replay every record of `log` into a fresh `EventLog` under
    tracemalloc, one decoded record at a time, and bound what it keeps."""
    text = log.to_jsonl()
    tracemalloc.start()
    try:
        replay = EventLog()
        for line in io.StringIO(text):
            rec = json.loads(line)
            replay.append(rec["t"], rec["node"], rec["kind"], rec["payload"])
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert replay.to_jsonl() == text
    assert kept <= LOG_BOUND * len(text), (kept, len(text))


def test_event_log_keeps_canonical_text():
    world = happy_path(30_000)
    run_world(world)
    assert_log_compact(world.sim.log)


def test_retention_bounded_at_two_horizons():
    world = happy_path(24_000)
    for node in (
        world.collectors + world.consensus + world.executors + world.verifiers + world.agents
    ):
        node.start()
    finalized = []
    for horizon in (6_000, 24_000):
        world.sim.run(until=horizon)
        finalized.append(len(world.observer.finalized_heights))
        assert_bounded(world)
        assert_queue_ahead(world.sim)
    # four times the horizon finalizes about four times the blocks
    assert finalized[0] > 90 and finalized[1] > 3 * finalized[0]
    # the finalized chain itself stays in every consensus engine's tree
    for node in world.consensus:
        for digest in node.finalized_heights.values():
            assert digest in node.engine.tree.nodes and digest in node.engine.finalized_set


def test_busy_clusters_stay_bounded():
    """happy-path under ledger-load's load (100 transactions 20 ticks apart)
    guarantees 39 collections by tick 6,000; a consensus node that kept every
    guarantee it heard of would hold all 39."""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["transactions"].update(count=100, interval=20)
    doc["run"].update(seed=1, max_sim_time=6000)
    world = build_world(doc)
    run_world(world)
    assert world.metrics.collections_guaranteed > BOUND
    assert_bounded(world)


def test_clusters_keep_no_work_between_transactions():
    """happy-path submits a transaction every 400 ticks. Just before each
    submission the clusters have ordered every earlier one: no collector
    keeps a fresh hash (`CollectorNode.fresh`, pooled and not yet
    included) and no collector engine keeps a refused proposal."""
    world = happy_path(6_000)
    checked = []
    for agent in world.agents:

        def tick(agent=agent, submit=agent._tick):
            checked.append([(c.fresh, c.engine._refused) for c in world.collectors])
            submit()

        agent._tick = tick
    run_world(world)
    assert len(checked) == 13  # twelve submissions, and the tick that finds them done
    assert all(held == [({}, None)] * len(world.collectors) for held in checked)


def test_reported_equivocations_pruned_below_the_floor():
    """An engine reports each equivocation once, and remembers the report
    only while a proposal of that round can still reach it: `on_proposal`
    ignores rounds below the floor, so an older entry is never read."""
    world = bundled("equivocating-leader")
    run_world(world)
    assert world.sim.log.select("equivocation_challenge")
    for node in world.consensus:
        engine = node.engine
        assert engine.floor > 200, node.name
        assert all(r >= engine.floor for _, r in engine._evidence_emitted), node.name


def test_late_receipt_makes_no_seal_index_entry():
    """The seal index drops the successors of a result behind the finalized
    sealed tip, and a receipt that extends such a result and arrives late
    does not bring the entry back: `_ready_seals` starts at the sealed tip."""
    world = happy_path(6_000)
    run_world(world)
    node = world.observer
    settled = [
        (rh, msg) for rh, msg in node.receipts.items()
        if rh in node.final["sealed"] and rh != node.tip.sealed_tip
    ]
    assert len(settled) > 50
    rh, msg = settled[-1]
    prev = msg.receipt.execution_result.previous_execution_result_hash
    assert prev not in node.results_by_prev
    del node.receipts[rh]  # as if its receipt had not arrived yet
    node._on_receipt("e0", msg)
    assert node.receipts[rh] is msg and prev not in node.results_by_prev


@pytest.mark.soak
def test_soak_happy_path_stays_bounded():
    world = happy_path(150_000)
    run_world(world)
    report = evaluate_properties(world)
    assert report["passed"], report["properties"]
    assert len(world.observer.finalized_heights) > 2_000
    assert_bounded(world)
    assert_queue_ahead(world.sim)
    assert_log_compact(world.sim.log)
