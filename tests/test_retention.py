"""Finality frees what it settled: every per-round structure that a
finalization makes unreachable is dropped, so what an engine or a node
keeps of it stays under one fixed bound however long the run.

Each engine (consensus and collector clusters) keeps its vote, proposal,
certificate, pending-certificate and orphan books only for
rounds at or above its newest finalized block, and no tree node below that
round off the finalized chain. A consensus node drops a block's beacon
shares once it recovers the block's randomness and the approvals of each
result a finalized block seals; an executor drops each block it executed.

The soak test (`pytest -m soak`, deselected by default) runs the same
checks at a horizon 25 times the tier-1 one."""

from importlib import resources

import pytest

from flowpipe.scenario import build_world, evaluate_properties, load_scenario, run_world

BOUND = 16  # entries; happy-path keeps at most 8 of any of these


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
        note("engine.tree.certified", len(engine.tree.certified))
        note("engine.tree.recent", len(engine.tree.recent))
        note("engine.tree.nodes off the finalized chain", len(engine.tree.nodes) - len(engine.finalized_set))
    for node in world.consensus:
        note("ConsensusNode.drb_shares", len(node.drb_shares))
        note("ConsensusNode.approvals", len(node.approvals))
    for node in world.executors:
        note("ExecutionNode.blocks", len(node.blocks))
    return sizes


def happy_path(max_sim_time: int):
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["run"]["max_sim_time"] = max_sim_time
    return build_world(doc)


def assert_bounded(world) -> None:
    sizes = retained(world)
    assert len(sizes) == 10
    over = {name: size for name, size in sizes.items() if size > BOUND}
    assert not over, over


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
    # four times the horizon finalizes about four times the blocks
    assert finalized[0] > 90 and finalized[1] > 3 * finalized[0]
    # the finalized chain itself stays in every engine's tree
    for node in world.consensus:
        for digest in node.finalized_heights.values():
            assert digest in node.engine.tree.nodes and digest in node.engine.finalized_set


@pytest.mark.soak
def test_soak_happy_path_stays_bounded():
    world = happy_path(150_000)
    run_world(world)
    report = evaluate_properties(world)
    assert report["passed"], report["properties"]
    assert len(world.observer.finalized_heights) > 2_000
    assert_bounded(world)
