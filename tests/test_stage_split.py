"""`scripts/stage_split.py` splits each sealed transaction's submit -> sealed
time into pipeline stages: the stages never run backwards and sum to the
seal time, read here independently from the collector stores, the
observer's chain and its `sealed` records. Its two finality offsets are
checked against the log read here: the first `executed` record at the
block's height, and the approval that brings the sealed result's approving
verifiers to more than 2/3 of their stake."""

import importlib.util
import json
from importlib import resources
from pathlib import Path

from flowpipe.scenario import build_world, load_scenario, run_world

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stage_split.py"


def load_script():
    spec = importlib.util.spec_from_file_location("stage_split", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def happy_path(max_sim_time: int) -> dict:
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["run"]["max_sim_time"] = max_sim_time
    return doc


def seal_times(world) -> dict[str, int]:
    """Transaction hash -> submit -> sealed ticks at the observer."""
    obs = world.observer
    collection_of = {}
    for collector in world.collectors:
        for ch, txs in collector.store.items():
            for tx in txs:
                collection_of.setdefault(tx.tx_hash().hex(), ch)
    block_of = {}
    for digest in obs.finalized_heights.values():
        for gc in obs.engine.tree.nodes[digest].payload.guaranteed_collections:
            block_of.setdefault(gc.collection_hash, digest.hex())
    sealed_at = {}
    for r in world.sim.log.select("sealed", obs.name):
        sealed_at.setdefault(r["payload"]["block"], r["t"])
    out = {}
    for r in world.sim.log.select("tx_submitted"):
        block = block_of.get(collection_of.get(r["payload"]["hash"]))
        if block in sealed_at:
            out[r["payload"]["hash"]] = sealed_at[block] - r["t"]
    return out


def test_stages_sum_to_the_seal_time():
    stage_split = load_script()
    world = build_world(happy_path(30000), 1)
    run_world(world)
    ticks = stage_split.stage_ticks(world)
    want = seal_times(world)
    assert len(want) == 12 and set(ticks) == set(want)
    for tx, (_, stamps) in ticks.items():
        *stages, total = stage_split.durations(stamps)
        assert len(stages) == len(stage_split.STAGES) - 1
        assert all(d >= 0 for d in stages)
        assert sum(stages) == total == want[tx]


def test_finality_offsets():
    stage_split = load_script()
    world = build_world(happy_path(30000), 1)
    run_world(world)
    log, obs, d = world.sim.log, world.observer, world.directory
    offsets = stage_split.finality_offsets(world)
    sealed = log.select("sealed", obs.name)
    assert len(offsets) == len(sealed) > 500
    finalized_at = {r["payload"]["hash"]: r["t"] for r in log.select("finalized", obs.name)}
    seal_t = {r["payload"]["block"]: r["t"] for r in sealed}
    executed_at, approvals = {}, {}
    for r in log.select("executed"):
        executed_at.setdefault(r["payload"]["height"], []).append(r["t"])
    for r in log.select("approved"):
        approvals.setdefault(r["payload"]["result"], []).append(r)
    total = sum(d.verifiers.stake.values())
    for r in sealed:
        block, result = r["payload"]["block"], r["payload"]["result"]
        height = next(h for h, digest in obs.finalized_heights.items() if digest.hex() == block)
        weight, quorum_t = 0, None
        for a in approvals[result]:
            weight += d.verifiers.stake[d.key_of[a["node"]]]
            if 3 * weight > 2 * total:
                quorum_t = a["t"]
                break
        executed, approved = offsets[block]
        first = min(executed_at[height])
        assert executed == first - finalized_at[block]
        assert approved == quorum_t - finalized_at[block]
        # a verifier approves a receipt, and a seal lists the approvals
        assert executed <= approved < seal_t[block] - finalized_at[block]


def test_prints_one_row_per_stage(tmp_path, capsys):
    stage_split = load_script()
    path = tmp_path / "short.json"
    path.write_text(json.dumps(happy_path(3000)))
    assert stage_split.main(["--scenario", str(path), "--seed", "1", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("happy-path seed 1 2: ")
    assert [line.split("  ")[0].strip() for line in lines[2:]] == [
        label.format(obs="n0") for label in stage_split.LABELS
    ]
