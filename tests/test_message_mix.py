"""`scripts/message_mix.py` counts a run's sends by message type and
receiver role, and the sends whose receiver has no handler for the type.
Wrapping `Simulator.send` leaves the run's event log unchanged. On
withheld-collection at seed 1, the one pair sent to a receiver that
ignores it is `Finalized` to a verifier; `tests/test_beacon.py` checks
the same on its happy-path run."""

import hashlib
import importlib.util
from importlib import resources
from pathlib import Path

from flowpipe.scenario import build_world, load_scenario, run_world

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "message_mix.py"


def load_script():
    spec = importlib.util.spec_from_file_location("message_mix", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bundled(name: str) -> dict:
    return load_scenario(str(resources.files("flowpipe") / "scenarios" / f"{name}.json"))


def log_digest(world) -> str:
    return hashlib.sha256(world.sim.log.to_jsonl().encode()).hexdigest()


def test_only_finalized_to_verifiers_is_unhandled():
    world = build_world(bundled("withheld-collection"), 1)
    sends, unhandled = load_script().count_sends(world)
    run_world(world)
    assert set(unhandled) == {("Finalized", "verifiers")}
    assert unhandled[("Finalized", "verifiers")] == sends[("Finalized", "verifiers")]


def test_counting_leaves_the_run_unchanged():
    doc = bundled("happy-path")
    doc["run"]["max_sim_time"] = 4000
    plain = build_world(doc, 1)
    run_world(plain)
    counted = build_world(doc, 1)
    sends, _ = load_script().count_sends(counted)
    run_world(counted)
    assert log_digest(counted) == log_digest(plain)
    assert sum(sends.values()) >= counted.sim.delivered + counted.sim.dropped


def test_table_lists_every_pair_and_the_totals(capsys):
    mix = load_script()
    path = resources.files("flowpipe") / "scenarios" / "network-partition.json"
    assert mix.main(["--scenario", str(path), "--seed", "1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "network-partition seed 1: 0 blocks finalized at n0"
    assert out[1].split() == ["type", "->", "receiver", "sends", "per", "block", "unhandled"]
    assert out[-1].split()[0] == "total"
    assert all(len(row.split()) == 6 for row in out[2:-1])
