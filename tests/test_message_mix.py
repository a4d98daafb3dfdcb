"""`scripts/message_mix.py` counts a run's sends by message type and
receiver role, and the sends whose receiver has no handler for the type.
Wrapping `Simulator.send` leaves the run's event log unchanged. No
bundled scenario at seed 1 sends a message its receiver has no handler
for."""

import hashlib
import importlib.util
from importlib import resources
from pathlib import Path

import pytest
from test_beacon import assert_seeded

from flowpipe.nodes import Finalized
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


BUNDLED = sorted(
    p.name.removesuffix(".json") for p in (resources.files("flowpipe") / "scenarios").iterdir()
)


@pytest.mark.parametrize("name", BUNDLED)
def test_no_send_is_unhandled(name):
    """Every send reaches a receiver with a handler for its type. Only beacon
    committee members send the verifiers a `Finalized` copy, and each such
    copy carries the sender's share. On happy-path the run also sends at
    most 185 messages per finalized block, and once it has drained for
    1,000 more ticks every verifier holds, for every block n0 finalized by
    the horizon, the seed the committee's DKG shares give."""
    world = build_world(bundled(name), 1)
    d = world.directory
    sends, unhandled = load_script().count_sends(world)
    verifiers, copies = set(d.verifier_names), []
    send = world.sim.send

    def spy(sender, receiver, msg):
        if receiver in verifiers and isinstance(msg, Finalized):
            copies.append((sender, msg))
        send(sender, receiver, msg)

    world.sim.send = spy
    run_world(world)
    assert sum(sends.values()) > 0 and not unhandled
    assert all(msg.share is not None for _, msg in copies)
    committee = {d.name_of[key]: share.party_index for key, share in d.drb_committee.items()}
    assert all(committee.get(sender) == msg.share.party_index for sender, msg in copies)
    if name == "happy-path":
        assert copies
        assert sum(sends.values()) <= 185 * world.metrics.blocks_finalized
        blocks = list(world.observer.finalized_heights.values())
        assert len(blocks) > 500
        world.sim.run(until=world.sim.now + 1000)
        assert_seeded(world, blocks)


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
