"""No node can change what another node received: every message a node
sends is a deeply immutable value, and so is the `Directory` all nodes
share.

A message is delivered to each receiver as the same object, so a part of it
that can change in place (a dict, a list, a plain object) would let one node
rewrite what every other node holds. The walk admits only bytes, str,
numbers, None, enums, tuples, frozensets, `MappingProxyType`s and frozen
dataclasses, whose fields it walks in turn. A frozen dataclass may memoise
a verdict about itself outside its fields (`encoding.once`); that memo is
not walked. A `LeaderSchedule` is a memo over a frozen stake table and a
seed, so only those two are walked."""

import dataclasses
import enum
from collections import Counter
from importlib import resources
from types import MappingProxyType

import pytest

from flowpipe.hotstuff import LeaderSchedule
from flowpipe.scenario import build_world, load_scenario, run_world

HORIZON = 4000  # ticks; every scenario below has sent a cluster block by then
ATOMS = {bytes, str, int, float, bool, type(None)}

# the bundled scenarios whose nodes all share one network; the slashing
# ones put a slash in a block before the horizon
SCENARIOS = {
    "happy-path": False,
    "byzantine-executor": True,
    "equivocating-leader": True,
    "pre-gst-chaos": False,
    "withheld-collection": True,
}


def mutable_parts(obj, walked: Counter, seen: set) -> list[str]:
    """The type name of each part of `obj`, itself included, that is not an
    immutable value; `walked` counts every part walked by type name, and
    `seen` holds the ids of the parts walked already."""
    found, stack = [], [obj]
    while stack:
        part = stack.pop()
        if id(part) in seen:
            continue
        seen.add(id(part))
        kind = type(part)
        walked[kind.__name__] += 1
        if kind in ATOMS or isinstance(part, enum.Enum):
            continue
        if kind in (tuple, frozenset):
            stack.extend(part)
        elif kind is MappingProxyType:
            stack.extend(part.keys())
            stack.extend(part.values())
        elif dataclasses.is_dataclass(part) and kind.__dataclass_params__.frozen:
            stack.extend(getattr(part, f.name) for f in dataclasses.fields(part))
        elif kind is LeaderSchedule:
            stack.extend((part.table, part.seed))
        else:
            found.append(kind.__name__)
    return found


def scenario(name: str) -> dict:
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / f"{name}.json"))
    doc["run"]["max_sim_time"] = HORIZON
    return doc


@pytest.mark.parametrize("name", SCENARIOS)
def test_every_message_is_deeply_immutable(name):
    world = build_world(scenario(name))
    sent, send = [], world.sim.send

    def recording(sender, receiver, message):
        sent.append(message)
        send(sender, receiver, message)

    world.sim.send = recording
    run_world(world)
    walked, seen = Counter(), set()
    found = Counter(kind for message in sent for kind in mutable_parts(message, walked, seen))
    assert not found, f"mutable parts of the messages sent: {dict(found)}"
    assert walked["ClusterBlock"] > 0
    assert (walked["Slash"] > 0) == SCENARIOS[name]


def test_directory_is_deeply_immutable():
    world = build_world(scenario("happy-path"))
    walked = Counter()
    assert mutable_parts(world.directory, walked, set()) == []
    assert walked["LeaderSchedule"] == 1 + len(world.directory.clusters)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="`encoding.once` keeps a memo in the shared instance's writable "
    "`__dict__`, so one node can change a verdict every holder reads (ROADMAP item 9)",
)
def test_memo_overwrite_stays_with_its_node():
    """A block reaches every consensus node as one object, and
    `ProtoBlock.hash` memoises its digest in that object's `__dict__`. After
    a 1,000-tick happy-path run, n0 overwrites the `_hash_memo` of a block
    at height 1 in its tree; n1's `hash()` of the same block must not change."""
    doc = scenario("happy-path")
    doc["run"]["max_sim_time"] = 1000
    world = build_world(doc)
    run_world(world)
    n0, n1 = world.consensus[:2]
    theirs = n1.engine.tree.nodes[n1.finalized_heights[1]].payload
    before = theirs.hash()
    n0.engine.tree.nodes[n0.finalized_heights[1]].payload.__dict__["_hash_memo"] = b"\x00" * 32
    assert theirs.hash() == before
