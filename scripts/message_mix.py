"""Count a run's sends by message type and receiver role.

    python3 scripts/message_mix.py --scenario FILE --seed N

Runs the scenario document FILE at scenario seed N and prints, for each
(message type, receiver role) pair, its sends, its sends per block the
observer finalized, and how many of them reached a receiver whose handler
table has no entry for the type, which the receiver ignores. A send the
network drops before GST still counts: the sender paid for it.

The count wraps the world's `Simulator.send` from outside; no node or
simulator code reads it, so the run and its event log are unchanged.
Needs `flowpipe` importable (installed, or `PYTHONPATH=src`).
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from flowpipe.scenario import build_world, load_scenario, run_world

ROLES = ("collectors", "consensus", "executors", "verifiers", "agents")


def count_sends(world) -> tuple[Counter, Counter]:
    """Wrap `world.sim.send` before the run. Returns two counters, filled
    as the world runs, keyed by (message type name, receiver role): every
    send, and the sends whose receiver has no handler for the type."""
    nodes = {node.name: (role, node) for role in ROLES for node in getattr(world, role)}
    sends, unhandled = Counter(), Counter()
    send = world.sim.send

    def counted(sender, receiver, message):
        role, node = nodes[receiver]
        key = type(message).__name__, role
        sends[key] += 1
        if type(message) not in node.handlers:
            unhandled[key] += 1
        send(sender, receiver, message)

    world.sim.send = counted
    return sends, unhandled


def table(sends: Counter, unhandled: Counter, blocks: int) -> str:
    """One row per (type, role), most sends first, then the totals; the
    per-block column reads "-" when no block was finalized."""
    rows = [
        (f"{t} -> {r}", n, unhandled[(t, r)])
        for (t, r), n in sorted(sends.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    rows.append(("total", sum(sends.values()), sum(unhandled.values())))
    width = max(len(label) for label, _, _ in rows)
    lines = [f"{'type -> receiver':<{width}}  {'sends':>8}  {'per block':>9}  {'unhandled':>9}"]
    for label, n, lost in rows:
        per = f"{n / blocks:.1f}" if blocks else "-"
        lines.append(f"{label:<{width}}  {n:>8}  {per:>9}  {lost:>9}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, required=True, help="scenario seed")
    args = p.parse_args(argv)
    doc = load_scenario(args.scenario)
    world = build_world(doc, args.seed)
    sends, unhandled = count_sends(world)
    run_world(world)
    blocks = world.metrics.blocks_finalized
    print(f"{doc['name']} seed {args.seed}: {blocks} blocks finalized at {world.observer.name}")
    print(table(sends, unhandled, blocks))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
