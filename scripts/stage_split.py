"""Split each transaction's submit -> sealed time into pipeline stages.

    python3 scripts/stage_split.py --scenario FILE --seed N [N ...]

Runs the scenario document FILE at each scenario seed and prints, for every
transaction the observer sealed, pooled over the seeds, the p50 and min..max
ticks of each stage:

    submitted -> collection closed -> guaranteed
              -> finalized at the observer -> sealed at the observer

The stages of one transaction sum to its submit -> sealed time. Only the
run's event log and node state are read: `tx_submitted`, the first
`collection_closed` and `collection_guaranteed` record of its collection,
and the observer's `finalized` and `sealed` records of the block that lists
the collection; the collector stores name each collection's transactions
and the observer's finalized chain names each collection's block.

Two more rows split finalized -> sealed. Each is an offset from the
observer's `finalized` record of the transaction's block, so it may be
negative (another node finalized first): to the first `executed` record at
the block's height, and to the `approved` record that completes a verifier
supermajority, by stake and in log order, of the result the observer
sealed for the block.
Needs `flowpipe` importable (installed, or `PYTHONPATH=src`).
"""

from __future__ import annotations

import argparse
import statistics
import sys

from flowpipe.scenario import build_world, load_scenario, run_world
from flowpipe.state import Tally

STAGES = ("submitted", "closed", "guaranteed", "finalized", "sealed")


def _first_ticks(log, kind: str, key: str, node=None) -> dict[str, int]:
    """Payload `key` -> tick of the first `kind` record (of `node`)."""
    ticks: dict[str, int] = {}
    for r in log.select(kind, node):
        ticks.setdefault(r["payload"][key], r["t"])
    return ticks


def stage_ticks(world) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Transaction hash -> its block's hash and the tick of each of
    `STAGES`, for each transaction whose block the observer sealed."""
    log, obs = world.sim.log, world.observer
    submitted = _first_ticks(log, "tx_submitted", "hash")
    closed = _first_ticks(log, "collection_closed", "hash")
    guaranteed = _first_ticks(log, "collection_guaranteed", "hash")
    finalized = _first_ticks(log, "finalized", "hash", obs.name)
    sealed = _first_ticks(log, "sealed", "block", obs.name)
    texts: dict[str, list[str]] = {}
    for collector in world.collectors:
        for ch, txs in collector.store.items():
            texts.setdefault(ch.hex(), [tx.tx_hash().hex() for tx in txs])
    out: dict[str, tuple[str, tuple[int, ...]]] = {}
    for height in sorted(obs.finalized_heights):
        digest = obs.finalized_heights[height]
        block = digest.hex()
        if block not in sealed:
            continue
        for gc in obs.engine.tree.nodes[digest].payload.guaranteed_collections:
            ch = gc.collection_hash.hex()
            for tx in texts.get(ch, ()):
                if tx in submitted and tx not in out:
                    out[tx] = block, (submitted[tx], closed[ch], guaranteed[ch], finalized[block], sealed[block])
    return out


def finality_offsets(world) -> dict[str, tuple[int, int]]:
    """Block hash -> ticks from the observer's `finalized` record to the
    first `executed` record at the block's height, and to the `approved`
    record that completes a verifier supermajority of the block's result,
    for each block the observer sealed."""
    log, obs, d = world.sim.log, world.observer, world.directory
    finalized = _first_ticks(log, "finalized", "hash", obs.name)
    executed = _first_ticks(log, "executed", "height")
    sealed = {r["payload"]["result"]: r["payload"]["block"] for r in log.select("sealed", obs.name)}
    approved: dict[str, int] = {}
    tallies: dict[str, Tally] = {}
    for r in log.select("approved"):
        result = r["payload"]["result"]
        if result in sealed and result not in approved:
            tally = tallies.setdefault(result, Tally(d.verifiers))
            tally.add(d.key_of[r["node"]], None)
            if tally.quorum:
                approved[result] = r["t"]
    height = {digest.hex(): h for h, digest in obs.finalized_heights.items()}
    return {
        block: (executed[height[block]] - finalized[block], approved[result] - finalized[block])
        for result, block in sealed.items()
    }


def durations(ticks: tuple[int, ...]) -> list[int]:
    """A transaction's stage durations, then its submit -> sealed time."""
    return [b - a for a, b in zip(ticks, ticks[1:])] + [ticks[-1] - ticks[0]]


LABELS = (
    "submitted -> closed",
    "closed -> guaranteed",
    "guaranteed -> finalized at {obs}",
    "finalized -> sealed at {obs}",
    "submitted -> sealed at {obs}",
    "finalized at {obs} -> first executed",
    "finalized at {obs} -> approved by a verifier supermajority",
)


def table(rows: list[list[int]], observer: str) -> str:
    """p50 and min..max of each column of `rows` (`durations` rows, then
    the block's `finality_offsets`)."""
    names = [label.format(obs=observer) for label in LABELS]
    width = max(len(n) for n in names)
    lines = [f"{'stage':<{width}}  {'p50':>8}  min..max"]
    for i, name in enumerate(names):
        col = [row[i] for row in rows]
        p50 = f"{statistics.median(col):g}" if col else "-"
        span = f"{min(col)}..{max(col)}" if col else "-"
        lines.append(f"{name:<{width}}  {p50:>8}  {span}")
    return "\n".join(lines)


def main(argv: list[str]) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--scenario", required=True, help="scenario JSON file")
    p.add_argument("--seed", type=int, nargs="+", required=True, help="scenario seed(s), pooled")
    args = p.parse_args(argv)
    doc = load_scenario(args.scenario)
    rows, submitted, observer = [], 0, "n0"
    for seed in args.seed:
        world = build_world(doc, seed)
        run_world(world)
        observer = world.observer.name
        submitted += len(world.sim.log.select("tx_submitted"))
        offsets = finality_offsets(world)
        rows += [durations(t) + list(offsets[block]) for block, t in stage_ticks(world).values()]
    seeds = " ".join(str(s) for s in args.seed)
    print(f"{doc['name']} seed {seeds}: {len(rows)} of {submitted} transactions sealed at {observer}, ticks")
    print(table(rows, observer))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
