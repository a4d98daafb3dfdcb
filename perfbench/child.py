"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this script once per run, so that each run's peak RSS and
set-up time belong to it alone. It prints one JSON object on stdout.

Modes:
  setup    interpreter start, import, scenario load and ``build_world``
  run      a whole untraced run, timed, with its outcomes
  traced   the same run under the span tracer, with per-layer figures
  profile  the same run under cProfile, reporting call counts of the
           traced functions (the tracer's self-test compares against it)

The program is reached only through the public functions of its layers;
nothing under ``src/`` is changed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from collections import Counter
from importlib import resources
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import flowpipe  # noqa: E402

if not Path(flowpipe.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"flowpipe was imported from {flowpipe.__file__}, not from this checkout")

from flowpipe import scenario  # noqa: E402

import speed  # noqa: E402
import tracer as tracing  # noqa: E402

ROLE_LISTS = ("collectors", "consensus", "executors", "verifiers", "agents")


def body(doc: dict, seed: int) -> dict:
    """The measured region: build; then run, check properties, serialise
    and digest the event log. Wall-clock values stay out of the log."""
    t0 = time.perf_counter()
    world = scenario.build_world(doc, seed)
    t1 = time.perf_counter()
    build_speed = speed.speed_now()
    with speed.Speedometer() as meter:
        t2 = time.perf_counter()
        scenario.run_world(world)
        t3 = time.perf_counter()
        report = scenario.evaluate_properties(world)
        digest = hashlib.sha256(world.sim.log.to_jsonl().encode()).hexdigest()
        t4 = time.perf_counter()
    return {
        "world": world,
        "report": report,
        "digest": digest,
        "build_s": t1 - t0,
        "build_speed": build_speed,
        "run_s": meter.reference_seconds(t2, t3),
        "wall_s": meter.reference_seconds(t2, t4),
        "raw_wall_s": t4 - t2,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def outcomes(world) -> dict:
    """Simulated outcomes, read from the world after the run.

    A transaction is sealed when the observer seals the block whose
    collection holds it: ``tx_submitted`` events give the submit tick,
    collector stores map transactions to collections, the observer's
    finalized chain maps collections to blocks, and the observer's
    ``sealed`` events give the seal tick of each block."""
    log = world.sim.log
    submitted = {r["payload"]["hash"]: r["t"] for r in log.select("tx_submitted")}
    collection_of = {}
    for collector in world.collectors:
        for ch, texts in collector.store.items():
            for tx in texts:
                collection_of.setdefault(tx.tx_hash().hex(), ch)
    obs = world.observer
    block_of = {}
    for height in sorted(obs.finalized_heights):
        node = obs.engine.tree.nodes.get(obs.finalized_heights[height])
        if node is not None:
            for gc in node.payload.guaranteed_collections:
                block_of.setdefault(gc.collection_hash, node.payload.hash().hex())
    sealed_at = {}
    for r in log.select("sealed"):
        if r["node"] == obs.name:
            sealed_at.setdefault(r["payload"]["block"], r["t"])
    seal_ticks = []
    for tx_hash, t in submitted.items():
        block = block_of.get(collection_of.get(tx_hash))
        if block in sealed_at:
            seal_ticks.append(sealed_at[block] - t)
    return {
        "ticks": world.sim.now,
        "deliveries": world.sim.delivered,
        "dropped": world.sim.dropped,
        "events": len(log.records),
        "finalized": len(obs.finalized_heights),
        "finality_ticks": list(world.metrics.finalization_latencies),
        "submitted": len(submitted),
        "seal_ticks": seal_ticks,
    }


class Accounting:
    """Observers for the traced run: messages by type and sender role,
    handler time by message type, chunk data packages, and the shares of
    empty ``apply_updates`` calls and rejecting ``verify_chunk`` calls."""

    def __init__(self):
        self.sent = Counter()
        self.sent_by = Counter()  # sender name
        self.handle_s = Counter()
        self.receipts = {}  # id -> ReceiptMsg, kept alive so ids stay unique
        self.apply_empty = 0
        self.rejects = 0

    def observers(self) -> dict:
        def on_send(args, kwargs, result, elapsed):
            _, sender, _, message = args
            kind = type(message).__name__
            self.sent[kind] += 1
            self.sent_by[sender] += 1
            if kind == "ReceiptMsg":
                self.receipts.setdefault(id(message), message)

        def on_handle(args, kwargs, result, elapsed):
            self.handle_s[type(args[2]).__name__] += elapsed

        def on_apply(args, kwargs, result, elapsed):
            updates = args[1] if len(args) > 1 else kwargs["updates"]
            self.apply_empty += not updates

        def on_verify(args, kwargs, result, elapsed):
            self.rejects += not result.ok

        handles = {f"nodes.{role}.handle": on_handle for role in ("collector", "consensus", "execution", "verification")}
        return {"sim.send": on_send, "state.apply_updates": on_apply, "verification.verify_chunk": on_verify, **handles}

    def metrics(self, world, calls: dict) -> dict:
        role_of = {}
        for role in ROLE_LISTS:
            for node in getattr(world, role):
                role_of[node.name] = role
        out = {}
        for kind in sorted(set(self.sent) | set(self.handle_s)):
            out[f"msg.{kind}.count"] = self.sent[kind]
            out[f"msg.{kind}.handle_s"] = self.handle_s[kind]
        by_role = Counter()
        for sender, n in self.sent_by.items():
            by_role[role_of.get(sender, "other")] += n
        for role in ROLE_LISTS:
            out[f"msg.from_{role}.count"] = by_role[role]
        packages = [p for m in self.receipts.values() for p in m.packages]
        out["packages.count"] = len(packages)
        out["packages.registers_mean"] = (
            sum(len(p.registers) for p in packages) / len(packages) if packages else 0.0
        )
        applies = calls.get("state.apply_updates.calls", 0)
        out["state.apply_updates.empty_share"] = self.apply_empty / applies if applies else 1.0
        verifies = calls.get("verification.verify_chunk.calls", 0)
        out["verification.verify_chunk.reject_share"] = self.rejects / verifies if verifies else 0.0
        return out


def profile_counts(doc: dict, seed: int) -> dict:
    import cProfile
    import pstats

    prof = cProfile.Profile()
    prof.enable()
    body(doc, seed)
    prof.disable()
    stats = pstats.Stats(prof).stats
    counts = {}
    for module_name, qualname, name in tracing.TARGETS:
        code = tracing.original_function(module_name, qualname).__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        counts[name] = stats[key][1] if key in stats else 0
    return counts


def pinned_equals_bundled(path: str):
    """Whether a pinned document equals the bundled scenario of the same
    name after the defaults merge; None when no such scenario is bundled."""
    pinned = scenario.load_scenario(path)
    bundled = resources.files("flowpipe") / "scenarios" / f"{pinned['name']}.json"
    if not bundled.is_file():
        return None
    return scenario.load_scenario(str(bundled)) == pinned


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--mode", choices=["setup", "run", "traced", "profile"], required=True)
    p.add_argument("--scenario", required=True, help="pinned scenario document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None, help="shorten run.max_sim_time (self-test)")
    p.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started us")
    args = p.parse_args()

    doc = scenario.load_scenario(args.scenario)
    if args.horizon is not None:
        doc["run"]["max_sim_time"] = args.horizon

    if args.mode == "setup":
        scenario.build_world(doc, args.seed)
        print(json.dumps({"setup_s": (time.monotonic() - args.spawned) * speed.speed_now()}))
        return 0
    if args.mode == "profile":
        calls = profile_counts(doc, args.seed)
        print(json.dumps({"calls": calls, "pinned_equals_bundled": pinned_equals_bundled(args.scenario)}))
        return 0

    tracer = accounting = None
    if args.mode == "traced":
        tracer, accounting = tracing.Tracer(), Accounting()
        tracer.install(accounting.observers())
    start = time.monotonic()
    res = body(doc, args.seed)
    if tracer is not None:
        tracer.uninstall()
    out = {
        "seed": args.seed,
        "digest": res["digest"],
        "passed": res["report"]["passed"],
        "failed_properties": [p["name"] for p in res["report"]["properties"] if not p["passed"]],
        "setup_s": (start - args.spawned + res["build_s"]) * res["build_speed"],
        "wall_s": res["wall_s"],
        "raw_wall_s": res["raw_wall_s"],
        "run_s": res["run_s"],
        "peak_rss_mb": res["peak_rss_mb"],
        **outcomes(res["world"]),
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers.update(accounting.metrics(res["world"], layers))
        out["layers"] = layers
        out["calls"] = {name: tracer.stats[name][0] for _, _, name in tracing.TARGETS}
        out["leftovers"] = tracer.leftovers()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
