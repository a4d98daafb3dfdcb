"""flowpipe benchmark: one workload, measured end to end or traced by layer.

    python3 perfbench/run.py --workload happy-path --seed 7 --seconds 20 --trace 0

Every run is a fresh child process (``child.py``), started one at a time,
so peak RSS and set-up time belong to that run alone.

``--trace 0`` measures the end-to-end metrics with no tracing at all. The
workload runs at two scenario seeds: seed 1, at which the golden event-log
digests in ``tests/golden`` are recorded, and a seed derived from
``--seed``; then seed 1 again, so a run has a twin to compare logs with; and
then the schedule goes on while ``--seconds`` allows. Host timings are
medians over all runs; simulated metrics pool the samples of the two
distinct seeds.

``--trace 1`` runs the workload untraced and then traced at the seed derived
from ``--seed`` and reports the per-layer metrics, the tracing overhead, and
the tracer's self-test (traced call counts against cProfile's on a short
run).

A run fails when a scenario property fails, when its log differs from the
golden digest (seed 1, workloads with a golden file), from an earlier run
of the same seed, or, traced, from the untraced run. The last line of
stdout is one JSON object: correct, attempted, failed and the metrics
declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = HERE / "workloads"
GOLDEN = ROOT / "tests" / "golden"

GOLDEN_SEED = 1  # the seed tests/golden digests are recorded at
DEV_SEED = 7  # for development
CONFIRM_SEED = 11  # for confirming a claim on inputs not tuned against
SETUP_SAMPLES = 6  # set-up-only children per untraced invocation
SELFTEST_HORIZON = 3000  # ticks of the tracer's self-test run
CHILD_TIMEOUT = 150


def scenario_seeds(seed: int) -> list[int]:
    return [GOLDEN_SEED, 1000 * seed + 101]


def spawn(mode: str, workload: str, seed: int, horizon: int | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--mode", mode,
           "--scenario", str(WORKLOADS / f"{workload}.json"), "--seed", str(seed),
           "--spawned", repr(time.monotonic())]
    if horizon is not None:
        cmd += ["--horizon", str(horizon)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} run at seed {seed} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def percentile(xs: list[float], p: int) -> float:
    return statistics.quantiles(xs, n=100, method="inclusive")[p - 1] if len(xs) > 1 else xs[0]


class Gate:
    """Correctness gate: counts attempted and failed runs, records why."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def attempt(self, label: str, fn):
        """Start one run; a run that crashes counts as failed."""
        self.attempted += 1
        try:
            return fn()
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            self.judge([(False, f"{label}: {exc}")])
            return None

    def judge(self, checks: list[tuple[bool, str]]) -> None:
        """A completed run fails when any of its (ok, why) checks fails."""
        problems = [why for ok, why in checks if not ok]
        self.problems += problems
        self.failed += bool(problems)


def check_run(gate: Gate, workload: str, run: dict, digests: dict[int, str]) -> None:
    seed = run["seed"]
    checks = [(run["passed"], f"seed {seed}: properties failed: {run['failed_properties']}"),
              (run["digest"] == digests.setdefault(seed, run["digest"]),
               f"seed {seed}: log differs from an earlier run of the same seed")]
    golden = GOLDEN / f"{workload}.sha256"
    if seed == GOLDEN_SEED and golden.is_file():
        checks.append((run["digest"] == golden.read_text().strip(), f"seed {seed}: log differs from {golden.name}"))
    gate.judge(checks)


def measure(workload: str, seed: int, seconds: float, gate: Gate) -> dict:
    seeds = scenario_seeds(seed)
    setups = [spawn("setup", workload, seeds[0])["setup_s"] for _ in range(SETUP_SAMPLES)]
    runs: list[dict] = []
    digests: dict[int, str] = {}
    start = time.monotonic()
    while True:
        i = len(runs)
        if i > len(seeds):  # every seed ran, and seed 1 twice
            per_run = (time.monotonic() - start) / i
            if time.monotonic() - start + per_run > seconds:
                break
        s = seeds[i % len(seeds)]
        run = gate.attempt(f"seed {s}", lambda: spawn("run", workload, s))
        runs.append(run)
        if run is not None:
            check_run(gate, workload, run, digests)
    done = [r for r in runs if r is not None]
    if not done:
        raise RuntimeError("no run completed")
    distinct = list({r["seed"]: r for r in reversed(done)}.values())
    fin = [x for r in distinct for x in r["finality_ticks"]]
    seal = [x for r in distinct for x in r["seal_ticks"]]
    p90 = percentile(seal, 90)
    return {
        "runs": len(runs),
        "per_run": [(r["seed"], r["wall_s"], r["raw_wall_s"], r["deliveries"]) for r in done],
        "seeds": [r["seed"] for r in distinct],
        "wall_s": statistics.median(r["wall_s"] for r in done),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in done),
        "setup_s": statistics.median(setups + [r["setup_s"] for r in done]),
        "setup_samples": len(setups) + len(done),
        "ticks_per_s": statistics.median(r["ticks"] / r["run_s"] for r in done),
        "deliveries_per_s": statistics.median(r["deliveries"] / r["run_s"] for r in done),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in done),
        "finalized_per_ktick": 1000 * sum(r["finalized"] for r in distinct) / sum(r["ticks"] for r in distinct),
        "finality_p50_ticks": percentile(fin, 50),
        "finality_p95_ticks": percentile(fin, 95),
        "finality_p99_ticks": percentile(fin, 99),
        "tx_sealed_ratio": len(seal) / sum(r["submitted"] for r in distinct),
        "tx_seal_p50_ticks": percentile(seal, 50),
        "tx_seal_p90_ticks": p90,
        "tx_seal_beyond_p90": sum(x > p90 for x in seal),
        "finality_samples": len(fin),
        "seal_samples": len(seal),
    }


def trace(workload: str, seed: int, gate: Gate) -> dict:
    s = scenario_seeds(seed)[1]
    profiled = gate.attempt("self-test profile", lambda: spawn("profile", workload, s, SELFTEST_HORIZON))
    short = gate.attempt("self-test traced", lambda: spawn("traced", workload, s, SELFTEST_HORIZON))
    if profiled and short:
        wrong = {k: (v, profiled["calls"][k]) for k, v in short["calls"].items() if v != profiled["calls"][k]}
        gate.judge([(not wrong, f"self-test: traced calls != cProfile ncalls: {wrong}"),
                    (not short["leftovers"], f"self-test: wrappers left behind: {short['leftovers']}")])
    plain = gate.attempt(f"untraced seed {s}", lambda: spawn("run", workload, s))
    traced = gate.attempt(f"traced seed {s}", lambda: spawn("traced", workload, s))
    if plain is None or traced is None:
        raise RuntimeError("the untraced or the traced run did not complete")
    gate.judge([(plain["passed"], f"untraced seed {s}: properties failed: {plain['failed_properties']}"),
                (traced["digest"] == plain["digest"], "traced log differs from the untraced log"),
                (not traced["leftovers"], f"wrappers left behind: {traced['leftovers']}")])
    # per-layer seconds in the same reference-speed seconds as wall_s
    scale = traced["wall_s"] / traced["raw_wall_s"]
    layers = {k: v * scale if k.endswith("_s") else v for k, v in traced["layers"].items()}
    layers.update({
        "sim.deliveries": traced["deliveries"],
        "sim.dropped": traced["dropped"],
        "sim.events": traced["events"],
        "trace.wall_s": traced["wall_s"],
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    return {"seed": s, "layers": layers, "pinned_equals_bundled": profiled and profiled["pinned_equals_bundled"]}


def main() -> int:
    names = sorted(p.stem for p in WORKLOADS.glob("*.json"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, default=DEV_SEED,
                   help=f"workload seed (>= 0): {DEV_SEED} for development, {CONFIRM_SEED} to confirm a claim")
    p.add_argument("--seconds", type=float, default=20, help="measuring time for --trace 0")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not (ROOT / "src" / "flowpipe" / "__init__.py").is_file():
        print(f"no flowpipe sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]

    gate = Gate()
    try:
        if args.trace:
            result = trace(args.workload, args.seed, gate)
            values = result["layers"]
            for m in declared:  # a message type never sent on this workload
                if m["name"].startswith("msg."):
                    values.setdefault(m["name"], 0)
            print(f"workload {args.workload}  traced at scenario seed {result['seed']}  "
                  f"pinned document equals bundled: {result['pinned_equals_bundled']}")
        else:
            result = measure(args.workload, args.seed, args.seconds, gate)
            values = result
            print(f"workload {args.workload}  seed {args.seed}  scenario seeds {result['seeds']}  runs {result['runs']}")
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not measure: {exc}", file=sys.stderr)
        for why in gate.problems:
            print(f"  {why}", file=sys.stderr)
        return 1

    units = {m["name"]: m["unit"] for m in declared}
    for name in sorted(values) if args.trace else [m["name"] for m in declared]:
        if isinstance(values[name], (int, float)):
            print(f"  {name:48s} {values[name]:>14.6g} {units.get(name, '')}")
    if not args.trace:
        r = result
        beyond = r["tx_seal_beyond_p90"]
        p90 = f"{r['tx_seal_p90_ticks']:>14.6g} ticks" if beyond >= 10 else f"n/a ({beyond} samples beyond p90, need 10)"
        print(f"  {'tx_seal_p90_ticks':48s} {p90}")
        print(f"  {'finality_p95_ticks':48s} {r['finality_p95_ticks']:>14.6g} ticks")
        print(f"  {'raw wall-clock wall_s':48s} {r['raw_wall_s']:>14.6g} s")
        print(f"  {'failed_ratio':48s} {gate.failed / gate.attempted:>14.6g} ({gate.failed}/{gate.attempted} runs)")
        for seed, wall, raw, deliveries in r["per_run"]:
            print(f"  run at scenario seed {seed:<6d} wall_s {wall:8.4f} s (raw {raw:8.4f} s), {deliveries} deliveries")
        print(f"  samples: {r['runs']} runs for host timings, {r['setup_samples']} set-ups, "
              f"{r['finality_samples']} finality and {r['seal_samples']} seal latencies")
    for why in gate.problems:
        print(f"  FAILED: {why}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
