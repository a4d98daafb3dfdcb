"""Record a benchmark baseline: every workload at several seeds, plus one
traced run each, summarised into ``perfbench/BENCH_<label>.json``.

    python3 perfbench/record.py --label baseline --seeds 1-10 --trace-seed 7

For each end-to-end metric it stores the median, the quartiles and their
spread (interquartile range over the median) across the seeds, beside the
machine (``nproc``, processor, Python version) and the seeds used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import run as bench


def invoke(workload: str, seed: int, trace: int, seconds: float) -> dict:
    cmd = [sys.executable, str(bench.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def processor() -> str:
    for line in Path("/proc/cpuinfo").read_text().splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", required=True)
    p.add_argument("--seeds", default="1-10", help="first-last")
    p.add_argument("--trace-seed", type=int, default=bench.DEV_SEED)
    p.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    args = p.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    workloads = {}
    for w in (x["name"] for x in spec["workloads"]):
        results = [invoke(w, s, 0, seconds) for s in seeds]
        summary = {}
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            summary[m["name"]] = {"unit": m["unit"], "median": statistics.median(values), "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / statistics.median(values)}
        traced = invoke(w, args.trace_seed, 1, seconds)
        workloads[w] = {
            "correct": all(r["correct"] for r in results) and traced["correct"],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
        print(f"{w}: recorded {len(seeds)} seeds and one traced run", file=sys.stderr)

    out = {
        "label": args.label,
        "machine": {"nproc": len(os.sched_getaffinity(0)), "processor": processor(), "python": platform.python_version()},
        "seeds": {"end_to_end": seeds, "trace": args.trace_seed, "dev": bench.DEV_SEED, "confirm": bench.CONFIRM_SEED},
        "workloads": workloads,
    }
    path = bench.HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
