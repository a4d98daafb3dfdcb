"""Command-line interface.

`flowpipe run` executes a scenario and writes the event log, metrics, and
property report; `flowpipe analyze-clusters` tabulates cluster-compromise
probabilities; `flowpipe dkg-demo` prints a deterministic beacon transcript.

Exit codes: 0 all properties passed, 1 a property failed, 2 configuration
error (no artifacts are written in that case).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from importlib import resources

from . import crypto
from .blocks import block_seed
from .clustering import cluster_compromise_probability
from .encoding import hexify
from .scenario import (
    ScenarioError,
    apply_overrides,
    load_scenario,
    run_scenario,
)

BUNDLED = [
    "happy-path",
    "byzantine-executor",
    "withheld-collection",
    "equivocating-leader",
    "network-partition",
    "pre-gst-chaos",
]


def _resolve_scenario(spec: str) -> str:
    """A path to a JSON file, or the name of a bundled scenario."""
    if os.path.exists(spec):
        return spec
    if spec in BUNDLED:
        ref = resources.files("flowpipe") / "scenarios" / f"{spec}.json"
        return str(ref)
    raise ScenarioError(
        [f"scenario: no such file or bundled scenario {spec!r}; "
         f"bundled: {', '.join(BUNDLED)}"]
    )


def _out_dir(args) -> str:
    return args.out or os.environ.get("FLOWPIPE_OUT") or "out"


def cmd_run(args) -> int:
    try:
        doc = load_scenario(_resolve_scenario(args.scenario))
        if args.override:
            doc = apply_overrides(doc, args.override)
    except ScenarioError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    result = run_scenario(doc, seed=args.seed)
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)

    result.world.sim.log.write_jsonl(os.path.join(out, "events.jsonl"))
    metrics = result.world.metrics
    if args.format == "csv":
        with open(os.path.join(out, "metrics.csv"), "w") as fh:
            fh.write(metrics.to_csv())
    else:
        with open(os.path.join(out, "metrics.jsonl"), "w") as fh:
            fh.write(json.dumps(dict(metrics.rows()), sort_keys=True) + "\n")
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(result.report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for prop in result.report["properties"]:
        mark = "PASS" if prop["passed"] else "FAIL"
        print(f"[{mark}] {prop['name']}: {prop['detail']}")
    print(
        f"scenario={result.report['scenario']} seed={result.report['seed']} "
        f"finalized={metrics.blocks_finalized} sealed={metrics.blocks_sealed} "
        f"artifacts={out}"
    )
    return 0 if result.report["passed"] else 1


def cmd_analyze_clusters(args) -> int:
    try:
        threshold = Fraction(args.threshold)
        sizes = [int(s) for s in args.sizes.split(",") if s]
        if not sizes:
            raise ValueError("no cluster sizes given")
        if args.byzantine > args.total:
            raise ValueError("byzantine count exceeds the population")
    except (ValueError, ZeroDivisionError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    lines = ["n_c,byzantine,cluster_size,threshold,probability"]
    for size in sizes:
        try:
            p = cluster_compromise_probability(args.total, args.byzantine, size, threshold)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 2
        lines.append(f"{args.total},{args.byzantine},{size},{threshold},{float(p):.6e}")
    csv = "\n".join(lines) + "\n"
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "cluster-analysis.csv")
        with open(path, "w") as fh:
            fh.write(csv)
        print(f"wrote {path}")
    else:
        sys.stdout.write(csv)
    return 0


def cmd_dkg_demo(args) -> int:
    n = args.committee_size
    if n < 1:
        print("config error: committee size must be >= 1", file=sys.stderr)
        return 2
    seed = crypto.hash("dkg-demo", args.seed.encode())
    params = crypto.make_params(n, crypto.TEST_FIELD)
    entropy = [crypto.derive_seed(["dkg", str(i)], seed) for i in range(1, n + 1)]
    dkg = crypto.dkg_setup(params, entropy)
    print(f"committee size : {n}")
    print(f"threshold t    : {params.t} (recovery needs t+1 = {params.t + 1} shares)")
    print(f"group key      : {dkg.verification_vector.group_public_key}")
    message = crypto.hash("demo-block", args.seed.encode())
    print(f"message        : {hexify(message)}")
    shares = []
    for share in dkg.shares:
        sig = crypto.threshold_sign(params, share, message)
        ok = crypto.signature_share_verify(params, dkg.verification_vector, sig, message)
        print(f"  share {share.party_index}: signature={sig.value} valid={ok}")
        shares.append(sig)
    sigma = crypto.threshold_recover(params, dkg.verification_vector, shares[: params.t + 1], message)
    valid = crypto.threshold_verify(
        params, sigma, dkg.verification_vector.group_public_key, message
    )
    print(f"group signature: {sigma.value} valid={valid}")
    print(f"derived seed   : {hexify(block_seed(sigma.value))}")
    return 0 if valid else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flowpipe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario and write its artifacts")
    run.add_argument("--scenario", required=True, help="path to a scenario JSON file or a bundled scenario name")
    run.add_argument("--seed", type=int, default=None, help="override the run seed")
    run.add_argument("--override", action="append", default=[], metavar="KEY=VALUE",
                     help="dotted-path scenario override, repeatable (e.g. run.max_sim_time=5000)")
    run.add_argument("--out", default=None, help="artifact directory (default $FLOWPIPE_OUT or ./out)")
    run.add_argument("--format", choices=["csv", "jsonl"], default="csv", help="metrics file format")
    run.set_defaults(fn=cmd_run)

    ac = sub.add_parser("analyze-clusters", help="cluster-compromise probability table")
    ac.add_argument("--total", type=int, required=True, help="collector population size")
    ac.add_argument("--byzantine", type=int, required=True, help="Byzantine collectors in the population")
    ac.add_argument("--sizes", default="50,80", help="comma-separated cluster sizes")
    ac.add_argument("--threshold", default="2/3", help="compromise fraction (e.g. 2/3)")
    ac.add_argument("--out", default=None, help="write cluster-analysis.csv here instead of stdout")
    ac.set_defaults(fn=cmd_analyze_clusters)

    demo = sub.add_parser("dkg-demo", help="deterministic key-generation and beacon transcript")
    demo.add_argument("--committee-size", type=int, default=5)
    demo.add_argument("--seed", default="demo", help="transcript seed string")
    demo.set_defaults(fn=cmd_dkg_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
