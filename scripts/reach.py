"""List the functions under src/flowpipe that no bundled run calls.

    python3 scripts/reach.py

Installs a `sys.setprofile` hook before it imports `flowpipe`, so module
import counts too, and runs through `flowpipe.cli.main`: the six bundled
scenarios at their own horizons, one run with `--override` and
`--format jsonl`, an unknown scenario, `analyze-clusters` and `dkg-demo`.
It then prints each function or lambda defined under src/flowpipe whose
code never started, less `ALLOWLIST`; then each stale allowlist entry,
one whose every definition started (or that names none); and on the last
line the three counts: unreached outside the allowlist, unreached in it,
and stale entries.
The hook sees every Python call, so it needs no `sys.monitoring` and runs
on Python 3.10 and later. Exit code 0 whatever it finds: the count is for
information. Needs `src` on the path (`PYTHONPATH=src`) or an installed
`flowpipe`; the listed definitions are read from the imported package.
"""

from __future__ import annotations

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "flowpipe"

# module.qualname -> why no bundled run needs to reach it
ALLOWLIST = {
    "adversary.non_responsive": "a behavior no bundled scenario names; the silent-node cases of "
    "tests/test_adversary.py use it, and crash windows (ROADMAP item 16) may subsume it",
    "adversary.non_responsive.<lambda>": "the no-op `start` of a non-responsive node",
    "adversary.stale_vote": "a behavior no bundled scenario names; tests/test_adversary.py uses it",
    "adversary.stale_vote.stale_send": "the send of a `stale_vote` node",
    "hotstuff.BlockTree.<lambda>": "the default clock of a tree built outside a node, in tests",
    "hotstuff.ConsensusEngine.__init__.<lambda>": "the default clock and evidence handler, which "
    "every node replaces; only engines built in tests keep them",
    "merkle.ExecutionState.registers": "read by tests and perfbench/ (ROADMAP items 13 and 15)",
    "nodes.CollectorNode._on_evidence": "no bundled cluster leader equivocates; "
    "test_cluster_equivocator_slashed (tests/test_adversary.py) has one do so",
    "nodes.ConsensusNode._on_collection_response": "the one bundled missing-collection run "
    "withholds the texts; test_answered_mcc_dismissed answers them",
    "nodes.Node.handle": "every role class repeats it, for per-role profiles (ROADMAP item 19)",
    "nodes._ignore": "the handler of a message type the receiver has none for; no bundled run "
    "sends one (tests/test_message_mix.py)",
    "sim.EventLog.digest": "read by tests and perfbench/",
    "sim.EventLog.records": "read by tests and perfbench/",
    "vm._apply_ops.current": "reads a register; the bundled workloads only set registers "
    "(ROADMAP item 15)",
    "vm.account_key": "balance transfers, which no bundled workload submits (ROADMAP item 15)",
    "vm.decode_balance": "balance transfers, which no bundled workload submits (ROADMAP item 15)",
    "vm.encode_balance": "balance transfers, which no bundled workload submits (ROADMAP item 15)",
}


def definitions(src: Path = SRC) -> dict[tuple[str, int], str]:
    """Every function and lambda defined under `src`, keyed by (file path,
    first line of its code object: the first decorator's, if any), each as
    `module.qualname`. Lambdas read `<lambda>`; two on one line share a
    key, and count as reached when either is."""
    found = {}
    for path in sorted(src.glob("*.py")):

        def walk(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                    name = getattr(child, "name", "<lambda>")
                    first = min([child.lineno] + [d.lineno for d in getattr(child, "decorator_list", ())])
                    found[(str(path), first)] = f"{prefix}.{name}"
                    walk(child, f"{prefix}.{name}")
                elif isinstance(child, ast.ClassDef):
                    walk(child, f"{prefix}.{child.name}")
                else:
                    walk(child, prefix)

        walk(ast.parse(path.read_text()), path.stem)
    return found


# the CLI paths the report runs beside each bundled scenario (`cli.BUNDLED`);
# `main` gives each `run` its own output directory
CLI_PATHS = [
    ["run", "--scenario", "happy-path", "--override", "run.max_sim_time=2000", "--format", "jsonl"],
    ["run", "--scenario", "no-such-scenario"],
    ["analyze-clusters", "--total", "100", "--byzantine", "10", "--sizes", "10,20"],
    ["dkg-demo"],
]


def main() -> int:
    started = set()

    def profile(frame, event, arg):
        if event == "call":
            started.add(frame.f_code)

    sys.setprofile(profile)
    try:
        from flowpipe import cli

        runs = [["run", "--scenario", name] for name in cli.BUNDLED] + CLI_PATHS
        with tempfile.TemporaryDirectory() as out:
            for i, argv in enumerate(runs):
                if argv[0] == "run":
                    argv = argv + ["--out", f"{out}/{i}"]
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                    cli.main(argv)
    finally:
        sys.setprofile(None)
    src = Path(cli.__file__).resolve().parent
    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in started}
    unreached = sorted((key, name) for key, name in definitions(src).items() if key not in reached)
    print("\n".join(report(unreached)))
    return 0


def report(unreached: list) -> list[str]:
    """The report's lines for `unreached`, sorted ((path, first line),
    name) pairs: each outside `ALLOWLIST`, then each allowlist entry that
    names none of them, then the counts."""
    listed = [(key, name) for key, name in unreached if name not in ALLOWLIST]
    names = {name for _, name in unreached}
    stale = sorted(name for name in ALLOWLIST if name not in names)
    lines = [f"{Path(path).name}:{line} {name}" for (path, line), name in listed]
    lines += [f"stale allowlist entry: {name}" for name in stale]
    allowed = len(unreached) - len(listed)
    lines.append(
        f"unreached functions: {len(listed)} outside the allowlist, {allowed} in it; "
        f"stale allowlist entries: {len(stale)}"
    )
    return lines


if __name__ == "__main__":
    sys.exit(main())
