"""`scripts/reach.py` lists the functions under src/flowpipe that no
bundled run calls, less an allowlist that gives a reason per entry. Every
entry must still name a function or lambda defined there, so one whose
definition went does not stay behind and excuse a later one of that name.
The report itself runs in CI, which fails on a nonzero exit; it takes
seconds, so no tier-1 test runs the bundled scenarios through it."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "reach.py"


def load_script():
    spec = importlib.util.spec_from_file_location("reach", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_allowlist_entry_names_a_function():
    reach = load_script()
    defined = set(reach.definitions().values())
    assert {"nodes.Node.handle", "hotstuff.ConsensusEngine.__init__.<lambda>"} <= defined
    stale = sorted(set(reach.ALLOWLIST) - defined)
    assert not stale, f"allowlist entries naming no function under src/flowpipe: {stale}"
    assert all(reason.strip() for reason in reach.ALLOWLIST.values())


def test_definitions_keyed_by_first_code_line():
    """A decorated function is keyed by its first decorator's line, the
    first line of its code object."""
    reach = load_script()
    from flowpipe.blocks import ProtoBlock

    code = ProtoBlock.hash.__wrapped__.__code__
    key = (str(Path(code.co_filename).resolve()), code.co_firstlineno)
    assert reach.definitions()[key] == "blocks.ProtoBlock.hash"


def test_report_lists_stale_allowlist_entries():
    """An allowlist entry that names no unreached definition is stale: the
    report prints it after the unreached definitions outside the allowlist,
    and counts both, and the allowlisted ones, on its last line."""
    reach = load_script()
    unreached = [
        (("/src/flowpipe/nodes.py", 7), "nodes.Node.handle"),
        (("/src/flowpipe/sim.py", 3), "sim.unlisted"),
    ]
    lines = reach.report(unreached)
    stale = sorted(set(reach.ALLOWLIST) - {"nodes.Node.handle"})
    assert lines[0] == "sim.py:3 sim.unlisted"
    assert lines[1:-1] == [f"stale allowlist entry: {name}" for name in stale]
    assert lines[-1] == (
        "unreached functions: 1 outside the allowlist, 1 in it; "
        f"stale allowlist entries: {len(stale)}"
    )


def test_exit_status_gates_on_unlisted_and_stale(monkeypatch, capsys):
    """`main` exits 0 only when every unreached definition is allowlisted
    and every allowlist entry names one of them; an unreached definition
    outside the allowlist, or a stale entry, makes it exit 1."""
    reach = load_script()
    entries = sorted(reach.ALLOWLIST)
    complete = [(("/src/flowpipe/m.py", i), name) for i, name in enumerate(entries)]
    cases = [
        (complete, 0),
        (complete + [(("/src/flowpipe/sim.py", 999), "sim.unlisted")], 1),
        (complete[1:], 1),
    ]
    for unreached, want in cases:
        monkeypatch.setattr(reach, "unreached", lambda unreached=unreached: unreached)
        assert reach.main() == want, unreached
        assert capsys.readouterr().out.splitlines()[-1].startswith("unreached functions: ")
