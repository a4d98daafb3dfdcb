"""Static reachability guard: every class and function defined under
src/flowpipe is referenced by name somewhere else in the package, so no
protocol rule survives only as a test-only twin of the one the simulator
runs. The check parses the sources and searches names; it runs nothing."""

import ast
import pathlib
import re

import flowpipe

SRC = pathlib.Path(flowpipe.__file__).resolve().parent

# Names defined in src/flowpipe that may stay unreferenced there.
ALLOWLIST: set[str] = set()


def _definitions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node


def unreferenced_names() -> list[str]:
    sources = {path: path.read_text().splitlines() for path in sorted(SRC.glob("*.py"))}
    missing = set()
    for path, lines in sources.items():
        for node in _definitions(ast.parse("\n".join(lines))):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            own = range(node.lineno - 1, node.end_lineno)
            used = any(
                word.search(line)
                for other, other_lines in sources.items()
                for i, line in enumerate(other_lines)
                if not (other == path and i in own)
            )
            if not used:
                missing.add(name)
    return sorted(missing - ALLOWLIST)


def test_every_definition_is_referenced():
    missing = unreferenced_names()
    assert not missing, f"defined in src/flowpipe but referenced nowhere else: {missing}"
