"""Static reachability guards: every class and function defined under
src/flowpipe is referenced by name somewhere else in the package, so no
protocol rule survives only as a test-only twin of the one the simulator
runs, and every name a module imports is used in that module. A third
guard keeps Byzantine behaviors out of the honest role classes, a fourth
keeps every stake count inside `state.py`, a fifth keeps the seal rule's
pending-challenge check inside `blocks.py`, a sixth keeps the making of
a slashing challenge and its id inside `challenges.py`, a seventh
checks that every message type `nodes.py` defines is both sent and
handled, and an eighth keeps each rule of the consensus engine in its one
method of `hotstuff.py`. The checks parse the sources and search names;
they run nothing."""

import ast
import pathlib
import re

import flowpipe
from flowpipe.adversary import BEHAVIORS

SRC = pathlib.Path(flowpipe.__file__).resolve().parent

# Names defined in src/flowpipe that may stay unreferenced there.
ALLOWLIST: set[str] = set()

# module.name imports in src/flowpipe that may stay unused there.
IMPORT_ALLOWLIST: set[str] = set()


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


def _imported_names(tree: ast.AST):
    """Every name an import statement in the module binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def unused_imports() -> list[str]:
    """module.name for every imported name its module never reads. A name
    that appears only inside a string, such as a quoted annotation, is
    unused."""
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.update(f"{path.stem}.{name}" for name in _imported_names(tree) if name not in read)
    return sorted(unused - IMPORT_ALLOWLIST)


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, f"imported in src/flowpipe but never used: {unused}"


def _names(tree: ast.AST):
    """Every identifier the module binds or reads, and every str constant."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, (ast.arg, ast.keyword)) and node.arg:
            yield node.arg
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_role_classes_hold_no_adversary():
    """`nodes.py` names no behavior of `adversary.BEHAVIORS` and no
    `behavior`, `acts` or `silent`: a Byzantine behavior corrupts a built
    node from `adversary`, so no branch on one creeps back into the honest
    role classes."""
    banned = set(BEHAVIORS) | {"behavior", "Behavior", "acts", "silent"}
    found = banned & set(_names(ast.parse((SRC / "nodes.py").read_text())))
    assert not found, f"nodes.py names adversary behaviors: {sorted(found)}"


def stake_counts_outside_state() -> list[str]:
    """module:line of each stake lookup by key (`x.stake[k]`) and each call
    of a quorum comparison (`x.passes(...)`, `x.supermajority(...)`) in a
    module other than `state.py`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "state.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            lookup = isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            call = isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            if (
                lookup and node.value.attr == "stake"
                or call and node.func.attr in {"passes", "supermajority"}
            ):
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_stake_counted_only_in_state():
    """Every quorum in the protocol (a consensus QC, a collection guarantee,
    a seal's approvals) is counted by `state.Tally`, so no other module sums
    stakes or compares a weight with the total itself. The leader draw's
    walk over `m.stake` and `table.total` reads no stake by key and stays
    allowed."""
    found = stake_counts_outside_state()
    assert not found, f"stake counted outside state.py: {found}"


def calls_outside(home: str, names: set[str]) -> list[str]:
    """module:line of each call of a function, class or method named in
    `names` in a module other than `home`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == home:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name in names:
                found.append(f"{path.stem}:{node.lineno}")
    return found


def test_pending_challenge_read_only_in_blocks():
    """Only condition 8 (`blocks.validate_seal`) asks whether a challenge
    blocks a result's seal, so a leader picks its seals by condition 8
    instead of keeping its own copy of the rule."""
    found = calls_outside("blocks.py", {"result_pending_challenge"})
    assert not found, f"result_pending_challenge called outside blocks.py: {found}"


def test_challenges_built_only_in_challenges():
    """Only `challenges.py` constructs a `SlashingChallenge` or computes a
    challenge id, so every kind of challenge is made by its one constructor
    there and its id covers the same fields wherever it is checked."""
    found = calls_outside("challenges.py", {"SlashingChallenge", "challenge_id"})
    assert not found, f"challenge built or its id computed outside challenges.py: {found}"


def _message_types(tree: ast.AST) -> set[str]:
    """The classes a module defines with `@dataclass(frozen=True)`, but the
    shared `Directory`: in `nodes.py`, its message types."""
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and node.name != "Directory"
        and any(
            isinstance(d, ast.Call)
            and any(k.arg == "frozen" for k in d.keywords)
            for d in node.decorator_list
        )
    }


def _called_name(call: ast.Call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def unsent_or_unhandled_messages() -> list[str]:
    """Each message type of `nodes.py` that no function under src/flowpipe
    both builds and sends (calls `send` or `send_all`), or that no
    `handlers.update({...})` table in `nodes.py` has as a key."""
    messages = _message_types(ast.parse((SRC / "nodes.py").read_text()))
    sent, handled = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [n for n in ast.walk(func) if isinstance(n, ast.Call)]
            if any(_called_name(c) in {"send", "send_all"} for c in calls):
                sent.update(_called_name(c) for c in calls)
    for call in ast.walk(ast.parse((SRC / "nodes.py").read_text())):
        if (
            isinstance(call, ast.Call)
            and _called_name(call) == "update"
            and isinstance(call.func.value, ast.Attribute)
            and call.func.value.attr == "handlers"
            and call.args
            and isinstance(call.args[0], ast.Dict)
        ):
            handled.update(k.id for k in call.args[0].keys if isinstance(k, ast.Name))
    return sorted(
        [f"{name}: never sent" for name in messages - sent]
        + [f"{name}: in no handler table" for name in messages - handled]
    )


def test_every_message_is_sent_and_handled():
    """Every message type `nodes.py` defines is built in a function that
    sends, and is a key of some role's handler table, so a message whose
    sender or whose handler went does not stay behind as dead protocol."""
    messages = _message_types(ast.parse((SRC / "nodes.py").read_text()))
    assert {"Finalized", "ChallengeMsg", "CollectionResponse"} <= messages
    found = unsent_or_unhandled_messages()
    assert not found, f"message types of nodes.py not sent or not handled: {found}"


# a write or call in hotstuff.py that applies an engine rule -> the one
# method allowed to make it outside `__init__`
ENGINE_RULES = {
    "last_voted_round": "_try_vote",  # the voting rule
    "high_qc": "_observe_qc",  # the QC intake
    "timeout": "_observe_qc",  # the pacemaker's reset, by the QC intake
    "make_payload": "_propose",  # the leader guard
}


def engine_rule_sites() -> list[tuple[str, str, int]]:
    """(rule, function, line) of each assignment to an attribute named in
    `ENGINE_RULES` and each call of `make_payload` in a function of
    `hotstuff.py` other than `__init__`. The pacemaker's doubling
    (`timeout *= 2`) resets nothing, so an augmented assignment to
    `timeout` is not a site."""
    sites = []
    for func in ast.walk(ast.parse((SRC / "hotstuff.py").read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) or func.name == "__init__":
            continue
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                names = [_called_name(node)]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    t.attr
                    for target in targets
                    for t in ast.walk(target)
                    if isinstance(t, ast.Attribute)
                    and not (isinstance(node, ast.AugAssign) and t.attr == "timeout")
                ]
            else:
                continue
            sites.extend((name, func.name, node.lineno) for name in names if name in ENGINE_RULES)
    return sites


def test_engine_states_each_rule_once():
    """Only `_try_vote` records a vote (`last_voted_round`), only
    `_observe_qc` raises the high QC and resets the timeout, and only
    `_propose` asks the host for a payload, so a second copy of the voting
    rule, the QC intake or the proposing path cannot come back beside the
    one the tests exercise. Each rule is still applied in its method."""
    sites = engine_rule_sites()
    found = [f"{name} in {func}:{line}" for name, func, line in sites if ENGINE_RULES[name] != func]
    assert not found, f"an engine rule applied outside its one method: {found}"
    assert {(name, func) for name, func, _ in sites} == set(ENGINE_RULES.items())


def leader_checks_before_propose() -> list[int]:
    """Line of each `if` in `hotstuff.py` whose test asks `is_leader` and
    whose body calls `_propose`."""
    return [
        node.lineno
        for node in ast.walk(ast.parse((SRC / "hotstuff.py").read_text()))
        if isinstance(node, ast.If)
        and any(_called_name(c) == "is_leader" for c in ast.walk(node.test) if isinstance(c, ast.Call))
        and any(
            _called_name(c) == "_propose"
            for stmt in node.body
            for c in ast.walk(stmt)
            if isinstance(c, ast.Call)
        )
    ]


def test_propose_guards_its_own_leadership():
    """`_propose` checks that this node leads the round, so no caller asks
    `is_leader` first: the leader guard has one copy."""
    found = leader_checks_before_propose()
    assert not found, f"hotstuff.py checks is_leader before calling _propose at lines {found}"
