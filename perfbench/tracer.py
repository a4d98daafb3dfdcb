"""Alias-safe span tracer for the flowpipe layers.

The tracer wraps functions and methods of the ``flowpipe`` package from
outside, without touching its source. A module function is often reachable
under several names (``crypto.hash`` is also ``merkle.fhash``, ``vm.fhash``
and ``execution.fhash``; ``apply_updates`` is imported into ``blocks``; a
function can be captured as a parameter default, as ``block_execution``
captures ``vm.execute``). Wrapping only the defining module would miss those
calls, so ``install`` rebinds every reference that *is* the original object:
module globals and function defaults across all loaded ``flowpipe`` modules.
Methods are wrapped on the class that defines them. ``uninstall`` restores
every rebinding, and ``leftovers`` proves that no wrapper is still reachable.

Each wrapped call is a span. Spans live on one stack: a span's self time is
its duration minus the time covered by the spans it directly encloses. A
name's ``total_s`` counts only its outermost span, so recursion is not
counted twice, and ``module_total`` gives the time spent anywhere inside a
module's wrapped functions, counted once however they nest.
"""

from __future__ import annotations

import importlib
import sys
import types
from time import perf_counter
from typing import Callable, Optional

# (module, function or Class.method, span name). The first part of the span
# name is the layer the span is attributed to.
TARGETS: list[tuple[str, str, str]] = [
    ("flowpipe.sim", "Simulator.run", "sim.loop"),
    ("flowpipe.sim", "Simulator.send", "sim.send"),
    ("flowpipe.sim", "Simulator.event", "sim.event"),
    ("flowpipe.nodes", "CollectorNode.handle", "nodes.collector.handle"),
    ("flowpipe.nodes", "ConsensusNode.handle", "nodes.consensus.handle"),
    ("flowpipe.nodes", "ExecutionNode.handle", "nodes.execution.handle"),
    ("flowpipe.nodes", "VerificationNode.handle", "nodes.verification.handle"),
    ("flowpipe.hotstuff", "ConsensusEngine.on_proposal", "hotstuff.on_proposal"),
    ("flowpipe.hotstuff", "ConsensusEngine.on_vote", "hotstuff.on_vote"),
    ("flowpipe.hotstuff", "ConsensusEngine.on_local_timeout", "hotstuff.on_local_timeout"),
    ("flowpipe.hotstuff", "leader_for_round", "hotstuff.leader_for_round"),
    ("flowpipe.hotstuff", "qc_valid", "hotstuff.qc_valid"),
    ("flowpipe.blocks", "evaluate_proposal", "blocks.evaluate_proposal"),
    ("flowpipe.blocks", "propose_proto_block", "blocks.propose_proto_block"),
    ("flowpipe.blocks", "form_seal", "blocks.form_seal"),
    ("flowpipe.blocks", "validate_seal", "blocks.validate_seal"),
    ("flowpipe.state", "apply_updates", "state.apply_updates"),
    ("flowpipe.state", "commit_state", "state.commit_state"),
    ("flowpipe.collection", "validate_transaction", "collection.validate_transaction"),
    ("flowpipe.collection", "guarantee_authentic", "collection.guarantee_authentic"),
    ("flowpipe.execution", "block_execution", "execution.block_execution"),
    ("flowpipe.vm", "execute", "vm.execute"),
    ("flowpipe.merkle", "ExecutionState.root", "merkle.root"),
    ("flowpipe.merkle", "ExecutionState.prove", "merkle.prove"),
    ("flowpipe.merkle", "ExecutionState.with_updates", "merkle.with_updates"),
    ("flowpipe.merkle", "value_proof_vrfy", "merkle.value_proof_vrfy"),
    ("flowpipe.verification", "verify_chunk", "verification.verify_chunk"),
    ("flowpipe.verification", "assign_chunks", "verification.assign_chunks"),
    ("flowpipe.crypto", "hash", "crypto.hash"),
    ("flowpipe.crypto", "SeededStream.next_below", "crypto.next_below"),
    ("flowpipe.crypto", "staking_verify", "crypto.staking_verify"),
    ("flowpipe.crypto", "threshold_sign", "crypto.threshold_sign"),
    ("flowpipe.crypto", "threshold_verify", "crypto.threshold_verify"),
    ("flowpipe.encoding", "canonical_json", "encoding.canonical_json"),
    ("flowpipe.scenario", "build_world", "scenario.build_world"),
    ("flowpipe.scenario", "evaluate_properties", "scenario.evaluate_properties"),
]

# observe(args, kwargs, result, elapsed_s), called after a span closes
Observer = Callable[[tuple, dict, object, float], None]


def original_function(module_name: str, qualname: str):
    """The plain function object a target names (unwrapping staticmethod)."""
    owner, attr = _owner(module_name, qualname)
    raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return raw.__func__ if isinstance(raw, staticmethod) else raw


def _owner(module_name: str, qualname: str):
    module = importlib.import_module(module_name)
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        return getattr(module, cls_name), attr
    return module, qualname


def _flowpipe_modules() -> list[types.ModuleType]:
    return [m for n, m in sorted(sys.modules.items()) if n == "flowpipe" or n.startswith("flowpipe.")]


def _flowpipe_functions() -> list[types.FunctionType]:
    """Every plain function defined at module or class level in flowpipe."""
    out = []
    for module in _flowpipe_modules():
        for value in vars(module).values():
            if isinstance(value, types.FunctionType):
                out.append(value)
            elif isinstance(value, type) and value.__module__ == module.__name__:
                for member in vars(value).values():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    if isinstance(member, types.FunctionType):
                        out.append(member)
    return out


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, total_s, depth]
        self.modules: dict[str, list] = {}  # module -> [total_s, depth]
        self._stack: list[list[float]] = []  # open spans: [start, covered_by_children]
        self._undo: list[tuple[object, str, object]] = []  # (owner, attribute, original)
        self._wrappers: dict[int, object] = {}  # id -> span, kept alive so ids stay unique

    # -- spans ------------------------------------------------------------

    def wrap(self, name: str, fn, observe: Optional[Observer] = None):
        rec = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        mod = self.modules.setdefault(name.split(".")[0], [0.0, 0])
        stack = self._stack

        def span(*args, **kwargs):
            rec[3] += 1
            mod[1] += 1
            frame = [perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec[0] += 1
                rec[1] += elapsed - frame[1]
                rec[3] -= 1
                if not rec[3]:
                    rec[2] += elapsed
                mod[1] -= 1
                if not mod[1]:
                    mod[0] += elapsed
            if observe is not None:
                observe(args, kwargs, result, elapsed)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", name)
        self._wrappers[id(span)] = span
        return span

    # -- installation -----------------------------------------------------

    def install(self, observers: Optional[dict[str, Observer]] = None) -> None:
        observers = observers or {}
        functions = _flowpipe_functions()  # before wrapping hides any of them
        for module_name, qualname, name in TARGETS:
            owner, attr = _owner(module_name, qualname)
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                wrapped = self.wrap(name, fn, observers.get(name))
                self._rebind(owner, attr, raw, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            else:
                fn = getattr(owner, attr)
                self._rebind_everywhere(fn, self.wrap(name, fn, observers.get(name)), functions)

    def _rebind(self, owner, attr: str, original, replacement) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def _rebind_everywhere(self, fn, wrapped, functions) -> None:
        for module in _flowpipe_modules():
            for key, value in list(vars(module).items()):
                if value is fn:
                    self._rebind(module, key, fn, wrapped)
        for func in functions:
            if func.__defaults__ and any(d is fn for d in func.__defaults__):
                new = tuple(wrapped if d is fn else d for d in func.__defaults__)
                self._rebind(func, "__defaults__", func.__defaults__, new)
            kw = func.__kwdefaults__
            if kw and any(d is fn for d in kw.values()):
                new_kw = {k: (wrapped if d is fn else d) for k, d in kw.items()}
                self._rebind(func, "__kwdefaults__", kw, new_kw)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def leftovers(self) -> list[str]:
        """Places in flowpipe where a wrapper is still reachable."""
        found = []

        def is_wrapper(value) -> bool:
            if isinstance(value, (staticmethod, classmethod)):
                value = value.__func__
            return id(value) in self._wrappers

        for module in _flowpipe_modules():
            for key, value in vars(module).items():
                if is_wrapper(value):
                    found.append(f"{module.__name__}.{key}")
                elif isinstance(value, type):
                    found += [f"{module.__name__}.{key}.{a}" for a, v in vars(value).items() if is_wrapper(v)]
        for func in _flowpipe_functions():
            defaults = list(func.__defaults__ or ()) + list((func.__kwdefaults__ or {}).values())
            if any(is_wrapper(d) for d in defaults):
                found.append(f"{func.__module__}.{func.__qualname__} defaults")
        return found

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s, _) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        for module, (total_s, _) in sorted(self.modules.items()):
            out[f"{module}.total_s"] = total_s
        return out
