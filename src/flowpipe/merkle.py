"""Authenticated key-value execution state: a sorted-key binary Merkle tree
with inclusion proofs. Values are immutable snapshots; mutation returns a
new state. A snapshot hashes its tree once, on first use, and serves its
root and every proof from those cached levels."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .crypto import hash as fhash

EMPTY_ROOT = fhash("empty", b"")


def _leaf_hash(key: bytes, value: bytes) -> bytes:
    return fhash("leaf", len(key).to_bytes(8, "big") + key + value)


def _node_hash(left: bytes, right: bytes) -> bytes:
    return fhash("node", left + right)


@dataclass(frozen=True)
class ValueProof:
    """Merkle inclusion path: (is_right_sibling, sibling_digest) pairs from
    leaf to root."""

    path: tuple[tuple[bool, bytes], ...]


class ExecutionState:
    """Immutable register map with a Merkle root commitment."""

    def __init__(self, registers: Optional[dict[bytes, bytes]] = None):
        self._registers = dict(registers or {})
        self._levels: Optional[list[list[bytes]]] = None  # leaves first, root last
        self._index: dict[bytes, int] = {}  # key -> leaf position

    @property
    def registers(self) -> dict[bytes, bytes]:
        return dict(self._registers)

    def get(self, key: bytes) -> Optional[bytes]:
        return self._registers.get(key)

    def with_updates(self, updates: dict[bytes, bytes]) -> "ExecutionState":
        merged = dict(self._registers)
        merged.update(updates)
        return ExecutionState(merged)

    def keys(self) -> list[bytes]:
        return sorted(self._registers)

    def _tree(self) -> list[list[bytes]]:
        if self._levels is None:
            keys = self.keys()
            self._index = {k: i for i, k in enumerate(keys)}
            level = [_leaf_hash(k, self._registers[k]) for k in keys]
            levels = [level]
            while len(level) > 1:
                nxt = [_node_hash(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
                if len(level) % 2:
                    nxt.append(level[-1])  # odd node promoted unchanged
                levels.append(nxt)
                level = nxt
            self._levels = levels
        return self._levels

    def root(self) -> bytes:
        levels = self._tree()
        return levels[-1][0] if levels[0] else EMPTY_ROOT

    def prove(self, key: bytes) -> ValueProof:
        levels = self._tree()
        idx = self._index.get(key)
        if idx is None:
            raise KeyError(f"key not in state: {key!r}")
        path: list[tuple[bool, bytes]] = []
        for level in levels[:-1]:
            pair = idx ^ 1
            if pair < len(level):  # else the odd node was promoted without a sibling
                path.append((pair > idx, level[pair]))
            idx //= 2
        return ValueProof(path=tuple(path))


def state_proof_gen(state: ExecutionState) -> bytes:
    """Commitment to the full state."""
    return state.root()


def value_proof_gen(state: ExecutionState, key: bytes) -> ValueProof:
    return state.prove(key)


def value_proof_vrfy(
    key: bytes,
    value: bytes,
    proof: ValueProof,
    commitment: bytes,
    memo: Optional[dict[tuple[bytes, bytes], bytes]] = None,
) -> bool:
    """Recompute the path from the (key, value) leaf; never raises. Calls may
    share a memo ((left, right) -> node digest), so a node common to several
    paths is hashed once; the memo caches a pure function, so sharing it
    cannot change a verdict."""
    memo = {} if memo is None else memo
    try:
        acc = _leaf_hash(key, value)
        for right, sibling in proof.path:
            pair = (acc, sibling) if right else (sibling, acc)
            acc = memo.get(pair)
            if acc is None:
                acc = memo[pair] = _node_hash(*pair)
        return acc == commitment
    except Exception:
        return False
