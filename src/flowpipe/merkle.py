"""Authenticated key-value execution state: a canonical, compressed sparse
Merkle tree (Dahlberg, Pulls and Peeters, "Efficient Sparse Merkle Trees",
IACR ePrint 2016/683).

A register sits on the 256-bit path H(key). The tree is canonical: its root
depends only on the key -> value map. It is compressed: an empty subtree is
the fixed digest EMPTY_ROOT, and a subtree that holds one register is that
register's leaf, so a path is about log2(n) nodes long. Nodes are immutable
and shared between snapshots, so `with_updates` builds only the paths it
changes. A proof shows a register's value or its absence.

A partial tree (`ExecutionState.from_proofs`) holds only the paths a chunk
data package proves; the rest of the tree is opaque digests. It answers for
the proven registers alone: reading or writing any other register raises
UnprovenRegister, so a register outside the package never reads as absent."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .crypto import hash as fhash

EMPTY_ROOT = fhash("empty", b"")
_DEPTH = 256  # bits in a register path


def _path(key: bytes) -> bytes:
    return fhash("register-path", key)


def _bit(bits: int, depth: int) -> int:
    return (bits >> (_DEPTH - 1 - depth)) & 1


class _Leaf:
    """One register. In a partial tree a leaf that only proves another key
    absent has no key."""

    __slots__ = ("digest", "path", "bits", "key", "value")

    def __init__(self, path: bytes, key: Optional[bytes], value: bytes):
        self.digest = fhash("leaf", path + value)
        self.path = path
        self.bits = int.from_bytes(path, "big")
        self.key = key
        self.value = value


class _Branch:
    """A subtree holding at least two registers; an empty child is None."""

    __slots__ = ("digest", "left", "right")

    def __init__(self, left, right):
        self.digest = fhash("node", _digest(left) + _digest(right))
        self.left = left
        self.right = right


class _Stub:
    """A subtree a partial tree knows only by its digest."""

    __slots__ = ("digest",)

    def __init__(self, digest: bytes):
        self.digest = digest


def _digest(node) -> bytes:
    return EMPTY_ROOT if node is None else node.digest


class UnprovenRegister(LookupError):
    """A partial tree was asked for a register its proofs do not cover."""


@dataclass(frozen=True)
class ValueProof:
    """Sibling digests from the root down to the node where the key's path
    ends. For an absent key that node is empty, or it is the leaf `other`
    (path, value) of the one register whose path shares that prefix."""

    siblings: tuple[bytes, ...]
    other: Optional[tuple[bytes, bytes]] = None


def _put(root, leaf: _Leaf):
    """The tree `root` with `leaf` in its place, sharing every node off the
    leaf's path."""
    bits = leaf.bits
    stack = []  # (branch, went right) from the root down
    node, depth = root, 0
    while type(node) is _Branch:
        right = _bit(bits, depth)
        stack.append((node, right))
        node = node.right if right else node.left
        depth += 1
    if type(node) is _Stub:
        raise UnprovenRegister(leaf.key)
    if node is None or node.path == leaf.path:
        if node is not None and node.value == leaf.value:
            return root
        new = leaf
    else:  # another register holds the place: branch where the paths part
        split = _DEPTH - (node.bits ^ bits).bit_length()
        new = _Branch(node, leaf) if _bit(bits, split) else _Branch(leaf, node)
        for d in range(split - 1, depth - 1, -1):
            new = _Branch(None, new) if _bit(bits, d) else _Branch(new, None)
    for branch, right in reversed(stack):
        new = _Branch(branch.left, new) if right else _Branch(new, branch.right)
    return new


def _assemble(entries: list, depth: int):
    """The partial subtree at `depth` that `entries` (path bits, siblings,
    end node) reach; ValueError when two of them disagree on its shape."""
    ends = [e for e in entries if len(e[1]) == depth]
    if ends:
        end = ends[0][2]
        if len(ends) < len(entries) or any(_digest(e[2]) != _digest(end) for e in ends):
            raise ValueError("a path ends where another goes on, or two ends differ")
        return end
    sides = ([], [])
    for e in entries:
        sides[_bit(e[0], depth)].append(e)
    left, right = (
        _assemble(sides[s], depth + 1) if sides[s] else _Stub(sides[1 - s][0][1][depth])
        for s in (0, 1)
    )
    return _Branch(left, right)


class ExecutionState:
    """Immutable register map committed to by its sparse Merkle root."""

    def __init__(self, registers: Optional[Mapping[bytes, bytes]] = None):
        root = None
        for key, value in (registers or {}).items():
            root = _put(root, _Leaf(_path(key), key, value))
        self._root = root
        self._covered: Optional[frozenset] = None  # proven keys of a partial tree

    @classmethod
    def _of(cls, root, covered: Optional[frozenset]) -> "ExecutionState":
        state = cls.__new__(cls)
        state._root = root
        state._covered = covered
        return state

    @classmethod
    def from_proofs(
        cls,
        commitment: bytes,
        registers: Mapping[bytes, Optional[bytes]],
        proofs: Mapping[bytes, ValueProof],
    ) -> Optional["ExecutionState"]:
        """The partial tree of the proven registers (None: proven absent).
        Every proof must already pass `value_proof_vrfy` against
        `commitment`; None when the proofs disagree on the tree's shape."""
        entries = []
        for key, value in registers.items():
            path, proof = _path(key), proofs[key]
            if value is not None:
                end = _Leaf(path, key, value)
            elif proof.other is not None:
                end = _Leaf(proof.other[0], None, proof.other[1])
            else:
                end = None
            entries.append((int.from_bytes(path, "big"), proof.siblings, end))
        try:
            root = _assemble(entries, 0) if entries else _Stub(commitment)
        except ValueError:
            return None
        if _digest(root) != commitment:
            return None
        return cls._of(root, frozenset(registers))

    def _check_covered(self, key: bytes) -> None:
        if self._covered is not None and key not in self._covered:
            raise UnprovenRegister(key)

    @property
    def registers(self) -> dict[bytes, bytes]:
        out, todo = {}, [self._root]
        while todo:
            node = todo.pop()
            if type(node) is _Branch:
                todo += (node.left, node.right)
            elif type(node) is _Leaf and node.key is not None:
                out[node.key] = node.value
        return out

    def get(self, key: bytes) -> Optional[bytes]:
        self._check_covered(key)
        path = _path(key)
        bits = int.from_bytes(path, "big")
        node, depth = self._root, 0
        while type(node) is _Branch:
            node = node.right if _bit(bits, depth) else node.left
            depth += 1
        if type(node) is _Stub:
            raise UnprovenRegister(key)
        return node.value if node is not None and node.path == path else None

    def with_updates(self, updates: Mapping[bytes, bytes]) -> "ExecutionState":
        root = self._root
        for key, value in updates.items():
            self._check_covered(key)
            root = _put(root, _Leaf(_path(key), key, value))
        return ExecutionState._of(root, self._covered)

    def root(self) -> bytes:
        return _digest(self._root)

    def prove(self, key: bytes) -> ValueProof:
        """Membership proof of the key's value, or non-membership proof."""
        path = _path(key)
        bits = int.from_bytes(path, "big")
        siblings = []
        node, depth = self._root, 0
        while type(node) is _Branch:
            if _bit(bits, depth):
                siblings.append(_digest(node.left))
                node = node.right
            else:
                siblings.append(_digest(node.right))
                node = node.left
            depth += 1
        if type(node) is _Stub:
            raise UnprovenRegister(key)
        other = None
        if node is not None and node.path != path:
            other = (node.path, node.value)
        return ValueProof(siblings=tuple(siblings), other=other)


def state_proof_gen(state: ExecutionState) -> bytes:
    """Commitment to the full state."""
    return state.root()


def value_proof_vrfy(
    key: bytes, value: Optional[bytes], proof: ValueProof, commitment: bytes
) -> bool:
    """Whether `proof` shows `key` holding `value` (None: absent) under
    `commitment`; never raises."""
    try:
        path = _path(key)
        bits = int.from_bytes(path, "big")
        siblings = proof.siblings
        depth = len(siblings)
        if depth > _DEPTH:
            return False
        if value is not None:
            if proof.other is not None:
                return False
            acc = fhash("leaf", path + value)
        elif proof.other is None:
            acc = EMPTY_ROOT
        else:
            other_path, other_value = proof.other
            # the other register must sit where the key's path ends
            shared = _DEPTH - (int.from_bytes(other_path, "big") ^ bits).bit_length()
            if len(other_path) != 32 or other_path == path or shared < depth:
                return False
            acc = fhash("leaf", other_path + other_value)
        for d in range(depth - 1, -1, -1):
            sibling = siblings[d]
            acc = fhash("node", sibling + acc) if _bit(bits, d) else fhash("node", acc + sibling)
        return acc == commitment
    except Exception:
        return False
