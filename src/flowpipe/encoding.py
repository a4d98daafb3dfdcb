"""Canonical byte encodings shared by every hashed/committed structure.

Commitment equality across nodes (and implementations) requires bit-exact
serialization, so everything funnels through canonical JSON: sorted keys,
no whitespace, digests as lowercase hex.
"""

from __future__ import annotations

import functools
import json
from typing import Any


# `json.dumps` with these arguments would build a new encoder on every call
CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonical_json(obj: Any) -> bytes:
    return CANONICAL_ENCODER.encode(obj).encode()


def hexify(b: bytes) -> str:
    return b.hex()


def once(method):
    """Compute a no-argument method of a frozen dataclass once per instance.

    The value is kept in the instance's `__dict__`, outside the dataclass
    fields, so equality is unaffected; `dataclasses.replace` builds a new
    instance, which computes its own value."""
    memo = f"_{method.__name__}_memo"

    @functools.wraps(method)
    def memoized(self):
        try:
            return self.__dict__[memo]
        except KeyError:
            value = self.__dict__[memo] = method(self)
            return value

    return memoized


def once_for(obj, key, fn, *args):
    """`fn(*args)`, a verdict about the frozen `obj` that also reads `key`
    (everything the verdict reads besides `obj`), computed once per key.

    Like `once`, the value is kept in the instance's `__dict__`, so it is
    freed with the instance and a `dataclasses.replace` twin computes its
    own. The instance holds one slot per `fn`, the last (key, value): a call
    under another key computes afresh and takes the slot over. `key` must be
    immutable, so that an equal key means an equal input."""
    memo = f"_{fn.__name__}_memo"
    slot = obj.__dict__.get(memo)
    if slot is not None and slot[0] == key:
        return slot[1]
    value = fn(*args)
    obj.__dict__[memo] = (key, value)
    return value
