"""Canonical byte encodings shared by every hashed/committed structure.

Commitment equality across nodes (and implementations) requires bit-exact
serialization, so everything funnels through canonical JSON: sorted keys,
no whitespace, digests as lowercase hex.
"""

from __future__ import annotations

import functools
import json
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any


CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# `json.dumps` and `JSONEncoder.encode` build a new C encoder on every call;
# this one, with `CANONICAL_ENCODER`'s settings, is built once. With no
# markers it skips the cycle check, so a cyclic payload raises RecursionError.
# CPython always ships the C encoder; without it this module fails to import.
_encode = c_make_encoder(
    None,  # markers
    CANONICAL_ENCODER.default,
    encode_basestring_ascii,  # ensure_ascii
    CANONICAL_ENCODER.indent,
    CANONICAL_ENCODER.key_separator,
    CANONICAL_ENCODER.item_separator,
    CANONICAL_ENCODER.sort_keys,
    CANONICAL_ENCODER.skipkeys,
    CANONICAL_ENCODER.allow_nan,
)


def canonical_text(obj: Any) -> str:
    """The text `CANONICAL_ENCODER.encode(obj)` returns."""
    return "".join(_encode(obj, 0))


def canonical_json(obj: Any) -> bytes:
    return "".join(_encode(obj, 0)).encode()


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
