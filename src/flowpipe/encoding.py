"""Canonical byte encodings shared by every hashed/committed structure.

Commitment equality across nodes (and implementations) requires bit-exact
serialization, so everything funnels through canonical JSON: sorted keys,
no whitespace, digests as lowercase hex.
"""

from __future__ import annotations

import json
from typing import Any


def canonical_json(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def hexify(b: bytes) -> str:
    return b.hex()

