"""Deterministic toy VM: scripted register/account operations with declared
computation costs. Stands in for a real contract language; the only
contract is determinism and cost accounting."""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .crypto import hash as fhash
from .encoding import canonical_json, hexify

MIN_COST = 1

ACCOUNT_PREFIX = b"acct/"
REGISTER_PREFIX = b"reg/"


def account_key(account: str) -> bytes:
    return ACCOUNT_PREFIX + account.encode()


def register_key(name: str) -> bytes:
    return REGISTER_PREFIX + name.encode()


def encode_balance(amount: int) -> bytes:
    return amount.to_bytes(8, "big")


def decode_balance(value: bytes) -> int:
    return int.from_bytes(value, "big")


def _u64(value) -> bool:
    return type(value) is int and 0 <= value < 1 << 64


def _text(value) -> bool:
    return isinstance(value, str)


def _hex(value) -> bool:
    try:
        bytes.fromhex(value)
    except (TypeError, ValueError):
        return False
    return True


_COST = {"cost": (False, _u64)}
# operation kind -> field -> (required, check of its value)
_OPERATIONS = {
    "create_account": {"account": (True, _text), "balance": (False, _u64), **_COST},
    "transfer": {"from": (True, _text), "to": (True, _text), "amount": (True, _u64), **_COST},
    "set_register": {"register": (True, _text), "value": (True, _hex), **_COST},
}


@dataclass(frozen=True)
class ToyTransaction:
    """Ordered operations, each with a declared computation cost."""

    operations: tuple[dict, ...]

    def total_cost(self) -> int:
        return max(MIN_COST, sum(op.get("cost", MIN_COST) for op in self.operations))

    def to_script(self) -> bytes:
        return canonical_json({"ops": list(self.operations)})

    @classmethod
    def parse(cls, script: bytes) -> "ToyTransaction":
        try:
            doc = json.loads(script.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise MalformedScript(str(exc)) from exc
        ops = doc.get("ops") if isinstance(doc, dict) else None
        if not isinstance(ops, list):
            raise MalformedScript("script must carry an operation list")
        for op in ops:
            kind = op.get("kind") if isinstance(op, dict) else None
            fields = _OPERATIONS.get(kind) if isinstance(kind, str) else None
            if fields is None:
                raise MalformedScript(f"unknown operation: {op!r}")
            for name, (required, valid) in fields.items():
                if name in op:
                    if not valid(op[name]):
                        raise MalformedScript(f"ill-typed {name}: {op!r}")
                elif required:
                    raise MalformedScript(f"missing {name}: {op!r}")
        return cls(operations=tuple(ops))


class MalformedScript(ValueError):
    pass


@dataclass(frozen=True)
class SignedTransaction:
    script: bytes
    payer_signature: bytes
    script_signatures: tuple[bytes, ...]
    reference_block_hash: bytes

    def to_dict(self) -> dict:
        return {
            "script": hexify(self.script),
            "payer_signature": hexify(self.payer_signature),
            "script_signatures": [hexify(s) for s in self.script_signatures],
            "reference_block_hash": hexify(self.reference_block_hash),
        }

    def tx_hash(self) -> bytes:
        return fhash("tx", canonical_json(self.to_dict()))


@dataclass
class ExecOutcome:
    state: "ExecutionState"
    cost: int
    trace: bytes  # per-transaction execution trace commitment
    status: str  # ok | failed | malformed
    detail: Optional[str] = None
    touched: frozenset = frozenset()  # registers read (present or absent) or written


def _apply_ops(state, ops, touched: set) -> dict[bytes, bytes]:
    """Compute register updates for a script `ToyTransaction.parse`
    accepted; raises ValueError on rule violations. Every register read
    from `state` is added to `touched`."""
    updates: dict[bytes, bytes] = {}

    def current(key: bytes) -> Optional[bytes]:
        if key in updates:
            return updates[key]
        touched.add(key)
        return state.get(key)

    for op in ops:
        kind = op["kind"]
        if kind == "create_account":
            key = account_key(op["account"])
            if current(key) is not None:
                raise ValueError(f"account exists: {op['account']}")
            updates[key] = encode_balance(op.get("balance", 0))
        elif kind == "transfer":
            src = account_key(op["from"])
            dst = account_key(op["to"])
            src_val, dst_val = current(src), current(dst)
            if src_val is None or dst_val is None:
                raise ValueError("transfer endpoints must exist")
            amount = op["amount"]
            if decode_balance(src_val) < amount:
                raise ValueError("insufficient balance")
            updates[src] = encode_balance(decode_balance(src_val) - amount)
            # read after the debit, so a transfer to the sender nets to zero
            dst_balance = decode_balance(current(dst)) + amount
            if not _u64(dst_balance):
                raise ValueError("balance overflow")
            updates[dst] = encode_balance(dst_balance)
        elif kind == "set_register":
            updates[register_key(op["register"])] = bytes.fromhex(op["value"])
    return updates


def execute(state, tx: SignedTransaction) -> ExecOutcome:
    """Apply a transaction; failed or malformed scripts consume their cost
    but leave the registers unchanged. The trace commitment binds the start
    root, the transaction hash, and the end root. The outcome names the
    registers the transaction touched: a failed one touched what it read
    before failing, a malformed one nothing."""
    start_root = state.root()
    try:
        parsed = ToyTransaction.parse(tx.script)
    except MalformedScript as exc:
        trace = fhash("trace", start_root + tx.tx_hash() + state.root())
        return ExecOutcome(state=state, cost=MIN_COST, trace=trace, status="malformed", detail=str(exc))

    cost = parsed.total_cost()
    touched: set[bytes] = set()
    try:
        updates = _apply_ops(state, parsed.operations, touched)
    except ValueError as exc:
        trace = fhash("trace", start_root + tx.tx_hash() + state.root())
        return ExecOutcome(
            state=state, cost=cost, trace=trace, status="failed", detail=str(exc),
            touched=frozenset(touched),
        )

    new_state = state.with_updates(updates)
    trace = fhash("trace", start_root + tx.tx_hash() + new_state.root())
    touched.update(updates)
    return ExecOutcome(state=new_state, cost=cost, trace=trace, status="ok", touched=frozenset(touched))
