"""Protocol state: staked node records, commitments, each group's stake
table and its one quorum count (`Tally`), and the state updates that
slash: how an adjudication is written as one (`slash_update`) and how a
block's updates apply."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional, Sequence

from . import crypto
from .encoding import canonical_json, hexify


class Role(str, enum.Enum):
    COLLECTOR = "collector"
    CONSENSUS = "consensus"
    EXECUTION = "execution"
    VERIFICATION = "verification"


@dataclass(frozen=True)
class NodeIdentity:
    staking_public_key: bytes
    role: Role
    stake: int
    network_address: str

    def __post_init__(self):
        if self.stake < 0:
            raise ValueError("stake must be non-negative")


@dataclass(frozen=True)
class ProtocolState:
    """An immutable snapshot: chain contexts and blocks share one by
    reference, so it carries its commitment from construction on."""

    records: Mapping[bytes, NodeIdentity] = field(default_factory=dict)
    total_slashed: int = 0
    commitment: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "records", MappingProxyType(dict(self.records)))
        object.__setattr__(self, "commitment", commit_state(self))


@dataclass(frozen=True, eq=False)
class StakeTable:
    """One group's stake weights, built once from its identity records: the
    members sorted by staking key, the key set, each key's stake and the
    total. Every weighted rule of the group reads the one table, and every
    quorum of it is counted by a `Tally`; a group with no stake reaches
    none. It compares by identity, so a verdict kept per table
    (`QuorumCertificate.valid_for`) checks its key in O(1)."""

    members: tuple[NodeIdentity, ...]
    keys: frozenset[bytes] = field(init=False)
    stake: Mapping[bytes, int] = field(init=False, repr=False)
    total: int = field(init=False)

    def __post_init__(self):
        members = tuple(sorted(self.members, key=lambda m: m.staking_public_key))
        stake = {m.staking_public_key: m.stake for m in members}
        if len(stake) != len(members):
            raise ValueError("a staking key appears twice in the group")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "keys", frozenset(stake))
        object.__setattr__(self, "stake", MappingProxyType(stake))
        object.__setattr__(self, "total", sum(stake.values()))

    def certifies(
        self, signers: Sequence[bytes], signed: Sequence, verify: Callable[[bytes, Any], bool]
    ) -> bool:
        """The one certificate check, all or nothing: one `signed` item per
        signer, the signers distinct members holding a quorum, and every
        `verify(signer, item)` true. No item is verified unless the signers
        pass the count."""
        tally = Tally(self)
        if len(signers) != len(signed) or not all(map(tally.add, signers, signed)):
            return False
        return tally.quorum and all(map(verify, signers, signed))


class Tally(dict):
    """The effective votes of one group for one proposal: each counted
    member's key maps to what it signed (a signature, an approval). As each
    is counted, `weight` sums their stake and `quorum` says whether it is
    strictly more than 2/3 of the group's: `3·weight > 2·total`, in
    integers; `outweighs_faults` says whether it is strictly more than 1/3.
    Only a member not yet counted is admitted, so a caller checks `admits`
    before it spends a signature check, and counts through `add`."""

    def __init__(self, table: StakeTable):
        super().__init__()
        self.table = table
        self.weight = 0
        self.quorum = False

    def admits(self, key: bytes) -> bool:
        return key in self.table.keys and key not in self

    def add(self, key: bytes, signed) -> bool:
        """Count `key`'s `signed` if `key` is admitted; False if not."""
        if key not in self.table.keys or key in self:  # `admits`, inline on the vote path
            return False
        self[key] = signed
        self.weight += self.table.stake[key]
        self.quorum = 3 * self.weight > 2 * self.table.total
        return True

    @property
    def outweighs_faults(self) -> bool:
        """Strictly more than 1/3 of the group's stake is counted, so at
        least one counted member is honest."""
        return 3 * self.weight > self.table.total

    def certificate(self) -> tuple[tuple[bytes, ...], tuple]:
        """The counted signers in key order, and what each signed."""
        signers = tuple(sorted(self))
        return signers, tuple(self[s] for s in signers)


# ---------------------------------------------------------------------------
# State updates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Adjudication:
    challenge_id: bytes
    outcome: str  # accused_slashed | challenger_slashed | dismissed
    slashed: tuple[bytes, ...]

    @property
    def upheld(self) -> bool:
        """The accused was found at fault."""
        return self.outcome == "accused_slashed"

    def to_dict(self) -> dict:
        return {
            "challenge_id": hexify(self.challenge_id),
            "outcome": self.outcome,
            "slashed": [hexify(s) for s in self.slashed],
        }


@dataclass(frozen=True)
class Slash:
    """A record change that cuts the stake of node `key` by `amount`."""

    key: bytes
    amount: int

    def to_dict(self) -> dict:
        return {"op": "slash", "key": hexify(self.key), "amount": self.amount}


@dataclass(frozen=True)
class StateUpdate:
    """An ordered list of record changes published inside a block. The only
    change is a `Slash`, which `slash_update` writes together with the
    adjudication behind it."""

    entries: tuple[Slash, ...]
    adjudication: Optional[Adjudication] = None

    def to_dict(self) -> dict:
        meta = self.adjudication.to_dict() if self.adjudication is not None else {}
        return {"entries": [e.to_dict() for e in self.entries], "meta": meta}


class UpdateRejected(ValueError):
    pass


# The canonical serialization also carries the fields of a staking lifecycle
# (DRB keys, joining and discharge epochs, held stake, releases) that the
# simulator does not model. They are fixed at these values, which keeps each
# state commitment, and every block hash built on one, stable.
_RECORD_CONSTANTS = {"drb_pk": None, "active_from": 0, "discharged_from": None}
_EPOCH = {
    "index": 0,
    "start_height": 0,
    "length_blocks": 100_000,
    "staking_deadline_height": 80_000,
}


def commit_state(state: ProtocolState) -> bytes:
    """Digest of the canonical serialization (records sorted by key bytes)."""
    doc = {
        "records": [
            {
                "key": hexify(rec.staking_public_key),
                "role": rec.role.value,
                "stake": rec.stake,
                "addr": rec.network_address,
                **_RECORD_CONSTANTS,
            }
            for _, rec in sorted(state.records.items())
        ],
        "held": [],
        "epoch": _EPOCH,
        "total_slashed": state.total_slashed,
        "total_released": 0,
    }
    return crypto.hash("state", canonical_json(doc))


def slash_update(state: ProtocolState, adj: Adjudication) -> StateUpdate:
    """The update that carries `adj`: one `Slash` per slashed node, each
    taking the node's whole stake in `state`."""
    records = state.records
    slashes = tuple(Slash(k, records[k].stake if k in records else 0) for k in adj.slashed)
    return StateUpdate(entries=slashes, adjudication=adj)


def apply_updates(state: ProtocolState, updates: Sequence[StateUpdate]) -> ProtocolState:
    """The state after the slashes in `updates`. Any entry that is not a
    `Slash` with a `bytes` key and a non-negative `int` amount rejects the
    whole batch. A slash cuts the node's stake, clamped at zero. Updates
    with no entries change nothing, so `state` comes back as itself."""
    if not any(upd.entries for upd in updates):
        return state
    records = dict(state.records)
    total_slashed = state.total_slashed
    for upd in updates:
        for entry in upd.entries:
            ok = type(entry) is Slash and type(entry.key) is bytes and type(entry.amount) is int
            if not ok or entry.amount < 0:
                raise UpdateRejected(f"not a well-formed slash: {entry!r}")
            rec = records.get(entry.key)
            if rec is not None:
                cut = min(rec.stake, entry.amount)
                records[entry.key] = replace(rec, stake=rec.stake - cut)
                total_slashed += cut
    return ProtocolState(records=records, total_slashed=total_slashed)
