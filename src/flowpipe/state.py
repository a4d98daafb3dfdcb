"""Protocol state: node identities, epochs, commitments, effective-vote
arithmetic, state-update application, and slashing-challenge adjudication."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from . import crypto
from .encoding import canonical_json, hexify


class Role(str, enum.Enum):
    COLLECTOR = "collector"
    CONSENSUS = "consensus"
    EXECUTION = "execution"
    VERIFICATION = "verification"


class ChallengeKind(str, enum.Enum):
    MISSING_COLLECTION = "missing_collection"
    FAULTY_COMPUTATION = "faulty_computation"
    PROTOCOL_VIOLATION = "protocol_violation"


@dataclass(frozen=True)
class NodeIdentity:
    staking_public_key: bytes
    role: Role
    stake: int
    network_address: str
    drb_public_key: Optional[int] = None
    active_from_epoch: int = 0
    discharged_from_epoch: Optional[int] = None

    def __post_init__(self):
        if self.stake < 0:
            raise ValueError("stake must be non-negative")


@dataclass(frozen=True)
class Epoch:
    index: int
    start_height: int
    length_blocks: int
    staking_deadline_height: int

    def __post_init__(self):
        if not self.staking_deadline_height < self.start_height + self.length_blocks:
            raise ValueError("staking deadline must fall inside the epoch")


@dataclass(frozen=True)
class HeldStake:
    amount: int
    release_epoch: int


@dataclass
class ProtocolState:
    records: dict[bytes, NodeIdentity] = field(default_factory=dict)
    held_stakes: dict[bytes, HeldStake] = field(default_factory=dict)
    epoch: Epoch = Epoch(index=0, start_height=0, length_blocks=100_000, staking_deadline_height=80_000)
    total_slashed: int = 0
    total_released: int = 0
    # set only on the snapshots `apply_updates` returns, which nothing
    # mutates afterwards; a state built or changed by hand has None
    commitment: Optional[bytes] = field(default=None, init=False, repr=False, compare=False)

    def copy(self) -> "ProtocolState":
        return ProtocolState(
            records=dict(self.records),
            held_stakes=dict(self.held_stakes),
            epoch=self.epoch,
            total_slashed=self.total_slashed,
            total_released=self.total_released,
        )

    def members(self, role: Role, epoch_index: Optional[int] = None) -> list[NodeIdentity]:
        """Nodes active in `role` during the given epoch (default: current)."""
        e = self.epoch.index if epoch_index is None else epoch_index
        out = []
        for rec in self.records.values():
            if rec.role != role or rec.active_from_epoch > e:
                continue
            if rec.discharged_from_epoch is not None and rec.discharged_from_epoch <= e:
                continue
            out.append(rec)
        return sorted(out, key=lambda r: r.staking_public_key)


def effective_votes(voters: Iterable[bytes], group: Sequence[NodeIdentity]) -> Fraction:
    """Staked fraction of `group` voting in favor; exact rational arithmetic."""
    by_key = {m.staking_public_key: m.stake for m in group}
    total = sum(by_key.values())
    if total == 0:
        raise ValueError("group has zero total stake")
    voter_set = set(voters)
    if not voter_set <= set(by_key):
        raise ValueError("voters must be a subset of the group")
    return Fraction(sum(by_key[v] for v in voter_set), total)


def meets_supermajority(fraction: Fraction) -> bool:
    """Strictly more than 2/3."""
    return fraction > Fraction(2, 3)


# ---------------------------------------------------------------------------
# State updates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateUpdate:
    """An ordered list of record changes published inside a block."""

    entries: tuple[dict, ...]
    cause: str  # stake | unstake | slash | adjudication | epoch
    meta: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"entries": list(self.entries), "cause": self.cause, "meta": self.meta}


class UpdateRejected(ValueError):
    pass


@dataclass
class ApplyResult:
    state: ProtocolState
    commitment: bytes
    events: list[dict] = field(default_factory=list)


def _record_to_dict(rec: NodeIdentity) -> dict:
    return {
        "key": hexify(rec.staking_public_key),
        "role": rec.role.value,
        "stake": rec.stake,
        "addr": rec.network_address,
        "drb_pk": rec.drb_public_key,
        "active_from": rec.active_from_epoch,
        "discharged_from": rec.discharged_from_epoch,
    }


def commit_state(state: ProtocolState) -> bytes:
    """Digest of the canonical serialization (records sorted by key bytes)."""
    doc = {
        "records": [
            _record_to_dict(state.records[k]) for k in sorted(state.records)
        ],
        "held": [
            {
                "key": hexify(k),
                "amount": state.held_stakes[k].amount,
                "release_epoch": state.held_stakes[k].release_epoch,
            }
            for k in sorted(state.held_stakes)
        ],
        "epoch": {
            "index": state.epoch.index,
            "start_height": state.epoch.start_height,
            "length_blocks": state.epoch.length_blocks,
            "staking_deadline_height": state.epoch.staking_deadline_height,
        },
        "total_slashed": state.total_slashed,
        "total_released": state.total_released,
    }
    return crypto.hash("state", canonical_json(doc))


def _apply_slash(state: ProtocolState, key: bytes, amount: int, events: list[dict]) -> None:
    remaining = amount
    rec = state.records.get(key)
    if rec is not None and rec.stake > 0:
        cut = min(rec.stake, remaining)
        state.records[key] = replace(rec, stake=rec.stake - cut)
        remaining -= cut
        state.total_slashed += cut
    held = state.held_stakes.get(key)
    if remaining > 0 and held is not None and held.amount > 0:
        cut = min(held.amount, remaining)
        state.held_stakes[key] = HeldStake(held.amount - cut, held.release_epoch)
        remaining -= cut
        state.total_slashed += cut
    if remaining > 0:
        # over-slash clamps at zero; the shortfall is only recorded
        events.append({"kind": "over_slash", "key": hexify(key), "shortfall": remaining})


def apply_updates(state: ProtocolState, updates: Sequence[StateUpdate]) -> ApplyResult:
    """Apply updates to a copy of `state`; reject the whole batch on error.

    The returned state is a snapshot carrying its commitment and must not be
    mutated. Updates with no entries change nothing, so a snapshot comes back
    as itself with its stored commitment."""
    if state.commitment is not None and not any(upd.entries for upd in updates):
        return ApplyResult(state=state, commitment=state.commitment)
    new = state.copy()
    events: list[dict] = []
    for upd in updates:
        for entry in upd.entries:
            op = entry["op"]
            key = bytes.fromhex(entry["key"]) if "key" in entry else None
            if op == "create":
                r = entry["record"]
                new.records[bytes.fromhex(r["key"])] = NodeIdentity(
                    staking_public_key=bytes.fromhex(r["key"]),
                    role=Role(r["role"]),
                    stake=r["stake"],
                    network_address=r["addr"],
                    drb_public_key=r.get("drb_pk"),
                    active_from_epoch=r.get("active_from", 0),
                    discharged_from_epoch=r.get("discharged_from"),
                )
            elif op == "stake_delta":
                rec = new.records.get(key)
                if rec is None:
                    raise UpdateRejected(f"unknown node {entry['key']}")
                if rec.stake + entry["delta"] < 0:
                    raise UpdateRejected("stake would go negative")
                new.records[key] = replace(rec, stake=rec.stake + entry["delta"])
            elif op == "slash":
                _apply_slash(new, key, entry["amount"], events)
            elif op == "discharge":
                rec = new.records.get(key)
                if rec is None:
                    raise UpdateRejected(f"unknown node {entry['key']}")
                new.records[key] = replace(rec, discharged_from_epoch=entry["epoch"])
            elif op == "hold":
                rec = new.records.get(key)
                if rec is None:
                    raise UpdateRejected(f"unknown node {entry['key']}")
                new.held_stakes[key] = HeldStake(rec.stake, entry["release_epoch"])
                new.records[key] = replace(rec, stake=0)
            elif op == "release":
                held = new.held_stakes.pop(key, None)
                if held is not None:
                    new.total_released += held.amount
            elif op == "set_drb_key":
                rec = new.records.get(key)
                if rec is None:
                    raise UpdateRejected(f"unknown node {entry['key']}")
                new.records[key] = replace(rec, drb_public_key=entry["drb_pk"])
            else:
                raise UpdateRejected(f"unknown update op {op!r}")
    new.commitment = commit_state(new)
    return ApplyResult(state=new, commitment=new.commitment, events=events)


# ---------------------------------------------------------------------------
# Slashing challenges
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SlashingChallenge:
    kind: ChallengeKind
    challenger: bytes
    accused: tuple[bytes, ...]
    evidence: tuple[bytes, ...]  # digest references into the event log
    deadline: int  # simulated time / block height, depending on context
    full_proof: bool = False
    challenge_id: bytes = b""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "challenger": hexify(self.challenger),
            "accused": [hexify(a) for a in self.accused],
            "evidence": [hexify(e) for e in self.evidence],
            "deadline": self.deadline,
            "full_proof": self.full_proof,
            "id": hexify(self.challenge_id),
        }


def challenge_id(ch: SlashingChallenge) -> bytes:
    doc = ch.to_dict()
    doc.pop("id")
    return crypto.hash("challenge", canonical_json(doc))


@dataclass(frozen=True)
class Adjudication:
    challenge_id: bytes
    outcome: str  # accused_slashed | challenger_slashed | dismissed
    slashed: tuple[bytes, ...]

    def to_dict(self) -> dict:
        return {
            "challenge_id": hexify(self.challenge_id),
            "outcome": self.outcome,
            "slashed": [hexify(s) for s in self.slashed],
        }


def _slash_amount(state: ProtocolState, key: bytes) -> int:
    """A slash takes the node's whole stake, active and held."""
    rec = state.records.get(key)
    held = state.held_stakes.get(key)
    return (rec.stake if rec else 0) + (held.amount if held else 0)


def adjudicate_challenge(
    state: ProtocolState,
    challenge: SlashingChallenge,
    response_exonerates: Optional[bool],
    timed_out: bool,
) -> tuple[Adjudication, StateUpdate]:
    """Resolve a recorded slashing challenge.

    Full-proof challenges are adjudicated immediately against the accused.
    Otherwise a silent accused past its deadline is slashed; a response is
    evaluated and whichever side is at fault loses stake.
    """
    if challenge.full_proof or timed_out or response_exonerates is False:
        slashed = challenge.accused
        outcome = "accused_slashed"
    elif response_exonerates:
        slashed = (challenge.challenger,)
        outcome = "challenger_slashed"
    else:
        raise ValueError("challenge has neither proof, timeout, nor response verdict")
    cid = challenge.challenge_id or challenge_id(challenge)
    entries = tuple(
        {"op": "slash", "key": hexify(k), "amount": _slash_amount(state, k)}
        for k in slashed
    )
    adj = Adjudication(challenge_id=cid, outcome=outcome, slashed=tuple(slashed))
    upd = StateUpdate(entries=entries, cause="adjudication", meta=adj.to_dict())
    return adj, upd
