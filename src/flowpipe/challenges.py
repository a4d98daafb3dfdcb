"""Slashing challenges, the one way the protocol slashes a node: the
challenge object and its id, a constructor for each kind, the rules by
which a chain takes one (`challenge_valid`, and `challenge_mark`, the key
it is recorded under once), and the verdicts that settle it. Blocks, nodes
and the scenario checks call these functions; none builds or judges a
challenge itself."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import Mapping, Optional, Sequence

from . import crypto
from .collection import collection_hash
from .encoding import canonical_json, hexify
from .execution import ExecutionReceipt, ExecutionResult
from .state import Adjudication, ProtocolState, StateUpdate, slash_update
from .verification import ChunkDataPackage
from .vm import SignedTransaction


class ChallengeKind(str, enum.Enum):
    MISSING_COLLECTION = "missing_collection"
    FAULTY_COMPUTATION = "faulty_computation"
    PROTOCOL_VIOLATION = "protocol_violation"


@dataclass(frozen=True)
class SlashingChallenge:
    """Nodes and blocks hold challenges as objects; `to_dict` writes the hex
    document that a challenge id or a block hash covers."""

    kind: ChallengeKind
    challenger: bytes
    accused: tuple[bytes, ...]
    evidence: tuple[bytes, ...]  # digest references into the event log
    challenge_id: bytes = b""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "challenger": hexify(self.challenger),
            "accused": [hexify(a) for a in self.accused],
            "evidence": [hexify(e) for e in self.evidence],
            "id": hexify(self.challenge_id),
        }


def challenge_id(ch: SlashingChallenge) -> bytes:
    doc = ch.to_dict()
    doc.pop("id")
    return crypto.hash("challenge", canonical_json(doc))


def _challenge(
    kind: ChallengeKind, challenger: bytes, accused: Sequence[bytes], evidence: Sequence[bytes]
) -> SlashingChallenge:
    """The one constructor: a challenge of these fields, with its id."""
    ch = SlashingChallenge(kind, challenger, tuple(accused), tuple(evidence))
    return replace(ch, challenge_id=challenge_id(ch))


def _chunk_digest(chunk_index: int) -> bytes:
    return crypto.hash("chunk-index", chunk_index.to_bytes(8, "big"))


def make_fcc(
    challenger: bytes,
    executor: bytes,
    result_hash: bytes,
    chunk_index: int,
    executor_signature: bytes,
) -> SlashingChallenge:
    """A faulty-computation challenge (FCC). The evidence names the result,
    its chunk by digest, and the executor's receipt signature over the
    result."""
    evidence = (result_hash, _chunk_digest(chunk_index), executor_signature)
    return _challenge(ChallengeKind.FAULTY_COMPUTATION, challenger, (executor,), evidence)


def make_mcc(
    challenger: bytes, guarantors: Sequence[bytes], coll_hash: bytes
) -> SlashingChallenge:
    """A missing-collection challenge (MCC) against every guarantor of the
    collection `coll_hash`."""
    return _challenge(ChallengeKind.MISSING_COLLECTION, challenger, guarantors, (coll_hash,))


def make_pv(accused: bytes, first_digest: bytes, second_digest: bytes) -> SlashingChallenge:
    """A protocol-violation challenge against a leader that proposed two
    payloads, by digest, in one round. Its fields are canonical (the
    digests sorted, the accused as its own challenger), so every detecting
    node derives the same id and the chain records the violation once."""
    evidence = tuple(sorted((first_digest, second_digest)))
    return _challenge(ChallengeKind.PROTOCOL_VIOLATION, accused, (accused,), evidence)


def fcc_signed(challenge: SlashingChallenge) -> bool:
    """The FCC accuses one executor and carries that executor's signature
    over the disputed result, so only a signer of the result answers for it."""
    return (
        len(challenge.accused) == 1
        and len(challenge.evidence) == 3
        and crypto.staking_verify(challenge.accused[0], challenge.evidence[0], challenge.evidence[2])
    )


def fcc_chunk(challenge: SlashingChallenge, result: ExecutionResult) -> Optional[int]:
    """Index of the result chunk whose digest the challenge names in
    `evidence[1]`, or None when it names none of them."""
    named = challenge.evidence[1:2]
    for k in range(len(result.chunks)):
        if named == (_chunk_digest(k),):
            return k
    return None


def challenge_mark(ch: SlashingChallenge):
    """Chain-dedupe key: the challenged target, independent of challenger. A
    missing collection's mark is its hash (bytes), a faulty chunk's is a
    (result hash, chunk index digest, accused executor) tuple, so each
    executor that signed a faulty result is challenged once, and a protocol
    violation's is its challenge id, whose canonical fields name only the
    accused and the evidence. Collection hashes and challenge ids are hashes
    under different tags, so no two marks collide."""
    if ch.kind == ChallengeKind.MISSING_COLLECTION:
        return ch.evidence[0]
    if ch.kind == ChallengeKind.FAULTY_COMPUTATION:
        return ch.evidence[:2] + ch.accused
    return ch.challenge_id


def challenge_valid(ch) -> bool:
    """The challenge's id covers its fields, an MCC names one collection,
    and an FCC carries the accused executor's signature over the disputed
    result. A block or a node takes no other challenge, so none can slash
    an executor for a result it never signed."""
    if not isinstance(ch, SlashingChallenge) or challenge_id(ch) != ch.challenge_id:
        return False
    if ch.kind == ChallengeKind.FAULTY_COMPUTATION:
        return fcc_signed(ch)
    if ch.kind == ChallengeKind.MISSING_COLLECTION:
        return len(ch.evidence) == 1
    return True


def adjudicate_challenge(
    state: ProtocolState, challenge: SlashingChallenge, accused_at_fault: bool
) -> tuple[Adjudication, StateUpdate]:
    """Settle a slashing challenge against whichever side is at fault: the
    accused, or else the challenger. Slash amounts are priced from `state`."""
    if accused_at_fault:
        adj = Adjudication(challenge.challenge_id, "accused_slashed", challenge.accused)
    else:
        adj = Adjudication(challenge.challenge_id, "challenger_slashed", (challenge.challenger,))
    return adj, slash_update(state, adj)


def adjudicate_fcc(
    state: ProtocolState,
    challenge: SlashingChallenge,
    receipt: ExecutionReceipt,
    packages: Sequence[ChunkDataPackage],
) -> tuple[Adjudication, StateUpdate]:
    """Re-execute the chunk the challenge names from the disputed receipt's
    package; a genuine divergence slashes the named executor, who is the
    fault origin because each executor chains only its own results; a clean
    replay, or a challenge naming no chunk of the result, slashes the
    challenger."""
    result = receipt.execution_result
    k = fcc_chunk(challenge, result)
    clean = k is None or packages[k].verdict(result, k, receipt.spocks[k]).ok
    return adjudicate_challenge(state, challenge, accused_at_fault=not clean)


def mcc_texts(
    challenge: SlashingChallenge, responses: Mapping[bytes, Sequence[SignedTransaction]]
) -> Optional[Sequence[SignedTransaction]]:
    """The texts of the first guarantor, in key order, whose response
    rebuilds the challenged collection's hash, or None when none does. Any
    such response dismisses the challenge; otherwise every guarantor is at
    fault."""
    for guarantor in sorted(responses):
        texts = responses[guarantor]
        if collection_hash([t.tx_hash() for t in texts]) == challenge.evidence[0]:
            return texts
    return None
