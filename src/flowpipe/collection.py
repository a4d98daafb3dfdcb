"""Collection formation data structures and validation rules: transaction
intake checks, append-proposal voting conditions, and guaranteed-collection
authenticity."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from . import crypto
from .clustering import route_transaction
from .encoding import canonical_json, hexify
from .state import StakeTable
from .vm import MalformedScript, SignedTransaction, ToyTransaction


def collection_hash(tx_hashes: Sequence[bytes]) -> bytes:
    payload = b"".join(len(h).to_bytes(8, "big") + h for h in tx_hashes)
    return crypto.hash("collection", payload)


@dataclass(frozen=True)
class GuaranteedCollection:
    collection_hash: bytes
    cluster_index: int
    signers: tuple[bytes, ...]  # guarantor staking keys (the signer bitmap)
    signatures: tuple[bytes, ...]

    def to_dict(self) -> dict:
        return {
            "collection_hash": hexify(self.collection_hash),
            "cluster_index": self.cluster_index,
            "signers": [hexify(s) for s in self.signers],
            "signatures": [hexify(s) for s in self.signatures],
        }

    def signed_payload(self) -> bytes:
        return canonical_json(
            {"collection_hash": hexify(self.collection_hash), "cluster": self.cluster_index}
        )


def guarantee_authentic(gc: GuaranteedCollection, cluster: StakeTable) -> bool:
    """A quorum of the cluster signed the guarantee's payload
    (`StakeTable.certifies`)."""
    payload = gc.signed_payload()
    return cluster.certifies(
        gc.signers, gc.signatures, lambda signer, sig: crypto.staking_verify(signer, payload, sig)
    )


class TxCheck(str, enum.Enum):
    OK = "ok"
    MALFORMED_FIELDS = "malformed_fields"
    BAD_SIGNATURE = "bad_signature"
    WRONG_CLUSTER = "wrong_cluster"
    EXPIRED_WINDOW = "expired_window"
    UNKNOWN_REFERENCE_BLOCK = "unknown_reference_block"


def split_payer_signature(payer_signature: bytes) -> Optional[tuple[bytes, bytes]]:
    """Payer signatures are the payer's public key followed by the
    signature over the script."""
    if len(payer_signature) != 64:
        return None
    return payer_signature[:32], payer_signature[32:]


def validate_transaction(
    tx: SignedTransaction,
    resolve_height: Callable[[bytes], Optional[int]],
    inclusion_height: int,
    window: int,
    expected_cluster: int,
    cluster_count: int,
    registered_accounts: Iterable[bytes],
) -> TxCheck:
    """Intake check: well-formed fields, a registered payer signature, the
    right cluster per the hash routing rule, and an unexpired inclusion
    window (ref_height, ref_height + window]."""
    if not tx.script or not tx.payer_signature or not tx.reference_block_hash:
        return TxCheck.MALFORMED_FIELDS
    try:
        ToyTransaction.parse(tx.script)
    except MalformedScript:
        return TxCheck.MALFORMED_FIELDS
    parts = split_payer_signature(tx.payer_signature)
    if parts is None:
        return TxCheck.MALFORMED_FIELDS
    payer_pk, sig = parts
    if payer_pk not in set(registered_accounts) or not crypto.staking_verify(
        payer_pk, tx.script, sig
    ):
        return TxCheck.BAD_SIGNATURE
    if route_transaction(tx.tx_hash(), cluster_count) != expected_cluster:
        return TxCheck.WRONG_CLUSTER
    ref_height = resolve_height(tx.reference_block_hash)
    if ref_height is None:
        return TxCheck.UNKNOWN_REFERENCE_BLOCK
    if not (ref_height < inclusion_height <= ref_height + window):
        return TxCheck.EXPIRED_WINDOW
    return TxCheck.OK


def validate_append_proposal(hashes: Sequence[bytes], pool: dict[bytes, SignedTransaction]) -> bool:
    """Vote in favor of a cluster block listing `hashes` iff the node holds
    every full text. A hash listed again, or already included, is skipped
    at finalization, so it costs no vote. Signature/cluster checks happened
    at intake, so pool membership implies them."""
    return all(h in pool for h in hashes)


def close_trigger(
    size: int, added: int, rounds_open: int, size_threshold: int, timespan_rounds: int
) -> bool:
    """The one close rule, applied at each finalized cluster block: a
    collection of `size` transactions, `added` of them new in this block,
    `rounds_open` block rounds after the block that closed the previous one,
    closes once it reaches the size threshold, once the span has passed, or
    at the first block that adds nothing. So a full collection closes in the
    block that fills it, one opened after a long span in the block that
    opens it, and a lone transaction one block after its own, since an idle
    cluster runs no rounds for the span to pass in. Empty collections are
    never closed."""
    return size > 0 and (added == 0 or size >= size_threshold or rounds_open >= timespan_rounds)
