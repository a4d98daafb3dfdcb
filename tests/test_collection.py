from importlib import resources
from types import SimpleNamespace

import pytest

from flowpipe.clustering import route_transaction
from flowpipe.collection import (
    GuaranteedCollection,
    TxCheck,
    append_closes,
    close_trigger,
    collection_hash,
    guarantee_authentic,
    validate_append_proposal,
    validate_transaction,
)
from flowpipe.crypto import StakingKeyPair, hash as fhash
from flowpipe.hotstuff import GENESIS_DIGEST
from flowpipe.scenario import build_world, load_scenario, merge_defaults, run_world
from flowpipe.state import NodeIdentity, Role, StakeTable
from flowpipe.vm import SignedTransaction, ToyTransaction

REF = b"\xaa" * 32


def payer() -> StakingKeyPair:
    return StakingKeyPair.from_seed(b"payer" * 6 + b"xx")


def make_tx(nonce: int, ref: bytes = REF) -> SignedTransaction:
    kp = payer()
    script = ToyTransaction(
        operations=({"kind": "set_register", "register": f"n{nonce}", "value": "01", "cost": 1},)
    ).to_script()
    return SignedTransaction(
        script=script,
        payer_signature=kp.public + kp.sign(script),
        script_signatures=(),
        reference_block_hash=ref,
    )


def check(tx, inclusion_height, window=10, cluster=None, c=1, heights=None):
    heights = {REF: 1000} if heights is None else heights
    if cluster is None:
        cluster = route_transaction(tx.tx_hash(), c)
    return validate_transaction(
        tx, heights.get, inclusion_height, window, cluster, c, [payer().public]
    )


class TestValidateTransaction:
    def test_ill_formed_operations_rejected(self):
        # what the VM cannot run never enters a collection
        kp = payer()
        for ops in (
            [{"kind": "transfer"}],
            [{"kind": "create_account", "account": 5}],
            [{"kind": "set_register", "register": "r", "value": "01", "cost": "3"}],
        ):
            script = ToyTransaction(operations=tuple(ops)).to_script()
            tx = SignedTransaction(script, kp.public + kp.sign(script), (), REF)
            assert check(tx, 1005) == TxCheck.MALFORMED_FIELDS, ops

    def test_window_interior(self):
        assert check(make_tx(0), 1005) == TxCheck.OK

    def test_window_boundaries(self):
        tx = make_tx(1)
        assert check(tx, 1001) == TxCheck.OK
        assert check(tx, 1010) == TxCheck.OK
        assert check(tx, 1000) == TxCheck.EXPIRED_WINDOW
        assert check(tx, 1011) == TxCheck.EXPIRED_WINDOW

    def test_exhaustive_heights_around_window(self):
        tx = make_tx(2)
        for h in range(995, 1016):
            want = TxCheck.OK if 1001 <= h <= 1010 else TxCheck.EXPIRED_WINDOW
            assert check(tx, h) == want, h

    def test_unknown_reference_block(self):
        tx = make_tx(3, ref=b"\xbb" * 32)
        assert check(tx, 1005) == TxCheck.UNKNOWN_REFERENCE_BLOCK

    def test_missing_payer_signature(self):
        tx = make_tx(4)
        bad = SignedTransaction(tx.script, b"", tx.script_signatures, tx.reference_block_hash)
        assert check(bad, 1005) == TxCheck.MALFORMED_FIELDS

    def test_unparseable_script(self):
        kp = payer()
        script = b"not a script"
        tx = SignedTransaction(script, kp.public + kp.sign(script), (), REF)
        assert check(tx, 1005) == TxCheck.MALFORMED_FIELDS

    def test_unregistered_payer(self):
        other = StakingKeyPair.from_seed(b"q" * 32)
        script = make_tx(5).script
        tx = SignedTransaction(script, other.public + other.sign(script), (), REF)
        assert check(tx, 1005) == TxCheck.BAD_SIGNATURE

    def test_signature_over_wrong_script(self):
        kp = payer()
        tx6 = make_tx(6)
        tx = SignedTransaction(tx6.script, kp.public + kp.sign(b"other"), (), REF)
        assert check(tx, 1005) == TxCheck.BAD_SIGNATURE

    def test_wrong_cluster(self):
        tx = make_tx(7)
        c = 4
        right = route_transaction(tx.tx_hash(), c)
        wrong = (right + 1) % c
        assert check(tx, 1005, cluster=wrong, c=c) == TxCheck.WRONG_CLUSTER
        assert check(tx, 1005, cluster=right, c=c) == TxCheck.OK


def cluster_of(n, stake=10):
    kps = [StakingKeyPair.from_seed(bytes([40 + i]) * 32) for i in range(n)]
    members = [
        NodeIdentity(kp.public, Role.COLLECTOR, stake, f"c{i}") for i, kp in enumerate(kps)
    ]
    return kps, StakeTable(members)


def guarantee(coll_hash, kps, signer_idx, cluster=0):
    gc0 = GuaranteedCollection(coll_hash, cluster, (), ())
    payload = gc0.signed_payload()
    signers = tuple(kps[i].public for i in signer_idx)
    sigs = tuple(kps[i].sign(payload) for i in signer_idx)
    return GuaranteedCollection(coll_hash, cluster, signers, sigs)


class TestGuarantee:
    def test_supermajority_accepted(self):
        kps, members = cluster_of(4)
        gc = guarantee(fhash("collection", b"x"), kps, [0, 1, 2])
        assert guarantee_authentic(gc, members)

    def test_exactly_two_thirds_rejected(self):
        kps, members = cluster_of(3)
        gc = guarantee(fhash("collection", b"x"), kps, [0, 1])
        assert not guarantee_authentic(gc, members)

    def test_outsider_signer_rejected(self):
        kps, members = cluster_of(4)
        outsider = StakingKeyPair.from_seed(b"z" * 32)
        gc = guarantee(fhash("collection", b"x"), kps + [outsider], [0, 1, 2, 4])
        assert not guarantee_authentic(gc, members)

    def test_bad_signature_rejected(self):
        kps, members = cluster_of(4)
        gc = guarantee(fhash("collection", b"x"), kps, [0, 1, 2])
        forged = GuaranteedCollection(
            gc.collection_hash, gc.cluster_index, gc.signers, gc.signatures[:-1] + (b"\x00" * 32,)
        )
        assert not guarantee_authentic(forged, members)


class TestCollectionHash:
    def test_order_sensitivity(self):
        a, b = fhash("tx", b"a"), fhash("tx", b"b")
        assert collection_hash([a, b]) != collection_hash([b, a])


class TestAppendProposal:
    def setup_method(self):
        self.txs = [make_tx(100 + i) for i in range(6)]
        self.pool = {t.tx_hash(): t for t in self.txs}
        self.hashes = [t.tx_hash() for t in self.txs]

    def test_fresh_hashes_voted(self):
        assert validate_append_proposal(self.hashes[:3], self.pool, [], set())

    def test_missing_text_abstains(self):
        assert not validate_append_proposal(
            [self.hashes[0], fhash("tx", b"unknown")], self.pool, [], set()
        )

    def test_duplicate_of_open_collection_abstains(self):
        assert not validate_append_proposal(
            self.hashes[:2], self.pool, [self.hashes[1]], set()
        )

    def test_internal_duplicate_abstains(self):
        assert not validate_append_proposal(
            [self.hashes[0], self.hashes[0]], self.pool, [], set()
        )

    def test_overlap_with_guaranteed_history_abstains(self):
        assert not validate_append_proposal(
            self.hashes[:2], self.pool, [], {self.hashes[0]}
        )


class TestCloseTrigger:
    def test_empty_never_closes(self):
        assert not close_trigger(0, 999, size_threshold=1, timespan_rounds=1)

    def test_size_threshold(self):
        assert close_trigger(3, 0, size_threshold=3, timespan_rounds=100)
        assert not close_trigger(2, 0, size_threshold=3, timespan_rounds=100)

    def test_timespan(self):
        assert close_trigger(1, 8, size_threshold=20, timespan_rounds=8)
        assert not close_trigger(1, 7, size_threshold=20, timespan_rounds=8)


class TestAppendCloses:
    """Once the span since the previous close has passed, the append that
    opens a collection also closes it."""

    def test_span_elapsed(self):
        assert append_closes(1, 10, timespan_rounds=10)
        assert append_closes(3, 25, timespan_rounds=10)

    def test_span_not_elapsed(self):
        assert not append_closes(3, 9, timespan_rounds=10)

    def test_empty_pool_never_closes(self):
        assert not append_closes(0, 999, timespan_rounds=1)


def collector_with_pool(n: int):
    """The default world, unrun, and its first collector holding `n` fresh
    transactions in its pool, with their hashes."""
    world = build_world(merge_defaults({"run": {"seed": 1}}))
    collector = world.collectors[0]
    txs = [make_tx(200 + i) for i in range(n)]
    for tx in txs:
        collector.pool[tx.tx_hash()] = tx
    return world, collector, [tx.tx_hash() for tx in txs]


def append(hashes, **fields) -> dict:
    """An append payload on the genesis cluster block."""
    return dict(
        parent=GENESIS_DIGEST.hex(), round=1, kind="append", hashes=[h.hex() for h in hashes], **fields
    )


class TestCollectorAppendClose:
    def test_leader_closes_with_the_append_once_the_span_passed(self):
        _, collector, hashes = collector_with_pool(2)
        span = collector.d.collection_timespan_rounds
        collector.engine.current_round = collector.open_round + span - 1
        assert "close" not in collector._make_payload(GENESIS_DIGEST)
        collector.engine.current_round += 1
        payload = collector._make_payload(GENESIS_DIGEST)
        assert (payload["kind"], payload["hashes"], payload["close"]) == (
            "append",
            [h.hex() for h in hashes],
            True,
        )

    @pytest.mark.parametrize("close", [False, None, 1, "true", [True]])
    def test_malformed_close_rejected(self, close):
        _, collector, hashes = collector_with_pool(2)
        assert collector._validate_payload(append(hashes), GENESIS_DIGEST)
        assert not collector._validate_payload(append(hashes, close=close), GENESIS_DIGEST)

    def test_append_close_block_stores_the_collection(self):
        world, collector, hashes = collector_with_pool(2)
        payload = append(hashes, close=True)
        assert collector._validate_payload(payload, GENESIS_DIGEST)
        collector._on_cluster_finalize(SimpleNamespace(payload=payload))
        ch = collection_hash(hashes)
        assert [tx.tx_hash() for tx in collector.store[ch]] == hashes
        assert collector.open_collection == [] and collector.included == set(hashes)
        closed = [r["payload"] for r in world.sim.log.select("collection_closed")]
        assert closed == [{"hash": ch.hex(), "size": 2}]


def test_idle_collections_close_in_their_first_append():
    """happy-path at seed 1 closes at least 10 of its 12 collections in an
    append block that lists their first transaction, so none of those waits
    for a close block of its own and its second 3-chain finalization, about
    4 cluster rounds. (The append of a later round may list the transaction
    again, because the pool is filtered by what is finalized, and close it.)"""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["run"].update(seed=1, max_sim_time=8000)
    world = build_world(doc)
    closed, in_append = set(), set()
    for collector in world.collectors:

        def on_finalize(node, collector=collector, finalize=collector.engine.on_finalize):
            before = set(collector.store)
            finalize(node)
            for ch in set(collector.store) - before:
                closed.add(ch)
                first = collector.store[ch][0].tx_hash().hex()
                if node.payload["kind"] == "append" and first in node.payload["hashes"]:
                    in_append.add(ch)

        collector.engine.on_finalize = on_finalize
    run_world(world)
    assert len(closed) == 12
    assert len(in_append) >= 10
