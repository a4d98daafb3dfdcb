import hashlib
from importlib import resources
from types import SimpleNamespace

import pytest

from flowpipe.clustering import route_transaction
from flowpipe.collection import (
    GuaranteedCollection,
    TxCheck,
    close_trigger,
    collection_hash,
    guarantee_authentic,
    validate_append_proposal,
    validate_transaction,
)
from flowpipe.crypto import StakingKeyPair, hash as fhash
from flowpipe.hotstuff import GENESIS_DIGEST
from flowpipe.nodes import CollectionRequest, CollectionResponse, Finalized, GuaranteeShare
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
        assert not close_trigger(0, 999, timespan_rounds=1)

    def test_timespan(self):
        assert close_trigger(1, 8, timespan_rounds=8)
        assert not close_trigger(1, 7, timespan_rounds=8)


class TestAppendCloses:
    """Once the span since the previous close has passed, the append that
    opens a collection also closes it: `close_trigger` over its fresh
    transactions."""

    def test_span_elapsed(self):
        assert close_trigger(1, 10, timespan_rounds=10)
        assert close_trigger(3, 25, timespan_rounds=10)

    def test_span_not_elapsed(self):
        assert not close_trigger(3, 9, timespan_rounds=10)

    def test_empty_pool_never_closes(self):
        assert not close_trigger(0, 999, timespan_rounds=1)


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


def finalize(collector, payload) -> None:
    """Finalize one cluster block carrying `payload` at `collector`."""
    collector._on_cluster_finalize(SimpleNamespace(payload=payload))


def sent_by(world, name: str, kind: type) -> list:
    """The `kind` messages `name` sends from now on, recorded as they are
    sent."""
    sent, send = [], world.sim.send

    def recording(sender, receiver, message):
        if sender == name and isinstance(message, kind):
            sent.append(message)
        send(sender, receiver, message)

    world.sim.send = recording
    return sent


def closed_by(world) -> list:
    """(node, payload) of each `collection_closed` record, in log order."""
    return [(r["node"], r["payload"]) for r in world.sim.log.select("collection_closed")]


class TestCollectorSizeClose:
    """An append closes the collection when it brings the distinct hashes
    listed since the previous close to the size threshold (3 here)."""

    def test_two_then_one_close_at_the_second_finalization(self):
        world, collector, hashes = collector_with_pool(3)
        assert collector.d.collection_size_threshold == 3
        finalize(collector, append(hashes[:2]))
        assert collector.open_collection == hashes[:2] and closed_by(world) == []
        finalize(collector, append(hashes[2:]))
        ch = collection_hash(hashes)
        assert closed_by(world) == [(collector.name, {"hash": ch.hex(), "size": 3})]
        assert [tx.tx_hash() for tx in collector.store[ch]] == hashes
        assert collector.open_collection == []

    def test_one_append_of_four_closes_at_once(self):
        world, collector, hashes = collector_with_pool(4)
        finalize(collector, append(hashes))
        ch = collection_hash(hashes)
        assert closed_by(world) == [(collector.name, {"hash": ch.hex(), "size": 4})]
        assert collector.open_collection == []

    def test_relisted_hash_not_counted_twice(self):
        # an append proposed before its parent finalized may list a hash again
        world, collector, hashes = collector_with_pool(3)
        finalize(collector, append(hashes[:2]))
        finalize(collector, append(hashes[1:2]))
        assert collector.open_collection == hashes[:2] and closed_by(world) == []

    def test_missing_text_closes_at_the_same_block_as_a_full_peer(self):
        """A collector short of one listed text closes with its full peer
        but neither stores nor signs: the hash of its partial collection is
        one no peer shares."""
        world, collector, hashes = collector_with_pool(3)
        peer = next(
            c for c in world.collectors if c.cluster_index == collector.cluster_index and c is not collector
        )
        peer.pool.update(collector.pool)
        del collector.pool[hashes[1]]
        shares = sent_by(world, collector.name, GuaranteeShare)
        for node in (collector, peer):
            finalize(node, append(hashes[:2]))
        assert closed_by(world) == []
        for node in (collector, peer):
            finalize(node, append(hashes[2:]))
        ch = collection_hash(hashes)
        assert closed_by(world) == [(peer.name, {"hash": ch.hex(), "size": 3})]
        assert collector.store == {} and collector.shares == {} and shares == []
        assert collector.open_collection == peer.open_collection == []
        assert collector.open_round == peer.open_round

    def test_late_text_not_proposed_again(self):
        """A text that arrives after the append listing it finalized stays
        out of the collector's next payload: every peer refuses an append
        that lists a hash already included."""
        world, collector, hashes = collector_with_pool(1)
        tx = collector.pool.pop(hashes[0])
        finalize(collector, append(hashes))
        collector.pool[hashes[0]] = tx
        assert collector._make_payload(GENESIS_DIGEST)["kind"] == "noop"


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
    """happy-path at seed 1 closes at least 7 of its 12 collections in an
    append block that lists their first transaction, so none of those waits
    for a close block of its own and its 2-chain finalization, about 2
    cluster rounds. (The append of a later round may list the transaction
    again, because the pool is filtered by what is finalized, and close it.
    The other five arrive less than `timespan_rounds` after the previous
    close, so a close block closes them once the span has passed. Cluster
    rounds run slower than under the 3-chain rule: members refuse 8 appends
    that re-list a transaction they have finalized, against 4, and the
    clusters time out 7 times, against 4.)"""
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
    assert len(in_append) >= 7


def test_busy_clusters_close_full_collections_in_their_append():
    """happy-path under ledger-load's load (100 transactions 20 ticks apart,
    6,000 ticks) keeps its clusters busy. A collection closes in the append
    block that brings it to the size threshold, so no `close` block closes a
    full collection after a later finalization; every collector of
    a cluster closes the same collections in the same order. The log digest
    and metric rows are pinned."""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["transactions"].update(count=100, interval=20)
    doc["run"].update(seed=1, max_sim_time=6000)
    world = build_world(doc)
    threshold = world.collectors[0].d.collection_size_threshold
    late = []  # sizes of full collections a close block closed
    for collector in world.collectors:

        def on_finalize(node, collector=collector, finalize=collector.engine.on_finalize):
            size, before = len(collector.open_collection), len(collector.store)
            finalize(node)
            if node.payload["kind"] == "close" and len(collector.store) > before and size >= threshold:
                late.append(size)

        collector.engine.on_finalize = on_finalize
    run_world(world)
    assert late == []
    for index in range(doc["clusters"]["count"]):
        stores = [list(c.store) for c in world.collectors if c.cluster_index == index]
        assert stores[0] and all(store == stores[0] for store in stores)
    digest = hashlib.sha256(world.sim.log.to_jsonl().encode()).hexdigest()
    assert digest == "618c2ad4646be82a183862a90075caa038860bfd2ee465630c5a20051ee0b3fd"
    assert world.metrics.rows() == [
        ("blocks_finalized", 110),
        ("blocks_sealed", 106),
        ("collections_guaranteed", 21),
        ("challenges", 0),
        ("slashes", 0),
        ("mean_finalization_latency", 107.51818181818182),
        ("max_finalization_latency", 186),
    ]


class TestGuarantorsPush:
    """A guarantor whose tally reaches quorum pushes the collection's texts
    to every executor, so an executor holds them before a block lists the
    guarantee and never asks for them."""

    def test_no_executor_requests_a_collection(self):
        doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
        doc["run"].update(seed=1, max_sim_time=6000)
        world = build_world(doc)
        requests = [sent_by(world, e.name, CollectionRequest) for e in world.executors]
        run_world(world)
        assert world.metrics.collections_guaranteed > 0
        assert requests == [[] for _ in world.executors]
        for executor in world.executors:
            assert not executor.challenged

    def test_texts_taken_only_from_collectors_and_consensus(self):
        world, collector, hashes = collector_with_pool(2)
        executor = world.executors[0]
        ch = collection_hash(hashes)
        texts = tuple(collector.pool[h] for h in hashes)
        executor.handle(world.verifiers[0].name, CollectionResponse(ch, texts))
        assert ch not in executor.texts
        executor.handle(collector.name, CollectionResponse(ch, texts))
        assert executor.texts[ch] == list(texts)


def bundled(name: str) -> dict:
    return load_scenario(str(resources.files("flowpipe") / "scenarios" / f"{name}.json"))


class TestMissingCollectionChallenge:
    """An executor that lacks a finalized block's texts gives a late push
    one `retrieval_timeout` wait, then raises one missing-collection
    challenge against every guarantor. It never asks a guarantor itself:
    only the challenge's adjudicators send `CollectionRequest`."""

    def test_one_challenge_per_withheld_collection_after_one_wait(self):
        doc = bundled("withheld-collection")
        doc["run"]["max_sim_time"] = 4000
        world = build_world(doc)
        requests = [sent_by(world, e.name, CollectionRequest) for e in world.executors]
        # executor -> withheld collection -> tick its block's Finalized reached it
        reached = {e.name: {} for e in world.executors}
        for e in world.executors:

            def on_finalized(sender, msg, e=e, handle=e.handlers[Finalized]):
                for gc in msg.pb.guaranteed_collections:
                    if gc.cluster_index == 0:
                        reached[e.name].setdefault(gc.collection_hash, world.sim.now)
                handle(sender, msg)

            e.handlers[Finalized] = on_finalized
        run_world(world)
        assert requests == [[] for _ in world.executors]
        for e in world.executors:
            wait = max(1, round(e.d.retrieval_timeout * world.sim._skew[e.name]))
            due = sorted((t + wait, h) for h, t in reached[e.name].items() if t + wait <= 4000)
            raised = sorted(
                (r["t"], bytes.fromhex(r["payload"]["collection"]))
                for r in world.sim.log.select("mcc_raised")
                if r["node"] == e.name
            )
            assert due and raised == due, e.name

    def test_push_inside_the_wait_raises_no_challenge(self):
        """e0's copies of the first pushed collection are held back until
        the block listing it finalizes at e0, then delivered half a wait
        later: e0 raises no challenge and executes the block."""
        doc = bundled("happy-path")
        doc["run"].update(seed=1, max_sim_time=3000)
        world = build_world(doc)
        e0 = world.executors[0]
        requests = sent_by(world, e0.name, CollectionRequest)
        held, released = [], []  # (sender, push); (tick, height, texts held then)
        send = world.sim.send

        def holding(sender, receiver, msg):
            if receiver == e0.name and isinstance(msg, CollectionResponse) and not released:
                if not held or msg.collection_hash == held[0][1].collection_hash:
                    held.append((sender, msg))
                    return
            send(sender, receiver, msg)

        def on_finalized(sender, msg, handle=e0.handlers[Finalized]):
            listed = {gc.collection_hash for gc in msg.pb.guaranteed_collections}
            if held and not released and held[0][1].collection_hash in listed:
                h = held[0][1].collection_hash
                released.append((world.sim.now, msg.pb.height, h in e0.texts))
                world.sim.schedule(
                    e0.d.retrieval_timeout // 2,
                    lambda: [e0.handle(s, m) for s, m in held],
                )
            handle(sender, msg)

        world.sim.send = holding
        e0.handlers[Finalized] = on_finalized
        run_world(world)
        [(t, height, had_texts)] = released
        assert not had_texts
        assert not world.sim.log.select("mcc_raised") and requests == []
        executed = [
            r["t"] for r in world.sim.log.select("executed")
            if r["node"] == e0.name and r["payload"]["height"] == height
        ]
        assert executed == [t + e0.d.retrieval_timeout // 2]

    def test_withheld_collections_do_not_queue(self):
        """withheld-collection at seed 1: each executor arms its waits when
        the block finalizes, not when execution reaches it, so withheld
        collections are challenged side by side and e0 executes every block
        within 1,000 ticks of observer n0's finalization."""
        world = build_world(bundled("withheld-collection"))
        run_world(world)
        log = world.sim.log
        finalized = {
            r["payload"]["height"]: r["t"] for r in log.select("finalized") if r["node"] == "n0"
        }
        lags = [
            r["t"] - finalized[r["payload"]["height"]]
            for r in log.select("executed")
            if r["node"] == "e0" and r["payload"]["height"] in finalized
        ]
        assert len(lags) > 400 and max(lags) < 1000
