import hashlib
from importlib import resources
from types import SimpleNamespace

import pytest

from flowpipe.clustering import route_transaction
from flowpipe.collection import (
    ClusterBlock,
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
from flowpipe.blocks import ProtoBlock
from flowpipe.challenges import adjudicate_challenge, make_mcc
from flowpipe.nodes import ChallengeMsg, CollectionResponse, Finalized, GuaranteeShare, ReceiptMsg
from flowpipe.state import Adjudication, StateUpdate
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
    """A member votes for a cluster block exactly when it holds every text
    the block lists; finalization skips a hash listed again."""

    def setup_method(self):
        self.txs = [make_tx(100 + i) for i in range(6)]
        self.pool = {t.tx_hash(): t for t in self.txs}
        self.hashes = [t.tx_hash() for t in self.txs]

    def test_fresh_hashes_voted(self):
        assert validate_append_proposal(self.hashes[:3], self.pool)

    def test_empty_list_voted(self):
        assert validate_append_proposal([], self.pool)

    def test_missing_text_abstains(self):
        assert not validate_append_proposal([self.hashes[0], fhash("tx", b"unknown")], self.pool)

    def test_repeated_hash_voted(self):
        assert validate_append_proposal([self.hashes[0], self.hashes[0]], self.pool)


class TestCloseTrigger:
    """`close_trigger(size, added, rounds_open, size_threshold,
    timespan_rounds)`."""

    def test_empty_never_closes(self):
        assert not close_trigger(0, 0, 999, size_threshold=1, timespan_rounds=1)

    def test_timespan(self):
        assert close_trigger(1, 1, 8, size_threshold=3, timespan_rounds=8)
        assert not close_trigger(1, 1, 7, size_threshold=3, timespan_rounds=8)

    def test_threshold(self):
        assert close_trigger(3, 1, 0, size_threshold=3, timespan_rounds=10)
        assert close_trigger(4, 4, 1, size_threshold=3, timespan_rounds=10)
        assert not close_trigger(2, 1, 9, size_threshold=3, timespan_rounds=10)

    def test_block_adding_nothing_closes(self):
        assert close_trigger(1, 0, 1, size_threshold=3, timespan_rounds=10)
        assert close_trigger(2, 0, 2, size_threshold=3, timespan_rounds=10)
        assert not close_trigger(2, 1, 2, size_threshold=3, timespan_rounds=10)


class TestAppendCloses:
    """Once the span since the previous close has passed, the block that
    opens a collection also closes it, below the size threshold."""

    def test_span_elapsed(self):
        assert close_trigger(1, 1, 10, size_threshold=3, timespan_rounds=10)
        assert close_trigger(2, 2, 25, size_threshold=3, timespan_rounds=10)

    def test_span_not_elapsed(self):
        assert not close_trigger(2, 2, 9, size_threshold=3, timespan_rounds=10)

    def test_empty_pool_never_closes(self):
        assert not close_trigger(0, 0, 999, size_threshold=3, timespan_rounds=1)


def collector_with_pool(n: int):
    """The default world, unrun, and its first collector holding `n` fresh
    transactions in its pool, with their hashes."""
    world = build_world(merge_defaults({"run": {"seed": 1}}))
    collector = world.collectors[0]
    txs = [make_tx(200 + i) for i in range(n)]
    for tx in txs:
        collector.pool[tx.tx_hash()] = tx
    return world, collector, [tx.tx_hash() for tx in txs]


def append(hashes, round=1) -> ClusterBlock:
    """A cluster block of round `round` on the genesis cluster block."""
    return ClusterBlock(GENESIS_DIGEST, round, tuple(hashes))


def finalize(collector, payload) -> None:
    """Finalize one cluster block carrying `payload`, of the payload's
    round, at `collector`."""
    collector._on_cluster_finalize(SimpleNamespace(payload=payload, round=payload.round))


def valid_tx(world, cluster_index: int) -> SignedTransaction:
    """A transaction that passes intake at a collector of `cluster_index`:
    signed by the world's first agent, on the genesis block."""
    kp = world.agents[0].keypair
    for nonce in range(100):
        script = ToyTransaction(
            operations=({"kind": "set_register", "register": f"v{nonce}", "value": "01", "cost": 1},)
        ).to_script()
        tx = SignedTransaction(script, kp.public + kp.sign(script), (), GENESIS_DIGEST)
        if route_transaction(tx.tx_hash(), len(world.collectors[0].d.clusters)) == cluster_index:
            return tx
    raise AssertionError("no nonce routes to the cluster")


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
        # an append proposed before its parent finalized may list a hash
        # again; one that lists a new hash beside it counts that one only
        world, collector, hashes = collector_with_pool(3)
        finalize(collector, append(hashes[:1]))
        finalize(collector, append(hashes[:2], round=2))
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
        """A text that arrives after the block listing it finalized stays
        out of the collector's next payload."""
        world = build_world(merge_defaults({"run": {"seed": 1}}))
        collector = world.collectors[0]
        tx = valid_tx(world, collector.cluster_index)
        finalize(collector, append([tx.tx_hash()]))
        collector._ingest(tx, gossip=False)
        assert tx.tx_hash() in collector.pool and collector.fresh == {}
        assert collector._make_payload(GENESIS_DIGEST).hashes == ()


class TestLoneTransaction:
    """An idle cluster runs no rounds, so the span since the previous close
    cannot pass: the first finalized block that adds no new hash closes
    the open collection."""

    @pytest.mark.parametrize("relisted", [True, False], ids=["relisting", "empty"])
    def test_closes_one_block_after_its_listing_block(self, relisted):
        world, collector, hashes = collector_with_pool(1)
        finalize(collector, append(hashes, round=2))
        assert collector.open_collection == hashes and closed_by(world) == []
        finalize(collector, append(hashes if relisted else [], round=3))
        ch = collection_hash(hashes)
        assert closed_by(world) == [(collector.name, {"hash": ch.hex(), "size": 1})]
        assert (collector.open_collection, collector.open_round) == ([], 3)


class TestLeaderWaitsForWork:
    """A collector proposes only while its cluster has something to order:
    a fresh text, an open collection, or a listing block that two more
    certified blocks have yet to finalize."""

    def test_idle_leader_makes_no_payload(self):
        _, collector, _ = collector_with_pool(0)
        assert collector._make_payload(GENESIS_DIGEST) is None
        assert not collector.engine.has_work()

    def test_fresh_text_makes_a_payload(self):
        world = build_world(merge_defaults({"run": {"seed": 1}}))
        collector = world.collectors[0]
        tx = valid_tx(world, collector.cluster_index)
        collector._ingest(tx, gossip=False)
        assert list(collector.fresh) == [tx.tx_hash()]
        assert collector._make_payload(GENESIS_DIGEST) == ClusterBlock(GENESIS_DIGEST, 1, (tx.tx_hash(),))
        assert collector.engine.has_work()

    def test_open_collection_makes_a_payload(self):
        _, collector, hashes = collector_with_pool(1)
        finalize(collector, append(hashes, round=2))
        assert collector.fresh == {} and collector.open_collection == hashes
        assert collector._make_payload(GENESIS_DIGEST).hashes == ()
        assert collector.engine.has_work()

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_listing_block_until_its_grandchild(self, depth):
        """Blocks on a listing block's chain carry the certificates that
        finalize it: the payloads on the listing block and on its child."""
        _, collector, hashes = collector_with_pool(1)
        tree = collector.engine.tree
        parent, listed = GENESIS_DIGEST, hashes
        for r in range(1, depth + 1):
            digest = bytes([r]) * 32
            tree.add(digest, r, parent, append(listed, round=r))
            parent, listed = digest, []
        assert (collector._make_payload(parent) is None) == (depth == 3)


class TestOneCloseRule:
    """Every collector closes by `close_trigger` at each finalized cluster
    block, counting the span in block rounds since the block that closed
    the previous collection, so the finalized chain alone decides."""

    def test_span_counted_in_block_rounds(self):
        world, collector, hashes = collector_with_pool(3)
        span = collector.d.collection_timespan_rounds
        collector.engine.current_round = 10 * span  # a local round far ahead changes nothing
        finalize(collector, append(hashes[:1], round=span - 1))
        assert closed_by(world) == [] and collector.open_round == 0
        finalize(collector, append(hashes[1:2], round=span))
        ch = collection_hash(hashes[:2])
        assert closed_by(world) == [(collector.name, {"hash": ch.hex(), "size": 2})]
        assert collector.open_round == span
        finalize(collector, append(hashes[2:], round=2 * span - 1))
        assert collector.open_collection == hashes[2:] and len(closed_by(world)) == 1

    def test_members_at_different_local_rounds_close_alike(self):
        """One chain closes a full collection, one whose span passed and one
        whose next block added nothing, alike at two members whose local
        rounds differ."""
        world, collector, hashes = collector_with_pool(6)
        peer = next(
            c for c in world.collectors if c.cluster_index == collector.cluster_index and c is not collector
        )
        peer.pool.update(collector.pool)
        span = collector.d.collection_timespan_rounds
        chain = [
            append(hashes[:1], round=2),
            append(hashes[:2], round=3),
            append(hashes[1:3], round=4),  # full
            append(hashes[3:4], round=5),
            append(hashes[3:5], round=span + 5),  # span passed
            append(hashes[5:], round=span + 6),
            append(hashes[5:], round=span + 7),  # added nothing
        ]
        collector.engine.current_round, peer.engine.current_round = 5, 3 * span
        for payload in chain:
            for node in (collector, peer):
                finalize(node, payload)
            assert collector.open_round == peer.open_round
            assert collector.open_collection == peer.open_collection
        assert [n for n, _ in closed_by(world)] == [collector.name, peer.name] * 3
        assert list(collector.store) == list(peer.store) == [
            collection_hash(hashes[:3]),
            collection_hash(hashes[3:5]),
            collection_hash(hashes[5:]),
        ]
        assert collector.open_round == span + 7


class TestCollectorAppendClose:
    @pytest.mark.parametrize("close", [False, None, 1, "true", [True]])
    def test_malformed_close_rejected(self, close):
        """A cluster payload carries no close decision: a `ClusterBlock` has
        no `close` field, and a payload of the dict form collectors once
        sent, with a `close` key of whatever value, is refused."""
        _, collector, hashes = collector_with_pool(2)
        with pytest.raises(TypeError):
            ClusterBlock(GENESIS_DIGEST, 1, tuple(hashes), close=close)
        listed = [h.hex() for h in hashes]
        old = {"parent": GENESIS_DIGEST.hex(), "round": 1, "hashes": listed, "close": close}
        assert collector._validate_payload(append(hashes), GENESIS_DIGEST)
        assert not collector._validate_payload(old, GENESIS_DIGEST)

    def test_append_close_block_stores_the_collection(self):
        """After an idle span, the block that opens a collection closes it."""
        world, collector, hashes = collector_with_pool(2)
        span = collector.d.collection_timespan_rounds
        finalize(collector, append(hashes, round=span))
        ch = collection_hash(hashes)
        assert [tx.tx_hash() for tx in collector.store[ch]] == hashes
        assert collector.open_collection == [] and collector.included == set(hashes)
        assert closed_by(world) == [(collector.name, {"hash": ch.hex(), "size": 2})]


class TestClusterVote:
    def test_member_votes_for_a_relisting_block(self):
        """A member that has finalized a block listing some hashes votes
        for a later block that lists them again: finalization skips them."""
        _, collector, hashes = collector_with_pool(2)
        finalize(collector, append(hashes[:1]))
        assert collector._validate_payload(append(hashes, round=2), GENESIS_DIGEST)

    def test_busy_clusters_refuse_only_for_a_missing_text(self):
        """happy-path under ledger-load's load at seed 7101: every cluster
        vote refused is for a block listing a text the member lacks. A
        member that refused blocks re-listing a hash it had included also
        refused 4 of them here."""
        doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
        doc["transactions"].update(count=100, interval=20)
        doc["run"].update(seed=7101, max_sim_time=6000)
        world = build_world(doc)
        lacked = []  # for each refused vote, whether the member lacked a listed text
        for collector in world.collectors:

            def validate(payload, parent_digest, c=collector, check=collector.engine.validate_payload):
                accepted = check(payload, parent_digest)
                if not accepted:
                    lacked.append(any(h not in c.pool for h in payload.hashes))
                return accepted

            collector.engine.validate_payload = validate
        run_world(world)
        assert lacked and all(lacked)

    @pytest.mark.parametrize(
        "payload",
        [
            ClusterBlock(GENESIS_DIGEST, 1, None),
            ClusterBlock(GENESIS_DIGEST, 1, "00"),
            ClusterBlock(GENESIS_DIGEST, 1, [b"\x00" * 32]),
            ClusterBlock(GENESIS_DIGEST, 1, ("00" * 32,)),
            ClusterBlock(GENESIS_DIGEST, 1, (bytearray(32),)),
            ClusterBlock(b"\x01" * 32, 1, ()),
            # the dict form collectors once sent, well formed and not
            {"parent": GENESIS_DIGEST.hex(), "round": 1, "hashes": []},
            {"parent": GENESIS_DIGEST.hex(), "round": 1},
            {"parent": GENESIS_DIGEST.hex(), "round": 1, "hashes": [], "kind": "noop"},
            [GENESIS_DIGEST.hex(), 1, []],
        ],
        ids=[
            "null-hashes",
            "string-hashes",
            "list-of-hashes",
            "hex-hash",
            "bytearray-hash",
            "other-parent",
            "old-dict-shape",
            "no-hashes",
            "kind",
            "not-a-dict",
        ],
    )
    def test_malformed_payload_refused(self, payload):
        _, collector, _ = collector_with_pool(0)
        assert collector._validate_payload(append([]), GENESIS_DIGEST)
        assert not collector._validate_payload(payload, GENESIS_DIGEST)


def test_lone_transactions_close_one_block_after_their_listing_block():
    """happy-path at seed 1 submits one transaction every 400 ticks, so each
    reaches an idle cluster. Its leader lists it at once, and the next
    finalized block, which adds nothing, closes it: all 12 collections hold
    one transaction and close one round after the block that lists it. (To
    8,000 ticks, members refuse 8 blocks, each for a text gossip had not
    brought them yet, and vote for each once the text arrives; one cluster
    round times out.)"""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["run"].update(seed=1, max_sim_time=8000)
    world = build_world(doc)
    closes = {}  # collection hash -> {(round listing its text, round closing it)}
    for collector in world.collectors:
        listed = {}  # hash -> round of the first finalized block listing it

        def on_finalize(node, collector=collector, finalize=collector.engine.on_finalize, listed=listed):
            for h in node.payload.hashes:
                listed.setdefault(h, node.round)
            before = set(collector.store)
            finalize(node)
            for ch in set(collector.store) - before:
                rounds = {(listed[tx.tx_hash()], node.round) for tx in collector.store[ch]}
                closes.setdefault(ch, set()).update(rounds)

        collector.engine.on_finalize = on_finalize
    run_world(world)
    assert len(closes) == 12
    assert all(len(rounds) == 1 for rounds in closes.values())  # every member alike
    assert all(close == listing + 1 for rounds in closes.values() for listing, close in rounds)
    assert all(len(texts) == 1 for c in world.collectors for texts in c.store.values())


def test_busy_clusters_close_full_collections_in_their_append():
    """happy-path under ledger-load's load (100 transactions 20 ticks apart,
    6,000 ticks) keeps its clusters busy. A collection closes in the block
    that brings it to the size threshold, so no later block closes a full
    collection; every collector of a cluster closes the same collections in
    the same order. The log digest
    and metric rows are pinned."""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["transactions"].update(count=100, interval=20)
    doc["run"].update(seed=1, max_sim_time=6000)
    world = build_world(doc)
    threshold = world.collectors[0].d.collection_size_threshold
    late = []  # sizes of full collections a later block closed
    for collector in world.collectors:

        def on_finalize(node, collector=collector, finalize=collector.engine.on_finalize):
            size, before = len(collector.open_collection), len(collector.store)
            finalize(node)
            if len(collector.store) > before and size >= threshold:
                late.append(size)

        collector.engine.on_finalize = on_finalize
    run_world(world)
    assert late == []
    for index in range(doc["clusters"]["count"]):
        stores = [list(c.store) for c in world.collectors if c.cluster_index == index]
        assert stores[0] and all(store == stores[0] for store in stores)
    digest = hashlib.sha256(world.sim.log.to_jsonl().encode()).hexdigest()
    assert digest == "2549338aad0e1c3f778e9fb8500736edd63220fb088b8363623f0d9a1693990a"
    assert world.metrics.rows() == [
        ("blocks_finalized", 116),
        ("blocks_sealed", 112),
        ("collections_guaranteed", 39),
        ("challenges", 0),
        ("slashes", 0),
        ("mean_finalization_latency", 101.84482758620689),
        ("max_finalization_latency", 154),
    ]


class TestGuarantorsPush:
    """A guarantor whose tally reaches quorum pushes the collection's texts
    to every executor, so an executor holds them before a block lists the
    guarantee and sends nothing but its receipts."""

    def test_no_executor_requests_a_collection(self):
        doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
        doc["run"].update(seed=1, max_sim_time=6000)
        world = build_world(doc)
        sent = [sent_by(world, e.name, object) for e in world.executors]
        run_world(world)
        assert world.metrics.collections_guaranteed > 0
        assert [{type(m) for m in msgs} for msgs in sent] == [{ReceiptMsg} for _ in world.executors]
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
    a `ChallengeMsg` is all it sends besides its receipts, and a guarantor
    answers only a finalized block whose MCC names it."""

    def test_one_challenge_per_withheld_collection_after_one_wait(self):
        doc = bundled("withheld-collection")
        doc["run"]["max_sim_time"] = 4000
        world = build_world(doc)
        sent = [sent_by(world, e.name, object) for e in world.executors]
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
        assert [{type(m) for m in msgs} for msgs in sent] == [
            {ReceiptMsg, ChallengeMsg} for _ in world.executors
        ]
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
        sent = sent_by(world, e0.name, object)
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
        assert not world.sim.log.select("mcc_raised")
        assert {type(m) for m in sent} == {ReceiptMsg}
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


def block(height: int, collections=(), challenges=(), updates=()) -> ProtoBlock:
    """A block as a `Finalized` message carries it to the other roles; no
    chain rule is applied to it."""
    return ProtoBlock(
        bytes([height]) * 32, height, tuple(collections), (), tuple(challenges), tuple(updates), b""
    )


def deliver(world, node, *blocks) -> None:
    """Hand `node` every consensus node's `Finalized` copy of each block."""
    for pb in blocks:
        for sender in world.consensus:
            node.handle(sender.name, Finalized(pb))


class TestSettledOnTheChain:
    """A missing-collection challenge (MCC) settles through the finalized
    chain. A guarantor answers each `Finalized` copy of a block listing an
    MCC that names it, sending the texts to the consensus node that sent
    the copy. An executor skips a collection only once blocks it received
    as `Finalized` hold both an MCC on the collection, whoever raised it,
    and an update whose adjudication upholds that MCC, in either order, and
    then forgets the pair."""

    def test_guarantor_answers_only_a_finalized_mcc_naming_it(self):
        world, collector, hashes = collector_with_pool(2)
        ch = collection_hash(hashes)
        texts = tuple(collector.pool[h] for h in hashes)
        collector.store[ch] = list(texts)
        challenger = world.executors[0].keypair.public
        others = [c.keypair.public for c in world.collectors if c is not collector]
        naming = make_mcc(challenger, sorted([collector.keypair.public] + others[:1]), ch)
        sent, send = [], world.sim.send  # (receiver, answer)

        def recording(sender, receiver, message):
            if sender == collector.name and isinstance(message, CollectionResponse):
                sent.append((receiver, message))
            send(sender, receiver, message)

        world.sim.send = recording
        collector.handle(world.executors[0].name, ChallengeMsg(naming))
        deliver(world, collector, block(1, challenges=[make_mcc(challenger, others, ch)]))
        assert sent == []
        deliver(world, collector, block(2, challenges=[naming]))
        assert sent == [(c.name, CollectionResponse(ch, texts)) for c in world.consensus]

    def missing(self):
        """The default world, unrun, with e0 holding block 1, which lists
        a collection e0 has no texts for, and an MCC e1 raised on it."""
        world = build_world(merge_defaults({"run": {"seed": 1}}))
        e0, e1 = world.executors[:2]
        h = fhash("withheld", b"collection")
        guarantors = sorted(c.keypair.public for c in world.collectors[:3])
        deliver(world, e0, block(1, collections=[GuaranteedCollection(h, 0, tuple(guarantors), ())]))
        mcc = make_mcc(e1.keypair.public, guarantors, h)
        return world, e0, mcc

    def upheld(self, e0, mcc) -> StateUpdate:
        return adjudicate_challenge(e0.d.initial_state, mcc, accused_at_fault=True)[1]

    def test_no_skip_on_an_upheld_adjudication_of_no_finalized_mcc(self):
        world, e0, mcc = self.missing()
        own = make_mcc(e0.keypair.public, mcc.accused, mcc.evidence[0])
        deliver(world, e0, block(2, challenges=[mcc]), block(3, updates=[self.upheld(e0, own)]))
        assert not e0.skipped and e0.next_height == 1

    def test_no_skip_on_a_dismissed_mcc(self):
        world, e0, mcc = self.missing()
        dismissed = StateUpdate((), Adjudication(mcc.challenge_id, "dismissed", ()))
        challenger = adjudicate_challenge(e0.d.initial_state, mcc, accused_at_fault=False)[1]
        deliver(world, e0, block(2, challenges=[mcc]), block(3, updates=[dismissed, challenger]))
        assert not e0.skipped and e0.next_height == 1

    def test_no_skip_on_an_mcc_without_its_update(self):
        world, e0, mcc = self.missing()
        deliver(world, e0, block(2, challenges=[mcc]), block(3))
        assert not e0.skipped and e0.next_height == 1

    @pytest.mark.parametrize("update_first", [False, True])
    def test_skip_on_an_mcc_and_its_upholding_update(self, update_first):
        world, e0, mcc = self.missing()
        blocks = [block(2, challenges=[mcc]), block(3, updates=[self.upheld(e0, mcc)])]
        deliver(world, e0, *(blocks[::-1] if update_first else blocks))
        assert e0.skipped == {mcc.evidence[0]} and e0.next_height == 4
        assert not e0.mccs and not e0.upheld
