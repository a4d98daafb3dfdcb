"""Simulated node processes for every role and the transaction workload.
Each node is a reactive callback object driven by the simulator; nodes
share nothing but messages. The role classes follow the protocol and
nothing else: `adversary` corrupts a built node to make it Byzantine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from . import crypto
from .blocks import (
    Approval,
    ChainCtx,
    ChainView,
    ProtoBlock,
    approval_payload,
    evaluate_proposal,
    form_seal,
    block_seed,
    genesis_ctx,
    guarantee_valid,
    propose_proto_block,
    validate_seal,
)
from .challenges import (
    ChallengeKind,
    SlashingChallenge,
    adjudicate_challenge,
    adjudicate_fcc,
    challenge_mark,
    challenge_valid,
    make_fcc,
    make_mcc,
    make_pv,
    mcc_texts,
)
from .clustering import route_transaction
from .collection import (
    GuaranteedCollection,
    TxCheck,
    close_trigger,
    collection_hash,
    validate_append_proposal,
    validate_transaction,
)
from .encoding import canonical_json, hexify
from .execution import (
    GENESIS_RESULT_HASH,
    ExecutionReceipt,
    ExecutionResult,
    block_execution,
    canonical,
)
from .hotstuff import (
    GENESIS_DIGEST,
    BlockRequest,
    BlockResponse,
    ConsensusEngine,
    LeaderSchedule,
    NewRound,
    Proposal,
    Vote,
)
from .merkle import ExecutionState
from .sim import Handler, Simulator
from .state import Adjudication, ProtocolState, StakeTable, StateUpdate, Tally
from .verification import assign_chunks, chunk_data_packages
from .vm import SignedTransaction, ToyTransaction

# base timeouts between a beacon committee member's sends of its share of a
# block not yet sealed. A verifier seeds a block only from t+1 shares, so
# shares lost before GST would leave it unable to judge the block's
# results, and two such verifiers would stall sealing for good. The period
# is longer than sealing takes in the bundled scenarios (at most 1,151
# ticks at seeds 1 and 2), so there only a loss resends.
SHARE_RESEND = 8


# ---------------------------------------------------------------------------
# Shared read-only world directory
# ---------------------------------------------------------------------------


@dataclass
class Directory:
    """Static world view handed to every node at scenario start: membership,
    cluster map, one stake table per group (the consensus group, each
    cluster and the verifiers), one leader schedule per consensus group over
    its table, beacon material, and protocol parameters. Every weighted rule
    reads these tables. They are built once from the genesis records, and a
    slash does not change them yet: it changes the protocol state, not the
    voting weights."""

    name_of: dict[bytes, str]
    key_of: dict[str, bytes]
    consensus: StakeTable
    consensus_schedule: LeaderSchedule  # over `consensus`
    verifiers: StakeTable
    executor_names: list[str]
    verifier_names: list[str]
    consensus_names: list[str]
    collector_names: list[str]
    clusters: dict[int, StakeTable]  # cluster index -> its table
    cluster_schedules: dict[int, LeaderSchedule]  # cluster index -> leaders over its table
    cluster_of: dict[bytes, int]
    initial_state: ProtocolState
    params: crypto.ThresholdParams
    drb_vv: crypto.VerificationVector
    drb_committee: dict[bytes, crypto.SecretShare]  # member key -> share
    registered_accounts: list[bytes]
    # protocol parameters; their defaults live in scenario.DEFAULTS
    gamma_chunk: int
    coverage_p: float
    tx_window: int
    collection_size_threshold: int
    collection_timespan_rounds: int
    base_timeout: int
    mcc_deadline: int
    retrieval_timeout: int


# ---------------------------------------------------------------------------
# Message types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SubmitTx:
    tx: SignedTransaction


@dataclass(frozen=True)
class GossipTx:
    tx: SignedTransaction


@dataclass(frozen=True)
class GuaranteeShare:
    collection_hash: bytes
    cluster_index: int
    signer: bytes
    signature: bytes


@dataclass(frozen=True)
class GuaranteeAnnounce:
    gc: GuaranteedCollection


@dataclass(frozen=True)
class Finalized:
    pb: ProtoBlock
    # a beacon committee member's share over `pb.hash()`, in its copy to
    # the verifiers only
    share: Optional[crypto.SignatureShare] = None


@dataclass(frozen=True)
class ReceiptMsg:
    receipt: ExecutionReceipt
    packages: tuple  # one ChunkDataPackage per chunk

    def well_formed(self) -> bool:
        """One package and one SPoCK per chunk, so any chunk index a
        verifier or adjudicator reads has both."""
        chunks = len(self.receipt.execution_result.chunks)
        return len(self.packages) == chunks == len(self.receipt.spocks)


@dataclass(frozen=True)
class ApprovalMsg:
    approval: Approval


@dataclass(frozen=True)
class ChallengeMsg:
    challenge: SlashingChallenge


@dataclass(frozen=True)
class CollectionResponse:
    collection_hash: bytes
    texts: tuple[SignedTransaction, ...]


# ---------------------------------------------------------------------------
# Shared node runtime
# ---------------------------------------------------------------------------

def _ignore(sender: str, msg: Any) -> None:
    pass


class Node:
    """Runtime every role shares: identity, world view, and one table from
    exact message type to handler. A Byzantine behavior is a change to a
    built node, such as what its table holds (see `adversary`), never a
    check inside the handlers.

    Each role class repeats the one-line `handle` below in its own body, so
    that per-role profiles (cProfile, `perfbench/tracer.py`) see one code
    object per role."""

    engine: Optional[ConsensusEngine] = None

    def __init__(
        self,
        sim: Simulator,
        name: str,
        keypair: crypto.StakingKeyPair,
        directory: Directory,
    ):
        self.sim = sim
        self.name = name
        self.keypair = keypair
        self.d = directory
        self.handlers: dict[type, Handler] = {}

    def start(self):
        if self.engine is not None:
            self.engine.start()

    def handle(self, sender: str, msg: Any):
        self.handlers.get(type(msg), _ignore)(sender, msg)

    def send_all(self, names, msg) -> None:
        send, sender = self.sim.send, self.name
        for name in names:
            send(sender, name, msg)

    # -- consensus engine wiring ---------------------------------------------

    def attach_engine(self, peers: list[str], **wiring) -> None:
        """Run a consensus engine over the simulator: broadcasts go to
        `peers` in order, and the engine's messages enter the table."""
        engine = self.engine = ConsensusEngine(
            keypair=self.keypair,
            base_timeout=self.d.base_timeout,
            broadcast=lambda msg: self.send_all(peers, msg),
            send=lambda key, msg: self.sim.send(self.name, self.d.name_of[key], msg),
            set_timer=self._engine_timer,
            now=lambda: self.sim.now,
            **wiring,
        )
        self.handlers.update(
            {
                Proposal: lambda sender, msg: engine.on_proposal(msg),
                Vote: lambda sender, msg: engine.on_vote(msg),
                # the engine counts timeouts by `msg.sender`: it must be the sender's key
                NewRound: lambda sender, msg: (
                    self.d.key_of[sender] == msg.sender and engine.on_new_round(msg)
                ),
                BlockRequest: lambda sender, msg: engine.on_block_request(self.d.key_of[sender], msg),
                BlockResponse: lambda sender, msg: engine.on_block_response(msg),
            }
        )

    def _engine_timer(self, duration, round_number):
        self.sim.set_timer(
            self.name, duration, lambda: self.engine.on_local_timeout(round_number)
        )


# ---------------------------------------------------------------------------
# Collector
# ---------------------------------------------------------------------------


def _cluster_payload_digest(payload) -> bytes:
    """Digest of a cluster consensus payload; one function for every
    collector, so a proposal's digest check is shared by its receivers."""
    return crypto.hash("cluster-payload", canonical_json(payload))


class CollectorNode(Node):
    def __init__(self, sim, name, keypair, directory):
        super().__init__(sim, name, keypair, directory)
        self.cluster_index = directory.cluster_of[keypair.public]
        self.cluster = directory.clusters[self.cluster_index]
        self.peers = [
            directory.name_of[m.staking_public_key]
            for m in self.cluster.members
            if m.staking_public_key != keypair.public
        ]
        self.pool: dict[bytes, SignedTransaction] = {}
        self.included: set[bytes] = set()
        # pooled hashes not yet included, in pool order, with their hex form
        self.fresh: dict[bytes, str] = {}
        self.open_collection: list[bytes] = []
        self.open_round = 0  # round of the cluster block that closed the last collection
        self.store: dict[bytes, list[SignedTransaction]] = {}
        self.shares: dict[bytes, Tally] = {}  # collection hash -> signer -> signature
        self.heights: dict[bytes, int] = {GENESIS_DIGEST: 0}
        self.next_height = 1

        self.attach_engine(
            self.peers,
            schedule=directory.cluster_schedules[self.cluster_index],
            digest_payload=_cluster_payload_digest,
            validate_payload=self._validate_payload,
            make_payload=self._make_payload,
            on_finalize=self._on_cluster_finalize,
            keep_finalized=False,  # no collector reads a cluster block after finalizing it
            has_work=self._has_work,
        )
        self.handlers.update(
            {
                SubmitTx: lambda sender, msg: self._ingest(msg.tx, gossip=True),
                GossipTx: lambda sender, msg: self._ingest(msg.tx, gossip=False),
                GuaranteeShare: self._on_guarantee_share,
                Finalized: self._on_finalized,
            }
        )

    def handle(self, sender: str, msg: Any):
        self.handlers.get(type(msg), _ignore)(sender, msg)

    # -- cluster consensus payloads -----------------------------------------

    def _has_work(self) -> bool:
        """A fresh text or an open collection: the cluster has something to
        order, so this member's round timer runs."""
        return bool(self.fresh or self.open_collection)

    def _make_payload(self, parent_digest):
        """A block listing every fresh hash, while there is work, or while
        the parent or grandparent lists a hash: the blocks on a listing
        block carry the certificates that finalize it. Else None, and the
        cluster waits for work."""
        tree = self.engine.tree.nodes
        parent = tree.get(parent_digest)
        grandparent = parent and tree.get(parent.parent)
        if not (
            self._has_work()
            or any(b and b.payload and b.payload["hashes"] for b in (parent, grandparent))
        ):
            return None
        # parent/round fields chain the payload so digests are unique per slot
        return {
            "parent": hexify(parent_digest),
            "round": self.engine.current_round,
            "hashes": list(self.fresh.values()),
        }

    def _validate_payload(self, payload, parent_digest):
        # a cluster payload is its parent, its round and the hashes it lists, no more
        if not isinstance(payload, dict) or payload.keys() != {"parent", "round", "hashes"}:
            return False
        if payload["parent"] != hexify(parent_digest) or not isinstance(payload["hashes"], list):
            return False
        try:
            hashes = [bytes.fromhex(h) for h in payload["hashes"]]
        except (TypeError, ValueError):
            return False  # not a list of hex strings
        return validate_append_proposal(hashes, self.pool)

    def _on_cluster_finalize(self, node):
        # every listed hash counts, held or not, so the collection's size and
        # its close depend on the finalized cluster chain alone
        size = len(self.open_collection)
        for h in (bytes.fromhex(x) for x in node.payload["hashes"]):
            if h not in self.included:
                self.open_collection.append(h)
                self.included.add(h)
                self.fresh.pop(h, None)
        if close_trigger(
            len(self.open_collection),
            len(self.open_collection) - size,
            node.round - self.open_round,
            self.d.collection_size_threshold,
            self.d.collection_timespan_rounds,
        ):
            tx_hashes = self.open_collection
            self.open_collection, self.open_round = [], node.round
            if any(h not in self.pool for h in tx_hashes):
                return  # short of a listed text, it would sign a hash no peer shares
            ch = collection_hash(tx_hashes)
            self.store[ch] = [self.pool[h] for h in tx_hashes]
            stub = GuaranteedCollection(ch, self.cluster_index, (), ())
            sig = self.keypair.sign(stub.signed_payload())
            self.sim.event(self.name, "collection_closed", {"hash": hexify(ch), "size": len(tx_hashes)})
            share = GuaranteeShare(ch, self.cluster_index, self.keypair.public, sig)
            self._on_guarantee_share(self.name, share)
            self.send_all(self.peers, share)

    # -- message handling ----------------------------------------------------

    def _on_finalized(self, sender: str, msg: Finalized):
        pb = msg.pb
        self.heights[pb.hash()] = pb.height
        self.next_height = max(self.next_height, pb.height + 1)
        # a finalized MCC against this guarantor asks for the texts: answer
        # each consensus node's copy, sent when that node started adjudicating
        for ch in pb.slashing_challenges:
            if ch.kind == ChallengeKind.MISSING_COLLECTION and self.keypair.public in ch.accused:
                self._serve(ch.evidence[0], [sender])

    def _serve(self, h: bytes, names) -> None:
        """Send the texts of collection `h`, if stored here, to `names`."""
        texts = self.store.get(h)
        if texts is not None:
            self.send_all(names, CollectionResponse(h, tuple(texts)))

    def _ingest(self, tx: SignedTransaction, gossip: bool):
        h = tx.tx_hash()
        if h in self.pool:
            return
        verdict = validate_transaction(
            tx,
            self.heights.get,
            self.next_height,
            self.d.tx_window,
            self.cluster_index,
            len(self.d.clusters),
            self.d.registered_accounts,
        )
        if verdict != TxCheck.OK:
            self.sim.event(self.name, "tx_rejected", {"hash": hexify(h), "reason": verdict.value})
            return
        self.pool[h] = tx
        if gossip:
            self.send_all(self.peers, GossipTx(tx))
        if h not in self.included:  # a text listed before it arrived is ordered already
            self.fresh[h] = hexify(h)
            self.engine.wake()
        self.engine.retry_vote()

    def _on_guarantee_share(self, sender: str, share: GuaranteeShare):
        h = share.collection_hash
        if h not in self.store:
            # only guarantors that hold the texts aggregate
            return
        if share.cluster_index != self.cluster_index:
            return  # its signature covers another cluster's guarantee
        tally = self.shares.get(h) or Tally(self.cluster)
        # once announced, a share would only repeat the guarantee; a repeat
        # or a share from outside the cluster is dropped before its check
        if tally.quorum or not tally.admits(share.signer):
            return
        stub = GuaranteedCollection(h, share.cluster_index, (), ())
        if not crypto.staking_verify(share.signer, stub.signed_payload(), share.signature):
            return
        self.shares[h] = tally
        tally.add(share.signer, share.signature)
        if not tally.quorum:
            return
        gc = GuaranteedCollection(h, self.cluster_index, *tally.certificate())
        self.sim.event(self.name, "collection_guaranteed", {"hash": hexify(h)})
        self.send_all(self.d.consensus_names, GuaranteeAnnounce(gc))
        # a guarantee promises executors the texts; push them before a block lists it
        self._serve(h, self.d.executor_names)


# ---------------------------------------------------------------------------
# Consensus
# ---------------------------------------------------------------------------


class ConsensusNode(Node):
    def __init__(self, sim, name, keypair, directory):
        super().__init__(sim, name, keypair, directory)
        self.tip = genesis_ctx(directory.initial_state)  # context of the last finalized block
        # the tip and its descendants; every other context is dropped
        self.ctxs: dict[bytes, ChainCtx] = {self.tip.digest: self.tip}
        # guarantees not yet on the finalized chain, by collection hash, arrival order
        self.pending_collections: dict[bytes, GuaranteedCollection] = {}
        self.pending_challenges: dict[Any, SlashingChallenge] = {}  # by `challenge_mark`, arrival order
        self.pending_updates: dict[bytes, StateUpdate] = {}  # challenge id -> update
        self.receipts: dict[bytes, ReceiptMsg] = {}  # result hash -> receipt and packages
        # prev result -> successors, the seal index; it drops a sealed result
        # behind the finalized sealed tip (see `_on_finalize`)
        self.results_by_prev: dict[bytes, list[bytes]] = {}
        self.approvals: dict[bytes, Tally] = {}  # result hash -> verifier -> approval
        # block hash -> this committee member's `Finalized` copy for the
        # verifiers, with its beacon share, until a finalized block seals
        # the block
        self.beacon_shares: dict[bytes, Finalized] = {}
        self.fcc_received: set[bytes] = set()  # ids of the FCCs received here
        # result hash -> ids of the FCCs against it, received or in a built block
        self.fcc_ids: dict[bytes, set[bytes]] = {}
        # collection hash -> guarantor -> texts, for each MCC being
        # adjudicated here; freed at its deadline
        self.mcc_responses: dict[bytes, dict[bytes, tuple]] = {}
        self.adjudicated_ids: set[bytes] = set()
        self.finalized_heights: dict[int, bytes] = {}
        # ticks from entering the engine's tree to finality, in finality order
        self.finalization_latencies: list[int] = []
        self.recorded_fcc: dict[bytes, list[SlashingChallenge]] = {}  # by result, chain order

        self.attach_engine(
            [peer for peer in directory.consensus_names if peer != name],
            schedule=directory.consensus_schedule,
            digest_payload=ProtoBlock.hash,
            validate_payload=self._validate_payload,
            make_payload=self._make_payload,
            on_finalize=self._on_finalize,
            on_evidence=self._on_evidence,
        )
        # facts of the finalized prefix, by kind; its blocks are the engine's
        # finalized set, so the digests are not kept twice
        self.final = {kind: set(keys) for kind, keys in self.tip.facts.items()}
        self.final["block"] = self.engine.finalized_set
        self.handlers.update(
            {
                GuaranteeAnnounce: self._on_guarantee_announce,
                ReceiptMsg: self._on_receipt,
                ApprovalMsg: self._on_approval,
                ChallengeMsg: self._on_challenge,
                CollectionResponse: self._on_collection_response,
            }
        )

    def handle(self, sender: str, msg: Any):
        self.handlers.get(type(msg), _ignore)(sender, msg)

    # -- chain contexts --------------------------------------------------------

    def _view(self, ctx: ChainCtx) -> ChainView:
        """This node's view of the chain through `ctx`."""
        return ChainView(
            ctx=ctx,
            tip=self.tip,
            final=self.final,
            fcc_ids=self.fcc_ids,
            fcc_received=self.fcc_received,
            verdicts=self.pending_updates,
            clusters=self.d.clusters,
            verifiers=self.d.verifiers,
        )

    def _ctx_for(self, digest: bytes) -> Optional[ChainCtx]:
        """Chain context for a tree node that descends from the finalized
        tip, built lazily by replaying the payload chain from the nearest
        kept context; None for any other node."""
        chain = []
        while digest not in self.ctxs:
            node = self.engine.tree.nodes.get(digest)
            if (
                node is None
                or not isinstance(node.payload, ProtoBlock)
                or node.payload.height <= self.tip.height
            ):
                return None
            chain.append(node.payload)
            digest = node.parent
        ctx = self.ctxs[digest]
        for pb in reversed(chain):
            ctx = self._build_ctx(pb, ctx)
            if ctx is None:
                return None
        return ctx

    def _build_ctx(self, pb: ProtoBlock, parent: ChainCtx) -> Optional[ChainCtx]:
        """Context of `pb` on `parent`, None when its updates do not apply
        there; the replay is the one kept on the block."""
        digest = pb.hash()
        if digest in self.ctxs:
            return self.ctxs[digest]
        state = pb.replay(parent.state)
        if state is None:
            return None
        fcc = set()
        for ch in pb.slashing_challenges:
            if ch.kind == ChallengeKind.FAULTY_COMPUTATION:
                fcc.add((ch.evidence[0], ch.challenge_id))
                self.fcc_ids.setdefault(ch.evidence[0], set()).add(ch.challenge_id)
        adjudications = [
            u.adjudication for u in pb.protocol_state_updates if u.adjudication is not None
        ]
        ctx = ChainCtx(
            digest=digest,
            height=pb.height,
            state=state,
            sealed_tip=(
                pb.block_seals[-1].execution_result_hash if pb.block_seals else parent.sealed_tip
            ),
            parent=parent,
            facts={
                "block": {digest},
                "collection": {g.collection_hash for g in pb.guaranteed_collections},
                "sealed": {s.execution_result_hash for s in pb.block_seals},
                "challenged": {challenge_mark(ch) for ch in pb.slashing_challenges},
                "fcc": fcc,
                "adjudicated": {a.challenge_id for a in adjudications},
                "upheld": {a.challenge_id for a in adjudications if a.upheld},
            },
        )
        self.ctxs[digest] = ctx
        return ctx

    # -- proposal assembly ---------------------------------------------------

    def _make_payload(self, parent_digest: bytes):
        ctx = self._ctx_for(parent_digest)
        if ctx is None:
            return None  # the parent has not reached this node: wait for it
        view = self._view(ctx)
        collections = [
            gc for h, gc in self.pending_collections.items() if not view.on_chain("collection", h)
        ]
        challenges = [
            ch
            for mark, ch in self.pending_challenges.items()
            if not view.on_chain("challenged", mark)
        ]
        updates = []
        for cid in sorted(self.pending_updates):
            if not view.on_chain("adjudicated", cid):
                updates.append(self.pending_updates[cid])
        seals = self._ready_seals(view)
        return propose_proto_block(
            parent_hash=ctx.digest,
            parent_height=ctx.height,
            parent_protocol_state=ctx.state,
            pending_collections=collections,
            ready_seals=seals,
            pending_challenges=challenges,
            pending_updates=updates,
        )

    def _ready_seals(self, view: ChainView):
        """The seals to list on the chain through `view`: from its sealed
        tip along the receipt chain, at each step the first successor, in
        hash order, whose seal of its intake tally passes condition 8."""
        seals = []
        tip = view.ctx.sealed_tip
        while True:
            for rh in sorted(self.results_by_prev.get(tip, ())):
                result = self.receipts[rh].receipt.execution_result
                seal = form_seal(result, self.approvals.get(rh))
                if seal is not None and validate_seal(seal, view, tip):
                    break
            else:
                return seals
            seals.append(seal)
            tip = rh

    # -- proposal validation ---------------------------------------------------

    def _validate_payload(self, payload, parent_digest: bytes) -> bool:
        if not isinstance(payload, ProtoBlock):
            return False
        ctx = self._ctx_for(parent_digest)
        if ctx is None:
            return False
        ok, reason = evaluate_proposal(payload, self._view(ctx))
        if not ok:
            self.sim.event(self.name, "proposal_rejected", {"reason": reason})
            return False
        self._build_ctx(payload, ctx)
        return True

    # -- finalization pipeline ---------------------------------------------------

    def _on_finalize(self, node):
        pb: ProtoBlock = node.payload
        digest = pb.hash()
        ctx = self._ctx_for(digest)
        if ctx is None:
            return
        self.finalization_latencies.append(self.sim.now - node.seen)
        self.finalized_heights[pb.height] = digest
        self.sim.event(
            self.name,
            "finalized",
            {
                "height": pb.height,
                "hash": hexify(digest),
                "collections": len(pb.guaranteed_collections),
                "seals": [hexify(s.execution_result_hash) for s in pb.block_seals],
            },
        )
        # each sealed result before the new sealed tip has a sealed successor:
        # `_ready_seals` never reads its successors again
        settled = self.tip.sealed_tip
        for seal in pb.block_seals:
            self.results_by_prev.pop(settled, None)
            settled = seal.execution_result_hash
            self.sim.event(
                self.name,
                "sealed",
                {"result": hexify(seal.execution_result_hash), "block": hexify(seal.sealed_block_hash)},
            )
            # no chain through the finalized tip forms this seal again
            self.approvals.pop(seal.execution_result_hash, None)
            self.beacon_shares.pop(seal.sealed_block_hash, None)
        # the block joins the finalized prefix; the engine's finalized set,
        # the prefix's "block" facts, already holds its digest
        final = self.final
        for kind, keys in ctx.facts.items():
            final[kind] |= keys
        # keep the new tip and its descendants; a context is built after its
        # parent, so one pass in insertion order finds them all
        kept = {digest: ctx}
        for d, c in self.ctxs.items():
            if c.parent is not None and c.parent.digest in kept:
                kept[d] = c
        ctx.parent = None
        self.ctxs, self.tip = kept, ctx
        # drop mempool entries now recorded on-chain
        for h in ctx.facts["collection"]:
            self.pending_collections.pop(h, None)
        for mark in list(self.pending_challenges):
            if mark in final["challenged"]:
                del self.pending_challenges[mark]
        for cid in list(self.pending_updates):
            if cid in final["adjudicated"]:
                del self.pending_updates[cid]
        # notify the other roles; only beacon committee members notify the
        # verifiers, whose copy carries the member's share of the block:
        # each verifier recovers the block's signature itself
        self.send_all(self.d.executor_names + self.d.collector_names, Finalized(pb))
        share = self.d.drb_committee.get(self.keypair.public)
        if share is not None:
            sig = crypto.threshold_sign(self.d.params, share, digest)
            self.beacon_shares[digest] = Finalized(pb, sig)
            self._send_share(digest)
        # adjudicate challenges recorded in this block
        for ch in pb.slashing_challenges:
            if ch.kind == ChallengeKind.FAULTY_COMPUTATION:
                self.recorded_fcc.setdefault(ch.evidence[0], []).append(ch)
            self._start_adjudication(ch)

    def _send_share(self, digest: bytes):
        """Send this member's `Finalized` copy of a block, with its beacon
        share, to every verifier, and again every `SHARE_RESEND` base
        timeouts until a finalized block seals the block."""
        copy = self.beacon_shares.get(digest)
        if copy is not None:
            self.send_all(self.d.verifier_names, copy)
            period = SHARE_RESEND * self.d.base_timeout
            self.sim.set_timer(self.name, period, lambda: self._send_share(digest))

    def _accept_challenge(self, ch: SlashingChallenge) -> bool:
        """Keep the challenge for the next proposal unless its mark is
        pending here or challenged on the finalized chain."""
        mark = challenge_mark(ch)
        if mark in self.pending_challenges or mark in self.final["challenged"]:
            return False
        self.pending_challenges[mark] = ch
        return True

    def _on_evidence(self, ev):
        ch = make_pv(ev.proposer, ev.first.payload_digest, ev.second.payload_digest)
        if not self._accept_challenge(ch):
            return
        self.sim.event(
            self.name,
            "equivocation_challenge",
            {"accused": hexify(ev.proposer), "round": ev.round},
        )
        # the engine holds both proposals: adjudicate now, before the chain
        # records the challenge
        self._start_adjudication(ch)

    def _record_adjudication(self, adj: Adjudication, upd: Optional[StateUpdate] = None):
        """Log an adjudication made here; only a slash (`upd`) waits for the chain."""
        if adj.challenge_id in self.adjudicated_ids:
            return
        self.adjudicated_ids.add(adj.challenge_id)
        if upd is not None:
            self.pending_updates[adj.challenge_id] = upd
        self.sim.event(
            self.name,
            "adjudication",
            {
                "id": hexify(adj.challenge_id),
                "outcome": adj.outcome,
                "slashed": [hexify(s) for s in adj.slashed],
            },
        )

    def _start_adjudication(self, ch: SlashingChallenge):
        """Slash amounts are priced from the genesis state, not the chain
        state at the recording block."""
        cid = ch.challenge_id
        if cid in self.adjudicated_ids:
            return
        if ch.kind == ChallengeKind.PROTOCOL_VIOLATION:
            adj, upd = adjudicate_challenge(self.d.initial_state, ch, accused_at_fault=True)
            self._record_adjudication(adj, upd)
        elif ch.kind == ChallengeKind.FAULTY_COMPUTATION:
            msg = self.receipts.get(ch.evidence[0])
            if msg is None:
                return  # disputed receipt not yet received; retried on arrival
            adj, upd = adjudicate_fcc(self.d.initial_state, ch, msg.receipt, msg.packages)
            self._record_adjudication(adj, upd)
        elif ch.kind == ChallengeKind.MISSING_COLLECTION:
            # the accused answer the `Finalized` copy `_on_finalize` sent just
            # before this (`CollectorNode._on_finalized`); the chain records each
            # mark once
            self.mcc_responses[ch.evidence[0]] = {}
            self.sim.set_timer(
                self.name, self.d.mcc_deadline, lambda: self._mcc_deadline(ch)
            )

    def _mcc_deadline(self, ch: SlashingChallenge):
        cid, coll_hash = ch.challenge_id, ch.evidence[0]
        texts = mcc_texts(ch, self.mcc_responses.pop(coll_hash))
        if texts is not None:
            self._record_adjudication(Adjudication(cid, "dismissed", ()))
            # forward the recovered texts to executors still waiting on them
            self.send_all(self.d.executor_names, CollectionResponse(coll_hash, tuple(texts)))
            return
        adj, upd = adjudicate_challenge(self.d.initial_state, ch, accused_at_fault=True)
        self._record_adjudication(adj, upd)
        self.sim.event(self.name, "attestation", {"collection": hexify(coll_hash)})

    # -- message handling ---------------------------------------------------

    def _on_guarantee_announce(self, sender: str, msg: GuaranteeAnnounce):
        h = msg.gc.collection_hash
        if h in self.pending_collections or h in self.final["collection"]:
            return
        # a guarantee condition 6 rejects would sit in every later proposal
        if guarantee_valid(msg.gc, self.d.clusters):
            self.pending_collections[h] = msg.gc

    def _on_approval(self, sender: str, msg: ApprovalMsg):
        a = msg.approval
        if a.result_hash in self.final["sealed"]:
            return
        tally = self.approvals.get(a.result_hash) or Tally(self.d.verifiers)
        # an approval from outside the verifiers is dropped before its check
        if tally.admits(a.verifier) and a.valid():
            self.approvals[a.result_hash] = tally
            tally.add(a.verifier, a)

    def _on_collection_response(self, sender: str, msg: CollectionResponse):
        bucket = self.mcc_responses.get(msg.collection_hash)
        if bucket is not None:
            bucket.setdefault(self.d.key_of[sender], msg.texts)

    def _on_receipt(self, sender: str, msg: ReceiptMsg):
        receipt = msg.receipt
        rh = receipt.execution_result.result_hash()
        if rh in self.receipts or not msg.well_formed() or not receipt.signed():
            return
        self.receipts[rh] = msg
        # as in `_on_finalize`, a sealed result other than the finalized
        # sealed tip has a sealed successor, so its successors get no entry
        prev = receipt.execution_result.previous_execution_result_hash
        if prev not in self.final["sealed"] or prev == self.tip.sealed_tip:
            self.results_by_prev.setdefault(prev, []).append(rh)
        self.sim.event(
            self.name,
            "receipt",
            {"result": hexify(rh), "executor": hexify(receipt.executor)},
        )
        # only a recorded FCC against this result can have waited on it
        for ch in self.recorded_fcc.get(rh, ()):
            self._start_adjudication(ch)

    def _on_challenge(self, sender: str, msg: ChallengeMsg):
        ch = msg.challenge
        if not challenge_valid(ch):
            return
        if ch.kind == ChallengeKind.FAULTY_COMPUTATION:
            self.fcc_received.add(ch.challenge_id)
            self.fcc_ids.setdefault(ch.evidence[0], set()).add(ch.challenge_id)
        if self._accept_challenge(ch):
            self.sim.event(
                self.name,
                "challenge",
                {"kind": ch.kind.value, "id": hexify(ch.challenge_id)},
            )


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class ExecutionNode(Node):
    def __init__(self, sim, name, keypair, directory):
        super().__init__(sim, name, keypair, directory)
        self.blocks: dict[int, ProtoBlock] = {}
        self.next_height = 1
        self.exec_state = ExecutionState()
        self.prev_result_hash = GENESIS_RESULT_HASH
        self.texts: dict[bytes, list[SignedTransaction]] = {}
        self.skipped: set[bytes] = set()
        self.challenged: set[bytes] = set()
        # from finalized blocks, until they pair up: MCC id -> its collection,
        # and upheld challenge ids
        self.mccs: dict[bytes, bytes] = {}
        self.upheld: set[bytes] = set()
        self.handlers.update(
            {
                Finalized: self._on_finalized,
                CollectionResponse: self._on_collection_response,
            }
        )

    def handle(self, sender: str, msg: Any):
        self.handlers.get(type(msg), _ignore)(sender, msg)

    def _on_finalized(self, sender: str, msg: Finalized):
        pb = msg.pb
        if pb.height >= self.next_height and pb.height not in self.blocks:
            self.blocks[pb.height] = pb
            # the guarantors pushed the texts at guarantee; give a late push
            # one wait, then challenge every guarantor of a collection still missing
            for gc in pb.guaranteed_collections:
                if gc.collection_hash not in self.texts:
                    self.sim.set_timer(
                        self.name, self.d.retrieval_timeout, lambda gc=gc: self._challenge(gc)
                    )
            # skip a collection once finalized blocks hold an MCC on it and
            # the update that upholds it, whichever block comes first
            for ch in pb.slashing_challenges:
                if ch.kind == ChallengeKind.MISSING_COLLECTION:
                    self.mccs[ch.challenge_id] = ch.evidence[0]
            for u in pb.protocol_state_updates:
                if u.adjudication is not None and u.adjudication.upheld:
                    self.upheld.add(u.adjudication.challenge_id)
            for cid in self.mccs.keys() & self.upheld:
                self.skipped.add(self.mccs.pop(cid))
                self.upheld.remove(cid)
            self._advance()

    def _advance(self):
        while self.next_height in self.blocks:
            pb = self.blocks[self.next_height]
            for gc in pb.guaranteed_collections:
                if gc.collection_hash not in self.texts and gc.collection_hash not in self.skipped:
                    return
            self._execute(pb)
            del self.blocks[self.next_height]
            self.next_height += 1

    def _challenge(self, gc: GuaranteedCollection):
        """Raise a missing-collection challenge against every guarantor of
        `gc`, once, unless its texts arrived or it is skipped."""
        h = gc.collection_hash
        if h in self.texts or h in self.skipped or h in self.challenged:
            return
        self.challenged.add(h)
        mcc = make_mcc(self.keypair.public, sorted(gc.signers), h)
        self.sim.event(self.name, "mcc_raised", {"collection": hexify(h)})
        self.send_all(self.d.consensus_names, ChallengeMsg(mcc))

    def _on_collection_response(self, sender: str, msg: CollectionResponse):
        if sender not in self.d.collector_names and sender not in self.d.consensus_names:
            return  # texts come from guarantors, and from consensus after an MCC
        h = msg.collection_hash
        if h in self.texts:
            return
        if collection_hash([t.tx_hash() for t in msg.texts]) != h:
            return  # tampered texts; another copy or the challenge settles it
        self.texts[h] = list(msg.texts)
        self._advance()

    def _execute(self, pb: ProtoBlock):
        ordered = [
            self.texts[gc.collection_hash]
            for gc in pb.guaranteed_collections
            if gc.collection_hash in self.texts
        ]
        txs = canonical(ordered)
        out = block_execution(
            pb.hash(), txs, self.prev_result_hash, self.exec_state, self.d.gamma_chunk
        )
        self._publish(pb, out.result, out, txs)

    def _publish(self, pb: ProtoBlock, result: ExecutionResult, out, txs) -> None:
        """Chain on `result`, the result of `pb` that `block_execution` gave
        in `out` for the transactions `txs`, then sign, log and send it."""
        self.exec_state = out.end_state
        self.prev_result_hash = result.result_hash()
        packages = chunk_data_packages(out, txs)
        receipt = ExecutionReceipt(
            execution_result=result,
            spocks=out.spocks,
            executor=self.keypair.public,
            executor_signature=self.keypair.sign(result.result_hash()),
        )
        self.sim.event(
            self.name,
            "executed",
            {"height": pb.height, "result": hexify(result.result_hash()), "txs": len(txs)},
        )
        self.send_all(self.d.consensus_names + self.d.verifier_names, ReceiptMsg(receipt, packages))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


class VerificationNode(Node):
    """Judges each result on its receipts, in arrival order. A receipt
    without its executor's signature over the result, or whose package or
    SPoCK fails a chunk on its own (the signature covers neither), says
    nothing about the result and is dropped: the next receipt is judged
    instead. A result is approved on a receipt that passes every assigned
    chunk and rejected on one whose re-execution disagrees with the
    result's own commitments.

    A result seals only after its previous result, so one this node
    rejected never seals and neither does anything built on it: such
    descendants are not verified, approved or challenged. Each executor
    that signed a rejected result is challenged once, when its previous
    result is approved here."""

    def __init__(self, sim, name, keypair, directory):
        super().__init__(sim, name, keypair, directory)
        self.seeds: dict[bytes, bytes] = {}  # block hash -> randomness seed
        # block hash -> party index -> verified beacon share, until recovery
        self.drb_shares: dict[bytes, dict[int, crypto.SignatureShare]] = {}
        # result hash -> its receipts, in arrival order, awaiting the seed
        self.pending: dict[bytes, list[ReceiptMsg]] = {}
        self.checked: set[bytes] = {GENESIS_RESULT_HASH}  # judged here, and genesis
        self.dead: set[bytes] = set()  # rejected here, and their descendants
        # result rejected here -> (failing chunk, verdict reason)
        self.faults: dict[bytes, tuple[int, str]] = {}
        self.accused: set[tuple[bytes, bytes]] = set()  # (result, signer) challenged or held
        # previous result not yet judged here -> signed receipts of rejected
        # successors, challenged once it is approved
        self.held: dict[bytes, list[ReceiptMsg]] = {}
        self.handlers.update({Finalized: self._on_finalized, ReceiptMsg: self._on_receipt})

    def handle(self, sender: str, msg: Any):
        self.handlers.get(type(msg), _ignore)(sender, msg)

    def _on_finalized(self, sender: str, msg: Finalized):
        """Recover a block's beacon signature from the first t+1 `Finalized`
        copies whose share passes its check against the per-party keys (a
        copy with no share opens no bucket), then seed the block. The
        recovered value is not checked against the group key: it is
        interpolated from t+1 shares of the DKG's degree-t polynomial, each
        checked against that polynomial's commitment, so it is the group
        signature, the one value any t+1 valid shares give."""
        h, share = msg.pb.hash(), msg.share
        if h in self.seeds or share is None or not share.verified(self.d.params, self.d.drb_vv, h):
            return
        bucket = self.drb_shares.setdefault(h, {})
        bucket.setdefault(share.party_index, share)
        if len(bucket) < self.d.params.t + 1:
            return
        sigma = crypto.threshold_recover(self.d.params, self.d.drb_vv, list(bucket.values()), h)
        del self.drb_shares[h]  # later shares stop at `seeds`
        self.seeds[h] = block_seed(sigma.value)
        self.sim.event(self.name, "randomness", {"block": hexify(h)})
        # in the order the results' first receipts arrived
        for rh in list(self.pending):
            self._try_verify(rh)

    def _on_receipt(self, sender: str, msg: ReceiptMsg):
        if not msg.well_formed():
            return
        rh = msg.receipt.execution_result.result_hash()
        if rh in self.faults:
            self._accuse(msg)
        elif rh not in self.checked:
            self.pending.setdefault(rh, []).append(msg)
            self._try_verify(rh)

    def _try_verify(self, rh: bytes):
        receipts = self.pending[rh]
        result = receipts[0].receipt.execution_result
        if result.previous_execution_result_hash in self.dead:
            del self.pending[rh]
            self._reject(rh)
            return
        seed = self.seeds.get(result.block_hash)
        if seed is None:
            return
        del self.pending[rh]
        assigned = sorted(
            assign_chunks(self.keypair.public, len(result.chunks), seed, self.d.coverage_p)
        )
        for msg in receipts:
            receipt = msg.receipt
            if not receipt.signed():
                continue
            for k in assigned:
                verdict = msg.packages[k].verdict(result, k, receipt.spocks[k])
                if not verdict.ok:
                    break
            else:
                self._approve(rh)
                return
            if verdict.result_fault:
                self._reject(rh)
                self.faults[rh] = (k, verdict.reason)
                for signed in receipts:
                    self._accuse(signed)
                return
        # every receipt so far failed on its own; the next one is judged afresh

    def _approve(self, rh: bytes):
        self.checked.add(rh)
        self.sim.event(self.name, "approved", {"result": hexify(rh)})
        approval = Approval(rh, self.keypair.public, self.keypair.sign(approval_payload(rh)))
        self.send_all(self.d.consensus_names, ApprovalMsg(approval))
        for held in self.held.pop(rh, ()):
            self._challenge(held)

    def _reject(self, rh: bytes):
        self.checked.add(rh)
        self.dead.add(rh)
        self.held.pop(rh, None)

    def _accuse(self, msg: ReceiptMsg):
        """Challenge the executor of `msg`, a receipt for a result rejected
        here, if it signed the result: now if the previous result is approved
        here, later if that is not yet judged, and never once that is dead."""
        receipt = msg.receipt
        result = receipt.execution_result
        rh, prev = result.result_hash(), result.previous_execution_result_hash
        key = (rh, receipt.executor)
        if key in self.accused or prev in self.dead or not receipt.signed():
            return
        self.accused.add(key)
        if prev in self.checked:
            self._challenge(msg)
        else:
            self.held.setdefault(prev, []).append(msg)

    def _challenge(self, msg: ReceiptMsg):
        rh = msg.receipt.execution_result.result_hash()
        k, reason = self.faults[rh]
        fcc = make_fcc(
            self.keypair.public, msg.receipt.executor, rh, k, msg.receipt.executor_signature
        )
        self.sim.event(self.name, "fcc_raised", {"result": hexify(rh), "chunk": k, "reason": reason})
        self.send_all(self.d.consensus_names, ChallengeMsg(fcc))


# ---------------------------------------------------------------------------
# Workload
# ---------------------------------------------------------------------------


class UserAgent(Node):
    """Scripted submitter: periodically signs a fresh transaction that
    references the genesis block and sends it to a collector of the
    responsible cluster. It handles no message."""

    def __init__(
        self, sim, name, keypair, directory, interval: int, tx_cost: int, count: Optional[int]
    ):
        super().__init__(sim, name, keypair, directory)
        self.interval = interval
        self.tx_cost = tx_cost
        self.count = count
        self.sent = 0

    def start(self):
        self.sim.set_timer(self.name, self.interval, self._tick)

    def _tick(self):
        if self.count is not None and self.sent >= self.count:
            return
        script = ToyTransaction(
            operations=(
                {
                    "kind": "set_register",
                    "register": f"{self.name}/{self.sent}",
                    "value": "01",
                    "cost": self.tx_cost,
                },
            )
        ).to_script()
        tx = SignedTransaction(
            script=script,
            payer_signature=self.keypair.public + self.keypair.sign(script),
            script_signatures=(),
            reference_block_hash=GENESIS_DIGEST,
        )
        self.sent += 1
        cluster = route_transaction(tx.tx_hash(), len(self.d.clusters))
        members = self.d.clusters[cluster].members
        target = self.d.name_of[members[self.sent % len(members)].staking_public_key]
        self.sim.event(self.name, "tx_submitted", {"hash": hexify(tx.tx_hash()), "cluster": cluster})
        self.sim.send(self.name, target, SubmitTx(tx))
        self.sim.set_timer(self.name, self.interval, self._tick)
