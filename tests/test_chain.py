"""Consensus chain contexts: a finalized-prefix set per node plus one
per-block delta per unfinalized block.

The oracle recomputes every chain fact of a kept context by walking that
block's payload chain to genesis in the engine tree, with the per-chain
rules the contexts implement, and compares each lookup against it."""

import dataclasses
import gc
import weakref
from importlib import resources

import pytest

from flowpipe import blocks
from flowpipe.challenges import ChallengeKind, challenge_mark
from flowpipe.execution import GENESIS_RESULT_HASH
from flowpipe.hotstuff import GENESIS_DIGEST, ConsensusEngine, Proposal
from flowpipe.nodes import ConsensusNode
from flowpipe.scenario import build_world, load_scenario, run_world
from flowpipe.state import apply_updates

FCC = ChallengeKind.FAULTY_COMPUTATION
PV = ChallengeKind.PROTOCOL_VIOLATION


BUNDLED = [
    "happy-path",
    "byzantine-executor",
    "withheld-collection",
    "equivocating-leader",
    "network-partition",
    "pre-gst-chaos",
]


def bundled_world(name: str):
    return build_world(
        load_scenario(str(resources.files("flowpipe") / "scenarios" / f"{name}.json"))
    )


def started_world(name: str):
    world = bundled_world(name)
    for node in (
        world.collectors + world.consensus + world.executors + world.verifiers + world.agents
    ):
        node.start()
    return world


def chain_to_genesis(node: ConsensusNode, digest: bytes) -> list:
    """Payloads from height 1 up to the block `digest`, read from the tree."""
    chain = []
    while digest != GENESIS_DIGEST:
        tree_node = node.engine.tree.nodes[digest]
        chain.append(tree_node.payload)
        digest = tree_node.parent
    return chain[::-1]


def finalized_challenges(node: ConsensusNode) -> list:
    """The challenges the node's finalized blocks record, in chain order."""
    return [ch for pb in chain_to_genesis(node, node.tip.digest) for ch in pb.slashing_challenges]


def received_fcc(books) -> dict:
    """Challenge id -> result hash of every FCC a node (or its chain view)
    received."""
    return {cid: rh for rh, ids in books.fcc_ids.items() for cid in ids if cid in books.fcc_received}


@dataclasses.dataclass
class BruteForce:
    height: int
    state: object
    sealed_tip: bytes
    facts: dict  # kind -> set, for the kinds looked up by key
    open_fcc: dict  # challenge id -> result hash, every recorded FCC
    condemned: set  # results with an upheld FCC recorded before its adjudication


def brute_force(node: ConsensusNode, digest: bytes) -> BruteForce:
    facts = {kind: set() for kind in ("block", "collection", "sealed", "challenged", "adjudicated")}
    facts["sealed"].add(GENESIS_RESULT_HASH)
    open_fcc: dict = {}
    condemned: set = set()
    state = node.d.initial_state
    sealed_tip = GENESIS_RESULT_HASH
    chain = chain_to_genesis(node, digest)
    for pb in chain:
        state = apply_updates(state, pb.protocol_state_updates)
        facts["block"].add(pb.hash())
        facts["collection"].update(g.collection_hash for g in pb.guaranteed_collections)
        facts["sealed"].update(s.execution_result_hash for s in pb.block_seals)
        for ch in pb.slashing_challenges:
            facts["challenged"].add(challenge_mark(ch))
            if ch.kind == FCC:
                open_fcc[ch.challenge_id] = ch.evidence[0]
        for upd in pb.protocol_state_updates:
            if upd.adjudication is not None:
                cid = upd.adjudication.challenge_id
                facts["adjudicated"].add(cid)
                if upd.adjudication.outcome == "accused_slashed" and cid in open_fcc:
                    condemned.add(open_fcc[cid])
        if pb.block_seals:
            sealed_tip = pb.block_seals[-1].execution_result_hash
    return BruteForce(len(chain), state, sealed_tip, facts, open_fcc, condemned)


def brute_force_pending(view: blocks.ChainView, bf: BruteForce, rh: bytes) -> bool:
    """Whether a challenge blocks sealing `rh`: an upheld or unadjudicated
    recorded FCC on the chain, or a received FCC unadjudicated on the chain
    and not dismissed by the node whose view it is."""
    adjudicated = bf.facts["adjudicated"]
    if rh in bf.condemned:
        return True
    if any(r == rh and cid not in adjudicated for cid, r in bf.open_fcc.items()):
        return True
    return any(
        r == rh and cid not in adjudicated and view.fcc_upheld(cid) is not False
        for cid, r in received_fcc(view).items()
    )


def check_against_oracle(world) -> int:
    """Compare every lookup of every kept context with the brute force;
    returns how many nodes hold two kept contexts at one height."""
    forks = 0
    for node in world.consensus:
        oracles = {d: brute_force(node, d) for d in node.ctxs}
        candidates = {kind: set() for kind in ("collection", "sealed", "challenged", "adjudicated")}
        for bf in oracles.values():
            for kind in candidates:
                candidates[kind] |= bf.facts[kind]
        candidates["collection"] |= set(node.pending_collections)
        candidates["sealed"] |= set(node.receipts)
        candidates["adjudicated"] |= (
            node.fcc_received
            | node.adjudicated_ids
            | {ch.challenge_id for ch in finalized_challenges(node)}
        )
        candidates["block"] = {
            d for d, n in node.engine.tree.nodes.items() if n.payload is not None
        }
        fcc_targets = set(received_fcc(node).items())
        for bf in oracles.values():
            fcc_targets |= set(bf.open_fcc.items())
        for digest, ctx in node.ctxs.items():
            bf = oracles[digest]
            view = node._view(ctx)
            assert (ctx.height, ctx.sealed_tip) == (bf.height, bf.sealed_tip), node.name
            assert ctx.state == bf.state, node.name
            for kind, keys in candidates.items():
                for key in keys:
                    assert view.on_chain(kind, key) == (key in bf.facts[kind]), (
                        node.name, kind, key
                    )
            for cid, rh in fcc_targets:
                assert view.on_chain("fcc", (rh, cid)) == (bf.open_fcc.get(cid) == rh)
            for rh in node.receipts:
                condemned = any(
                    view.on_chain("fcc", (rh, cid)) and view.on_chain("upheld", cid)
                    for cid in node.fcc_ids.get(rh, ())
                )
                assert condemned == (rh in bf.condemned), (node.name, rh.hex())
                assert view.result_pending_challenge(rh) == brute_force_pending(
                    view, bf, rh
                ), (node.name, rh.hex())
        heights = [ctx.height for ctx in node.ctxs.values()]
        forks += len(heights) != len(set(heights))
    return forks


def assert_pruned(world) -> None:
    """Each consensus node keeps only its finalized tip and the tip's
    descendants, and no kept context points at a dropped one."""
    for node in world.consensus:
        tip = node.tip
        if node.finalized_heights:
            assert tip.digest == node.finalized_heights[max(node.finalized_heights)]
        assert tip.parent is None
        assert node.ctxs[tip.digest] is tip
        for digest, ctx in node.ctxs.items():
            assert ctx.digest == digest
            if ctx is not tip:
                assert ctx.parent is node.ctxs[ctx.parent.digest], node.name
                assert ctx.height > tip.height
            # the engine tree agrees that the context descends from the tip
            cur = digest
            while cur != tip.digest:
                cur = node.engine.tree.nodes[cur].parent
                assert cur in node.engine.tree.nodes, (node.name, digest.hex())


def inject_sibling(world) -> bool:
    """Hand every consensus node a valid sibling of n0's newest block: an
    empty block on the same parent and justify, proposed for a round no node
    has reached, whose leader, the equivocator, signs it. A node that votes
    there validates it and so keeps two contexts at one height, a fork the
    oracle then checks. False, and nothing sent, when n0's newest context is
    its finalized tip or an empty block itself."""
    n0 = world.consensus[0]
    newest = max(n0.ctxs.values(), key=lambda ctx: ctx.height)
    parent = newest.parent
    if parent is None:
        return False
    sibling = blocks.propose_proto_block(parent.digest, parent.height, parent.state, [], [], [], [])
    if sibling.hash() == newest.digest:
        return False
    (spec,) = world.doc["adversary"]
    equivocator = world.consensus[spec["indices"][0]]
    r = max(node.engine.current_round for node in world.consensus) + 1
    while not equivocator.engine.is_leader(r):
        r += 1
    stub = Proposal(
        r, sibling, sibling.hash(), n0.engine.tree.certified[parent.digest],
        equivocator.keypair.public, b"",
    )
    proposal = dataclasses.replace(stub, signature=equivocator.keypair.sign(stub.signed_bytes()))
    for node in world.consensus:
        node.engine.on_proposal(proposal)
    return True


class TestPruning:
    @pytest.mark.parametrize("name", ["happy-path", "byzantine-executor"])
    def test_only_tip_subtree_kept(self, name):
        world = started_world(name)
        world.sim.run(until=6000)
        assert_pruned(world)
        early = [weakref.ref(ctx) for node in world.consensus for ctx in node.ctxs.values()]
        world.sim.run(until=20000)
        assert_pruned(world)
        for node in world.consensus:
            # the tip and a short unfinalized suffix, not one context per block
            assert len(node.finalized_heights) > 300
            assert len(node.ctxs) <= 12, (node.name, len(node.ctxs))
        # the contexts kept at 6,000 ticks are all below the tips now, and
        # nothing still references them
        gc.collect()
        assert all(ref() is None for ref in early)

    def test_only_own_block_facts(self):
        world = started_world("byzantine-executor")
        world.sim.run(until=6000)
        for node in world.consensus:
            for ctx in node.ctxs.values():
                pb = node.engine.tree.nodes[ctx.digest].payload
                assert ctx.facts["block"] == {pb.hash()}
                assert ctx.facts["collection"] == {
                    g.collection_hash for g in pb.guaranteed_collections
                }
                assert ctx.facts["sealed"] == {s.execution_result_hash for s in pb.block_seals}
                assert ctx.facts["challenged"] == {
                    challenge_mark(ch) for ch in pb.slashing_challenges
                }


class TestOracle:
    @pytest.mark.parametrize(
        "name,horizon",
        [
            ("happy-path", 8000),
            ("byzantine-executor", 8000),
            ("withheld-collection", 8000),
            ("equivocating-leader", 8000),
        ],
    )
    def test_lookups_match_brute_force(self, name, horizon):
        """No bundled run keeps two contexts at one height at a checkpoint, so
        the equivocating-leader run is handed a valid sibling proposal once,
        and the oracle checks the fork it makes."""
        world = started_world(name)
        forks, injected = 0, False
        for t in range(500, horizon + 1, 500):
            world.sim.run(until=t)
            if name == "equivocating-leader" and t >= 2000 and not injected:
                injected = inject_sibling(world)
            forks += check_against_oracle(world)
        if name == "equivocating-leader":
            assert injected and forks, "no checkpoint saw fork contexts"


class TestProposals:
    def test_recorded_protocol_violation_repeat_rejected(self):
        world = started_world("equivocating-leader")
        node = world.consensus[0]
        t = 0
        while not any(ch.kind == PV for ch in finalized_challenges(node)):
            t += 250
            assert t <= 15000, "no protocol-violation challenge recorded"
            world.sim.run(until=t)
        recorded = next(ch for ch in finalized_challenges(node) if ch.kind == PV)
        parent = node.tip.digest
        base = node._make_payload(parent)
        assert node._validate_payload(base, parent)
        repeat = dataclasses.replace(
            base, slashing_challenges=base.slashing_challenges + (recorded,)
        )
        assert not node._validate_payload(repeat, parent)
        last = world.sim.log.records[-1]
        assert (last["node"], last["kind"]) == (node.name, "proposal_rejected")
        assert last["payload"]["reason"] == "condition-9:challenge-unverified"

    def test_block_repeating_a_challenge_rejected(self):
        """A block may list a challenge, or any two challenges of one mark,
        only once."""
        world = started_world("equivocating-leader")
        node = world.consensus[0]
        while True:
            parent = node.tip.digest
            base = node._make_payload(parent)
            if base.slashing_challenges:
                break
            assert world.sim.now < 15000, "no challenge to list"
            world.sim.run(until=world.sim.now + 50)
        assert node._validate_payload(base, parent)
        repeat = dataclasses.replace(
            base, slashing_challenges=base.slashing_challenges + base.slashing_challenges[:1]
        )
        assert not node._validate_payload(repeat, parent)
        last = world.sim.log.records[-1]
        assert last["payload"]["reason"] == "condition-9:challenge-unverified"

    def test_validation_replays_updates_once(self, monkeypatch):
        world = started_world("byzantine-executor")
        node = world.consensus[0]
        # stop while an adjudication waits to be recorded on chain
        while not node.pending_updates:
            assert world.sim.now < 3000, "expected an adjudication by tick 3000"
            world.sim.run(until=world.sim.now + 1)
        parent = node.tip.digest
        pb = node._make_payload(parent)
        assert pb.protocol_state_updates, "expected adjudication updates to replay"
        calls = []

        def counting(state, updates):
            calls.append(len(updates))
            return apply_updates(state, updates)

        monkeypatch.setattr(blocks, "apply_updates", counting)
        assert node._validate_payload(pb, parent)
        assert calls == [len(pb.protocol_state_updates)]
        assert node.ctxs[pb.hash()].state == apply_updates(
            node.tip.state, pb.protocol_state_updates
        )

    def test_leader_waits_for_its_high_qc_block(self, monkeypatch):
        """A leader whose high-QC block has not reached it has no context for
        it, makes no payload and proposes nothing. Once the block arrives it
        proposes on it in the same round, no consensus node rejects that
        proposal, and every consensus node finalizes it. Every other node
        validates and accepts it, unless the proposal joins the node's tree
        after the node entered a later round, or after the node parked a
        child of it: the engine then adds the proposal unvalidated and
        enters the child's round. On happy-path a leader waits five times
        in the run's 30,000 ticks, first n3 in round 10 at tick 455, and
        last n0 in round 307 at tick 16,052; n3's round-10 proposal reaches
        n0 after n0 entered round 11, and n0 does not validate it."""
        waits, made, verdicts, late = [], {}, [], set()
        make_payload, validate_payload = ConsensusNode._make_payload, ConsensusNode._validate_payload
        on_proposal = ConsensusEngine.on_proposal

        def spy_make(self, parent):
            pb = make_payload(self, parent)
            key = (self.name, self.engine.current_round, parent)
            if pb is None:
                assert self._ctx_for(parent) is None
                waits.append(key)
            else:
                made.setdefault(key, pb)
            return pb

        def spy_validate(self, payload, parent):
            ok = validate_payload(self, payload, parent)
            verdicts.append((self.name, payload.hash(), ok))
            return ok

        def spy_on_proposal(self, proposal):
            digest = proposal.payload_digest
            # the node is past the proposal's round, or parked a child of it
            joins_late = digest not in self.tree.nodes and (
                self.current_round > proposal.round or digest in self._orphans
            )
            on_proposal(self, proposal)
            if joins_late and digest in self.tree.nodes:
                late.add((self.keypair.public, digest))

        # the engines bind these methods when the world is built
        monkeypatch.setattr(ConsensusNode, "_make_payload", spy_make)
        monkeypatch.setattr(ConsensusNode, "_validate_payload", spy_validate)
        monkeypatch.setattr(ConsensusEngine, "on_proposal", spy_on_proposal)
        world = started_world("happy-path")
        world.sim.run(until=30_000)
        assert len(waits) >= 5
        for name, round_number, parent in waits:
            pb = made[(name, round_number, parent)]
            assert pb.previous_block_hash == parent
            digest = pb.hash()
            assert not any(d == digest and not ok for _, d, ok in verdicts)
            for node in world.consensus:
                if node.name != name:
                    accepted = (node.name, digest, True) in verdicts
                    assert accepted or (node.keypair.public, digest) in late, node.name
            assert all(digest in node.engine.finalized_set for node in world.consensus)

    @pytest.mark.parametrize("name", BUNDLED)
    def test_no_proposal_off_the_parent_chain(self, name):
        """No bundled run at its default seed has a proposal rejected for not
        extending its parent: a leader proposes only on its high-QC block."""
        world = bundled_world(name)
        run_world(world)
        reasons = {r["payload"]["reason"] for r in world.sim.log.select("proposal_rejected")}
        assert "condition-2:chain-extension" not in reasons


class TestCatchUp:
    def test_node_that_missed_a_proposal_fetches_it(self):
        """Happy-path to 8,000 ticks with only n2's copy of the round-10
        proposal dropped. Without block retrieval n2 parked every later
        proposal behind the missing block: it finalized 6 blocks and held 67
        orphans, while the others finalized 72. Fetching the block from the
        proposer of the first orphan, n2 keeps up with the best node, and
        every orphan an engine holds at a finalization is gone by the first
        finalization of a later delivery to its node. One delivery can
        finalize several blocks: a `BlockResponse` replays the fetched
        chain in round order, and an orphan parked on its last block stays
        parked through the finalizations the earlier blocks make, until
        that block enters the tree later in the same delivery."""
        world = started_world("happy-path")
        consensus = {node.name for node in world.consensus}
        send = world.sim.send

        def lossy(sender, receiver, msg):
            dropped = receiver == "n2" and sender in consensus and isinstance(msg, Proposal)
            if not (dropped and msg.round == 10):
                send(sender, receiver, msg)

        world.sim.send = lossy
        for node in world.consensus:
            engine = node.engine
            # deliveries to the node, and the orphans held at the
            # finalizations of the latest delivery that finalized
            book = {"delivery": 0, "parked_at": 0, "parked": {}}

            def checked_prune(floor, engine=engine, prune=engine._prune, book=book):
                now = {id(p): p for ps in engine._orphans.values() for p in ps}
                if book["parked_at"] != book["delivery"]:
                    parked = book["parked"].keys() & now.keys()
                    assert not parked, "an orphan outlived a finalization"
                    book["parked"], book["parked_at"] = {}, book["delivery"]
                book["parked"].update(now)
                prune(floor)

            engine._prune = checked_prune
            for kind, handler in node.handlers.items():

                def counted(sender, msg, handler=handler, book=book):
                    book["delivery"] += 1
                    handler(sender, msg)

                node.handlers[kind] = counted
        world.sim.run(until=8_000)
        finalized = {node.name: len(node.engine.finalized_set) for node in world.consensus}
        assert finalized["n2"] >= 0.9 * max(finalized.values()), finalized
        assert max(finalized.values()) > 72
