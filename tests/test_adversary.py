"""Short pinned runs for the adversary behaviours no bundled scenario
exercises: silent nodes in every role, stale voters, and an executor that
tampers with one chunk. Each run's event-log digest is pinned, so a change
to how nodes dispatch messages cannot silently change what they do; its
metric rows and the sha256 of its JSON-encoded finalization-latency list
are pinned too, so a change to how metrics are derived cannot silently
change what a run reports.

Three more runs drive node paths no bundled scenario reaches and pin
their outcomes: missing-collection challenges that the guarantors answer
through the finalized chain, once with one consensus node that never
receives the challenges and finalizes them late, and receipts that reach
the observer after the challenges against them. Three check that a consensus node judges a challenge on what the challenge itself
names: a recorded faulty-computation challenge is adjudicated without its
`ChallengeMsg`, on the chunk its digest names, and each equivocation is
challenged once.

The last tests pin what a verifier does with a chain of results built on
one it rejected (nothing, since none of them can ever seal), with the
executors that signed the rejected result (each is challenged once, and
consensus, on arrival and in a block, takes a challenge only against a
signer and upholds it whichever signer's package it keeps), with challenges
that lack their evidence (they are rejected), and with receipts whose own
package or SPoCK fails (they are dropped, and the result is judged on the
next receipt). The executor's signature on a receipt it broadcasts is
checked once, however many nodes receive it.

Six more check intake: a forged guarantee announced to every consensus
node is dropped instead of sitting in every later proposal, a guarantee
share signed from outside the cluster is dropped instead of raising out of
the quorum count, an approval signed by an executor is dropped instead of
sitting in the books of a result it cannot seal, a share signed for another
cluster's index is dropped instead of spoiling the guarantor's
announcement, a proposal copy whose payload does not hash to its signed
digest is ignored instead of splitting finality, and a cluster proposal
whose transaction hashes are not hex strings is rejected instead of raising
out of the run.

A leader that re-lists the seal of a result already sealed has its block
rejected at condition 8 by every honest node, and sealing keeps pace.
Three ways to slash an honest node still work, each pinned by an expected
failure: a leader lists a slash with no adjudication behind it, a block
lists a protocol-violation challenge whose evidence is two made-up digests,
and anyone names an honest verifier as the challenger of a frivolous
faulty-computation challenge."""

import dataclasses
import hashlib
import json
from importlib import resources

import pytest

from flowpipe import crypto, nodes
from flowpipe.blocks import Approval, approval_payload, guarantee_valid, propose_proto_block
from flowpipe.challenges import ChallengeKind, challenge_id, make_fcc, make_mcc, make_pv
from flowpipe.collection import ClusterBlock, GuaranteedCollection
from flowpipe.hotstuff import GENESIS_DIGEST, Proposal
from flowpipe.nodes import (
    ApprovalMsg,
    ChallengeMsg,
    CollectionResponse,
    Finalized,
    GuaranteeAnnounce,
    GuaranteeShare,
    ReceiptMsg,
)
from flowpipe.scenario import (
    build_world,
    evaluate_properties,
    load_scenario,
    merge_defaults,
    run_world,
)
from flowpipe.state import Slash, StateUpdate
from flowpipe.verification import ChunkDataPackage

SILENT = {"collector": [1], "consensus": [6], "execution": [1], "verification": [1]}

CASES = {
    "non_responsive": (
        [{"behavior": "non_responsive", "role": role, "indices": idx} for role, idx in SILENT.items()],
        "1507c8990a17252a965c332fd176e98ec7c9295a420a89bfd21f8072a84ec286",
    ),
    "stale_vote": (
        [{"behavior": "stale_vote", "role": "consensus", "indices": [1, 2]}],
        "881a169565d6309a3bae04270a96c88e89901daa082c13b378a64533c39a6718",
    ),
    "faulty_execution_target_chunk": (
        [{"behavior": "faulty_execution", "role": "execution", "indices": [1], "target_chunk": 0}],
        "296a13e9c42d565a631ef3396f89f2e2a620b6cec9894d5c8cbcfc1782bdbe7b",
    ),
}

# case -> (metric rows, sha256 of json.dumps(finalization_latencies))
METRICS = {
    "non_responsive": (
        [
            ("blocks_finalized", 25),
            ("blocks_sealed", 23),
            ("collections_guaranteed", 19),
            ("challenges", 0),
            ("slashes", 0),
            ("mean_finalization_latency", 258.64),
            ("max_finalization_latency", 1936),
        ],
        "e4856051a6b6e66275142588caf5b916d2849321c88ea18647f554ab7e14606c",
    ),
    "stale_vote": (
        [
            ("blocks_finalized", 85),
            ("blocks_sealed", 82),
            ("collections_guaranteed", 28),
            ("challenges", 0),
            ("slashes", 0),
            ("mean_finalization_latency", 137.81176470588235),
            ("max_finalization_latency", 197),
        ],
        "f79b73ba44957d1881aa3a9cc50d25948ba14a3bfec43811abfdcf1a5cbf5a41",
    ),
    "faulty_execution_target_chunk": (
        [
            ("blocks_finalized", 115),
            ("blocks_sealed", 111),
            ("collections_guaranteed", 28),
            ("challenges", 1),
            ("slashes", 1),
            ("mean_finalization_latency", 102.8),
            ("max_finalization_latency", 158),
        ],
        "ee54d166740c9b39ce99bc1ffe2da7e9236841d3c969387f9c8286596d456db8",
    ),
}


def short_run(adversary):
    doc = merge_defaults(
        {
            "transactions": {"count": 30, "interval": 100},
            "adversary": adversary,
            "run": {"seed": 1, "max_sim_time": 6000},
            "checks": {"safety": True, "no_faulty_seals": True},
        }
    )
    world = build_world(doc)
    senders = []
    real_send = world.sim.send

    def send(sender, receiver, message):
        senders.append(sender)
        real_send(sender, receiver, message)

    world.sim.send = send
    run_world(world)
    return world, senders


@pytest.mark.parametrize("case", sorted(CASES))
def test_adversary_run_pinned(case):
    adversary, want = CASES[case]
    world, senders = short_run(adversary)
    report = evaluate_properties(world)
    assert report["passed"], report["properties"]
    assert hashlib.sha256(world.sim.log.to_jsonl().encode()).hexdigest() == want
    rows, latencies = METRICS[case]
    assert world.metrics.rows() == rows
    lat = json.dumps(world.metrics.finalization_latencies)
    assert hashlib.sha256(lat.encode()).hexdigest() == latencies
    if case == "non_responsive":
        silent = {
            "collector": world.collectors,
            "consensus": world.consensus,
            "execution": world.executors,
            "verification": world.verifiers,
        }
        names = {silent[role][i].name for role, idx in SILENT.items() for i in idx}
        assert not names & set(senders)
        assert not names & {r["node"] for r in world.sim.log.records}


def answering_world():
    """The default world at 8,000 ticks, unrun, whose cluster 0 collectors
    serve collection texts only to consensus nodes: they push none to
    executors, and answer a finalized missing-collection challenge."""
    doc = merge_defaults(
        {"run": {"max_sim_time": 8000}, "checks": {"safety": True, "no_faulty_seals": True}}
    )
    world = build_world(doc)
    consensus = {node.name for node in world.consensus}
    for collector in world.collectors:
        if collector.cluster_index == 0:
            collector._serve = lambda h, names, serve=collector._serve: serve(
                h, [name for name in names if name in consensus]
            )
    return world


def test_answered_mcc_dismissed():
    """Executors raise missing-collection challenges against cluster 0's
    guarantors, which push them nothing. Each guarantor answers every
    consensus node's `Finalized` copy of a block that lists a challenge
    against it, by sending that node the texts; each challenge is dismissed
    without a slash, and consensus forwards the recovered texts to the
    executors, which then execute every collection instead of skipping it."""
    world = answering_world()
    consensus = {node.name for node in world.consensus}
    forwarded = set()
    real_send = world.sim.send

    def send(sender, receiver, message):
        if sender in consensus and isinstance(message, CollectionResponse):
            forwarded.add(receiver)
        real_send(sender, receiver, message)

    world.sim.send = send
    run_world(world)
    report = evaluate_properties(world)
    assert report["passed"], report["properties"]
    log = world.sim.log
    assert len(log.select("mcc_raised")) == 14
    assert [r["payload"]["outcome"] for r in log.select("adjudication")] == ["dismissed"] * 49
    assert world.metrics.slashes == 0
    assert world.metrics.blocks_sealed == 148
    assert not log.select("attestation")
    assert forwarded == {node.name for node in world.executors}
    assert all(not node.skipped for node in world.executors)


def test_late_finalizer_without_the_challenge_dismisses():
    """As in `test_answered_mcc_dismissed`, but n3 drops every `ChallengeMsg`,
    so no missing-collection challenge is ever pending at n3, and n3
    finalizes the first block that lists one, and every block after it,
    only once every other consensus node has adjudicated that challenge. A
    guarantor answers each consensus node's own `Finalized` copy, so n3
    still gets the texts after it finalizes, and dismisses every challenge
    as the other nodes do. A consensus node holds a response bucket only
    until the challenge's deadline: once every deadline has passed none is
    left, and neither a response for a hash no challenge names nor a late
    one makes a new one."""
    world = answering_world()
    n3, others = world.consensus[3], world.consensus[:3] + world.consensus[4:]
    n3.handlers[ChallengeMsg] = lambda sender, msg: None
    finalize = n3.engine.on_finalize
    held, released = [], []  # finalizations held back; (the MCC's mark, n3's state then)

    def mccs(node) -> list:
        challenges = node.payload.slashing_challenges
        return [ch for ch in challenges if ch.kind == ChallengeKind.MISSING_COLLECTION]

    def release_once_adjudicated():
        if held and all(mccs(held[0])[0].challenge_id in adjudications(world, o) for o in others):
            mark = mccs(held[0])[0].evidence[0]
            released.append((mark, mark in n3.pending_challenges or mark in n3.mcc_responses))
            n3.engine.on_finalize = finalize
            for node in held:
                finalize(node)
            held.clear()

    def holding(node):
        if held or mccs(node):
            held.append(node)
        else:
            finalize(node)

    def adjudicating(record):
        def record_then_release(*args):
            record(*args)
            release_once_adjudicated()

        return record_then_release

    for other in others:
        other._record_adjudication = adjudicating(other._record_adjudication)
    n3.engine.on_finalize = holding
    run_world(world)
    [(settled, known)] = released
    assert not known
    mine, theirs = adjudications(world, n3), adjudications(world, world.consensus[0])
    assert len(mine) == 7 and mine == theirs
    assert set(mine.values()) == {"dismissed"}
    assert world.metrics.slashes == 0
    assert all(not node.mcc_responses for node in world.consensus)
    [guarantor] = [c for c in world.collectors if settled in c.store][:1]
    n3.handle(guarantor.name, CollectionResponse(crypto.hash("junk", b""), ()))
    n3.handle(guarantor.name, CollectionResponse(settled, tuple(guarantor.store[settled])))
    assert not n3.mcc_responses


def test_late_receipts_adjudicated_on_arrival():
    """byzantine-executor with every receipt reaching observer n0 1,500 ticks
    late: n0 records the run's two faulty-computation challenges, one per
    tampering executor, before it holds the disputed receipt, waits, and
    adjudicates each one when the receipt arrives, with the outcome n1
    reaches."""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "byzantine-executor.json"))
    doc["run"]["max_sim_time"] = 8000
    world = build_world(doc)
    n0, n1 = world.consensus[0], world.consensus[1]
    on_receipt = n0.handlers[ReceiptMsg]
    n0.handlers[ReceiptMsg] = lambda sender, msg: world.sim.schedule(
        1500, lambda: on_receipt(sender, msg)
    )
    # adjudication attempts that find the disputed receipt still missing;
    # each returns and is retried when the receipt arrives
    waits = 0
    start_adjudication = n0._start_adjudication

    def counting(challenge):
        nonlocal waits
        if (
            challenge.kind == ChallengeKind.FAULTY_COMPUTATION
            and challenge.evidence[0] not in n0.receipts
        ):
            waits += 1
        start_adjudication(challenge)

    n0._start_adjudication = counting
    run_world(world)
    report = evaluate_properties(world)
    assert report["passed"], report["properties"]
    assert waits == 2

    mine, theirs = adjudications(world, n0), adjudications(world, n1)
    # every recorded challenge whose receipt has arrived is adjudicated
    arrived = {cid for cid, ch in recorded_fccs(n0).items() if ch.evidence[0] in n0.receipts}
    assert len(arrived) == 2 and arrived <= set(mine)
    assert all(mine[cid] == theirs[cid] for cid in arrived)


def recorded_fccs(node) -> dict:
    """The faulty-computation challenges in the node's finalized blocks, by
    id."""
    blocks = [node.engine.tree.nodes[d].payload for d in node.finalized_heights.values()]
    return {
        ch.challenge_id: ch
        for pb in blocks
        for ch in pb.slashing_challenges
        if ch.kind == ChallengeKind.FAULTY_COMPUTATION
    }


def adjudications(world, node) -> dict:
    return {
        bytes.fromhex(r["payload"]["id"]): r["payload"]["outcome"]
        for r in world.sim.log.select("adjudication")
        if r["node"] == node.name
    }


def test_recorded_fcc_adjudicated_without_its_challenge_msg():
    """byzantine-executor with observer n0 never handling a `ChallengeMsg`:
    a recorded faulty-computation challenge names its result and chunk, so
    n0 adjudicates each one whose receipt it holds, with n1's outcome."""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "byzantine-executor.json"))
    doc["run"]["max_sim_time"] = 8000
    world = build_world(doc)
    n0, n1 = world.consensus[0], world.consensus[1]
    del n0.handlers[ChallengeMsg]
    run_world(world)
    recorded = {cid for cid, ch in recorded_fccs(n0).items() if ch.evidence[0] in n0.receipts}
    mine, theirs = adjudications(world, n0), adjudications(world, n1)
    assert recorded
    assert {cid: mine.get(cid) for cid in recorded} == {cid: theirs[cid] for cid in recorded}
    assert not world.sim.log.select("challenge", n0.name)


def test_fcc_judged_on_the_chunk_it_names():
    """An FCC names its chunk by digest in `evidence[1]`: one naming no
    chunk of the result is adjudicated like a clean replay, and one naming
    chunk 1 is judged on chunk 1's package. Executor e1 tampers with chunk 1
    of its results; n1 judges challenges against a multi-chunk one at tick
    3,000."""
    doc = merge_defaults(
        {
            "execution_params": {"gamma_chunk": 3},
            "transactions": {"interval": 100},
            "adversary": [
                {
                    "behavior": "faulty_execution",
                    "role": "execution",
                    "indices": [1],
                    "target_chunk": 1,
                }
            ],
        }
    )
    world = build_world(doc)
    for role in (world.collectors, world.consensus, world.executors, world.verifiers, world.agents):
        for node in role:
            node.start()
    world.sim.run(until=3000)
    n1, liar, verifier = world.consensus[1], world.executors[1], world.verifiers[0]
    receipt = next(
        m.receipt
        for m in n1.receipts.values()
        if m.receipt.executor == liar.keypair.public and len(m.receipt.execution_result.chunks) > 1
    )
    rh = receipt.execution_result.result_hash()
    outcomes = []
    past_last = len(receipt.execution_result.chunks)
    for k in (past_last, 0, 1):  # past the last chunk, an honest chunk, the tampered one
        fcc = make_fcc(
            verifier.keypair.public, liar.keypair.public, rh, k, receipt.executor_signature
        )
        n1.handle(verifier.name, ChallengeMsg(fcc))
        n1._start_adjudication(fcc)  # as when a block records it
        outcomes.append(n1.pending_updates[fcc.challenge_id].adjudication.outcome)
    assert outcomes == ["challenger_slashed", "challenger_slashed", "accused_slashed"]


def test_each_equivocation_challenged_once(monkeypatch):
    """On bundled equivocating-leader the equivocator sends one pair of
    proposals in several rounds. Each pair is one challenge: no finalized
    block lists a challenge twice, and each node logs one `challenge` per
    pair."""
    logged = []  # (node, accused, pair of payload digests) per record
    on_evidence = nodes.ConsensusNode._on_evidence

    def recording(self, ev):
        before = len(self.sim.log.records)
        on_evidence(self, ev)
        pair = tuple(sorted((ev.first.payload_digest, ev.second.payload_digest)))
        for r in self.sim.log.records[before:]:
            if r["kind"] == "challenge":
                logged.append((self.name, ev.proposer, pair))

    monkeypatch.setattr(nodes.ConsensusNode, "_on_evidence", recording)
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "equivocating-leader.json"))
    world = build_world(doc)
    run_world(world)
    assert logged and len(logged) == len(set(logged))
    for node in world.consensus:
        for digest in node.finalized_heights.values():
            pb = node.engine.tree.nodes[digest].payload
            ids = [ch.challenge_id for ch in pb.slashing_challenges]
            assert len(ids) == len(set(ids)), node.name


def test_each_recorded_challenge_adjudicated_once_after_its_block():
    """equivocating-leader to 8,000 ticks. A node settles a challenge only
    once its finalized chain records it, its own engine's equivocation
    evidence included: each consensus node logs exactly one `adjudication`
    per challenge its finalized chain records, and none for any other, and
    every slash on n0's finalized chain sits in a later block than the
    challenge it settles."""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "equivocating-leader.json"))
    doc["run"]["max_sim_time"] = 8000
    world = build_world(doc)
    run_world(world)
    for node in world.consensus:
        chain = [
            node.engine.tree.nodes[node.finalized_heights[h]].payload
            for h in sorted(node.finalized_heights)
        ]
        recorded = sorted(ch.challenge_id for pb in chain for ch in pb.slashing_challenges)
        assert len(recorded) > 1, node.name
        logged = world.sim.log.select("adjudication", node.name)
        assert sorted(bytes.fromhex(r["payload"]["id"]) for r in logged) == recorded, node.name
        if node is world.consensus[0]:
            height = {ch.challenge_id: pb.height for pb in chain for ch in pb.slashing_challenges}
            slashes = [
                (pb.height, u.adjudication.challenge_id)
                for pb in chain
                for u in pb.protocol_state_updates
                if u.adjudication is not None
            ]
            assert len(slashes) > 1
            assert all(h > height[cid] for h, cid in slashes), slashes


def hand_beacon(world, verifier, pb) -> None:
    """Hand `verifier` the `Finalized` copies of block `pb` of t+1 beacon
    committee members, each with the member's share, from which it
    recovers the block's seed."""
    d = world.directory
    for key, share in list(d.drb_committee.items())[: d.params.t + 1]:
        verifier.handle(d.name_of[key], Finalized(pb, crypto.threshold_sign(d.params, share, pb.hash())))


def two_block_receipts(randomness=True):
    """A world whose executors e1 and e2 tamper, each executor's receipts to
    verifier v0 for two empty finalized blocks, and the captured sends, with
    v0 holding the randomness of both blocks unless `randomness` is false."""
    doc = merge_defaults(
        {
            "roles": {"execution": 3},
            "adversary": [{"behavior": "faulty_execution", "role": "execution", "indices": [1, 2]}],
        }
    )
    world = build_world(doc)
    verifier = world.verifiers[0]
    sent = []
    world.sim.send = lambda sender, receiver, msg: sent.append((sender, receiver, msg))
    state = world.directory.initial_state
    pb1 = propose_proto_block(GENESIS_DIGEST, 0, state, [], [], [], [])
    pb2 = propose_proto_block(pb1.hash(), 1, state, [], [], [], [])
    for pb in (pb1, pb2):
        for executor in world.executors:
            executor.handle(world.consensus[0].name, Finalized(pb))
    receipts = [
        [m for s, r, m in sent if s == executor.name and r == verifier.name]
        for executor in world.executors
    ]
    sent.clear()
    for pb in (pb1, pb2) if randomness else ():
        hand_beacon(world, verifier, pb)
    return world, verifier, receipts, sent


def challenges(sent) -> list:
    return [
        (m.challenge.evidence[0], m.challenge.accused)
        for _, _, m in sent
        if isinstance(m, ChallengeMsg)
    ]


@pytest.mark.parametrize("successor_first", [False, True])
def test_verifier_challenges_only_the_first_result_of_a_dead_chain(monkeypatch, successor_first):
    """An honest and two tampering executors each execute two finalized
    blocks. The tamperers sign the same results, and the second, r2, builds
    on the first, r1. A verifier challenges r1 once per tamperer and nothing
    for r2, whichever receipt reaches it first; in order, it never verifies
    r2. The honest chain is approved."""
    world, verifier, (honest_chain, *tampered), sent = two_block_receipts()
    honest, liars = world.executors[0], world.executors[1:]
    r1, r2 = (m.receipt.execution_result for m in tampered[0])
    assert r2.previous_execution_result_hash == r1.result_hash()
    assert [m.receipt.execution_result for m in tampered[1]] == [r1, r2]
    verified = []
    assign_chunks = nodes.assign_chunks

    def counting(verifier_key, chunk_count, seed, p):
        verified.append(seed)
        return assign_chunks(verifier_key, chunk_count, seed, p)

    monkeypatch.setattr(nodes, "assign_chunks", counting)
    for msg in honest_chain:
        verifier.handle(honest.name, msg)
    for liar, chain in zip(liars, tampered):
        for msg in chain[::-1] if successor_first else chain:
            verifier.handle(liar.name, msg)

    approved = {m.approval.result_hash for _, _, m in sent if isinstance(m, ApprovalMsg)}
    assert challenges(sent) == [
        (r1.result_hash(), (liar.keypair.public,))
        for liar in liars
        for _ in world.consensus
    ]
    assert approved == {m.receipt.execution_result.result_hash() for m in honest_chain}
    assert len(verified) == (4 if successor_first else 3)
    # receipts for the dead chain arriving again change nothing, and a
    # receipt that names the honest executor without its signature draws no
    # challenge against it
    sent.clear()
    forged = dataclasses.replace(
        tampered[0][0],
        receipt=dataclasses.replace(tampered[0][0].receipt, executor=honest.keypair.public),
    )
    for msg in tampered[0] + tampered[1] + [forged]:
        verifier.handle(liars[0].name, msg)
    assert not sent


@pytest.mark.parametrize("tampered_first", [False, True])
def test_verifier_judges_waiting_results_in_arrival_order(tampered_first):
    """The honest executor's and a tamperer's receipts for the first block
    reach verifier v0 before the block's randomness. Once it arrives, v0
    judges the two results in the order their receipts arrived, not in hash
    order: its sends for the first to arrive go out first."""
    world, verifier, (honest_chain, tampered, _), sent = two_block_receipts(randomness=False)
    arrivals = [(world.executors[0], honest_chain[0]), (world.executors[1], tampered[0])]
    if tampered_first:
        arrivals.reverse()
    for executor, msg in arrivals:
        verifier.handle(executor.name, msg)
    assert not sent
    block = propose_proto_block(GENESIS_DIGEST, 0, world.directory.initial_state, [], [], [], [])
    assert block.hash() == honest_chain[0].receipt.execution_result.block_hash
    hand_beacon(world, verifier, block)
    kinds = [type(m) for _, _, m in sent]
    first, second = (ChallengeMsg, ApprovalMsg) if tampered_first else (ApprovalMsg, ChallengeMsg)
    n = len(world.consensus)
    assert kinds == [first] * n + [second] * n


@pytest.mark.parametrize("forgery", ["copied-spock", "signed-spock", "bad-proof"])
def test_receipt_faults_leave_the_result_open(forgery):
    """A receipt for the honest executor's first result whose own SPoCK or
    package fails reaches the verifier first: a copy of the honest receipt
    (whose signature covers only the result) or a receipt the tamperer e1
    signs. The verifier drops it and challenges nobody, then approves the
    honest chain on the honest receipts that follow: the first result and
    the second, built on it."""
    world, verifier, (honest_chain, _, _), sent = two_block_receipts()
    honest, liar = world.executors[0], world.executors[1]
    first = honest_chain[0]
    good = first.receipt
    rh = good.execution_result.result_hash()
    wrong_spock = (b"\x01" * 32,) + good.spocks[1:]
    unproven = ChunkDataPackage(registers={b"\x02" * 32: b"\x03"}, proofs={}, transactions=())
    forged, reason = {
        "copied-spock": (
            ReceiptMsg(dataclasses.replace(good, spocks=wrong_spock), first.packages),
            "trace-mismatch",
        ),
        "signed-spock": (
            ReceiptMsg(
                dataclasses.replace(
                    good,
                    spocks=wrong_spock,
                    executor=liar.keypair.public,
                    executor_signature=liar.keypair.sign(rh),
                ),
                first.packages,
            ),
            "trace-mismatch",
        ),
        "bad-proof": (ReceiptMsg(good, (unproven,) + first.packages[1:]), "state-proof-failure"),
    }[forgery]
    verdict = forged.packages[0].verdict(good.execution_result, 0, forged.receipt.spocks[0])
    assert (verdict.ok, verdict.reason) == (False, reason)
    verifier.handle(liar.name, forged)
    assert not sent and rh not in verifier.checked
    for msg in honest_chain:
        verifier.handle(honest.name, msg)
    approved = {m.approval.result_hash for _, _, m in sent if isinstance(m, ApprovalMsg)}
    assert approved == {m.receipt.execution_result.result_hash() for m in honest_chain}
    assert not challenges(sent) and not verifier.dead


def test_verifier_judges_a_result_only_on_signed_receipts():
    """A copy of the tamperer's receipt without its signature neither
    rejects the faulty result nor draws a challenge; the signed receipt that
    follows does both."""
    world, verifier, (_, liar_chain, _), sent = two_block_receipts()
    liar = world.executors[1]
    signed = liar_chain[0]
    rh = signed.receipt.execution_result.result_hash()
    unsigned = dataclasses.replace(
        signed, receipt=dataclasses.replace(signed.receipt, executor_signature=b"\x00" * 32)
    )
    verifier.handle(liar.name, unsigned)
    assert not sent and rh not in verifier.checked
    verifier.handle(liar.name, signed)
    assert challenges(sent) == [(rh, (liar.keypair.public,))] * len(world.consensus)


def test_receipt_without_a_package_per_chunk_is_dropped():
    """A receipt with no chunk data packages is dropped on arrival at a
    verifier and at a consensus node, without raising; the well-formed
    receipt for the same result is then judged and kept as usual."""
    world, verifier, (honest_chain, _, _), sent = two_block_receipts()
    honest, n0 = world.executors[0], world.consensus[0]
    first = honest_chain[0]
    rh = first.receipt.execution_result.result_hash()
    empty = dataclasses.replace(first, packages=())
    for node in (verifier, n0):
        node.handle(honest.name, empty)
    assert not sent and rh not in verifier.checked and rh not in n0.receipts
    for node in (verifier, n0):
        node.handle(honest.name, first)
    assert n0.receipts[rh] is first
    assert {m.approval.result_hash for _, _, m in sent if isinstance(m, ApprovalMsg)} == {rh}


def test_one_signature_check_per_broadcast_receipt(monkeypatch):
    """An executor sends one receipt object to every consensus node and every
    verifier; its signature is checked once (`ExecutionReceipt.signed`),
    by whichever receiver reads it first."""
    world = build_world(merge_defaults({}))
    e0 = world.executors[0]
    sent = []
    world.sim.send = lambda sender, receiver, msg: sent.append((receiver, msg))
    pb = propose_proto_block(GENESIS_DIGEST, 0, world.directory.initial_state, [], [], [], [])
    e0.handle(world.consensus[0].name, Finalized(pb))
    deliveries = [(r, m) for r, m in sent if isinstance(m, ReceiptMsg)]
    receivers = world.consensus + world.verifiers
    assert sorted(r for r, _ in deliveries) == sorted(n.name for n in receivers)
    assert len({id(m) for _, m in deliveries}) == 1
    for verifier in world.verifiers:  # each verifier judges the receipt on arrival
        hand_beacon(world, verifier, pb)
    checked = []
    real = crypto.staking_verify
    monkeypatch.setattr(crypto, "staking_verify", lambda *args: checked.append(args) or real(*args))
    sent.clear()
    by_name = {n.name: n for n in receivers}
    for receiver, msg in deliveries:
        by_name[receiver].handle(e0.name, msg)
    receipt = deliveries[0][1].receipt
    rh = receipt.execution_result.result_hash()
    assert checked == [(e0.keypair.public, rh, receipt.executor_signature)]
    assert all(rh in n.receipts for n in world.consensus)
    assert sum(isinstance(m, ApprovalMsg) for _, m in sent) == len(world.verifiers) * len(world.consensus)


def test_consensus_upholds_each_signers_challenge_on_either_package():
    """The tamperers e1 and e2 sign the same faulty result, and e1's receipt
    carries a wrong SPoCK as well. A verifier that judges e1's receipt first
    rejects the result on its own commitments and challenges both signers.
    Consensus adjudicates each challenge against the one receipt it keeps for
    the result, e1's at n0 and e2's at n1; both nodes slash each accused and
    never the challenger."""
    world, verifier, (_, e1_chain, e2_chain), sent = two_block_receipts()
    e1, e2 = world.executors[1:]
    n0, n1 = world.consensus[:2]
    theirs = e1_chain[0].receipt
    wrong_spock = (b"\x01" * 32,) + theirs.spocks[1:]
    e1_receipt = ReceiptMsg(dataclasses.replace(theirs, spocks=wrong_spock), e1_chain[0].packages)
    e2_receipt = e2_chain[0]
    assert e1_receipt.receipt.execution_result == e2_receipt.receipt.execution_result
    verifier.handle(e1.name, e1_receipt)
    verifier.handle(e2.name, e2_receipt)
    fccs = [m for _, r, m in sent if r == n0.name and isinstance(m, ChallengeMsg)]
    assert [m.challenge.accused for m in fccs] == [(e1.keypair.public,), (e2.keypair.public,)]
    arrivals = ((e1.name, e1_receipt), (e2.name, e2_receipt))
    for node, order in ((n0, arrivals), (n1, arrivals[::-1])):
        for name, msg in order:
            node.handle(name, msg)
        kept = order[0][1]
        assert node.receipts[theirs.execution_result.result_hash()] is kept
        for m in fccs:
            node.handle(verifier.name, m)
            node._start_adjudication(m.challenge)  # as when a block records it
        outcomes = [
            node.pending_updates[m.challenge.challenge_id].adjudication for m in fccs
        ]
        assert [(a.outcome, a.slashed) for a in outcomes] == [
            ("accused_slashed", (e1.keypair.public,)),
            ("accused_slashed", (e2.keypair.public,)),
        ]


def forged_fccs(world, verifier, receipt) -> list:
    """FCCs against the liar's faulty result that no signer stands behind:
    the honest executor named with the liar's signature or with none, the
    liar named with no signature, and the liar and the honest executor named
    together; the last item is the one FCC the liar's signature stands
    behind."""
    honest, liar = world.executors[0].keypair.public, world.executors[1].keypair.public
    rh = receipt.execution_result.result_hash()
    signature = receipt.executor_signature
    out = [
        make_fcc(verifier.keypair.public, accused, rh, 0, sig)
        for accused, sig in ((honest, signature), (honest, b""), (liar, b""), (liar, signature))
    ]
    pair = dataclasses.replace(out[-1], accused=(liar, honest))
    out.insert(-1, dataclasses.replace(pair, challenge_id=challenge_id(pair)))
    return out


def test_consensus_records_fcc_only_against_a_signer():
    """A faulty-computation challenge carries the accused executor's
    signature over the result in `evidence[2]`. One that names an executor
    which never signed the result, or names two, is dropped, so no node can
    have the honest executor slashed for another's fault."""
    world, verifier, (_, liar_chain, _), _ = two_block_receipts()
    n0 = world.consensus[0]
    receipt = liar_chain[0].receipt
    rh = receipt.execution_result.result_hash()
    fccs = forged_fccs(world, verifier, receipt)
    for fcc in fccs:
        n0.handle(verifier.name, ChallengeMsg(fcc))
    assert [ch.accused for ch in n0.pending_challenges.values()] == [
        (world.executors[1].keypair.public,)
    ]
    # a dropped challenge leaves no trace that could block a seal: the held
    # one blocks the result until the chain records its mark, and the chain
    # records none yet
    assert not any(ctx.facts["fcc"] for ctx in n0.ctxs.values())
    assert n0._view(n0.tip).result_pending_challenge(rh)


def test_chain_records_fcc_only_against_a_signer():
    """A block that lists an FCC naming an executor which never signed the
    disputed result, or naming two executors, fails condition 9 at every
    consensus node, so a leader cannot have the honest executor slashed
    either; a block listing the liar's signed FCC passes."""
    world, verifier, (_, liar_chain, _), _ = two_block_receipts()
    state = world.directory.initial_state
    *forged, signed = forged_fccs(world, verifier, liar_chain[0].receipt)
    for node in world.consensus:
        for fcc in forged:
            pb = propose_proto_block(GENESIS_DIGEST, 0, state, [], [], [fcc], [])
            assert not node._validate_payload(pb, GENESIS_DIGEST)
        pb = propose_proto_block(GENESIS_DIGEST, 0, state, [], [], [signed], [])
        assert node._validate_payload(pb, GENESIS_DIGEST)
    reasons = [r["payload"]["reason"] for r in world.sim.log.select("proposal_rejected")]
    assert reasons == ["condition-9:challenge-unverified"] * len(forged) * len(world.consensus)


def test_challenge_without_its_evidence_rejected():
    """An MCC or FCC with empty evidence and a matching id is dropped on
    arrival and fails condition 9 in a block, instead of raising out of the
    node that reads its evidence."""
    world, verifier, (_, liar_chain, _), _ = two_block_receipts()
    n0 = world.consensus[0]
    state = world.directory.initial_state
    receipt = liar_chain[0].receipt
    rh = receipt.execution_result.result_hash()
    guarantors = [c.staking_public_key for c in world.directory.clusters[0].members]
    for ch in (
        make_mcc(verifier.keypair.public, guarantors, rh),
        make_fcc(verifier.keypair.public, receipt.executor, rh, 0, receipt.executor_signature),
    ):
        empty = dataclasses.replace(ch, evidence=())
        empty = dataclasses.replace(empty, challenge_id=challenge_id(empty))
        n0.handle(verifier.name, ChallengeMsg(empty))
        pb = propose_proto_block(GENESIS_DIGEST, 0, state, [], [], [empty], [])
        assert not n0._validate_payload(pb, GENESIS_DIGEST)
    assert not n0.pending_challenges
    assert not any(ctx.facts["fcc"] for ctx in n0.ctxs.values())
    reasons = [r["payload"]["reason"] for r in world.sim.log.select("proposal_rejected")]
    assert reasons == ["condition-9:challenge-unverified"] * 2


def test_bundled_verifiers_skip_descendants_of_their_challenges():
    """On bundled byzantine-executor, no verifier approves or challenges a
    result whose previous result that verifier challenged."""
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "byzantine-executor.json"))
    world = build_world(doc)
    run_world(world)
    previous = {
        rh: msg.receipt.execution_result.previous_execution_result_hash
        for node in world.consensus
        for rh, msg in node.receipts.items()
    }
    records = world.sim.log.records
    challenged: dict[str, set] = {}
    for r in records:
        if r["kind"] == "fcc_raised":
            challenged.setdefault(r["node"], set()).add(r["payload"]["result"])
    # whenever it was logged, before or after the challenge of its previous result
    judged = [r for r in records if r["kind"] in ("fcc_raised", "approved")]
    for r in judged:
        rh = bytes.fromhex(r["payload"]["result"])
        assert previous[rh].hex() not in challenged.get(r["node"], ()), r
    assert judged and challenged


def test_forged_guarantee_dropped_on_arrival():
    """Collector c0 announces a guarantee of a made-up collection of cluster
    0, signed by c0 alone with a junk signature, to every consensus node at
    tick 1,000. Kept, it would be listed in every later proposal and
    rejected at condition 6 each time: n0 would finalize 16 blocks by tick
    6,000 (98 without the forgery)."""
    doc = merge_defaults({"run": {"seed": 1, "max_sim_time": 6000}})
    world = build_world(doc)
    c0 = world.collectors[0]
    forged = GuaranteedCollection(
        crypto.hash("collection", b"made up"), 0, (c0.keypair.public,), (b"\x00" * 32,)
    )

    def announce():
        for node in world.consensus:
            world.sim.send(c0.name, node.name, GuaranteeAnnounce(forged))

    world.sim.schedule(1000, announce)
    run_world(world)
    assert all(forged.collection_hash not in n.pending_collections for n in world.consensus)
    reasons = [r["payload"]["reason"] for r in world.sim.log.select("proposal_rejected")]
    assert "condition-6:collection-authenticity" not in reasons
    assert world.metrics.blocks_finalized >= 90


def test_share_from_outside_the_cluster_dropped():
    """A guarantee share that consensus node n1 signs for a collection a
    guarantor holds and has not announced is dropped before its signature is
    checked; counted, it would make the cluster's quorum count raise. A
    member's share still counts."""
    world = build_world(merge_defaults({}))
    guarantor, n1 = world.collectors[0], world.consensus[1]
    h = crypto.hash("collection", b"held")
    guarantor.store[h] = []
    payload = GuaranteedCollection(h, guarantor.cluster_index, (), ()).signed_payload()
    outsider = GuaranteeShare(h, guarantor.cluster_index, n1.keypair.public, n1.keypair.sign(payload))
    assert crypto.staking_verify(outsider.signer, payload, outsider.signature)
    guarantor.handle(n1.name, outsider)
    assert h not in guarantor.shares
    mine = GuaranteeShare(
        h, guarantor.cluster_index, guarantor.keypair.public, guarantor.keypair.sign(payload)
    )
    guarantor.handle(guarantor.name, mine)
    assert set(guarantor.shares[h]) == {guarantor.keypair.public}


def test_approval_from_outside_the_verifiers_dropped(monkeypatch):
    """An approval that executor e0 signs for a result no block has sealed
    is dropped by consensus node n0 before its signature is checked: its
    signature verifies, but no verifier quorum can count it. A verifier's
    approval of the result is kept."""
    world = build_world(merge_defaults({}))
    n0, e0, v0 = world.consensus[0], world.executors[0], world.verifiers[0]
    rh = crypto.hash("result", b"pending")
    outsider = Approval(rh, e0.keypair.public, e0.keypair.sign(approval_payload(rh)))
    assert crypto.staking_verify(outsider.verifier, approval_payload(rh), outsider.signature)
    checked = []
    real = crypto.staking_verify
    monkeypatch.setattr(crypto, "staking_verify", lambda *args: checked.append(args) or real(*args))
    n0.handle(e0.name, ApprovalMsg(outsider))
    assert rh not in n0.approvals and not checked
    mine = Approval(rh, v0.keypair.public, v0.keypair.sign(approval_payload(rh)))
    n0.handle(v0.name, ApprovalMsg(mine))
    assert n0.approvals[rh] == {v0.keypair.public: mine}


def happy_path(max_sim_time: int) -> dict:
    doc = load_scenario(str(resources.files("flowpipe") / "scenarios" / "happy-path.json"))
    doc["run"].update(seed=1, max_sim_time=max_sim_time)
    return doc


def test_proposal_payload_bound_to_its_digest():
    """The first leader other than n0 to propose a block at height 5 or
    more that lists collections also sends n0 alone a copy of it; the
    copy's payload drops the collections but keeps the signed digest and
    signature. Taken on its signature, the copy put a payload under a
    digest it does not hash to, and n0 finalized a block no other node
    finalized."""
    world = build_world(happy_path(6000))
    n0 = world.consensus[0]
    real_send = world.sim.send
    tampered = []

    def send(sender, receiver, message):
        if (
            not tampered
            and sender != n0.name
            and receiver == n0.name
            and isinstance(message, Proposal)
            and message.payload.height >= 5
            and message.payload.guaranteed_collections
        ):
            copy = dataclasses.replace(
                message, payload=dataclasses.replace(message.payload, guaranteed_collections=())
            )
            tampered.append(copy)
            real_send(sender, receiver, copy)
        real_send(sender, receiver, message)

    world.sim.send = send
    run_world(world)
    assert tampered
    safety = next(p for p in evaluate_properties(world)["properties"] if p["name"] == "safety")
    assert safety["passed"], safety["detail"]
    # n0 may end the run a block ahead of some peers, so each of its blocks
    # is looked up at every other node
    others = [node.finalized_heights.items() for node in world.consensus[1:]]
    assert all(any(item in theirs for theirs in others) for item in n0.finalized_heights.items())
    assert len(n0.finalized_heights) >= 90


def test_share_for_another_cluster_dropped():
    """On the default scenario, one cluster-0 collector signs each share it
    sends for cluster index 1 instead of 0. Aggregated into the guarantor's
    own cluster-0 guarantee, such a share made 15 of the 35 announcements
    honest guarantors sent n0 fail `guarantee_valid` at consensus intake;
    dropped, it leaves none. Transactions arrive every 400 ticks for the
    whole run (the default 12 are all guaranteed by tick 6,000), so the
    8,000 ticks give at least 30 announcements to check."""
    world = build_world(
        merge_defaults(
            {"run": {"seed": 1, "max_sim_time": 8000}, "transactions": {"count": None}}
        )
    )
    liar = next(c for c in world.collectors if c.cluster_index == 0)
    n0 = world.consensus[0]
    real_send = world.sim.send
    announced = []

    def send(sender, receiver, message):
        if sender == liar.name and isinstance(message, GuaranteeShare):
            stub = GuaranteedCollection(message.collection_hash, 1, (), ())
            message = GuaranteeShare(
                message.collection_hash, 1, message.signer, liar.keypair.sign(stub.signed_payload())
            )
        if isinstance(message, GuaranteeAnnounce) and sender != liar.name and receiver == n0.name:
            announced.append(message.gc)
        real_send(sender, receiver, message)

    world.sim.send = send
    run_world(world)
    assert len(announced) >= 30
    clusters = world.directory.clusters
    assert all(guarantee_valid(gc, clusters) for gc in announced)


MALFORMED_CLUSTER_PAYLOADS = {
    # cluster blocks whose hashes are not a tuple of `bytes`
    "not-hex": lambda parent, r: ClusterBlock(parent, r, ("zz",)),
    "not-a-list": lambda parent, r: ClusterBlock(parent, r, 5),
    "not-str": lambda parent, r: ClusterBlock(parent, r, (7,)),
    "bytearray": lambda parent, r: ClusterBlock(parent, r, (bytearray(32),)),
    # the dict payloads collectors once sent
    "old-dict-shape": lambda parent, r: {"parent": parent.hex(), "round": r, "hashes": []},
}


@pytest.mark.parametrize("kind", MALFORMED_CLUSTER_PAYLOADS)
def test_malformed_cluster_proposal_rejected(kind):
    """At tick 1,500 of the default scenario, a cluster-0 collector gets a
    proposal that its round's leader signed, whose payload is not a cluster
    block listing `bytes` hashes. The collector refuses it without a vote,
    and nothing raises out of `on_proposal`: a payload `ClusterBlock.digest`
    cannot hash binds no digest, and a `bytearray` hash, which hashes like
    its bytes, enters the tree and is refused there."""
    world = build_world(merge_defaults({"run": {"seed": 1}}))
    world.sim.run(until=1500)
    collector = next(c for c in world.collectors if c.cluster_index == 0)
    engine = collector.engine
    r = max(engine.current_round, engine.last_voted_round + 1)
    leader = next(c for c in world.collectors if c.keypair.public == engine.leader(r))
    payload = MALFORMED_CLUSTER_PAYLOADS[kind](engine.high_qc.payload_digest, r)
    try:
        digest = ClusterBlock.digest(payload)
    except (AttributeError, TypeError):
        digest = crypto.hash("cluster-payload", repr(payload).encode())
    unsigned = Proposal(
        round=r,
        payload=payload,
        payload_digest=digest,
        justify=engine.high_qc,
        proposer=leader.keypair.public,
        signature=b"",
    )
    proposal = dataclasses.replace(unsigned, signature=leader.keypair.sign(unsigned.signed_bytes()))
    engine.on_proposal(proposal)
    assert engine.last_voted_round < r
    assert (proposal.payload_digest in engine.tree.nodes) == (kind == "bytearray")


def test_cluster_equivocator_slashed():
    """At tick 1,500 of the default scenario, a cluster-0 collector gets two
    proposals its round's leader signed for one round, on one parent, one
    listing nothing and one a made-up hash. The collector turns the evidence
    into a protocol-violation challenge for the consensus nodes, the chain
    records it once, and by tick 6,000 every consensus node's finalized
    state has the leader's stake, and only the leader's, slashed to 0."""
    world = build_world(merge_defaults({"run": {"seed": 1, "max_sim_time": 6000}}))
    world.sim.run(until=1500)
    collector = next(c for c in world.collectors if c.cluster_index == 0)
    engine = collector.engine
    r = max(engine.current_round, engine.last_voted_round + 1)
    leader = next(c for c in world.collectors if c.keypair.public == engine.leader(r))
    parent = engine.high_qc.payload_digest
    for hashes in ((), (crypto.hash("made-up", b"tx"),)):
        payload = ClusterBlock(parent, r, hashes)
        unsigned = Proposal(r, payload, payload.digest(), engine.high_qc, leader.keypair.public, b"")
        engine.on_proposal(
            dataclasses.replace(unsigned, signature=leader.keypair.sign(unsigned.signed_bytes()))
        )
    run_world(world)
    accused = leader.keypair.public
    for node in world.consensus:
        recorded = [
            ch
            for d in node.finalized_heights.values()
            for ch in node.engine.tree.nodes[d].payload.slashing_challenges
        ]
        assert [(ch.kind, ch.accused) for ch in recorded] == [
            (ChallengeKind.PROTOCOL_VIOLATION, (accused,))
        ], node.name
        assert node.tip.state.records[accused].stake == 0, node.name
    slashed = {s for r in world.sim.log.select("adjudication") for s in r["payload"]["slashed"]}
    assert slashed == {accused.hex()}


def relisted_seal_run(relist: bool):
    """happy-path to tick 12,000; when `relist`, leader n1 appends, once, the
    seal of the newest result sealed on its finalized chain to the block it
    proposes. Returns the world, the tick of the re-listing proposal, and
    each other consensus node's verdict on that proposal, by name, as (tick,
    accepted)."""
    world = build_world(happy_path(12000))
    n1 = world.consensus[1]
    make_payload = n1.engine.make_payload
    relisted = []  # (tick, payload)
    verdicts = {}

    def relisting(parent_digest):
        pb = make_payload(parent_digest)
        if not relist or relisted or pb is None:
            return pb
        sealed = [
            seal
            for height in sorted(n1.finalized_heights)
            for seal in n1.engine.tree.nodes[n1.finalized_heights[height]].payload.block_seals
        ]
        if not sealed:
            return pb
        pb = dataclasses.replace(pb, block_seals=pb.block_seals + (sealed[-1],))
        relisted.append((world.sim.now, pb))
        return pb

    n1.engine.make_payload = relisting
    for node in world.consensus:
        if node is not n1:

            def validate(payload, parent_digest, node=node, check=node.engine.validate_payload):
                accepted = check(payload, parent_digest)
                if relisted and payload is relisted[0][1]:
                    verdicts[node.name] = (world.sim.now, accepted)
                return accepted

            node.engine.validate_payload = validate
    run_world(world)
    return world, relisted[0][0] if relisted else None, verdicts


def test_relisted_seal_rejected():
    """Leader n1 lists, once, the seal of the newest result its finalized
    chain has sealed. Condition 8 took it: every node accepted the block, the
    sealed tip of every chain through it rewound to that result, and no
    later result sealed. The seal carries its result and a genuine verifier
    quorum, and its block is on the chain, so only the checks that the
    result is not sealed on the chain and that it extends the sealed tip can
    refuse it; each honest node rejects the block at condition 8, and the
    observer keeps sealing at the pace of the run without the re-listed
    seal, each result once."""
    clean, _, _ = relisted_seal_run(relist=False)
    world, t, verdicts = relisted_seal_run(relist=True)
    assert t is not None
    rejections = {
        (r["node"], r["t"])
        for r in world.sim.log.select("proposal_rejected")
        if r["payload"]["reason"] == "condition-8:seal-invalid"
    }
    honest = {n.name for n in world.consensus} - {world.consensus[1].name}
    assert set(verdicts) == honest
    for name, (tick, accepted) in verdicts.items():
        assert tick >= t and not accepted and (name, tick) in rejections

    def sealed(w):
        return [r["payload"]["result"] for r in w.sim.log.select("sealed", w.observer.name)]

    assert len(sealed(world)) == len(set(sealed(world)))
    assert len(set(sealed(world))) >= 0.9 * len(set(sealed(clean)))


@pytest.mark.xfail(
    strict=True,
    reason="condition 10 checks that a block's state updates replay to its "
    "commitment, not that an adjudication stands behind each slash",
)
def test_bare_slash_rejected():
    """Leader n1 lists in each block it proposes a bare update that slashes
    honest consensus node n3, with no adjudication behind it. Condition 10
    only replays the update against the block's commitment, so every node
    accepts such blocks and n3's stake on n0's finalized tip goes to 0."""
    world = build_world(happy_path(6000))
    n0, n1, n3 = world.consensus[0], world.consensus[1], world.consensus[3]
    make_payload = n1.engine.make_payload
    slash = StateUpdate(entries=(Slash(n3.keypair.public, 100),))

    def slashing(parent_digest):
        pb = make_payload(parent_digest)
        if pb is None:
            return pb
        parent = n1._ctx_for(parent_digest)
        return propose_proto_block(
            parent.digest,
            parent.height,
            parent.state,
            pb.guaranteed_collections,
            pb.block_seals,
            pb.slashing_challenges,
            pb.protocol_state_updates + (slash,),
        )

    n1.engine.make_payload = slashing
    run_world(world)
    assert n0.tip.state.records[n3.keypair.public].stake > 0


@pytest.mark.xfail(
    strict=True,
    reason="a protocol-violation challenge carries two payload digests, not the "
    "signed proposals, and adjudication upholds it without reading them",
)
def test_forged_protocol_violation_rejected():
    """A block lists a protocol-violation challenge against honest consensus
    node n3 whose evidence is two made-up payload digests. n0 accepts the
    block and, as when the chain records the challenge, adjudicates it
    `accused_slashed`: nothing ties the digests to proposals n3 signed."""
    world, _, _, _ = two_block_receipts()
    n0, n3 = world.consensus[0], world.consensus[3]
    forged = make_pv(n3.keypair.public, crypto.hash("made-up", b"1"), crypto.hash("made-up", b"2"))
    pb = propose_proto_block(GENESIS_DIGEST, 0, world.directory.initial_state, [], [], [forged], [])
    if n0._validate_payload(pb, GENESIS_DIGEST):
        n0._start_adjudication(forged)  # as when a block records it
    upd = n0.pending_updates.get(forged.challenge_id)
    assert upd is None or n3.keypair.public not in upd.adjudication.slashed


@pytest.mark.xfail(
    strict=True,
    reason="no one signs a challenge's challenger, so anyone can name an honest "
    "verifier as the challenger of a frivolous faulty-computation challenge",
)
def test_unsigned_challenger_not_slashed():
    """Anyone can build an FCC against honest executor e0's result from e0's
    public receipt signature and name honest verifier v0 as its challenger.
    n0, holding e0's receipt, accepts a block listing it and adjudicates it
    `challenger_slashed`, slashing v0."""
    world, verifier, (honest_chain, _, _), _ = two_block_receipts()
    n0, e0 = world.consensus[0], world.executors[0]
    msg = honest_chain[0]
    rh = msg.receipt.execution_result.result_hash()
    forged = make_fcc(
        verifier.keypair.public, e0.keypair.public, rh, 0, msg.receipt.executor_signature
    )
    n0.handle(e0.name, msg)
    pb = propose_proto_block(GENESIS_DIGEST, 0, world.directory.initial_state, [], [], [forged], [])
    if n0._validate_payload(pb, GENESIS_DIGEST):
        n0._start_adjudication(forged)  # as when a block records it
    upd = n0.pending_updates.get(forged.challenge_id)
    assert upd is None or verifier.keypair.public not in upd.adjudication.slashed


def fcc_run(challengers: int) -> list:
    """happy-path to 9,000 ticks; at tick 3,000 verifier v0 sends every
    consensus node one faulty-computation challenge per challenger key (v0's,
    then v1's) against n0's newest receipt, an honest result. The challenges
    differ only in the unsigned challenger, so they share one mark. Returns
    n0's `sealed` records."""
    world = build_world(happy_path(9000))
    n0, v0 = world.consensus[0], world.verifiers[0]
    keys = [v.keypair.public for v in world.verifiers[:challengers]]

    def challenge():
        receipt = next(reversed(n0.receipts.values())).receipt
        rh = receipt.execution_result.result_hash()
        for key in keys:
            fcc = make_fcc(key, receipt.executor, rh, 0, receipt.executor_signature)
            v0.send_all(world.directory.consensus_names, ChallengeMsg(fcc))

    world.sim.schedule(3000, challenge)
    run_world(world)
    return world.sim.log.select("sealed", n0.name)


def test_duplicate_fcc_does_not_stall_sealing():
    """Two FCCs of one mark against an honest result: the chain records one
    and dismisses it, and the other, never recorded, must not block the
    result's seal. n0 seals as it does after one FCC, to the end of the run."""
    one, two = fcc_run(1), fcc_run(2)
    assert len(two) >= 0.9 * len(one)
    assert any(r["t"] > 8000 for r in two)
