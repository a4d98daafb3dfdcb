"""Short pinned runs for the adversary behaviours no bundled scenario
exercises: silent nodes in every role, stale voters, and an executor that
tampers with one chunk. Each run's event-log digest is pinned, so a change
to how nodes dispatch messages cannot silently change what they do; its
metric rows and the sha256 of its JSON-encoded finalization-latency list
are pinned too, so a change to how metrics are derived cannot silently
change what a run reports.

Two more runs drive node paths no bundled scenario reaches and pin their
outcomes: missing-collection challenges that the guarantors answer, and
receipts that reach the observer after the challenges against them."""

import hashlib
import json
from importlib import resources

import pytest

from flowpipe.nodes import CollectionRequest, CollectionResponse, ReceiptMsg
from flowpipe.scenario import (
    build_world,
    evaluate_properties,
    load_scenario,
    merge_defaults,
    run_world,
)
from flowpipe.state import ChallengeKind

SILENT = {"collector": [1], "consensus": [6], "execution": [1], "verification": [1]}

CASES = {
    "non_responsive": (
        [{"behavior": "non_responsive", "role": role, "indices": idx} for role, idx in SILENT.items()],
        "981bead78dfff988e08d68d522718574ebc6757e6ee3123fc542d3840b7cc1d4",
    ),
    "stale_vote": (
        [{"behavior": "stale_vote", "role": "consensus", "indices": [1, 2]}],
        "accf54f36cb6c43f1cea0fe4597a418378d13c93306a23bb5d6246d8c5b387b6",
    ),
    "faulty_execution_target_chunk": (
        [{"behavior": "faulty_execution", "role": "execution", "indices": [1], "target_chunk": 0}],
        "d66c0ed1b09bdf2f30589389fb67e87b73cfeb4a4b5ddabc907d262938b794e0",
    ),
}

# case -> (metric rows, sha256 of json.dumps(finalization_latencies))
METRICS = {
    "non_responsive": (
        [
            ("blocks_finalized", 21),
            ("blocks_sealed", 14),
            ("collections_guaranteed", 7),
            ("challenges", 0),
            ("slashes", 0),
            ("mean_finalization_latency", 609.2857142857143),
            ("max_finalization_latency", 2119),
        ],
        "b07be4c24bdb522cef98379d3b43f5b6a35f772485bcda8bc983a71ad111841a",
    ),
    "stale_vote": (
        [
            ("blocks_finalized", 81),
            ("blocks_sealed", 75),
            ("collections_guaranteed", 11),
            ("challenges", 0),
            ("slashes", 0),
            ("mean_finalization_latency", 283.8888888888889),
            ("max_finalization_latency", 680),
        ],
        "017652956e247f2f18d1a766aabc4ba84b278e617c9f35faba13143ad49bddc0",
    ),
    "faulty_execution_target_chunk": (
        [
            ("blocks_finalized", 110),
            ("blocks_sealed", 104),
            ("collections_guaranteed", 12),
            ("challenges", 110),
            ("slashes", 105),
            ("mean_finalization_latency", 209.9181818181818),
            ("max_finalization_latency", 288),
        ],
        "a43b82fb533776833dce7ebb3372e0420cbf69c4a43310260c012921ca855ce7",
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


def test_answered_mcc_dismissed():
    """Cluster 0's collectors stop serving `CollectionRequest` but still
    answer `MccQuery`. Executors raise missing-collection challenges, the
    guarantors answer every query, each challenge is dismissed without a
    slash, and consensus forwards the recovered texts to the executors,
    which then execute every collection instead of skipping it."""
    doc = merge_defaults(
        {"run": {"max_sim_time": 8000}, "checks": {"safety": True, "no_faulty_seals": True}}
    )
    world = build_world(doc)
    for collector in world.collectors:
        if collector.cluster_index == 0:
            del collector.handlers[CollectionRequest]
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
    assert len(log.select("mcc_raised")) == 12
    assert [r["payload"]["outcome"] for r in log.select("adjudication")] == ["dismissed"] * 35
    assert world.metrics.slashes == 0
    assert world.metrics.blocks_sealed == 75
    assert not log.select("attestation")
    assert forwarded == {node.name for node in world.executors}
    assert all(not node.skipped for node in world.executors)


def test_late_receipts_adjudicated_on_arrival():
    """byzantine-executor with every receipt reaching observer n0 1,500 ticks
    late: n0 records faulty-computation challenges before it holds the
    disputed receipt, waits, and adjudicates each one when the receipt
    arrives, with the outcome n1 reaches."""
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
        cid = challenge.challenge_id
        info = n0.fcc_context.get(cid)
        if cid not in n0.adjudicated_ids and info is not None and info[0] not in n0.receipts:
            waits += 1
        start_adjudication(challenge)

    n0._start_adjudication = counting
    run_world(world)
    report = evaluate_properties(world)
    assert report["passed"], report["properties"]
    assert waits == 123

    def outcomes(node):
        return {
            bytes.fromhex(r["payload"]["id"]): r["payload"]["outcome"]
            for r in world.sim.log.select("adjudication")
            if r["node"] == node.name
        }

    mine, theirs = outcomes(n0), outcomes(n1)
    # every recorded challenge whose receipt has arrived is adjudicated; the
    # rest wait on receipts still in flight at the horizon
    arrived = {
        cid
        for cid, ch in n0.recorded_challenges.items()
        if ch.kind == ChallengeKind.FAULTY_COMPUTATION and ch.evidence[0] in n0.receipts
    }
    assert len(arrived) > 100 and arrived <= set(mine)
    assert all(mine[cid] == theirs[cid] for cid in arrived)
