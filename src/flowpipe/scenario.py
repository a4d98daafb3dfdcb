"""Scenario configuration, world construction, and property evaluation.

A scenario is a JSON document (strictly validated; unknown keys rejected with
path-addressed errors) describing roles, protocol parameters, the network
model, scripted adversary behaviors, and the pass/fail checks evaluated on
the run's event log."""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Optional

from . import crypto
from .adversary import BEHAVIORS
from .blocks import GENESIS_RANDOMNESS, ProtoBlock
from .challenges import ChallengeKind, SlashingChallenge
from .clustering import cluster_assignment
from .nodes import (
    CollectorNode,
    ConsensusNode,
    Directory,
    ExecutionNode,
    UserAgent,
    VerificationNode,
)
from .encoding import hexify
from .execution import GENESIS_RESULT_HASH, block_execution, canonical
from .hotstuff import LeaderSchedule
from .merkle import ExecutionState
from .sim import Metrics, SimConfig, Simulator
from .state import NodeIdentity, ProtocolState, Role, StakeTable


class ScenarioError(ValueError):
    """Configuration rejected; `errors` lists path-addressed messages."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


DEFAULTS: dict = {
    "name": "unnamed",
    "description": "",
    "roles": {"collectors": 8, "consensus": 7, "execution": 2, "verification": 5},
    "stakes": {"collector": 100, "consensus": 100, "execution": 100, "verification": 100},
    "clusters": {"count": 2, "size_threshold": 3, "timespan_rounds": 10},
    "consensus": {"base_timeout": 250},
    "drb": {"committee_size": 5},
    "execution_params": {"gamma_chunk": 10},
    "verification_params": {"coverage_p": 1.0},
    "transactions": {"interval": 400, "count": 12, "cost": 3, "window": 10000},
    "network": {
        "delta_t": 50,
        "phi_t": 1.0,
        "gst": 0,
        "pre_gst_drop_probability": 0.0,
        "pre_gst_delay_multiplier": 4,
    },
    "timeouts": {"mcc_deadline": 400, "retrieval_timeout": 150},
    "adversary": [],
    "run": {"seed": 1, "max_sim_time": 30000},
    "checks": {"safety": True},
}

_NUM = (int, float)

# The keys whose DEFAULTS value cannot give their type: nullable ones, and
# the checks that are off by default.
_EXCEPTIONS: dict[str, dict[str, tuple]] = {
    "transactions": {"count": ((int,), True)},
    "checks": {
        **dict.fromkeys(
            ("no_faulty_seals", "equivocator_slashed", "no_challenges"), ((bool,), False)
        ),
        **dict.fromkeys(
            (
                "min_finalized",
                "max_finalized",
                "min_sealed",
                "min_slashes",
                "min_attestations",
                "mcc_per_withheld_cluster",
            ),
            ((int,), False),
        ),
    },
}

# section -> key -> (accepted types, allows None). A key accepts the type of
# its DEFAULTS value; a float key also accepts an int.
_SCHEMA: dict[str, dict[str, tuple]] = {
    section: {
        key: (_NUM if isinstance(value, float) else (type(value),), False)
        for key, value in keys.items()
    }
    | _EXCEPTIONS.get(section, {})
    for section, keys in DEFAULTS.items()
    if isinstance(keys, dict)
}

_ADVERSARY_KEYS = {
    "behavior": ((str,), False),
    "role": ((str,), False),
    "indices": ((list,), True),
    "cluster": ((int,), True),
    "target_chunk": ((int,), True),
}

# section -> key -> least allowed value
_MINIMUMS: dict[str, dict[str, int]] = {
    "roles": dict.fromkeys(DEFAULTS["roles"], 1),
    "stakes": dict.fromkeys(DEFAULTS["stakes"], 1),
    "clusters": {"count": 1},
    "consensus": {"base_timeout": 1},
    "drb": {"committee_size": 1},
    "execution_params": {"gamma_chunk": 1},
    "transactions": {"interval": 1, "cost": 0},  # the VM rejects a negative cost
    "network": {"delta_t": 1, "phi_t": 1, "gst": 0, "pre_gst_delay_multiplier": 1},
    "timeouts": {"mcc_deadline": 1, "retrieval_timeout": 1},
    "run": {"max_sim_time": 1},
}

# top-level value type -> how an error names it
_KINDS = {str: "string", list: "a list", dict: "an object"}


def validate_scenario(doc: Any) -> list[str]:
    if not isinstance(doc, dict):
        return ["$: scenario must be an object"]
    errors: list[str] = []
    for key, value in doc.items():
        if key not in DEFAULTS:
            errors.append(f"{key}: unknown key")
        elif not isinstance(value, type(DEFAULTS[key])):
            errors.append(f"{key}: expected {_KINDS[type(DEFAULTS[key])]}")
        elif key == "adversary":
            named: dict = {}
            for i, spec in enumerate(value):
                errors.extend(_validate_adversary(f"adversary[{i}]", spec, doc, named))
        elif isinstance(value, dict):
            errors.extend(_check_fields(key, value, _SCHEMA[key]))
    errors.extend(_validate_semantics(doc))
    return errors


def _check_fields(path: str, value: dict, fields: dict[str, tuple]) -> list[str]:
    errors = []
    for key, sub_value in value.items():
        if key not in fields:
            errors.append(f"{path}.{key}: unknown key")
            continue
        types, nullable = fields[key]
        if sub_value is None:
            if not nullable:
                errors.append(f"{path}.{key}: must not be null")
        elif not isinstance(sub_value, types) or isinstance(sub_value, bool) != (bool in types):
            errors.append(f"{path}.{key}: expected {'/'.join(t.__name__ for t in types)}")
    return errors


def _value(doc: dict, section: str, key: str):
    """Configured value, falling back to the default when absent or of the
    wrong type (the type error is already reported)."""
    value = doc[section].get(key) if isinstance(doc.get(section), dict) else None
    if isinstance(value, _NUM) and not isinstance(value, bool):
        return value
    return DEFAULTS[section][key]


def _validate_adversary(path: str, spec: Any, doc: dict, named: dict) -> list[str]:
    """Errors of one adversary entry; `named` maps each node or cluster that
    an earlier entry names to that entry's path."""
    if not isinstance(spec, dict):
        return [f"{path}: expected an object"]
    errors = _check_fields(path, spec, _ADVERSARY_KEYS)
    behavior, role = spec.get("behavior"), spec.get("role")
    if "behavior" not in spec:
        errors.append(f"{path}.behavior: required")
    elif not (isinstance(behavior, str) and behavior in BEHAVIORS):
        errors.append(f"{path}.behavior: unknown behavior {behavior!r}")
    counts = {r.value: key for r, _, key, _, _ in _ROLES}  # role -> roles key
    if "role" not in spec:
        errors.append(f"{path}.role: required")
    elif not (isinstance(role, str) and role in counts):
        errors.append(f"{path}.role: unknown role {role!r}")
        role = None
    # an unknown behavior is reported above, so it accepts every role here
    elif isinstance(behavior, str) and role not in BEHAVIORS.get(behavior, (counts,))[0]:
        allowed = ", ".join(BEHAVIORS[behavior][0])
        errors.append(f"{path}.role: {role!r} cannot perform {behavior!r} (only {allowed})")
    indices = spec.get("indices")
    for j, idx in enumerate(indices if isinstance(indices, list) else []):
        if type(idx) is not int:
            errors.append(f"{path}.indices[{j}]: expected int")
        elif role is not None and not 0 <= idx < (n := _value(doc, "roles", counts[role])):
            errors.append(f"{path}.indices[{j}]: must lie in [0, {n})")
        elif role is not None and (first := named.setdefault((role, idx), path)) != path:
            errors.append(f"{path}.indices[{j}]: {role} {idx} is already named by {first}")
    cluster, n = spec.get("cluster"), _value(doc, "clusters", "count")
    if role not in (None, Role.COLLECTOR.value) and cluster is not None:
        errors.append(f"{path}.cluster: only collectors belong to a cluster")
    elif type(cluster) is int and not 0 <= cluster < n:
        errors.append(f"{path}.cluster: must lie in [0, {n})")
    elif role and type(cluster) is int and (first := named.setdefault(cluster, path)) != path:
        errors.append(f"{path}.cluster: cluster {cluster} is already named by {first}")
    if role is not None and not indices and cluster is None:
        errors.append(f"{path}: names no node (give indices or cluster)")
    return errors


def _validate_semantics(doc: dict) -> list[str]:
    errors = []
    if _value(doc, "roles", "collectors") < _value(doc, "clusters", "count"):
        errors.append("clusters.count: more clusters than collectors")
    for section, minimums in _MINIMUMS.items():
        for key, low in minimums.items():
            if _value(doc, section, key) < low:
                errors.append(f"{section}.{key}: must be >= {low}")
    if _value(doc, "drb", "committee_size") > _value(doc, "roles", "consensus"):
        errors.append("drb.committee_size: larger than the consensus role")
    if not 0 < _value(doc, "verification_params", "coverage_p") <= 1:
        errors.append("verification_params.coverage_p: must lie in (0, 1]")
    if not 0 <= _value(doc, "network", "pre_gst_drop_probability") <= 1:
        errors.append("network.pre_gst_drop_probability: must lie in [0, 1]")
    return errors


def merge_defaults(doc: dict) -> dict:
    merged = copy.deepcopy(DEFAULTS)
    for key, value in doc.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key].update(value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def load_scenario(path: str) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError([f"$: cannot read scenario: {exc}"]) from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError([f"$: line {exc.lineno}: {exc.msg}"]) from exc
    errors = validate_scenario(doc)
    if errors:
        raise ScenarioError(errors)
    return merge_defaults(doc)


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply `a.b=value` overrides (values parsed as JSON, falling back to
    string) and re-validate."""
    out = copy.deepcopy(doc)
    for item in overrides:
        if "=" not in item:
            raise ScenarioError([f"override {item!r}: expected key=value"])
        path, raw = item.split("=", 1)
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        parts = path.split(".")
        target = out
        for part in parts[:-1]:
            nxt = target.get(part)
            if not isinstance(nxt, dict):
                raise ScenarioError([f"override {path}: no such section {part!r}"])
            target = nxt
        target[parts[-1]] = value
    errors = validate_scenario(out)
    if errors:
        raise ScenarioError(errors)
    return out


# ---------------------------------------------------------------------------
# World construction
# ---------------------------------------------------------------------------


@dataclass
class World:
    doc: dict
    seed: int
    sim: Simulator
    directory: Directory
    metrics: Metrics = field(default_factory=Metrics)  # set by run_world
    collectors: list[CollectorNode] = field(default_factory=list)
    consensus: list[ConsensusNode] = field(default_factory=list)
    executors: list[ExecutionNode] = field(default_factory=list)
    verifiers: list[VerificationNode] = field(default_factory=list)
    agents: list[UserAgent] = field(default_factory=list)

    @property
    def observer(self) -> ConsensusNode:
        return self.consensus[0]


# role, name prefix, doc["roles"] key, node class, World list
_ROLES = [
    (Role.COLLECTOR, "c", "collectors", CollectorNode, "collectors"),
    (Role.CONSENSUS, "n", "consensus", ConsensusNode, "consensus"),
    (Role.EXECUTION, "e", "execution", ExecutionNode, "executors"),
    (Role.VERIFICATION, "v", "verification", VerificationNode, "verifiers"),
]


def _corrupt(node, doc: dict, role: str, index: int, cluster_index: Optional[int]) -> None:
    """Apply to the node the first adversary entry that names it, by index
    or (for a collector) by cluster, which may name it too."""
    for spec in doc["adversary"]:
        if spec["role"] == role and (
            index in (spec.get("indices") or ())
            or (cluster_index is not None and spec.get("cluster") == cluster_index)
        ):
            BEHAVIORS[spec["behavior"]][1](node, spec)
            return


def build_world(doc: dict, seed: Optional[int] = None) -> World:
    doc = merge_defaults(doc)
    run_seed = doc["run"]["seed"] if seed is None else seed
    seed_bytes = crypto.hash("scenario-seed", run_seed.to_bytes(8, "big"))

    def make_keys(prefix: str, count: int) -> list[crypto.StakingKeyPair]:
        return [
            crypto.StakingKeyPair.from_seed(
                crypto.hash("identity", f"{prefix}{i}".encode() + seed_bytes)
            )
            for i in range(count)
        ]

    records: dict[bytes, NodeIdentity] = {}
    keys: dict[Role, list[crypto.StakingKeyPair]] = {}
    ids: dict[Role, list[NodeIdentity]] = {}
    for role, prefix, count_key, _, _ in _ROLES:
        keys[role] = make_keys(prefix, doc["roles"][count_key])
        ids[role] = [
            NodeIdentity(kp.public, role, doc["stakes"][role.value], f"{prefix}{i}")
            for i, kp in enumerate(keys[role])
        ]
        records.update((i.staking_public_key, i) for i in ids[role])
    # a node's network address is its simulator name
    name_of = {k: i.network_address for k, i in records.items()}
    agent_keys = make_keys("u", 1)

    initial_state = ProtocolState(records=records)
    epoch_seed = crypto.derive_seed(["epoch"], GENESIS_RANDOMNESS + seed_bytes)

    # collector clusters from the epoch randomness
    assignment = cluster_assignment(
        [k.public for k in keys[Role.COLLECTOR]], doc["clusters"]["count"], epoch_seed
    )
    clusters = {
        idx: StakeTable([records[k] for k in assignment.cluster_members(idx)])
        for idx in range(assignment.c)
    }
    consensus = StakeTable(ids[Role.CONSENSUS])

    # beacon committee: the consensus members with the lowest staking keys
    committee_size = doc["drb"]["committee_size"]
    committee_keys = sorted(k.public for k in keys[Role.CONSENSUS])[:committee_size]
    params = crypto.make_params(committee_size, crypto.TEST_FIELD)
    entropy = [
        crypto.derive_seed(["dkg", str(i)], seed_bytes) for i in range(1, committee_size + 1)
    ]
    dkg = crypto.dkg_setup(params, entropy)
    drb_committee = {
        key: dkg.shares[i] for i, key in enumerate(committee_keys)
    }

    def names(role: Role) -> tuple[str, ...]:
        return tuple(i.network_address for i in ids[role])

    directory = Directory(
        name_of=MappingProxyType(name_of),
        key_of=MappingProxyType({v: k for k, v in name_of.items()}),
        consensus=consensus,
        consensus_schedule=LeaderSchedule(consensus, epoch_seed),
        verifiers=StakeTable(ids[Role.VERIFICATION]),
        executor_names=names(Role.EXECUTION),
        verifier_names=names(Role.VERIFICATION),
        consensus_names=names(Role.CONSENSUS),
        collector_names=names(Role.COLLECTOR),
        clusters=MappingProxyType(clusters),
        cluster_schedules=MappingProxyType({
            idx: LeaderSchedule(
                table, crypto.derive_seed(["cluster-consensus", str(idx)], epoch_seed)
            )
            for idx, table in clusters.items()
        }),
        cluster_of=MappingProxyType(dict(assignment.mapping)),
        initial_state=initial_state,
        params=params,
        drb_vv=dkg.verification_vector,
        drb_committee=MappingProxyType(drb_committee),
        registered_accounts=tuple(kp.public for kp in agent_keys),
        gamma_chunk=doc["execution_params"]["gamma_chunk"],
        coverage_p=float(doc["verification_params"]["coverage_p"]),
        tx_window=doc["transactions"]["window"],
        collection_size_threshold=doc["clusters"]["size_threshold"],
        collection_timespan_rounds=doc["clusters"]["timespan_rounds"],
        base_timeout=doc["consensus"]["base_timeout"],
        mcc_deadline=doc["timeouts"]["mcc_deadline"],
        retrieval_timeout=doc["timeouts"]["retrieval_timeout"],
    )

    sim = Simulator(
        SimConfig(**doc["network"], seed=seed_bytes, max_sim_time=doc["run"]["max_sim_time"])
    )
    world = World(doc=doc, seed=run_seed, sim=sim, directory=directory)

    for role, prefix, _, node_cls, world_list in _ROLES:
        for i, kp in enumerate(keys[role]):
            node = node_cls(sim, f"{prefix}{i}", kp, directory)
            _corrupt(node, doc, role.value, i, directory.cluster_of.get(kp.public))
            sim.register_node(node.name, node.handle)
            getattr(world, world_list).append(node)
    tx_conf = doc["transactions"]
    for i, kp in enumerate(agent_keys):
        agent = UserAgent(
            sim,
            f"u{i}",
            kp,
            directory,
            interval=tx_conf["interval"],
            tx_cost=tx_conf["cost"],
            count=tx_conf["count"],
        )
        sim.register_node(agent.name, agent.handle)
        world.agents.append(agent)
    return world


def run_world(world: World) -> None:
    for node in (
        world.collectors + world.consensus + world.executors + world.verifiers + world.agents
    ):
        node.start()
    world.sim.run()
    obs = world.observer
    world.metrics = Metrics(
        blocks_finalized=len(obs.finalized_heights),
        blocks_sealed=len(_observer_events(world, "sealed")),
        # distinct collection hashes announced by any guarantor
        collections_guaranteed=len(
            {r["payload"]["hash"] for r in world.sim.log.select("collection_guaranteed")}
        ),
        challenges=len(_observer_events(world, "challenge")),
        slashes=sum(len(r["payload"]["slashed"]) for r in _observer_events(world, "adjudication")),
        # ticks from the observer first validating a block to finalizing it
        finalization_latencies=obs.finalization_latencies,
    )


# ---------------------------------------------------------------------------
# Property evaluation
# ---------------------------------------------------------------------------


def _observer_events(world: World, kind: str) -> list[dict]:
    return world.sim.log.select(kind, world.observer.name)


def _finalized_blocks(world: World) -> Iterator[ProtoBlock]:
    """The observer's finalized blocks in height order; pruning keeps every
    finalized node of its block tree."""
    obs = world.observer
    for height in sorted(obs.finalized_heights):
        yield obs.engine.tree.nodes[obs.finalized_heights[height]].payload


def _honest_result_hashes(world: World) -> set[bytes]:
    """Reference re-execution of the observer's finalized chain with honest
    execution semantics; the returned result hashes are the only ones a
    correct seal may reference."""
    exec_state = ExecutionState()
    prev = GENESIS_RESULT_HASH
    honest: set[bytes] = set()
    for pb in _finalized_blocks(world):
        ordered = []
        for gc in pb.guaranteed_collections:
            # a collection whose texts no collector holds is skipped
            for collector in world.collectors:
                texts = collector.store.get(gc.collection_hash)
                if texts is not None:
                    ordered.append(texts)
                    break
        txs = canonical(ordered)
        out = block_execution(
            pb.hash(), txs, prev, exec_state, world.directory.gamma_chunk
        )
        exec_state = out.end_state
        prev = out.result.result_hash()
        honest.add(prev)
    return honest


def evaluate_properties(world: World) -> dict:
    checks = world.doc.get("checks", {})
    properties: list[dict] = []

    def add(name: str, passed: bool, detail: str):
        properties.append({"name": name, "passed": bool(passed), "detail": detail})

    if checks.get("safety", True):
        conflicts = []
        by_height: dict[int, bytes] = {}
        for node in world.consensus:
            for height, digest in node.finalized_heights.items():
                prior = by_height.setdefault(height, digest)
                if prior != digest:
                    conflicts.append((node.name, height))
        add(
            "safety",
            not conflicts,
            "no conflicting finalized blocks"
            if not conflicts
            else f"conflicts at {conflicts[:3]}",
        )

    finalized = len(world.observer.finalized_heights)
    if "min_finalized" in checks:
        add(
            "liveness",
            finalized >= checks["min_finalized"],
            f"finalized {finalized} blocks (need >= {checks['min_finalized']})",
        )
    if "max_finalized" in checks:
        add(
            "halted",
            finalized <= checks["max_finalized"],
            f"finalized {finalized} blocks (allow <= {checks['max_finalized']})",
        )

    sealed_events = _observer_events(world, "sealed")
    if "min_sealed" in checks:
        add(
            "sealing",
            len(sealed_events) >= checks["min_sealed"],
            f"sealed {len(sealed_events)} results (need >= {checks['min_sealed']})",
        )

    if checks.get("no_faulty_seals"):
        honest = {hexify(h) for h in _honest_result_hashes(world)}
        sealed = {r["payload"]["result"] for r in sealed_events}
        faulty = sealed - honest
        add(
            "no-faulty-seals",
            not faulty,
            f"{len(sealed)} sealed results all match honest re-execution"
            if not faulty
            else f"faulty results sealed: {sorted(faulty)[:2]}",
        )

    if checks.get("no_challenges"):
        count = world.metrics.challenges
        add("no-challenges", count == 0, f"{count} challenges recorded")

    if "min_slashes" in checks:
        add(
            "slashing",
            world.metrics.slashes >= checks["min_slashes"],
            f"{world.metrics.slashes} slashes (need >= {checks['min_slashes']})",
        )

    if "min_attestations" in checks:
        count = len(_observer_events(world, "attestation"))
        add(
            "attestations",
            count >= checks["min_attestations"],
            f"{count} skip attestations issued (need >= {checks['min_attestations']})",
        )

    if "mcc_per_withheld_cluster" in checks:
        add_mcc_property(world, checks["mcc_per_withheld_cluster"], add)

    if checks.get("equivocator_slashed"):
        equivocators = set()
        for spec in world.doc.get("adversary", []):
            if spec["behavior"] == "equivocate_proposal":
                for idx in spec.get("indices") or []:
                    equivocators.add(hexify(world.consensus[idx].keypair.public))
        slashed = set()
        for r in _observer_events(world, "adjudication"):
            if r["payload"]["outcome"] == "accused_slashed":
                slashed.update(r["payload"]["slashed"])
        add(
            "equivocator-slashed",
            bool(equivocators) and equivocators <= slashed,
            f"equivocators slashed: {sorted(equivocators & slashed)}"
            if equivocators & slashed
            else "no equivocator slashed",
        )

    return {
        "scenario": world.doc.get("name", "unnamed"),
        "seed": world.seed,
        "passed": all(p["passed"] for p in properties),
        "properties": properties,
    }


def add_mcc_property(world: World, cluster_index: int, add) -> None:
    """Exactly one recorded missing-collection challenge per on-chain
    collection of the withholding cluster, each upheld with the full
    guarantor set slashed."""
    chain_gcs: dict[bytes, Any] = {}
    mcc_targets: dict[bytes, SlashingChallenge] = {}
    for pb in _finalized_blocks(world):
        for gc in pb.guaranteed_collections:
            chain_gcs[gc.collection_hash] = gc
        for ch in pb.slashing_challenges:
            if ch.kind == ChallengeKind.MISSING_COLLECTION:
                mcc_targets[ch.evidence[0]] = ch
    withheld = {h for h, gc in chain_gcs.items() if gc.cluster_index == cluster_index}
    ok = bool(withheld) and set(mcc_targets) == withheld
    detail = f"{len(withheld)} withheld collections, {len(mcc_targets)} MCCs recorded"
    if ok:
        # every upheld adjudication must slash the full silent guarantor set
        slashed_by_id: dict[str, set[str]] = {}
        for r in _observer_events(world, "adjudication"):
            slashed_by_id[r["payload"]["id"]] = set(r["payload"]["slashed"])
        for h, ch in mcc_targets.items():
            want = {hexify(s) for s in chain_gcs[h].signers}
            got = slashed_by_id.get(hexify(ch.challenge_id), set())
            if got != want:
                ok = False
                detail = f"guarantor set not fully slashed for {hexify(h)[:12]}"
                break
    add("mcc-per-withheld-collection", ok, detail)


@dataclass
class RunResult:
    world: World
    report: dict


def run_scenario(doc: dict, seed: Optional[int] = None) -> RunResult:
    world = build_world(doc, seed)
    run_world(world)
    return RunResult(world=world, report=evaluate_properties(world))
