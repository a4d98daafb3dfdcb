import copy
import hashlib
import json
import pathlib
import re
from importlib import resources

import pytest

from flowpipe.scenario import (
    _MINIMUMS,
    DEFAULTS,
    ScenarioError,
    apply_overrides,
    build_world,
    load_scenario,
    merge_defaults,
    run_scenario,
    validate_scenario,
)

BUNDLED = [
    "happy-path",
    "byzantine-executor",
    "withheld-collection",
    "equivocating-leader",
    "network-partition",
    "pre-gst-chaos",
]


ROLE_NAMES = ("collector", "consensus", "execution", "verification")

# adversary behavior -> the roles that perform it, as docs/scenario-schema.md states
PERFORMED_BY = {
    "non_responsive": ROLE_NAMES,
    "withhold_collection": ("collector",),
    "equivocate_proposal": ("consensus",),
    "stale_vote": ("consensus",),
    "faulty_execution": ("execution",),
}


def bundled_path(name: str) -> str:
    return str(resources.files("flowpipe") / "scenarios" / f"{name}.json")


def short_doc(**over):
    doc = copy.deepcopy(DEFAULTS)
    doc["run"]["max_sim_time"] = 6000
    doc["checks"] = {"safety": True}
    for key, value in over.items():
        if isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    return doc


class TestValidation:
    def test_empty_document_valid(self):
        assert validate_scenario({}) == []

    def test_unknown_top_level_key(self):
        errors = validate_scenario({"netwrok": {}})
        assert errors == ["netwrok: unknown key"]

    def test_unknown_nested_key_path_addressed(self):
        errors = validate_scenario({"network": {"delta_tt": 5}})
        assert errors == ["network.delta_tt: unknown key"]

    def test_type_error_path_addressed(self):
        errors = validate_scenario({"network": {"delta_t": "fast"}})
        assert errors == ["network.delta_t: expected int"]

    def test_bool_is_not_int(self):
        errors = validate_scenario({"roles": {"consensus": True}})
        assert "roles.consensus: expected int" in errors

    def test_multiple_errors_reported_together(self):
        errors = validate_scenario(
            {"roles": {"consensus": "x"}, "drb": {"committee": 1}}
        )
        assert "roles.consensus: expected int" in errors
        assert "drb.committee: unknown key" in errors

    def test_non_object_rejected(self):
        assert validate_scenario([1, 2]) == ["$: scenario must be an object"]

    def test_coverage_p_range(self):
        assert validate_scenario({"verification_params": {"coverage_p": 0.0}}) == [
            "verification_params.coverage_p: must lie in (0, 1]"
        ]
        assert validate_scenario({"verification_params": {"coverage_p": 1.0}}) == []

    def test_drop_probability_range(self):
        errors = validate_scenario({"network": {"pre_gst_drop_probability": 1.5}})
        assert errors == ["network.pre_gst_drop_probability: must lie in [0, 1]"]

    def test_more_clusters_than_collectors(self):
        errors = validate_scenario({"roles": {"collectors": 2}, "clusters": {"count": 5}})
        assert errors == ["clusters.count: more clusters than collectors"]

    def test_committee_larger_than_consensus(self):
        errors = validate_scenario({"roles": {"consensus": 3}, "drb": {"committee_size": 5}})
        assert errors == ["drb.committee_size: larger than the consensus role"]

    def test_adversary_must_be_list(self):
        assert validate_scenario({"adversary": {}}) == ["adversary: expected a list"]

    def test_adversary_unknown_behavior(self):
        errors = validate_scenario(
            {"adversary": [{"behavior": "explode", "role": "execution", "indices": [0]}]}
        )
        assert errors == ["adversary[0].behavior: unknown behavior 'explode'"]

    def test_adversary_missing_role(self):
        errors = validate_scenario({"adversary": [{"behavior": "faulty_execution"}]})
        assert errors == ["adversary[0].role: required"]

    def test_adversary_bad_index_type(self):
        errors = validate_scenario(
            {
                "adversary": [
                    {"behavior": "faulty_execution", "role": "execution", "indices": ["x"]}
                ]
            }
        )
        assert errors == ["adversary[0].indices[0]: expected int"]

    @pytest.mark.parametrize(
        "behavior, role",
        [
            (behavior, role)
            for behavior, allowed in PERFORMED_BY.items()
            for role in ROLE_NAMES
            if role not in allowed
        ],
    )
    def test_adversary_role_cannot_perform_behavior(self, behavior, role):
        """A node of this role has no code path for the behavior, so the run
        would be byte-identical to an honest one; validation rejects it."""
        errors = validate_scenario(
            {"adversary": [{"behavior": behavior, "role": role, "indices": [0]}]}
        )
        only = ", ".join(PERFORMED_BY[behavior])
        assert errors == [f"adversary[0].role: {role!r} cannot perform {behavior!r} (only {only})"]

    @pytest.mark.parametrize(
        "behavior, role",
        [(behavior, role) for behavior, allowed in PERFORMED_BY.items() for role in allowed],
    )
    def test_adversary_role_performs_behavior(self, behavior, role):
        entry = {"behavior": behavior, "role": role, "indices": [0]}
        assert validate_scenario({"adversary": [entry]}) == []

    @pytest.mark.parametrize(
        "path, value, low",
        [
            ("network.phi_t", 0.5, 1),
            ("network.gst", -1, 0),
            ("network.pre_gst_delay_multiplier", 0, 1),
            ("stakes.collector", 0, 1),
            ("stakes.consensus", 0, 1),
            ("stakes.execution", -5, 1),
            ("stakes.verification", 0, 1),
            ("transactions.cost", -1, 0),
            ("consensus.base_timeout", 0, 1),
            ("timeouts.mcc_deadline", 0, 1),
            ("timeouts.retrieval_timeout", -3, 1),
        ],
    )
    def test_minimum(self, path, value, low):
        section, key = path.split(".")
        assert validate_scenario({section: {key: value}}) == [f"{path}: must be >= {low}"]

    @pytest.mark.parametrize(
        "entry, errors",
        [
            (
                {"behavior": "withhold_collection", "role": "collector", "cluster": True},
                ["adversary[0].cluster: expected int"],
            ),
            (
                {
                    "behavior": "faulty_execution",
                    "role": "execution",
                    "indices": [1],
                    "target_chunk": False,
                },
                ["adversary[0].target_chunk: expected int"],
            ),
            (
                {"behavior": "equivocate_proposal", "role": "consensus", "indices": [9]},
                ["adversary[0].indices[0]: must lie in [0, 7)"],
            ),
            (
                {"behavior": "non_responsive", "role": "execution", "indices": [1, -1]},
                ["adversary[0].indices[1]: must lie in [0, 2)"],
            ),
            (
                {"behavior": "withhold_collection", "role": "collector", "cluster": 2},
                ["adversary[0].cluster: must lie in [0, 2)"],
            ),
            (
                {"behavior": "non_responsive", "role": "execution", "indices": 1},
                ["adversary[0].indices: expected list"],
            ),
            (
                {"behavior": ["stale_vote"], "role": "consensus", "indices": [1]},
                [
                    "adversary[0].behavior: expected str",
                    "adversary[0].behavior: unknown behavior ['stale_vote']",
                ],
            ),
        ],
        ids=[
            "cluster-bool",
            "target-chunk-bool",
            "index-above-role",
            "index-negative",
            "cluster-above-count",
            "indices-not-list",
            "behavior-not-str",
        ],
    )
    def test_adversary_entry_rejected(self, entry, errors):
        assert validate_scenario({"adversary": [entry]}) == errors

    @pytest.mark.parametrize(
        "adversary, errors",
        [
            (
                [{"behavior": "stale_vote", "role": "consensus"}],
                ["adversary[0]: names no node (give indices or cluster)"],
            ),
            (
                [{"behavior": "stale_vote", "role": "consensus", "indices": []}],
                ["adversary[0]: names no node (give indices or cluster)"],
            ),
            (
                [{"behavior": "stale_vote", "role": "consensus", "cluster": 0}],
                ["adversary[0].cluster: only collectors belong to a cluster"],
            ),
            (
                [
                    {"behavior": "non_responsive", "role": "consensus", "indices": [1]},
                    {"behavior": "stale_vote", "role": "consensus", "indices": [2, 1]},
                ],
                ["adversary[1].indices[1]: consensus 1 is already named by adversary[0]"],
            ),
            (
                [
                    {"behavior": "withhold_collection", "role": "collector", "cluster": 0},
                    {"behavior": "non_responsive", "role": "collector", "cluster": 0},
                ],
                ["adversary[1].cluster: cluster 0 is already named by adversary[0]"],
            ),
        ],
        ids=["no-target", "empty-indices", "cluster-off-collectors", "index-twice", "cluster-twice"],
    )
    def test_adversary_entry_naming_no_node_rejected(self, adversary, errors):
        """Each entry would corrupt no node: it names none, or only nodes an
        earlier entry already corrupts."""
        assert validate_scenario({"adversary": adversary}) == errors

    def test_adversary_entries_may_share_an_index_across_roles(self):
        adversary = [
            {"behavior": "non_responsive", "role": "consensus", "indices": [1]},
            {"behavior": "non_responsive", "role": "execution", "indices": [1]},
        ]
        assert validate_scenario({"adversary": adversary}) == []

    def test_adversary_ranges_follow_configured_counts(self):
        doc = {
            "roles": {"execution": 3},
            "clusters": {"count": 3},
            "adversary": [
                {"behavior": "faulty_execution", "role": "execution", "indices": [2]},
                {"behavior": "withhold_collection", "role": "collector", "cluster": 2},
            ],
        }
        assert validate_scenario(doc) == []


class TestLoadingAndOverrides:
    def test_all_bundled_scenarios_validate(self):
        for name in BUNDLED:
            doc = load_scenario(bundled_path(name))
            assert doc["name"] == name
            # merged docs carry every section
            assert set(doc) == set(DEFAULTS)

    def test_missing_file_raises(self):
        with pytest.raises(ScenarioError):
            load_scenario("/no/such/scenario.json")

    def test_malformed_json_raises_with_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert "line 2" in exc.value.errors[0]

    def test_invalid_content_raises(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"network": {"delta_t": -3}}))
        with pytest.raises(ScenarioError) as exc:
            load_scenario(str(path))
        assert exc.value.errors == ["network.delta_t: must be >= 1"]

    def test_merge_preserves_defaults(self):
        merged = merge_defaults({"network": {"delta_t": 9}})
        assert merged["network"]["delta_t"] == 9
        assert merged["network"]["gst"] == DEFAULTS["network"]["gst"]
        assert DEFAULTS["network"]["delta_t"] != 9  # defaults untouched

    def test_override_applies_json_value(self):
        doc = apply_overrides(merge_defaults({}), ["run.max_sim_time=1234"])
        assert doc["run"]["max_sim_time"] == 1234

    def test_override_bad_path_raises(self):
        with pytest.raises(ScenarioError):
            apply_overrides(merge_defaults({}), ["nowhere.key=1"])

    def test_override_missing_equals_raises(self):
        with pytest.raises(ScenarioError):
            apply_overrides(merge_defaults({}), ["run.max_sim_time"])

    def test_override_revalidates(self):
        with pytest.raises(ScenarioError) as exc:
            apply_overrides(merge_defaults({}), ["verification_params.coverage_p=2.0"])
        assert exc.value.errors == ["verification_params.coverage_p: must lie in (0, 1]"]


class TestBehaviorAssignment:
    def test_indices_target_specific_nodes(self):
        doc = short_doc(
            adversary=[{"behavior": "faulty_execution", "role": "execution", "indices": [1]}]
        )
        e0, e1 = build_world(doc).executors
        assert "_publish" not in vars(e0)
        assert "_publish" in vars(e1)

    def test_cluster_targets_all_members(self):
        doc = short_doc(
            adversary=[{"behavior": "withhold_collection", "role": "collector", "cluster": 0}]
        )
        world = build_world(doc)
        for collector in world.collectors:
            withholds = "_serve" in vars(collector)
            assert withholds == (collector.cluster_index == 0), collector.name

    def test_first_entry_naming_a_collector_wins(self):
        """A cluster entry and an indices entry may name one collector; which
        collectors they share depends on the seeded clustering, so validation
        accepts the pair and the collector takes the first entry."""
        doc = short_doc(
            adversary=[
                {"behavior": "withhold_collection", "role": "collector", "cluster": 0},
                {"behavior": "non_responsive", "role": "collector", "indices": list(range(8))},
            ]
        )
        assert validate_scenario(doc) == []
        for collector in build_world(doc).collectors:
            if collector.cluster_index == 0:
                assert collector.handlers and "_serve" in vars(collector)
            else:
                assert not collector.handlers, collector.name

    def test_seed_argument_overrides_document(self):
        doc = short_doc()
        doc["run"]["seed"] = 5
        world = build_world(doc, seed=9)
        assert world.seed == 9


class TestShortRuns:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_event_log_is_plain_json(self, name):
        """`Simulator.event` logs payloads as given, so each record must
        already be what JSON gives back: str keys, lists rather than tuples,
        no bytes and no enums (a str enum equals its value, so compare
        reprs). The horizon, 6,000 ticks past GST, reaches every event kind."""
        doc = load_scenario(bundled_path(name))
        doc["run"]["max_sim_time"] = min(doc["run"]["max_sim_time"], doc["network"]["gst"] + 6000)
        records = run_scenario(doc).world.sim.log.records
        assert records
        for rec in records:
            assert repr(rec) == repr(json.loads(json.dumps(rec)))

    def test_happy_path_report_shape(self):
        doc = short_doc()
        doc["checks"] = {"safety": True, "min_finalized": 10, "no_challenges": True}
        res = run_scenario(doc, seed=3)
        assert res.report["scenario"] == doc["name"]
        assert res.report["seed"] == 3
        assert res.report["passed"] is True
        names = [p["name"] for p in res.report["properties"]]
        assert names == ["safety", "liveness", "no-challenges"]
        assert res.world.metrics.blocks_finalized >= 10

    def test_failing_check_reported(self):
        doc = short_doc()
        doc["checks"] = {"safety": True, "min_finalized": 10**6}
        res = run_scenario(doc, seed=3)
        assert res.report["passed"] is False
        failed = [p for p in res.report["properties"] if not p["passed"]]
        assert [p["name"] for p in failed] == ["liveness"]

    def test_determinism_identical_logs(self):
        doc = short_doc()
        digests = [run_scenario(doc, seed=4).world.sim.log.digest() for _ in range(2)]
        assert digests[0] == digests[1]

    def test_seed_changes_log(self):
        doc = short_doc()
        a = run_scenario(doc, seed=4).world.sim.log.digest()
        b = run_scenario(doc, seed=5).world.sim.log.digest()
        assert a != b

    def test_one_latency_per_finalized_block(self):
        """Every block the observer finalizes has a finalization latency,
        counted from when the block entered its tree. Here, at seed 2 to
        8,000 ticks, the proposal of round 8 reaches n0 at tick 355, after
        n0 has entered round 9, so the block enters n0's tree without a vote
        or a payload validation; n0 still finalizes it, with 148 other
        blocks."""
        doc = apply_overrides(load_scenario(bundled_path("happy-path")), ["run.max_sim_time=8000"])
        metrics = run_scenario(doc, seed=2).world.metrics
        assert metrics.blocks_finalized == 149
        assert len(metrics.finalization_latencies) == metrics.blocks_finalized

    def test_transactions_reach_sealed_chain(self):
        doc = short_doc()
        doc["run"]["max_sim_time"] = 12000
        res = run_scenario(doc, seed=1)
        assert res.world.metrics.collections_guaranteed > 0
        assert res.world.metrics.blocks_sealed > 0


class TestWorldsShareNothing:
    """The verdicts a world keeps live on its own objects, so worlds run one
    after another in a process cannot see each other's."""

    def test_seed_1_other_seed_seed_1_reproduce_goldens(self):
        golden = pathlib.Path(__file__).parent / "golden"
        names = ["byzantine-executor", "equivocating-leader", "withheld-collection"]

        def digest(name, seed):
            res = run_scenario(load_scenario(bundled_path(name)), seed=seed)
            return hashlib.sha256(res.world.sim.log.to_jsonl().encode()).hexdigest()

        first = {name: digest(name, 1) for name in names}
        other = {name: digest(name, 2) for name in names}
        again = {name: digest(name, 1) for name in names}
        for name in names:
            stored = (golden / f"{name}.sha256").read_text().strip()
            assert first[name] == again[name] == stored, name
            assert other[name] != stored, name

    def test_engines_of_a_group_share_one_schedule(self):
        world = build_world(short_doc())
        d = world.directory
        assert {id(n.engine.leader) for n in world.consensus} == {id(d.consensus_schedule.leader)}
        for c in world.collectors:
            schedule = d.cluster_schedules[c.cluster_index]
            assert c.engine.leader is schedule.leader
            assert c.engine.table is schedule.table is d.clusters[c.cluster_index]
        assert len({id(s) for s in d.cluster_schedules.values()}) == len(d.clusters)
        assert all(n.engine.table is d.consensus_schedule.table is d.consensus for n in world.consensus)


class TestSchemaDoc:
    def test_default_rows_match_defaults_table(self):
        """Every `| key | default | minimum |` row of the schema doc equals
        the value in scenario.DEFAULTS, the single source of defaults, and
        the bound validation enforces (`—`: none)."""
        doc = pathlib.Path(__file__).parent.parent / "docs" / "scenario-schema.md"
        section, in_defaults_table, checked = None, False, 0
        for line in doc.read_text().splitlines():
            heading = re.match(r"### `(\w+)`", line)
            if heading:
                section, in_defaults_table = heading.group(1), False
            elif line.startswith("| key | default |"):
                in_defaults_table = True
            elif not line.startswith("|"):
                in_defaults_table = False
            elif in_defaults_table and not line.startswith("|---"):
                key, default, low = re.match(r"\| `(\w+)` \| ([^|]+) \| ([^|]+) \|", line).groups()
                assert json.loads(default.strip()) == DEFAULTS[section][key], (section, key)
                low = None if low.strip() == "—" else json.loads(low.strip())
                assert low == _MINIMUMS.get(section, {}).get(key), (section, key)
                checked += 1
        documented = sum(
            len(v) for k, v in DEFAULTS.items() if isinstance(v, dict) and k not in ("stakes", "checks")
        )
        assert checked == documented

    def test_behavior_rows_match_validation(self):
        """The `| behavior | roles |` table lists every behavior validation
        accepts, each with exactly the roles it accepts it for."""
        doc = pathlib.Path(__file__).parent.parent / "docs" / "scenario-schema.md"
        rows = re.findall(r"^\| `(\w+)` \| ((?:`\w+`(?:, )?)+) \|", doc.read_text(), re.M)
        table = {b: tuple(re.findall(r"`(\w+)`", roles)) for b, roles in rows}
        assert table == PERFORMED_BY
