import json
import os

import pytest

from flowpipe.cli import main
from flowpipe.clustering import cluster_compromise_probability


def run_cli(args):
    return main(args)


class TestRunCommand:
    def test_pass_writes_artifacts_and_exits_zero(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_cli(
            ["run", "--scenario", "network-partition", "--out", str(out), "--format", "csv"]
        )
        assert code == 0
        assert (out / "events.jsonl").exists()
        assert (out / "metrics.csv").exists()
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is True
        assert report["scenario"] == "network-partition"

    def test_property_failure_exits_one_with_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_cli(
            [
                "run",
                "--scenario",
                "network-partition",
                "--override",
                "checks.min_finalized=1",
                "--out",
                str(out),
            ]
        )
        assert code == 1
        report = json.loads((out / "report.json").read_text())
        assert report["passed"] is False

    def test_malformed_scenario_exits_two_without_artifacts(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"network": {"delta_tt": 5}}))
        out = tmp_path / "artifacts"
        code = run_cli(["run", "--scenario", str(bad), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "network.delta_tt: unknown key" in capsys.readouterr().err

    def test_unknown_scenario_name_exits_two(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_cli(["run", "--scenario", "no-such-scenario", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "override, error",
        [
            ("network.delta_t=-1", "network.delta_t: must be >= 1"),
            ("network.phi_t=0.5", "network.phi_t: must be >= 1"),
            ("network.gst=-1", "network.gst: must be >= 0"),
            ("stakes.consensus=0", "stakes.consensus: must be >= 1"),
            (
                'adversary=[{"behavior":"equivocate_proposal","role":"consensus","indices":[9]}]',
                "adversary[0].indices[0]: must lie in [0, 7)",
            ),
            (
                'adversary=[{"behavior":"faulty_execution","role":"consensus","indices":[1]}]',
                "adversary[0].role: 'consensus' cannot perform 'faulty_execution' (only execution)",
            ),
        ],
        ids=["delta_t", "phi_t", "gst", "stake", "adversary-index", "adversary-role"],
    )
    def test_bad_override_exits_two(self, tmp_path, capsys, override, error):
        out = tmp_path / "artifacts"
        code = run_cli(
            ["run", "--scenario", "network-partition", "--override", override, "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()
        assert f"config error: {error}" in capsys.readouterr().err.splitlines()

    def test_jsonl_metrics_format(self, tmp_path):
        out = tmp_path / "artifacts"
        code = run_cli(
            ["run", "--scenario", "network-partition", "--out", str(out), "--format", "jsonl"]
        )
        assert code == 0
        row = json.loads((out / "metrics.jsonl").read_text())
        assert row["blocks_finalized"] == 0
        assert not (out / "metrics.csv").exists()

    def test_out_env_fallback(self, tmp_path, monkeypatch):
        env_out = tmp_path / "from-env"
        monkeypatch.setenv("FLOWPIPE_OUT", str(env_out))
        code = run_cli(["run", "--scenario", "network-partition"])
        assert code == 0
        assert (env_out / "report.json").exists()

    def test_seed_flag_recorded_in_report(self, tmp_path):
        out = tmp_path / "artifacts"
        run_cli(
            ["run", "--scenario", "network-partition", "--seed", "42", "--out", str(out)]
        )
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 42

    def test_scenario_by_path(self, tmp_path):
        doc = {"run": {"max_sim_time": 1000}, "checks": {"safety": True}}
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "artifacts"
        assert run_cli(["run", "--scenario", str(path), "--out", str(out)]) == 0


class TestAnalyzeClusters:
    def test_output_matches_library(self, capsys):
        code = run_cli(
            ["analyze-clusters", "--total", "100", "--byzantine", "30", "--sizes", "10,20"]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n_c,byzantine,cluster_size,threshold,probability"
        for line, size in zip(lines[1:], (10, 20)):
            n_c, byz, sz, thr, prob = line.split(",")
            assert (int(n_c), int(byz), int(sz), thr) == (100, 30, size, "2/3")
            from fractions import Fraction

            exact = float(cluster_compromise_probability(100, 30, size, Fraction(2, 3)))
            assert abs(float(prob) - exact) <= 1e-6 * exact

    def test_file_output(self, tmp_path):
        code = run_cli(
            [
                "analyze-clusters",
                "--total",
                "50",
                "--byzantine",
                "10",
                "--sizes",
                "5",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "cluster-analysis.csv").read_text().count("\n") == 2

    def test_bad_threshold_exits_two(self, capsys):
        assert run_cli(
            ["analyze-clusters", "--total", "10", "--byzantine", "3", "--threshold", "x/y"]
        ) == 2

    def test_byzantine_exceeding_total_exits_two(self):
        assert run_cli(["analyze-clusters", "--total", "10", "--byzantine", "11"]) == 2

    def test_oversized_cluster_exits_two(self):
        assert run_cli(
            ["analyze-clusters", "--total", "10", "--byzantine", "3", "--sizes", "11"]
        ) == 2


class TestDkgDemo:
    def test_deterministic_transcript(self, capsys):
        assert run_cli(["dkg-demo", "--committee-size", "5", "--seed", "abc"]) == 0
        first = capsys.readouterr().out
        assert run_cli(["dkg-demo", "--committee-size", "5", "--seed", "abc"]) == 0
        assert capsys.readouterr().out == first
        assert "group signature" in first
        assert "valid=True" in first

    def test_seed_changes_transcript(self, capsys):
        run_cli(["dkg-demo", "--seed", "a"])
        first = capsys.readouterr().out
        run_cli(["dkg-demo", "--seed", "b"])
        assert capsys.readouterr().out != first

    def test_bad_committee_exits_two(self):
        assert run_cli(["dkg-demo", "--committee-size", "0"]) == 2
