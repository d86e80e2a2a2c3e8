"""Experiment harness: scenario files, Monte-Carlo, emission, CLI."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest

from netid import (NetworkModel, RationalTF, ResultTable, Scenario,
                   ScenarioFormatError, emit_results, load_scenarios,
                   plan_experiment_for_model, read_results,
                   run_local_pipeline, run_monte_carlo)
from netid import cli, experiments
from netid.cli import main
from netid.experiments import (_worker_count, check_scenario,
                               default_scenario_file)
from netid.model import default_network_file

GOOD_FILE = """\
# comment
format 1
scenario a
  excite 1 2
  method direct
  target 3 4
  runs 2
  samples 100
  seed 5
scenario b
  excite 3
  method local
  target 3 4
  runs 1
  samples 50
  seed 9
  r_var 2.0
  v_var 0.0
"""


@pytest.fixture()
def failing_estimator(monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("injected estimator failure")

    monkeypatch.setattr(experiments, "estimate_direct", fail)


class TestScenarioFile:
    def test_parse_fields(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text(GOOD_FILE)
        scns = load_scenarios(p)
        assert [s.id for s in scns] == ["a", "b"]
        assert scns[0].excited_nodes == (1, 2)
        assert scns[0].method == "direct"
        assert scns[0].target == (3, 4)
        assert scns[0].base_seed == 5
        assert scns[0].r_var == 1.0 and scns[0].v_var == 1e-6
        assert scns[1].r_var == 2.0 and scns[1].v_var == 0.0

    def test_shipped_file_has_all_scenarios(self):
        scns = load_scenarios(default_scenario_file())
        assert len(scns) == 18
        by_id = {s.id: s for s in scns}
        assert by_id["1"].excited_nodes == tuple(range(1, 21))
        assert by_id["2"].excited_nodes == (3, 4, 5)
        assert by_id["17"].excited_nodes == (1, 7)
        assert by_id["18"].excited_nodes == (1, 16)
        assert all(s.runs == 1000 for s in scns)
        assert all(s.samples_per_run == 10_000 for s in scns)
        assert all(s.method == "direct" and s.target == (3, 4) for s in scns)
        assert len({s.base_seed for s in scns}) == 18

    def test_unknown_key_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text("format 1\nscenario x\n  excite 1\n  turbo on\n")
        with pytest.raises(ScenarioFormatError, match=r":4: unknown key"):
            load_scenarios(p)

    def test_missing_format_line(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text("scenario x\n  excite 1\n")
        with pytest.raises(ScenarioFormatError, match="format"):
            load_scenarios(p)

    def test_unsupported_version(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text("format 99\n")
        with pytest.raises(ScenarioFormatError, match="version"):
            load_scenarios(p)

    def test_duplicate_scenario_id(self, tmp_path):
        p = tmp_path / "s.scn"
        body = "  excite 1\n  method direct\n  target 3 4\n  runs 1\n" \
               "  samples 10\n  seed 0\n"
        p.write_text("format 1\nscenario x\n" + body + "scenario x\n" + body)
        with pytest.raises(ScenarioFormatError, match="duplicate scenario"):
            load_scenarios(p)

    def test_missing_required_key(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text("format 1\nscenario x\n  excite 1\n  method direct\n")
        with pytest.raises(ScenarioFormatError, match="missing keys"):
            load_scenarios(p)

    def test_invalid_node_index(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text("format 1\nscenario x\n  excite 0 1\n")
        with pytest.raises(ScenarioFormatError, match=r":3: invalid value"):
            load_scenarios(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text("")
        with pytest.raises(ScenarioFormatError, match="no scenarios"):
            load_scenarios(p)

    def test_key_before_scenario(self, tmp_path):
        p = tmp_path / "s.scn"
        p.write_text("format 1\nexcite 1\n")
        with pytest.raises(ScenarioFormatError, match="before any"):
            load_scenarios(p)

    @pytest.mark.parametrize("runs, seed, problem", [
        (0, 0, "runs and samples must be >= 1"),
        (2, -5, "seed must be >= 0, got -5")], ids=["runs", "seed"])
    def test_scenario_invariant_names_block_line(self, tmp_path, runs, seed,
                                                 problem):
        # block z starts on line 19, after GOOD_FILE's 18 lines
        p = tmp_path / "s.scn"
        p.write_text(GOOD_FILE + f"scenario z\n  excite 1\n  method direct\n"
                     f"  target 3 4\n  runs {runs}\n  samples 100\n"
                     f"  seed {seed}\n")
        with pytest.raises(ScenarioFormatError,
                           match=re.escape(f"s.scn:19: scenario z: {problem}")):
            load_scenarios(p)

    def test_scenario_invariants(self):
        with pytest.raises(ValueError, match="method"):
            Scenario(id="x", excited_nodes=(1,), method="magic",
                     target=(3, 4), runs=1, samples_per_run=10, base_seed=0)
        with pytest.raises(ValueError, match=">= 1"):
            Scenario(id="x", excited_nodes=(1,), method="direct",
                     target=(3, 4), runs=0, samples_per_run=10, base_seed=0)
        with pytest.raises(ValueError, match="scenario x: seed must be >= 0, "
                                             "got -1"):
            Scenario(id="x", excited_nodes=(1,), method="direct",
                     target=(3, 4), runs=1, samples_per_run=10, base_seed=-1)


class TestMonteCarlo:
    @pytest.fixture()
    def scenario(self):
        return Scenario(id="t", excited_nodes=tuple(range(1, 21)),
                        method="direct", target=(3, 4), runs=4,
                        samples_per_run=600, base_seed=77)

    def test_deterministic_and_seeded_by_run(self, scenario, case_study):
        row1 = run_monte_carlo(scenario, case_study)
        row2 = run_monte_carlo(scenario, case_study)
        assert [r.run for r in row1.runs] == [0, 1, 2, 3]
        assert [(r.a1, r.a2) for r in row1.runs] == \
               [(r.a1, r.a2) for r in row2.runs]
        assert len({(r.a1, r.a2) for r in row1.runs}) == 4  # distinct seeds

    def test_concurrency_does_not_change_results(self, scenario, case_study,
                                                 monkeypatch):
        monkeypatch.setenv("NETID_WORKERS", "1")
        serial = run_monte_carlo(scenario, case_study)
        monkeypatch.setenv("NETID_WORKERS", "4")
        threaded = run_monte_carlo(scenario, case_study)
        assert [(r.a1, r.a2) for r in serial.runs] == \
               [(r.a1, r.a2) for r in threaded.runs]

    def test_runs_and_samples_override(self, scenario, case_study):
        row = run_monte_carlo(scenario, case_study, runs=2, samples=300)
        assert len(row.runs) == 2

    def test_noise_free_run_recovers_exactly(self, case_study):
        scn = Scenario(id="nf", excited_nodes=tuple(range(1, 21)),
                       method="direct", target=(3, 4), runs=1,
                       samples_per_run=4000, base_seed=1, v_var=0.0)
        row = run_monte_carlo(scn, case_study)
        assert abs(row.mean[0] - (-0.3)) < 1e-8
        assert abs(row.mean[1] - 0.8) < 1e-8
        assert row.informative_rate == 1.0

    def test_per_run_errors_recorded_not_fatal(self, case_study,
                                               failing_estimator):
        # every run fails inside the estimator, and the batch still
        # aggregates
        scn = Scenario(id="fail", excited_nodes=(1,), method="direct",
                       target=(3, 4), runs=3, samples_per_run=200,
                       base_seed=0)
        row = run_monte_carlo(scn, case_study)
        assert row.failed_runs == 3
        assert all(r.error == "[estimate] injected estimator failure"
                   for r in row.runs)
        assert np.isnan(row.mean[0])

    @pytest.mark.parametrize("method", ["direct", "local"])
    def test_missing_target_edge_fails_before_any_run(self, case_study,
                                                      monkeypatch, method):
        # (3, 7) is not an edge: every run would fail the same way
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        scn = Scenario(id="noedge", excited_nodes=(3, 7), method=method,
                       target=(3, 7), runs=3, samples_per_run=500,
                       base_seed=0)
        with pytest.raises(ValueError, match=r"target module \(3,7\) is "
                                             r"not an edge"):
            run_monte_carlo(scn, case_study)
        assert simulated == []

    def test_local_excite_set_must_match_plan(self, case_study, monkeypatch):
        # the plan for (3,4) excites {3,4,5,6}; a local run would ignore the
        # scenario's excite line, so a different one is rejected up front
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        scn = Scenario(id="loc1", excited_nodes=(1,), method="local",
                       target=(3, 4), runs=3, samples_per_run=500,
                       base_seed=0)
        with pytest.raises(ValueError, match=r"excite \{1\} differs from the "
                                             r"local plan's excite set "
                                             r"\{3,4,5,6\}"):
            run_monte_carlo(scn, case_study)
        assert simulated == []

    @pytest.fixture()
    def simulated(self, monkeypatch):
        calls = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: calls.append(args))
        return calls

    @pytest.mark.parametrize("method, excited, samples, problem", [
        ("direct", tuple(range(1, 21)), 2,
         r"record too short: 2 samples <= max delay 2"),
        ("local", (3, 4, 5, 6), 600,
         r"T-entry regressor is rank-deficient \(450 rows < 604 "
         r"parameters\)")], ids=["direct", "local"])
    def test_short_record_fails_before_any_run(self, case_study, simulated,
                                               method, excited, samples,
                                               problem):
        scn = Scenario(id="short", excited_nodes=excited, method=method,
                       target=(3, 4), runs=3, samples_per_run=samples,
                       base_seed=0)
        with pytest.raises(ValueError, match="scenario short: " + problem):
            run_monte_carlo(scn, case_study)
        assert simulated == []

    def test_unstable_model_fails_before_any_run(self, case_study,
                                                 simulated):
        # (3,4) scaled x40: spectral radius 4, every run would diverge
        model = NetworkModel(case_study.L, {**dict(case_study.edge_items()),
                                            (3, 4): RationalTF([0.0, -12.0, 32.0])})
        scn = Scenario(id="unst", excited_nodes=tuple(range(1, 21)),
                       method="direct", target=(3, 4), runs=3,
                       samples_per_run=500, base_seed=0)
        with pytest.raises(ValueError, match="scenario unst: the model is "
                                             "not internally stable"):
            run_monte_carlo(scn, model)
        assert simulated == []

    def test_excited_node_above_L_fails_before_any_run(self, case_study,
                                                       simulated):
        scn = Scenario(id="far", excited_nodes=(1, 2, 25), method="direct",
                       target=(3, 4), runs=3, samples_per_run=500,
                       base_seed=0)
        with pytest.raises(ValueError, match=r"scenario far: excited nodes "
                                             r"\{25\} outside 1\.\.20"):
            run_monte_carlo(scn, case_study)
        assert simulated == []

    def test_rational_local_target_fails_before_any_run(self, case_study,
                                                        simulated):
        # (11,10) is first-order rational; its sink-side plan excites
        # {10,12,16}, so only the parametric fit would reject it
        scn = Scenario(id="rat", excited_nodes=(10, 12, 16), method="local",
                       target=(11, 10), runs=3, samples_per_run=500,
                       base_seed=0)
        with pytest.raises(ValueError, match=r"scenario rat: module "
                                             r"\(11,10\) is rational"):
            run_monte_carlo(scn, case_study)
        assert simulated == []

    def test_local_scenario_with_rational_sibling_accepted(self,
                                                           case_study):
        # the source side of (8,13) holds the rational (14,13); only the
        # target is fitted, so the check passes
        plan = plan_experiment_for_model(case_study, (8, 13))
        scn = Scenario(id="sib", excited_nodes=plan.excite_set,
                       method="local", target=(8, 13), runs=3,
                       samples_per_run=10_000, base_seed=0)
        check_scenario(scn, case_study, 10_000)

    def test_local_method_batch(self, case_study):
        scn = Scenario(id="loc", excited_nodes=(3, 4, 5, 6), method="local",
                       target=(3, 4), runs=2, samples_per_run=2000,
                       base_seed=11)
        row = run_monte_carlo(scn, case_study)
        assert row.failed_runs == 0
        assert abs(row.mean[0] - (-0.3)) < 0.05
        assert abs(row.mean[1] - 0.8) < 0.05

    def test_worker_count_env(self, monkeypatch):
        monkeypatch.setenv("NETID_WORKERS", "2")
        assert _worker_count() <= 2  # env caps the default
        monkeypatch.setenv("NETID_WORKERS", "zillion")
        with pytest.raises(ValueError, match="NETID_WORKERS"):
            _worker_count()


class TestLocalPipeline:
    def test_exact_oracle_path(self, case_study):
        est = run_local_pipeline(case_study, (3, 4), exact_T=True)
        assert np.allclose(est.coefficients, [-0.3, 0.8], atol=1e-8)
        assert est.plan.which == "source"
        assert est.dropped_points == 0
        assert est.entry_fit_scores == {}

    def test_estimated_path_close(self, case_study):
        est = run_local_pipeline(case_study, (3, 4), samples=4000, seed=2,
                                 fir_order=60)
        assert abs(est.coefficients[0] - (-0.3)) < 0.05
        assert abs(est.coefficients[1] - 0.8) < 0.05
        assert len(est.entry_fit_scores) == 12

    def test_sink_side_target(self, case_study):
        # node 1 has two out-neighbors but node 2 three in-neighbors; pick a
        # target whose cheaper side is the sink row
        est = run_local_pipeline(case_study, (2, 8), exact_T=True)
        true_num = case_study.edge(2, 8).num.coeffs
        assert np.allclose(est.coefficients, true_num[est.band[0]:],
                           atol=1e-8)

    @pytest.mark.parametrize("target", [(8, 13), (9, 10)])
    def test_target_with_rational_sibling(self, case_study, target):
        # the source side holds rational modules besides the FIR target:
        # (14,13), resp. (11,10), (12,10) and (18,10)
        est = run_local_pipeline(case_study, target, exact_T=True)
        assert est.plan.which == "source"
        true_num = case_study.edge(*target).num.coeffs
        assert np.allclose(est.coefficients, true_num[est.band[0]:],
                           rtol=0, atol=1e-8)

    def test_rational_target_rejected_at_plan(self, case_study):
        with pytest.raises(RuntimeError,
                           match=r"\[plan\] module \(11,10\) is rational"):
            run_local_pipeline(case_study, (11, 10), exact_T=True)

    def test_stage_label_on_error(self, case_study):
        with pytest.raises(RuntimeError, match=r"\[plan\]"):
            run_local_pipeline(case_study, (4, 20))


class TestEmission:
    @pytest.fixture()
    def table(self, case_study):
        scn = Scenario(id="t", excited_nodes=tuple(range(1, 21)),
                       method="direct", target=(3, 4), runs=3,
                       samples_per_run=400, base_seed=5)
        return ResultTable(rows=(run_monte_carlo(scn, case_study),))

    def test_csv_round_trip(self, table, tmp_path):
        (path,) = emit_results(table, tmp_path)
        back = read_results(path)
        assert set(back) == {"t"}
        orig = table.rows[0].runs
        assert [(r.run, r.a1, r.a2, r.informative) for r in back["t"]] == \
               [(r.run, r.a1, r.a2, r.informative) for r in orig]

    def test_csv_byte_identical_across_repeats(self, table, tmp_path,
                                               case_study):
        (p1,) = emit_results(table, tmp_path / "a")
        scn = table.rows[0].scenario
        table2 = ResultTable(rows=(run_monte_carlo(scn, case_study),))
        (p2,) = emit_results(table2, tmp_path / "b")
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_table_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            emit_results(ResultTable(rows=()), tmp_path)

    def test_read_results_validates_header(self, tmp_path):
        p = tmp_path / "results.csv"
        p.write_text("nope\n")
        with pytest.raises(ValueError, match="header"):
            read_results(p)

    @pytest.mark.parametrize("row", ["1,1,-0.3,0.8,True",
                                     "1,1,-0.3,zero,true",
                                     "1,one,-0.3,0.8,true",
                                     "1,1,-0.3,0.8"],
                             ids=["informative", "float", "run", "fields"])
    def test_read_results_rejects_malformed_row(self, tmp_path, row):
        p = tmp_path / "results.csv"
        p.write_text("scenario_id,run,a1,a2,informative\n"
                     "1,0,-0.3,0.8,true\n" + row + "\n")
        with pytest.raises(ValueError,
                           match=re.escape("results.csv:3: malformed row")):
            read_results(p)


class TestCLI:
    def test_montecarlo_and_report(self, tmp_path, capsys):
        out = tmp_path / "res"
        rc = main(["montecarlo", "--scenario", "1", "--runs", "2",
                   "--samples", "500", "--out", str(out)])
        assert rc == 0
        assert (out / "results.csv").exists()
        rc = main(["report", "--out", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "scenario" in text

    def test_report_svg_escapes_the_title(self, tmp_path):
        (tmp_path / "results.csv").write_text(
            "scenario_id,run,a1,a2,informative\n"
            "x<&>'\",0,-0.3,0.8,true\n")
        assert main(["report", "--out", str(tmp_path), "--format",
                     "svg"]) == 0
        svg = next(tmp_path.glob("scatter_scenario_*.svg")).read_text()
        assert "scenario x&lt;&amp;&gt;'\": 1 runs" in svg

    def test_import_leaves_out_the_network_stack(self):
        # html.escape serves the SVG titles; xml.sax.saxutils would import
        # urllib.request and, through it, http.client, email and ssl
        code = ("import sys, netid; print(sorted(m for m in ('urllib.request'"
                ", 'http.client') if m in sys.modules))")
        done = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": os.pathsep.join(
                                  sys.path)})
        assert done.stdout.strip() == "[]"

    def test_report_svg_skips_failed_runs(self, tmp_path, capsys):
        (tmp_path / "results.csv").write_text(
            "scenario_id,run,a1,a2,informative\n"
            "1,0,-0.3,0.8,true\n"
            "1,1,nan,nan,false\n")
        assert main(["report", "--out", str(tmp_path), "--format",
                     "svg"]) == 0
        svg = (tmp_path / "scatter_scenario_1.svg").read_text()
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "scenario 1: 2 runs, informative rate 0.50" in svg
        assert svg.count("<circle") == 1
        assert "nan" not in svg

    def test_montecarlo_csv_determinism(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            assert main(["montecarlo", "--scenario", "2", "--runs", "2",
                         "--samples", "400", "--out", str(out)]) == 0
        assert (a / "results.csv").read_bytes() == \
               (b / "results.csv").read_bytes()

    def test_local_exact(self, capsys):
        assert main(["local", "--exact-t"]) == 0
        text = capsys.readouterr().out
        assert "source-side" in text

    def test_direct(self, capsys):
        assert main(["direct", "--scenario", "1", "--samples", "500",
                     "--seed", "4"]) == 0
        assert "informative" in capsys.readouterr().out

    def test_simulate_and_truth(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--samples", "40", "--seed", "1",
                     "--out", str(out)]) == 0
        assert (out / "signals.csv").exists()
        assert main(["truth", "--grid-points", "16", "--out", str(out)]) == 0
        assert (out / "truth.csv").exists()

    def test_network_flag_loads_custom_file(self, tmp_path, capsys):
        assert main(["local", "--exact-t", "--network",
                     str(default_network_file())]) == 0

    def test_error_exit_code_and_message(self, tmp_path, capsys):
        rc = main(["montecarlo", "--scenario", "nope", "--out",
                   str(tmp_path)])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_montecarlo_missing_target_edge_exits_1(self, tmp_path, capsys):
        scn = tmp_path / "noedge.scn"
        scn.write_text("format 1\nscenario x\n  excite 3 7\n  method direct\n"
                       "  target 3 7\n  runs 3\n  samples 500\n  seed 0\n")
        out = tmp_path / "out"
        rc = main(["montecarlo", "--scenario", str(scn), "--out", str(out)])
        assert rc == 1
        assert "target module (3,7) is not an edge" in capsys.readouterr().err
        assert not out.exists()

    def test_montecarlo_all_runs_failed_exits_1(self, tmp_path, capsys,
                                                failing_estimator):
        rc = main(["montecarlo", "--scenario", "1", "--runs", "2",
                   "--samples", "200", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "scenario 1: all 2 runs failed" in err
        assert "injected estimator failure" in err
        assert len(read_results(tmp_path / "results.csv")["1"]) == 2

    def test_montecarlo_negative_seed_fails_before_any_run(self, tmp_path,
                                                           capsys,
                                                           monkeypatch):
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        out = tmp_path / "out"
        rc = main(["montecarlo", "--scenario", "1", "--runs", "2",
                   "--samples", "500", "--seed", "-1", "--out", str(out)])
        assert rc == 1
        assert ("scenario 1: seed must be >= 0, got -1"
                in capsys.readouterr().err)
        assert simulated == []
        assert not (out / "results.csv").exists()

    def test_simulate_negative_seed_names_it(self, tmp_path, capsys,
                                             monkeypatch):
        simulated = []
        monkeypatch.setattr(cli, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        rc = main(["simulate", "--samples", "40", "--seed", "-3", "--out",
                   str(tmp_path)])
        assert rc == 1
        assert "seed must be >= 0, got -3" in capsys.readouterr().err
        assert simulated == []

    def test_montecarlo_has_no_format_option(self, tmp_path):
        # scatter plots come from `report --format svg` on results.csv
        with pytest.raises(SystemExit):
            main(["montecarlo", "--scenario", "1", "--format", "svg",
                  "--out", str(tmp_path)])

    @pytest.mark.parametrize("runs, rows", [(None, {"a": 3, "b": 2}),
                                            ("4", {"a": 4, "b": 4})])
    def test_montecarlo_runs_come_from_the_file(self, tmp_path, runs, rows):
        scn = tmp_path / "two.scn"
        scn.write_text("format 1\n" + "".join(
            f"scenario {sid}\n  excite 1 2 3 4 5 6 7 8\n  method direct\n"
            f"  target 3 4\n  runs {n}\n  samples 500\n  seed 0\n"
            for sid, n in (("a", 3), ("b", 2))))
        out = tmp_path / "out"
        argv = ["montecarlo", "--scenario", str(scn), "--out", str(out)]
        assert main(argv + (["--runs", runs] if runs else [])) == 0
        lines = (out / "results.csv").read_text().splitlines()[1:]
        assert {sid: sum(line.startswith(sid + ",") for line in lines)
                for sid in "ab"} == rows

    def test_montecarlo_short_record_fails_before_any_run(self, tmp_path,
                                                          capsys):
        # 2 samples are shorter than the regressor's delays
        rc = main(["montecarlo", "--scenario", "1", "--runs", "3",
                   "--samples", "2", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert ("scenario 1: record too short: 2 samples <= max delay 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_report_prints_the_montecarlo_summary(self, tmp_path, capsys,
                                                  monkeypatch):
        # the same statistics from both commands, also when failed runs
        # (nan rows in results.csv) are left out of them
        def summaries(out):
            assert main(["montecarlo", "--scenario", "1", "--runs", "4",
                         "--samples", "2000", "--out", str(out)]) == 0
            mc = re.search(r"scenario 1: mean \((\S+), (\S+)\)  std "
                           r"\((\S+), (\S+)\)  informative (\S+)",
                           capsys.readouterr().out).groups()
            assert main(["report", "--out", str(out)]) == 0
            row = capsys.readouterr().out.splitlines()[1].split()
            assert row[:2] == ["1", "4"]
            return mc, tuple(row[2:])

        mc, report = summaries(tmp_path / "ok")
        assert mc == report

        real = experiments.estimate_direct

        def fails_on_odd_seeds(record, structure):
            if record.seed % 2:
                raise ValueError("injected estimator failure")
            return real(record, structure)

        monkeypatch.setattr(experiments, "estimate_direct",
                            fails_on_odd_seeds)
        mc_failed, report_failed = summaries(tmp_path / "failed")
        assert mc_failed == report_failed
        assert mc_failed != mc and "nan" not in mc_failed

    def test_direct_missing_target_edge_exits_1(self, tmp_path, capsys,
                                                monkeypatch):
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        scn = tmp_path / "noedge.scn"
        scn.write_text("format 1\nscenario x\n  excite 3 7\n  method direct\n"
                       "  target 3 7\n  runs 3\n  samples 500\n  seed 0\n")
        rc = main(["direct", "--scenario", str(scn)])
        assert rc == 1
        assert ("scenario x: target module (3,7) is not an edge of the model"
                in capsys.readouterr().err)
        assert simulated == []

    def test_direct_rejects_local_scenario(self, tmp_path, capsys,
                                           monkeypatch):
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        scn = tmp_path / "local.scn"
        scn.write_text("format 1\nscenario loc\n  excite 3 4 5 6\n"
                       "  method local\n  target 3 4\n  runs 3\n"
                       "  samples 500\n  seed 0\n")
        rc = main(["direct", "--scenario", str(scn)])
        assert rc == 1
        assert "scenario loc has method local" in capsys.readouterr().err
        assert simulated == []

    def test_direct_error_reports_stage(self, capsys, failing_estimator):
        rc = main(["direct", "--scenario", "1", "--samples", "500"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: [estimate] injected estimator failure")

    def test_local_short_record_fails_at_plan(self, capsys, monkeypatch):
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        rc = main(["local", "--samples", "100"])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            "error: [plan] record too short: 100 samples <= FIR order 150")
        assert simulated == []

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("points", [0, 1])
    def test_local_small_grid_fails_at_plan(self, capsys, monkeypatch, points,
                                            exact):
        called = []
        for name in ("simulate", "true_T"):
            monkeypatch.setattr(experiments, name,
                                lambda *args, **kwargs: called.append(args))
        rc = main(["local", "--grid-points", str(points)]
                  + ["--exact-t"] * exact)
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: [plan] grid of {points} points is too small to fit band "
            f"(1, 2)'s 2 coefficients")
        assert called == []

    def test_montecarlo_has_no_estimator_options(self, tmp_path):
        # a scenario file pins the whole study, local scenarios included
        for option in ("--fir-order", "--grid-points"):
            with pytest.raises(SystemExit):
                main(["montecarlo", "--scenario", "1", option, "60",
                      "--out", str(tmp_path)])

    def test_bad_target_reports_stage(self, capsys):
        rc = main(["local", "--target", "4,20", "--exact-t"])
        assert rc == 1
        assert "[plan]" in capsys.readouterr().err
