"""Experiment harness: scenario files, Monte-Carlo, emission, CLI."""

import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from conftest import random_rational_network, random_stable_network
from netid import (DirectModelStructure, ExcitationSpec, NetworkModel,
                   RationalTF, ResultTable, Scenario, ScenarioFormatError,
                   emit_results, estimate_T_entries, fit_parametric,
                   is_internally_stable, load_scenarios,
                   plan_experiment_for_model, read_results,
                   run_local_pipeline, run_monte_carlo, simulate,
                   solve_sink_side, solve_source_side)
from netid import cli, experiments
from netid.cli import main
from netid.experiments import (_worker_count, check_scenario,
                               default_scenario_file, run_direct)
from netid.local import DEFAULT_FIR_ORDER, factor_excitation_gram
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
def wide_band():
    """Three nodes in a chain: (2,1) has 101 taps of 0.001 at delays
    1..101, (3,2) is 0.5 q^-1."""
    return NetworkModel(3, {(2, 1): RationalTF([0.0] + [0.001] * 101),
                            (3, 2): RationalTF([0.0, 0.5])})


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

    def test_first_block_error_reported_before_a_later_one(self, tmp_path):
        # block x (line 2) lacks seed; block y's unknown key on line 10 is
        # read only after the header that closes x
        p = tmp_path / "s.scn"
        p.write_text("format 1\nscenario x\n  excite 1\n  method direct\n"
                     "  target 3 4\n  runs 1\n  samples 10\n"
                     "scenario y\n  excite 1\n  turbo on\n")
        with pytest.raises(ScenarioFormatError, match=re.escape(
                "s.scn:2: scenario x is missing keys: seed")):
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

    @pytest.mark.parametrize("key, value, problem", [
        ("runs", "0", "runs must be >= 1"),
        ("seed", "-5", "seed must be >= 0, got -5"),
        ("method", "magic", "method must be 'direct' or 'local', got 'magic'"),
        ("r_var", "-1", "variances must be >= 0"),
        ("samples", "0", "sample count must be >= 1")],
        ids=["runs", "seed", "method", "r_var", "samples"])
    def test_scenario_invariant_names_block_line(self, tmp_path, key, value,
                                                 problem):
        # block z starts on line 19, after GOOD_FILE's 18 lines; the value
        # parses, so its key's line is not named
        body = {"excite": "1", "method": "direct", "target": "3 4",
                "runs": "2", "samples": "100", "seed": "0", key: value}
        p = tmp_path / "s.scn"
        p.write_text(GOOD_FILE + "scenario z\n" + "".join(
            f"  {k} {v}\n" for k, v in body.items()))
        with pytest.raises(ScenarioFormatError,
                           match=re.escape(f"s.scn:19: scenario z: {problem}")):
            load_scenarios(p)

    @pytest.mark.parametrize("line", [
        "excite", "excite 1 x", "method direct local", "target 3",
        "target 0 4", "seed 1.5", "samples", "v_var small"])
    def test_value_errors_name_the_key_line(self, tmp_path, line):
        p = tmp_path / "s.scn"
        p.write_text(f"format 1\nscenario x\n  runs 1\n  {line}\n")
        with pytest.raises(ScenarioFormatError,
                           match=re.escape(f"s.scn:4: invalid value for "
                                           f"{line.split()[0]!r}")):
            load_scenarios(p)

    @pytest.mark.parametrize("text, message", [
        ("format 1\nformat 1\n", ":2: duplicate format line"),
        ("format\n", ":1: expected: format <version>"),
        ("format x\n", ":1: expected: format <version>"),
        ("format 1\nscenario\n", ":2: expected: scenario <id>"),
        ("format 1\nscenario a b\n", ":2: expected: scenario <id>"),
        ("format 1\nscenario x\n  runs 1\n  runs 2\n",
         ":4: duplicate key 'runs' in scenario x")],
        ids=["format_twice", "format_bare", "format_word", "scenario_bare",
             "scenario_two_ids", "key_twice"])
    def test_line_errors_name_their_line(self, tmp_path, text, message):
        p = tmp_path / "s.scn"
        p.write_text(text)
        with pytest.raises(ScenarioFormatError,
                           match=re.escape(f"s.scn{message}")):
            load_scenarios(p)

    def test_excite_nodes_are_sorted_and_distinct(self, tmp_path):
        scn = Scenario(id="x", excited_nodes=(5, 3, 3), method="direct",
                       target=(3, 4), runs=1, samples_per_run=10, base_seed=0)
        assert scn.excited_nodes == (3, 5)
        p = tmp_path / "s.scn"
        p.write_text(GOOD_FILE.replace("excite 1 2", "excite 2 1 2"))
        assert load_scenarios(p)[0].excited_nodes == (1, 2)

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

    def test_empty_excite_set_rejected(self):
        with pytest.raises(ValueError,
                           match="scenario x: excited_nodes is empty"):
            Scenario(id="x", excited_nodes=(), method="direct",
                     target=(3, 4), runs=1, samples_per_run=10, base_seed=0)


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

    def test_result_carries_the_counts_it_ran_with(self, scenario,
                                                   case_study):
        row = run_monte_carlo(scenario, case_study, runs=2, samples=300)
        assert (row.scenario.runs, row.scenario.samples_per_run) == (2, 300)
        assert row.scenario.base_seed == scenario.base_seed

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

    def test_local_zero_r_var_fails_before_any_run(self, case_study,
                                                   simulated):
        # with no excitation every run would fail at [estimate]: column
        # node 3 is not excited
        scn = Scenario(id="quiet", excited_nodes=(3, 4, 5, 6), method="local",
                       target=(3, 4), runs=2, samples_per_run=3000,
                       base_seed=0, r_var=0.0)
        with pytest.raises(ValueError, match="scenario quiet: r_var 0 "):
            run_monte_carlo(scn, case_study)
        assert simulated == []

    def test_local_band_wider_than_the_grid_fails_before_any_run(
            self, wide_band, simulated):
        # (2,1) has 101 taps, more than the default grid's 100 points, so
        # every run would fail at [plan]
        scn = Scenario(id="wide", excited_nodes=(1, 2), method="local",
                       target=(2, 1), runs=2, samples_per_run=3000,
                       base_seed=0)
        with pytest.raises(ValueError, match=re.escape(
                "scenario wide: grid of 100 points is too small to fit band "
                "(1, 101)'s 101 coefficients")):
            run_monte_carlo(scn, wide_band)
        assert simulated == []

    @pytest.mark.parametrize("network, target, band", [
        ("case_study", (3, 5), (1, 1)), ("wide_band", (2, 1), (1, 101))],
        ids=["one_tap", "101_taps"])
    def test_target_not_two_taps_wide_fails_before_any_run(
            self, request, simulated, network, target, band):
        # results.csv holds a1 and a2: a 1-tap target's a2 would read nan,
        # and taps past the second would be lost
        model = request.getfixturevalue(network)
        scn = Scenario(id="taps", excited_nodes=tuple(range(1, model.L + 1)),
                       method="direct", target=target, runs=3,
                       samples_per_run=500, base_seed=0)
        check_scenario(scn, model)  # netid direct accepts it
        j, i = target
        with pytest.raises(ValueError, match=re.escape(
                f"scenario taps: target module ({j},{i})'s band {band} is "
                f"not two taps wide")):
            run_monte_carlo(scn, model)
        assert simulated == []

    @pytest.mark.parametrize("network", ["case_study", "wide_band",
                                         "random_stable", "random_rational"])
    def test_check_agrees_with_the_plan_stage(self, request, monkeypatch,
                                              network):
        # check_scenario passes exactly when run 0 gets past [plan] and, for
        # a direct scenario, leaves its regression as many rows as
        # parameters; targets and sample counts are drawn from fixed seeds,
        # the counts near the max delay and near the parameter count, and
        # only what the batch-only rules accept: a stable model, the plan's
        # excite set for a local scenario, r_var above 0
        class Simulated(Exception):
            pass

        def simulate(*args, **kwargs):
            raise Simulated

        monkeypatch.setattr(experiments, "simulate", simulate)
        rng = np.random.default_rng(21)
        if network.startswith("random"):
            make = random_stable_network if network == "random_stable" \
                else random_rational_network
            models = [make(rng) for _ in range(12)]
        else:
            models = [request.getfixturevalue(network)]
        cases = 0
        for model in models:
            assert is_internally_stable(model)
            edges = [edge for edge, _ in model.edge_items()]
            for _ in range(96 // len(models)):
                j, i = edges[rng.integers(len(edges))]
                method = ("direct", "local")[rng.integers(2)]
                plan = plan_experiment_for_model(model, (j, i))
                if method == "local":
                    excited = plan.excite_set
                    edge = DEFAULT_FIR_ORDER
                    n_params = len(excited) * (DEFAULT_FIR_ORDER + 1)
                else:
                    excited = tuple(int(k) for k in np.flatnonzero(
                        rng.random(model.L) < 0.5) + 1) or (j,)
                    try:
                        structure = DirectModelStructure.from_model(model, j)
                        edge = structure.max_delay
                        n_params = structure.slices()[-1].stop
                    except ValueError:  # a rational module into j
                        edge, n_params = 2, 3
                samples = max(1, int(rng.choice(
                    [edge, edge + n_params]) + rng.integers(-1, 2)))
                scn = Scenario(id="p", excited_nodes=excited, method=method,
                               target=(j, i), runs=1, samples_per_run=samples,
                               base_seed=0)
                try:
                    check_scenario(scn, model)
                    checked = True
                except ValueError:
                    checked = False
                with pytest.raises(RuntimeError) as run:
                    if method == "direct":
                        run_direct(model, scn, scn.base_seed)
                    else:
                        run_local_pipeline(model, (j, i), samples=samples,
                                           seed=scn.base_seed)
                planned = isinstance(run.value.__cause__, Simulated)
                assert planned or str(run.value).startswith("[plan]")
                if planned and method == "direct":
                    planned = samples - edge >= n_params
                assert checked == planned, (model.edge_items(), method,
                                            (j, i), samples)
                cases += checked
        assert cases > 0

    def test_local_scenario_with_rational_sibling_accepted(self,
                                                           case_study):
        # the source side of (8,13) holds the rational (14,13); only the
        # target is fitted, so the check passes
        plan = plan_experiment_for_model(case_study, (8, 13))
        scn = Scenario(id="sib", excited_nodes=plan.excite_set,
                       method="local", target=(8, 13), runs=3,
                       samples_per_run=10_000, base_seed=0)
        check_scenario(scn, case_study)

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

    @pytest.mark.parametrize("samples", [10_000, 20_011])
    @pytest.mark.parametrize("target", [(3, 4), (9, 8)])
    def test_helper_thread_matches_stages_in_series(self, case_study, target,
                                                    samples, monkeypatch):
        # 20,011 samples span two segment groups of the T-entry regression
        threads = []

        def factor(*args):
            threads.append(threading.current_thread())
            return factor_excitation_gram(*args)

        monkeypatch.setattr(experiments, "factor_excitation_gram", factor)
        est = run_local_pipeline(case_study, target, samples=samples, seed=5)
        assert len(threads) == 1
        assert threads[0] is not threading.main_thread()

        j, i = target
        plan = est.plan
        record = simulate(case_study, ExcitationSpec(
            plan.excite_set, N=samples, seed=5, r_variance=1.0,
            v_variance=1e-6))
        tmat = estimate_T_entries(record, plan.measure_set, plan.excite_set)
        if plan.which == "source":
            solved = solve_source_side(tmat.freq, i, plan.measure_set)
        else:
            solved = solve_sink_side(tmat.freq, j, plan.excite_set)
        fit = fit_parametric(solved.module_samples(j, i), est.band,
                             grid=solved.grid)
        assert est.coefficients.tobytes() == fit.tobytes()
        assert est.entry_fit_scores == tmat.entry_fit_scores()
        assert est.dropped_points == solved.dropped_points
        assert len(threads) == 1  # the series estimate factored in line

    def test_pool_runs_factor_on_their_own_thread(self, case_study,
                                                  monkeypatch):
        factors = []

        def estimate(*args, factor=None, **kwargs):
            factors.append(factor)
            return estimate_T_entries(*args, factor=factor, **kwargs)

        monkeypatch.setattr(experiments, "estimate_T_entries", estimate)
        scn = Scenario(id="l", excited_nodes=(3, 4, 5, 6), method="local",
                       target=(3, 4), runs=2, samples_per_run=2000,
                       base_seed=1)
        before = threading.active_count()
        assert run_monte_carlo(scn, case_study).failed_runs == 0
        assert factors == [None, None]
        assert threading.active_count() == before

    def test_errors_keep_stage_and_end_the_helper(self, case_study):
        before = threading.active_count()
        # the helper's factor of an all-zero excitation fails too, but the
        # estimate's own check comes first
        with pytest.raises(RuntimeError,
                           match=r"^\[estimate\] column node \d+ is not "
                                 r"excited"):
            run_local_pipeline(case_study, (3, 4), samples=2000, seed=1,
                               fir_order=60, r_var=0.0)
        assert threading.active_count() == before
        # (3,4) scaled x40: spectral radius 4
        unstable = NetworkModel(case_study.L, {
            **dict(case_study.edge_items()),
            (3, 4): RationalTF([0.0, -12.0, 32.0])})
        with pytest.raises(RuntimeError,
                           match=r"^\[simulate\] simulation diverged"):
            run_local_pipeline(unstable, (3, 4), samples=2000, seed=1,
                               fir_order=60)
        assert threading.active_count() == before


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

    def test_local_from_data(self, capsys):
        assert main(["local", "--samples", "2000", "--fir-order", "60"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == ("target module (3, 4): source-side solve (excite "
                            "{3,4,5,6}, measure {3,5,6}, 12 T entries)")
        assert re.fullmatch(r"  worst T-entry fit score 0\.\d{6} over 12 "
                            r"entries", lines[1])
        assert lines[-1].startswith("  coefficients (delays 1..2): [")

    @pytest.mark.parametrize("command", ["local", "truth"])
    @pytest.mark.parametrize("value", ["3", "3,4,5", "3,x", "3.5,4"])
    def test_target_needs_two_integer_nodes(self, capsys, command, value):
        assert main([command, "--target", value]) == 1
        assert capsys.readouterr().err == \
            f"error: --target expects 'j,i', got {value!r}\n"

    def test_report_without_results_names_the_command(self, tmp_path,
                                                      capsys):
        assert main(["report", "--out", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: no results.csv under {tmp_path}; run "
            f"'netid montecarlo --out {tmp_path}' first\n")

    def test_direct(self, capsys):
        assert main(["direct", "--scenario", "1", "--samples", "500",
                     "--seed", "4"]) == 0
        assert "informative" in capsys.readouterr().out

    def test_scenario_id_beside_a_directory_of_that_name(self, tmp_path,
                                                          capsys,
                                                          monkeypatch):
        # `montecarlo --out 1` leaves a directory 1; --scenario 1 still
        # names the shipped scenario, not the directory
        monkeypatch.chdir(tmp_path)
        (tmp_path / "1").mkdir()
        assert main(["direct", "--scenario", "1", "--samples", "500"]) == 0
        assert capsys.readouterr().out.startswith("scenario 1: direct")

    def test_simulate_and_truth(self, tmp_path):
        out = tmp_path / "sim"
        assert main(["simulate", "--samples", "40", "--seed", "1",
                     "--out", str(out)]) == 0
        assert (out / "signals.csv").exists()
        assert main(["truth", "--grid-points", "16", "--out", str(out)]) == 0
        assert (out / "truth.csv").exists()

    def test_simulate_takes_excitation_from_the_scenario(self, tmp_path,
                                                         capsys, case_study):
        scn = tmp_path / "s.scn"
        scn.write_text("format 1\nscenario s\n  excite 5 2\n  method direct\n"
                       "  target 3 4\n  runs 1\n  samples 100\n  seed 0\n"
                       "  r_var 4.0\n  v_var 0.0\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scn), "--samples", "50",
                     "--seed", "3", "--out", str(out)]) == 0
        assert "(excited 2,5, seed 3)" in capsys.readouterr().out
        rec = simulate(case_study, ExcitationSpec(
            (2, 5), N=50, seed=3, r_variance=4.0, v_variance=0.0))
        rows = (out / "signals.csv").read_text().splitlines()[1:]
        assert rows == [",".join([str(t)] + [repr(float(x))
                                             for x in rec.w[:, t]])
                        for t in range(50)]

    def test_simulate_takes_samples_and_seed_from_the_scenario(
            self, tmp_path, capsys, case_study):
        scn = tmp_path / "s.scn"
        scn.write_text("format 1\nscenario s\n  excite 4\n  method direct\n"
                       "  target 3 4\n  runs 1\n  samples 30\n  seed 7\n")
        out = tmp_path / "sim"
        assert main(["simulate", "--scenario", str(scn), "--out",
                     str(out)]) == 0
        assert "x 30 samples (excited 4, seed 7)" in capsys.readouterr().out
        rec = simulate(case_study, ExcitationSpec((4,), N=30, seed=7))
        rows = (out / "signals.csv").read_text().splitlines()[1:]
        assert rows == [",".join([str(t)] + [repr(float(x))
                                             for x in rec.w[:, t]])
                        for t in range(30)]

    @pytest.mark.parametrize("command", ["direct", "simulate"])
    def test_one_scenario_commands_reject_a_file_of_several(
            self, tmp_path, capsys, monkeypatch, command):
        scn = tmp_path / "two.scn"
        scn.write_text(GOOD_FILE)
        monkeypatch.chdir(tmp_path)  # where simulate would write netid-out
        assert main([command, "--scenario", str(scn)]) == 1
        assert capsys.readouterr().err == (
            f"error: scenario file {scn} holds 2 scenarios (a, b); "
            f"'netid {command}' takes one\n")
        assert not (tmp_path / "netid-out").exists()

    def test_report_has_no_network_option(self, tmp_path):
        # report reads results.csv and never loads a network
        with pytest.raises(SystemExit):
            main(["report", "--network", str(default_network_file()),
                  "--out", str(tmp_path)])

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

    @pytest.mark.parametrize("argv, where", [
        (["direct", "--seed", "-1"], "scenario 1:"),
        (["local", "--seed", "-2"], "[plan]")], ids=["direct", "local"])
    def test_negative_seed_fails_at_plan(self, capsys, monkeypatch, argv,
                                         where):
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(
            f"error: {where} seed must be >= 0, got {argv[-1]}")
        assert simulated == []

    @pytest.mark.parametrize("command", ["direct", "simulate", "montecarlo"])
    def test_negative_seed_reads_the_same_for_every_scenario_command(
            self, tmp_path, capsys, monkeypatch, command):
        simulated = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "simulate",
                                lambda *args, **kwargs: simulated.append(args))
        monkeypatch.chdir(tmp_path)  # where simulate would write netid-out
        assert main([command, "--scenario", "1", "--seed", "-3"]) == 1
        assert capsys.readouterr().err == (
            "error: scenario 1: seed must be >= 0, got -3\n")
        assert simulated == []
        assert not (tmp_path / "netid-out").exists()

    @pytest.mark.parametrize("option, value, problem", [
        ("--runs", "-1", "runs must be >= 1"),
        ("--samples", "-3", "sample count must be >= 1")],
        ids=["runs", "samples"])
    def test_montecarlo_bad_count_names_the_scenario(self, tmp_path, capsys,
                                                     option, value, problem):
        out = tmp_path / "out"
        rc = main(["montecarlo", "--scenario", "1", option, value, "--out",
                   str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(
            f"error: scenario 1: {problem}")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["direct", "--samples", "-5"],
        ["simulate", "--scenario", "1", "--samples", "0"],
        ["montecarlo", "--scenario", "1", "--samples", "0"]],
        ids=["direct", "simulate", "montecarlo"])
    def test_samples_override_breaks_the_scenario_rule(self, tmp_path, capsys,
                                                       monkeypatch, argv):
        simulated = []
        for module in (cli, experiments):
            monkeypatch.setattr(module, "simulate",
                                lambda *args, **kwargs: simulated.append(args))
        monkeypatch.chdir(tmp_path)  # where simulate would write netid-out
        assert main(argv) == 1
        assert capsys.readouterr().err == (
            "error: scenario 1: sample count must be >= 1\n")
        assert simulated == []
        assert not (tmp_path / "netid-out").exists()

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

    def test_montecarlo_without_scenario_runs_the_shipped_file(self,
                                                                tmp_path):
        out = tmp_path / "out"
        assert main(["montecarlo", "--runs", "1", "--samples", "300",
                     "--out", str(out)]) == 0
        lines = (out / "results.csv").read_text().splitlines()[1:]
        assert [line.split(",")[:2] for line in lines] == [
            [s.id, "0"] for s in load_scenarios(default_scenario_file())]
        assert len(lines) == 18

    def test_montecarlo_checks_every_scenario_before_the_first_batch(
            self, tmp_path, capsys, monkeypatch):
        # a bad last scenario must not cost the batches before it
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        scn = tmp_path / "three.scn"
        scn.write_text("format 1\n" + "".join(
            f"scenario {sid}\n  excite {nodes}\n  method direct\n"
            f"  target 3 4\n  runs 2\n  samples 500\n  seed 0\n"
            for sid, nodes in (("a", "1 2 3 4"), ("b", "3 4 5"),
                               ("c", "3 25"))))
        out = tmp_path / "out"
        assert main(["montecarlo", "--scenario", str(scn), "--out",
                     str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "error: scenario c: excited nodes {25} outside 1..20\n")
        assert captured.out == ""
        assert simulated == []
        assert not (out / "results.csv").exists()

    def test_montecarlo_short_record_fails_before_any_run(self, tmp_path,
                                                          capsys):
        # 2 samples are shorter than the regressor's delays
        rc = main(["montecarlo", "--scenario", "1", "--runs", "3",
                   "--samples", "2", "--out", str(tmp_path / "out")])
        assert rc == 1
        assert ("scenario 1: record too short: 2 samples <= max delay 2"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_montecarlo_fewer_rows_than_parameters_fails_before_any_run(
            self, tmp_path, capsys, monkeypatch):
        # 3 samples leave node 3's regression 1 row for its 7 parameters:
        # every run would report a minimum-norm estimate
        simulated = []
        monkeypatch.setattr(experiments, "simulate",
                            lambda *args, **kwargs: simulated.append(args))
        out = tmp_path / "out"
        rc = main(["montecarlo", "--scenario", "1", "--runs", "2",
                   "--samples", "3", "--out", str(out)])
        assert rc == 1
        assert ("scenario 1: record too short: 1 regression rows < 7 "
                "parameters" in capsys.readouterr().err)
        assert simulated == []
        assert not out.exists()

    def test_local_batch_csv_same_at_one_and_four_workers(self, tmp_path,
                                                          monkeypatch):
        scn = tmp_path / "local.scn"
        scn.write_text("format 1\nscenario loc\n  excite 3 4 5 6\n"
                       "  method local\n  target 3 4\n  runs 3\n"
                       "  samples 2000\n  seed 0\n")
        csvs = []
        for workers in ("1", "4"):
            monkeypatch.setenv("NETID_WORKERS", workers)
            out = tmp_path / workers
            assert main(["montecarlo", "--scenario", str(scn), "--out",
                         str(out)]) == 0
            csvs.append((out / "results.csv").read_bytes())
        assert csvs[0] == csvs[1]
        assert csvs[0].count(b"\nloc,") == 3
        assert b"nan" not in csvs[0]

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
        assert main(["local", "--samples", "2000", "--fir-order", "0"]) == 1
        assert capsys.readouterr().err == \
            "error: [plan] fir_order must be at least 1\n"
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
