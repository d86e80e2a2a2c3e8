"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines
as they complete.  Monte-Carlo batches are cached across criteria so shared
scenarios are simulated once.
"""

import time

import numpy as np
import pytest

from conftest import random_stable_network
from oracles import impulse_response, true_T_impulse
from netid import (FreqGrid, NetworkModel, RationalTF, build_case_study,
                   fit_parametric, load_scenarios, plan_experiment_for_model,
                   run_local_pipeline, run_monte_carlo, solve_sink_side,
                   solve_source_side, true_T)
from netid.cli import main
from netid.experiments import default_scenario_file

TRUE_A1, TRUE_A2 = -0.3, 0.8

_MODEL = build_case_study()
_SCENARIOS = {s.id: s for s in load_scenarios(default_scenario_file())}
_MC_CACHE: dict = {}
_MC_SECONDS: dict = {}


def _mc(sid: str):
    """100-run Monte-Carlo batch for shipped scenario `sid`, cached."""
    if sid not in _MC_CACHE:
        t0 = time.perf_counter()
        _MC_CACHE[sid] = run_monte_carlo(_SCENARIOS[sid], _MODEL, runs=100,
                                         samples=10_000)
        _MC_SECONDS[sid] = time.perf_counter() - t0
    return _MC_CACHE[sid]


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num} [{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_1_consistent_scenarios():
    sids = ["1", "2", "5", "7", "8", "9", "10", "17", "18"]
    worst = 0.0
    for sid in sids:
        row = _mc(sid)
        err = max(abs(row.mean[0] - TRUE_A1), abs(row.mean[1] - TRUE_A2))
        worst = max(worst, err)
    elapsed = sum(_MC_SECONDS[sid] for sid in sids)
    ok = worst <= 0.02 and elapsed < 120.0
    _report(1, "consistent direct-method scenarios", ok,
            f"worst |mean - true| {worst:.4f} (limit 0.02) over "
            f"{len(sids)} scenarios x 100 runs in {elapsed:.1f} s "
            f"(limit 120 s)")


def test_criterion_2_non_informative_scenarios():
    ref_std = _mc("1").std[1]
    worst_flag = 1.0
    worst_ratio = np.inf
    for sid in ["3", "4", "6"]:
        row = _mc(sid)
        flagged = 1.0 - row.informative_rate
        worst_flag = min(worst_flag, flagged)
        worst_ratio = min(worst_ratio, row.std[1] / ref_std)
    ok = worst_flag >= 0.95 and worst_ratio >= 10.0
    _report(2, "non-informative scenarios flagged", ok,
            f"min flag rate {worst_flag:.0%} (need >= 95%), min std(a2) "
            f"ratio vs scenario 1 {worst_ratio:.0f}x (need >= 10x)")


def test_criterion_3_local_pipeline():
    t0 = time.perf_counter()
    est = run_local_pipeline(_MODEL, (3, 4), samples=10_000, seed=0,
                             fir_order=150, grid_points=100)
    elapsed = time.perf_counter() - t0
    err = max(abs(est.coefficients[0] - TRUE_A1),
              abs(est.coefficients[1] - TRUE_A2))
    fits = est.entry_fit_scores
    worst_fit = min(fits.values())
    # shorter non-parametric stage: coefficient accuracy must survive even
    # though truncation bias pulls the T-entry fit scores under the bar
    est50 = run_local_pipeline(_MODEL, (3, 4), samples=10_000, seed=0,
                               fir_order=50, grid_points=100)
    err50 = max(abs(est50.coefficients[0] - TRUE_A1),
                abs(est50.coefficients[1] - TRUE_A2))
    ok = (err <= 0.02 and len(fits) == 12 and worst_fit > 0.99
          and elapsed < 30.0 and err50 <= 0.02)
    _report(3, "local two-step pipeline", ok,
            f"coeff error {err:.4f} (limit 0.02), worst of {len(fits)} "
            f"T-entry fits {worst_fit:.4f} (need > 0.99), {elapsed:.1f} s "
            f"(limit 30 s); order-50 coeff error {err50:.4f}")


def test_criterion_4_exact_oracle_equivalence():
    rng = np.random.default_rng(20240815)
    grid = FreqGrid.uniform(64)
    t0 = time.perf_counter()
    worst = 0.0
    worst_gap = 0.0
    for _ in range(50):
        model = random_stable_network(rng)
        edges = model.edge_items()
        (j, i), _tf = edges[int(rng.integers(len(edges)))]
        nodes = tuple(range(1, model.L + 1))
        tmat = true_T(model, nodes, nodes, grid)

        src = solve_source_side(tmat, i, model.out_neighbors(i))
        fits: dict = {}
        for to in model.out_neighbors(i):
            num = model.edge(to, i).num.coeffs
            fit = fit_parametric(src.module_samples(to, i),
                                 (1, len(num) - 1), grid=src.grid)
            worst = max(worst, np.abs(fit.coefficients - num[1:]).max())
            fits[(to, i)] = fit.coefficients
        snk = solve_sink_side(tmat, j, model.in_neighbors(j))
        for frm in model.in_neighbors(j):
            num = model.edge(j, frm).num.coeffs
            fit = fit_parametric(snk.module_samples(j, frm),
                                 (1, len(num) - 1), grid=snk.grid)
            worst = max(worst, np.abs(fit.coefficients - num[1:]).max())
            if (j, frm) in fits:  # the target edge, solved from both sides
                gap = np.abs(fit.coefficients - fits[(j, frm)]).max()
                worst_gap = max(worst_gap, gap)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and worst_gap < 1e-9 and elapsed < 10.0
    _report(4, "source/sink solves from exact T", ok,
            f"max coeff error {worst:.2e} (limit 1e-8), max side "
            f"disagreement {worst_gap:.2e} (limit 1e-9) over 50 networks "
            f"in {elapsed:.1f} s (limit 10 s)")


def test_criterion_5_simulator_vs_oracles():
    n = 50
    imp = impulse_response(_MODEL, 4, n)
    worst_sim = 0.0
    worst_oracle = 0.0
    for j in (3, 5, 6):
        spectral = true_T_impulse(_MODEL, j, 4, n, method="spectral")
        cofactor = true_T_impulse(_MODEL, j, 4, n, method="cofactor")
        worst_sim = max(worst_sim, np.abs(imp[j - 1] - spectral).max())
        worst_oracle = max(worst_oracle, np.abs(spectral - cofactor).max())
    ok = worst_sim < 1e-10 and worst_oracle < 1e-9
    _report(5, "simulator matches independent oracles", ok,
            f"simulator vs spectral {worst_sim:.2e} (limit 1e-10), "
            f"spectral vs 40-digit cofactor {worst_oracle:.2e} "
            f"(limit 1e-9) on entries (3,4),(5,4),(6,4) x {n} samples")


def test_criterion_6_plan_ignores_remote_edges():
    base = plan_experiment_for_model(_MODEL, (3, 4))
    local_nodes = set(base.excite_set) | set(base.measure_set) | {3, 4}
    rng = np.random.default_rng(66)
    remote = [(j, i) for (j, i), _ in _MODEL.edge_items()
              if j not in local_nodes and i not in local_nodes]
    nodes = [n for n in range(1, _MODEL.L + 1) if n not in local_nodes]
    edges = dict(_MODEL.edge_items())
    changed = 0
    for _ in range(100):
        op = rng.choice(["remove", "scale", "add"])
        if op == "remove":
            j, i = remote[int(rng.integers(len(remote)))]
            mutated = NetworkModel(_MODEL.L, {k: tf for k, tf in edges.items()
                                              if k != (j, i)})
        elif op == "scale":
            j, i = remote[int(rng.integers(len(remote)))]
            tf = _MODEL.edge(j, i)
            scaled = RationalTF(np.asarray(tf.num.coeffs) * 1.7,
                                tf.den.coeffs)
            mutated = NetworkModel(_MODEL.L, {**edges, (j, i): scaled})
        else:
            while True:
                j, i = rng.choice(nodes, size=2, replace=False)
                if not _MODEL.has_edge(int(j), int(i)):
                    break
            mutated = NetworkModel(_MODEL.L, {**edges, (int(j), int(i)):
                                              RationalTF((0.0, 0.4))})
        if plan_experiment_for_model(mutated, (3, 4)) != base:
            changed += 1
    ok = changed == 0
    _report(6, "experiment plan is local to the target", ok,
            f"{changed} of 100 remote-edge mutations changed the plan "
            f"(need 0)")


def test_criterion_7_cli_determinism(tmp_path, monkeypatch):
    outs = []
    for name, workers in (("a", "1"), ("b", "4")):
        monkeypatch.setenv("NETID_WORKERS", workers)
        out = tmp_path / name
        rc = main(["montecarlo", "--scenario", "1", "--runs", "5",
                   "--samples", "1000", "--out", str(out)])
        assert rc == 0
        outs.append((out / "results.csv").read_bytes())
    ok = outs[0] == outs[1] and len(outs[0]) > 0
    _report(7, "repeated CLI runs are byte-identical", ok,
            f"two montecarlo invocations (1 vs 4 workers) wrote "
            f"{len(outs[0])} identical bytes")
