"""Local two-step method: planning, T-entry estimation, solves, fitting."""

import numpy as np
import pytest

from netid import (ExcitationSpec, FreqGrid, FreqResponseMatrix, NetworkModel,
                   RationalTF, estimate_T_entries, fit_parametric,
                   plan_experiment, plan_experiment_for_model, simulate,
                   simulate_inputs, solve_sink_side, solve_source_side,
                   true_T)

from netid import local
from netid.local import _cholesky_solve, _normal_equations

from conftest import random_rational_network, random_stable_network


class TestPlanExperiment:
    def test_case_study_target(self, case_study):
        plan = plan_experiment_for_model(case_study, (3, 4))
        assert plan.which == "source"
        assert plan.excite_set == (3, 4, 5, 6)
        assert plan.measure_set == (3, 5, 6)
        assert plan.entry_count == 12

    def test_tie_goes_to_source_side(self):
        plan = plan_experiment((2, 1), out_neighbors_of_source=(2, 3),
                               in_neighbors_of_sink=(1, 4))
        assert plan.which == "source"
        assert plan.entry_count == 2 * 3

    def test_sink_side_when_cheaper(self):
        plan = plan_experiment((2, 1), out_neighbors_of_source=(2, 3, 4, 5, 6),
                               in_neighbors_of_sink=(1, 7))
        assert plan.which == "sink"
        assert plan.excite_set == (1, 7)
        assert plan.measure_set == (1, 2, 7)
        assert plan.entry_count == 3 * 2

    def test_consumes_only_neighbor_sets(self):
        # identical neighbor sets => identical plan, whatever network they
        # came from
        a = plan_experiment((9, 4), (7, 9), (2, 4))
        b = plan_experiment((9, 4), (7, 9), (2, 4))
        assert a == b

    def test_missing_edge_rejected(self):
        with pytest.raises(ValueError, match="not present"):
            plan_experiment((3, 4), out_neighbors_of_source=(5, 6),
                            in_neighbors_of_sink=(2, 4))
        with pytest.raises(ValueError, match="no module"):
            plan_experiment_for_model(
                NetworkModel(2, {(2, 1): RationalTF([0.0, 1.0])}), (1, 2))

    def test_choice_rule_on_model(self, case_study):
        for target in ((3, 4), (2, 1), (4, 3), (9, 8)):
            j, i = target
            plan = plan_experiment_for_model(case_study, target)
            d_out = len(case_study.out_neighbors(i))
            d_in = len(case_study.in_neighbors(j))
            assert plan.which == ("source" if d_out <= d_in else "sink")


class TestEstimateTEntries:
    def test_two_node_chain_recovers_delay(self, two_node_chain):
        spec = ExcitationSpec([1], N=3000, seed=3, v_variance=0.0)
        record = simulate(two_node_chain, spec)
        est = estimate_T_entries(record, rows=(2,), cols=(1,), fir_order=5)
        assert np.allclose(est.coefficients[0, 0], [0, 1, 0, 0, 0, 0],
                           atol=1e-8)
        assert est.fit_scores[0] > 1.0 - 1e-8

    def test_unexcited_column_rejected(self, two_node_chain):
        record = simulate(two_node_chain,
                          ExcitationSpec([1], N=200, seed=0))
        with pytest.raises(ValueError, match="not excited"):
            estimate_T_entries(record, rows=(2,), cols=(1, 2), fir_order=5)

    def test_dependent_excitations_rejected(self, two_node_chain):
        rng = np.random.default_rng(0)
        r = np.zeros((2, 400))
        r[0] = rng.standard_normal(400)
        r[1] = r[0]  # perfectly correlated: rank-deficient regressor
        record = simulate_inputs(two_node_chain, r)
        with pytest.raises(ValueError, match="rank-deficient"):
            estimate_T_entries(record, rows=(2,), cols=(1, 2), fir_order=5)

    def test_nearly_dependent_excitations_rejected(self, two_node_chain):
        rng = np.random.default_rng(1)
        r = np.zeros((2, 400))
        r[0] = rng.standard_normal(400)
        r[1] = r[0] + 1e-7 * rng.standard_normal(400)
        record = simulate_inputs(two_node_chain, r)
        with pytest.raises(ValueError, match="rank-deficient"):
            estimate_T_entries(record, rows=(2,), cols=(1, 2), fir_order=5)

    def test_fewer_rows_than_parameters_rejected(self, two_node_chain):
        # P < N < P + C (P + 1): fewer regression rows than parameters
        P = 5
        rng = np.random.default_rng(2)
        for N in range(P + 1, P + 2 * (P + 1)):
            record = simulate_inputs(two_node_chain,
                                     rng.standard_normal((2, N)))
            with pytest.raises(ValueError, match="rank-deficient"):
                estimate_T_entries(record, rows=(2,), cols=(1, 2),
                                   fir_order=P)

    def test_node_outside_1_to_L_rejected(self, two_node_chain):
        record = simulate(two_node_chain, ExcitationSpec([1], N=200, seed=0))
        for rows, cols, problem in (((0,), (1,), "1-based"),
                                    ((2,), (0,), "1-based"),
                                    ((3,), (1,), "node 3 outside 1..2"),
                                    ((2,), (3,), "node 3 outside 1..2")):
            with pytest.raises(ValueError, match=problem):
                estimate_T_entries(record, rows=rows, cols=cols, fir_order=5)

    def test_record_too_short(self, two_node_chain):
        record = simulate(two_node_chain, ExcitationSpec([1], N=10, seed=0))
        with pytest.raises(ValueError, match="too short"):
            estimate_T_entries(record, rows=(2,), cols=(1,), fir_order=20)

    def test_grid_samples_conjugate_symmetric(self, case_study):
        spec = ExcitationSpec([3, 4, 5, 6], N=2000, seed=4)
        record = simulate(case_study, spec)
        est = estimate_T_entries(record, rows=(3, 5, 6), cols=(3, 4, 5, 6),
                                 fir_order=30, grid=FreqGrid.uniform(50))
        vals = est.freq.values
        assert np.allclose(vals[1:], np.conj(vals[1:][::-1]), atol=1e-12)

    def test_entry_fit_scores_cover_all_entries(self, case_study):
        spec = ExcitationSpec([3, 4, 5, 6], N=1500, seed=4)
        record = simulate(case_study, spec)
        est = estimate_T_entries(record, rows=(3, 5, 6), cols=(3, 4, 5, 6),
                                 fir_order=20)
        scores = est.entry_fit_scores()
        assert len(scores) == 12
        assert scores[(3, 4)] == est.fit_scores[0]  # row node 3


def _lstsq_reference(record, rows, cols, P):
    """The explicit-regressor route: build Phi, solve by SVD lstsq, score
    the fit from Phi theta."""
    N = record.N
    Phi = np.stack([record.node_excitation(c)[P - lag:N - lag]
                    for c in cols for lag in range(P + 1)], axis=1)
    Y = np.stack([record.node_output(m)[P:] for m in rows], axis=1)
    theta, _, rank, _ = np.linalg.lstsq(Phi, Y, rcond=None)
    assert rank == Phi.shape[1]
    err = np.linalg.norm(Y - Phi @ theta, axis=0)
    fits = 1.0 - err / np.linalg.norm(Y - Y.mean(axis=0), axis=0)
    return Phi, Y, theta.T.reshape(len(rows), len(cols), P + 1), fits


def _coloured_record(model, cols, N, seed):
    """Excite `cols` with white noise through a different low-pass FIR
    filter per column, so the excitations' spectra are not flat."""
    rng = np.random.default_rng(seed)
    r = np.zeros((model.L, N))
    for k, c in enumerate(cols):
        taps = (0.5 + 0.1 * k) ** np.arange(12)
        r[c - 1] = np.convolve(rng.standard_normal(N + 11), taps,
                               mode="valid")
    return simulate_inputs(model, r, seed=seed)


class TestNormalEquations:
    """The correlation route against the explicit Phi + lstsq route."""

    @pytest.fixture(params=["source_34", "sink_98", "coloured", "short",
                            "segments", "long_fir"])
    def case(self, request, case_study):
        if request.param in ("source_34", "sink_98"):
            target = (3, 4) if request.param == "source_34" else (9, 8)
            plan = plan_experiment_for_model(case_study, target)
            record = simulate(case_study,
                              ExcitationSpec(plan.excite_set, N=2000, seed=5))
            return record, plan.measure_set, plan.excite_set, 150
        plan = plan_experiment_for_model(case_study, (3, 4))
        if request.param == "segments":
            # segments of 2048 - 20 rows: two whole ones and a partial third
            P = 20
            record = simulate(case_study, ExcitationSpec(
                plan.excite_set, N=P + 2 * (2048 - P) + 700, seed=8))
            return record, plan.measure_set, plan.excite_set, P
        if request.param == "long_fir":
            # 2(P + 1) > 2048 doubles the segment transform to 4096, whose
            # 4096 - P rows leave a partial second segment
            P = 1100
            record = simulate(case_study, ExcitationSpec(
                (4,), N=P + 3200, seed=9))
            return record, plan.measure_set, (4,), P
        if request.param == "coloured":
            return (_coloured_record(case_study, plan.excite_set, 2000, 6),
                    plan.measure_set, plan.excite_set, 60)
        # N - P is 3 rows above the 4 x 21 parameters, so the end-corrections
        # shift up to 20 of the 87 samples in each Gram entry's window
        P = 20
        record = simulate(case_study, ExcitationSpec(
            plan.excite_set, N=P + 4 * (P + 1) + 3, seed=7))
        return record, plan.measure_set, plan.excite_set, P

    def test_gram_and_rhs_match_explicit_products(self, case):
        record, rows, cols, P = case
        Phi, Y, _, _ = _lstsq_reference(record, rows, cols, P)
        r = np.stack([record.node_excitation(c) for c in cols])
        w = np.stack([record.node_output(m) for m in rows])
        gram, rhs, _ = _normal_equations(r, w, P)
        explicit = Phi.T @ Phi
        assert np.abs(gram - explicit).max() <= 1e-12 * np.abs(explicit).max()
        cross = Phi.T @ Y
        assert np.abs(rhs - cross).max() <= 1e-12 * np.abs(cross).max()

    def test_estimate_matches_lstsq(self, case):
        record, rows, cols, P = case
        _, _, coeffs, fits = _lstsq_reference(record, rows, cols, P)
        est = estimate_T_entries(record, rows, cols, fir_order=P)
        assert np.abs(est.coefficients - coeffs).max() <= 1e-10
        assert np.abs(np.array(est.fit_scores) - fits).max() <= 1e-12


class TestSegmentGroups:
    """The normal equations and the fit, summed over groups of overlap-save
    segments, against one group: 20_000 samples at FIR order 150 are 11
    segments of 2048 - 150 rows, the last of them partial."""

    @pytest.fixture(scope="class")
    def case(self, case_study):
        plan = plan_experiment_for_model(case_study, (3, 4))
        record = simulate(case_study,
                          ExcitationSpec(plan.excite_set, N=20_000, seed=11))
        return record, plan.measure_set, plan.excite_set

    @pytest.mark.parametrize("group", [1, 3, 8])
    def test_groups_match_one_group(self, case, group, monkeypatch):
        record, rows, cols = case
        r = np.stack([record.node_excitation(c) for c in cols])
        w = np.stack([record.node_output(m) for m in rows])
        monkeypatch.setattr(local, "_SEGMENT_GROUP", 11)
        gram, rhs, _ = _normal_equations(r, w, 150)
        est = estimate_T_entries(record, rows, cols)
        monkeypatch.setattr(local, "_SEGMENT_GROUP", group)
        gram_g, rhs_g, (_, _, groups) = _normal_equations(r, w, 150)
        est_g = estimate_T_entries(record, rows, cols)
        assert sum(g for _, g in groups) == 11
        assert len(groups) == -(-11 // group)
        assert np.abs(gram_g - gram).max() <= 1e-15 * np.abs(gram).max()
        assert np.abs(rhs_g - rhs).max() <= 1e-15 * np.abs(rhs).max()
        assert np.abs(est_g.coefficients - est.coefficients).max() <= 1e-12
        assert np.abs(np.subtract(est_g.fit_scores, est.fit_scores)
                      ).max() <= 1e-15

    def test_row_sequences_match_arrays(self, case):
        # sequences of row views, as estimate_T_entries passes them
        record, rows, cols = case
        r = [record.node_excitation(c) for c in cols]
        w = [record.node_output(m) for m in rows]
        gram, rhs, _ = _normal_equations(r, w, 150)
        gram_a, rhs_a, _ = _normal_equations(np.stack(r), np.stack(w), 150)
        assert np.array_equal(gram, gram_a) and np.array_equal(rhs, rhs_a)


class TestCholeskySolve:
    """Blocked substitution on the Cholesky factor against a general solve,
    at sizes around and across the substitution's block boundaries."""

    @pytest.mark.parametrize("m", [1, 6])
    @pytest.mark.parametrize("n", [5, 63, 64, 65, 128, 604])
    def test_matches_general_solve(self, n, m):
        rng = np.random.default_rng(10 * n + m)
        A = rng.standard_normal((2 * n, n))
        gram = A.T @ A + n * np.eye(n)  # SPD, condition below about 6
        rhs = rng.standard_normal((n, m))
        kept = rhs.copy()
        x = _cholesky_solve(np.linalg.cholesky(gram), rhs)
        ref = np.linalg.solve(gram, rhs)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()
        assert np.array_equal(rhs, kept)


def _exact_T_for_plan(model, plan, n_grid=64):
    return true_T(model, plan.measure_set, plan.excite_set,
                  FreqGrid.uniform(n_grid))


class TestSolves:
    def test_source_side_exact_case_study(self, case_study):
        plan = plan_experiment_for_model(case_study, (3, 4))
        tmat = _exact_T_for_plan(case_study, plan, 100)
        sol = solve_source_side(tmat, 4, plan.measure_set)
        assert sol.dropped_points == 0
        om = sol.grid.as_array()
        g34 = case_study.edge(3, 4).eval_at(om)
        assert np.allclose(sol.module_samples(3, 4), g34, rtol=0, atol=1e-9)
        g54 = case_study.edge(5, 4).eval_at(om)
        assert np.allclose(sol.module_samples(5, 4), g54, rtol=0, atol=1e-9)

    def test_sink_side_exact_case_study(self, case_study):
        nbrs = case_study.in_neighbors(3)
        tmat = true_T(case_study, (3,) + nbrs, nbrs, FreqGrid.uniform(100))
        sol = solve_sink_side(tmat, 3, nbrs)
        om = sol.grid.as_array()
        g34 = case_study.edge(3, 4).eval_at(om)
        assert np.allclose(sol.module_samples(3, 4), g34, rtol=0, atol=1e-9)

    def test_sides_agree_on_shared_module(self, case_study):
        plan = plan_experiment_for_model(case_study, (3, 4))
        src = solve_source_side(_exact_T_for_plan(case_study, plan, 64), 4,
                                plan.measure_set)
        nbrs = case_study.in_neighbors(3)
        snk = solve_sink_side(
            true_T(case_study, (3,) + nbrs, nbrs, FreqGrid.uniform(64)), 3,
            nbrs)
        assert np.allclose(src.module_samples(3, 4), snk.module_samples(3, 4),
                           rtol=0, atol=1e-9)

    def test_no_edges_solution_is_zero(self):
        m = NetworkModel(3, {})
        tmat = true_T(m, (2, 3), (1, 2, 3), FreqGrid.uniform(16))
        sol = solve_source_side(tmat, 1, (2, 3))
        assert np.allclose(sol.samples, 0.0, atol=1e-14)

    def test_solved_samples_conjugate_symmetric(self, case_study):
        plan = plan_experiment_for_model(case_study, (3, 4))
        sol = solve_source_side(_exact_T_for_plan(case_study, plan, 64), 4,
                                plan.measure_set)
        assert np.allclose(sol.samples[1:], np.conj(sol.samples[1:][::-1]),
                           atol=1e-12)

    def test_ill_conditioned_points_dropped_and_reported(self):
        grid = FreqGrid.uniform(10)
        values = np.tile(np.eye(2, dtype=complex), (10, 1, 1))
        values[3] = np.array([[1.0, 1.0], [1.0, 1.0]])  # singular at one point
        values = np.concatenate([values, np.ones((10, 2, 1))], axis=2)
        tmat = FreqResponseMatrix(rows=(1, 2), cols=(1, 2, 3), grid=grid,
                                  values=values)
        sol = solve_source_side(tmat, 3, (1, 2))
        assert sol.dropped_points == 1
        assert sol.total_points == 10
        assert len(sol.grid) == 9

    def test_too_many_dropped_points_is_an_error(self):
        grid = FreqGrid.uniform(10)
        values = np.tile(np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex),
                         (10, 1, 1))  # singular everywhere
        values = np.concatenate([values, np.ones((10, 2, 1))], axis=2)
        tmat = FreqResponseMatrix(rows=(1, 2), cols=(1, 2, 3), grid=grid,
                                  values=values)
        with pytest.raises(ValueError, match="ill-conditioned"):
            solve_source_side(tmat, 3, (1, 2))

    def test_empty_neighbor_set_rejected(self, case_study):
        plan = plan_experiment_for_model(case_study, (3, 4))
        tmat = _exact_T_for_plan(case_study, plan)
        with pytest.raises(ValueError, match="no out-neighbors"):
            solve_source_side(tmat, 4, ())


class TestFitParametric:
    def test_exact_interpolation(self):
        om = FreqGrid.uniform(100).as_array()
        samples = -0.3 * np.exp(-1j * om) + 0.8 * np.exp(-2j * om)
        fit = fit_parametric(samples, (1, 2))
        assert np.allclose(fit.coefficients, [-0.3, 0.8], atol=1e-12)
        assert fit.residual_rms < 1e-12

    def test_zero_samples_give_zero(self):
        fit = fit_parametric(np.zeros(50, dtype=complex), (0, 3))
        assert np.allclose(fit.coefficients, 0.0)

    def test_under_determined_rejected(self):
        with pytest.raises(ValueError, match="under-determined"):
            fit_parametric(np.zeros(2, dtype=complex), (0, 3))

    def test_band_validation(self):
        with pytest.raises(ValueError, match="band"):
            fit_parametric(np.zeros(10, dtype=complex), (3, 1))

    def test_grid_length_mismatch(self):
        with pytest.raises(ValueError, match="grid"):
            fit_parametric(np.zeros(10, dtype=complex), (0, 1),
                           grid=FreqGrid.uniform(5))

    def test_feedthrough_band(self):
        om = FreqGrid.uniform(40).as_array()
        samples = 0.7 + 0.0j * om
        fit = fit_parametric(samples, (0, 0))
        assert np.allclose(fit.coefficients, [0.7], atol=1e-12)


class TestRandomNetworkRecovery:
    def test_both_sides_recover_random_networks(self):
        rng = np.random.default_rng(2024)
        grid = FreqGrid.uniform(64)
        for _ in range(10):
            model = random_stable_network(rng)
            edges = [e for e, _ in model.edge_items()]
            j, i = edges[rng.integers(0, len(edges))]

            out_nbrs = model.out_neighbors(i)
            src = solve_source_side(
                true_T(model, out_nbrs, (i,) + out_nbrs, grid), i, out_nbrs)
            for to_node in out_nbrs:
                true_num = model.edge(to_node, i).num.coeffs
                fit = fit_parametric(src.module_samples(to_node, i),
                                     (1, len(true_num) - 1), grid=src.grid)
                assert np.allclose(fit.coefficients, true_num[1:], atol=1e-8)

            in_nbrs = model.in_neighbors(j)
            snk = solve_sink_side(
                true_T(model, (j,) + in_nbrs, in_nbrs, grid), j, in_nbrs)
            for from_node in in_nbrs:
                true_num = model.edge(j, from_node).num.coeffs
                fit = fit_parametric(snk.module_samples(j, from_node),
                                     (1, len(true_num) - 1), grid=snk.grid)
                assert np.allclose(fit.coefficients, true_num[1:], atol=1e-8)

    def test_exact_T_solves_recover_rational_modules(self):
        # the per-frequency solves assume nothing about the modules: on
        # networks with rational and feedthrough modules, both sides recover
        # every module from exact T
        rng = np.random.default_rng(2025)
        grid = FreqGrid.uniform(64)
        om = grid.as_array()
        worst = 0.0
        for _ in range(100):
            model = random_rational_network(rng)
            for (j, i), tf in model.edge_items():
                out_nbrs = model.out_neighbors(i)
                src = solve_source_side(
                    true_T(model, out_nbrs, (i,) + out_nbrs, grid), i,
                    out_nbrs)
                in_nbrs = model.in_neighbors(j)
                snk = solve_sink_side(
                    true_T(model, (j,) + in_nbrs, in_nbrs, grid), j, in_nbrs)
                for sol in (src, snk):
                    assert sol.dropped_points == 0
                    err = np.abs(sol.module_samples(j, i) - tf.eval_at(om))
                    worst = max(worst, float(err.max()))
        assert worst < 1e-12
