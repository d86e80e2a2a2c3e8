"""Direct prediction-error method: regressor construction and least squares."""

import re

import numpy as np
import pytest

from netid import (DirectModelStructure, ExcitationSpec, NetworkModel,
                   RationalTF, build_regressor, estimate_direct, simulate)
from netid import direct
from netid.model import SignalRecord

ALL_NODES = tuple(range(1, 21))


class TestStructure:
    def test_from_model_case_study_bands(self, case_study):
        s = DirectModelStructure.from_model(case_study, 3)
        assert s.target_node == 3
        assert s.regressor_nodes == (2, 4, 5, 9)
        assert s.bands == ((0, 1), (1, 2), (1, 1), (0, 1))
        assert sum(d1 - d0 + 1 for d0, d1 in s.bands) == 7
        assert s.max_delay == 2

    def test_slices_partition_parameters(self, case_study):
        s = DirectModelStructure.from_model(case_study, 3)
        sl = s.slices()
        assert [x.start for x in sl] == [0, 2, 4, 5]
        assert [x.stop for x in sl] == [2, 4, 5, 7]
        assert sl[-1].stop == sum(d1 - d0 + 1 for d0, d1 in s.bands)

    def test_rational_in_edge_rejected(self, case_study):
        with pytest.raises(ValueError, match="rational"):
            DirectModelStructure.from_model(case_study, 11)

    def test_no_in_neighbors_rejected(self):
        m = NetworkModel(2, {(2, 1): RationalTF([0.0, 1.0])})
        with pytest.raises(ValueError, match="no in-neighbors"):
            DirectModelStructure.from_model(m, 1)

    def test_band_validation(self):
        with pytest.raises(ValueError, match="band"):
            DirectModelStructure(target_node=2, regressor_nodes=(1,),
                                 bands=((2, 1),))
        with pytest.raises(ValueError, match="itself"):
            DirectModelStructure(target_node=2, regressor_nodes=(2,),
                                 bands=((0, 1),))
        with pytest.raises(ValueError,
                           match="^at least one regressor node is required$"):
            DirectModelStructure(target_node=3, regressor_nodes=(), bands=())
        with pytest.raises(ValueError, match=re.escape(
                "one (first_delay, last_delay) band per regressor node")):
            DirectModelStructure(target_node=3, regressor_nodes=(1, 2),
                                 bands=((1, 2),))

    def test_node_zero_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            DirectModelStructure(target_node=3, regressor_nodes=(0,),
                                 bands=((1, 2),))
        with pytest.raises(ValueError, match="1-based"):
            DirectModelStructure(target_node=0, regressor_nodes=(3,),
                                 bands=((1, 2),))


class TestRegressor:
    @pytest.fixture()
    def record(self, case_study):
        return simulate(case_study,
                        ExcitationSpec(range(1, 21), N=500, seed=21))

    def test_shapes_and_target(self, case_study, record):
        s = DirectModelStructure.from_model(case_study, 3)
        Phi, y = build_regressor(record, s)
        assert Phi.shape == (500 - 2, 7)
        assert y.shape == (498,)
        assert np.array_equal(y, (record.node_output(3)
                                  - record.node_excitation(3))[2:])

    def test_unexcited_target(self, case_study):
        # node 3's excitation is the record's zero-memory row
        record = simulate(case_study, ExcitationSpec([2, 4], N=500, seed=21))
        _, y = build_regressor(record,
                               DirectModelStructure.from_model(case_study, 3))
        assert np.array_equal(y, record.node_output(3)[2:])

    def test_column_layout(self, case_study, record):
        s = DirectModelStructure.from_model(case_study, 3)
        Phi, _ = build_regressor(record, s)
        w2 = record.node_output(2)
        w4 = record.node_output(4)
        assert np.array_equal(Phi[:, 0], w2[2:500])      # node 2, delay 0
        assert np.array_equal(Phi[:, 1], w2[1:499])      # node 2, delay 1
        assert np.array_equal(Phi[:, 2], w4[1:499])      # node 4, delay 1
        assert np.array_equal(Phi[:, 3], w4[0:498])      # node 4, delay 2

    def test_row_range_is_a_slice_of_the_window(self, case_study, record):
        s = DirectModelStructure.from_model(case_study, 3)
        Phi, y = build_regressor(record, s)
        for start, stop in ((0, 1), (17, 301), (400, 498), (450, 10_000)):
            part = build_regressor(record, s, start, stop)
            assert np.array_equal(part[0], Phi[start:stop])
            assert np.array_equal(part[1], y[start:stop])

    def test_node_above_L_rejected(self, record):
        for target, regressor in ((3, 21), (21, 3)):
            s = DirectModelStructure(target_node=target,
                                     regressor_nodes=(regressor,),
                                     bands=((1, 2),))
            with pytest.raises(ValueError, match="node 21 outside 1..20"):
                estimate_direct(record, s)

    def test_too_short_record_rejected(self, case_study):
        s = DirectModelStructure.from_model(case_study, 3)
        w = np.zeros((20, 2))
        rec = SignalRecord(w=w, r=w, excited=ALL_NODES, seed=0)
        with pytest.raises(ValueError, match="too short"):
            build_regressor(rec, s)


class TestEstimate:
    def test_noise_free_recovery_to_1e8(self, case_study):
        spec = ExcitationSpec(range(1, 21), N=4000, seed=5, v_variance=0.0)
        record = simulate(case_study, spec)
        s = DirectModelStructure.from_model(case_study, 3)
        est = estimate_direct(record, s)
        assert est.informative
        assert np.allclose(est.coefficients_for(4), [-0.3, 0.8], atol=1e-8)
        assert np.allclose(est.coefficients_for(5), [-0.5], atol=1e-8)
        true32 = case_study.edge(3, 2).num.coeffs
        assert np.allclose(est.coefficients_for(2), true32, atol=1e-8)
        Phi, y = build_regressor(record, s)
        resid = y - Phi @ est.theta_hat
        residual_variance = resid @ resid / resid.size
        assert residual_variance < 1e-16

    def test_residuals_orthogonal_to_regressors(self, case_study):
        spec = ExcitationSpec(range(1, 21), N=1000, seed=6)
        record = simulate(case_study, spec)
        s = DirectModelStructure.from_model(case_study, 3)
        Phi, y = build_regressor(record, s)
        est = estimate_direct(record, s)
        resid = y - Phi @ est.theta_hat
        assert np.all(np.abs(Phi.T @ resid) < 1e-6 * np.abs(Phi.T @ y).max())

    def test_zero_signals_give_min_norm_solution_and_flag(self, case_study):
        w = np.zeros((20, 100))
        rec = SignalRecord(w=w, r=w, excited=ALL_NODES, seed=0)
        s = DirectModelStructure.from_model(case_study, 3)
        est = estimate_direct(rec, s)
        assert not est.informative
        assert est.gram_condition == np.inf
        assert np.allclose(est.theta_hat, 0.0)

    def test_fewer_rows_than_parameters_not_informative(self, case_study):
        # 3 regressor rows for 7 parameters: the Gram matrix is singular,
        # though lstsq returns only the 3 nonzero singular values of Phi
        w = np.random.default_rng(0).standard_normal((20, 5))
        rec = SignalRecord(w=w, r=np.zeros_like(w), excited=ALL_NODES,
                           seed=0)
        est = estimate_direct(rec, DirectModelStructure.from_model(
            case_study, 3))
        assert est.gram_condition == np.inf
        assert not est.informative


class TestStreamedFactor:
    """estimate_direct against lstsq on the whole regressor."""

    @pytest.mark.parametrize("excited, N, row_block", [
        (ALL_NODES, 10_000, None),
        ((3,), 10_000, None),  # scenario 3: Gram condition about 6e6
        (ALL_NODES, 2 * 2048 + 702, None),  # a partial last block
        (ALL_NODES, 500, 5)],  # 100 blocks, each shorter than the triangle
        ids=["all-excited", "scenario-3", "partial-block", "row-block-5"])
    def test_matches_lstsq_on_the_whole_regressor(
            self, case_study, monkeypatch, excited, N, row_block):
        if row_block is not None:
            monkeypatch.setattr(direct, "_ROW_BLOCK", row_block)
        record = simulate(case_study, ExcitationSpec(excited, N=N, seed=14))
        s = DirectModelStructure.from_model(case_study, 3)
        Phi, y = build_regressor(record, s)
        theta, _, _, sv = np.linalg.lstsq(Phi, y, rcond=None)
        cond = (sv[0] / sv[-1]) ** 2
        est = estimate_direct(record, s)
        assert np.linalg.norm(est.theta_hat - theta) <= (
            1e-12 * np.linalg.norm(theta))
        assert est.gram_condition == pytest.approx(cond, rel=1e-12)
        assert est.informative == (cond < direct.INFORMATIVITY_THRESHOLD)


class TestInformativity:
    def test_full_excitation_informative(self, case_study):
        spec = ExcitationSpec(range(1, 21), N=2000, seed=11)
        est = estimate_direct(
            simulate(case_study, spec),
            DirectModelStructure.from_model(case_study, 3))
        assert est.informative
        assert est.gram_condition < 1e3

    def test_single_node_excitation_not_informative(self, case_study):
        # exciting only the target's neighborhood source r3 leaves the
        # regressors confined to a lower-dimensional subspace
        spec = ExcitationSpec([3], N=10_000, seed=12)
        est = estimate_direct(
            simulate(case_study, spec),
            DirectModelStructure.from_model(case_study, 3))
        assert not est.informative
        assert est.gram_condition > 1e6
