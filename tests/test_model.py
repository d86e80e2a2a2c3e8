"""Network model construction, topology queries, and file round-trips."""

import re

import numpy as np
import pytest

from netid import (ExcitationSpec, NetworkFormatError, NetworkModel,
                   RationalTF, SignalRecord, build_case_study, load_network,
                   save_network)
from netid.tf import STABILITY_MARGIN

# Regenerate with tools/make_fixtures.py (independent parser + numpy).
DET_I_MINUS_D0 = 1.0010617857893018


class TestConstruction:
    def test_rejects_diagonal_edge(self):
        with pytest.raises(ValueError, match="hollow"):
            NetworkModel(2, {(1, 1): RationalTF([0.0, 1.0])})

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="outside node range"):
            NetworkModel(2, {(3, 1): RationalTF([0.0, 1.0])})

    def test_rejects_zero_module(self):
        with pytest.raises(ValueError, match="identically zero"):
            NetworkModel(2, {(2, 1): RationalTF([0.0])})

    def test_rejects_singular_feedthrough_loop(self):
        # static unit-gain two-cycle: (I - D0) is exactly singular
        with pytest.raises(ValueError, match="ill-posed"):
            NetworkModel(2, {(1, 2): RationalTF([1.0]),
                             (2, 1): RationalTF([1.0])})

    def test_invalid_node_count(self):
        with pytest.raises(ValueError):
            NetworkModel(0, {})

    @pytest.mark.parametrize("value", [([0.0, 1.0], [1.0]), [0.0, 1.0]],
                             ids=["tuple", "list"])
    def test_rejects_edge_that_is_not_a_transfer_function(self, value):
        with pytest.raises(TypeError, match=r"edge \(2,1\) is a "):
            NetworkModel(2, {(2, 1): value})


class TestTopology:
    def test_neighbors_sorted_and_degrees(self, case_study):
        assert case_study.in_neighbors(3) == (2, 4, 5, 9)
        assert case_study.out_neighbors(4) == (3, 5, 6)
        assert len(case_study.in_neighbors(3)) == 4
        assert len(case_study.out_neighbors(4)) == 3

    def test_neighbors_do_not_depend_on_edge_order(self, case_study):
        items = case_study.edge_items()
        m = NetworkModel(case_study.L, dict(reversed(items)))
        for n in range(1, m.L + 1):
            assert m.in_neighbors(n) == tuple(
                i for (j, i), _ in items if j == n)
            assert m.out_neighbors(n) == tuple(
                sorted(j for (j, i), _ in items if i == n))

    def test_isolated_node_has_no_neighbors(self):
        m = NetworkModel(3, {(2, 1): RationalTF([0.0, 1.0])})
        assert m.in_neighbors(3) == ()
        assert m.out_neighbors(3) == ()

    def test_node_bounds_checked(self, case_study):
        with pytest.raises(ValueError):
            case_study.in_neighbors(21)
        with pytest.raises(ValueError):
            case_study.out_neighbors(0)

    def test_edge_lookup(self, case_study):
        assert case_study.has_edge(3, 4)
        assert not case_study.has_edge(4, 20)
        assert case_study.edge(3, 4).num.coeffs == (0.0, -0.3, 0.8)
        with pytest.raises(KeyError):
            case_study.edge(4, 20)

    def test_edge_items_deterministic(self, case_study):
        items = case_study.edge_items()
        assert list(items) == sorted(items)
        assert len(items) == 56


class TestMatrices:
    def test_feedthrough_matrix_pattern(self, case_study):
        d0 = case_study.feedthrough_matrix()
        assert d0[3 - 1, 2 - 1] != 0.0  # (3,2) has zero relative degree
        assert d0[3 - 1, 4 - 1] == 0.0  # (3,4) starts at delay 1
        assert np.allclose(np.diag(d0), 0.0)

    def test_det_i_minus_d0_matches_fixture(self, case_study):
        det = np.linalg.det(np.eye(20) - case_study.feedthrough_matrix())
        assert np.isclose(det, DET_I_MINUS_D0, rtol=0, atol=1e-14)

    def test_eval_G_matches_edges(self, case_study):
        om = np.array([0.0, 0.7, 2.1])
        G = case_study.eval_G(om)
        assert G.shape == (3, 20, 20)
        for (j, i), tf in case_study.edge_items()[:10]:
            assert np.allclose(G[:, j - 1, i - 1], tf.eval_at(om))
        assert np.allclose(G[0], case_study.eval_G(0.0))

    def test_eval_G_scalar_shape(self, case_study):
        assert case_study.eval_G(0.3).shape == (20, 20)


class TestFunctionalUpdates:
    def test_equality(self, case_study):
        assert build_case_study() == case_study
        edges = dict(case_study.edge_items())
        del edges[(3, 4)]
        assert case_study != NetworkModel(case_study.L, edges)


class TestCaseStudy:
    def test_shape(self, case_study):
        assert case_study.L == 20
        assert len(case_study.edge_items()) == 56

    def test_target_module_coefficients(self, case_study):
        tf = case_study.edge(3, 4)
        assert tf.num.coeffs == (0.0, -0.3, 0.8)
        assert tf.den.coeffs == (1.0,)

    def test_mixture_of_fir_and_first_order_modules(self, case_study):
        kinds = {tf.den.degree for _, tf in case_study.edge_items()}
        assert kinds == {0, 1}

    def test_all_modules_individually_stable(self, case_study):
        assert all(np.all(np.abs(np.roots(tf.den.coeffs))
                          < 1.0 - STABILITY_MARGIN)
                   for _, tf in case_study.edge_items())


class TestNetworkFile:
    def test_round_trip_exact(self, case_study, tmp_path):
        path = tmp_path / "net.net"
        save_network(case_study, path)
        assert load_network(path) == case_study

    def test_random_coefficients_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        edges = {(2, 1): RationalTF(rng.normal(size=4),
                                    [1.0, *(rng.normal(size=2) * 0.3)])}
        m = NetworkModel(2, edges)
        path = tmp_path / "rand.net"
        save_network(m, path)
        assert load_network(path) == m

    def test_missing_header(self, tmp_path):
        p = tmp_path / "bad.net"
        p.write_text("2 1 0.0 1.0 / 1.0\n")
        with pytest.raises(NetworkFormatError, match="nodes"):
            load_network(p)

    def test_missing_slash(self, tmp_path):
        p = tmp_path / "bad.net"
        p.write_text("nodes 2\n2 1 0.0 1.0\n")
        with pytest.raises(NetworkFormatError, match=r"bad\.net:2"):
            load_network(p)

    def test_bad_literal_reports_line(self, tmp_path):
        p = tmp_path / "bad.net"
        p.write_text("nodes 2\n\n2 1 0.0 xyz / 1.0\n")
        with pytest.raises(NetworkFormatError, match=":3"):
            load_network(p)

    def test_duplicate_edge(self, tmp_path):
        p = tmp_path / "bad.net"
        p.write_text("nodes 2\n2 1 0.5 / 1.0\n2 1 0.7 / 1.0\n")
        with pytest.raises(NetworkFormatError, match="duplicate"):
            load_network(p)

    def test_out_of_range_edge(self, tmp_path):
        p = tmp_path / "bad.net"
        p.write_text("nodes 2\n3 1 0.5 / 1.0\n")
        with pytest.raises(NetworkFormatError, match="outside node range"):
            load_network(p)

    @pytest.mark.parametrize("edge, problem", [
        ("2 2 0.5 / 1.0", r"diagonal entry \(2,2\) forbidden"),
        ("3 2 0 / 1", r"edge \(3,2\) is identically zero")],
        ids=["self_loop", "zero_module"])
    def test_edge_rule_reports_line(self, tmp_path, edge, problem):
        p = tmp_path / "bad.net"
        p.write_text(f"nodes 3\n2 1 0.5 / 1.0\n{edge}\n")
        with pytest.raises(NetworkFormatError, match=r"bad\.net:3: " + problem):
            load_network(p)

    @pytest.mark.parametrize("text, message", [
        ("nodes x\n", ":1: node count 'x' is not an integer"),
        ("nodes 0\n", ":1: node count must be >= 1"),
        ("nodes 2\n2 / 1.0\n",
         ":2: expected '<j> <i> <num coeffs> / <den coeffs>'"),
        ("nodes 2\n2 1 0.5 /\n", ":2: empty denominator")],
        ids=["count_word", "count_zero", "short_edge", "no_denominator"])
    def test_line_errors_name_their_line(self, tmp_path, text, message):
        p = tmp_path / "bad.net"
        p.write_text(text)
        with pytest.raises(NetworkFormatError,
                           match=re.escape(f"bad.net{message}")):
            load_network(p)

    def test_ill_posed_network_reports_path(self, tmp_path):
        # a zero-delay loop of unit gains makes (I - D0) singular
        p = tmp_path / "bad.net"
        p.write_text("nodes 2\n2 1 1.0 / 1.0\n1 2 1.0 / 1.0\n")
        with pytest.raises(NetworkFormatError,
                           match=r"bad\.net: network is ill-posed"):
            load_network(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.net"
        p.write_text("")
        with pytest.raises(NetworkFormatError, match="empty"):
            load_network(p)


class TestExcitationSpec:
    def test_nodes_sorted_deduplicated(self):
        spec = ExcitationSpec([5, 3, 3, 1], N=10, seed=0)
        assert spec.excited_nodes == (1, 3, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            ExcitationSpec([0], N=10, seed=0)
        with pytest.raises(ValueError):
            ExcitationSpec([1], N=0, seed=0)
        with pytest.raises(ValueError):
            ExcitationSpec([1], N=10, seed=0, r_variance=-1.0)
        with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
            ExcitationSpec([1], N=10, seed=-3)


class TestSignalRecord:
    def test_shape_validation(self):
        w = np.zeros((2, 5))
        for r, excited in ((np.zeros((2, 4)), (1, 2)),   # N does not match
                           (np.zeros((1, 5)), (1, 2)),   # one row short
                           (np.zeros((2, 5)), (2,)),     # one row over
                           (np.zeros(5), (1,))):
            with pytest.raises(ValueError, match="r must be"):
                SignalRecord(w=w, r=r, excited=excited, seed=0)

    def test_excited_nodes_validation(self):
        w = np.zeros((2, 5))
        for excited in ((2, 1), (1, 1)):
            with pytest.raises(ValueError, match="sorted and distinct"):
                SignalRecord(w=w, r=np.zeros((2, 5)), excited=excited,
                             seed=0)
        with pytest.raises(ValueError, match="node 3 outside 1..2"):
            SignalRecord(w=w, r=np.zeros((1, 5)), excited=(3,), seed=0)

    def test_node_accessors(self):
        w = np.arange(10.0).reshape(2, 5)
        rec = SignalRecord(w=w, r=w * 2, excited=(1, 2), seed=1)
        assert np.array_equal(rec.node_output(2), w[1])
        assert np.array_equal(rec.node_excitation(1), w[0] * 2)
        assert rec.L == 2 and rec.N == 5

    def test_unexcited_node_reads_zeros_and_is_read_only(self):
        w = np.arange(15.0).reshape(3, 5)
        rec = SignalRecord(w=w, r=w[1:2] * 2, excited=(2,), seed=1)
        assert rec.r.shape == (len(rec.excited), rec.N) == (1, 5)
        assert np.array_equal(rec.node_excitation(2), w[1] * 2)
        for n in (1, 3):
            row = rec.node_excitation(n)
            assert row.shape == (5,) and np.all(row == 0.0)
            assert row.strides == (0,)  # every sample is one scalar
            with pytest.raises(ValueError, match="read-only"):
                row[0] = 1.0

    def test_node_outside_1_to_L_rejected(self):
        w = np.arange(10.0).reshape(2, 5)
        for rec in (SignalRecord(w=w, r=w * 2, excited=(1, 2), seed=1),
                    SignalRecord(w=w, r=w[:1], excited=(1,), seed=1)):
            for n in (0, 3):
                with pytest.raises(ValueError,
                                   match=f"node {n} outside 1..2"):
                    rec.node_output(n)
                with pytest.raises(ValueError,
                                   match=f"node {n} outside 1..2"):
                    rec.node_excitation(n)
