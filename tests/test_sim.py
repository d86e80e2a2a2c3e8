"""Simulator: kernel vs reference recursion, randomness contract,
divergence handling, impulse responses against the spectral oracle, page
faults of a repeated run."""

import resource

import numpy as np
import pytest

from netid import (DirectModelStructure, ExcitationSpec, NetworkModel,
                   RationalTF, SimulationDiverged, estimate_direct, simulate,
                   simulate_inputs)
import netid.model
from netid import sim

from conftest import make_two_node_loop, random_rational_network
from oracles import draw_inputs, impulse_response, true_T_impulse


def pack_model(model: NetworkModel):
    """Flatten a model into _sim_loop_py's per-edge array layout: erow, ecol
    (0-based endpoints, edge e feeds node erow[e] from node ecol[e]), bmat
    and amat (numerator and denominator taps, zero-padded) and
    M = (I - D0)^-1."""
    items = model.edge_items()
    E = len(items)
    L = model.L
    if E == 0:
        erow = np.zeros(0, dtype=np.int64)
        ecol = np.zeros(0, dtype=np.int64)
        bmat = np.zeros((0, 1))
        amat = np.ones((0, 1))
        return erow, ecol, bmat, amat, np.eye(L)
    NB = max(len(tf.num.coeffs) for _, tf in items)
    NA = max(len(tf.den.coeffs) for _, tf in items)
    erow = np.array([j - 1 for (j, _), _ in items], dtype=np.int64)
    ecol = np.array([i - 1 for (_, i), _ in items], dtype=np.int64)
    bmat = np.zeros((E, NB))
    amat = np.zeros((E, NA))
    for e, (_, tf) in enumerate(items):
        bmat[e, :len(tf.num.coeffs)] = tf.num.coeffs
        amat[e, :len(tf.den.coeffs)] = tf.den.coeffs
    M = np.linalg.inv(np.eye(L) - model.feedthrough_matrix())
    return erow, ecol, bmat, amat, M


def _sim_loop_py(erow, ecol, bmat, amat, M, u):
    """The per-sample recursion that NetworkModel.realization documents, in
    its plain form: the reference the lifted kernel is checked against.  Each sample
    steps every edge's difference equation at once, tap by tap:
    s_e = sum_k b_e[k] w_src(t-k) - sum_m a_e[m] y_e(t-m) over k, m >= 1,
    then w(t) = M (u(t) + the s_e into each node) and
    y_e(t) = b_e[0] w_src(t) + s_e.  Returns (w, the first sample whose w
    is not finite, or -1)."""
    L, N = u.shape
    E, NB = bmat.shape
    NA = amat.shape[1]
    P = max(NB, NA) - 1  # zeros before t = 0, so every tap reads a sample
    w = np.zeros((L, P + N))
    y = np.zeros((E, P + N))
    for t in range(P, P + N):
        s = np.zeros(E)
        for k in range(1, NB):
            s += bmat[:, k] * w[ecol, t - k]
        for m in range(1, NA):
            s -= amat[:, m] * y[:, t - m]
        wt = M @ (u[:, t - P] + np.bincount(erow, s, minlength=L))
        w[:, t] = wt
        if not np.isfinite(wt).all():
            return w[:, P:], t - P
        y[:, t] = bmat[:, 0] * wt[ecol] + s
    return w[:, P:], -1


class TestKernelBasics:
    def test_no_edges_passthrough(self):
        m = NetworkModel(2, {})
        r = np.arange(10.0).reshape(2, 5)
        rec = simulate_inputs(m, r)
        assert np.array_equal(rec.w, r)

    def test_chain_is_pure_delay(self, two_node_chain):
        r = np.zeros((2, 6))
        r[0, 0] = 1.0
        rec = simulate_inputs(two_node_chain, r)
        assert np.array_equal(rec.w[0], r[0])
        assert np.array_equal(rec.w[1], np.array([0, 1, 0, 0, 0, 0.0]))

    def test_feedthrough_loop_solved_exactly(self):
        # static gains 0.5 each way: w = (I - D0)^-1 r at every sample
        m = NetworkModel(2, {(1, 2): RationalTF([0.5]),
                             (2, 1): RationalTF([0.5])})
        r = np.zeros((2, 3))
        r[0, 0] = 1.0
        rec = simulate_inputs(m, r)
        assert np.allclose(rec.w[:, 0], [4.0 / 3.0, 2.0 / 3.0])
        assert np.allclose(rec.w[:, 1:], 0.0)

    def test_rational_edge_recursion(self):
        # G21 = 0.3 q^-1 / (1 - 0.5 q^-1): w2(t) = 0.5 w2(t-1) + 0.3 w1(t-1)
        m = NetworkModel(2, {(2, 1): RationalTF([0.0, 0.3], [1.0, -0.5])})
        r = np.zeros((2, 5))
        r[0, 0] = 1.0
        rec = simulate_inputs(m, r)
        assert np.allclose(rec.w[1], [0.0, 0.3, 0.15, 0.075, 0.0375])

    def test_kernel_writes_w_over_its_input(self, two_node_chain):
        u = np.zeros((2, 6))
        u[0, 0] = 1.0
        w = sim._step(*two_node_chain.realization, u)
        assert w is u
        assert np.array_equal(w[1], [0, 1, 0, 0, 0, 0.0])

    def test_input_shape_validation(self, two_node_chain):
        with pytest.raises(ValueError, match="must be"):
            simulate_inputs(two_node_chain, np.zeros((3, 4)))
        with pytest.raises(ValueError, match="shape"):
            simulate_inputs(two_node_chain, np.zeros((2, 4)),
                            v=np.zeros((2, 3)))
        with pytest.raises(ValueError, match=r"sample count must be >= 1, "
                                             r"got r of shape \(2, 0\)"):
            simulate_inputs(two_node_chain, np.zeros((2, 0)))


class TestKernel:
    """The lifted kernel against the documented per-sample recursion.

    N = 37 leaves a partial last block (K = isqrt(37) = 6 does not divide
    it), N = 1 and 2 have blocks of one sample, and N = 10^4 is the
    Monte-Carlo length.
    """

    @pytest.mark.parametrize("N", [1, 2, 37, 400, 10_000])
    def test_matches_reference_recursion(self, case_study, N):
        rng = np.random.default_rng(N)
        models = [case_study] + [random_rational_network(rng)
                                 for _ in range(3)]
        for model in models:
            spec = ExcitationSpec(range(1, model.L + 1), N=N, seed=42)
            rec = simulate(model, spec)
            r, v = draw_inputs(model.L, spec)
            w_ref, bad = _sim_loop_py(*pack_model(model), r + v)
            assert bad == -1
            assert np.allclose(rec.w, w_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("N", [1, 2, 37, 400])
    def test_shared_denominator_chains_match_reference(self, N):
        # Node 3 has two rational in-edges with one denominator (one of them
        # with feedthrough) and two FIR in-edges: one chain of order 2 and
        # one of order 3 in place of four chains of 2 + 2 + 2 + 3 states.
        den = [1.0, -0.6, 0.2]
        m = NetworkModel(5, {(3, 1): RationalTF([0.2, 0.3, -0.1], den),
                             (3, 2): RationalTF([0.0, -0.4], den),
                             (3, 4): RationalTF([0.1, 0.25, 0.15]),
                             (3, 5): RationalTF([0.0, 0.3, 0.0, -0.2]),
                             (1, 3): RationalTF([0.0, 0.1]),
                             (4, 3): RationalTF([0.0, 0.4], [1.0, -0.5])})
        assert m.realization[0].shape == (7, 7)
        spec = ExcitationSpec(range(1, 6), N=N, seed=N)
        rec = simulate(m, spec)
        r, v = draw_inputs(m.L, spec)
        w_ref, bad = _sim_loop_py(*pack_model(m), r + v)
        assert bad == -1
        assert np.allclose(rec.w, w_ref, rtol=0, atol=1e-12)

    def test_case_study_has_35_states(self, case_study):
        # 56 edges: the FIR edges into a node share the chain of
        # denominator 1, the 25 first-order edges have distinct poles
        assert case_study.realization[0].shape == (35, 35)

    def test_realization_built_once_per_model(self, monkeypatch):
        calls = []
        realize = netid.model._realize

        def counting(model):
            calls.append(model)
            return realize(model)

        monkeypatch.setattr(netid.model, "_realize", counting)
        m = make_two_node_loop(0.5, 0.5)
        spec = ExcitationSpec([1, 2], N=50, seed=0)
        assert np.array_equal(simulate(m, spec).w, simulate(m, spec).w)
        assert calls == [m]

    def test_seed_determinism_bit_exact(self, case_study):
        spec = ExcitationSpec([3, 4, 5], N=300, seed=7)
        rec1 = simulate(case_study, spec)
        rec2 = simulate(case_study, spec)
        assert np.array_equal(rec1.w, rec2.w)
        assert np.array_equal(rec1.r, rec2.r)
        assert rec1.excited == rec2.excited == (3, 4, 5)


@pytest.fixture
def small_chunks(monkeypatch):
    """Walk the record in chunks of at most 50 samples, so that short
    records cross several chunk boundaries."""
    monkeypatch.setattr(sim, "_CHUNK", 50)


class TestChunks:
    """The chunked kernel against the per-sample recursion with chunks of
    at most 50 samples: N = 49 and 50 are one chunk, 51 two (26 and 25
    samples), 97 two (49 and 48) whose isqrt differ, so the 48-sample chunk
    takes the longest chunk's block length isqrt(49) = 7, and 400 eight."""

    @pytest.mark.parametrize("N", [1, 2, 37, 49, 50, 51, 97, 400])
    def test_matches_reference_recursion(self, case_study, small_chunks, N):
        rng = np.random.default_rng(N)
        models = [case_study] + [random_rational_network(rng)
                                 for _ in range(3)]
        for model in models:
            spec = ExcitationSpec(range(1, model.L + 1), N=N, seed=42)
            rec = simulate(model, spec)
            r, v = draw_inputs(model.L, spec)
            w_ref, bad = _sim_loop_py(*pack_model(model), r + v)
            assert bad == -1
            assert np.allclose(rec.w, w_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("delay", [1, 2, 3])
    @pytest.mark.parametrize("gain", [1.05, 1.5, 10.0, 1e4])
    def test_divergence_sample_tracks_reference(self, small_chunks, gain,
                                                delay):
        # every case diverges after the first chunk; see TestDivergence
        m = make_two_node_loop(gain, gain, delay=delay)
        r = np.zeros((2, 50_000))
        r[0, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            _, bad_ref = _sim_loop_py(*pack_model(m), r)
        assert bad_ref >= 50
        with pytest.raises(SimulationDiverged) as exc:
            simulate_inputs(m, r)
        assert 0 <= bad_ref - exc.value.sample <= delay - 1

    def test_unexcited_unstable_part_stays_zero_across_chunks(
            self, small_chunks):
        m = NetworkModel(4, {(2, 1): RationalTF([0.0, 0.5]),
                             (3, 4): RationalTF([0.0, 1e4]),
                             (4, 3): RationalTF([0.0, 1e4])})
        r = np.zeros((4, 10_000))
        r[0, 0] = 1.0
        r[0, 5_000] = -2.0  # a later chunk excites the reachable part again
        rec = simulate_inputs(m, r)
        w_ref, bad = _sim_loop_py(*pack_model(m), r)
        assert bad == -1
        assert np.allclose(rec.w, w_ref, rtol=0, atol=1e-12)
        assert not rec.w[2:].any()

    def test_inputs_untouched(self, case_study):
        r, v = draw_inputs(case_study.L,
                           ExcitationSpec([3, 4], N=120, seed=2))
        r0, v0 = r.copy(), v.copy()
        simulate_inputs(case_study, r, v)
        assert np.array_equal(r, r0) and np.array_equal(v, v0)
        rec = simulate_inputs(case_study, r)
        assert np.array_equal(r, r0)
        assert rec.r is r and rec.excited == tuple(range(1, 21))


class TestRandomnessContract:
    def test_documented_draw_order(self, case_study):
        # v is not kept in the record: it is pinned through w, which must
        # equal bit for bit the simulation of the documented r and v
        spec = ExcitationSpec([3, 4], N=50, seed=123, r_variance=2.0,
                              v_variance=0.5)
        rec = simulate(case_study, spec)
        rng = np.random.default_rng(123)
        r_full = rng.standard_normal((20, 50)) * np.sqrt(2.0)
        v = rng.standard_normal((20, 50)) * np.sqrt(0.5)
        expect_r = np.zeros_like(r_full)
        expect_r[[2, 3]] = r_full[[2, 3]]
        assert rec.excited == (3, 4)
        assert np.array_equal(rec.r, r_full[[2, 3]])
        for i in range(1, 21):
            assert np.array_equal(rec.node_excitation(i), expect_r[i - 1])
        assert np.array_equal(simulate_inputs(case_study, expect_r, v).w,
                              rec.w)

    def test_excitation_realization_independent_of_excited_set(self, case_study):
        spec_a = ExcitationSpec([3], N=40, seed=9)
        spec_b = ExcitationSpec([3, 4, 5], N=40, seed=9)
        a = simulate(case_study, spec_a)
        b = simulate(case_study, spec_b)
        assert np.array_equal(a.node_excitation(3), b.node_excitation(3))
        # a's disturbance is b's: a's w is the simulation of a's r and b's v
        r_a, _ = draw_inputs(case_study.L, spec_a)
        _, v_b = draw_inputs(case_study.L, spec_b)
        assert np.array_equal(simulate_inputs(case_study, r_a, v_b).w, a.w)

    def test_unexcited_rows_zero(self, case_study):
        rec = simulate(case_study, ExcitationSpec([3], N=30, seed=1))
        assert rec.r.shape == (1, 30)
        for i in (1, 2, 4, 5, 20):
            assert np.all(rec.node_excitation(i) == 0.0)
        assert np.any(rec.node_excitation(3) != 0.0)

    def test_excited_node_out_of_range(self, two_node_chain):
        with pytest.raises(ValueError, match="excited node"):
            simulate(two_node_chain, ExcitationSpec([5], N=10, seed=0))


class TestDivergence:
    def test_unstable_loop_raises_with_sample_index(self):
        m = make_two_node_loop(10.0, 10.0)  # loop gain 100 per revolution
        r = np.zeros((2, 2000))
        r[0, 0] = 1.0
        with pytest.raises(SimulationDiverged, match="sample") as exc:
            simulate_inputs(m, r)
        assert 0 < exc.value.sample < 2000

    @pytest.mark.parametrize("delay", [1, 2, 3])
    @pytest.mark.parametrize("gain", [1.05, 1.5, 10.0, 1e4])
    def test_divergence_sample_tracks_reference(self, gain, delay):
        # A delayed edge keeps the samples in flight in shift states.  When
        # the newest of them overflows, the kernel's next product spreads
        # 0 * inf = NaN to every state, so w turns non-finite up to
        # delay - 1 samples before the reference's w does (as the
        # sample-by-sample state-space kernel before the lifted one did).
        m = make_two_node_loop(gain, gain, delay=delay)
        r = np.zeros((2, 50_000))  # gain 1.05, delay 3 overflows at ~43_600
        r[0, 0] = 1.0
        with np.errstate(over="ignore", invalid="ignore"):
            _, bad_ref = _sim_loop_py(*pack_model(m), r)
        assert bad_ref > 0
        with pytest.raises(SimulationDiverged) as exc:
            simulate_inputs(m, r)
        assert 0 <= bad_ref - exc.value.sample <= delay - 1

    def test_step_raises_at_first_non_finite_column(self):
        # the blow-up lies in the fifth chunk, past its first output block,
        # so the blocks before it in that chunk are written before it is
        # found; w, written over r, shows the column the error names
        m = make_two_node_loop(1.05, 1.05, delay=3)
        r = np.zeros((2, 50_000))
        r[0, 0] = 1.0
        with pytest.raises(SimulationDiverged) as exc:
            sim._step(*m.realization, r)
        bad = exc.value.sample
        assert 4 * sim._CHUNK + sim._OUT_BLOCK <= bad
        assert np.isfinite(r[:, :bad]).all()
        assert not np.isfinite(r[:, bad]).all()

    def test_unexcited_unstable_part_does_not_diverge(self):
        # The loop (3,4), (4,3) has spectral radius 1e4, so A^K overflows,
        # but an impulse on node 1 never reaches it: its states stay exactly
        # zero, and the record is finite.
        m = NetworkModel(4, {(2, 1): RationalTF([0.0, 0.5]),
                             (3, 4): RationalTF([0.0, 1e4]),
                             (4, 3): RationalTF([0.0, 1e4])})
        r = np.zeros((4, 10_000))
        r[0, 0] = 1.0
        rec = simulate_inputs(m, r)
        w_ref, bad = _sim_loop_py(*pack_model(m), r)
        assert bad == -1
        assert np.allclose(rec.w, w_ref, rtol=0, atol=1e-12)

    def test_stable_loop_does_not_raise(self):
        m = make_two_node_loop(0.5, 0.5)
        rec = simulate(m, ExcitationSpec([1, 2], N=500, seed=0))
        assert np.all(np.isfinite(rec.w))


def test_repeated_run_does_not_refault_its_memory(case_study):
    # with glibc holding freed memory, a run reuses the pages of the one
    # before it; without, this run takes about 1,700 minor faults
    if not sim._hold_freed_memory():
        pytest.skip("libc has no mallopt")
    spec = ExcitationSpec(range(1, case_study.L + 1), N=10_000, seed=5)
    structure = DirectModelStructure.from_model(case_study, 3)
    estimate_direct(simulate(case_study, spec), structure)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    estimate_direct(simulate(case_study, spec), structure)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


class TestImpulseResponse:
    def test_chain_impulse(self, two_node_chain):
        h = impulse_response(two_node_chain, 1, 5)
        assert h.shape == (2, 5)
        assert np.array_equal(h[0], [1, 0, 0, 0, 0.0])
        assert np.array_equal(h[1], [0, 1, 0, 0, 0.0])

    def test_loop_impulse_matches_geometric_series(self):
        m = make_two_node_loop(0.5, 0.5)
        h = impulse_response(m, 1, 8)
        # w1 from r1: 1/(1 - 0.25 q^-2) => 1, 0, 0.25, 0, 0.0625, ...
        assert np.allclose(h[0], [1, 0, 0.25, 0, 0.0625, 0, 0.015625, 0])

    def test_rational_networks_match_spectral_oracle(self):
        # first-order poles and zero-delay feedthrough, which the case study
        # and random_stable_network leave out of criterion 5's check
        rng = np.random.default_rng(2)
        pairs = 0
        for _ in range(20):
            model = random_rational_network(rng)
            for i in range(1, model.L + 1):
                h = impulse_response(model, i, 60)
                for j in range(1, model.L + 1):
                    ref = true_T_impulse(model, j, i, 60, method="spectral",
                                         grid_size=4096)
                    assert np.allclose(h[j - 1], ref, rtol=0, atol=1e-12), \
                        (model.edge_items(), j, i)
                    pairs += 1
        assert pairs >= 300
