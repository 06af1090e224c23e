import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridssm import kernels
from hybridssm.mixing import hankel_profile
from hybridssm.ssm_core import (
    GateTrack,
    GkaInfoState,
    NonFiniteOutput,
    ShermanMorrisonGain,
    SsmKind,
    chebyshev_residual_bound,
    chebyshev_solve,
    default_spectral_bounds,
    gka_gain,
    gka_info_update,
    gka_recurrence_equivalence,
    ssm_forward,
    ssm_io_matrix,
    _finite_output,
    _require_finite,
    zero_info_state,
)

from oracles import ssm_step


def rand_kvq(T, d_k, d_v, seed=0, unit_keys=False):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((T, d_k))
    if unit_keys:
        k /= np.linalg.norm(k, axis=1, keepdims=True)
    return k, rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))


class TestSsmStep:
    def test_mamba2_no_decay_accumulates_outer_products(self):
        T, d_k, d_v = 6, 3, 2
        k, v, _ = rand_kvq(T, d_k, d_v, seed=1)
        state = np.zeros((d_v, d_k))
        for t in range(T):
            state = ssm_step(SsmKind.MAMBA2, state, k[t], v[t], gamma=1.0)
        expected = sum(np.outer(v[t], k[t]) for t in range(T))
        assert np.allclose(state, expected, atol=1e-13)

    def test_gdn_erase_preserves_orthogonal_direction(self):
        # orthonormal keys: erase along k2 leaves the k1 slot untouched
        k1 = np.array([1.0, 0.0, 0.0])
        k2 = np.array([0.0, 1.0, 0.0])
        v1 = np.array([2.0, -1.0])
        v2 = np.array([0.5, 3.0])
        state = np.zeros((2, 3))
        state = ssm_step(SsmKind.GDN, state, k1, v1, gamma=1.0, beta=1.0)
        state = ssm_step(SsmKind.GDN, state, k2, v2, gamma=1.0, beta=1.0)
        assert np.allclose(state, np.outer(v1, k1) + np.outer(v2, k2), atol=1e-14)
        assert np.allclose(state @ k1, v1, atol=1e-14)

    def test_gdn_scalar_two_steps_hand_unrolled(self):
        # d_k = d_v = 1, k = 1: S' = S * gamma * (1 - beta) + beta * v
        gamma, beta = 0.5, 0.7
        state = np.zeros((1, 1))
        state = ssm_step(SsmKind.GDN, state, [1.0], [1.0], gamma=gamma, beta=beta)
        assert state[0, 0] == pytest.approx(0.7)
        state = ssm_step(SsmKind.GDN, state, [1.0], [2.0], gamma=gamma, beta=beta)
        assert state[0, 0] == pytest.approx(0.7 * 0.5 * 0.3 + 0.7 * 2.0)

    def test_gate_range_enforced(self):
        state = np.zeros((1, 1))
        with pytest.raises(ValueError):
            ssm_step(SsmKind.MAMBA2, state, [1.0], [1.0], gamma=0.0)
        with pytest.raises(ValueError):
            ssm_step(SsmKind.GDN, state, [1.0], [1.0], gamma=0.5, beta=1.5)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ssm_step(SsmKind.MAMBA2, np.zeros((2, 3)), np.ones(4), np.ones(2))


class TestGkaInfoUpdate:
    def test_beta_zero_filters_token(self):
        info = GkaInfoState(h=np.eye(2), u=np.ones((3, 2)))
        out = gka_info_update(info, np.array([5.0, 1.0]), np.ones(3), 1.0, 0.0)
        assert np.array_equal(out.h, info.h)
        assert np.array_equal(out.u, info.u)

    def test_additive_accumulation(self):
        k1, k2 = np.array([1.0, 2.0]), np.array([-1.0, 0.5])
        info = zero_info_state(1, 2)
        info = gka_info_update(info, k1, np.ones(1), 1.0, 1.0)
        info = gka_info_update(info, k2, np.ones(1), 1.0, 1.0)
        assert np.allclose(info.h, np.outer(k1, k1) + np.outer(k2, k2), atol=1e-15)

    def test_matches_unrolled_closed_form(self):
        # oracle: direct sum  sum_i beta_i (prod_{j>i} gamma_j) k_i k_i^T
        T, d_k = 5, 3
        rng = np.random.default_rng(3)
        k = rng.standard_normal((T, d_k))
        v = rng.standard_normal((T, 2))
        gamma, beta = 0.9, 0.5
        info = zero_info_state(2, d_k)
        for t in range(T):
            info = gka_info_update(info, k[t], v[t], gamma, beta)
        expected_h = np.zeros((d_k, d_k))
        expected_u = np.zeros((2, d_k))
        for i in range(T):
            w = beta * gamma ** (T - 1 - i)
            expected_h += w * np.outer(k[i], k[i])
            expected_u += w * np.outer(v[i], k[i])
        assert np.allclose(info.h, expected_h, atol=1e-14)
        assert np.allclose(info.u, expected_u, atol=1e-14)

    def test_symmetry_preserved_exactly(self):
        rng = np.random.default_rng(4)
        info = zero_info_state(2, 4)
        for t in range(20):
            info = gka_info_update(info, rng.standard_normal(4), rng.standard_normal(2),
                                   rng.uniform(0.5, 1.0), rng.uniform(0.0, 1.0))
            assert np.array_equal(info.h, info.h.T)

    def test_beta_one_recovers_ungated_form(self):
        rng = np.random.default_rng(5)
        k, v = rng.standard_normal(3), rng.standard_normal(2)
        info = GkaInfoState(h=np.eye(3) * 0.5, u=rng.standard_normal((2, 3)))
        out = gka_info_update(info, k, v, 0.8, 1.0)
        assert np.array_equal(out.h, 0.8 * info.h + np.outer(k, k))
        assert np.array_equal(out.u, 0.8 * info.u + np.outer(v, k))

    def test_asymmetric_h_rejected(self):
        h = np.array([[1.0, 0.5], [0.1, 1.0]])
        with pytest.raises(ValueError):
            GkaInfoState(h=h, u=np.zeros((1, 2)))

    def test_public_constructor_rejects_indefinite_and_non_finite_h(self):
        with pytest.raises(ValueError, match="PSD"):
            GkaInfoState(h=np.diag([1.0, -1e-6]), u=np.zeros((1, 2)))
        with pytest.raises(ValueError, match="non-finite"):
            GkaInfoState(h=np.diag([1.0, np.inf]), u=np.zeros((1, 2)))

    def test_overflowing_update_still_raises(self):
        # the derived state skips the spectrum check, not the finiteness one
        info = GkaInfoState(h=np.eye(2), u=np.ones((1, 2)))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite info state"):
                gka_info_update(info, np.array([1e200, 1.0]), np.ones(1), 1.0, 1.0)

    def test_mismatched_key_or_value_rejected(self):
        # a length-3 key would otherwise broadcast a 1x1 H to 3x3
        info = GkaInfoState(h=np.eye(1), u=np.ones((2, 1)))
        with pytest.raises(ValueError, match="incompatible"):
            gka_info_update(info, np.ones(3), np.ones(2), 1.0, 1.0)
        with pytest.raises(ValueError, match="incompatible"):
            gka_info_update(info, np.ones(1), np.ones(3), 1.0, 1.0)


class TestGkaGain:
    def test_zero_history_scales_key(self):
        info = zero_info_state(1, 3)
        k = np.array([1.0, -2.0, 0.5])
        g = gka_gain(info, k, beta_t=0.7, lam_t=2.0)
        assert np.allclose(g, 0.7 * k / 2.0, atol=1e-15)

    def test_rank_one_history_halves_unit_key(self):
        # oracle: (k k^T + I)^{-1} k = k / (1 + ||k||^2) by Sherman-Morrison
        k = np.array([0.6, 0.8])
        info = GkaInfoState(h=np.outer(k, k), u=np.zeros((1, 2)))
        g = gka_gain(info, k, beta_t=1.0, lam_t=1.0)
        assert np.allclose(g, k / 2.0, atol=1e-14)

    def test_sherman_morrison_matches_dense_path(self):
        # oracle: dense matrix inverse each step
        T, d_k = 10, 4
        rng = np.random.default_rng(6)
        lam = 0.8
        sm = ShermanMorrisonGain(d_k, lam)
        h = np.zeros((d_k, d_k))
        for t in range(T):
            k = rng.standard_normal(d_k)
            beta = rng.uniform(0.2, 1.0)
            h = h + beta * np.outer(k, k)
            g_inc = sm.update(k, beta)
            g_dense = beta * np.linalg.inv(h + lam * np.eye(d_k)) @ k
            assert np.max(np.abs(g_inc - g_dense)) < 1e-10
            assert np.max(np.abs(sm.phi - np.linalg.inv(h + lam * np.eye(d_k)))) < 1e-10

    def test_nonpositive_lam_rejected(self):
        with pytest.raises(ValueError):
            gka_gain(zero_info_state(1, 2), np.ones(2), 1.0, 0.0)
        with pytest.raises(ValueError):
            ShermanMorrisonGain(2, -1.0)


class TestChebyshev:
    def test_point_spectrum_exact_in_one_iteration(self):
        lam = 2.5
        q = np.array([1.0, -3.0, 0.5])
        x, hist = chebyshev_solve(np.zeros((3, 3)), lam, q, r=1, spectral_bounds=(lam, lam))
        assert np.allclose(x, q / lam, atol=1e-15)
        assert hist[-1] < 1e-14

    def test_diag_system_converges(self):
        # oracle: dense solve
        h = np.diag([1.0, 2.0, 3.0])
        lam = 0.1
        q = np.array([1.0, 1.0, 1.0])
        x, _ = chebyshev_solve(h, lam, q, r=30, spectral_bounds=(1.1, 3.1))
        exact = np.linalg.solve(h + lam * np.eye(3), q)
        assert np.linalg.norm(x - exact) <= 1e-8

    def test_operator_form_matches_dense_form(self):
        rng = np.random.default_rng(7)
        g = rng.standard_normal((5, 5))
        h = g @ g.T
        q = rng.standard_normal(5)
        lam = 0.5
        bounds = default_spectral_bounds(h, lam)
        x_dense, hist_dense = chebyshev_solve(h, lam, q, r=20, spectral_bounds=bounds)
        x_op, hist_op = chebyshev_solve(lambda p: h @ p, lam, q, r=20, spectral_bounds=bounds)
        np.testing.assert_array_equal(x_dense, x_op)
        np.testing.assert_array_equal(hist_dense, hist_op)

    @pytest.mark.parametrize("seed", range(5))
    def test_residuals_respect_classical_bound(self, seed):
        # oracle: evaluate the interval bound per iteration
        rng = np.random.default_rng(seed)
        d = 8
        g = rng.standard_normal((d, d))
        h = g @ g.T
        lam = 0.2 * np.linalg.norm(h)
        a, b = default_spectral_bounds(h, lam)
        q = rng.standard_normal(d)
        r = 25
        _, hist = chebyshev_solve(h, lam, q, r=r, spectral_bounds=(a, b))
        bound = chebyshev_residual_bound(a, b, r) * np.linalg.norm(q)
        assert np.all(hist <= 1.1 * bound + 1e-12)
        kappa = b / a
        rho = (np.sqrt(kappa) - 1.0) / (np.sqrt(kappa) + 1.0)
        geo = 2.0 * rho ** np.arange(1, r + 1) * np.linalg.norm(q)
        assert np.all(hist[5:] <= geo[5:])  # eventually dominated by the geometric rate

    @pytest.mark.parametrize("seed", range(3))
    def test_monotone_accuracy_in_iterations(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = rng.standard_normal((6, 6))
        h = g @ g.T
        lam = 0.15 * np.linalg.norm(h)
        q = rng.standard_normal(6)
        bounds = default_spectral_bounds(h, lam)
        for r in (1, 5, 10, 20):
            _, h1 = chebyshev_solve(h, lam, q, r=r, spectral_bounds=bounds)
            _, h2 = chebyshev_solve(h, lam, q, r=r + 10, spectral_bounds=bounds)
            assert h2[-1] <= h1[-1]

    def test_numpy_integer_r_accepted(self):
        h = np.diag([1.0, 2.0, 3.0])
        q = np.ones(3)
        bounds = default_spectral_bounds(h, 0.5)
        x, hist = chebyshev_solve(h, 0.5, q, r=np.int64(6), spectral_bounds=bounds)
        assert hist.shape == (6,)
        assert np.array_equal(x, chebyshev_solve(h, 0.5, q, r=6, spectral_bounds=bounds)[0])

    def test_invalid_bounds_rejected(self):
        q = np.ones(2)
        with pytest.raises(ValueError):
            chebyshev_solve(np.eye(2), 1.0, q, r=5, spectral_bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            chebyshev_solve(np.eye(2), 1.0, q, r=5, spectral_bounds=(2.0, 1.0))
        with pytest.raises(ValueError):
            chebyshev_solve(np.eye(2), 1.0, q, r=0, spectral_bounds=(1.0, 2.0))
        with pytest.raises(ValueError, match="r must be an integer number of iterations, got 2.5"):
            chebyshev_solve(np.eye(2), 1.0, q, r=2.5, spectral_bounds=(1.0, 2.0))

    @pytest.mark.parametrize("h, lam, bounds, match", [
        (np.eye(3), np.inf, (np.inf, np.inf), "lam must be finite, got inf"),
        (np.eye(3), np.nan, (1.0, 2.0), "lam must be finite, got nan"),
        (np.eye(3), 1.0, (np.inf, np.inf), "lower spectral bound must be finite, got inf"),
        (np.eye(3), 1.0, (np.nan, 2.0), "lower spectral bound must be finite, got nan"),
        (np.eye(3), 1.0, (1.0, np.inf), "upper spectral bound must be finite, got inf"),
    ])
    def test_non_finite_lam_or_bound_named(self, h, lam, bounds, match):
        # an interval [inf, inf] used to reach a division by zero in the
        # recurrence (alpha = 1 / inf); a NaN bound passed both range tests
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match=re.escape(match)):
                chebyshev_solve(h, lam, np.ones(3), 5, spectral_bounds=bounds)

    def test_divergence_reported_with_iteration_index(self):
        # bounds wildly below the true spectrum make the step sizes huge and
        # the iterates overflow; the failure must name an iteration
        h = 1e4 * np.eye(4)
        q = np.ones(4)
        with pytest.raises(FloatingPointError, match="iteration"):
            with np.errstate(over="ignore", invalid="ignore"):
                chebyshev_solve(h, 1.0, q, r=400, spectral_bounds=(1e-300, 2e-300))

    def test_spectral_bounds_of_a_finite_h_past_1e154_are_finite(self):
        # the sum of squares overflows although H and its norm are finite
        g = np.random.default_rng(22).standard_normal((4, 4))
        h = 1e160 * (g @ g.T)
        lam, upper = default_spectral_bounds(h, 0.5)
        assert lam == 0.5
        assert upper == kernels.frobenius_norm(h)
        assert upper == pytest.approx(1e160 * np.linalg.norm(g @ g.T), rel=1e-15)

    @pytest.mark.parametrize("scale", [600, 1000])
    def test_residual_norm_overflow_does_not_fail_a_finite_solve(self, scale):
        # entries of q past 1e154 overflow the residual norms' squares while
        # every iterate is finite; the norms are then taken by
        # frobenius_norm's power-of-two rule, so the one run gives the
        # unscaled run's bits, scaled
        rng = np.random.default_rng(21)
        g = rng.standard_normal((6, 6))
        h = g @ g.T
        q = rng.standard_normal(6)
        bounds = (0.5, 0.5 + np.linalg.norm(h))
        x, hist = chebyshev_solve(h, 0.5, q, r=20, spectral_bounds=bounds)
        x_big, hist_big = chebyshev_solve(h, 0.5, np.ldexp(q, scale), r=20,
                                          spectral_bounds=bounds)
        assert np.array_equal(x_big, np.ldexp(x, scale))
        assert np.array_equal(hist_big, np.ldexp(hist, scale))


class TestGkaOutput:
    # GKA's readout y_t = U_t (H_t + lam_t I)^{-1} q_t, as ssm_forward reads it
    def test_zero_history(self):
        # the first row reads from the zero information state: H_0 = beta k k^T,
        # so by Sherman–Morrison y_0 = beta (k . q) v / (beta |k|^2 + lam)
        rng = np.random.default_rng(8)
        k, v, q = rng.standard_normal((1, 4)), rng.standard_normal((1, 3)), rng.standard_normal((1, 4))
        beta, lam = 0.6, 0.7
        y, _ = ssm_forward(SsmKind.GKA, k, v, q,
                           GateTrack(np.ones(1), np.array([beta]), np.array([lam])))
        expected = beta * (k[0] @ q[0]) * v[0] / (beta * (k[0] @ k[0]) + lam)
        assert np.allclose(y[0], expected, atol=1e-13)

    def test_zero_info_state_reads_zero(self):
        # v = 0 leaves U at zero, whatever H holds
        T = 5
        k, _, q = rand_kvq(T, 3, 2, seed=9)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.7))
        for solver, r in (("exact", 30), ("chebyshev", 1), ("chebyshev", 5), ("chebyshev", 30)):
            y, state = ssm_forward(SsmKind.GKA, k, np.zeros((T, 2)), q, gates, solver=solver, r=r)
            assert np.array_equal(y, np.zeros((T, 2)))
            assert np.array_equal(state.u, np.zeros((2, 3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_chebyshev_converges_to_exact(self, seed):
        T, d_k, d_v = 12, 6, 3
        k, v, q = rand_kvq(T, d_k, d_v, seed=seed)
        rng = np.random.default_rng(100 + seed)
        gates = GateTrack(gamma=rng.uniform(0.8, 1.0, T), beta=rng.uniform(0.3, 1.0, T))
        # lam_t = 0.1 ||H_t||_F bounds each system's condition number by 11
        exact, _ = ssm_forward(SsmKind.GKA, k, v, q, gates, solver="exact", alpha=0.1)
        approx, _ = ssm_forward(SsmKind.GKA, k, v, q, gates, solver="chebyshev", r=60, alpha=0.1)
        assert np.max(np.abs(exact - approx)) < 1e-6


class TestRecurrenceEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_identity_decay_fixed_lam(self, seed):
        T, d_k, d_v = 8, 4, 3
        k, v, q = rand_kvq(T, d_k, d_v, seed=seed)
        rng = np.random.default_rng(1000 + seed)
        gates = GateTrack(gamma=np.ones(T), beta=rng.uniform(0.2, 1.0, T),
                          lam=np.full(T, 0.6))
        assert gka_recurrence_equivalence(k, v, q, gates) < 1e-9

    def test_beta_zero_gives_zero_both_ways(self):
        T = 5
        k, v, q = rand_kvq(T, 3, 2, seed=9)
        gates = GateTrack(gamma=np.ones(T), beta=np.zeros(T), lam=np.full(T, 0.4))
        assert gka_recurrence_equivalence(k, v, q, gates) == 0.0

    def test_single_step(self):
        k, v, q = rand_kvq(1, 3, 2, seed=10)
        gates = GateTrack(gamma=np.ones(1), beta=np.array([0.8]), lam=np.array([0.5]))
        assert gka_recurrence_equivalence(k, v, q, gates) < 1e-12

    def test_rejects_gates_whose_forms_differ(self):
        # with a decaying gamma or a lam that varies the recurrence and info
        # forms genuinely differ, so there is no gap to check
        T = 6
        k, v, q = rand_kvq(T, 3, 2, seed=11)
        lam = np.full(T, 0.5)
        steps = lam.copy()
        steps[3] = 0.6
        for gamma, lam_t in ((np.full(T, 0.9), lam), (np.ones(T), steps)):
            gates = GateTrack(gamma=gamma, beta=np.full(T, 0.7), lam=lam_t)
            with pytest.raises(ValueError, match="gamma == 1 and one fixed lam"):
                gka_recurrence_equivalence(k, v, q, gates)

    def test_requires_fixed_lam_track(self):
        k, v, q = rand_kvq(3, 2, 2, seed=12)
        gates = GateTrack(gamma=np.ones(3), beta=np.ones(3))
        with pytest.raises(ValueError):
            gka_recurrence_equivalence(k, v, q, gates)


class TestIoMatrixProbe:
    def test_mamba2_scalar_all_ones(self):
        # gamma = 1, scalar k = q = 1: read-after-write lower-triangular ones
        T = 5
        ones = np.ones((T, 1))
        gates = GateTrack(gamma=np.ones(T), beta=np.ones(T))
        m = ssm_io_matrix(SsmKind.MAMBA2, ones, ones, gates)
        assert np.allclose(m, np.tril(np.ones((T, T))), atol=1e-13)

    @pytest.mark.parametrize("kind", [SsmKind.MAMBA2, SsmKind.GDN, SsmKind.GKA])
    def test_semiseparability_bounded_by_dk(self, kind):
        T, d_k = 12, 3
        rng = np.random.default_rng(13)
        keys = rng.standard_normal((T, d_k))
        queries = rng.standard_normal((T, d_k))
        gates = GateTrack(gamma=rng.uniform(0.6, 1.0, T), beta=rng.uniform(0.3, 1.0, T),
                          lam=np.full(T, 0.5))
        m = ssm_io_matrix(kind, keys, queries, gates)
        assert hankel_profile(np.tril(m), rank_tol=1e-7).n_min <= d_k

    def test_gdn_beta_zero_degenerates_to_scaled_mamba2(self):
        # beta = 0 writes nothing: probed matrix is exactly zero, and for
        # small beta the probe is beta * Mamba-2 probe + O(beta^2)
        T, d_k = 6, 3
        rng = np.random.default_rng(14)
        keys = rng.standard_normal((T, d_k))
        queries = rng.standard_normal((T, d_k))
        gamma = rng.uniform(0.5, 1.0, T)
        gates0 = GateTrack(gamma=gamma, beta=np.zeros(T))
        assert np.array_equal(ssm_io_matrix(SsmKind.GDN, keys, queries, gates0), np.zeros((T, T)))
        m_m2 = ssm_io_matrix(SsmKind.MAMBA2, keys, queries, GateTrack(gamma=gamma, beta=np.ones(T)))
        eps = 1e-6
        m_gdn = ssm_io_matrix(SsmKind.GDN, keys, queries, GateTrack(gamma=gamma, beta=np.full(T, eps)))
        assert np.max(np.abs(m_gdn - eps * m_m2)) < 100 * eps ** 2

    def test_probe_matches_sequential_forward(self):
        # oracle: sequential forward per basis input, via the step oracle
        T, d_k = 5, 2
        rng = np.random.default_rng(15)
        keys = rng.standard_normal((T, d_k))
        queries = rng.standard_normal((T, d_k))
        gamma = rng.uniform(0.5, 1.0, T)
        beta = rng.uniform(0.3, 1.0, T)
        gates = GateTrack(gamma=gamma, beta=beta)
        probed = ssm_io_matrix(SsmKind.GDN, keys, queries, gates)
        manual = np.zeros((T, T))
        for j in range(T):
            state = np.zeros((1, d_k))
            for t in range(T):
                v = np.array([1.0 if t == j else 0.0])
                state = ssm_step(SsmKind.GDN, state, keys[t], v, gamma=gamma[t], beta=beta[t])
                manual[t, j] = (state @ queries[t])[0]
        assert np.allclose(probed, manual, atol=1e-12)


class TestForwardAndGates:
    def test_gate_track_validation(self):
        with pytest.raises(ValueError):
            GateTrack(gamma=np.array([0.0]), beta=np.array([0.5]))
        with pytest.raises(ValueError):
            GateTrack(gamma=np.array([0.5]), beta=np.array([-0.1]))
        with pytest.raises(ValueError):
            GateTrack(gamma=np.array([0.5]), beta=np.array([0.5]), lam=np.array([0.0]))
        # NaN fails both range comparisons, so it needs its own check
        bad = np.full(8, 0.5)
        bad[5] = np.nan
        with pytest.raises(ValueError, match="gamma is non-finite at row 5"):
            GateTrack(gamma=bad, beta=np.full(8, 0.5))
        with pytest.raises(ValueError, match="beta is non-finite at row 5"):
            GateTrack(gamma=np.full(8, 0.5), beta=bad)

    def test_gamma_range_error_names_the_first_offending_step(self):
        gamma = np.array([0.5, 1.0, 1.5, 0.0, 2.0])
        with pytest.raises(ValueError, match=re.escape("gamma must lie in (0, 1]: step 2 is 1.5")):
            GateTrack(gamma=gamma, beta=np.full(5, 0.5))
        gamma[2] = 0.9  # a zero decay is out of range too
        with pytest.raises(ValueError, match=re.escape("gamma must lie in (0, 1]: step 3 is 0.0")):
            GateTrack(gamma=gamma, beta=np.full(5, 0.5))

    def test_beta_range_error_names_the_first_offending_step(self):
        beta = np.array([0.0, 1.0, 0.3, -0.25, 1.5])
        with pytest.raises(ValueError, match=re.escape("beta must lie in [0, 1]: step 3 is -0.25")):
            GateTrack(gamma=np.full(5, 0.5), beta=beta)

    @pytest.mark.parametrize("bad, shown", [(0.0, "0.0"), (-2.0, "-2.0"), (np.inf, "inf"),
                                            (np.nan, "nan")])
    def test_lam_range_error_names_the_first_offending_step(self, bad, shown):
        lam = np.full(6, 0.5)
        lam[[4, 5]] = bad, -1.0
        with pytest.raises(ValueError, match=re.escape(
                f"lam must be positive and finite, one per step: step 4 is {shown}")):
            GateTrack(gamma=np.full(6, 0.5), beta=np.full(6, 0.5), lam=lam)
        # a track of the wrong length keeps the plain message
        with pytest.raises(ValueError, match="one per step$"):
            GateTrack(gamma=np.full(6, 0.5), beta=np.full(6, 0.5), lam=np.full(5, 0.5))

    @pytest.mark.parametrize("kind", list(SsmKind))
    def test_bad_solver_arguments_rejected(self, kind):
        T = 6
        k, v, q = rand_kvq(T, 3, 2, seed=25)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
        with pytest.raises(ValueError, match="unknown solver: 'bogus'"):
            ssm_forward(kind, k, v, q, gates, solver="bogus")
        for r in (0, -3):
            with pytest.raises(ValueError, match=f"need r >= 1 iterations, got {r}"):
                ssm_forward(kind, k, v, q, gates, solver="chebyshev", r=r)
        for r in (2.5, 3.0):
            with pytest.raises(ValueError, match=f"r must be an integer .*, got {r}"):
                ssm_forward(kind, k, v, q, gates, solver="chebyshev", r=r)

    @pytest.mark.parametrize("kind", list(SsmKind))
    def test_numpy_integer_r_accepted(self, kind):
        T = 6
        k, v, q = rand_kvq(T, 3, 2, seed=26)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
        y, _ = ssm_forward(kind, k, v, q, gates, solver="chebyshev", r=np.int32(3))
        assert np.array_equal(y, ssm_forward(kind, k, v, q, gates, solver="chebyshev", r=3)[0])

    def test_forward_final_state_matches_steps(self):
        T, d_k, d_v = 7, 3, 2
        k, v, q = rand_kvq(T, d_k, d_v, seed=17)
        rng = np.random.default_rng(18)
        gates = GateTrack(gamma=rng.uniform(0.5, 1.0, T), beta=rng.uniform(0.3, 1.0, T))
        y, s = ssm_forward(SsmKind.GDN, k, v, q, gates)
        state = np.zeros((d_v, d_k))
        for t in range(T):
            state = ssm_step(SsmKind.GDN, state, k[t], v[t], gamma=gates.gamma[t], beta=gates.beta[t])
        assert np.allclose(s, state, atol=1e-12)
        assert np.allclose(y[-1], state @ q[-1], atol=1e-12)

    def test_step_oracle_replays_gdn_with_filtered_tokens(self):
        # beta = 0 is a valid gate (the token is filtered out); the per-step
        # oracle must replay such a track
        T, d_k, d_v = 8, 3, 2
        k, v, q = rand_kvq(T, d_k, d_v, seed=21)
        rng = np.random.default_rng(22)
        beta = rng.uniform(0.3, 1.0, T)
        beta[[0, 3, 4]] = 0.0
        gates = GateTrack(gamma=rng.uniform(0.5, 1.0, T), beta=beta)
        y, s = ssm_forward(SsmKind.GDN, k, v, q, gates)
        state = np.zeros((d_v, d_k))
        for t in range(T):
            state = ssm_step(SsmKind.GDN, state, k[t], v[t], gamma=gates.gamma[t], beta=beta[t])
            assert np.allclose(y[t], state @ q[t], atol=1e-12)
        assert np.allclose(s, state, atol=1e-12)

    @pytest.mark.parametrize("kind", list(SsmKind))
    def test_non_finite_input_named(self, kind):
        T, d = 64, 8
        k, v, q = rand_kvq(T, d, d, seed=23)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5))
        k[5, 0] = np.nan
        with pytest.raises(ValueError, match="k is non-finite at row 5"):
            ssm_forward(kind, k, v, q, gates)
        k[5, 0] = 0.0
        q[9, 3] = np.inf
        with pytest.raises(ValueError, match="q is non-finite at row 9"):
            ssm_forward(kind, k, v, q, gates)
        q[9, 3] = 0.0
        v[2, 1] = -np.inf
        with pytest.raises(ValueError, match="v is non-finite at row 2"):
            ssm_forward(kind, k, v, q, gates)
        v[2, 1] = 0.0
        s0 = np.zeros((d, d))
        s0[4, 7] = np.nan
        with pytest.raises(ValueError, match="s0 is non-finite at row 4"):
            ssm_forward(kind, k, v, q, gates, s0=s0)

    @pytest.mark.parametrize("solver", ["exact", "chebyshev"])
    @pytest.mark.parametrize("kind", list(SsmKind))
    def test_mis_shaped_input_named(self, kind, solver):
        # a q one row short was read as a zero query, a GKA v one row long
        # was cut to T, and a one-row s0 was broadcast, all without complaint
        T, d_k, d_v = 10, 4, 3
        k, v, q = rand_kvq(T, d_k, d_v, seed=26)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
        bad = {"k": [k[:9], k[None], k[:, 0]],
               "v": [v[:9], np.vstack([v, v[:1]]), v[:, 0]],
               "q": [q[:9], np.vstack([q, q[:1]]), q[None], q[:, 0], q[:, :3]],
               "s0": [np.zeros((1, d_k)), np.zeros((d_k, d_v)), np.zeros(d_v * d_k)]}
        for name, shapes in bad.items():
            for x in shapes:
                args = {"k": k, "v": v, "q": q, "s0": None, name: x}
                with pytest.raises(ValueError, match=f"^{name} .*{re.escape(str(x.shape))}"):
                    ssm_forward(kind, gates=gates, solver=solver, r=5, **args)

    def test_gdn_overflow_names_first_non_finite_row(self):
        # keys of norm 8 make the erase factor expand the state ~60x along
        # k; the output overflows at row 332 of 400
        T, d = 400, 16
        rng = np.random.default_rng(0)
        k = rng.standard_normal((T, d))
        k *= 8.0 / np.linalg.norm(k, axis=1, keepdims=True)
        v, q = rng.standard_normal((T, d)), rng.standard_normal((T, d))
        gates = GateTrack(gamma=np.full(T, 0.99), beta=np.ones(T))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="gdn output is non-finite from row 332"):
                ssm_forward(SsmKind.GDN, k, v, q, gates)
            y, _ = ssm_forward(SsmKind.GDN, k[:300], v[:300], q[:300],
                               GateTrack(gamma=gates.gamma[:300], beta=gates.beta[:300]))
        assert np.all(np.isfinite(y))

    def test_gdn_overflow_inside_a_chunk_keeps_the_rows_before_it(self):
        # one chunk of 64 rows. Keys along e_0 with ||k||^2 = 1 + 1e10 scale
        # the state by -1e10 a row along e_0, unit keys orthogonal to e_0
        # leave that part be: rows 1-31 grow it to the edge of the float
        # range, rows 32-40 hold it and rows from 41 grow it again. Small
        # queries keep y_40 at 1e303 and make y_41 1e312. The zeros above the
        # diagonal must carry row 41's overflow to no earlier row as
        # 0 * inf = NaN: not in the solve, where the inverse of rows 0-31
        # times the keys of rows 41-63 overflows, nor in qk's products
        T, d, d_v, r = 64, 4, 3, 41
        rng = np.random.default_rng(0)
        k = rng.standard_normal((T, d))
        k[32:41, 0] = 0.0
        k /= np.linalg.norm(k, axis=1, keepdims=True)
        k[1:32] = k[41:] = np.sqrt(1.0 + 1e10) * np.eye(d)[0]
        v, q = rng.standard_normal((T, d_v)), 1e-6 * rng.standard_normal((T, d))
        gates = GateTrack(gamma=np.ones(T), beta=np.ones(T))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteOutput, match=f"gdn output is non-finite from row {r}$"):
                ssm_forward(SsmKind.GDN, k, v, q, gates)
            y, _ = kernels.gdn_scan(k, v, q, gates.gamma, gates.beta, np.zeros((d_v, d)))
        # the step oracle's state overflows from row 31, so it runs on v
        # scaled by 1e-200: from the zero state y is linear in v
        state, y_ref = np.zeros((d_v, d)), np.empty((r, d_v))
        for t in range(r):
            state = ssm_step(SsmKind.GDN, state, k[t], 1e-200 * v[t])
            y_ref[t] = state @ q[t]
        row_err = np.max(np.abs(1e-200 * y[:r] - y_ref), axis=1) / np.max(np.abs(y_ref), axis=1)
        assert np.max(row_err) <= 1e-12
        assert not np.isfinite(y[r:]).any()

    @pytest.mark.parametrize("kind", list(SsmKind))
    def test_zero_width_values(self, kind):
        T, d_k = 10, 4
        k, _, q = rand_kvq(T, d_k, 1, seed=27)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
        y, state = ssm_forward(kind, k, np.zeros((T, 0)), q, gates)
        assert y.shape == (T, 0)
        assert (state.u if kind is SsmKind.GKA else state).shape == (0, d_k)

    def test_every_kind_takes_only_a_d_v_by_d_k_s0(self):
        # a taller s0 is refused by every kind, naming its shape; the rows
        # that once carried transitions are rows of zero value columns: the
        # forward splits into one from the first d_v rows with the values
        # and one from the rest with none
        T, d_k, d_v = 10, 4, 3
        k, v, q = rand_kvq(T, d_k, d_v, seed=28)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
        s0 = np.random.default_rng(29).standard_normal((d_v + 2, d_k))
        for kind in SsmKind:
            with pytest.raises(ValueError, match=re.escape(f"s0 must be (d_v, d_k) = "
                                                           f"{(d_v, d_k)}, got shape {s0.shape}")):
                ssm_forward(kind, k, v, q, gates, s0=np.zeros_like(s0))
        for kind in (SsmKind.MAMBA2, SsmKind.GDN):
            y, s = ssm_forward(kind, k, np.hstack([v, np.zeros((T, 2))]), q, gates, s0=s0)
            y_v, s_v = ssm_forward(kind, k, v, q, gates, s0=s0[:d_v])
            y_t, s_t = ssm_forward(kind, k, np.zeros((T, 2)), q, gates, s0=s0[d_v:])
            assert np.allclose(y, np.hstack([y_v, y_t]), rtol=0.0, atol=1e-12)
            assert np.allclose(s, np.vstack([s_v, s_t]), rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kind", [SsmKind.MAMBA2, SsmKind.GDN])
    def test_complex_s0_keeps_its_imaginary_part(self, kind):
        # a complex-step derivative in s0 alone: with real k, v and q the
        # imaginary part of y and of the state is the forward from Im s0
        # with no values (the chain used to cast it away)
        T, d_k, d_v = 10, 4, 3
        k, v, q = rand_kvq(T, d_k, d_v, seed=30)
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5))
        re_s0, im_s0 = np.random.default_rng(31).standard_normal((2, d_v, d_k))
        y, s = ssm_forward(kind, k, v, q, gates, s0=re_s0 + 1j * im_s0)
        y_im, s_im = ssm_forward(kind, k, np.zeros_like(v), q, gates, s0=im_s0)
        assert np.allclose(y.imag, y_im, rtol=0.0, atol=1e-12)
        assert np.allclose(s.imag, s_im, rtol=0.0, atol=1e-12)

    def test_gka_chebyshev_query_past_1e154_returns_finite_output(self):
        # the Chebyshev residual norms square the residuals, so they overflow
        # for a query row past about 1e154 while every iterate is finite;
        # the forward discards them, and with warnings raised as errors it
        # must still return. Chebyshev is linear in q and the rows solve
        # apart, so row 5 is 1e160 times the unscaled row, to rounding
        T, d = 20, 4
        rng = np.random.default_rng(0)
        k, v, q = (rng.standard_normal((T, d)) for _ in range(3))
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.full(T, 0.5))
        y_ref, _ = ssm_forward(SsmKind.GKA, k, v, q, gates, solver="chebyshev", r=8)
        y_ref[5] *= 1e160
        q[5] *= 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y, _ = ssm_forward(SsmKind.GKA, k, v, q, gates, solver="chebyshev", r=8)
        assert np.all(np.isfinite(y))
        row_err = np.max(np.abs(y - y_ref), axis=1) / np.max(np.abs(y_ref), axis=1)
        assert np.max(row_err) <= 1e-12

    @pytest.mark.parametrize("solver", ["exact", "chebyshev"])
    def test_gka_overflow_names_first_non_finite_row(self, solver):
        # ||H_t||_F overflows (so does the adaptive lam_t) while H_t and U_t
        # stay finite: the outputs are NaN from row 0 and must not pass
        T, d = 200, 16
        k, v, q = rand_kvq(T, d, d, seed=25)
        gates = GateTrack(gamma=np.ones(T), beta=np.full(T, 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteOutput, match="gka output is non-finite") as err:
                ssm_forward(SsmKind.GKA, k * 1e80, v, q, gates, solver=solver)
        assert err.value.row == 0

    @pytest.mark.parametrize("solver", ["exact", "chebyshev"])
    def test_gka_state_overflow_with_finite_outputs_names_the_state(self, solver):
        # zero queries read y = 0 while the last write, v k^T of about
        # 1e309, overflows U: the forward names the final state, not a row
        T, d = 70, 4
        k, v, _ = rand_kvq(T, d, d, seed=26)
        k[-1], v[-1] = 10.0, 1e308
        gates = GateTrack(gamma=np.ones(T), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="gka final state is non-finite") as err:
                ssm_forward(SsmKind.GKA, k, v, np.zeros((T, d)), gates, solver=solver)
        assert not isinstance(err.value, NonFiniteOutput)

    def test_gka_fixed_lam_exact_forward_reads_no_norm(self):
        # a fixed lam with the dense solve never reads ||H_t||_F, so keys
        # whose H_t is finite but whose norm overflows (1e80 here) must not
        # stop the pass; only an overflowing H_t does (1e160)
        T, d = 200, 16
        k, v, q = rand_kvq(T, d, d, seed=25)
        gates = GateTrack(gamma=np.ones(T), beta=np.full(T, 0.5), lam=np.full(T, 0.5))
        for scale in (1e80, 1e150):
            y, state = ssm_forward(SsmKind.GKA, k * scale, v, q, gates)
            assert np.all(np.isfinite(y)) and np.all(np.isfinite(state.h))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteOutput, match="gka output is non-finite") as err:
                ssm_forward(SsmKind.GKA, k * 1e160, v, q, gates)
        assert err.value.row == 0

    @pytest.mark.parametrize("gamma", [1.0, 0.9])
    def test_gka_singular_dense_solve_names_its_row(self, gamma):
        # beta k k^T swamps a fixed lam at row 5, so H_5 + lam I is singular
        # by rounding: the dense solve stops the pass there, as the
        # adaptive lam already does on the same input
        T, d = 20, 4
        rng = np.random.default_rng(0)
        k, v, q = (rng.standard_normal((T, d)) for _ in range(3))
        k[5] *= 1e100
        for lam in (np.full(T, 0.5), None):
            with np.errstate(all="ignore"):
                with pytest.raises(NonFiniteOutput) as err:
                    ssm_forward(SsmKind.GKA, k, v, q, GateTrack(np.full(T, gamma),
                                                                np.full(T, 0.5), lam))
            assert err.value.row == 5

    def test_gka_exact_forward_takes_woodbury_only_where_the_block_allows(self, monkeypatch):
        # a block with gamma = 1, one lam and a real system that passes the
        # guard is solved by Woodbury; every other block keeps one dense
        # solve per token
        calls = []
        dense = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(1) or dense(*args))

        def dense_solves(k, gamma, lam, q=None):
            T = k.shape[0]
            rng = np.random.default_rng(41)
            v = rng.standard_normal((T, k.shape[1]))
            q = rng.standard_normal(k.shape) if q is None else q
            calls.clear()
            ssm_forward(SsmKind.GKA, k, v, q, GateTrack(gamma, rng.uniform(0.1, 0.9, T), lam))
            return len(calls)

        T, d = 128, 64
        k = np.random.default_rng(40).standard_normal((T, d))
        ones, lam = np.ones(T), np.full(T, 0.5)
        assert dense_solves(k, ones, lam) == 0  # the prefill_gka benchmark's inputs
        assert dense_solves(30.0 * k, ones, lam) == T  # ||k||^2 / lam ~ 1e5
        assert dense_solves(k, np.full(T, 0.999), lam) == T
        steps = lam.copy()
        steps[[10, 100]] = 0.6  # one block's lam varies, then the other's
        assert dense_solves(k, ones, steps) == T
        steps[100] = 0.5
        assert dense_solves(k, ones, steps) == T // 2
        assert dense_solves(k + 1e-30j, ones, lam) == T
        assert dense_solves(k, ones, lam, q=np.ones((T, d)) * (1 + 1e-30j)) == T

    def test_gka_exact_forward_inverts_only_a_nonzero_block_entry(self, monkeypatch):
        # on the prefill_gka benchmark's inputs both blocks are Woodbury's:
        # the first enters from the zero state and takes A^-1 = I / lam,
        # neither inverts its Cholesky factor, so the one inverse is the
        # second block's A = H_0 + lam I
        inverted = []
        inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", lambda a: inverted.append(a.copy()) or inv(a))
        T, d = 128, 64
        rng = np.random.default_rng(40)
        k, v, q = (rng.standard_normal((T, d)) for _ in range(3))
        beta = rng.uniform(0.1, 0.9, T)
        _, state = ssm_forward(SsmKind.GKA, k[:64], v[:64], q[:64],
                               GateTrack(np.ones(64), beta[:64], np.full(64, 0.5)))
        inverted.clear()
        ssm_forward(SsmKind.GKA, k, v, q, GateTrack(np.ones(T), beta, np.full(T, 0.5)))
        assert len(inverted) == 1
        np.testing.assert_array_equal(inverted[0], state.h + 0.5 * np.eye(d))
        # inv(lam I) is I / lam bit for bit, which the zero-state block relies on
        for n in (1, 5, 64):
            for lam in (1e-6, 0.5, 3.0, 1e4):
                np.testing.assert_array_equal(inv(lam * np.eye(n)), np.eye(n) / lam)

    def test_gka_exact_complex_step_matches_woodbury_differences(self):
        # the complex step runs the dense solve, the real forward Woodbury in
        # all three blocks (keys of norm ~4, lam 0.5): the derivative of one
        # is the difference quotient of the other
        T, d_k, d_v = 130, 16, 3
        k, v, q = rand_kvq(T, d_k, d_v, seed=42)
        rng = np.random.default_rng(43)
        gates = GateTrack(np.ones(T), rng.uniform(0.1, 0.9, T), np.full(T, 0.5))
        w, direction = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))

        def loss(x):
            return (w * ssm_forward(SsmKind.GKA, x, v, q, gates)[0]).sum()

        h = 1e-5
        fd = (loss(k + h * direction) - loss(k - h * direction)) / (2 * h)
        assert loss(k + 1e-30j * direction).imag / 1e-30 == pytest.approx(fd, rel=1e-7)

    @pytest.mark.parametrize("solver", ["exact", "chebyshev"])
    @pytest.mark.parametrize("lam", [None, 0.5])
    def test_gka_forward_of_no_tokens_returns_the_zero_state(self, solver, lam):
        gates = GateTrack(np.ones(0), np.ones(0), None if lam is None else np.full(0, lam))
        y, state = ssm_forward(SsmKind.GKA, np.zeros((0, 4)), np.zeros((0, 3)),
                               np.zeros((0, 4)), gates, solver=solver)
        assert y.shape == (0, 3)
        assert np.array_equal(state.h, np.zeros((4, 4)))
        assert np.array_equal(state.u, np.zeros((3, 4)))

    @pytest.mark.parametrize("solver", ["exact", "chebyshev"])
    def test_gka_overflow_stops_at_the_first_non_finite_row(self, solver, monkeypatch):
        # the outputs are NaN from row 0: the forward must not run the 199
        # later solves, each of which only warns about the same overflow
        calls = []
        dense = kernels.chebyshev_dense
        monkeypatch.setattr(kernels, "chebyshev_dense",
                            lambda *args: calls.append(1) or dense(*args))

        def overflow_warnings(T):
            k, v, q = rand_kvq(T, 16, 16, seed=25)
            gates = GateTrack(gamma=np.ones(T), beta=np.full(T, 0.5))
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                with pytest.raises(NonFiniteOutput) as err:
                    ssm_forward(SsmKind.GKA, k * 1e80, v, q, gates, solver=solver)
            assert err.value.row == 0
            return len(caught)

        single = overflow_warnings(1)
        calls.clear()
        assert overflow_warnings(200) <= single
        assert len(calls) <= 1

    def test_mamba2_overflow_names_first_non_finite_row(self):
        T, d = 30, 4
        k, v, q = rand_kvq(T, d, d, seed=24)
        k[10] *= 1e200
        v[10] *= 1e200
        gates = GateTrack(gamma=np.full(T, 0.9), beta=np.ones(T))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match="mamba2 output is non-finite from row 10"):
                ssm_forward(SsmKind.MAMBA2, k, v, q, gates)

    @pytest.mark.parametrize("kind", list(SsmKind))
    def test_complex_step_matches_central_differences(self, kind):
        # the complex step (see autodiff) keeps complex128 through every
        # forward; a dropped imaginary part would read as a zero derivative.
        # T = 150 crosses two chunk boundaries of the chunkwise scans.
        T, d_k, d_v = 150, 4, 3
        assert T > 2 * kernels.CHUNK
        k, v, q = rand_kvq(T, d_k, d_v, seed=31, unit_keys=True)
        rng = np.random.default_rng(32)
        inputs = {"k": k, "gamma": rng.uniform(0.8, 0.99, T), "beta": rng.uniform(0.2, 0.9, T)}
        directions = {"k": rng.standard_normal((T, d_k)),
                      "gamma": 0.01 * rng.standard_normal(T),
                      "beta": 0.01 * rng.standard_normal(T)}
        w = rng.standard_normal((T, d_v))

        def loss(arg, x):
            args = {**inputs, arg: x}
            gates = GateTrack(args["gamma"], args["beta"], np.full(T, 0.5))
            y, state = ssm_forward(kind, args["k"], v, q, gates)
            return (w * y).sum(), y, state

        for arg in ("k", "gamma") if kind is SsmKind.MAMBA2 else ("k", "gamma", "beta"):
            x0, d = inputs[arg], directions[arg]
            out, y, state = loss(arg, x0 + 1e-30j * d)
            arrays = (y, state.h, state.u) if kind is SsmKind.GKA else (y, state)
            assert all(a.dtype == np.complex128 for a in arrays)
            h = 1e-5
            fd = (loss(arg, x0 + h * d)[0] - loss(arg, x0 - h * d)[0]) / (2 * h)
            assert out.imag / 1e-30 == pytest.approx(fd, rel=1e-7), arg
        if kind is SsmKind.GKA:
            # ||H_t||_F drops the imaginary part: the adaptive lam_t and the
            # Chebyshev interval would silently lose their derivatives
            k_step = k + 1e-30j * directions["k"]
            with pytest.raises(ValueError, match="not analytic"):
                ssm_forward(kind, k_step, v, q, GateTrack(inputs["gamma"], inputs["beta"]))
            with pytest.raises(ValueError, match="not analytic"):
                ssm_forward(kind, k_step, v, q, GateTrack(inputs["gamma"], inputs["beta"],
                                                          np.full(T, 0.5)), solver="chebyshev")

    def test_gka_forward_adaptive_lambda_runs(self):
        T = 6
        k, v, q = rand_kvq(T, 4, 3, seed=19)
        gates = GateTrack(gamma=np.full(T, 0.95), beta=np.full(T, 0.8))
        y, info = ssm_forward(SsmKind.GKA, k, v, q, gates, alpha=0.05)
        assert y.shape == (T, 3)
        assert isinstance(info, GkaInfoState)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, np.nan, np.inf])
    @pytest.mark.parametrize("solver", ["exact", "chebyshev"])
    def test_gka_adaptive_rule_rejects_bad_alpha(self, solver, alpha):
        # lam_t = alpha ||H_t||_F would be 0, negative or NaN: every output 0
        T = 6
        k, v, q = rand_kvq(T, 4, 3, seed=21)
        gates = GateTrack(gamma=np.full(T, 0.95), beta=np.full(T, 0.8))
        with pytest.raises(ValueError, match=f"alpha must be positive and finite, got {alpha}"):
            ssm_forward(SsmKind.GKA, k, v, q, gates, solver=solver, r=5, alpha=alpha)
        # a fixed lam track never reads alpha
        fixed = GateTrack(gamma=gates.gamma, beta=gates.beta, lam=np.full(T, 0.5))
        y, _ = ssm_forward(SsmKind.GKA, k, v, q, fixed, solver=solver, r=5, alpha=alpha)
        assert np.all(np.isfinite(y)) and np.any(y != 0.0)

    def test_gka_forward_filtered_prefix_reads_zero(self):
        # beta = 0 over a prefix leaves the info pair empty there; the
        # adaptive regularizer is 0 and the outputs must be exactly zero
        T = 6
        k, v, q = rand_kvq(T, 4, 3, seed=20)
        beta = np.array([0.0, 0.0, 0.0, 0.8, 0.8, 0.8])
        gates = GateTrack(gamma=np.ones(T), beta=beta)
        for solver in ("exact", "chebyshev"):
            y, _ = ssm_forward(SsmKind.GKA, k, v, q, gates, solver=solver, r=5)
            assert np.array_equal(y[:3], np.zeros((3, 3)))
            assert np.all(np.isfinite(y))


def first_bad_row_by_scan(arr):
    """The oracle: scan the rows in order and return the first that holds a
    non-finite entry, or None."""
    for row in range(arr.shape[0]):
        if not all(np.isfinite(x) for x in np.ravel(arr[row])):
            return row
    return None


@st.composite
def arrays_with_non_finite_entries(draw):
    """A 1-D to 3-D float64 or complex128 array, holding NaN or +-inf (in
    the real or the imaginary part) at zero or more generated positions."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    complex_ = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    arr = rng.standard_normal(shape) + (1j * rng.standard_normal(shape) if complex_ else 0.0)
    for _ in range(draw(st.integers(0, 4))):
        index = tuple(draw(st.integers(0, n - 1)) for n in shape)
        value = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
        arr[index] = complex(arr[index].real, value) if complex_ and draw(st.booleans()) else value
    return arr


@settings(max_examples=200, deadline=None, derandomize=True)
@given(arrays=st.lists(arrays_with_non_finite_entries(), min_size=1, max_size=3))
def test_finiteness_checks_name_the_row_a_row_scan_finds(arrays):
    # the whole-array test runs first and the row is located only after it
    # fails; both must name what a plain row scan names
    named = {f"a{i}": arr for i, arr in enumerate(arrays)}
    first = next(((name, row) for name, arr in named.items()
                  if (row := first_bad_row_by_scan(arr)) is not None), None)
    if first is None:
        _require_finite(**named)
    else:
        with pytest.raises(ValueError, match=f"^{first[0]} is non-finite at row {first[1]}$"):
            _require_finite(**named)
    y, s = arrays[0], np.zeros((2, 2))
    row = first_bad_row_by_scan(y)
    if row is None:
        got_y, got_s = _finite_output(SsmKind.GDN, y, s)
        assert got_y is y and got_s is s
    else:
        with pytest.raises(NonFiniteOutput, match=f"^gdn output is non-finite from row {row}$") as err:
            _finite_output(SsmKind.GDN, y, s)
        assert err.value.row == row
