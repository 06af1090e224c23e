"""The numpy kernels against vectorized reference formulations."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssm import kernels as K
from hybridssm import seqpar
from hybridssm.ssm_core import GateTrack, ssm_forward
from oracles import (block_products_full, chebyshev_allocating, padded_forward,
                     recurrent_scan_per_token, ssd_terms_fresh_masks, ssm_step,
                     ut_solve_every_level, woodbury_per_block_inverse, woodbury_with_inverse)


def rand_inputs(T=16, d_k=5, d_v=4, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((T, d_k)), rng.standard_normal((T, d_v)),
            rng.standard_normal((T, d_k)), rng.uniform(0.5, 1.0, T),
            rng.uniform(0.1, 1.0, T))


class TestAgainstVectorizedReference:
    def test_mamba2_closed_form(self):
        # S_T = sum_t (prod_{j>t} gamma_j) v_t k_t^T
        k, v, q, g, _ = rand_inputs(T=10, seed=6)
        s0 = np.zeros((v.shape[1], k.shape[1]))
        _, s = K.mamba2_scan(k, v, q, g, s0)
        decay = np.concatenate([np.cumprod(g[::-1])[::-1][1:], [1.0]])
        expected = np.einsum("t,tv,tk->vk", decay, v, k)
        assert np.allclose(s, expected, atol=1e-12)

    def test_gdn_transition_prefixes_match_explicit_products(self):
        # gdn_transition_prefixes and the padded forward's (aq, a_end), for
        # both kinds, against P_t = A_1 ... A_t multiplied out token by token
        T, d_k, d_v = 150, 4, 3  # crosses two chunk boundaries
        rng = np.random.default_rng(7)
        k = rng.standard_normal((T, d_k))
        q = rng.standard_normal((T, d_k))
        v = rng.standard_normal((T, d_v))
        g = rng.uniform(0.5, 1.0, T)
        b = rng.uniform(0.1, 1.0, T)
        gates = GateTrack(gamma=g, beta=b)
        transitions = {
            "gdn": lambda t: g[t] * (np.eye(d_k) - b[t] * np.outer(k[t], k[t])),
            "mamba2": lambda t: g[t] * np.eye(d_k),
        }
        for kind, A in transitions.items():
            y, s_end, aq, a_end = padded_forward(kind, k, v, q, gates)
            y_ref, s_ref = ssm_forward(kind, k, v, q, gates)
            assert np.allclose(y, y_ref, atol=1e-12) and np.allclose(s_end, s_ref, atol=1e-12)
            results = [(aq, a_end)]
            if kind == "gdn":
                results.append(K.gdn_transition_prefixes(k, g, b, q))
            P = np.eye(d_k)
            for t in range(T):
                P = P @ A(t)
                for prefixes, _ in results:
                    assert np.allclose(prefixes[t], P @ q[t], atol=1e-12)
            for _, total in results:
                assert np.allclose(total, P, atol=1e-12)

    def test_conv1d_matches_numpy_convolve(self):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((30, 1))
        w = rng.standard_normal(5)
        got = K.conv1d_direct(u, w)[:, 0]
        # y_t = sum_i w_i u_{t-d+i} is correlation with the reversed filter
        expected = np.convolve(u[:, 0], w[::-1], mode="full")[: 30]
        assert np.allclose(got, expected, atol=1e-12)

    @pytest.mark.parametrize("l, d_conv", [(2, 5), (1, 3), (6, 1), (1, 1)])
    def test_conv1d_chunk_shorter_than_filter(self, l, d_conv):
        rng = np.random.default_rng(9)
        u = rng.standard_normal((l, 2))
        w = rng.standard_normal(d_conv)
        got = K.conv1d_direct(u, w)
        for c in range(2):
            expected = np.convolve(u[:, c], w[::-1], mode="full")[:l]
            assert np.allclose(got[:, c], expected, atol=1e-12)

    def test_chunked_conv_context_rows(self):
        rng = np.random.default_rng(10)
        u = rng.standard_normal((24, 2))
        w = rng.standard_normal(4)
        full = K.conv1d_direct(u, w)
        # split at 10: second chunk sees the first chunk's last 3 tokens
        head = K.conv1d_direct(u[:10], w)
        tail = K.conv1d_with_left_context(u[10:], w, u[7:10])
        assert np.array_equal(np.vstack([head, tail]), full)


class TestChebyshevBatch:
    def test_batch_rows_equal_single_solves(self):
        # a (2, 3) batch of systems, each with its own H, lam and interval,
        # against one 1-D call per row: the same arithmetic, so x is equal
        # bit for bit; the residual norms sum in another order
        rng = np.random.default_rng(11)
        d, iters = 5, 12
        g = rng.standard_normal((2, 3, d, d))
        h = g @ g.transpose(0, 1, 3, 2)
        lam = rng.uniform(0.1, 1.0, (2, 3))
        rhs = rng.standard_normal((2, 3, d))
        b = lam + np.linalg.norm(h, axis=(2, 3))
        rows = lambda p: np.array([[h[i, j] @ p[i, j] for j in range(3)] for i in range(2)])
        x, hist = K.chebyshev_dense(rows, lam, rhs, iters, lam, b)
        assert x.shape == (2, 3, d) and hist.shape == (iters, 2, 3)
        for i, j in np.ndindex(2, 3):
            x_1, hist_1 = K.chebyshev_dense(h[i, j].__matmul__, lam[i, j], rhs[i, j],
                                            iters, lam[i, j], b[i, j])
            assert np.array_equal(x[i, j], x_1)
            assert np.allclose(hist[:, i, j], hist_1, rtol=1e-14, atol=0.0)

    def test_scalar_coefficients_broadcast_over_the_batch(self):
        rng = np.random.default_rng(12)
        g = rng.standard_normal((4, 4))
        h = g @ g.T
        rhs = rng.standard_normal((3, 4))
        x, _ = K.chebyshev_dense(lambda p: p @ h, 2.0, rhs, 60, 2.0, 2.0 + np.linalg.norm(h))
        assert np.allclose(x, np.linalg.solve(h + 2.0 * np.eye(4), rhs.T).T, atol=1e-10)


class TestChebyshevInPlace:
    @pytest.mark.parametrize("batch", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("view", [False, True])
    def test_an_operator_returning_p_or_a_view_of_it_is_only_read(self, batch, view):
        # H = I: x solves (1 + lam) x = rhs. An iteration that wrote into
        # the operator's result would write into p, its own search direction
        rhs = np.random.default_rng(21).standard_normal(batch + (5,))
        lam = 0.75
        matvec = (lambda p: p[...]) if view else (lambda p: p)
        x, _ = K.chebyshev_dense(matvec, lam, rhs, 40, 0.5, 3.0)
        assert np.allclose((1.0 + lam) * x, rhs, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("batch", [(), (2, 3)])
    def test_without_history_the_iterates_keep_their_bits(self, batch):
        rng = np.random.default_rng(22)
        g = rng.standard_normal((5, 5))
        h = g @ g.T
        rhs = rng.standard_normal(batch + (5,))
        b = 0.5 + np.linalg.norm(h)
        x, hist = K.chebyshev_dense(lambda p: p @ h, 0.5, rhs, 20, 0.5, b)
        x_bare, none = K.chebyshev_dense(lambda p: p @ h, 0.5, rhs, 20, 0.5, b, history=False)
        assert hist.shape == (20,) + batch and none is None
        assert np.array_equal(x_bare, x)


@settings(max_examples=40, deadline=None, derandomize=True)  # same inputs every run
@given(d=st.integers(1, 8), batch=st.sampled_from([(), (1,), (4,), (2, 3)]),
       iters=st.integers(1, 40), per_row=st.booleans(), imag=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(d=64, batch=(2, 64), iters=30, per_row=True, imag=False, seed=0)  # prefill_gka's shape
@example(d=256, batch=(), iters=30, per_row=False, imag=False, seed=0)  # a decode_gka solve's
def test_chebyshev_in_place_keeps_the_allocating_bits(d, batch, iters, per_row, imag, seed):
    # the same x bit for bit as the allocating recurrence; a single
    # vector's residual norms too (decode's history), a batch's to rounding.
    # A complex rhs is a complex-step query through the GKA forward
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    h = g @ g.T
    rhs = rng.standard_normal(batch + (d,))
    if imag:
        rhs = rhs + 1j * rng.standard_normal(batch + (d,))
    lam = rng.uniform(0.1, 1.0, batch) if per_row and batch else 0.5
    b = lam + np.linalg.norm(h)
    x, hist = K.chebyshev_dense(lambda p: p @ h, lam, rhs, iters, lam, b)
    x_ref, hist_ref = chebyshev_allocating(lambda p: p @ h, lam, rhs, iters, lam, b)
    assert np.array_equal(x, x_ref)
    if batch:
        assert np.allclose(hist, hist_ref, rtol=1e-14, atol=0.0)
    else:
        assert np.array_equal(hist, hist_ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.integers(1, 64), d=st.integers(1, 8), zero=st.booleans(), chained=st.booleans(),
       lam=st.sampled_from([0.05, 0.3, 0.5, 0.7, 2.0]), seed=st.integers(0, 2**32 - 1))
@example(L=64, d=64, zero=True, chained=False, lam=0.5, seed=0)  # prefill_gka's first block
@example(L=64, d=64, zero=True, chained=True, lam=0.5, seed=0)  # and its second
@example(L=64, d=8, zero=True, chained=False, lam=0.3, seed=1)
def test_woodbury_on_a_zero_state_keeps_the_bits_of_the_inverse(L, d, zero, chained, lam, seed):
    # a zero H_0 scales by 1 / lam and drops H_0 x; a non-zero one inverts,
    # or, chained, takes A^-1 from the (A^-1, Y) the block before handed on,
    # whose writes it adds to H_0. Every block hands on its A^-1 as a matrix.
    # lam 0.5 and 2.0 are powers of two, which b / lam would also match
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    h0 = np.zeros((d, d)) if zero else g @ g.T / d
    draw = lambda: (rng.standard_normal((L, d)), rng.standard_normal((L, d)),
                    rng.uniform(0.0, 1.0, L))
    k, q, beta = draw()
    prev = None
    if chained:
        before = K._woodbury_block(h0, k, beta, q, lam)
        if before is not None:
            prev = before[1]
            h0 = h0 + (k.T * beta) @ k
            k, q, beta = draw()
    got = K._woodbury_block(h0, k, beta, q, lam, prev)
    ref = woodbury_with_inverse(h0, k, beta, q, lam, prev)
    assert (got is None) == (ref is None)
    if got is not None:
        (x, (a_inv, y)), (x_ref, (a_inv_ref, y_ref)) = got, ref
        assert np.array_equal(x, x_ref)
        assert np.array_equal(a_inv, a_inv_ref) and np.array_equal(y, y_ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(C=st.integers(1, 3), L=st.integers(1, 9), d_k=st.integers(1, 6), d_m=st.integers(1, 6),
       zero=st.booleans(), buffered=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_block_products_skip_only_a_zero_start_product(C, L, d_k, d_m, zero, buffered, seed):
    rng = np.random.default_rng(seed)
    x, k = rng.standard_normal((C, L, d_k)), rng.standard_normal((C, L, d_k))
    m, st_ = rng.standard_normal((C, L, d_m)), rng.standard_normal((C, d_k, d_m))
    if zero:
        st_[0] = 0.0
    w = np.tril(rng.uniform(0.0, 1.0, (C, L, L)))
    g = rng.uniform(0.5, 1.0, (C, L, 1))
    kt = K._transposed(k)
    bufs = [np.empty((C, L, n)) for n in (L, d_m, d_m)] if buffered else (None, None, None)
    out = K._block_products(x, st_, m, kt, w, g, bufs)
    assert np.array_equal(out, block_products_full(x, st_, m, kt, w, g))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(T=st.one_of(st.sampled_from([1, 63, 64, 65, 128, 130]), st.integers(1, 200)),
       d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       solver=st.sampled_from(["exact", "chebyshev"]), decay=st.booleans(),
       lam=st.sampled_from([None, 0.3, 0.5]), seed=st.integers(0, 2**32 - 1))
@example(T=128, d_k=64, d_v=64, solver="exact", decay=False, lam=0.5, seed=0)
@example(T=128, d_k=64, d_v=64, solver="chebyshev", decay=True, lam=None, seed=0)
@example(T=100, d_k=4, d_v=3, solver="exact", decay=False, lam=0.3, seed=0)
def test_gka_forward_keeps_the_bits_of_the_allocating_solves(T, d_k, d_v, solver, decay, lam,
                                                             seed):
    # the forward against itself with the in-place Chebyshev recurrence,
    # the zero-start skips and the Woodbury scaling replaced by the
    # allocating forms that take every product
    rng = np.random.default_rng(seed)
    k, v, q = (rng.standard_normal((T, d)) for d in (d_k, d_v, d_k))
    gamma = rng.uniform(0.5, 1.0, T) if decay else np.ones(T)
    gates = GateTrack(gamma, rng.uniform(0.0, 1.0, T), None if lam is None else np.full(T, lam))
    y, state = ssm_forward("gka", k, v, q, gates, solver=solver, r=12)
    with mock.patch.object(K, "chebyshev_dense", chebyshev_allocating), \
            mock.patch.object(K, "_block_products", block_products_full), \
            mock.patch.object(K, "_woodbury_block", woodbury_with_inverse):
        y_ref, state_ref = ssm_forward("gka", k, v, q, gates, solver=solver, r=12)
    assert np.array_equal(y, y_ref)
    assert np.array_equal(state.h, state_ref.h) and np.array_equal(state.u, state_ref.u)


@pytest.mark.parametrize("lam", [None, 0.5])
def test_gka_chebyshev_rows_are_scaled_and_form_no_residual_norms(lam):
    # each row solves s_t (H_t + lam_t I) x = s_t q_t with s_t = 1 / ||H_t||_F,
    # so under the adaptive lam every row's coefficients are the scalars
    # alpha, [alpha, 1 + alpha]; under a fixed lam they are lam_t s_t per
    # row on an interval of width 1. The forward reads no residual norm
    rng = np.random.default_rng(0)
    T, d = 128, 64  # prefill_gka's Chebyshev forward
    k, v, q = (rng.standard_normal((T, d)) for _ in range(3))
    gamma, beta = rng.uniform(0.9, 1.0, T), rng.uniform(0.1, 0.9, T)
    gates = GateTrack(gamma, beta, None if lam is None else np.full(T, lam))
    calls, dense = [], K.chebyshev_dense

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return dense(*args, **kwargs)

    with mock.patch.object(K, "chebyshev_dense", spy):
        ssm_forward("gka", k, v, q, gates, solver="chebyshev", r=30, alpha=0.05)
    [((_, coef, rhs, iters, a, b), kwargs)] = calls
    assert kwargs == {"history": False} and iters == 30
    if lam is None:
        assert all(type(z) is float for z in (coef, a, b))
        assert (coef, a, b) == (0.05, 0.05, 1.05)
        return
    h, fro = np.zeros((d, d)), np.empty(T)
    for t in range(T):
        h = gamma[t] * h + beta[t] * np.outer(k[t], k[t])
        fro[t] = np.linalg.norm(h)
    assert coef.shape == a.shape == b.shape == rhs.shape[:-1]
    assert np.allclose(coef.reshape(-1)[:T], lam / fro, rtol=1e-13, atol=0.0)
    assert np.array_equal(a, coef) and np.allclose(b - a, 1.0, rtol=0.0, atol=1e-15)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(T=st.one_of(st.sampled_from([65, 128, 4 * K.CHUNK + 1]), st.integers(65, 300)),
       d_k=st.integers(1, 64), d_v=st.integers(1, 6), lam=st.sampled_from([0.1, 0.5, 2.0]),
       key_norm=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
@example(T=128, d_k=64, d_v=64, lam=0.5, key_norm=8.0, seed=0)  # prefill_gka's exact forward
def test_chained_woodbury_matches_the_per_block_inverse(T, d_k, d_v, lam, key_norm, seed):
    # a Woodbury block after another of the same lam takes A^-1 from it
    # instead of inverting H_0 + lam I; the forward that inverts every
    # block's own A differs by rounding only, and the states not at all
    rng = np.random.default_rng(seed)
    k = key_norm * rng.standard_normal((T, d_k)) / np.sqrt(d_k)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    gates = GateTrack(np.ones(T), rng.uniform(0.1, 0.9, T), np.full(T, lam))
    y, state = ssm_forward("gka", k, v, q, gates)
    with mock.patch.object(K, "_woodbury_block", woodbury_per_block_inverse):
        y_ref, state_ref = ssm_forward("gka", k, v, q, gates)
    assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)
    assert np.array_equal(state.h, state_ref.h) and np.array_equal(state.u, state_ref.u)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(T=st.one_of(st.sampled_from([1, 63, 64, 65, 129, 4 * K.CHUNK + 1]), st.integers(1, 300)),
       d_k=st.integers(1, 64), d_v=st.integers(1, 8), key_norm=st.floats(0.1, 32.0),
       lam=st.floats(0.1, 3.0), filtered=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(T=128, d_k=64, d_v=64, key_norm=8.0, lam=0.5, filtered=False, seed=0)  # prefill_gka's
def test_recurrent_scan_folds_its_state_per_block_within_rounding(T, d_k, d_v, key_norm, lam,
                                                                  filtered, seed):
    # S folded once per block of CHUNK tokens against S updated at every
    # token: the same downdates give Phi bit for bit, and S and the outputs
    # move by rounding only
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((T, d_k))
    k *= rng.uniform(0.0, key_norm, (T, 1)) / np.linalg.norm(k, axis=1, keepdims=True)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    beta = rng.uniform(0.0, 1.0, T)
    if filtered:
        beta[rng.uniform(size=T) < 0.5] = 0.0
    y, s, phi = K.gka_recurrent_scan(k, v, q, beta, lam)
    y_ref, s_ref, phi_ref = recurrent_scan_per_token(k, v, q, beta, lam)
    assert np.array_equal(phi, phi_ref)
    assert np.linalg.norm(s - s_ref) <= 1e-12 * np.linalg.norm(s_ref)
    assert np.linalg.norm(y - y_ref) <= 1e-12 * np.linalg.norm(y_ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(L=st.one_of(st.sampled_from([1, 2, 3, 5, 33, 63, 64]), st.integers(1, K.CHUNK)),
       C=st.integers(1, 3), width=st.integers(0, 6), complex_=st.booleans(),
       scale=st.sampled_from([0.1, 1.0, 30.0]), seed=st.integers(0, 2**32 - 1))
@example(L=64, C=16, width=128, complex_=False, scale=0.1, seed=0)  # a GDN forward's systems
def test_ut_solve_keeps_the_bits_of_every_level_products(L, C, width, complex_, scale, seed):
    # the first doubling level's -B against -(C^-1 B) A^-1 with 1 x 1 ones,
    # over powers of two and lengths padded to one. NaN on and above the
    # diagonal shows that neither reads the upper triangle
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape) + (1j * rng.standard_normal(shape)
                                                        if complex_ else 0.0)
    n = scale * draw(C, L, L)
    n[:, ~np.tri(L, k=-1, dtype=bool)] = np.nan
    rhs = draw(C, L, width)
    x = K._ut_solve(n, rhs)
    x_ref = ut_solve_every_level(n, rhs)
    assert x.shape == x_ref.shape and x.dtype == x_ref.dtype
    assert np.array_equal(x, x_ref)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(T=st.one_of(st.sampled_from([1, 2, 63, 64, 65, 128, 3 * K.CHUNK]),
                   st.integers(1, 3 * K.CHUNK)),
       steps=st.lists(st.sampled_from([1e-300, 1e-3, 0.5, 0.9, 1.0]), min_size=1, max_size=4),
       complex_step=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_ssd_terms_keep_the_bits_of_fresh_masks(T, steps, complex_step, seed):
    # one to three blocks of L = min(CHUNK, T) tokens; the decays mix steps
    # whose upper-triangle exp would overflow
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((T, 3))
    gamma = rng.choice(steps, T) * rng.uniform(0.5, 1.0, T)
    if complex_step:
        gamma = gamma + 1e-20j * gamma * rng.standard_normal(T)
    for got, ref in zip(K._ssd_terms(k, gamma), ssd_terms_fresh_masks(k, gamma)):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.array_equal(got, ref)


def test_the_cached_block_masks_are_shared_and_read_only():
    lower, upper = K._triangles(5)
    assert K._triangles(5)[0] is lower and K._triangles(5)[1] is upper
    assert np.array_equal(lower, np.tri(5, dtype=bool)) and np.array_equal(upper, ~lower)
    for mask in (lower, upper):
        with pytest.raises(ValueError, match="read-only"):
            mask[0, 0] = True
        with pytest.raises(ValueError, match="read-only"):
            np.logical_not(mask, out=mask)


class TestZeroStartRows:
    def test_overflowing_transition_meets_no_zero_state_row(self):
        # keys of ||k||^2 = 1 + 1e10 along e_0 on rows 1-31 make each
        # transition scale e_0 by -1e10, so aq overflows at row 31; values of
        # 1e-10 keep the outputs representable (up to about 3.6e299), and
        # the zero start state must not read them as 0 * inf = NaN
        L, d = 64, 8
        rng = np.random.default_rng(0)
        k = rng.standard_normal((L, d))
        k[0] /= np.linalg.norm(k[0])
        k[1:32] = np.sqrt(1.0 + 1e10) * np.eye(d)[0]
        k[32:, 0] = 0.0
        k[32:] /= np.linalg.norm(k[32:], axis=1, keepdims=True)
        v = rng.standard_normal((L, d)) * 1e-10
        q = rng.standard_normal((L, d))
        s, y_ref = np.zeros((d, d)), np.empty((L, d))
        for t in range(L):
            s = ssm_step("gdn", s, k[t], v[t])
            y_ref[t] = s @ q[t]
        assert np.all(np.isfinite(y_ref)) and np.max(np.abs(y_ref)) > 1e299
        with np.errstate(over="ignore"):  # no invalid operation: 0 * inf stays unformed
            y, state = ssm_forward("gdn", k, v, q, GateTrack(gamma=np.ones(L), beta=np.ones(L)))
        scale = np.max(np.abs(y_ref))
        assert np.max(np.abs(y - y_ref)) <= 1e-13 * scale
        assert np.max(np.abs(state - s)) <= 1e-13 * np.max(np.abs(s))

    def test_start_state_with_zero_rows_matches_the_step_oracle(self):
        # a start state some of whose rows are zero, over values with d_k
        # zero columns beside them (the padded forward's transition rows):
        # the first chunk multiplies only the non-zero rows, and every row
        # still matches the token-by-token replay
        T, d_k, d_v = 150, 4, 3
        k, v, q, g, b = rand_inputs(T, d_k, d_v, seed=13)
        v = np.hstack([v, np.zeros((T, d_k))])
        s0 = np.random.default_rng(14).standard_normal((d_v + d_k, d_k))
        s0[[1, 4]] = 0.0
        y, s_end = ssm_forward("gdn", k, v, q, GateTrack(gamma=g, beta=b), s0=s0)
        s = s0
        for t in range(T):
            s = ssm_step("gdn", s, k[t], v[t], gamma=g[t], beta=b[t])
            assert np.allclose(y[t], s @ q[t], rtol=0.0, atol=1e-12)
        assert np.allclose(s_end, s, rtol=0.0, atol=1e-12)


class TestWorkingSet:
    """tracemalloc counts numpy's buffers exactly, so the peaks below hold
    on any host and allocator. At prefill_linear's shapes (T = 1024,
    d = 64, 16 chunks, zigzag over 4 ranks) one GDN forward or P2P pass
    peaks at 3.04 and 3.07 MiB (5.54 and 5.51 before the chunk terms were
    built in place); the bound allows one (C, L, d) array more."""

    T, D = 1024, 64
    SLACK = T * D * 8  # one (C, L, d) float64 array, 0.5 MiB

    def peak(self, f):
        f()  # warm-up
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("path, measured_mib", [("forward", 3.05), ("p2p", 3.08)])
    def test_gdn_peak(self, path, measured_mib):
        rng = np.random.default_rng(1)
        k = rng.standard_normal((self.T, self.D))
        k /= np.linalg.norm(k, axis=1, keepdims=True)
        v, q = rng.standard_normal((self.T, self.D)), rng.standard_normal((self.T, self.D))
        gates = GateTrack(gamma=rng.uniform(0.9, 1.0, self.T), beta=rng.uniform(0.1, 0.9, self.T))
        plan = seqpar.shard(self.T, 4, "zigzag")
        calls = {"forward": lambda: ssm_forward("gdn", k, v, q, gates),
                 "p2p": lambda: seqpar.p2p_forward("gdn", k, v, q, gates, plan)}
        assert self.peak(calls[path]) <= measured_mib * 2**20 + self.SLACK
