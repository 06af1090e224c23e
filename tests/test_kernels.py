"""The numpy kernels against vectorized reference formulations."""

import tracemalloc

import numpy as np
import pytest

from hybridssm import kernels as K
from hybridssm import seqpar
from hybridssm.ssm_core import GateTrack, chunk_forward, ssm_forward
from oracles import ssm_step


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
        # gdn_transition_prefixes and chunk_forward's (aq, a_end), for both
        # kinds, against P_t = A_1 ... A_t multiplied out token by token
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
            y, s_end, aq, a_end = chunk_forward(kind, k, v, q, gates)
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
        # a taller start state, some of its value and transition rows zero:
        # the first chunk multiplies only the others, and every row still
        # matches the token-by-token replay (the rows past d_v take no values)
        T, d_k, d_v = 150, 4, 3
        k, v, q, g, b = rand_inputs(T, d_k, d_v, seed=13)
        s0 = np.random.default_rng(14).standard_normal((d_v + d_k, d_k))
        s0[[1, 4]] = 0.0
        y, s_end = ssm_forward("gdn", k, v, q, GateTrack(gamma=g, beta=b), s0=s0)
        s = s0
        for t in range(T):
            s = ssm_step("gdn", s, k[t], np.concatenate([v[t], np.zeros(d_k)]),
                         gamma=g[t], beta=b[t])
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
