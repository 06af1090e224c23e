"""The numpy kernels against vectorized reference formulations."""

import numpy as np
import pytest

from hybridssm import kernels as K


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
        T, d_k = 8, 4
        rng = np.random.default_rng(7)
        k = rng.standard_normal((T, d_k))
        g = rng.uniform(0.5, 1.0, T)
        b = rng.uniform(0.1, 1.0, T)
        prefixes = K.gdn_transition_prefixes(k, g, b)
        P = np.eye(d_k)
        for t in range(T):
            A_t = g[t] * (np.eye(d_k) - b[t] * np.outer(k[t], k[t]))
            P = P @ A_t
            assert np.allclose(prefixes[t], P, atol=1e-12)

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
