import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridssm.mixing import (
    MixingMatrix,
    TokenSequence,
    build_attention_mixer,
    build_swa_mixer,
    hankel_block,
    hankel_profile,
    numerical_rank,
    random_token_sequence,
)


def direct_softmax_mixer(q, k):
    """Oracle: elementwise causal softmax of the score matrix, no tricks."""
    T = q.shape[0]
    scores = q @ k.T
    m = np.zeros((T, T))
    for i in range(T):
        e = np.exp(scores[i, : i + 1] - scores[i, : i + 1].max())
        m[i, : i + 1] = e / e.sum()
    return m


class TestAttentionMixer:
    def test_single_token(self):
        seq = TokenSequence(q=[[3.0]], k=[[-1.0]], v=[[2.0]])
        m = build_attention_mixer(seq)
        assert m.m.shape == (1, 1)
        assert m.m[0, 0] == 1.0

    def test_equal_scores_give_uniform_causal_averaging(self):
        T = 5
        seq = TokenSequence(q=np.ones((T, 3)), k=np.ones((T, 3)), v=np.ones((T, 2)))
        m = build_attention_mixer(seq).m
        for i in range(T):
            assert np.allclose(m[i, : i + 1], 1.0 / (i + 1), atol=1e-15)
            assert np.all(m[i, i + 1:] == 0.0)

    def test_concentrated_scores_match_direct_softmax(self):
        # scaled standard basis: rows concentrate near one-hot on the diagonal
        q = 10.0 * np.eye(3)
        seq = TokenSequence(q=q, k=q, v=np.zeros((3, 1)))
        m = build_attention_mixer(seq).m
        expected = direct_softmax_mixer(q, q)
        assert np.allclose(m, expected, atol=1e-14)
        assert m[2, 2] > 0.99

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_direct_softmax_on_random_sequences(self, seed):
        seq = random_token_sequence(12, 4, 3, rng=np.random.default_rng(seed))
        m = build_attention_mixer(seq).m
        assert np.allclose(m, direct_softmax_mixer(seq.q, seq.k), atol=1e-14)

    @pytest.mark.parametrize("seed", range(5))
    def test_rows_stochastic_and_causal(self, seed):
        seq = random_token_sequence(16, 6, rng=np.random.default_rng(seed), scale=3.0)
        m = build_attention_mixer(seq)
        assert m.row_sum_error() <= 1e-12
        assert np.all(np.triu(m.m, k=1) == 0.0)

    def test_large_scores_stay_finite(self):
        # max-subtraction keeps exp in range even for huge logits
        seq = random_token_sequence(8, 4, rng=np.random.default_rng(0), scale=40.0)
        m = build_attention_mixer(seq)
        assert np.all(np.isfinite(m.m))
        assert m.row_sum_error() <= 1e-12

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            TokenSequence(q=np.ones((3, 2)), k=np.ones((3, 3)), v=np.ones((3, 2)))

    def test_non_finite_rejected(self):
        q = np.ones((2, 2))
        q[0, 0] = np.nan
        with pytest.raises(ValueError):
            TokenSequence(q=q, k=np.ones((2, 2)), v=np.ones((2, 1)))


class TestSwaMixer:
    def test_window_covering_history_equals_attention(self):
        seq = random_token_sequence(6, 3, rng=np.random.default_rng(1))
        full = build_attention_mixer(seq).m
        for w in (6, 7, 100):
            assert np.array_equal(build_swa_mixer(seq, w).m, full)

    def test_window_one_is_identity(self):
        seq = random_token_sequence(5, 3, rng=np.random.default_rng(2))
        assert np.array_equal(build_swa_mixer(seq, 1).m, np.eye(5))

    def test_uniform_scores_window_two(self):
        # oracle: masked softmax by hand
        T = 4
        seq = TokenSequence(q=np.zeros((T, 2)), k=np.zeros((T, 2)), v=np.zeros((T, 1)))
        expected = np.array([
            [1.0, 0.0, 0.0, 0.0],
            [0.5, 0.5, 0.0, 0.0],
            [0.0, 0.5, 0.5, 0.0],
            [0.0, 0.0, 0.5, 0.5],
        ])
        assert np.allclose(build_swa_mixer(seq, 2).m, expected, atol=1e-15)

    def test_bad_window_rejected(self):
        seq = random_token_sequence(4, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            build_swa_mixer(seq, 0)

    @pytest.mark.parametrize("seed", range(3))
    def test_banded_and_stochastic(self, seed):
        seq = random_token_sequence(10, 4, rng=np.random.default_rng(seed))
        w = 3
        m = build_swa_mixer(seq, w)
        assert m.row_sum_error() <= 1e-12
        for i in range(10):
            assert np.all(m.m[i, : max(i - w + 1, 0)] == 0.0)


@settings(max_examples=30, deadline=None, derandomize=True)  # same inputs every run
@given(T=st.integers(2, 40), d_k=st.integers(1, 6), w=st.integers(1, 45),
       scale=st.floats(0.1, 3.0), seed=st.integers(0, 2**32 - 1))
def test_swa_hankel_rank_is_at_most_the_window(T, d_k, w, scale, seed):
    # below cut k the window leaves only columns k-w+1 .. k-1 nonzero, so no
    # cut block has rank above w - 1; a window of T or more is full
    # attention, whose cut k has rank at most min(k, T - k) <= T / 2 <= w - 1
    seq = random_token_sequence(T, d_k, scale=scale, rng=np.random.default_rng(seed))
    assert hankel_profile(build_swa_mixer(seq, w)).ranks.max() <= w - 1


class TestHankelProfile:
    def test_identity_has_no_past_influence(self):
        p = hankel_profile(np.eye(6))
        assert p.n_min == 0
        assert np.all(p.ranks == 0)

    def test_uniform_averaging_ranks(self):
        # oracle: dense SVD of the 2x1 and 1x2 blocks by hand
        m = np.array([[1.0, 0.0, 0.0], [0.5, 0.5, 0.0], [1 / 3, 1 / 3, 1 / 3]])
        p = hankel_profile(m)
        assert list(p.ranks) == [1, 1]
        assert p.n_min == 1

    def test_rank_bounded_by_cut_geometry(self):
        seq = random_token_sequence(12, 5, rng=np.random.default_rng(3))
        p = hankel_profile(build_attention_mixer(seq))
        T = 12
        for i, r in enumerate(p.ranks):
            k = i + 1
            assert 0 <= r <= min(k, T - k)
        assert p.n_min == max(p.ranks)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("w", [1, 2, 4, 8])
    def test_swa_rank_capped_by_window(self, seed, w):
        seq = random_token_sequence(16, 4, rng=np.random.default_rng(seed))
        p = hankel_profile(build_swa_mixer(seq, w))
        assert p.n_min <= w

    @pytest.mark.parametrize("seed", range(4))
    def test_n_min_monotone_in_window(self, seed):
        seq = random_token_sequence(10, 4, rng=np.random.default_rng(seed))
        n_mins = [hankel_profile(build_swa_mixer(seq, w)).n_min for w in range(1, 11)]
        assert all(a <= b for a, b in zip(n_mins, n_mins[1:]))

    def test_block_extraction(self):
        m = np.tril(np.arange(16, dtype=float).reshape(4, 4))
        assert np.array_equal(hankel_block(m, 1), m[1:, :1])
        assert np.array_equal(hankel_block(m, 3), m[3:, :3])

    def test_non_triangular_rejected(self):
        with pytest.raises(ValueError):
            hankel_profile(np.ones((3, 3)))
        with pytest.raises(ValueError):
            MixingMatrix(np.ones((3, 3)))

    def test_bad_tolerance_rejected(self):
        with pytest.raises(ValueError):
            hankel_profile(np.eye(3), rank_tol=0.0)
        with pytest.raises(ValueError):
            hankel_profile(np.eye(3), rank_tol=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_first_non_finite_entry_named(self, bad):
        m = np.tril(np.ones((4, 4)))
        m[2, 1] = bad
        m[3, 0] = bad
        with pytest.raises(ValueError, match=r"non-finite entry at \(row, col\) = \(2, 1\)"):
            hankel_profile(m)

    def test_entry_above_diagonal_named(self):
        m = np.tril(np.ones((4, 4)))
        m[1, 3] = 0.5
        with pytest.raises(ValueError, match=r"lower-triangular.*\(1, 3\)"):
            hankel_profile(m)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError, match="square"):
            hankel_profile(np.zeros((3, 4)))

    def test_numerical_rank_counts_relative_to_the_largest_value(self):
        s = np.array([2.0, 1.0, 3e-10, 1e-10])
        assert numerical_rank(s, 1e-10) == 3
        assert numerical_rank(s, 1e-9) == 2
        assert numerical_rank(np.zeros(3)) == 0
        assert numerical_rank(np.zeros(0)) == 0
