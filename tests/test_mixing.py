import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssm.mixing import (
    MixingMatrix,
    TokenSequence,
    build_attention_mixer,
    build_swa_mixer,
    hankel_block,
    hankel_profile,
    max_hankel_rank,
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


def full_rank_attention(T=64, seed=64):
    """A softmax mixer of full rank min(k, T - k) at every cut k."""
    return build_attention_mixer(random_token_sequence(T, 8, rng=np.random.default_rng(seed))).m


@st.composite
def generated_mixers(draw):
    """Attention at scale 0, 0.1, 1 or 10, SWA with w in 1..T, or
    tril(U V^T) with U, V of rank 0..8, at T = 0..70."""
    T = draw(st.integers(0, 70))
    family = draw(st.sampled_from(["attention", "swa", "low_rank"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if family == "low_rank" or T == 0:
        rank = draw(st.integers(0, 8))
        return np.tril(rng.standard_normal((T, rank)) @ rng.standard_normal((T, rank)).T)
    seq = random_token_sequence(T, 4, scale=draw(st.sampled_from([0.0, 0.1, 1.0, 10.0])), rng=rng)
    if family == "swa":
        return build_swa_mixer(seq, draw(st.integers(1, T))).m
    return build_attention_mixer(seq).m


ZERO_MIXER = np.zeros((9, 9))
FULL_RANK_T64 = full_rank_attention()
SWA_W1 = build_swa_mixer(random_token_sequence(17, 4, rng=np.random.default_rng(1)), 1).m


@settings(max_examples=150, deadline=None, derandomize=True)  # same inputs every run
@given(m=generated_mixers(), rank_tol=st.sampled_from([1e-10, 1e-6, 1e-3]))
@example(m=np.zeros((0, 0)), rank_tol=1e-10)
@example(m=np.array([[0.3]]), rank_tol=1e-10)
@example(m=np.array([[1.0, 0.0], [0.4, 0.6]]), rank_tol=1e-10)
@example(m=ZERO_MIXER, rank_tol=1e-10)
@example(m=FULL_RANK_T64, rank_tol=1e-10)
@example(m=SWA_W1, rank_tol=1e-6)  # n_min = 0: no pair is pruned
def test_max_hankel_rank_equals_the_profiles_n_min(m, rank_tol):
    assert max_hankel_rank(m, rank_tol) == hankel_profile(m, rank_tol).n_min


def counted_svd_calls(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    return calls


def search_cases():
    seq16 = random_token_sequence(16, 4, rng=np.random.default_rng(16))
    rng = np.random.default_rng(7)
    cases = [np.zeros((0, 0)), np.eye(1), np.tril(np.ones((2, 2))), ZERO_MIXER, SWA_W1,
             full_rank_attention(33, 33)]
    cases += [build_swa_mixer(seq16, w).m for w in (1, 2, 4, 8)]
    cases += [np.tril(rng.standard_normal((T, r)) @ rng.standard_normal((T, r)).T)
              for T, r in ((20, 3), (31, 5), (40, 0))]
    return cases


@pytest.mark.parametrize("m", search_cases())
def test_max_hankel_rank_visits_only_the_pairs_that_can_raise_it(monkeypatch, m):
    # pairs k = T//2 .. n_min + 1 can hold a rank above n_min; the search
    # stops at the first pair k <= its best rank so far, at most one later
    n_min, half = hankel_profile(m).n_min, m.shape[0] // 2
    calls = counted_svd_calls(monkeypatch)
    assert max_hankel_rank(m) == n_min
    assert half - n_min <= len(calls) <= half - n_min + 1


def test_max_hankel_rank_of_a_full_rank_mixer_takes_one_svd(monkeypatch):
    calls = counted_svd_calls(monkeypatch)
    assert max_hankel_rank(FULL_RANK_T64) == 32
    assert calls == [(1, 32, 32)]  # the square middle cut alone


def bad_mixers():
    upper = np.eye(4)
    upper[1, 3] = 0.5
    nan = np.tril(np.ones((4, 4)))
    nan[2, 1] = np.nan
    return [(np.zeros((3, 4)), 1e-10), (nan, 1e-10), (upper, 1e-10), (np.eye(3), 0.0),
            (np.eye(3), 1.0)]


@pytest.mark.parametrize("m, rank_tol", bad_mixers())
def test_max_hankel_rank_rejects_what_the_profile_rejects(m, rank_tol):
    with pytest.raises(ValueError) as want:
        hankel_profile(m, rank_tol)
    with pytest.raises(ValueError) as got:
        max_hankel_rank(m, rank_tol)
    assert str(got.value) == str(want.value)
