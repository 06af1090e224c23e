import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hybridssm import realization
from hybridssm.mixing import (DEFAULT_RANK_TOL, _cut_svds, build_attention_mixer, build_swa_mixer,
                              hankel_block, hankel_profile, numerical_rank, random_token_sequence)
from hybridssm.realization import (
    TimeVaryingRealization,
    io_matrix,
    load_realization,
    realize,
    save_realization,
    verify_minimality,
)


def unrolled_io_matrix(r):
    """Oracle: run the past-only-state recurrence on basis inputs.

    s_0 = 0; y_t = s_t C_t + v_t D_t; s_{t+1} = s_t A_t + v_t B_t.
    """
    T, n = r.b.shape
    out = np.zeros((T, T))
    for j in range(T):
        s = np.zeros(n)
        for t in range(T):
            v = 1.0 if t == j else 0.0
            out[t, j] = s @ r.c[t] + v * r.d[t]
            s = s @ r.a[t] + v * r.b[t]
    return out


def delay_matrix(T):
    m = np.zeros((T, T))
    for i in range(1, T):
        m[i, i - 1] = 1.0
    return m


class TestRealize:
    def test_identity_is_pure_feedthrough(self):
        r = realize(np.eye(5))
        assert r.n == 0
        assert np.all(r.d == 1.0)
        assert np.array_equal(io_matrix(r), np.eye(5))

    def test_unit_delay_needs_one_state(self):
        m = delay_matrix(3)
        r = realize(m)
        assert r.n == 1
        assert np.max(np.abs(io_matrix(r) - m)) < 1e-12
        assert np.max(np.abs(unrolled_io_matrix(r) - m)) < 1e-12

    def test_uniform_causal_averaging(self):
        T = 4
        m = np.tril(np.ones((T, T))) / np.arange(1, T + 1)[:, None]
        r = realize(m)
        assert r.n == 1  # every Hankel block is rank 1 (constant rows)
        assert np.max(np.abs(io_matrix(r) - m)) < 1e-9

    @pytest.mark.parametrize("T", [4, 8, 16, 32])
    def test_random_attention_mixers_realized_exactly(self, T):
        rng = np.random.default_rng(T)
        for _ in range(3):
            mix = build_attention_mixer(random_token_sequence(T, 6, rng=rng))
            r = realize(mix)
            rep = verify_minimality(r, mix)
            assert rep.is_minimal
            assert rep.reconstruction_error < 1e-9

    def test_non_causal_rejected(self):
        with pytest.raises(ValueError):
            realize(np.ones((3, 3)))

    def test_single_token_horizon(self):
        r = realize(np.array([[0.7]]))
        assert r.n == 0 and r.d[0] == 0.7

    @pytest.mark.parametrize("T", [0, 1, 2, 3])
    def test_edge_horizons(self, T):
        # every cut of a generic lower-triangular matrix below T = 4 has rank 1
        m = np.tril(np.random.default_rng(T).standard_normal((T, T)))
        n = 1 if T >= 2 else 0
        p = hankel_profile(m)
        assert p.ranks.shape == (max(T - 1, 0),) and np.all(p.ranks == 1) and p.n_min == n
        r = realize(m)
        assert r.n == n
        assert (r.a.shape, r.b.shape, r.c.shape, r.d.shape) == ((T, n, n), (T, n), (T, n), (T,))
        if T:  # A_0 and A_{T-1} stay the identity
            assert np.array_equal(r.a[0], np.eye(n)) and np.array_equal(r.a[-1], np.eye(n))
        assert np.max(np.abs(io_matrix(r) - m), initial=0.0) < 1e-12

    def test_empty_mixer_verifies_as_minimal(self):
        rep = verify_minimality(realize(np.zeros((0, 0))), np.zeros((0, 0)))
        assert rep.reconstruction_error == 0.0
        assert rep.n == rep.n_min == 0 and rep.is_minimal

    def test_rank_tolerance_keeps_singular_values_the_gate_needs(self):
        # T=64 softmax mixer whose cut 32 has a singular value of 3.9e-9:
        # dropping it (rank_tol 1e-8) left n=31 and an error of 1.4e-9
        mix = build_attention_mixer(random_token_sequence(64, 8, rng=np.random.default_rng([72, 90])))
        rep = verify_minimality(realize(mix), mix)
        assert rep.n == rep.n_min == 32
        assert rep.reconstruction_error < 1e-9

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_mixer_named(self, bad):
        m = np.tril(np.ones((5, 5)))
        m[3, 2] = bad
        with pytest.raises(ValueError, match=r"non-finite entry at \(row, col\) = \(3, 2\)"):
            realize(m)

    @pytest.mark.parametrize("rank_tol", [0.0, 1.0, -1e-8, np.nan])
    def test_bad_rank_tol_rejected(self, rank_tol):
        with pytest.raises(ValueError, match="rank_tol"):
            realize(np.eye(3), rank_tol=rank_tol)


class TestIoMatrix:
    def test_pure_feedthrough_scales_identity(self):
        T, d = 5, 2.5
        r = TimeVaryingRealization(a=np.zeros((T, 0, 0)), b=np.zeros((T, 0)),
                                   c=np.zeros((T, 0)), d=np.full(T, d))
        assert np.array_equal(io_matrix(r), d * np.eye(T))

    def test_scalar_integrator_gives_strictly_lower_ones(self):
        # A=1, B=1, C=1, D=0: cumulative sum of strictly prior inputs.
        # Oracle: unrolled recurrence on basis inputs.
        T = 5
        r = TimeVaryingRealization(a=np.ones((T, 1, 1)), b=np.ones((T, 1)),
                                   c=np.ones((T, 1)), d=np.zeros(T))
        got = io_matrix(r)
        assert np.array_equal(got, np.tril(np.ones((T, T)), k=-1))
        assert np.array_equal(got, unrolled_io_matrix(r))

    def test_linear_attention_form(self):
        # A=I, B=k_t^T, C=q_t, D=0 reproduces q_i . k_j below the diagonal,
        # checked by probing with basis value inputs.
        T, n = 6, 3
        rng = np.random.default_rng(0)
        k, q = rng.standard_normal((T, n)), rng.standard_normal((T, n))
        r = TimeVaryingRealization(a=np.tile(np.eye(n), (T, 1, 1)), b=k.copy(),
                                   c=q.copy(), d=np.zeros(T))
        got = io_matrix(r)
        for i in range(T):
            for j in range(T):
                expected = q[i] @ k[j] if j < i else 0.0
                assert got[i, j] == pytest.approx(expected, abs=1e-12)
        assert np.allclose(got, unrolled_io_matrix(r), atol=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_unrolled_recurrence(self, seed):
        mix = build_attention_mixer(random_token_sequence(10, 4, rng=np.random.default_rng(seed)))
        r = realize(mix)
        assert np.allclose(io_matrix(r), unrolled_io_matrix(r), atol=1e-12)


class TestVerifyMinimality:
    def test_realize_pair_is_minimal(self):
        mix = build_attention_mixer(random_token_sequence(12, 4, rng=np.random.default_rng(5)))
        rep = verify_minimality(realize(mix), mix)
        assert rep.is_minimal
        assert rep.n == rep.n_min
        assert rep.reconstruction_error < 1e-9

    def test_unreachable_padding_breaks_minimality_not_error(self):
        mix = build_attention_mixer(random_token_sequence(8, 3, rng=np.random.default_rng(6)))
        r = realize(mix)
        n, T = r.n, r.T
        # one extra state dimension that is never written (B column 0) and
        # never mixes into the original block (block-diagonal A)
        a = np.zeros((T, n + 1, n + 1))
        a[:, :n, :n] = r.a
        a[:, n, n] = 1.0
        b = np.hstack([r.b, np.zeros((T, 1))])
        c = np.hstack([r.c, np.ones((T, 1))])
        padded = TimeVaryingRealization(a=a, b=b, c=c, d=r.d.copy())
        rep0 = verify_minimality(r, mix)
        rep1 = verify_minimality(padded, mix)
        assert not rep1.is_minimal
        assert rep1.n == rep0.n_min + 1
        assert rep1.reconstruction_error == pytest.approx(rep0.reconstruction_error, abs=1e-15)

    def test_horizon_mismatch_names_both_horizons(self, monkeypatch):
        r = realize(np.eye(4))
        # rejected before the mixer's T - 1 Hankel SVDs are run
        monkeypatch.setattr(realization, "hankel_profile", None)
        with pytest.raises(ValueError, match="horizon 4.*horizon 5"):
            verify_minimality(r, np.eye(5))

    def test_identity_feedthrough_is_minimal(self):
        m = np.eye(4)
        r = realize(m)
        rep = verify_minimality(r, m)
        assert rep.is_minimal and rep.reconstruction_error == 0.0


class TestStructuralProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_semiseparability_of_reconstruction(self, seed):
        # every Hankel block of the reconstructed matrix has rank <= n
        mix = build_attention_mixer(random_token_sequence(14, 5, rng=np.random.default_rng(seed)))
        r = realize(mix)
        recon = io_matrix(r)
        for k in range(1, 14):
            s = np.linalg.svd(hankel_block(recon, k), compute_uv=False)
            rank = int(np.count_nonzero(s > 1e-8 * s[0])) if s.size and s[0] > 0 else 0
            assert rank <= r.n

    def test_short_wide_cuts_pad_with_zero_columns(self):
        # near the right edge T - k < n: complement exhausted, zero columns
        seq = random_token_sequence(12, 6, rng=np.random.default_rng(11), scale=2.0)
        mix = build_attention_mixer(seq)
        r = realize(mix)
        assert r.n > 1
        rep = verify_minimality(r, mix)
        assert rep.reconstruction_error < 1e-9


def generated_mixer(family, T, rank, scale, seed):
    """A lower-triangular test matrix of the named family; entries from
    `seed`, shape parameters from the caller."""
    rng = np.random.default_rng(seed)
    if T == 0:
        return np.zeros((0, 0))
    if family == "low_rank":
        return np.tril(rng.standard_normal((T, rank)) @ rng.standard_normal((T, rank)).T)
    if family == "delay":
        return np.linalg.matrix_power(np.eye(T, k=-1), rank)
    seq = random_token_sequence(T, 4, scale=scale, rng=rng)
    if family == "swa":
        return build_swa_mixer(seq, rank).m
    return build_attention_mixer(seq).m


@pytest.mark.parametrize("family", ["low_rank", "delay", "swa", "softmax"])
@settings(max_examples=30, deadline=None, derandomize=True)  # same inputs every run
@given(T=st.integers(1, 40), rank=st.integers(1, 6), scale=st.floats(0.5, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_realization_of_generated_mixers(family, T, rank, scale, seed):
    m = generated_mixer(family, T, rank, scale, seed)
    r = realize(m)
    rep = verify_minimality(r, m)
    assert rep.reconstruction_error <= 1e-9
    assert rep.n == rep.n_min
    io = io_matrix(r)
    assert np.max(np.abs(io - unrolled_io_matrix(r))) <= 1e-12
    # state coordinates past a cut's rank are never reached: exactly zero
    ranks = [0] + list(hankel_profile(m).ranks)  # ranks[t] is cut t's rank
    for t in range(1, T):
        assert np.all(r.c[t, ranks[t]:] == 0.0)
        assert np.all(r.b[t - 1, ranks[t]:] == 0.0)
    for t in range(1, T - 1):
        outside = np.ones((r.n, r.n), dtype=bool)
        outside[:ranks[t], :ranks[t + 1]] = False
        assert np.all(r.a[t][outside] == 0.0)


@pytest.mark.parametrize("family", ["low_rank", "delay", "swa", "softmax"])
@settings(max_examples=30, deadline=None, derandomize=True)  # same inputs every run
@given(T=st.integers(0, 40), rank=st.integers(1, 8), scale=st.floats(0.5, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_paired_cut_sweep_matches_the_direct_svds(family, T, rank, scale, seed):
    m = generated_mixer(family, T, rank, scale, seed)
    profile = hankel_profile(m)
    # the sweep as realize runs it, values-only SVDs and then paired SVDs with vectors
    sweep = {k: (s, r) for k, s, r, _ in _cut_svds(m, DEFAULT_RANK_TOL, bases=True)}
    assert sorted(sweep) == list(range(1, T))
    for k in range(1, T):
        # oracle: one direct SVD per cut
        s = np.linalg.svd(hankel_block(m, k), compute_uv=False)
        tol = 1e-12 * s[0]
        rank_k = numerical_rank(s)
        assert profile.ranks[k - 1] == sweep[k][1] == rank_k
        for got in (profile.singular_values[k - 1], sweep[k][0]):
            assert numerical_rank(got) == rank_k
            assert np.max(np.abs(got - s)) <= tol


def first_deficient_pair(ranks, T):
    """Smallest k <= T/2 whose cut k or T-k has rank below k, else None;
    ranks[t] is cut t's rank."""
    return next((k for k in range(1, T // 2 + 1) if min(ranks[k], ranks[T - k]) < k), None)


@pytest.mark.parametrize("family", ["low_rank", "delay", "swa", "softmax"])
@settings(max_examples=30, deadline=None, derandomize=True)  # same inputs every run
@given(T=st.integers(0, 40), rank=st.integers(1, 8), scale=st.floats(0.5, 4.0),
       seed=st.integers(0, 2**32 - 1))
def test_realize_cut_bases_are_orthonormal_and_span_each_block(family, T, rank, scale, seed):
    m = generated_mixer(family, T, rank, scale, seed)
    profile = hankel_profile(m)
    ranks = [0] + list(profile.ranks)  # ranks[t] is cut t's rank
    deficient_from = first_deficient_pair(ranks, T)
    for k, _, _, q in _cut_svds(m, DEFAULT_RANK_TOL, bases=True):
        h = hankel_block(m, k)
        s = np.linalg.svd(h, compute_uv=False)  # oracle: one direct SVD per cut
        assert q.shape == (T - k, ranks[k])
        assert np.max(np.abs(q.T @ q - np.eye(ranks[k])), initial=0.0) <= 1e-12
        dropped = s[ranks[k]] if ranks[k] < s.size else 0.0
        assert np.linalg.norm(h - q @ (q.T @ h), 2) <= dropped + 1e-12 * s[0]
        # before the first deficient pair a wide or square cut's basis is I
        if k >= T - k and (deficient_from is None or T - k < deficient_from):
            assert np.array_equal(q, np.eye(T - k))
    r = realize(m)
    assert r.n == profile.n_min
    if deficient_from is None:
        # full rank at every cut: from the middle on, A_t is an exact 0/1 shift
        for t in range((T + 1) // 2, T - 1):
            shift = np.zeros((r.n, r.n))
            shift[:T - t, :T - t - 1] = np.eye(T - t, T - t - 1, k=-1)
            assert np.array_equal(r.a[t], shift)


def recorded_svd_calls(monkeypatch):
    """Patch np.linalg.svd to record (k, compute_uv) per call, k being the
    stacked blocks' column count: the pair's cut k <= T/2."""
    calls = []
    svd = np.linalg.svd

    def recorded(a, *args, **kwargs):
        calls.append((a.shape[-1], kwargs.get("compute_uv", True)))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recorded)
    return calls


def test_full_rank_mixer_takes_no_left_vectors(monkeypatch):
    T = 64
    mix = build_attention_mixer(random_token_sequence(T, 8, rng=np.random.default_rng(64)))
    assert np.all(hankel_profile(mix).ranks == np.minimum(np.arange(1, T), np.arange(T - 1, 0, -1)))
    calls = recorded_svd_calls(monkeypatch)
    r = realize(mix)
    # one values-only call per pair, ceil((T - 1) / 2) in all
    assert calls == [(k, False) for k in range(1, T // 2 + 1)]
    monkeypatch.undo()
    rep = verify_minimality(r, mix)
    assert rep.is_minimal and rep.reconstruction_error < 1e-9


@pytest.mark.parametrize("T, w", [(40, 6), (41, 3)])
def test_swa_mixer_takes_paired_left_vectors_from_its_first_deficient_pair(monkeypatch, T, w):
    mix = build_swa_mixer(random_token_sequence(T, 8, rng=np.random.default_rng(T)), w)
    k0 = first_deficient_pair([0] + list(hankel_profile(mix).ranks), T)
    assert k0 == w  # the window caps every cut's rank at w - 1
    calls = recorded_svd_calls(monkeypatch)
    r = realize(mix)
    # values only up to k0; k0 pays for both calls, every later pair takes vectors only
    assert calls == [(k, False) for k in range(1, k0 + 1)] + [(k, True) for k in range(k0, T // 2 + 1)]
    monkeypatch.undo()
    rep = verify_minimality(r, mix)
    assert rep.is_minimal and rep.reconstruction_error < 1e-9


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        mix = build_attention_mixer(random_token_sequence(6, 3, rng=np.random.default_rng(1)))
        r = realize(mix)
        path = str(tmp_path / "real.json")
        save_realization(path, r)
        back = load_realization(path)
        assert back.n == r.n and back.T == r.T and back.convention == r.convention
        assert np.array_equal(io_matrix(back), io_matrix(r))
