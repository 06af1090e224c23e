import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssm import tiled_decode
from hybridssm.kernels import decayed_rank_one
from hybridssm.ssm_core import (GateTrack, GkaInfoState, chebyshev_solve, ssm_forward,
                                zero_info_state)
from hybridssm.tiled_decode import (
    VARIANTS,
    LowerTiles,
    TileCounters,
    decode_step,
    select_variant,
    tiled_matvec,
    tiled_update_and_norm,
    traffic_model,
)

TILE_SIZES = st.sampled_from([1, 2, 4, 8])


def random_spd(d, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((d, d))
    h = scale * (g @ g.T)
    return (h + h.T) / 2.0


class TestLowerTiles:
    def test_roundtrip_is_exact_and_symmetric(self):
        h = random_spd(8, seed=1)
        tiles = LowerTiles.from_dense(h, 4)
        back = tiles.to_dense()
        assert np.array_equal(back, back.T)
        assert np.allclose(back, h, atol=0.0)

    def test_only_lower_tiles_persisted(self):
        h = random_spd(8, seed=2)
        tiles = LowerTiles.from_dense(h, 2)
        for i in range(4):
            for j in range(4):
                tile = tiles.lower[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                if i >= j:
                    assert np.array_equal(tile, h[2 * i:2 * i + 2, 2 * j:2 * j + 2])
                else:
                    assert np.all(tile == 0.0)
        assert tiles.n_lower() == 10

    def test_asymmetric_rejected(self):
        h = np.arange(16, dtype=float).reshape(4, 4)
        with pytest.raises(ValueError, match="symmetric"):
            LowerTiles.from_dense(h, 2)

    def test_bad_tile_size_rejected(self):
        with pytest.raises(ValueError):
            LowerTiles.from_dense(random_spd(6, seed=0), 4)

    @pytest.mark.filterwarnings("error")  # inf - inf must not reach the symmetry test
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected_naming_the_entry(self, bad):
        # NaN > tol is False, so the symmetry test alone lets a NaN through
        h = random_spd(8, seed=16)
        h[5, 2] = h[2, 5] = bad
        with pytest.raises(ValueError, match=r"non-finite entry at \(row, col\) = \(2, 5\)"):
            LowerTiles.from_dense(h, 4)

    @pytest.mark.parametrize("b, match", [
        (0, "tile sizes must be >= 1"),
        (-2, "tile sizes must be >= 1"),
        (-8, "tile sizes must be >= 1"),
        (3, "b_k=3 does not divide d_k=8"),
    ])
    def test_nonpositive_or_indivisible_tile_size_rejected(self, b, match):
        # b = 0 must not divide by zero, nor b < 0 give an empty store that drops H
        with pytest.raises(ValueError, match=match):
            LowerTiles.from_dense(np.eye(8), b)


def lower_tile_mask(d, b):
    """True on the b x b tiles (i, j) with i >= j of a d x d grid."""
    tile = np.arange(d) // b
    return tile[:, None] >= tile[None, :]


GATES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def rank_one_cases(draw):
    d = draw(st.one_of(st.integers(1, 12), st.just(256)))
    b = draw(st.sampled_from([t for t in range(1, d + 1) if d % t == 0]))
    lower = draw(st.booleans())
    n = d if lower else draw(st.sampled_from([1, 5, d]))  # U's writes are (d_v, d_k)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((d, n)) if draw(st.booleans()) else np.zeros((d, n))
    x, y = rng.standard_normal(d), rng.standard_normal(n)
    return a, x, y, draw(GATES), draw(GATES), b, lower


class TestDecayedRankOne:
    @settings(max_examples=150, deadline=None, derandomize=True)  # same inputs every run
    @given(case=rank_one_cases())
    def test_strips_keep_the_bits_of_the_whole_matrix_write(self, case):
        # oracle: the whole-matrix expression the strips replace
        a, x, y, gamma, beta, b, lower = case
        got = decayed_rank_one(a, x, y, gamma, beta, b, lower)
        want = gamma * a + beta * np.outer(x, y)
        if not lower:
            assert np.array_equal(got, want)
            return
        mask = lower_tile_mask(a.shape[0], b)
        assert np.array_equal(got[mask], want[mask])
        assert np.all(got[~mask] == 0.0)

    def test_input_is_not_written(self):
        a = random_spd(8, seed=17)
        before = a.copy()
        decayed_rank_one(a, np.ones(8), np.ones(8), 0.5, 0.5, 4, lower=True)
        assert np.array_equal(a, before)


def outer_formula_step(state, k, v, q, gamma, beta, variant, r, b_k, alpha=0.05):
    """(y, H', U', lam, fro_norm) of one decode step with every write a
    whole-matrix np.outer expression: the oracle for the strip writes."""
    if variant == "reference":
        operand = gamma * state.h + beta * np.outer(k, k)
    else:
        lower = gamma * tiled_decode._zero_upper(state.h.copy(), b_k) + beta * np.outer(k, k)
        operand = LowerTiles(tiled_decode._zero_upper(lower, b_k), b_k).to_dense()
    fro = float(np.linalg.norm(operand))
    lam = alpha * fro
    x = (chebyshev_solve(operand, lam, q, r, (lam, lam + fro))[0] if lam > 0.0
         else np.zeros(k.shape[0]))
    u = gamma * state.u + beta * np.outer(v, k)
    return u @ x, operand, u, lam, fro


class TestTiledUpdateAndNorm:
    def test_no_write_preserves_h_and_returns_its_norm(self):
        h = random_spd(8, seed=3)
        tiles, norm = tiled_update_and_norm(LowerTiles.from_dense(h, 4), np.zeros(8), 1.0, 0.0)
        assert np.allclose(tiles.to_dense(), h, atol=0.0)
        assert norm == pytest.approx(np.linalg.norm(h), rel=1e-14)

    def test_matches_dense_update(self):
        # oracle: dense update + dense Frobenius norm
        d, b = 4, 2
        h = random_spd(d, seed=4)
        k = np.random.default_rng(5).standard_normal(d)
        gamma, beta = 0.9, 0.7
        tiles, norm = tiled_update_and_norm(LowerTiles.from_dense(h, b), k, gamma, beta)
        dense = gamma * h + beta * np.outer(k, k)
        assert np.max(np.abs(tiles.to_dense() - dense)) < 1e-12
        assert norm == pytest.approx(np.linalg.norm(dense), rel=1e-12)

    def test_rank_one_write_from_zero(self):
        k = np.array([0.6, 0.8, 0.0, 0.0])
        tiles, norm = tiled_update_and_norm(
            LowerTiles.from_dense(np.zeros((4, 4)), 2), k, 1.0, 1.0)
        assert norm == pytest.approx(1.0)  # ||k k^T||_F = ||k||^2 = 1
        assert np.allclose(tiles.to_dense(), np.outer(k, k), atol=1e-15)

    def test_counts_lower_tiles_once(self):
        counters = TileCounters()
        tiles = LowerTiles.from_dense(random_spd(8, seed=6), 2)
        tiled_update_and_norm(tiles, np.ones(8), 0.5, 0.5, counters)
        assert counters.loads == tiles.n_lower()
        assert counters.stores == tiles.n_lower()


class TestTiledMatvec:
    def test_identity_tiles(self):
        tiles = LowerTiles.from_dense(np.eye(8), 4)
        x = np.random.default_rng(7).standard_normal(8)
        assert np.allclose(tiled_matvec(tiles, x), x, atol=1e-15)

    def test_matches_dense_product(self):
        h = random_spd(8, seed=8)
        x = np.random.default_rng(9).standard_normal(8)
        got = tiled_matvec(LowerTiles.from_dense(h, 4), x)
        assert np.max(np.abs(got - h @ x)) < 1e-12

    def test_zero_vector(self):
        tiles = LowerTiles.from_dense(random_spd(8, seed=10), 2)
        assert np.array_equal(tiled_matvec(tiles, np.zeros(8)), np.zeros(8))

    def test_length_mismatch_rejected(self):
        tiles = LowerTiles.from_dense(random_spd(8, seed=11), 2)
        with pytest.raises(ValueError):
            tiled_matvec(tiles, np.zeros(6))


class TestDecodeStep:
    def setup_state(self, d_k=8, d_v=8, seed=12):
        rng = np.random.default_rng(seed)
        h = random_spd(d_k, seed=seed)
        u = rng.standard_normal((d_v, d_k))
        return GkaInfoState(h=h, u=u), rng

    @settings(max_examples=40, deadline=None, derandomize=True)  # same inputs every run
    @given(g=st.integers(1, 4), b_k=TILE_SIZES, b_v=TILE_SIZES, gamma=st.floats(0.0, 1.0),
           beta=st.floats(0.0, 1.0), r=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_variants_agree(self, g, b_k, b_v, gamma, beta, r, seed):
        # oracle: the reference variant, on an exactly symmetric H = G G^T
        rng = np.random.default_rng(seed)
        d_k, d_v = g * b_k, g * b_v
        gmat = rng.standard_normal((d_k, d_k))
        state = GkaInfoState(h=gmat @ gmat.T, u=rng.standard_normal((d_v, d_k)))
        k, q = rng.standard_normal((2, d_k))
        v = rng.standard_normal(d_v)
        x = rng.standard_normal(d_k)
        ref = decode_step(state, k, v, q, gamma, beta, "reference", r=r, b_k=b_k, b_v=b_v)
        for variant in VARIANTS:
            got = decode_step(state, k, v, q, gamma, beta, variant, r=r, b_k=b_k, b_v=b_v)
            assert np.max(np.abs(got.y - ref.y)) < 1e-9
            assert got.lam == pytest.approx(ref.lam, rel=1e-12)
            assert np.array_equal(got.state.h, got.state.h.T)
            assert np.array_equal(got.state.h, ref.state.h)
            assert np.array_equal(got.state.u, ref.state.u)
            tiles = LowerTiles.from_dense(got.state.h, b_k)
            assert np.array_equal(tiled_matvec(tiles, x), tiles.to_dense() @ x)
            model = traffic_model(d_k, b_k, variant, r)
            # an empty H (lam = 0) skips the Chebyshev loop's loads
            loads = model.tiles_loaded if got.lam > 0.0 else model.tiles_stored
            assert (got.counters.loads, got.counters.stores) == (loads, model.tiles_stored)

    @settings(max_examples=40, deadline=None, derandomize=True)  # same inputs every run
    @given(g=st.integers(1, 4), b_k=TILE_SIZES, b_v=TILE_SIZES, gamma=GATES, beta=GATES,
           r=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    @example(g=4, b_k=64, b_v=64, gamma=0.9, beta=0.5, r=30, seed=0)
    @example(g=1, b_k=256, b_v=256, gamma=0.9, beta=0.5, r=30, seed=1)
    @example(g=4, b_k=64, b_v=64, gamma=0.0, beta=0.5, r=30, seed=2)
    def test_strip_writes_keep_the_outer_formula_bits(self, g, b_k, b_v, gamma, beta, r, seed):
        # oracle: the same step with whole-matrix np.outer writes
        rng = np.random.default_rng(seed)
        d_k, d_v = g * b_k, g * b_v
        gmat = rng.standard_normal((d_k, d_k))
        state = GkaInfoState(h=gmat @ gmat.T, u=rng.standard_normal((d_v, d_k)))
        k, q = rng.standard_normal((2, d_k))
        v = rng.standard_normal(d_v)
        for variant in VARIANTS:
            got = decode_step(state, k, v, q, gamma, beta, variant, r=r, b_k=b_k, b_v=b_v)
            y, h, u, lam, fro = outer_formula_step(state, k, v, q, gamma, beta, variant, r, b_k)
            assert np.array_equal(got.y, y)
            assert np.array_equal(got.state.h, h)
            assert np.array_equal(got.state.u, u)
            assert (got.lam, got.fro_norm) == (lam, fro)
            model = traffic_model(d_k, b_k, variant, r)
            loads = model.tiles_loaded if lam > 0.0 else model.tiles_stored
            assert (got.counters.loads, got.counters.stores) == (loads, model.tiles_stored)

    @pytest.mark.parametrize("variant, budget", [("reference", 1), ("tiled_small_batch", 2),
                                                 ("tiled_large_batch", 2)])
    def test_step_allocates_at_most_its_budget_of_state_sized_arrays(self, variant, budget):
        # the writes go strip by strip, so besides the H' and U' it returns a
        # step holds at most one (d, d) array at a time (the reference) or
        # two (a tiled step's two tile stores)
        d = 256
        state, rng = self.setup_state(d_k=d, d_v=d, seed=18)
        k, v, q = rng.standard_normal((3, d))
        decode_step(state, k, v, q, 0.9, 0.5, variant, r=30, b_k=64, b_v=64)  # warm-up
        tracemalloc.start()
        try:
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = decode_step(state, k, v, q, 0.9, 0.5, variant, r=30, b_k=64, b_v=64)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept - live >= out.state.h.nbytes + out.state.u.nbytes
        assert peak - kept <= budget * d * d * 8

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @settings(max_examples=150, deadline=None, derandomize=True)  # same inputs every run
    @given(variant=st.sampled_from(VARIANTS), arg=st.sampled_from(["k", "v", "q"]),
           value=st.sampled_from([1e160, 1e-160, 1e300, np.nan, np.inf, -np.inf]),
           h_scale=st.sampled_from([0.0, 1e-3, 1.0, 1e3]), g=st.integers(1, 4),
           b=TILE_SIZES, gamma=GATES, beta=GATES, seed=st.integers(0, 2**32 - 1))
    @example(variant="reference", arg="k", value=1e160, h_scale=1.0, g=2, b=4, gamma=0.9,
             beta=0.5, seed=0)
    @example(variant="tiled_large_batch", arg="q", value=np.nan, h_scale=0.0, g=2, b=4,
             gamma=0.9, beta=0.5, seed=0)
    def test_extreme_vector_gives_finite_output_or_names_the_problem(
            self, variant, arg, value, h_scale, g, b, gamma, beta, seed):
        # k, v or q scaled by value, or one entry set to it if it is NaN or
        # inf: the step returns a finite y, or names the vector (ValueError),
        # the overflowed H' or, only where x ~ q / lam may leave the range,
        # the non-finite Chebyshev iterate (FloatingPointError), and raises
        # nothing else
        rng = np.random.default_rng(seed)
        d = g * b
        gmat = rng.standard_normal((d, d))
        state = GkaInfoState(h=h_scale * (gmat @ gmat.T), u=rng.standard_normal((d, d)))
        vectors = dict(zip("kvq", rng.standard_normal((3, d))))
        if np.isfinite(value):
            vectors[arg] *= value
        else:
            vectors[arg][rng.integers(d)] = value
        try:
            out = decode_step(state, vectors["k"], vectors["v"], vectors["q"], gamma, beta,
                              variant, r=8, b_k=b, b_v=b)
        except ValueError as err:
            assert str(err).startswith(f"{arg} "), err
            return
        except FloatingPointError as err:
            if str(err).startswith("Chebyshev iterate non-finite"):
                k, q = vectors["k"], vectors["q"]
                lam = 0.05 * np.linalg.norm(gamma * state.h + beta * np.outer(k, k))
                assert np.max(np.abs(q)) > 1e290 * lam, err
            else:
                assert "H'" in str(err), err
            return
        assert np.all(np.isfinite(out.y))

    def test_more_iterations_closer_to_exact_solve(self):
        # oracle: dense solve
        state, rng = self.setup_state(seed=40)
        for trial in range(5):
            k, v, q = rng.standard_normal((3, 8))
            out1 = decode_step(state, k, v, q, 0.9, 0.8, "tiled_small_batch", r=1, b_k=4, b_v=4)
            out30 = decode_step(state, k, v, q, 0.9, 0.8, "tiled_small_batch", r=30, b_k=4, b_v=4)
            h_new = 0.9 * state.h + 0.8 * np.outer(k, k)
            u_new = 0.9 * state.u + 0.8 * np.outer(v, k)
            x_exact = np.linalg.solve(h_new + out1.lam * np.eye(8), q)
            y_exact = u_new @ x_exact
            assert np.linalg.norm(out30.y - y_exact) < np.linalg.norm(out1.y - y_exact)

    @pytest.mark.parametrize("variant", ["reference", "tiled_small_batch", "tiled_large_batch"])
    def test_zero_state_no_write_reads_zero(self, variant):
        state = zero_info_state(8, 8)
        out = decode_step(state, np.ones(8), np.ones(8), np.ones(8), 1.0, 0.0,
                          variant, r=5, b_k=4, b_v=4, alpha=0.05)
        assert np.array_equal(out.y, np.zeros(8))
        assert out.lam == 0.0

    def test_symmetry_preserved_over_many_steps(self):
        state, rng = self.setup_state(seed=13)
        for _ in range(10):
            k, v, q = rng.standard_normal((3, 8))
            out = decode_step(state, k, v, q, 0.95, 0.6, "tiled_small_batch",
                              r=3, b_k=2, b_v=4)
            state = out.state
            assert np.array_equal(state.h, state.h.T)

    def test_instrumented_traffic_matches_model(self):
        state, rng = self.setup_state(seed=14)
        k, v, q = rng.standard_normal((3, 8))
        for var, r in (("tiled_small_batch", 7), ("tiled_large_batch", 7), ("reference", 7)):
            out = decode_step(state, k, v, q, 0.9, 0.8, var, r=r, b_k=4, b_v=4)
            model = traffic_model(8, 4, var, r)
            assert out.counters.loads == model.tiles_loaded
            assert out.counters.stores == model.tiles_stored

    def test_a_query_past_1e154_keeps_the_modelled_traffic(self):
        # the residual norms' squares overflow on such a query while every
        # iterate is finite; the solve still runs its r products once
        state, rng = self.setup_state(seed=14)
        k, v, q = rng.standard_normal((3, 8))
        for var in VARIANTS:
            out = decode_step(state, k, v, q * 1e160, 0.9, 0.8, var, r=10, b_k=4, b_v=4)
            model = traffic_model(8, 4, var, 10)
            assert (out.counters.loads, out.counters.stores) == (model.tiles_loaded,
                                                                 model.tiles_stored), var
            assert np.isfinite(out.y).all()

    def test_bad_variant_rejected(self):
        state, rng = self.setup_state()
        with pytest.raises(ValueError):
            decode_step(state, np.ones(8), np.ones(8), np.ones(8), 1.0, 1.0, "fused", r=1)

    @pytest.mark.parametrize("variant", ["reference", "tiled_small_batch", "tiled_large_batch"])
    def test_gates_out_of_range_rejected_by_every_variant(self, variant):
        state, _ = self.setup_state()
        for gamma, beta in ((1.0, 1.5), (1.2, 0.5), (0.9, -0.1)):
            with pytest.raises(ValueError, match="gates"):
                decode_step(state, np.ones(8), np.ones(8), np.ones(8), gamma, beta, variant,
                            r=1, b_k=4, b_v=4)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_rounding_asymmetry_accepted_by_every_variant(self, variant):
        # Q diag(s) Q^T is symmetric only up to rounding (|H - H^T| ~ 1e-16),
        # which the public GkaInfoState check allows
        rng = np.random.default_rng(15)
        q_mat, _ = np.linalg.qr(rng.standard_normal((128, 128)))
        h = q_mat @ np.diag(rng.uniform(0.0, 2.0, 128)) @ q_mat.T
        assert 0.0 < np.max(np.abs(h - h.T)) < 1e-12
        state = GkaInfoState(h=h, u=rng.standard_normal((128, 128)))
        k, v, q = rng.standard_normal((3, 128))
        out = decode_step(state, k, v, q, 0.9, 0.5, variant, r=5)
        ref = decode_step(state, k, v, q, 0.9, 0.5, "reference", r=5)
        assert np.max(np.abs(out.y - ref.y)) < 1e-9

    @pytest.mark.parametrize("arg, bad, match", [
        ("q", np.full(8, np.nan), "q is non-finite"),
        ("k", np.full(8, np.nan), "k is non-finite"),
        ("v", np.full(8, np.inf), "v is non-finite"),
        ("v", np.ones(7), "v must be a vector of length 8"),
        ("k", np.ones((2, 8)), "k must be a vector of length 8"),
    ])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_step_vector_named(self, variant, arg, bad, match):
        state, _ = self.setup_state()
        vectors = {"k": np.ones(8), "v": np.ones(8), "q": np.ones(8), arg: bad}
        with pytest.raises(ValueError, match=match):
            decode_step(state, vectors["k"], vectors["v"], vectors["q"], 0.9, 0.5, variant,
                        r=1, b_k=4, b_v=4)

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_overflowing_key_names_the_updated_state(self, variant, scale):
        # beta k k^T overflows, so ||H'||_F and lam = alpha ||H'||_F are inf;
        # the step names H' before the Chebyshev solve meets the interval
        # [inf, inf] (it used to raise a bare ZeroDivisionError there)
        state, rng = self.setup_state()
        k, v, q = rng.standard_normal((3, 8))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match=re.escape("the updated state H' = gamma H + beta k k^T is "
                                               "non-finite (||H'||_F = inf)")):
                decode_step(state, scale * k, v, q, 0.9, 0.5, variant, r=3, b_k=4, b_v=4)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_key_whose_norm_alone_overflows_reads_a_finite_output(self, variant):
        # k scaled by 1e80: every entry of H' is finite (about 1e160 at
        # most), only the sum of squares behind ||H'||_F overflows; the norm
        # is taken on H' scaled by a power of two and scaled back, and the
        # step returns a finite y (it used to name H' non-finite)
        state, rng = self.setup_state()
        k, v, q = rng.standard_normal((3, 8))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = decode_step(state, 1e80 * k, v, q, 0.9, 0.5, variant, r=3, b_k=4, b_v=4)
        h = out.state.h
        assert np.all(np.isfinite(h)) and np.linalg.norm(h / 1e150) * 1e150 > 1e160
        assert out.fro_norm == pytest.approx(np.linalg.norm(h / 1e150) * 1e150, rel=1e-14)
        assert out.lam == 0.05 * out.fro_norm and np.all(np.isfinite(out.y))

    @pytest.mark.parametrize("alpha", [0.0, -0.1, np.nan, np.inf])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_alpha_rejected_by_every_variant(self, variant, alpha):
        # lam = alpha ||H'||_F would be 0, negative or NaN and y silently 0
        state, rng = self.setup_state()
        k, v, q = rng.standard_normal((3, 8))
        with pytest.raises(ValueError, match=f"alpha must be positive and finite, got {alpha}"):
            decode_step(state, k, v, q, 0.9, 0.5, variant, r=3, b_k=4, b_v=4, alpha=alpha)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_step_tiles_its_state_without_the_public_check(self, variant, monkeypatch):
        # a GkaInfoState's H is already symmetric within SYMMETRY_TOL; the
        # public from_dense keeps its check for outside callers
        def refuse(*args, **kwargs):
            raise AssertionError("decode_step called LowerTiles.from_dense")

        monkeypatch.setattr(LowerTiles, "from_dense", refuse)
        state, rng = self.setup_state()
        k, v, q = rng.standard_normal((3, 8))
        decode_step(state, k, v, q, 0.9, 0.5, variant, r=3, b_k=4, b_v=4)

    @pytest.mark.parametrize("variant", ["tiled_small_batch", "tiled_large_batch"])
    def test_traced_names_see_the_work(self, variant, monkeypatch):
        # --trace 1 reports the tiled decode by these names, so a tiled step
        # must do its update, products and write-back through them
        calls = dict.fromkeys(["tiled_update_and_norm", "tiled_matvec", "to_dense"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def refuse(*args, **kwargs):
            raise AssertionError("decode_step called LowerTiles.from_dense")

        for name in ("tiled_update_and_norm", "tiled_matvec"):
            monkeypatch.setattr(tiled_decode, name, counted(name, getattr(tiled_decode, name)))
        monkeypatch.setattr(LowerTiles, "to_dense", counted("to_dense", LowerTiles.to_dense))
        monkeypatch.setattr(LowerTiles, "from_dense", refuse)
        state, rng = self.setup_state()
        k, v, q = rng.standard_normal((3, 8))
        out = decode_step(state, k, v, q, 0.9, 0.5, variant, r=7, b_k=4, b_v=4)
        assert out.lam > 0.0
        assert calls == {"tiled_update_and_norm": 1, "tiled_matvec": 7, "to_dense": 1}

    @pytest.mark.parametrize("r", [2.5, 2.0, np.float64(7.0)])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_integer_r_rejected_by_every_variant(self, variant, r):
        # int(r) would silently run fewer iterations than asked for
        state, rng = self.setup_state()
        k, v, q = rng.standard_normal((3, 8))
        message = f"r must be an integer number of iterations, got {r!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            decode_step(state, k, v, q, 0.9, 0.5, variant, r=r, b_k=4, b_v=4)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_numpy_integer_r_accepted(self, variant):
        state, rng = self.setup_state()
        k, v, q = rng.standard_normal((3, 8))
        out = decode_step(state, k, v, q, 0.9, 0.5, variant, r=np.int64(7), b_k=4, b_v=4)
        same = decode_step(state, k, v, q, 0.9, 0.5, variant, r=7, b_k=4, b_v=4)
        assert np.array_equal(out.y, same.y)
        assert out.counters == same.counters

    def test_indivisible_tiles_rejected(self):
        state, rng = self.setup_state()
        with pytest.raises(ValueError):
            decode_step(state, np.ones(8), np.ones(8), np.ones(8), 1.0, 1.0,
                        "tiled_small_batch", r=1, b_k=3)

    @pytest.mark.parametrize("b_k, b_v, match", [
        (3, 4, "b_k=3 does not divide d_k=8"),
        (4, 3, "b_v=3 does not divide d_v=8"),
        (0, 4, "tile sizes must be >= 1"),
        (-2, 4, "tile sizes must be >= 1"),
        (4, 0, "tile sizes must be >= 1"),
    ])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_tile_sizes_rejected_by_every_variant(self, variant, b_k, b_v, match):
        state, _ = self.setup_state()
        with pytest.raises(ValueError, match=match):
            decode_step(state, np.ones(8), np.ones(8), np.ones(8), 0.9, 0.5, variant,
                        r=1, b_k=b_k, b_v=b_v)


@pytest.mark.parametrize("T, d", [(1, 3), (5, 4), (63, 4), (64, 8), (130, 16)])
@pytest.mark.parametrize("variant", VARIANTS)
def test_prefill_hands_its_state_to_decode(variant, T, d):
    # ssm_forward("gka") over T tokens, then one decode step on token T + 1,
    # against one forward over T + 1 tokens with the same adaptive lam and
    # Chebyshev r: the forward forms H_t in blocks and the step explicitly,
    # so they agree to rounding (7.1e-15 at worst over 20 seeds)
    for seed in range(4):
        rng = np.random.default_rng(seed)
        k, v, q = rng.standard_normal((3, T + 1, d))
        gamma, beta = rng.uniform(0.5, 1.0, T + 1), rng.uniform(0.0, 1.0, T + 1)
        y_ref, _ = ssm_forward("gka", k, v, q, GateTrack(gamma=gamma, beta=beta),
                               solver="chebyshev", r=30)
        _, state = ssm_forward("gka", k[:T], v[:T], q[:T],
                               GateTrack(gamma=gamma[:T], beta=beta[:T]), solver="chebyshev", r=30)
        out = decode_step(state, k[T], v[T], q[T], gamma[T], beta[T], variant, r=30, b_k=d, b_v=d)
        assert np.max(np.abs(out.y - y_ref[T])) <= 1e-12 * np.max(np.abs(y_ref[T]))


class TestTrafficModel:
    def test_half_grid_skips_quarter(self):
        rep = traffic_model(128, 64, "tiled_small_batch", r=10)
        assert rep.g == 2
        assert rep.skipped_fraction == pytest.approx(0.25)

    def test_quarter_grid_skips_three_eighths(self):
        # oracle: count lower vs total tiles, 6 of 16
        rep = traffic_model(128, 32, "tiled_large_batch", r=10)
        assert rep.g == 4
        assert rep.skipped_fraction == pytest.approx(6 / 16)

    def test_skipped_fraction_approaches_half(self):
        fracs = [traffic_model(2 ** p, 1, "tiled_small_batch", r=1).skipped_fraction
                 for p in range(1, 10)]
        assert all(a < b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] > 0.49

    def test_reload_variant_linear_in_r_resident_constant(self):
        loads_resident = [traffic_model(64, 16, "tiled_small_batch", r).tiles_loaded
                          for r in (1, 10, 100)]
        loads_reload = [traffic_model(64, 16, "tiled_large_batch", r).tiles_loaded
                        for r in (1, 10, 100)]
        assert len(set(loads_resident)) == 1
        n_low = 4 * 5 // 2
        assert loads_reload == [n_low * (1 + r) for r in (1, 10, 100)]

    @pytest.mark.parametrize("b_k, match", [
        (3, "b_k=3 does not divide d_k=8"),
        (0, "tile sizes must be >= 1"),
        (-2, "tile sizes must be >= 1"),
    ])
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_bad_tile_size_rejected_for_every_variant(self, variant, b_k, match):
        with pytest.raises(ValueError, match=match):
            traffic_model(8, b_k, variant, r=1)

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_non_integer_r_rejected_for_every_variant(self, variant):
        # it used to report tiles_loaded = 10.5 for the large-batch variant
        with pytest.raises(ValueError, match="r must be an integer number of iterations, got 2.5"):
            traffic_model(128, 64, variant, 2.5)
        assert traffic_model(128, 64, variant, np.int32(2)) == traffic_model(128, 64, variant, 2)

    def test_reference_counts_full_grid(self):
        rep = traffic_model(64, 16, "reference", r=5)
        assert rep.tiles_loaded == (1 + 5) * 16
        assert rep.skipped_fraction == 0.0

    def test_variant_dispatch_threshold_is_a_parameter(self):
        assert select_variant(8, crossover=128) == "tiled_small_batch"
        assert select_variant(512, crossover=128) == "tiled_large_batch"
        assert select_variant(512, crossover=1024) == "tiled_small_batch"
        with pytest.raises(ValueError):
            select_variant(0)
