import numpy as np
import pytest

from hybridssm.ssm_core import GkaInfoState, zero_info_state
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
        tiles = LowerTiles.from_dense(random_spd(8, seed=2), 2)
        assert set(tiles.tiles) == {(i, j) for i in range(4) for j in range(i + 1)}
        assert tiles.n_lower() == 10

    def test_asymmetric_rejected(self):
        h = np.arange(16, dtype=float).reshape(4, 4)
        with pytest.raises(ValueError, match="symmetric"):
            LowerTiles.from_dense(h, 2)

    def test_bad_tile_size_rejected(self):
        with pytest.raises(ValueError):
            LowerTiles.from_dense(random_spd(6, seed=0), 4)


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

    @pytest.mark.parametrize("trial", range(20))
    def test_variants_agree(self, trial):
        # oracle: the reference variant
        state, rng = self.setup_state(seed=trial)
        k, v, q = rng.standard_normal((3, 8))
        gamma, beta = rng.uniform(0.7, 1.0), rng.uniform(0.3, 1.0)
        results = {var: decode_step(state, k, v, q, gamma, beta, variant=var,
                                    r=10, b_k=4, b_v=4)
                   for var in ("reference", "tiled_small_batch", "tiled_large_batch")}
        ref = results["reference"]
        for var in ("tiled_small_batch", "tiled_large_batch"):
            got = results[var]
            assert np.max(np.abs(got.y - ref.y)) < 1e-9
            assert np.max(np.abs(got.state.h - ref.state.h)) < 1e-9
            assert np.max(np.abs(got.state.u - ref.state.u)) < 1e-9
            assert got.lam == pytest.approx(ref.lam, rel=1e-12)

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
