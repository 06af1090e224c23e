import numpy as np
import pytest

from hybridssm import autodiff as ad
from hybridssm import kernels
from hybridssm.stack import ToyHybridStack, parse_mixer, rmsnorm


class TestAutodiffOps:
    def test_dual_arithmetic_matches_limits(self):
        # d/dx of x^2 sin-free chain through the supported ops
        x0 = np.array([1.5, -0.5])
        f = lambda x: ((x * x).sum() + (2.0 * x).sum()) / 3.0
        for i in range(2):
            e = np.zeros(2)
            e[i] = 1.0
            got = ad.derivative(f, x0, e)
            assert got == pytest.approx((2 * x0[i] + 2.0) / 3.0, rel=1e-12)

    def test_matmul_rule(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        x0 = rng.standard_normal(3)
        direction = rng.standard_normal(3)
        f = lambda x: (a @ x @ x).sum() if False else ((a @ x) * x).sum()
        got = ad.derivative(f, x0, direction)
        expected = ((a + a.T) @ x0) @ direction
        assert got == pytest.approx(expected, rel=1e-12)

    def test_solve_rule_against_finite_differences(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        b0 = rng.standard_normal(3)
        direction = rng.standard_normal(3)
        f = lambda b: np.linalg.solve(a, b).sum()
        got = ad.derivative(f, b0, direction)
        h = 1e-6
        fd = (np.linalg.solve(a, b0 + h * direction).sum()
              - np.linalg.solve(a, b0 - h * direction).sum()) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-6)


class TestToyHybridStack:
    def test_parse_mixer_forms(self):
        assert parse_mixer("attn") == ("attn", None)
        assert parse_mixer("swa:4") == ("swa", 4)
        assert parse_mixer(("gdn",)) == ("gdn", None)

    def test_unknown_mixer_rejected(self):
        with pytest.raises(ValueError):
            ToyHybridStack(("attn", "lstm"))

    def test_forward_shapes_and_determinism(self):
        stack = ToyHybridStack(("attn", "mamba2", "gka"), d_model=8, d_k=4, seed=1)
        x = np.random.default_rng(2).standard_normal((5, 8))
        t1, t2 = stack.forward(x), stack.forward(x)
        assert len(t1.hidden) == 4
        assert t1.final.shape == (5, 8)
        assert np.array_equal(t1.final, t2.final)

    def test_swap_layer_changes_only_that_mixer(self):
        stack = ToyHybridStack(("attn", "attn"), d_model=8, d_k=4, seed=3)
        swapped = stack.swap_layer(1, "swa:2")
        assert stack.mixers[1] == ("attn", None)
        assert swapped.mixers[1] == ("swa", 2)
        x = np.random.default_rng(4).standard_normal((6, 8))
        out_full = stack.forward(x).final
        out_swa = swapped.forward(x).final
        assert not np.array_equal(out_full, out_swa)
        # window covering the whole horizon is a no-op swap
        assert np.array_equal(stack.swap_layer(1, "swa:6").forward(x).final, out_full)

    def test_swap_layer_to_ssm_makes_an_independent_gated_layer(self):
        stack = ToyHybridStack(("attn", "attn"), d_model=8, d_k=4, seed=3)
        x = np.random.default_rng(4).standard_normal((6, 8))
        for kind in ("mamba2", "gdn", "gka"):
            hybrid = stack.swap_layer(1, kind)
            assert hybrid.ssm_param_names() == ["1.beta_b", "1.beta_w", "1.gamma_b", "1.gamma_w"]
            assert np.all(np.isfinite(hybrid.forward(x).final))
            hybrid.params["1.gamma_b"] = np.array(2.0)
            hybrid.weights["1.wq"] = np.zeros((4, 8))
            hybrid.fixed_gates[1] = (1.0, 1.0)
            assert stack.params == {} and stack.fixed_gates == {}
            assert np.any(stack.weights["1.wq"] != 0.0)
            # and back: an attention slot has no gate parameters
            assert hybrid.swap_layer(1, "swa:3").ssm_param_names() == []
            assert "1.gamma_b" in hybrid.params
        ssm = ToyHybridStack(("gdn",), d_model=8, d_k=4, seed=3)
        assert ssm.swap_layer(0, "gka").params.keys() == ssm.params.keys()
        with pytest.raises(ValueError, match="unknown mixer kind"):
            ssm.swap_layer(0, "lstm")

    def test_bad_input_rejected_at_entry(self):
        for lam in (0.0, -0.5, np.nan):
            with pytest.raises(ValueError, match="gka_lam must be > 0"):
                ToyHybridStack(("gka",), gka_lam=lam)
        x = np.random.default_rng(4).standard_normal((6, 8))
        x[3, 2] = np.nan
        for mixers in (("attn",), ("gdn", "attn")):
            with pytest.raises(ValueError, match="x is non-finite at row 3"):
                ToyHybridStack(mixers, d_model=8, d_k=4).forward(x)

    def test_final_norm_hook(self):
        x = np.random.default_rng(5).standard_normal((4, 8))
        normed = ToyHybridStack(("attn",), d_model=8, d_k=4, seed=6, final_norm="rms")
        raw = ToyHybridStack(("attn",), d_model=8, d_k=4, seed=6, final_norm="none")
        assert np.array_equal(raw.forward(x).final, raw.forward(x).hidden[-1])
        got = normed.forward(x).final
        assert np.allclose(got, rmsnorm(raw.forward(x).final), atol=1e-14)

    def test_fixed_gate_override(self):
        stack = ToyHybridStack(("mamba2",), d_model=8, d_k=4, seed=7,
                               fixed_gates={0: (1.0, 1.0)})
        x = np.random.default_rng(8).standard_normal((4, 8))
        trace = stack.forward(x, collect_caches=True)
        assert trace.caches[0].decay_prod == 1.0

    def test_gka_layer_dual_gradients_flow(self):
        # the solve path must propagate tangents (implicit differentiation)
        stack = ToyHybridStack(("gka",), d_model=6, d_k=3, seed=9)
        x = np.random.default_rng(10).standard_normal((4, 6))

        def f(p):
            trace = stack.forward(x, params={"0.beta_w": p})
            out = trace.final
            return (out * out).sum()

        p0 = stack.params["0.beta_w"]
        direction = np.ones_like(p0)
        got = ad.derivative(f, p0, direction)
        # the gradient here is ~1e-6 while the loss is O(1), so the central
        # difference is roundoff-limited below h ~ 1e-4
        h = 1e-4
        fd = (float(ad.value(f(p0 + h * direction))) -
              float(ad.value(f(p0 - h * direction)))) / (2 * h)
        assert got == pytest.approx(fd, rel=1e-3)

        # every gate parameter of GKA-, GDN- and Mamba-2-first stacks at
        # T = 70, which crosses a chunk boundary of the chunkwise scans
        T = 70
        assert T > kernels.CHUNK
        rng = np.random.default_rng(11)
        x = rng.standard_normal((T, 6))
        w = rng.standard_normal((T, 6))
        for first in ("gka", "gdn", "mamba2"):
            stack = ToyHybridStack((first, "attn"), d_model=6, d_k=3, seed=9)
            for name in stack.ssm_param_names():
                def f(p, _name=name):
                    return (w * stack.forward(x, params={_name: p}).final).sum()

                p0 = stack.params[name]
                direction = rng.standard_normal(p0.shape)
                got = ad.derivative(f, p0, direction)
                if first == "mamba2" and name.startswith("0.beta"):
                    assert got == 0.0  # Mamba-2 has no write gate
                    continue
                h = 1e-5
                fd = (f(p0 + h * direction) - f(p0 - h * direction)) / (2 * h)
                assert got == pytest.approx(fd, rel=1e-5), (first, name)
