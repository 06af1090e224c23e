"""Properties of the GKA states the library derives itself. The decode step
and the GKA forward build their states by the update H' = gamma H + beta k k^T
from a validated state and skip the spectrum check, so every such state must
re-pass the full public GkaInfoState check; and the tiled decode variants
equal the reference with the modelled tile traffic."""

import numpy as np
from hypothesis import given, settings, strategies as st

from hybridssm.ssm_core import (GateTrack, GkaInfoState, gka_info_update, ssm_forward,
                                zero_info_state)
from hybridssm.tiled_decode import VARIANTS, decode_step, traffic_model

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)  # same inputs every run
SHARES = st.sampled_from([0.0, 0.5, 1.0])


def gates(rng, T, filtered_frac, plain_frac):
    """Decays in [0.5, 1] and write gates in [0, 1], with a share of rows at
    beta = 0 (filtered tokens) and a share at gamma = 1 (no decay)."""
    gamma = rng.uniform(0.5, 1.0, T)
    gamma[rng.uniform(size=T) < plain_frac] = 1.0
    beta = rng.uniform(0.0, 1.0, T)
    beta[rng.uniform(size=T) < filtered_frac] = 0.0
    return gamma, beta


def validated_state(rng, d_k, d_v, zero_frac):
    """A publicly built state with H = Q diag(s) Q^T, symmetric only up to
    rounding, and a share of zero eigenvalues (zero_frac = 1 gives H = 0)."""
    q_mat, _ = np.linalg.qr(rng.standard_normal((d_k, d_k)))
    s = rng.uniform(0.0, 4.0, d_k)
    s[rng.uniform(size=d_k) < zero_frac] = 0.0
    return GkaInfoState(h=q_mat @ np.diag(s) @ q_mat.T, u=rng.standard_normal((d_v, d_k)))


def max_abs(a, b):
    return float(np.max(np.abs(a - b), initial=0.0))


@PROPERTY_SETTINGS
@given(b_k=st.sampled_from([1, 2, 4]), n_k=st.integers(1, 4),
       b_v=st.sampled_from([1, 2, 3]), n_v=st.integers(1, 3),
       r=st.integers(1, 40), steps=st.integers(1, 5), zero_frac=SHARES,
       filtered_frac=SHARES, plain_frac=SHARES, seed=st.integers(0, 2**32 - 1))
def test_tiled_decode_chains_equal_the_reference(b_k, n_k, b_v, n_v, r, steps, zero_frac,
                                                 filtered_frac, plain_frac, seed):
    rng = np.random.default_rng(seed)
    d_k, d_v = b_k * n_k, b_v * n_v
    states = dict.fromkeys(VARIANTS, validated_state(rng, d_k, d_v, zero_frac))
    gamma, beta = gates(rng, steps, filtered_frac, plain_frac)
    for t in range(steps):
        k, q = rng.standard_normal((2, d_k))
        v = rng.standard_normal(d_v)
        out = {variant: decode_step(state, k, v, q, gamma[t], beta[t], variant, r=r,
                                    b_k=b_k, b_v=b_v)
               for variant, state in states.items()}
        ref = out["reference"]
        for variant, got in out.items():
            assert max_abs(got.y, ref.y) < 1e-9
            assert max_abs(got.state.h, ref.state.h) < 1e-9
            assert max_abs(got.state.u, ref.state.u) < 1e-9
            model = traffic_model(d_k, b_k, variant, r)
            # an empty H (lam = 0) skips the Chebyshev loop's loads
            loads = model.tiles_loaded if got.lam > 0.0 else model.tiles_stored
            assert (got.counters.loads, got.counters.stores) == (loads, model.tiles_stored)
            GkaInfoState(h=got.state.h, u=got.state.u)  # the full public check
            states[variant] = got.state


@PROPERTY_SETTINGS
@given(T=st.integers(1, 80), d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       solver=st.sampled_from(["exact", "chebyshev"]), fixed_lam=st.booleans(),
       max_key_norm=st.floats(0.1, 3.0), filtered_frac=SHARES, plain_frac=SHARES,
       seed=st.integers(0, 2**32 - 1))
def test_gka_forward_state_passes_the_public_check(T, d_k, d_v, solver, fixed_lam,
                                                   max_key_norm, filtered_frac, plain_frac,
                                                   seed):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((T, d_k))
    k *= rng.uniform(0.0, max_key_norm, (T, 1)) / np.linalg.norm(k, axis=1, keepdims=True)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    gamma, beta = gates(rng, T, filtered_frac, plain_frac)
    lam = np.full(T, 0.5) if fixed_lam else None
    _, state = ssm_forward("gka", k, v, q, GateTrack(gamma, beta, lam), solver=solver, r=10)
    GkaInfoState(h=state.h, u=state.u)  # the full public check
    assert np.array_equal(state.h, state.h.T)
    oracle = zero_info_state(d_v, d_k)
    for t in range(T):
        oracle = gka_info_update(oracle, k[t], v[t], gamma[t], beta[t])
    assert max_abs(state.h, oracle.h) <= 1e-12 * max(1.0, float(np.max(np.abs(oracle.h))))
    assert max_abs(state.u, oracle.u) <= 1e-12 * max(1.0, float(np.max(np.abs(oracle.u))))
