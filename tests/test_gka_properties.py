"""Properties of GKA over generated inputs. The decode step and the GKA
forward build their states by the update H' = gamma H + beta k k^T from a
validated state and skip the spectrum check, so every such state must
re-pass the full public GkaInfoState check; the tiled decode variants equal
the reference with the modelled tile traffic; the blocked Chebyshev forward
replays the per-token solves; and the GKA laws hold: additive fusion of
chunk states equals a single pass without decay, and USP equals a single
device."""

import numpy as np
from hypothesis import given, settings, strategies as st

from hybridssm import seqpar
from hybridssm.composition import gka_compose
from hybridssm.ssm_core import (GateTrack, GkaInfoState, chebyshev_solve, gka_info_update,
                                ssm_forward, zero_info_state)
from hybridssm.tiled_decode import VARIANTS, decode_step, traffic_model

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)  # same inputs every run
SHARES = st.sampled_from([0.0, 0.5, 1.0])
# the Chebyshev forward's blocks end at multiples of kernels.CHUNK = 64
LENGTHS = st.one_of(st.sampled_from([1, 63, 64, 65, 128, 130]), st.integers(1, 200))


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


def scaled_keys(rng, T, d_k, max_key_norm):
    """T keys with norms uniform in [0, max_key_norm]."""
    k = rng.standard_normal((T, d_k))
    return k * rng.uniform(0.0, max_key_norm, (T, 1)) / np.linalg.norm(k, axis=1, keepdims=True)


def summed_terms(w, a, b):
    """sum_t w_t |a_t| |b_t|^T: what every entry of sum_t w_t a_t b_t^T sums."""
    return np.abs(a).T @ (w[:, None] * np.abs(b))


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


@PROPERTY_SETTINGS
@given(T=LENGTHS, d_k=st.integers(1, 8), d_v=st.integers(1, 8), r=st.integers(1, 40),
       fixed_lam=st.booleans(), alpha=st.floats(0.01, 1.0), max_key_norm=st.floats(0.1, 3.0),
       filtered_frac=SHARES, plain_frac=SHARES, seed=st.integers(0, 2**32 - 1))
def test_blocked_chebyshev_forward_replays_the_per_token_solves(T, d_k, d_v, r, fixed_lam,
                                                                 alpha, max_key_norm,
                                                                 filtered_frac, plain_frac,
                                                                 seed):
    # the oracle forms H_t and U_t token by token and solves each token on
    # [lam_t, lam_t + ||H_t||_F]; the forward never forms H_t, so the two
    # agree to rounding: 1e-12 normwise
    rng = np.random.default_rng(seed)
    k = scaled_keys(rng, T, d_k, max_key_norm)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    gamma, beta = gates(rng, T, filtered_frac, plain_frac)
    lam = rng.uniform(0.05, 2.0, T) if fixed_lam else None
    y, _ = ssm_forward("gka", k, v, q, GateTrack(gamma, beta, lam), solver="chebyshev", r=r,
                       alpha=alpha)
    state, ref = zero_info_state(d_v, d_k), np.zeros((T, d_v))
    for t in range(T):
        state = gka_info_update(state, k[t], v[t], gamma[t], beta[t])
        fro = float(np.linalg.norm(state.h))
        lam_t = lam[t] if fixed_lam else alpha * fro
        if lam_t > 0.0:  # else H_t is empty and y_t reads 0
            x, _ = chebyshev_solve(state.h, lam_t, q[t], r, (lam_t, lam_t + fro))
            ref[t] = state.u @ x
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(T=st.integers(1, 200), n_chunks=st.integers(1, 8), d_k=st.integers(1, 6),
       d_v=st.integers(1, 6), solver=st.sampled_from(["exact", "chebyshev"]),
       fixed_lam=st.booleans(), max_key_norm=st.floats(0.1, 3.0), filtered_frac=SHARES,
       seed=st.integers(0, 2**32 - 1))
def test_gka_additive_fusion_equals_a_single_pass(T, n_chunks, d_k, d_v, solver, fixed_lam,
                                                  max_key_norm, filtered_frac, seed):
    # with gamma = 1, H and U are plain sums over the tokens, so summing the
    # chunks' states gives the single pass's state. The two sum the same
    # terms in other orders (and the Chebyshev forward in blocks), so each
    # entry agrees within a rounding bound on its summed |terms|
    rng = np.random.default_rng(seed)
    k = scaled_keys(rng, T, d_k, max_key_norm)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    gamma, beta = gates(rng, T, filtered_frac, plain_frac=1.0)
    lam = np.full(T, 0.5) if fixed_lam else None
    cuts = np.sort(rng.choice(np.arange(1, T), size=min(n_chunks, T) - 1, replace=False))
    bounds = np.r_[0, cuts, T]
    states = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        sub = GateTrack(gamma[lo:hi], beta[lo:hi], None if lam is None else lam[lo:hi])
        states.append(ssm_forward("gka", k[lo:hi], v[lo:hi], q[lo:hi], sub, solver=solver,
                                  r=5)[1])
    fused = gka_compose(states, mode="sum")
    _, single = ssm_forward("gka", k, v, q, GateTrack(gamma, beta, lam), solver=solver, r=5)
    assert np.all(np.abs(fused.h - single.h) <= 1e-12 * summed_terms(beta, k, k))
    assert np.all(np.abs(fused.u - single.u) <= 1e-12 * summed_terms(beta, v, k))


@PROPERTY_SETTINGS
@given(n_ranks=st.integers(1, 4), pattern=st.sampled_from(["simple", "zigzag"]),
       shard_len=st.integers(1, 24), d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       solver=st.sampled_from(["exact", "chebyshev"]), fixed_lam=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_usp_forward_of_gka_equals_a_single_device(n_ranks, pattern, shard_len, d_k, d_v,
                                                   solver, fixed_lam, seed):
    rng = np.random.default_rng(seed)
    T = shard_len * n_ranks * (2 if pattern == "zigzag" else 1)
    k = scaled_keys(rng, T, d_k, 2.0)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    gamma, beta = gates(rng, T, 0.5, 0.5)
    track = GateTrack(gamma, beta, np.full(T, 0.5) if fixed_lam else None)

    def layer(x):
        return ssm_forward("gka", k, x, q, track, solver=solver, r=10)[0]

    y_usp = seqpar.usp_forward(layer, v, seqpar.shard(T, n_ranks, pattern),
                               seqpar.MessageBus(n_ranks))
    assert np.array_equal(y_usp, layer(v))
