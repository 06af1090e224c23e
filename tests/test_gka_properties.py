"""Properties of GKA over generated inputs. The decode step and the GKA
forward build their states by the update H' = gamma H + beta k k^T from a
validated state and skip the spectrum check, so every such state must
re-pass the full public GkaInfoState check; the tiled decode variants equal
the reference with the modelled tile traffic; the blocked forward replays
the per-token solves of either solver, with Woodbury's blocks and the
dense ones at gamma = 1 and one lam; the recurrence-form scan's outputs,
read after its loop, replay its per-token Sherman-Morrison recurrence; the
GKA laws hold: additive fusion of chunk states equals a single pass
without decay, and USP equals a single device; and a chunk record's
Mamba-2 or GKA state, a decayed key sum, equals the end state of a forward
over the chunk; and a forward with one extreme or non-finite row of k, v or
q returns finite output or raises ValueError or FloatingPointError, never a
bare LinAlgError."""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from hybridssm import kernels, seqpar
from hybridssm.composition import gka_compose, run_chunk
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
@given(T=LENGTHS, d_k=st.integers(1, 8), d_v=st.integers(1, 8),
       solver=st.sampled_from(["exact", "chebyshev"]), r=st.integers(1, 40),
       fixed_lam=st.booleans(), alpha=st.floats(0.01, 1.0), max_key_norm=st.floats(0.1, 3.0),
       filtered_frac=SHARES, plain_frac=SHARES, seed=st.integers(0, 2**32 - 1))
# prefill_gka's Chebyshev forward: decaying, the adaptive lam, r = 30, keys
# of norm up to 8 (standard normal at d = 64), every row on [alpha, 1 + alpha]
@example(T=128, d_k=64, d_v=64, solver="chebyshev", r=30, fixed_lam=False, alpha=0.05,
         max_key_norm=8.0, filtered_frac=0.0, plain_frac=0.0, seed=0)
def test_blocked_gka_forward_replays_the_per_token_solves(T, d_k, d_v, solver, r, fixed_lam,
                                                          alpha, max_key_norm, filtered_frac,
                                                          plain_frac, seed):
    # the oracle forms H_t and U_t token by token and solves each token
    # densely or on [lam_t, lam_t + ||H_t||_F]; the forward forms H_t from
    # its block's entry state (dense) or not at all (Chebyshev) and never
    # forms U_t, so the two agree to rounding: 1e-12 normwise
    rng = np.random.default_rng(seed)
    k = scaled_keys(rng, T, d_k, max_key_norm)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    gamma, beta = gates(rng, T, filtered_frac, plain_frac)
    lam = rng.uniform(0.05, 2.0, T) if fixed_lam else None
    y, _ = ssm_forward("gka", k, v, q, GateTrack(gamma, beta, lam), solver=solver, r=r,
                       alpha=alpha)
    state, ref = zero_info_state(d_v, d_k), np.zeros((T, d_v))
    for t in range(T):
        state = gka_info_update(state, k[t], v[t], gamma[t], beta[t])
        fro = float(np.linalg.norm(state.h))
        lam_t = lam[t] if fixed_lam else alpha * fro
        if lam_t <= 0.0:
            continue  # H_t is empty and y_t reads 0
        if solver == "exact":
            x = np.linalg.solve(state.h + lam_t * np.eye(d_k), q[t])
        else:
            x, _ = chebyshev_solve(state.h, lam_t, q[t], r, (lam_t, lam_t + fro))
        ref[t] = state.u @ x
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(T=st.one_of(st.sampled_from([16, 63, 64, 65, 128, 130]), st.integers(16, 200)),
       d_k=st.integers(1, 64), d_v=st.integers(1, 8),
       log_key_norm=st.floats(-1.0, 2.0), log_ratio=st.floats(0.0, 4.0),
       filtered_frac=SHARES, seed=st.integers(0, 2**32 - 1))
# Woodbury without its refinement step misses this one by 2.2e-12
@example(T=64, d_k=1, d_v=2, log_key_norm=0.0, log_ratio=3.0, filtered_frac=0.0, seed=36)
# the prefill_gka benchmark's block shape with the largest capacitance
# matrix the guard lets Woodbury take in both blocks (lambda_max(C) ~ 2e3);
# at log_ratio = 4 the guard sends both blocks of this shape to the dense solve
@example(T=128, d_k=64, d_v=3, log_key_norm=0.0, log_ratio=3.4, filtered_frac=0.5, seed=3)
# T = 4 CHUNK + 1: five Woodbury blocks, the last four each taking A^-1
# from the block before, so the last one's is four updates from I / lam
@example(T=4 * kernels.CHUNK + 1, d_k=64, d_v=3, log_key_norm=0.0, log_ratio=2.5,
         filtered_frac=0.0, seed=5)
def test_fixed_lam_exact_gka_forward_replays_the_per_token_solves(T, d_k, d_v, log_key_norm,
                                                                  log_ratio, filtered_frac,
                                                                  seed):
    # gamma = 1 and one lam: the blocks Woodbury solves and those its guard
    # sends to the dense solve, against the same replay at the same 1e-12.
    # The replay is itself a float64 solve, so the draws stay where its
    # rounding is below that: max ||k||^2 / lam <= 1e4 (at 1e5 the dense
    # path and the replay differ by up to 6.5e-12) and T >= 16 (at T = 1,
    # d_k = 46, a key nearly orthogonal to its query leaves a tiny output
    # that the replay and the forward both miss by over 1e-12 relative)
    rng = np.random.default_rng(seed)
    max_key_norm = 10.0 ** log_key_norm  # 0.1 to 100
    lam = max_key_norm ** 2 / 10.0 ** log_ratio  # 1e-6 to 1e4
    k = scaled_keys(rng, T, d_k, max_key_norm)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    _, beta = gates(rng, T, filtered_frac, plain_frac=1.0)
    y, _ = ssm_forward("gka", k, v, q, GateTrack(np.ones(T), beta, np.full(T, lam)))
    state, ref = zero_info_state(d_v, d_k), np.zeros((T, d_v))
    for t in range(T):
        state = gka_info_update(state, k[t], v[t], 1.0, beta[t])
        ref[t] = state.u @ np.linalg.solve(state.h + lam * np.eye(d_k), q[t])
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(T=st.one_of(st.sampled_from([1, 63, 64, 65, 130]), st.integers(1, 200)),
       d_k=st.integers(1, 64), d_v=st.integers(1, 8), log_key_norm=st.floats(-1.0, 1.5),
       log_lam=st.floats(-1.0, 0.5), filtered_frac=SHARES, seed=st.integers(0, 2**32 - 1))
def test_recurrent_scan_replays_its_per_token_recurrence(T, d_k, d_v, log_key_norm, log_lam,
                                                         filtered_frac, seed):
    # the scan stores innovations and gains, folds S once per block and reads
    # every output after its loop as tril(Q G^T) E; the replay updates S and
    # reads y_t = S_t q_t token by token from the same Sherman-Morrison
    # recurrence. S and y agree to rounding, Phi bit for bit; Phi must be the
    # dense inverse and each gain beta Phi' k, the gain of the downdated Phi
    rng = np.random.default_rng(seed)
    lam = 10.0 ** log_lam
    k = scaled_keys(rng, T, d_k, 10.0 ** log_key_norm)
    v, q = rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k))
    _, beta = gates(rng, T, filtered_frac, plain_frac=1.0)
    y, s, phi = kernels.gka_recurrent_scan(k, v, q, beta, lam)
    phi_t, s_t, ref = np.eye(d_k) / lam, np.zeros((d_v, d_k)), np.zeros((T, d_v))
    for t in range(T):
        pk = phi_t @ k[t]
        phi_t, g = kernels.sherman_morrison_downdate(phi_t, k[t], beta[t])
        assert np.linalg.norm(g - beta[t] * (phi_t @ k[t])) <= 1e-13 * beta[t] * np.linalg.norm(pk)
        s_t += np.outer(v[t] - s_t @ k[t], g)
        ref[t] = s_t @ q[t]
    assert np.linalg.norm(y - ref) <= 1e-12 * np.linalg.norm(ref)
    assert np.linalg.norm(s - s_t) <= 1e-12 * np.linalg.norm(s_t)
    assert np.array_equal(phi, phi_t)
    dense = np.linalg.inv(k.T @ (beta[:, None] * k) + lam * np.eye(d_k))
    assert np.linalg.norm(phi - dense) <= 1e-10 * np.linalg.norm(dense)


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


@PROPERTY_SETTINGS
@given(kind=st.sampled_from(["mamba2", "gka"]), T=LENGTHS, d_k=st.integers(1, 6),
       d_v=st.integers(1, 6), solver=st.sampled_from(["exact", "chebyshev"]),
       fixed_lam=st.booleans(), max_key_norm=st.floats(0.1, 3.0), filtered_frac=SHARES,
       plain_frac=SHARES, seed=st.integers(0, 2**32 - 1))
def test_chunk_state_equals_the_forward_end_state(kind, T, d_k, d_v, solver, fixed_lam,
                                                  max_key_norm, filtered_frac, plain_frac,
                                                  seed):
    # run_chunk sums the chunk's writes decayed to its end; the forward
    # accumulates them token by token (Mamba-2 in SSD blocks). Both sum the
    # same terms in other orders, so each entry agrees within 1e-12 of its
    # summed |terms| (2.8e-15 at worst over 400 generated chunks)
    rng = np.random.default_rng(seed)
    k = scaled_keys(rng, T, d_k, max_key_norm)
    v = rng.standard_normal((T, d_v))
    gamma, beta = gates(rng, T, filtered_frac, plain_frac)
    track = GateTrack(gamma, beta, np.full(T, 0.5) if fixed_lam else None)
    record = run_chunk(kind, k, v, track)
    _, end = ssm_forward(kind, k, v, np.zeros((T, d_k)), track, solver=solver, r=5)
    w = np.array([np.prod(gamma[t + 1:]) for t in range(T)])
    assert record.a_acc == np.prod(gamma)
    if kind == "mamba2":
        assert np.all(np.abs(record.state - end) <= 1e-12 * summed_terms(w, v, k))
        return
    assert np.array_equal(record.state.h, record.state.h.T)
    assert np.all(np.abs(record.state.h - end.h) <= 1e-12 * summed_terms(w * beta, k, k))
    assert np.all(np.abs(record.state.u - end.u) <= 1e-12 * summed_terms(w * beta, v, k))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(T=st.integers(1, 140), d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       arg=st.sampled_from(["k", "v", "q"]),
       value=st.sampled_from([1e100, 1e-100, 1e140, 1e160, np.nan, np.inf, -np.inf]),
       solver=st.sampled_from(["exact", "chebyshev"]), fixed_lam=st.booleans(),
       decay=st.booleans(), seed=st.integers(0, 2**32 - 1))
@example(T=20, d_k=4, d_v=4, arg="k", value=1e100, solver="exact", fixed_lam=True,
         decay=False, seed=0)
@example(T=20, d_k=4, d_v=4, arg="k", value=1e140, solver="exact", fixed_lam=True,
         decay=True, seed=0)
# seed 1 puts the extreme row at row 0, so ||H_0||_F is about 1e-310
# (subnormal) or 1e154 (its terms' squares near overflow) and the Chebyshev
# forward leaves row 0 unscaled (kernels.SCALED_FRO), under either lam
@example(T=20, d_k=4, d_v=4, arg="k", value=1e-155, solver="chebyshev", fixed_lam=False,
         decay=False, seed=1)
@example(T=20, d_k=4, d_v=4, arg="k", value=1e-155, solver="chebyshev", fixed_lam=True,
         decay=False, seed=1)
@example(T=20, d_k=4, d_v=4, arg="k", value=1e77, solver="chebyshev", fixed_lam=False,
         decay=False, seed=1)
@example(T=20, d_k=4, d_v=4, arg="k", value=1e77, solver="chebyshev", fixed_lam=True,
         decay=True, seed=1)
def test_gka_forward_on_an_extreme_row_is_finite_or_names_the_problem(T, d_k, d_v, arg, value,
                                                                      solver, fixed_lam, decay,
                                                                      seed):
    # one row of k, v or q scaled by value, or set to it if it is NaN or
    # inf: the forward returns finite output or raises ValueError or
    # FloatingPointError, never LinAlgError (a ValueError subclass) from a
    # dense system that rounding made singular
    rng = np.random.default_rng(seed)
    inputs = {"k": rng.standard_normal((T, d_k)), "v": rng.standard_normal((T, d_v)),
              "q": rng.standard_normal((T, d_k))}
    row = rng.integers(T)
    if np.isfinite(value):
        inputs[arg][row] *= value
    else:
        inputs[arg][row] = value
    gamma = rng.uniform(0.5, 1.0, T) if decay else np.ones(T)
    track = GateTrack(gamma, rng.uniform(0.0, 1.0, T), np.full(T, 0.5) if fixed_lam else None)
    with np.errstate(all="ignore"):
        try:
            y, _ = ssm_forward("gka", **inputs, gates=track, solver=solver, r=8)
        except (ValueError, FloatingPointError) as err:
            assert not isinstance(err, np.linalg.LinAlgError), err
            return
    assert np.all(np.isfinite(y))
