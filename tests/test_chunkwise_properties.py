"""Properties of the chunkwise Mamba-2 and GDN scans over generated inputs:
they replay the per-step oracle ``ssm_step`` (``tests/oracles.py``), GDN's
blocked UT solve replays row-by-row forward substitution, a GDN chunk
record equals the end state and transition of the padded forward
(``tests/oracles.py``), the P2P and CASO paths built on them reproduce the
single-device forward (P2P bit for bit on plans of whole blocks), and
P2P's batched chunks equal one ``ssm_forward`` per chunk from the
handed-on state bit for bit; the carry applies Mamba-2's scalar block
decays with the bits of the dense G_L I; P2P, ``ssm_forward`` and
``usp_forward`` on one extreme row return finite output or name the row
(ValueError, NonFiniteOutput); PICASO-R over
Mamba-2, GDN and GKA chunk records does not depend on where the cycle
starts; the SSD decay matrix is exponentiated only on and below its
diagonal, and equals exp(cs_t - cs_i) there bit for bit."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssm.composition import caso_compose, picaso_r, run_chunk, state_deviation
from hybridssm.kernels import CHUNK, _carry, _ssd_terms, _transposed, _ut_solve, chunk_terms
from hybridssm.seqpar import MessageBus, p2p_forward, shard, usp_forward
from hybridssm.ssm_core import GateTrack, NonFiniteOutput, SsmKind, ssm_forward
from oracles import padded_forward, ssm_step

LINEAR_KINDS = st.sampled_from([SsmKind.MAMBA2, SsmKind.GDN])
PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True)  # same inputs every run


def layer_inputs(rng, T, d_k, d_v, max_key_norm, unit_keys, gamma_floor, filtered_frac):
    """Keys with norms in (0, max_key_norm] (or exactly 1), decays down to
    gamma_floor, and a share of rows with beta = 0 (filtered tokens)."""
    k = rng.standard_normal((T, d_k))
    norms = 1.0 if unit_keys else rng.uniform(0.0, max_key_norm, (T, 1))
    k *= norms / np.maximum(np.linalg.norm(k, axis=1, keepdims=True), 1e-300)
    gamma = np.exp(rng.uniform(np.log(gamma_floor), 0.0, T))
    beta = rng.uniform(0.0, 1.0, T)
    beta[rng.uniform(size=T) < filtered_frac] = 0.0
    return (k, rng.standard_normal((T, d_v)), rng.standard_normal((T, d_k)),
            GateTrack(gamma=gamma, beta=beta))


def relative_error(got, ref):
    return float(np.max(np.abs(got - ref), initial=0.0)) / max(1.0, float(np.max(np.abs(ref), initial=0.0)))


@PROPERTY_SETTINGS
@given(kind=LINEAR_KINDS,
       T=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5]),
       d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       unit_keys=st.booleans(), max_key_norm=st.floats(0.1, 2.0),
       gamma_floor=st.sampled_from([1e-6, 1e-2, 0.5, 0.9, 1.0]),
       filtered_frac=st.sampled_from([0.0, 0.2, 1.0]),
       with_s0=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_scan_replays_the_step_oracle(kind, T, d_k, d_v, unit_keys, max_key_norm,
                                      gamma_floor, filtered_frac, with_s0, seed):
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, T, d_k, d_v, max_key_norm, unit_keys,
                                  gamma_floor, filtered_frac)
    s0 = rng.standard_normal((d_v, d_k)) if with_s0 else np.zeros((d_v, d_k))
    y, s = ssm_forward(kind, k, v, q, gates, s0=s0)
    state = s0
    y_ref = np.empty_like(y)
    for t in range(T):
        state = ssm_step(kind, state, k[t], v[t], gamma=gates.gamma[t], beta=gates.beta[t])
        y_ref[t] = state @ q[t]
    assert relative_error(y, y_ref) <= 1e-12
    assert relative_error(s, state) <= 1e-12


@PROPERTY_SETTINGS
@given(steps=st.lists(st.sampled_from([1e-300, 1e-3, 0.5, 0.9, 1.0]), min_size=1,
                      max_size=3 * CHUNK + 5),
       complex_step=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_decay_matrix_is_exponentiated_only_where_it_is_read(steps, complex_step, seed):
    # steps of 1e-300 next to 1.0 make the upper triangle's exp(cs_t - cs_i)
    # overflow if it were taken; a length that is not a whole number of
    # chunks gives a short last chunk, padded with steps that do not decay
    gamma = np.array(steps)
    if complex_step:
        gamma = gamma + 1e-20j * gamma * np.random.default_rng(seed).standard_normal(gamma.size)
    T = gamma.size
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        K, _, D = _ssd_terms(np.ones((T, 2)), gamma)
    L = D.shape[1]
    assert D.shape == (-(-T // L), L, L) and D.dtype == gamma.dtype
    Kt = _transposed(K)
    assert Kt.flags.c_contiguous and np.array_equal(Kt, K.transpose(0, 2, 1))
    assert np.all(D[:, ~np.tri(L, dtype=bool)] == 0.0)
    padded = np.concatenate([gamma, np.ones(-T % L)])
    for c in range(D.shape[0]):
        cs = np.cumsum(np.log(padded[c * L:(c + 1) * L]))
        for t in range(L):
            assert D[c, t, :t + 1].tobytes() == np.exp(cs[t] - cs[:t + 1]).tobytes()


def forward_substitution(n, rhs):
    """The oracle for the blocked solve: (I + tril(n, -1)) x = rhs for every
    chunk at once, row by row."""
    x = rhs.copy()
    for t in range(1, n.shape[1]):
        x[:, t] -= (n[:, t, None, :t] @ x[:, :t])[:, 0]
    return x


@PROPERTY_SETTINGS
@given(L=st.integers(1, CHUNK), n_chunks=st.integers(1, 3), d_k=st.integers(1, 8),
       width=st.integers(0, 6), complex_=st.booleans(),
       gamma_floor=st.sampled_from([1e-3, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_blocked_ut_solve_replays_forward_substitution(L, n_chunks, d_k, width, complex_,
                                                       gamma_floor, seed):
    # GDN's system: n = diag(beta) (K K^T) o D with ||k|| <= 1; NaN on and
    # above the diagonal shows that only the strict lower triangle is read.
    # The two sum in other orders: 1e-12 normwise (3.9e-16 at worst over
    # 300 generated systems)
    rng = np.random.default_rng(seed)
    draw = lambda *shape: rng.standard_normal(shape) + (1j * rng.standard_normal(shape)
                                                        if complex_ else 0.0)
    keys = draw(n_chunks, L, d_k)
    keys *= rng.uniform(0.0, 1.0, (n_chunks, L, 1)) / np.linalg.norm(keys, axis=2, keepdims=True)
    cs = np.cumsum(np.log(rng.uniform(gamma_floor, 1.0, (n_chunks, L))), axis=1)
    decay = np.exp(np.where(np.tri(L, dtype=bool), cs[:, :, None] - cs[:, None, :], -np.inf))
    n = rng.uniform(0.0, 1.0, (n_chunks, L, 1)) * (keys @ keys.transpose(0, 2, 1)) * decay
    n[:, ~np.tri(L, k=-1, dtype=bool)] = np.nan
    rhs = draw(n_chunks, L, width)
    x, ref = _ut_solve(n, rhs), forward_substitution(n, rhs)
    assert x.shape == ref.shape and x.dtype == ref.dtype
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@PROPERTY_SETTINGS
@given(T=st.sampled_from([1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 7]),
       d_k=st.integers(1, 6), d_v=st.integers(0, 6),
       gamma_floor=st.sampled_from([1e-3, 0.5, 1.0]),
       start=st.sampled_from(["zero", "transitions", "zero_rows"]),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_carry_equals_the_dense_carry(T, d_k, d_v, gamma_floor, start, seed):
    # Mamba-2's block transitions are the decays G_L as (C, 1, 1), which
    # _carry applies by scaling; the dense G_L I multiplies by GEMM, whose
    # off-diagonal terms add exact zeros: the same bits. "transitions" is
    # the padded forward's start: d_k zero value columns from [0; I]
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, T, d_k, d_v, 1.0, False, gamma_floor, 0.1)
    if start == "transitions":
        v = np.hstack([v, np.zeros((T, d_k))])
        s0 = np.vstack([np.zeros((d_v, d_k)), np.eye(d_k)])
    elif start == "zero":
        s0 = np.zeros((d_v, d_k))
    else:
        s0 = rng.standard_normal((d_v, d_k))
        s0[rng.uniform(size=d_v) < 0.5] = 0.0
    aq, a_end, y0, e = chunk_terms("mamba2", k, v, q, gates.gamma, gates.beta)
    assert a_end.shape == (-(-T // min(CHUNK, T)), 1, 1)
    scaled = _carry(aq, a_end, y0, e, s0, T)
    dense = _carry(aq, a_end * np.eye(d_k), y0, e, s0, T)
    for got, ref in zip(scaled, dense):
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()


@PROPERTY_SETTINGS
@given(kind=LINEAR_KINDS, pattern=st.sampled_from(["simple", "zigzag"]),
       n_ranks=st.integers(1, 8), chunk_len=st.integers(1, 2 * CHUNK + 3),
       d=st.integers(1, 6), gamma_floor=st.sampled_from([1e-3, 0.5, 0.9, 1.0]),
       seed=st.integers(0, 2**32 - 1))
@example(kind=SsmKind.MAMBA2, pattern="zigzag", n_ranks=2, chunk_len=CHUNK, d=3,
         gamma_floor=0.5, seed=0)
@example(kind=SsmKind.MAMBA2, pattern="simple", n_ranks=3, chunk_len=2 * CHUNK, d=1,
         gamma_floor=0.9, seed=1)
@example(kind=SsmKind.GDN, pattern="zigzag", n_ranks=2, chunk_len=CHUNK, d=3,
         gamma_floor=0.5, seed=0)
@example(kind=SsmKind.GDN, pattern="simple", n_ranks=3, chunk_len=2 * CHUNK, d=1,
         gamma_floor=0.9, seed=1)
def test_p2p_equals_single_device_forward(kind, pattern, n_ranks, chunk_len, d,
                                          gamma_floor, seed):
    # on a plan of whole blocks each chunk carries the state it receives
    # through the blocks the single forward takes, by the same operations:
    # bit for bit. The values have no all-zero column, whose zero state row
    # a chunk's first block would multiply apart from the others
    n_chunks = n_ranks if pattern == "simple" else 2 * n_ranks
    T = n_chunks * chunk_len
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, T, d, d, 1.0, False, gamma_floor, 0.1)
    y, s = p2p_forward(kind, k, v, q, gates, shard(T, n_ranks, pattern), MessageBus(n_ranks))
    y_ref, s_ref = ssm_forward(kind, k, v, q, gates)
    assert relative_error(y, y_ref) <= 1e-10
    assert relative_error(s, s_ref) <= 1e-10
    if chunk_len % CHUNK == 0:
        assert np.array_equal(y, y_ref) and np.array_equal(s, s_ref)


def p2p_by_chunk_forward(kind, k, v, q, gates, plan):
    """The P2P forward with one ssm_forward call per chunk, each from the
    state the chunk before it hands on."""
    y = np.zeros((plan.length, v.shape[1]))
    state = np.zeros((v.shape[1], k.shape[1]))
    for c in range(plan.n_chunks):
        sl = plan.chunk_slice(c)
        y[sl], state = ssm_forward(kind, k[sl], v[sl], q[sl],
                                   GateTrack(gamma=gates.gamma[sl], beta=gates.beta[sl]), state)
    return y, state


@PROPERTY_SETTINGS
@given(kind=LINEAR_KINDS, pattern=st.sampled_from(["simple", "zigzag"]),
       n_ranks=st.integers(1, 8),
       chunk_len=st.one_of(st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK,
                                            2 * CHUNK + 3]), st.integers(1, 2 * CHUNK + 3)),
       d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       gamma_floor=st.sampled_from([1e-3, 0.5, 0.9, 1.0]),
       filtered_frac=st.sampled_from([0.0, 0.2, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_p2p_equals_the_per_chunk_passes(kind, pattern, n_ranks, chunk_len, d_k, d_v,
                                         gamma_floor, filtered_frac, seed):
    # the batched terms of a chunk are the blocks its own forward takes (a
    # short last block padded the same way), carried from the same state by
    # the same operations in the same order: bit for bit
    n_chunks = n_ranks if pattern == "simple" else 2 * n_ranks
    T = n_chunks * chunk_len
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, T, d_k, d_v, 1.0, False, gamma_floor, filtered_frac)
    plan = shard(T, n_ranks, pattern)
    y, s = p2p_forward(kind, k, v, q, gates, plan, MessageBus(n_ranks))
    y_ref, s_ref = p2p_by_chunk_forward(kind, k, v, q, gates, plan)
    assert np.array_equal(y, y_ref) and np.array_equal(s, s_ref)


@pytest.mark.parametrize("d_v, zero_column", [(1, False), (2, True)])
@pytest.mark.parametrize("d_k", [2, 6])
@pytest.mark.parametrize("pattern", ["simple", "zigzag"])
@pytest.mark.parametrize("seed", range(2))
def test_p2p_with_one_live_value_row_keeps_the_per_chunk_bits(d_v, zero_column, d_k, pattern,
                                                              seed):
    # Mamba-2 values with one column, or one zero column: the state a
    # chunk receives has one non-zero row, whose products numpy takes by
    # GEMV where the rows were once folded by GEMM, which rounds otherwise;
    # P2P carries the same state through the same blocks as the forward
    rng = np.random.default_rng(seed)
    T = 4 * (2 * CHUNK + 3)
    k, v, q, gates = layer_inputs(rng, T, d_k, d_v, 1.0, False, 0.5, 0.0)
    if zero_column:
        v[:, 0] = 0.0
    plan = shard(T, 2, pattern)
    y, s = p2p_forward("mamba2", k, v, q, gates, plan, MessageBus(2))
    y_ref, s_ref = p2p_by_chunk_forward(SsmKind.MAMBA2, k, v, q, gates, plan)
    assert np.array_equal(y, y_ref) and np.array_equal(s, s_ref)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(kind=LINEAR_KINDS, pattern=st.sampled_from(["simple", "zigzag"]),
       n_ranks=st.integers(1, 4),
       chunk_len=st.one_of(st.sampled_from([CHUNK, CHUNK + 1, 2 * CHUNK]),
                           st.integers(1, 2 * CHUNK + 3)),
       d_k=st.integers(1, 6), d_v=st.integers(1, 6), arg=st.sampled_from(["k", "v", "q"]),
       value=st.sampled_from([1e160, 1e-160, np.nan, np.inf, -np.inf]),
       seed=st.integers(0, 2**32 - 1))
def test_p2p_forward_on_an_extreme_row_is_finite_or_names_the_row(kind, pattern, n_ranks,
                                                                   chunk_len, d_k, d_v, arg,
                                                                   value, seed):
    # one row of k, v or q scaled by value, or set to it if it is NaN or
    # inf: P2P returns finite output and state, or raises ValueError naming
    # the argument and that sequence row, or NonFiniteOutput naming a
    # sequence row at or after it (the rows before it never read it)
    n_chunks = n_ranks if pattern == "simple" else 2 * n_ranks
    T = n_chunks * chunk_len
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, T, d_k, d_v, 1.0, False, 0.5, 0.1)
    inputs = {"k": k, "v": v, "q": q}
    row = int(rng.integers(T))
    if np.isfinite(value):
        inputs[arg][row] *= value
    else:
        inputs[arg][row] = value
    with np.errstate(all="ignore"):
        try:
            y, s = p2p_forward(kind, **inputs, gates=gates, plan=shard(T, n_ranks, pattern),
                               bus=MessageBus(n_ranks))
        except NonFiniteOutput as err:
            assert row <= err.row < T, (err.row, row)
            return
        except ValueError as err:
            assert str(err) == f"{arg} is non-finite at row {row}"
            return
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(s))


def outcome(forward):
    """forward()'s output, or the type and message of the ValueError or
    FloatingPointError it raised; any other exception propagates."""
    try:
        return forward()
    except (ValueError, FloatingPointError) as err:
        return err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None, derandomize=True)  # same inputs every run
@given(kind=LINEAR_KINDS, pattern=st.sampled_from(["simple", "zigzag"]),
       n_ranks=st.integers(1, 4), chunk_len=st.integers(1, 2 * CHUNK + 3),
       d_k=st.integers(1, 6), d_v=st.integers(1, 6), arg=st.sampled_from(["k", "v", "q"]),
       value=st.sampled_from([1e160, 1e-160, np.nan, np.inf, -np.inf]),
       where=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
# a row on a block boundary, the last row of a block, and a row past the
# first block: the rows before it keep their bits and USP equals the forward
@example(kind=SsmKind.GDN, pattern="simple", n_ranks=2, chunk_len=CHUNK, d_k=3, d_v=2,
         arg="k", value=1e-160, where=CHUNK, seed=0)
@example(kind=SsmKind.MAMBA2, pattern="zigzag", n_ranks=2, chunk_len=CHUNK // 2, d_k=3, d_v=2,
         arg="k", value=1e160, where=CHUNK - 1, seed=1)
@example(kind=SsmKind.GDN, pattern="simple", n_ranks=3, chunk_len=CHUNK + 1, d_k=4, d_v=3,
         arg="q", value=1e160, where=CHUNK + 5, seed=2)
@example(kind=SsmKind.MAMBA2, pattern="simple", n_ranks=1, chunk_len=2 * CHUNK, d_k=2, d_v=4,
         arg="v", value=1e160, where=CHUNK, seed=3)
def test_forward_and_usp_on_an_extreme_row_are_finite_or_name_the_row(kind, pattern, n_ranks,
                                                                      chunk_len, d_k, d_v, arg,
                                                                      value, where, seed):
    # one row of k, v or q scaled by value, or set to it if it is NaN or
    # inf: ssm_forward returns finite output and state whose rows before it
    # keep the unperturbed forward's bits, or raises ValueError naming the
    # argument and row, NonFiniteOutput naming a row at or after it, or
    # FloatingPointError naming the final state; usp_forward over that
    # forward returns its output bit for bit or raises the same error
    n_chunks = n_ranks if pattern == "simple" else 2 * n_ranks
    T = n_chunks * chunk_len
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, T, d_k, d_v, 1.0, False, 0.5, 0.1)
    y_clean, _ = ssm_forward(kind, k, v, q, gates)
    inputs = {"k": k, "v": v, "q": q}
    row = where % T
    if np.isfinite(value):
        inputs[arg][row] *= value
    else:
        inputs[arg][row] = value
    got = outcome(lambda: ssm_forward(kind, **inputs, gates=gates))
    layer = lambda x: ssm_forward(kind, inputs["k"], x, inputs["q"], gates)[0]
    usp = outcome(lambda: usp_forward(layer, inputs["v"], shard(T, n_ranks, pattern),
                                      MessageBus(n_ranks)))
    if isinstance(got, NonFiniteOutput):
        assert row <= got.row < T, (got.row, row)
    elif isinstance(got, ValueError):
        assert str(got) == f"{arg} is non-finite at row {row}"
    elif isinstance(got, FloatingPointError):
        assert str(got) == f"{kind.value} final state is non-finite"
    else:
        y, s = got
        assert np.all(np.isfinite(y)) and np.all(np.isfinite(s))
        assert np.array_equal(y[:row], y_clean[:row])
        assert np.array_equal(usp, y)
        return
    assert (type(usp), str(usp)) == (type(got), str(got))


@PROPERTY_SETTINGS
@given(kind=LINEAR_KINDS,
       lengths=st.lists(st.integers(1, 2 * CHUNK + 3), min_size=1, max_size=8),
       d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       gamma_floor=st.sampled_from([1e-3, 0.5, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_caso_equals_single_pass(kind, lengths, d_k, d_v, gamma_floor, seed):
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, sum(lengths), d_k, d_v, 1.0, False, gamma_floor, 0.1)
    bounds = np.cumsum([0] + lengths)
    records = [run_chunk(kind, k[a:b], v[a:b],
                         GateTrack(gamma=gates.gamma[a:b], beta=gates.beta[a:b]))
               for a, b in zip(bounds[:-1], bounds[1:])]
    _, s_ref = ssm_forward(kind, k, v, q, gates)
    assert relative_error(caso_compose(records), s_ref) <= 1e-10


@PROPERTY_SETTINGS
@given(T=st.integers(1, 2 * CHUNK + 3), d_k=st.integers(1, 6), d_v=st.integers(1, 6),
       gamma_floor=st.sampled_from([1e-3, 0.5, 0.9, 1.0]),
       filtered_frac=st.sampled_from([0.0, 0.2, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_gdn_record_equals_the_padded_forward(T, d_k, d_v, gamma_floor, filtered_frac, seed):
    # run_chunk folds gdn_chunk_states' blocks as _carry folds the padded
    # forward's state rows, so the two agree to rounding (bit for bit under
    # OpenBLAS with one thread)
    rng = np.random.default_rng(seed)
    k, v, q, gates = layer_inputs(rng, T, d_k, d_v, 1.0, False, gamma_floor, filtered_frac)
    record = run_chunk(SsmKind.GDN, k, v, gates)
    _, s_end, _, a_end = padded_forward(SsmKind.GDN, k, v, q, gates)
    assert relative_error(record.state, s_end) <= 1e-13
    assert relative_error(record.a_acc, a_end) <= 1e-13


@PROPERTY_SETTINGS
@given(kind=st.sampled_from([SsmKind.MAMBA2, SsmKind.GDN, SsmKind.GKA]),
       lengths=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       shift=st.integers(0, 5), d_k=st.integers(1, 5), d_v=st.integers(1, 5),
       gamma_floor=st.sampled_from([1e-3, 0.5, 0.9, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_picaso_r_is_invariant_under_rotating_the_chunks(kind, lengths, shift, d_k, d_v,
                                                         gamma_floor, seed):
    # PICASO-R averages CASO over all K cyclic orders, so rotating the
    # records permutes the terms of the mean; the prefix and suffix products
    # then run in other orders, hence 1e-12 times the largest entry, or 1
    # (3.6e-16 at worst over 600 generated record lists)
    rng = np.random.default_rng(seed)
    k, v, _, gates = layer_inputs(rng, sum(lengths), d_k, d_v, 1.0, False, gamma_floor, 0.1)
    bounds = np.cumsum([0] + lengths)
    records = [run_chunk(kind, k[a:b], v[a:b],
                         GateTrack(gamma=gates.gamma[a:b], beta=gates.beta[a:b]))
               for a, b in zip(bounds[:-1], bounds[1:])]
    s = shift % len(records)
    ref = picaso_r(records)
    got = picaso_r(records[s:] + records[:s])
    parts = (ref.h, ref.u) if kind is SsmKind.GKA else (ref,)
    assert state_deviation(got, ref) <= 1e-12 * max(1.0, *(np.max(np.abs(p)) for p in parts))
