import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hybridssm import kernels, ssm_core
from hybridssm.composition import (
    ChunkRecord,
    caso_compose,
    chunked_prefill,
    gka_compose,
    picaso_r,
    run_chunk,
    single_pass_prefill,
    soup_states,
    state_deviation,
)
from hybridssm.ssm_core import GateTrack, GkaInfoState, SsmKind, ssm_forward
from hybridssm.stack import ToyHybridStack


def split_gates(gates, chunk_len):
    T = gates.T
    out = []
    for s in range(0, T, chunk_len):
        lam = None if gates.lam is None else gates.lam[s:s + chunk_len]
        out.append(GateTrack(gamma=gates.gamma[s:s + chunk_len],
                             beta=gates.beta[s:s + chunk_len], lam=lam))
    return out


def random_run(kind, T, d_k, d_v, seed, gamma_range=(0.6, 1.0)):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((T, d_k))
    v = rng.standard_normal((T, d_v))
    gates = GateTrack(gamma=rng.uniform(*gamma_range, T), beta=rng.uniform(0.2, 1.0, T),
                      lam=np.full(T, 0.5))
    return k, v, gates


def full_sequence_state(kind, k, v, gates):
    _, state = ssm_forward(kind, k, v, np.zeros_like(k), gates)
    return state


def chunk_records(kind, k, v, gates, chunk_len):
    gate_chunks = split_gates(gates, chunk_len)
    return [run_chunk(kind, k[s:s + chunk_len], v[s:s + chunk_len], g)
            for g, s in zip(gate_chunks, range(0, k.shape[0], chunk_len))]


class TestCaso:
    def test_single_chunk_identity(self):
        rec = ChunkRecord(state=np.ones((2, 3)), a_acc=0.5)
        assert np.array_equal(caso_compose([rec]), rec.state)

    def test_mamba2_scalar_two_chunks_by_hand(self):
        # chunk1: gamma=0.5, v=1, k=1 -> S=1, A=0.5; chunk2: v=2 -> S=2, A=0.5
        # merged = 2 + 0.5 * 1 = 2.5 = state of the 2-token concatenation
        g = GateTrack(gamma=np.array([0.5]), beta=np.array([1.0]))
        r1 = run_chunk(SsmKind.MAMBA2, np.ones((1, 1)), np.ones((1, 1)), g)
        r2 = run_chunk(SsmKind.MAMBA2, np.ones((1, 1)), 2 * np.ones((1, 1)), g)
        assert r1.state[0, 0] == pytest.approx(1.0)
        assert r1.a_acc == pytest.approx(0.5)
        merged = caso_compose([r1, r2])
        assert merged[0, 0] == pytest.approx(2.5)
        full = full_sequence_state(
            SsmKind.MAMBA2, np.ones((2, 1)), np.array([[1.0], [2.0]]),
            GateTrack(gamma=np.array([0.5, 0.5]), beta=np.ones(2)))
        assert merged[0, 0] == pytest.approx(full[0, 0], abs=1e-15)

    @pytest.mark.parametrize("kind", [SsmKind.MAMBA2, SsmKind.GDN])
    @pytest.mark.parametrize("n_chunks", [2, 4, 8])
    def test_caso_matches_full_sequence(self, kind, n_chunks):
        # oracle: sequential recurrence over the concatenation
        chunk_len = 4
        T = n_chunks * chunk_len
        k, v, gates = random_run(kind, T, 3, 2, seed=n_chunks)
        records = chunk_records(kind, k, v, gates, chunk_len)
        merged = caso_compose(records)
        full = full_sequence_state(kind, k, v, gates)
        assert np.max(np.abs(merged - full)) < 1e-10

    def test_gdn_run_chunk_solves_once(self, monkeypatch):
        calls = []
        solve = kernels._ut_solve
        monkeypatch.setattr(kernels, "_ut_solve",
                            lambda n, rhs: calls.append(1) or solve(n, rhs))
        k, v, gates = random_run(SsmKind.GDN, 8, 3, 2, seed=3)
        rec = run_chunk(SsmKind.GDN, k, v, gates)
        assert len(calls) == 1
        assert rec.a_acc.shape == (3, 3)

    def test_gdn_run_chunk_reads_no_queries_and_carries_no_transition(self, monkeypatch):
        # the record comes from gdn_chunk_states' keys, values and gates alone
        def forbidden(*args, **kwargs):
            raise AssertionError("run_chunk(GDN) must not run a forward")
        monkeypatch.setattr(ssm_core, "ssm_forward", forbidden)
        monkeypatch.setattr(kernels, "gdn_scan", forbidden)
        monkeypatch.setattr(kernels, "_carry", forbidden)
        k, v, gates = random_run(SsmKind.GDN, 2 * kernels.CHUNK + 3, 3, 2, seed=3)
        rec = run_chunk(SsmKind.GDN, k, v, gates)
        assert rec.state.shape == (2, 3) and rec.a_acc.shape == (3, 3)

    @pytest.mark.parametrize("kind", list(SsmKind))
    @pytest.mark.parametrize("arg", ["k", "v"])
    def test_run_chunk_names_a_non_finite_input(self, kind, arg):
        k, v, gates = random_run(kind, 6, 3, 2, seed=4)
        bad = {"k": k, "v": v}
        bad[arg][2, 1] = np.nan
        with pytest.raises(ValueError, match=f"{arg} is non-finite at row 2"):
            run_chunk(kind, bad["k"], bad["v"], gates)

    @pytest.mark.parametrize("kind", list(SsmKind))
    @pytest.mark.parametrize("rows", [1, 9, 11])
    def test_run_chunk_names_a_mis_shaped_v(self, kind, rows):
        # a one-row v must not be broadcast over the chunk's ten tokens, and
        # GDN names the caller's v
        k, v, gates = random_run(kind, 10, 4, 3, seed=6)
        bad = np.resize(v, (rows, 3))
        with pytest.raises(ValueError, match=re.escape(f"v must be 2-D with one row per gate "
                                                       f"step (T = 10), got shape {bad.shape}")):
            run_chunk(kind, k, bad, gates)

    @pytest.mark.parametrize("kind", list(SsmKind))
    def test_run_chunk_rejects_an_overflowed_state(self, kind):
        k, v, gates = random_run(kind, 6, 3, 2, seed=4)
        with np.errstate(over="ignore", invalid="ignore"):  # GDN's solve meets inf - inf
            with pytest.raises(FloatingPointError, match=f"{kind.value} chunk state is non-finite"):
                run_chunk(kind, 1e200 * k, 1e200 * v, gates)

    def test_gka_info_caso_matches_full_sequence(self):
        k, v, gates = random_run(SsmKind.GKA, 12, 3, 2, seed=5)
        records = chunk_records(SsmKind.GKA, k, v, gates, 4)
        merged = caso_compose(records)
        full = full_sequence_state(SsmKind.GKA, k, v, gates)
        assert state_deviation(merged, full) < 1e-10

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            caso_compose([])


class TestPicasoR:
    def test_single_chunk_equals_caso(self):
        rec = ChunkRecord(state=np.ones((2, 2)), a_acc=0.3)
        assert np.array_equal(picaso_r([rec]), caso_compose([rec]))

    def test_identity_transitions_sum_states(self):
        rng = np.random.default_rng(0)
        recs = [ChunkRecord(state=rng.standard_normal((2, 3)), a_acc=1.0)
                for _ in range(4)]
        expected = sum(r.state for r in recs)
        assert np.allclose(picaso_r(recs), expected, atol=1e-12)

    def test_scalar_three_chunks_vs_enumeration(self):
        # oracle: enumerate cyclic shifts and apply caso_compose to each
        recs = [ChunkRecord(state=np.array([[s]]), a_acc=a)
                for s, a in [(1.0, 0.5), (2.0, 0.25), (4.0, 0.125)]]
        shifts = [caso_compose(recs[s:] + recs[:s]) for s in range(3)]
        expected = sum(shifts) / 3.0
        assert picaso_r(recs)[0, 0] == pytest.approx(expected[0, 0], abs=1e-15)

    @pytest.mark.parametrize("kind", [SsmKind.MAMBA2, SsmKind.GDN])
    def test_matches_explicit_cyclic_enumeration(self, kind):
        k, v, gates = random_run(kind, 12, 3, 2, seed=7)
        recs = chunk_records(kind, k, v, gates, 3)
        K = len(recs)
        expected = recs[0].state * 0.0
        for s in range(K):
            expected = expected + caso_compose(recs[s:] + recs[:s])
        expected = expected / K
        assert np.max(np.abs(picaso_r(recs) - expected)) < 1e-12

    @pytest.mark.parametrize("rot", [1, 2, 3])
    def test_cyclic_shift_invariance(self, rot):
        k, v, gates = random_run(SsmKind.GDN, 12, 3, 2, seed=9)
        recs = chunk_records(SsmKind.GDN, k, v, gates, 3)
        base = picaso_r(recs)
        rotated = picaso_r(recs[rot:] + recs[:rot])
        assert np.max(np.abs(base - rotated)) < 1e-12


def sequential_fold(states, decays):
    """CASO's definition, folded in order: S <- S a_c + S^(c), for arrays
    or (H, U) pairs."""
    merged = states[0]
    for state, a in zip(states[1:], decays[1:]):
        merged = tuple(m * a + x for m, x in zip(merged, state))
    return merged


@settings(max_examples=60, deadline=None, derandomize=True)
@given(decays=st.lists(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
                       min_size=1, max_size=8),
       info=st.booleans(), d_k=st.integers(1, 4), d_v=st.integers(1, 4),
       seed=st.integers(0, 2**32 - 1))
def test_scalar_weighted_sums_equal_the_cyclic_enumeration(decays, info, d_k, d_v, seed):
    # scalar-decay CASO and PICASO-R are one weighted sum of the states;
    # the oracle folds every cyclic order one chunk at a time. All weights
    # are >= 0, so the two differ by rounding only: 1e-12 relative
    rng = np.random.default_rng(seed)
    states = []
    for _ in decays:
        x = rng.standard_normal((d_k, d_k))
        states.append((x @ x.T, rng.standard_normal((d_v, d_k))) if info
                      else (rng.standard_normal((d_v, d_k)),))
    records = [ChunkRecord(state=GkaInfoState(h=s[0], u=s[1]) if info else s[0], a_acc=a)
               for s, a in zip(states, decays)]
    K = len(records)
    rotations = [sequential_fold(states[r:] + states[:r], decays[r:] + decays[:r])
                 for r in range(K)]
    caso_ref = rotations[0]
    picaso_ref = tuple(sum(parts) / K for parts in zip(*rotations))
    for got, ref in ((caso_compose(records), caso_ref), (picaso_r(records), picaso_ref)):
        got = (got.h, got.u) if info else (got,)
        for g, r in zip(got, ref):
            assert np.max(np.abs(g - r)) <= 1e-12 * max(1.0, np.max(np.abs(r)))


class TestOverflow:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("compose", [caso_compose, picaso_r])
    @pytest.mark.parametrize("kind", ["scalar", "dense", "info"])
    def test_finite_records_whose_composition_overflows_name_the_composer(self, compose, kind):
        # three finite states of 1e308 sum past the largest float
        big = np.full((3, 4), 1e308)
        state = GkaInfoState(h=1e308 * np.eye(4), u=big) if kind == "info" else big
        a_acc = np.eye(4) if kind == "dense" else 1.0
        records = [ChunkRecord(state=state, a_acc=a_acc)] * 3
        with pytest.raises(FloatingPointError, match=compose.__name__):
            compose(records)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=120, deadline=None, derandomize=True)  # same inputs every run
@given(kind=st.sampled_from(["mamba2", "gdn", "gka"]), n_chunks=st.integers(1, 4),
       T=st.integers(1, 70), d_k=st.integers(1, 4), d_v=st.integers(1, 4),
       arg=st.sampled_from(["k", "v"]),
       value=st.sampled_from([1e160, 1e-160, 1e300, 1e-300, np.nan, np.inf, -np.inf]),
       where=st.integers(0, 2**32 - 1), seed=st.integers(0, 2**32 - 1))
@example(kind="mamba2", n_chunks=3, T=8, d_k=2, d_v=2, arg="v", value=1e300, where=0, seed=0)
@example(kind="gka", n_chunks=3, T=8, d_k=2, d_v=2, arg="k", value=1e160, where=0, seed=0)
def test_records_with_an_extreme_row_compose_finite_or_raise(kind, n_chunks, T, d_k, d_v, arg,
                                                            value, where, seed):
    # one row of k or v, in one chunk, scaled by 1e+-160 or 1e+-300, or one
    # entry set to NaN or inf: run_chunk and both composers return finite
    # states or raise ValueError or FloatingPointError, and nothing else
    rng = np.random.default_rng(seed)
    n = n_chunks * T
    k, v = rng.standard_normal((n, d_k)), rng.standard_normal((n, d_v))
    x = {"k": k, "v": v}[arg]
    row = where % n
    if np.isfinite(value):
        x[row] *= value
    else:
        x[row, where % x.shape[1]] = value
    gates = GateTrack(gamma=rng.uniform(0.5, 1.0, n), beta=rng.uniform(0.0, 1.0, n))

    def finite(state):
        parts = (state.h, state.u) if isinstance(state, GkaInfoState) else (state,)
        return all(np.isfinite(part).all() for part in parts)

    try:
        records = chunk_records(kind, k, v, gates, T)
    except (ValueError, FloatingPointError):
        return
    for compose in (caso_compose, picaso_r):
        try:
            assert finite(compose(records)), compose.__name__
        except (ValueError, FloatingPointError):
            pass


class TestMixedRecords:
    @pytest.mark.parametrize("compose", [caso_compose, picaso_r])
    def test_scalar_and_dense_transitions_are_rejected(self, compose):
        state = np.ones((2, 3))
        records = [ChunkRecord(state=state, a_acc=0.5), ChunkRecord(state=state, a_acc=0.7),
                   ChunkRecord(state=state, a_acc=0.5 * np.eye(3))]
        with pytest.raises(ValueError, match="record 2 has a dense transition and an array "
                                             "state, unlike record 0's a scalar transition"):
            compose(records)
        with pytest.raises(ValueError, match="record 1 has a scalar transition"):
            compose(records[2:] + records[:2])

    @pytest.mark.parametrize("compose", [caso_compose, picaso_r])
    def test_array_and_info_states_are_rejected(self, compose):
        info = GkaInfoState(h=np.eye(3), u=np.ones((2, 3)))
        records = [ChunkRecord(state=info, a_acc=0.5),
                   ChunkRecord(state=np.ones((2, 3)), a_acc=0.5)]
        with pytest.raises(ValueError, match="record 1 has a scalar transition and an array "
                                             "state, unlike record 0's a scalar transition "
                                             "and a GkaInfoState state"):
            compose(records)

    @pytest.mark.parametrize("compose", [caso_compose, picaso_r])
    def test_info_states_with_dense_transitions_are_rejected(self, compose):
        info = GkaInfoState(h=np.eye(3), u=np.ones((2, 3)))
        records = [ChunkRecord(state=info, a_acc=np.eye(3))] * 2
        with pytest.raises(ValueError, match="info states take scalar"):
            compose(records)


class TestGkaCompose:
    def test_sum_exact_without_decay(self):
        # integer-valued inputs keep every partial sum exactly representable,
        # so the additive identity holds with literally zero error
        T = 12
        rng = np.random.default_rng(11)
        k = rng.integers(-4, 5, size=(T, 3)).astype(np.float64)
        v = rng.integers(-4, 5, size=(T, 2)).astype(np.float64)
        gates = GateTrack(gamma=np.ones(T), beta=np.ones(T), lam=np.full(T, 0.4))
        full = full_sequence_state(SsmKind.GKA, k, v, gates)
        infos = [chunk.state for chunk in chunk_records(SsmKind.GKA, k, v, gates, 4)]
        merged = gka_compose(infos, mode="sum")
        assert state_deviation(merged, full) == 0.0

    def test_sum_near_exact_on_float_data(self):
        # gaussian data: only float reassociation noise remains
        T = 12
        rng = np.random.default_rng(12)
        k = rng.standard_normal((T, 3))
        v = rng.standard_normal((T, 2))
        gates = GateTrack(gamma=np.ones(T), beta=rng.uniform(0.2, 1.0, T), lam=np.full(T, 0.4))
        full = full_sequence_state(SsmKind.GKA, k, v, gates)
        infos = [chunk.state for chunk in chunk_records(SsmKind.GKA, k, v, gates, 4)]
        assert state_deviation(gka_compose(infos, mode="sum"), full) < 1e-13

    def test_soup_of_identical_chunks_is_identity(self):
        info = GkaInfoState(h=np.eye(3) * 2.0, u=np.ones((2, 3)))
        merged = gka_compose([info, info, info], mode="soup")
        assert state_deviation(merged, info) == 0.0

    def test_decay_discrepancy_reported_and_bounded(self):
        # with gamma < 1 the additive merge is approximate; the deviation is
        # reported, not asserted against a fixed bound, but it cannot exceed
        # the undecayed mass of the earlier chunks
        rng = np.random.default_rng(13)
        for chunk_len in (2, 8, 32):
            T = 2 * chunk_len
            k = rng.standard_normal((T, 3))
            v = rng.standard_normal((T, 2))
            gates = GateTrack(gamma=np.full(T, 0.7), beta=np.full(T, 0.9), lam=np.full(T, 0.4))
            full = full_sequence_state(SsmKind.GKA, k, v, gates)
            infos = [c.state for c in chunk_records(SsmKind.GKA, k, v, gates, chunk_len)]
            dev = state_deviation(gka_compose(infos, "sum"), full)
            assert np.isfinite(dev) and dev > 0.0
            assert dev <= np.max(np.abs(infos[0].h)) + np.max(np.abs(infos[0].u))

    @pytest.mark.parametrize("merge", ["sum", "soup", "caso", "picaso"])
    def test_merges_keep_their_bits_without_the_spectrum_check(self, monkeypatch, merge):
        # a combination of validated states with weights >= 0 is PSD, so the
        # merged pair is built by GkaInfoState._derived: no eigvalsh, and
        # the same H and U as the public constructor would hold
        rng = np.random.default_rng(14)
        infos = []
        for _ in range(3):
            x = rng.standard_normal((3, 3))
            infos.append(GkaInfoState(h=x @ x.T, u=rng.standard_normal((2, 3))))
        records = [ChunkRecord(state=info, a_acc=a) for info, a in zip(infos, (0.9, 0.5, 1.0))]
        compose = {"sum": lambda: gka_compose(infos, mode="sum"),
                   "soup": lambda: gka_compose(infos, mode="soup"),
                   "caso": lambda: caso_compose(records), "picaso": lambda: picaso_r(records)}
        expected = compose[merge]()

        def forbidden(*args, **kwargs):
            raise AssertionError("the spectrum check ran")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        merged = compose[merge]()
        assert isinstance(merged, GkaInfoState)
        assert merged.h.tobytes() == expected.h.tobytes()
        assert merged.u.tobytes() == expected.u.tobytes()
        monkeypatch.undo()
        GkaInfoState(h=merged.h, u=merged.u)  # the full public check holds

    def test_a_sum_that_overflows_is_rejected(self):
        info = GkaInfoState(h=1e308 * np.eye(2), u=np.ones((1, 2)))
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="non-finite info state"):
                gka_compose([info, info], mode="sum")

    def test_an_info_record_with_a_negative_decay_is_rejected(self):
        # the composers' weights are products and sums of the decays
        info = GkaInfoState(h=np.eye(2), u=np.ones((1, 2)))
        with pytest.raises(ValueError, match="decay product must be >= 0"):
            ChunkRecord(state=info, a_acc=-0.5)
        ChunkRecord(state=np.ones((1, 2)), a_acc=-0.5)  # an array state takes any decay

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            gka_compose([])
        with pytest.raises(ValueError):
            gka_compose([GkaInfoState(h=np.eye(2), u=np.ones((1, 2)))], mode="mean")

    def test_soup_idempotence_for_plain_states(self):
        s = np.random.default_rng(1).standard_normal((2, 4))
        merged = soup_states([s.copy() for _ in range(5)])
        assert np.allclose(merged, s, rtol=1e-15, atol=0.0)


class TestChunkedPrefill:
    def test_single_chunk_matches_single_pass(self):
        model = ToyHybridStack(("attn", "mamba2"), d_model=8, d_k=4, seed=2)
        rng = np.random.default_rng(3)
        tokens = rng.standard_normal((6, 8))
        prefix = rng.standard_normal((2, 8))
        chunked = chunked_prefill(model, tokens, chunk_len=6, prefix=prefix)
        single = single_pass_prefill(model, tokens, prefix)
        kv_c, kv_s = chunked.kv_caches[0], single.kv_caches[0]
        assert np.array_equal(kv_c.keys, kv_s.keys)
        assert np.array_equal(kv_c.values, kv_s.values)
        assert np.array_equal(kv_c.pos_ids, kv_s.pos_ids)
        assert state_deviation(chunked.ssm_states[1], single.ssm_states[1]) == 0.0

    def test_identity_transition_ssm_merges_exactly(self):
        # SSM first layer (sees raw tokens), gamma pinned to 1, no prefix:
        # picaso_r with identity transitions sums chunk states = single pass
        model = ToyHybridStack(("mamba2", "attn"), d_model=8, d_k=4, seed=4,
                               fixed_gates={0: (1.0, 1.0)})
        tokens = np.random.default_rng(5).standard_normal((8, 8))
        chunked = chunked_prefill(model, tokens, chunk_len=4, merge_mode="picaso_r")
        single = single_pass_prefill(model, tokens)
        assert state_deviation(chunked.ssm_states[0], single.ssm_states[0]) < 1e-12

    @pytest.mark.parametrize("kind", ["mamba2", "gdn", "gka"])
    def test_caso_over_stack_caches_matches_single_pass(self, kind):
        # the SSM first layer sees raw tokens, so its per-chunk caches, the
        # layer's ChunkRecords, compose exactly into the single-pass state
        model = ToyHybridStack((kind, "attn"), d_model=8, d_k=4, seed=18)
        tokens = np.random.default_rng(19).standard_normal((24, 8))
        records = [model.forward(tokens[8 * c:8 * (c + 1)], collect_caches=True).caches[0]
                   for c in range(3)]
        single = single_pass_prefill(model, tokens)
        assert state_deviation(caso_compose(records), single.ssm_states[0]) < 1e-12

    def test_gka_sum_merge_exact_without_decay(self):
        model = ToyHybridStack(("gka", "attn"), d_model=8, d_k=4, seed=6,
                               fixed_gates={0: (1.0, 0.8)})
        tokens = np.random.default_rng(7).standard_normal((8, 8))
        chunked = chunked_prefill(model, tokens, chunk_len=4, merge_mode="gka_sum")
        single = single_pass_prefill(model, tokens)
        assert state_deviation(chunked.ssm_states[0], single.ssm_states[0]) < 1e-12

    def test_kv_concatenation_bookkeeping(self):
        # oracle: explicit index bookkeeping against the single-pass token list.
        # Attention first layer sees raw inputs, so chunk KV rows must equal
        # the single-pass rows; prefix entries appear exactly once.
        model = ToyHybridStack(("attn", "mamba2"), d_model=8, d_k=4, seed=8)
        rng = np.random.default_rng(9)
        prefix = rng.standard_normal((2, 8))
        tokens = rng.standard_normal((8, 8))
        chunked = chunked_prefill(model, tokens, chunk_len=4, prefix=prefix)
        kv = chunked.kv_caches[0]
        assert kv.keys.shape[0] == 2 + 8  # one prefix copy + both bodies
        w_k = model.weights["0.wk"]
        assert np.allclose(kv.keys[:2], prefix @ w_k.T, atol=1e-12)
        assert np.allclose(kv.keys[2:6], tokens[:4] @ w_k.T, atol=1e-12)
        assert np.allclose(kv.keys[6:], tokens[4:] @ w_k.T, atol=1e-12)
        # position ids restart per chunk body (reuse), prefix ids kept once
        assert list(kv.pos_ids) == [0, 1, 2, 3, 4, 5, 2, 3, 4, 5]

    def test_soup_merge_runs_and_reports_deviation(self):
        model = ToyHybridStack(("attn", "gdn"), d_model=8, d_k=4, seed=10)
        tokens = np.random.default_rng(11).standard_normal((8, 8))
        chunked = chunked_prefill(model, tokens, chunk_len=4, merge_mode="soup")
        single = single_pass_prefill(model, tokens)
        dev = state_deviation(chunked.ssm_states[1], single.ssm_states[1])
        assert np.isfinite(dev)

    def test_non_divisible_length_padded(self):
        model = ToyHybridStack(("attn", "mamba2"), d_model=8, d_k=4, seed=12)
        tokens = np.random.default_rng(13).standard_normal((7, 8))
        out = chunked_prefill(model, tokens, chunk_len=4)
        assert out.padded == 1
        assert out.chunk_count == 2

    def test_bad_merge_mode_rejected(self):
        model = ToyHybridStack(("attn", "mamba2"), d_model=8, d_k=4, seed=14)
        tokens = np.zeros((4, 8))
        with pytest.raises(ValueError):
            chunked_prefill(model, tokens, chunk_len=2, merge_mode="average")

    def test_gka_sum_on_non_gka_layer_rejected(self):
        model = ToyHybridStack(("attn", "mamba2"), d_model=8, d_k=4, seed=15)
        tokens = np.zeros((4, 8))
        with pytest.raises(ValueError):
            chunked_prefill(model, tokens, chunk_len=2, merge_mode="gka_sum")

    @pytest.mark.parametrize("name", ["tokens", "prefix"])
    def test_non_finite_input_named(self, name):
        model = ToyHybridStack(("attn", "mamba2"), d_model=8, d_k=4, seed=16)
        rng = np.random.default_rng(17)
        args = {"tokens": rng.standard_normal((8, 8)), "prefix": rng.standard_normal((3, 8))}
        args[name][2, 5] = np.nan
        with pytest.raises(ValueError, match=f"{name} is non-finite at row 2"):
            chunked_prefill(model, args["tokens"], chunk_len=4, prefix=args["prefix"])
