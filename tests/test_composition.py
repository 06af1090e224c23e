import re

import numpy as np
import pytest

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
        monkeypatch.setattr(ssm_core, "chunk_forward", forbidden)
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
        # GDN names the caller's v, not one with chunk_forward's columns
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
