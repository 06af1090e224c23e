import numpy as np
import pytest

from hybridssm import kernels
from hybridssm.seqpar import (
    MessageBus,
    comm_volume,
    conv1d_sp,
    p2p_forward,
    shard,
    usp_forward,
)
from hybridssm.ssm_core import GateTrack, NonFiniteOutput, SsmKind, ssm_forward


def rand_layer_inputs(T, d_k=4, d_v=3, seed=0, gamma_range=(0.6, 1.0)):
    rng = np.random.default_rng(seed)
    k = rng.standard_normal((T, d_k))
    v = rng.standard_normal((T, d_v))
    q = rng.standard_normal((T, d_k))
    gates = GateTrack(gamma=rng.uniform(*gamma_range, T), beta=rng.uniform(0.2, 1.0, T),
                      lam=np.full(T, 0.5))
    return k, v, q, gates


class TestShard:
    def test_single_rank_owns_everything(self):
        plan = shard(8, 1, "simple")
        assert plan.rank_chunks(0) == [0]
        assert plan.chunk_slice(0) == slice(0, 8)

    def test_simple_contiguous_blocks(self):
        plan = shard(8, 2, "simple")
        assert plan.rank_token_slices(0) == [slice(0, 4)]
        assert plan.rank_token_slices(1) == [slice(4, 8)]

    def test_zigzag_pairs_first_and_last(self):
        # 4 ranks, 8 chunk units: rank 0 gets chunks 0 and 7
        plan = shard(8, 4, "zigzag")
        assert plan.n_chunks == 8
        assert plan.rank_chunks(0) == [0, 7]
        assert plan.rank_chunks(1) == [1, 6]
        assert plan.rank_chunks(3) == [3, 4]

    def test_chunks_partition_sequence(self):
        for pattern in ("simple", "zigzag"):
            plan = shard(24, 4, pattern)
            seen = np.zeros(24, dtype=int)
            for c in range(plan.n_chunks):
                seen[plan.chunk_slice(c)] += 1
            assert np.all(seen == 1)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            shard(10, 4, "simple")
        with pytest.raises(ValueError):
            shard(12, 4, "zigzag")
        with pytest.raises(ValueError):
            shard(8, 2, "spiral")


class TestMessageBus:
    def test_receive_requires_send(self):
        bus = MessageBus(2)
        with pytest.raises(RuntimeError):
            bus.recv(1, 0, "x")

    def test_fifo_per_channel_and_totals(self):
        bus = MessageBus(2)
        bus.send(0, 1, "t", "a", 10)
        bus.send(0, 1, "t", "b", 20)
        assert bus.recv(1, 0, "t") == "a"
        assert bus.recv(1, 0, "t") == "b"
        assert bus.traces[0].bytes_sent == 30
        assert bus.traces[1].bytes_received == 30
        stamps = [m.timestamp for m in bus.traces[0].sent + bus.traces[1].received]
        assert len(set(stamps)) == len(stamps)


class TestConv1dSp:
    def test_no_communication_for_pointwise_filter(self):
        rng = np.random.default_rng(1)
        u = rng.standard_normal((8, 2))
        w = np.array([2.0])
        plan = shard(8, 2, "simple")
        bus = MessageBus(2)
        y = conv1d_sp(u, w, plan, bus)
        assert np.array_equal(y, 2.0 * u)
        assert bus.total_bytes() == 0

    @pytest.mark.parametrize("pattern", ["simple", "zigzag"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_bitwise_equal_to_single_device(self, pattern, n):
        rng = np.random.default_rng(2)
        u = rng.standard_normal((32, 3))
        w = rng.standard_normal(4)
        plan = shard(32, n, pattern)
        got = conv1d_sp(u, w, plan, MessageBus(n))
        assert np.array_equal(got, kernels.conv1d_direct(u, w))

    def test_halo_size_is_filter_minus_one(self):
        rng = np.random.default_rng(3)
        for l in (16, 32):
            u = rng.standard_normal((l, 2))
            w = rng.standard_normal(4)
            plan = shard(l, 2, "simple")
            bus = MessageBus(2)
            conv1d_sp(u, w, plan, bus)
            sent = bus.traces[0].sent
            assert len(sent) == 1
            assert sent[0].nbytes == 3 * 2 * 2  # (d_conv-1) tokens x channels x elem_bytes

    def test_oversized_filter_reported(self):
        plan = shard(8, 4, "simple")
        with pytest.raises(ValueError, match="exceeds local chunk"):
            conv1d_sp(np.zeros((8, 1)), np.ones(3), plan)


class TestP2pForward:
    def test_cumulative_sum_correction_is_plain_state_addition(self):
        # Mamba-2 with gamma == 1: A_{1:n} = 1, so the correction is S_0 q_n
        T = 8
        rng = np.random.default_rng(4)
        k = rng.standard_normal((T, 3))
        v = rng.standard_normal((T, 2))
        q = rng.standard_normal((T, 3))
        gates = GateTrack(gamma=np.ones(T), beta=np.ones(T))
        plan = shard(T, 2, "simple")
        y, s = p2p_forward(SsmKind.MAMBA2, k, v, q, gates, plan, MessageBus(2))
        y_ref, s_ref = ssm_forward(SsmKind.MAMBA2, k, v, q, gates)
        assert np.max(np.abs(y - y_ref)) < 1e-12
        assert np.max(np.abs(s - s_ref)) < 1e-12

    @pytest.mark.parametrize("kind", [SsmKind.MAMBA2, SsmKind.GDN])
    @pytest.mark.parametrize("pattern", ["simple", "zigzag"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_single_device_forward(self, kind, pattern, n):
        # oracle: single-device ssm_core forward
        T = 32
        k, v, q, gates = rand_layer_inputs(T, seed=5)
        plan = shard(T, n, pattern)
        y, s = p2p_forward(kind, k, v, q, gates, plan, MessageBus(n))
        y_ref, s_ref = ssm_forward(kind, k, v, q, gates)
        assert np.max(np.abs(y - y_ref)) < 1e-10
        assert np.max(np.abs(s - s_ref)) < 1e-10

    def test_zero_input_ranks_emit_initial_state_response(self):
        # zero inputs beyond rank 0: outputs there are (S_0 A_{1:n}) q_n
        T = 12
        rng = np.random.default_rng(6)
        k = rng.standard_normal((T, 3))
        v = rng.standard_normal((T, 2))
        v[4:] = 0.0
        q = rng.standard_normal((T, 3))
        gamma = rng.uniform(0.5, 1.0, T)
        gates = GateTrack(gamma=gamma, beta=np.ones(T))
        plan = shard(T, 3, "simple")
        y, _ = p2p_forward(SsmKind.MAMBA2, k, v, q, gates, plan, MessageBus(3))
        _, s4 = ssm_forward(SsmKind.MAMBA2, k[:4], v[:4], q[:4],
                            GateTrack(gamma=gamma[:4], beta=np.ones(4)))
        for t in range(4, T):
            decay = np.prod(gamma[4:t + 1])
            assert np.allclose(y[t], decay * (s4 @ q[t]), atol=1e-11)

    def test_zigzag_matches_simple(self):
        T = 32
        k, v, q, gates = rand_layer_inputs(T, seed=7)
        y_simple, s_simple = p2p_forward(SsmKind.GDN, k, v, q, gates,
                                         shard(T, 4, "simple"), MessageBus(4))
        y_zig, s_zig = p2p_forward(SsmKind.GDN, k, v, q, gates,
                                   shard(T, 4, "zigzag"), MessageBus(4))
        assert np.max(np.abs(y_simple - y_zig)) < 1e-10
        assert np.max(np.abs(s_simple - s_zig)) < 1e-10

    def test_state_messages_constant_size(self):
        T = 32
        k, v, q, gates = rand_layer_inputs(T, seed=8)
        bus = MessageBus(4)
        p2p_forward(SsmKind.GDN, k, v, q, gates, shard(T, 4, "simple"), bus)
        sizes = {m.nbytes for t in bus.traces for m in t.sent}
        assert sizes == {3 * 4 * 2}  # d_v * d_k * elem_bytes

    def test_non_finite_key_raises(self):
        T, d = 64, 8
        rng = np.random.default_rng(14)
        k, v, q = (rng.standard_normal((T, d)) for _ in range(3))
        k[5, 0] = np.nan
        gates = GateTrack(gamma=rng.uniform(0.6, 1.0, T), beta=rng.uniform(0.2, 1.0, T))
        with pytest.raises(ValueError, match="k is non-finite at row 5"):
            p2p_forward(SsmKind.GDN, k, v, q, gates, shard(T, 4, "zigzag"), MessageBus(4))
        k[5, 0] = 0.0
        k[20, 0] = np.nan  # in the third chunk: the row is a sequence row
        with pytest.raises(ValueError, match="k is non-finite at row 20"):
            p2p_forward(SsmKind.GDN, k, v, q, gates, shard(T, 4, "zigzag"), MessageBus(4))

    @pytest.mark.parametrize("pattern", ["simple", "zigzag"])
    def test_overflow_in_the_corrections_raises(self, pattern):
        # no chunk overflows from the zero state; the relayed state does,
        # and the error names a sequence row
        T, d = 400, 16
        rng = np.random.default_rng(0)
        k = rng.standard_normal((T, d))
        k *= 8.0 / np.linalg.norm(k, axis=1, keepdims=True)
        v, q = rng.standard_normal((T, d)), rng.standard_normal((T, d))
        gates = GateTrack(gamma=np.full(T, 0.99), beta=np.ones(T))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError, match=r"gdn output is non-finite from row 3\d\d"):
                p2p_forward(SsmKind.GDN, k, v, q, gates, shard(T, 4, pattern), MessageBus(4))

    def test_overflow_inside_a_chunk_names_a_sequence_row(self):
        # unit keys, then keys of norm 8 from row 400: the second of two
        # chunks overflows from the zero state, 332 rows into the chunk
        T, d = 800, 16
        rng = np.random.default_rng(0)
        k = rng.standard_normal((T, d))
        k /= np.linalg.norm(k, axis=1, keepdims=True)
        k[400:] *= 8.0
        v, q = rng.standard_normal((T, d)), rng.standard_normal((T, d))
        gates = GateTrack(gamma=np.full(T, 0.99), beta=np.ones(T))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NonFiniteOutput, match="gdn output is non-finite from row 732"):
                ssm_forward(SsmKind.GDN, k, v, q, gates)
            # the chunk's transition columns may overflow a row before its outputs
            with pytest.raises(NonFiniteOutput, match="gdn output is non-finite from row 73[12]"):
                p2p_forward(SsmKind.GDN, k, v, q, gates, shard(T, 2, "simple"), MessageBus(2))

    @pytest.mark.parametrize("pattern", ["simple", "zigzag"])
    @pytest.mark.parametrize("T", [32, 4 * (kernels.CHUNK + 3)])
    def test_gdn_solves_each_chunk_once(self, monkeypatch, pattern, T):
        # count the systems solved: every chunk is cut into whole blocks of
        # L tokens, and each block is one system; chunks of at least CHUNK
        # tokens are all solved in one call, shorter ones one call each
        systems = []
        solve = kernels._ut_solve
        monkeypatch.setattr(kernels, "_ut_solve",
                            lambda n, rhs: systems.append(n.shape[0]) or solve(n, rhs))
        k, v, q, gates = rand_layer_inputs(T, seed=10)
        plan = shard(T, 2, pattern)
        p2p_forward(SsmKind.GDN, k, v, q, gates, plan, MessageBus(2))
        n = T // plan.n_chunks
        L = min(kernels.CHUNK, n)
        assert sum(systems) == plan.n_chunks * -(-n // L)
        assert len(systems) == (1 if n >= kernels.CHUNK else plan.n_chunks)

    def test_gka_rejected(self):
        T = 8
        k, v, q, gates = rand_layer_inputs(T, seed=9)
        with pytest.raises(ValueError, match="usp_forward"):
            p2p_forward(SsmKind.GKA, k, v, q, gates, shard(T, 2, "simple"))


class TestUspForward:
    def test_identity_layer_returns_shards_unchanged(self):
        x = np.random.default_rng(10).standard_normal((12, 3))
        plan = shard(12, 3, "simple")
        assert np.array_equal(usp_forward(lambda z: z, x, plan), x)

    def test_prefix_sum_layer(self):
        # oracle: direct prefix sums
        x = np.random.default_rng(11).standard_normal((12, 2))
        plan = shard(12, 3, "simple")
        got = usp_forward(lambda z: np.cumsum(z, axis=0), x, plan, MessageBus(3))
        assert np.array_equal(got, np.cumsum(x, axis=0))

    @pytest.mark.parametrize("pattern", ["simple", "zigzag"])
    @pytest.mark.parametrize("n", [2, 4])
    def test_gka_layer_matches_single_device_exactly(self, pattern, n):
        T = 16
        k, v, q, gates = rand_layer_inputs(T, seed=12)

        def gka_layer(x):
            y, _ = ssm_forward(SsmKind.GKA, k, x, q, gates)
            return y

        plan = shard(T, n, pattern)
        got = usp_forward(gka_layer, v, plan, MessageBus(n))
        assert np.array_equal(got, gka_layer(v))

    def test_gather_volume_logged(self):
        T, d = 12, 3
        x = np.zeros((T, d))
        plan = shard(T, 3, "simple")
        bus = MessageBus(3)
        usp_forward(lambda z: z, x, plan, bus)
        per_rank = (T - T // 3) * d * 2
        for trace in bus.traces:
            assert trace.bytes_received == per_rank


class TestCommVolume:
    def test_p2p_independent_of_sequence_length(self):
        vols = {comm_volume("p2p", l, 4096, 8, state_bytes=2 ** 20, d_conv=4)
                for l in (16384, 65536, 262144, 1048576)}
        assert len(vols) == 1

    def test_a2a_linear_in_length(self):
        lengths = np.array([16384, 32768, 65536, 131072])
        vols = np.array([comm_volume("a2a", l, 4096, 8) for l in lengths], dtype=float)
        assert np.allclose(vols / lengths, vols[0] / lengths[0])

    def test_reference_gdn_layer_volumes(self):
        # 128K tokens, N_SP=8, width 8192 (16 K-heads + 16 Q + 32 V at head
        # dim 128), BF16: a2a totals 4 GiB while the P2P state is 1 MiB.
        l, d, n_sp = 131072, 8192, 8
        state_bytes = 32 * 128 * 128 * 2
        a2a_total = comm_volume("a2a", l, d, n_sp, n_heads=32) * n_sp
        assert abs(a2a_total - 4 * 2 ** 30) / (4 * 2 ** 30) < 0.05
        assert state_bytes == 2 ** 20
        p2p = comm_volume("p2p", l, d, n_sp, state_bytes=state_bytes, d_conv=4)
        assert p2p < 1.1 * 2 ** 20

    def test_head_divisibility_enforced_for_a2a_only(self):
        with pytest.raises(ValueError, match="heads"):
            comm_volume("a2a", 1024, 64, 8, n_heads=12)
        comm_volume("p2p", 1024, 64, 8, state_bytes=100, n_heads=12)  # no constraint

    def test_usp_volume(self):
        assert comm_volume("usp", 1000, 10, 4) == 3 * 1000 * 10 * 2 // 4

    def test_usp_linear_in_length(self):
        lengths = np.array([16384, 32768, 65536, 131072])
        vols = np.array([comm_volume("usp", l, 4096, 8) for l in lengths], dtype=float)
        assert np.allclose(vols / lengths, vols[0] / lengths[0])

    def test_bad_inputs_rejected(self):
        with pytest.raises(ValueError):
            comm_volume("p2p", 0, 4, 2)
        with pytest.raises(ValueError):
            comm_volume("ring", 8, 4, 2)

    def test_simulated_p2p_traffic_matches_model(self):
        T, d_k, d_v, n = 32, 4, 3, 4
        k, v, q, gates = rand_layer_inputs(T, d_k=d_k, d_v=d_v, seed=13)
        bus = MessageBus(n)
        p2p_forward(SsmKind.GDN, k, v, q, gates, shard(T, n, "simple"), bus)
        state_bytes = d_v * d_k * 2
        modeled = comm_volume("p2p", T, d_k, n, state_bytes=state_bytes, d_conv=1)
        # interior ranks send exactly one state payload: the modeled volume
        assert bus.traces[1].bytes_sent == modeled == state_bytes
