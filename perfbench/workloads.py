"""The benchmark's four workloads. Each is a closed-loop stream of
identically shaped requests from one client: the next request starts when
the previous one has returned.

A workload object holds what set-up builds (the decode state, shard
plans); ``inputs(i)`` draws request i's inputs from the seed alone, and
``run`` is the request, the library work that is timed. ``run`` is a
generator: each ``yield`` ends one timed segment of the request (see
refclock.py), and its return value is the request's output. ``checks`` then
compares the outputs with their references at the library's documented
tolerances; a check with ``tol == 0`` must hold exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hybridssm import composition, kernels, mixing, realization, seqpar, ssm_core, tiled_decode
from hybridssm.ssm_core import GateTrack

N_RANKS = 4
PATTERN = "zigzag"


@dataclass(frozen=True)
class Check:
    name: str
    err: float
    tol: float  # 0 means the check must hold exactly

    @property
    def ok(self) -> bool:
        return bool(np.isfinite(self.err)) and self.err <= self.tol


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0))


def non_finite(*arrays) -> float:
    return float(sum(np.count_nonzero(~np.isfinite(np.asarray(a))) for a in arrays))


def request_rng(seed: int, index: int) -> np.random.Generator:
    """Request `index`'s generator; index 0 is set-up and the warm-up."""
    return np.random.default_rng([seed, index])


def chunk_gates(gates: GateTrack, n_chunks: int) -> list:
    step = gates.T // n_chunks
    return [GateTrack(gamma=gates.gamma[c * step:(c + 1) * step],
                      beta=gates.beta[c * step:(c + 1) * step],
                      lam=None if gates.lam is None else gates.lam[c * step:(c + 1) * step])
            for c in range(n_chunks)]


def cross_rank_handoffs(plan: seqpar.ShardPlan) -> int:
    """Chunk boundaries whose two sides live on different ranks."""
    return sum(plan.owner[c] != plan.owner[c + 1] for c in range(plan.n_chunks - 1))


class Realize:
    """Minimal LTV realization of one softmax mixer per request."""

    name = "realize"
    T, D_K = 64, 8  # T=128 takes 1.5-2 s a request, too few for a steady median
    tokens = T
    TOL = 1e-9

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes = {"T": self.T, "d_k": self.D_K}
        self.expected_counts = {}

    def inputs(self, index: int):
        seq = mixing.random_token_sequence(self.T, self.D_K, rng=request_rng(self.seed, index))
        return mixing.build_attention_mixer(seq)

    def run(self, mix):
        profile = mixing.hankel_profile(mix)
        yield
        real = realization.realize(mix)
        yield
        report = realization.verify_minimality(real, mix)
        yield
        # the CLI's check that no cut of the reconstruction exceeds rank n
        recon_ranks = mixing.hankel_profile(np.tril(realization.io_matrix(real))).ranks
        return {"n_min": profile.n_min, "n": real.n, "report": report,
                "recon_ranks": recon_ranks}

    def checks(self, mix, out):
        report = out["report"]
        return [
            Check("realize.reconstruction", report.reconstruction_error, self.TOL),
            Check("realize.minimal", float(abs(out["n"] - out["n_min"])
                                           + (not report.is_minimal)), 0.0),
            Check("realize.rank_cuts", float(np.sum(out["recon_ranks"] > out["n"])), 0.0),
        ]


class PrefillLinear:
    """Prefill of one long sequence through the linear recurrences (Mamba-2,
    GDN), their P2P sequence-parallel and chunk-composition paths, and the
    sharded conv1d."""

    name = "prefill_linear"
    T, D = 1024, 64
    N_CHUNKS = 16
    D_CONV, CHANNELS = 4, 64
    tokens = T
    TOL = 1e-10

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes = {"T": self.T, "d_k": self.D, "d_v": self.D, "n_ranks": N_RANKS,
                      "pattern": PATTERN, "chunks": self.N_CHUNKS, "d_conv": self.D_CONV,
                      "conv_channels": self.CHANNELS}
        self.plan = seqpar.shard(self.T, N_RANKS, PATTERN)
        handoffs = cross_rank_handoffs(self.plan)
        eb = seqpar.DEFAULT_ELEM_BYTES
        self.p2p_bytes = handoffs * seqpar.comm_volume(
            "p2p", self.T, self.D, N_RANKS, state_bytes=self.D * self.D * eb)
        self.conv_bytes = handoffs * seqpar.comm_volume(
            "p2p", self.T, self.CHANNELS, N_RANKS, d_conv=self.D_CONV)
        self.expected_counts = {"seqpar.bus.messages": 3 * handoffs,
                                "seqpar.bus.bytes": 2 * self.p2p_bytes + self.conv_bytes}

    def inputs(self, index: int):
        rng = request_rng(self.seed, index)
        k = rng.standard_normal((self.T, self.D))
        k /= np.linalg.norm(k, axis=1, keepdims=True)  # GDN's documented domain
        gates = GateTrack(gamma=rng.uniform(0.9, 1.0, self.T), beta=rng.uniform(0.1, 0.9, self.T))
        return {"k": k, "v": rng.standard_normal((self.T, self.D)),
                "q": rng.standard_normal((self.T, self.D)), "gates": gates,
                "chunk_gates": chunk_gates(gates, self.N_CHUNKS),
                "u": rng.standard_normal((self.T, self.CHANNELS)),
                "w": rng.standard_normal(self.D_CONV)}

    def run(self, inp):
        k, v, q, gates = inp["k"], inp["v"], inp["q"], inp["gates"]
        step = self.T // self.N_CHUNKS
        out = {}
        for kind in ("mamba2", "gdn"):
            y, state = ssm_core.ssm_forward(kind, k, v, q, gates)
            yield
            bus = seqpar.MessageBus(N_RANKS)
            y_p2p, state_p2p = seqpar.p2p_forward(kind, k, v, q, gates, self.plan, bus)
            yield
            records = [composition.run_chunk(kind, k[c * step:(c + 1) * step],
                                             v[c * step:(c + 1) * step], sub)
                       for c, sub in enumerate(inp["chunk_gates"])]
            out[kind] = {"y": y, "state": state, "y_p2p": y_p2p, "state_p2p": state_p2p,
                         "bus": bus.total_bytes(), "caso": composition.caso_compose(records),
                         "picaso": composition.picaso_r(records)}
            yield
        y_conv = kernels.conv1d_direct(inp["u"], inp["w"])
        bus = seqpar.MessageBus(N_RANKS)
        out["conv"] = {"y": y_conv, "y_sp": seqpar.conv1d_sp(inp["u"], inp["w"], self.plan, bus),
                       "bus": bus.total_bytes()}
        return out

    def checks(self, inp, out):
        result = []
        for kind in ("mamba2", "gdn"):
            o = out[kind]
            result += [
                Check(f"p2p.{kind}", max(max_abs(o["y_p2p"], o["y"]),
                                         max_abs(o["state_p2p"], o["state"])), self.TOL),
                Check(f"caso.{kind}", composition.state_deviation(o["caso"], o["state"]),
                      self.TOL),
                Check(f"picaso.{kind}.finite", non_finite(o["picaso"]), 0.0),
                Check(f"p2p.{kind}.bus_bytes", abs(o["bus"] - self.p2p_bytes), 0.0),
            ]
        conv = out["conv"]
        result += [
            Check("conv1d.sp", float(np.count_nonzero(conv["y_sp"] != conv["y"])), 0.0),
            Check("conv1d.bus_bytes", abs(conv["bus"] - self.conv_bytes), 0.0),
        ]
        return result


class PrefillGka:
    """Prefill of one sequence through GKA: exact and Chebyshev solves, the
    recurrence-form equivalence, USP sequence parallelism and additive
    chunk fusion."""

    name = "prefill_gka"
    T, D = 128, 64  # T=256 takes 4-5 s a request; 128 fits ~9 in a 20 s run
    N_CHUNKS = 4
    LAM, CHEB_R = 0.5, 30
    tokens = T
    FORM_TOL, FUSION_TOL = 1e-9, 1e-10

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes = {"T": self.T, "d_k": self.D, "d_v": self.D, "lam": self.LAM,
                      "chebyshev_r": self.CHEB_R, "n_ranks": N_RANKS, "pattern": PATTERN,
                      "chunks": self.N_CHUNKS}
        self.plan = seqpar.shard(self.T, N_RANKS, PATTERN)
        # AllGather: each rank receives the other ranks' shards of the input
        self.usp_bytes = N_RANKS * seqpar.comm_volume("usp", self.T, self.D, N_RANKS)
        self.expected_counts = {"seqpar.bus.messages": N_RANKS * (N_RANKS - 1),
                                "seqpar.bus.bytes": self.usp_bytes}

    def inputs(self, index: int):
        rng = request_rng(self.seed, index)
        T, D = self.T, self.D
        exact = GateTrack(gamma=np.ones(T), beta=rng.uniform(0.1, 0.9, T),
                          lam=np.full(T, self.LAM))
        decaying = GateTrack(gamma=rng.uniform(0.9, 1.0, T), beta=rng.uniform(0.1, 0.9, T))
        return {"k": rng.standard_normal((T, D)), "v": rng.standard_normal((T, D)),
                "q": rng.standard_normal((T, D)), "exact": exact, "decaying": decaying,
                "chunk_gates": chunk_gates(exact, self.N_CHUNKS)}

    def run(self, inp):
        k, v, q, exact = inp["k"], inp["v"], inp["q"], inp["exact"]
        y, info = ssm_core.ssm_forward("gka", k, v, q, exact)
        yield
        y_cheb, _ = ssm_core.ssm_forward("gka", k, v, q, inp["decaying"],
                                         solver="chebyshev", r=self.CHEB_R)
        yield
        form_gap = ssm_core.gka_recurrence_equivalence(k, v, q, exact)
        yield

        def layer(x):
            return ssm_core.ssm_forward("gka", k, x, q, exact)[0]

        bus = seqpar.MessageBus(N_RANKS)
        y_usp = seqpar.usp_forward(layer, v, self.plan, bus)
        yield
        step = self.T // self.N_CHUNKS
        records = [composition.run_chunk("gka", k[c * step:(c + 1) * step],
                                         v[c * step:(c + 1) * step], sub)
                   for c, sub in enumerate(inp["chunk_gates"])]
        fused = composition.gka_compose([r.state for r in records], mode="sum")
        return {"y": y, "info": info, "y_cheb": y_cheb, "form_gap": form_gap,
                "y_usp": y_usp, "bus": bus.total_bytes(), "fused": fused}

    def checks(self, inp, out):
        return [
            Check("gka.form_equivalence", out["form_gap"], self.FORM_TOL),
            Check("gka.usp", float(np.count_nonzero(out["y_usp"] != out["y"])), 0.0),
            Check("gka.fusion", composition.state_deviation(out["fused"], out["info"]),
                  self.FUSION_TOL),
            Check("gka.finite", non_finite(out["y"], out["y_cheb"]), 0.0),
            Check("gka.usp.bus_bytes", abs(out["bus"] - self.usp_bytes), 0.0),
        ]


class DecodeGka:
    """One GKA decode step per request at large d, taken by all three
    tiled-decode variants from the same state; the state chains from the
    reference result, as the CLI's tile-bench does."""

    name = "decode_gka"
    D, TILE, CHEB_R, ALPHA = 256, 64, 30, 0.05
    tokens = 1
    TOL = 1e-9
    TILED = ("tiled_small_batch", "tiled_large_batch")

    def __init__(self, seed: int):
        self.seed = seed
        self.sizes = {"d_k": self.D, "d_v": self.D, "b_k": self.TILE, "b_v": self.TILE,
                      "chebyshev_r": self.CHEB_R, "alpha": self.ALPHA}
        rng = request_rng(seed, 0)
        g = rng.standard_normal((self.D, self.D))
        self.state = ssm_core.GkaInfoState(h=g @ g.T, u=rng.standard_normal((self.D, self.D)))
        self.traffic = {v: tiled_decode.traffic_model(self.D, self.TILE, v, self.CHEB_R)
                        for v in tiled_decode.VARIANTS}
        self.expected_counts = {}
        for variant, rep in self.traffic.items():
            self.expected_counts[f"tiled_decode.tile_loads.{variant}"] = rep.tiles_loaded
            self.expected_counts[f"tiled_decode.tile_stores.{variant}"] = rep.tiles_stored

    def inputs(self, index: int):
        rng = request_rng(self.seed, index)
        return {"k": rng.standard_normal(self.D), "v": rng.standard_normal(self.D),
                "q": rng.standard_normal(self.D), "gamma": float(rng.uniform(0.7, 1.0)),
                "beta": float(rng.uniform(0.3, 1.0))}

    def run(self, inp):
        results = {}
        for variant in tiled_decode.VARIANTS:
            if results:
                yield
            results[variant] = tiled_decode.decode_step(
                self.state, inp["k"], inp["v"], inp["q"], inp["gamma"], inp["beta"], variant,
                r=self.CHEB_R, alpha=self.ALPHA, b_k=self.TILE, b_v=self.TILE)
        self.state = results["reference"].state
        return results

    def checks(self, inp, out):
        ref = out["reference"]
        result = [Check("decode.reference.finite", non_finite(ref.y), 0.0)]
        for variant in self.TILED:
            result.append(Check(f"decode.{variant}", max_abs(out[variant].y, ref.y), self.TOL))
        for variant, rep in self.traffic.items():
            got = out[variant].counters
            result.append(Check(f"decode.{variant}.tile_traffic",
                                float(abs(got.loads - rep.tiles_loaded)
                                      + abs(got.stores - rep.tiles_stored)), 0.0))
        return result


WORKLOADS = {w.name: w for w in (Realize, PrefillLinear, PrefillGka, DecodeGka)}
