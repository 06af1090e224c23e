"""Stage-0 weight transfer from attention to SSM layers, gate and AGQA
initialization, importance-based layer selection, and the Stage-1
alignment losses on the toy hybrid stack.

Transfer copies the attention projections (and QK norms) verbatim into
the SSM layer, initializes the output gate as a blend of the transposed
output projection and the group-expanded value projection, and draws the
SSM-specific parameters from a seeded distribution. Layer selection ranks
layers by how much a sliding-window substitution hurts a downstream
evaluator and converts the M least important ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import autodiff as ad
from .mixing import TokenSequence, build_attention_mixer, build_swa_mixer
from .stack import StackTrace, ToyHybridStack


# -- Stage 0: weight transfer ------------------------------------------

@dataclass(frozen=True)
class AttentionWeights:
    """Source attention projections. w_q: (H_Q d_head, d_model); w_k, w_v:
    (H_KV d_head, d_model); w_o: (d_model, H_Q d_head); optional per-head-dim
    q/k norm scales."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    h_q: int
    h_kv: int
    d_head: int
    q_norm: np.ndarray | None = None
    k_norm: np.ndarray | None = None

    def __post_init__(self):
        if self.h_q % self.h_kv != 0:
            raise ValueError(f"H_Q={self.h_q} not divisible by H_KV={self.h_kv}")
        d_model = self.w_q.shape[1]
        expect = {
            "w_q": (self.h_q * self.d_head, d_model),
            "w_k": (self.h_kv * self.d_head, d_model),
            "w_v": (self.h_kv * self.d_head, d_model),
            "w_o": (d_model, self.h_q * self.d_head),
        }
        for name, shape in expect.items():
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} shape {got}, expected {shape}")
        for name in ("q_norm", "k_norm"):
            norm = getattr(self, name)
            if norm is not None and norm.shape != (self.d_head,):
                raise ValueError(f"{name} must be per-head-dim, shape ({self.d_head},)")

    @property
    def group_size(self) -> int:
        return self.h_q // self.h_kv


@dataclass(frozen=True)
class SsmLayerWeights:
    """Transferred SSM layer: attention projections copied verbatim, gate
    from gate_init, kind-specific theta seeded randomly. needs_expansion
    marks K/V paths that require AGQA group expansion (m > 1)."""

    kind: str
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_g: np.ndarray
    theta: dict = field(default_factory=dict)
    q_norm: np.ndarray | None = None
    k_norm: np.ndarray | None = None
    group_size: int = 1

    @property
    def needs_expansion(self) -> bool:
        return self.group_size > 1


def repeat_heads(w: np.ndarray, m: int, d_head: int = 1) -> np.ndarray:
    """Repeat each d_head-row head block m times (GQA replication of a
    stacked projection). d_head=1 repeats individual rows."""
    if w.shape[0] % d_head != 0:
        raise ValueError(f"{w.shape[0]} rows not divisible by d_head={d_head}")
    heads = w.reshape(w.shape[0] // d_head, d_head, *w.shape[1:])
    return np.repeat(heads, m, axis=0).reshape(w.shape[0] * m, *w.shape[1:])


def gate_init(w_o: np.ndarray, w_v: np.ndarray, m: int, d_head: int = 1) -> np.ndarray:
    """Output-gate initialization: W_G = 0.5 (W_O^T + repeat_interleave(W_V, m))."""
    expanded = repeat_heads(w_v, m, d_head)
    if expanded.shape != w_o.T.shape:
        raise ValueError(f"expanded W_V {expanded.shape} incompatible with W_O^T {w_o.T.shape}")
    return 0.5 * (w_o.T + expanded)


# theta shapes per SSM kind (per-head gate/dynamics projections at toy scale)
_THETA_SPECS = {
    "mamba2": {"gamma_proj": ("d_model",), "conv": (4,)},
    "gdn": {"gamma_proj": ("d_model",), "beta_proj": ("d_model",), "conv": (4,)},
    "gka": {"gamma_proj": ("d_model",), "beta_proj": ("d_model",), "conv": (4,)},
}


def transfer_weights(src: AttentionWeights, kind: str, seed: int = 42) -> SsmLayerWeights:
    """Stage-0 mapping: Q/K/V/O and QK norms copied from the source
    attention layer, W_G from gate_init, remaining parameters seeded."""
    kind = kind.value if hasattr(kind, "value") else str(kind)
    if kind not in _THETA_SPECS:
        raise ValueError(f"unknown SSM kind: {kind!r}")
    m = src.group_size
    rng = np.random.default_rng(seed)
    d_model = src.w_q.shape[1]
    theta = {}
    for name, shape in _THETA_SPECS[kind].items():
        dims = tuple(d_model if s == "d_model" else s for s in shape)
        theta[name] = rng.standard_normal(dims) / np.sqrt(d_model)
    return SsmLayerWeights(
        kind=kind,
        w_q=src.w_q.copy(), w_k=src.w_k.copy(), w_v=src.w_v.copy(), w_o=src.w_o.copy(),
        w_g=gate_init(src.w_o, src.w_v, m, src.d_head),
        theta=theta,
        q_norm=None if src.q_norm is None else src.q_norm.copy(),
        k_norm=None if src.k_norm is None else src.k_norm.copy(),
        group_size=m,
    )


# -- AGQA state expansion ----------------------------------------------

@dataclass
class AgqaParams:
    """Learned low-rank head expansion plus a residual replication matrix.
    At initialization w2 = 0 and r_mat is the GQA replication
    I_{H_KV} (x) 1_{m x 1}, so the map starts as plain replication."""

    w1: np.ndarray            # (rank, H_KV * d_head)
    w2: np.ndarray            # (H_Q * d_head, rank)
    r_mat: np.ndarray         # (H_Q, H_KV)
    h_q: int
    h_kv: int
    d_head: int


def gqa_replication_matrix(h_q: int, h_kv: int) -> np.ndarray:
    m = h_q // h_kv
    return np.kron(np.eye(h_kv), np.ones((m, 1)))


def agqa_init(h_q: int, h_kv: int, d_head: int, rank: int = 8, seed: int = 42) -> AgqaParams:
    if h_q % h_kv != 0:
        raise ValueError(f"H_Q={h_q} not divisible by H_KV={h_kv}")
    rng = np.random.default_rng(seed)
    return AgqaParams(
        w1=rng.standard_normal((rank, h_kv * d_head)) / np.sqrt(h_kv * d_head),
        w2=np.zeros((h_q * d_head, rank)),
        r_mat=gqa_replication_matrix(h_q, h_kv),
        h_q=h_q, h_kv=h_kv, d_head=d_head,
    )


def _silu(x: np.ndarray) -> np.ndarray:
    return x / (1.0 + np.exp(-x))


def agqa_forward(p: AgqaParams, x: np.ndarray) -> np.ndarray:
    """Expand an (H_KV, d_head) head block to (H_Q, d_head):
    mat(W2 silu(W1 vec(X))) + R X."""
    if x.shape != (p.h_kv, p.d_head):
        raise ValueError(f"head block shape {x.shape}, expected ({p.h_kv}, {p.d_head})")
    low_rank = (p.w2 @ _silu(p.w1 @ x.reshape(-1))).reshape(p.h_q, p.d_head)
    return low_rank + p.r_mat @ x


def gqa_replicate(x: np.ndarray, m: int) -> np.ndarray:
    """Plain GQA replication of an (H_KV, d_head) block."""
    return np.repeat(x, m, axis=0)


# -- layer selection (importance scoring) -------------------------------

@dataclass(frozen=True)
class ImportanceTable:
    """Per-layer retained score under single-layer SWA substitution and the
    induced importance (baseline - score)."""

    baseline: float
    scores: np.ndarray
    importances: np.ndarray
    window: int


Evaluator = Callable[[int | None, int], float]


def importance_scores(evaluator: Evaluator, n_layers: int, w: int) -> ImportanceTable:
    """Evaluate the model with only layer i swapped to SWA(w), for every i.
    The evaluator returns a score in [0, 1] for (substituted layer, window);
    None means the unmodified baseline."""

    def run(layer):
        try:
            score = float(evaluator(layer, w))
        except Exception as exc:
            raise RuntimeError(f"evaluator failed for layer {layer}") from exc
        if not 0.0 <= score <= 1.0 or not np.isfinite(score):
            raise ValueError(f"evaluator score out of [0, 1] for layer {layer}: {score}")
        return score

    baseline = run(None)
    scores = np.array([run(i) for i in range(n_layers)])
    return ImportanceTable(baseline=baseline, scores=scores,
                           importances=baseline - scores, window=w)


def select_layers(table: ImportanceTable, m: int) -> list[int]:
    """Indices of the m least important layers; ties break toward the
    smaller index (stable sort)."""
    n = len(table.importances)
    if not 0 <= m <= n:
        raise ValueError(f"cannot select {m} of {n} layers")
    order = np.argsort(table.importances, kind="stable")
    return sorted(int(i) for i in order[:m])


def make_recall_evaluator(T: int = 12, d: int = 6, seed: int = 0) -> Evaluator:
    """Synthetic copy/recall task through a 3-layer mixer stack.

    Layers 0 and 2 mix locally (each position attends to itself); layer 1
    routes the value written at position 0 to the final position. The score
    is exp(-||readout - needle||^2), so substituting the long-range layer
    with a small window collapses it while the local layers shrug it off.
    """
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal((T, d))
    codes = 10.0 * np.eye(T)
    q_local = codes
    q_long = codes.copy()
    q_long[T - 1] = codes[0]  # final position queries the first token's code
    layer_qk = [(q_local, codes), (q_long, codes), (q_local, codes)]

    def evaluator(layer: int | None, w: int) -> float:
        vals = x0
        for i, (q, k) in enumerate(layer_qk):
            seq = TokenSequence(q=q, k=k, v=vals)
            mix = build_swa_mixer(seq, w) if i == layer else build_attention_mixer(seq)
            vals = mix.m @ vals
        return float(np.exp(-np.sum((vals[T - 1] - x0[0]) ** 2)))

    return evaluator


# -- Stage 1: alignment losses ------------------------------------------

def alignment_loss(mode: str, hybrid_trace: StackTrace, teacher_trace: StackTrace):
    """e2e: squared Frobenius distance of the post-norm final hidden states.
    layerwise: mean over decoder layers of the squared distance between each
    model's own layer output (teacher layer on teacher input vs hybrid layer
    on hybrid input). A complex-step perturbed trace gives a complex loss."""
    if mode == "e2e":
        ha, ta = hybrid_trace.final, teacher_trace.final
        if ad.value(ha).shape != ad.value(ta).shape:
            raise ValueError("final hidden state shapes differ")
        diff = ha - ta
        return (diff * diff).sum()
    if mode != "layerwise":
        raise ValueError(f"unknown alignment mode: {mode!r}")
    hh, th = hybrid_trace.hidden, teacher_trace.hidden
    if len(hh) != len(th):
        raise ValueError("traces have different depth")
    n_layers = len(hh) - 1  # hidden[0] is the shared input embedding
    total = 0.0
    for h, t in zip(hh[1:], th[1:]):
        if ad.value(h).shape != ad.value(t).shape:
            raise ValueError("per-layer hidden state shapes differ")
        diff = h - t
        total = total + (diff * diff).sum()
    return total * (1.0 / n_layers)


def alignment_loss_fn(mode: str, hybrid: ToyHybridStack, teacher: ToyHybridStack,
                      x: np.ndarray, param_name: str):
    """Loss as a function of one hybrid parameter (for gradients)."""
    teacher_trace = teacher.forward(x)

    def f(p):
        trace = hybrid.forward(x, params={param_name: p})
        return alignment_loss(mode, trace, teacher_trace)

    return f


def stage1_align(teacher: ToyHybridStack, hybrid: ToyHybridStack,
                 inputs: list[np.ndarray], mode: str = "e2e",
                 steps: int = 10, lr: float = 0.02) -> list[float]:
    """Demonstration Stage-1 loop: plain fixed-step gradient descent on the
    hybrid's SSM gate parameters only, via complex-step gradients.

    This verifies loss/gradient plumbing, nothing more. The production-scale
    recipe trains the SSM parameters (everything else frozen) against the
    end-to-end loss at 8K context over ~40B tokens, with 2M-token global
    batches, a constant 1e-4 learning rate, and 4% warmup; none of those
    settings are meaningful at toy scale and none are asserted here.
    """
    names = hybrid.ssm_param_names()
    params = {n: hybrid.params[n].copy() for n in names}
    teacher_traces = [teacher.forward(x) for x in inputs]
    history = []

    def loss(ps):
        total = 0.0
        for x, tt in zip(inputs, teacher_traces):
            total = total + alignment_loss(mode, hybrid.forward(x, params=ps), tt)
        return total

    for _ in range(steps):
        history.append(float(ad.value(loss(params))))
        for name in names:
            grad = ad.gradient(lambda p, _name=name: loss({**params, _name: p}), params[name])
            params[name] = params[name] - lr * grad
    history.append(float(ad.value(loss(params))))
    hybrid.params.update(params)
    return history
