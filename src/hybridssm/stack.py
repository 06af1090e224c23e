"""Toy hybrid decoder stack: a few decoder layers (sequence mixer + small
MLP with residuals) over vector sequences, used to exercise the alignment
losses, gate gradients, and chunked prefill without any pretrained model.

Mixers: full causal attention, sliding-window attention, or one of the
three SSM recurrences with sigmoid gates computed from the layer input and
L2-normalised queries and keys. An SSM layer runs ``ssm_core.ssm_forward``,
the same chunkwise kernels as everything else. The forward pass is plain
analytic numpy that keeps a complex dtype, so ``autodiff`` differentiates
gate parameters by the complex step.

A forward that collects caches gives each attention layer a ``KvCache``
(keys, values, position ids) and each SSM layer the ``ssm_core.ChunkRecord``
that ``composition`` merges: its final state and accumulated transition,
prod(gamma) for Mamba-2 and GKA and, for GDN, the state and dense
transition that ``ssm_core.run_chunk`` folds from the layer's keys, values
and gates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .mixing import causal_softmax_rows
from .ssm_core import ChunkRecord, GateTrack, _require_finite, run_chunk, ssm_forward

ATTENTION_KINDS = ("attn", "swa")
SSM_KINDS = ("mamba2", "gdn", "gka")


def parse_mixer(spec: str | tuple) -> tuple[str, int | None]:
    if isinstance(spec, tuple):
        kind, window = spec[0], (spec[1] if len(spec) > 1 else None)
    elif spec.startswith("swa:"):
        kind, window = "swa", int(spec.split(":")[1])
    else:
        kind, window = spec, None
    if kind not in ATTENTION_KINDS + SSM_KINDS:
        raise ValueError(f"unknown mixer kind: {kind!r}")
    return kind, window


@dataclass(frozen=True)
class KvCache:
    """An attention layer's keys (T, d_k), values (T, d_v) and position ids
    0..T-1: chunked prefill starts every chunk's ids from 0."""

    keys: np.ndarray
    values: np.ndarray
    pos_ids: np.ndarray


@dataclass
class StackTrace:
    """hidden[i] is the state after decoder layer i (hidden[0] the input);
    final is the post-final-norm output; caches[i], when collected, is
    layer i's KvCache (attention) or ChunkRecord (SSM)."""

    hidden: list
    final: object
    caches: list = field(default_factory=list)


_GATE_BIAS = {"gamma": 1.0, "beta": 0.5}


class ToyHybridStack:
    """Fixed seeded projections; the SSM gate projections are the trainable
    parameters (Stage-1 aligns only those)."""

    def __init__(self, mixers: Sequence[str | tuple], d_model: int = 16,
                 d_k: int = 6, d_v: int | None = None, seed: int = 0,
                 final_norm: str = "rms", gka_lam: float = 0.5,
                 fixed_gates: dict[int, tuple[float, float]] | None = None):
        if final_norm not in ("rms", "none"):
            raise ValueError(f"unknown final_norm: {final_norm!r}")
        if not gka_lam > 0.0:
            raise ValueError(f"gka_lam must be > 0, got {gka_lam}")
        self.fixed_gates = dict(fixed_gates or {})  # layer -> (gamma, beta) constants
        self.mixers = [parse_mixer(m) for m in mixers]
        self.d_model = d_model
        self.d_k = d_k
        self.d_v = d_v or d_k
        self.final_norm = final_norm
        self.gka_lam = gka_lam
        rng = np.random.default_rng(seed)
        self.weights: dict[str, np.ndarray] = {}
        self.params: dict[str, np.ndarray] = {}
        scale = 1.0 / np.sqrt(d_model)
        for i, (kind, _) in enumerate(self.mixers):
            for name, shape in (("wq", (self.d_k, d_model)), ("wk", (self.d_k, d_model)),
                                ("wv", (self.d_v, d_model)), ("wo", (d_model, self.d_v)),
                                ("mlp1", (2 * d_model, d_model)), ("mlp2", (d_model, 2 * d_model))):
                self.weights[f"{i}.{name}"] = scale * rng.standard_normal(shape)
            if kind in SSM_KINDS:
                for gate, bias in _GATE_BIAS.items():
                    self.params[f"{i}.{gate}_w"] = scale * rng.standard_normal(d_model)
                    self.params[f"{i}.{gate}_b"] = np.array(bias)

    def ssm_param_names(self) -> list[str]:
        return sorted(self.params)

    def swap_layer(self, i: int, spec: str | tuple) -> "ToyHybridStack":
        """A copy with mixer i replaced; the copy shares no mutable state
        with this stack. A slot that becomes an SSM keeps its gate
        parameters if it had them, else starts from zero gate weights and
        the constructor's biases; a slot that becomes attention drops them."""
        clone = object.__new__(ToyHybridStack)
        clone.__dict__.update(self.__dict__)
        clone.mixers = list(self.mixers)
        clone.mixers[i] = parse_mixer(spec)
        clone.weights = dict(self.weights)
        clone.params = {name: p.copy() for name, p in self.params.items()}
        clone.fixed_gates = dict(self.fixed_gates)
        for gate, bias in _GATE_BIAS.items():
            if clone.mixers[i][0] in SSM_KINDS:
                clone.params.setdefault(f"{i}.{gate}_w", np.zeros(self.d_model))
                clone.params.setdefault(f"{i}.{gate}_b", np.array(bias))
            else:
                clone.params.pop(f"{i}.{gate}_w", None)
                clone.params.pop(f"{i}.{gate}_b", None)
        return clone

    # -- forward -------------------------------------------------------

    def _mixer_forward(self, i: int, kind: str, window: int | None, x, params,
                       collect_cache: bool):
        w = self.weights
        q = x @ w[f"{i}.wq"].T
        k = x @ w[f"{i}.wk"].T
        v = x @ w[f"{i}.wv"].T
        T = x.shape[0]
        cache = None
        if kind in ATTENTION_KINDS:
            mix = causal_softmax_rows(q @ k.T, None if kind == "attn" else window)
            y = mix @ v
            if collect_cache:
                cache = KvCache(keys=k, values=v, pos_ids=np.arange(T))
        else:
            if i in self.fixed_gates:
                g0, b0 = self.fixed_gates[i]
                gamma = np.full(T, float(g0))
                beta = np.full(T, float(b0))
            else:
                gamma = _sigmoid(x @ params[f"{i}.gamma_w"] + params[f"{i}.gamma_b"])
                beta = _sigmoid(x @ params[f"{i}.beta_w"] + params[f"{i}.beta_b"])
            y, cache = self._ssm_scan(kind, _unit_rows(k), v, _unit_rows(q), gamma, beta,
                                      collect_cache)
        return x + y @ w[f"{i}.wo"].T, cache

    def _ssm_scan(self, kind, k, v, q, gamma, beta, collect_cache):
        """GKA runs with the fixed regularizer lam_t = gka_lam: the adaptive
        alpha ||H_t||_F is not analytic, so a complex step cannot pass it.
        With collect_cache the layer's ChunkRecord comes back beside y."""
        lam = np.full(len(gamma), self.gka_lam) if kind == "gka" else None
        gates = GateTrack(gamma, beta, lam)
        y, s = ssm_forward(kind, k, v, q, gates)
        if not collect_cache:
            return y, None
        if kind == "gdn":  # a dense transition, folded with the state
            return y, run_chunk(kind, k, v, gates)
        return y, ChunkRecord(state=s, a_acc=float(np.prod(gamma.real)))

    def forward(self, x: np.ndarray, params: dict | None = None,
                collect_caches: bool = False) -> StackTrace:
        """Run the stack on x (T, d_model). params overrides named gate
        parameters; a complex x or params (a complex step) stays complex.
        Raises ValueError naming the first row of x that is non-finite."""
        x = np.asarray(x)
        _require_finite(x=x)
        params = self.params if params is None else {**self.params, **params}
        hidden = [x]
        caches = []
        for i, (kind, window) in enumerate(self.mixers):
            x, cache = self._mixer_forward(i, kind, window, x, params, collect_caches)
            x = x + np.tanh(x @ self.weights[f"{i}.mlp1"].T) @ self.weights[f"{i}.mlp2"].T
            hidden.append(x)
            if collect_caches:
                caches.append(cache)
        final = rmsnorm(x) if self.final_norm == "rms" else x
        return StackTrace(hidden=hidden, final=final, caches=caches)


def _unit_rows(z):
    """Rows of z scaled to unit L2 norm, as Gated DeltaNet does with its
    queries and keys (GDN's erase contracts only for ||k|| <= 1). The norm
    is sqrt(sum z * z), analytic, so a complex step passes through it; a
    zero row, such as a padding token's, stays zero and writes nothing."""
    norm = np.sqrt(np.sum(z * z, axis=-1, keepdims=True))
    return z / np.where(norm == 0.0, 1.0, norm)


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def rmsnorm(x, eps: float = 1e-6):
    """Per-token RMS normalization."""
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + eps)
