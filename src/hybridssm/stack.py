"""Toy hybrid decoder stack: a few decoder layers (sequence mixer + small
MLP with residuals) over vector sequences, used to exercise the alignment
losses, gate gradients, and chunked prefill without any pretrained model.

Mixers: full causal attention, sliding-window attention, or one of the
three SSM recurrences with sigmoid gates computed from the layer input.
The forward pass is written against the Dual-aware ops in ``autodiff`` so
gate parameters can be differentiated in forward mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import kernels

ATTENTION_KINDS = ("attn", "swa")
SSM_KINDS = ("mamba2", "gdn", "gka")


def parse_mixer(spec: str | tuple) -> tuple[str, int | None]:
    if isinstance(spec, tuple):
        return spec[0], (spec[1] if len(spec) > 1 else None)
    if spec.startswith("swa:"):
        return "swa", int(spec.split(":")[1])
    return spec, None


@dataclass
class LayerCache:
    """Per-layer artifacts of one forward pass."""

    kind: str
    keys: np.ndarray | None = None        # attention: (T, d_k)
    values: np.ndarray | None = None      # attention: (T, d_v)
    pos_ids: np.ndarray | None = None
    state: np.ndarray | None = None       # mamba2/gdn: final (d_v, d_k)
    decay_prod: float | None = None       # mamba2/gka: prod of gammas
    trans_prod: np.ndarray | None = None  # gdn: dense accumulated transition
    info_h: np.ndarray | None = None      # gka
    info_u: np.ndarray | None = None


@dataclass
class StackTrace:
    """hidden[i] is the state after decoder layer i (hidden[0] the input);
    final is the post-final-norm output."""

    hidden: list
    final: object
    caches: list = field(default_factory=list)


def _causal_softmax_rows(scores, lo):
    """Dual-aware causal (optionally windowed) row softmax. The row max is
    treated as a constant shift; softmax is shift-invariant so gradients
    are unaffected."""
    T = ad.value(scores).shape[0]
    rows = []
    for i in range(T):
        seg = scores[i][lo[i]: i + 1]
        e = ad.exp(seg - float(ad.value(seg).max()))
        w = e / e.sum()
        if ad.is_dual(w):
            pad_l = np.zeros(lo[i])
            pad_r = np.zeros(T - i - 1)
            rows.append(ad.Dual(np.concatenate([pad_l, w.val, pad_r]),
                                np.concatenate([pad_l, w.dot, pad_r])))
        else:
            rows.append(np.concatenate([np.zeros(lo[i]), w, np.zeros(T - i - 1)]))
    return ad.stack_rows(rows)


class ToyHybridStack:
    """Fixed seeded projections; the SSM gate projections are the trainable
    parameters (Stage-1 aligns only those)."""

    def __init__(self, mixers: Sequence[str | tuple], d_model: int = 16,
                 d_k: int = 6, d_v: int | None = None, seed: int = 0,
                 final_norm: str = "rms", gka_lam: float = 0.5,
                 fixed_gates: dict[int, tuple[float, float]] | None = None):
        if final_norm not in ("rms", "none"):
            raise ValueError(f"unknown final_norm: {final_norm!r}")
        self.fixed_gates = dict(fixed_gates or {})  # layer -> (gamma, beta) constants
        self.mixers = [parse_mixer(m) for m in mixers]
        for kind, _ in self.mixers:
            if kind not in ATTENTION_KINDS + SSM_KINDS:
                raise ValueError(f"unknown mixer kind: {kind!r}")
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
                self.params[f"{i}.gamma_w"] = scale * rng.standard_normal(d_model)
                self.params[f"{i}.gamma_b"] = np.array(1.0)
                self.params[f"{i}.beta_w"] = scale * rng.standard_normal(d_model)
                self.params[f"{i}.beta_b"] = np.array(0.5)

    def ssm_param_names(self) -> list[str]:
        return sorted(self.params)

    def swap_layer(self, i: int, spec: str | tuple) -> "ToyHybridStack":
        mixers = [m for m in self.mixers]
        mixers[i] = parse_mixer(spec)
        clone = object.__new__(ToyHybridStack)
        clone.__dict__.update(self.__dict__)
        clone.mixers = mixers
        return clone

    # -- forward -------------------------------------------------------

    def _mixer_forward(self, i: int, kind: str, window: int | None, x, params,
                       pos_offset: int, collect_cache: bool):
        w = self.weights
        q = x @ w[f"{i}.wq"].T
        k = x @ w[f"{i}.wk"].T
        v = x @ w[f"{i}.wv"].T
        T = ad.value(x).shape[0]
        cache = None
        if kind in ATTENTION_KINDS:
            lo = np.zeros(T, dtype=np.int64) if kind == "attn" \
                else np.maximum(np.arange(T) - window + 1, 0)
            mix = _causal_softmax_rows(q @ k.T, lo)
            y = mix @ v
            if collect_cache:
                cache = LayerCache(kind=kind, keys=ad.value(k), values=ad.value(v),
                                   pos_ids=np.arange(pos_offset, pos_offset + T))
        else:
            if i in self.fixed_gates:
                g0, b0 = self.fixed_gates[i]
                gamma = np.full(T, float(g0))
                beta = np.full(T, float(b0))
            else:
                gamma = ad.sigmoid(x @ params[f"{i}.gamma_w"] + params[f"{i}.gamma_b"])
                beta = ad.sigmoid(x @ params[f"{i}.beta_w"] + params[f"{i}.beta_b"])
            y, cache = self._ssm_scan(kind, k, v, q, gamma, beta, collect_cache)
        return x + y @ w[f"{i}.wo"].T, cache

    def _ssm_scan(self, kind, k, v, q, gamma, beta, collect_cache):
        T = ad.value(k).shape[0]
        ys = []
        if kind == "gka":
            h = np.zeros((self.d_k, self.d_k))
            u = np.zeros((self.d_v, self.d_k))
            for t in range(T):
                h = gamma[t] * h + beta[t] * ad.outer(k[t], k[t])
                u = gamma[t] * u + beta[t] * ad.outer(v[t], k[t])
                x_t = ad.solve(h + self.gka_lam * np.eye(self.d_k), q[t])
                ys.append(u @ x_t)
            cache = None
            if collect_cache:
                cache = LayerCache(kind=kind, info_h=ad.value(h), info_u=ad.value(u),
                                   decay_prod=float(np.prod(ad.value(gamma))))
            return ad.stack_rows(ys), cache
        s = np.zeros((self.d_v, self.d_k))
        for t in range(T):
            if kind == "mamba2":
                s = gamma[t] * s + ad.outer(v[t], k[t])
            else:  # gdn
                sk = s @ k[t]
                s = gamma[t] * (s - beta[t] * ad.outer(sk, k[t])) + beta[t] * ad.outer(v[t], k[t])
            ys.append(s @ q[t])
        cache = None
        if collect_cache:
            trans = None
            if kind == "gdn":
                _, trans = kernels.gdn_transition_prefixes(
                    ad.value(k), ad.value(gamma), ad.value(beta), ad.value(q))
            cache = LayerCache(kind=kind, state=ad.value(s),
                               decay_prod=float(np.prod(ad.value(gamma))), trans_prod=trans)
        return ad.stack_rows(ys), cache

    def forward(self, x: np.ndarray, params: dict | None = None,
                pos_offset: int = 0, collect_caches: bool = False) -> StackTrace:
        params = self.params if params is None else {**self.params, **params}
        hidden = [x]
        caches = []
        for i, (kind, window) in enumerate(self.mixers):
            x, cache = self._mixer_forward(i, kind, window, x, params, pos_offset, collect_caches)
            x = x + ad.tanh(x @ self.weights[f"{i}.mlp1"].T) @ self.weights[f"{i}.mlp2"].T
            hidden.append(x)
            if collect_caches:
                caches.append(cache)
        final = rmsnorm(x) if self.final_norm == "rms" else x
        return StackTrace(hidden=hidden, final=final, caches=caches)


def rmsnorm(x, eps: float = 1e-6):
    """Per-token RMS normalization, Dual-aware."""
    ms = (x * x).mean(axis=-1, keepdims=True) if isinstance(x, ad.Dual) \
        else np.mean(x * x, axis=-1, keepdims=True)
    return x / ad.sqrt(ms + eps)
