"""Analytical decode-throughput model for hybrid vs transformer serving
under KV-cache saturation.

At saturation the batch-length product is pinned by the KV budget; swapping
a fraction r of attention layers for fixed-state SSM layers frees that
fraction of the budget, letting the hybrid serve batch b' = b/(1-r) on the
same hardware while moving the same aggregate KV bytes per step. The
decode-throughput ratio is then

    R = (1/(1-r)) * [t_attn(b,l) + t_mlp(b)]
        / [(1-r) t_attn(b',l) + t_mlp(b') + r t_ssm(b')],

which at long context collapses to R -> (1/(1-r)^2) t_attn(b,l)/t_attn(b',l):
the limit is set entirely by how the attention kernel's cost scales with
batch size (linear scaling gives 1/(1-r); sub-linear beats it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

DEFAULT_SSM_EQUIV_TOKENS = 2048  # fixed-state read modeled as this much KV

PRESETS = ("linear", "sqrt", "quadratic")


@dataclass(frozen=True)
class CostProfile:
    """Per-layer cost callables (arbitrary time units): t_attn(b, l) grows
    with batch and context, t_mlp(b) and t_ssm(b) with batch only."""

    t_attn: Callable
    t_mlp: Callable
    t_ssm: Callable
    n_layers: int
    hybrid_ratio: float

    def __post_init__(self):
        if not 0.0 <= self.hybrid_ratio < 1.0:
            raise ValueError(f"hybrid ratio must lie in [0, 1), got {self.hybrid_ratio}")
        if self.n_layers < 1:
            raise ValueError("need at least one layer")


def hybrid_batch(b, r):
    """Saturated hybrid batch b' = b / (1 - r)."""
    return b / (1 - r)


def throughput_ratio(profile: CostProfile, b, l):
    """Decode tokens/s of the hybrid over the source transformer."""
    r = profile.hybrid_ratio
    bp = hybrid_batch(b, r)
    transformer = profile.t_attn(b, l) + profile.t_mlp(b)
    hybrid = (1 - r) * profile.t_attn(bp, l) + profile.t_mlp(bp) + r * profile.t_ssm(bp)
    return (1 / (1 - r)) * transformer / hybrid


def limit_ratio(profile: CostProfile, b, l):
    """Large-context limit: attention dominates both forward passes."""
    r = profile.hybrid_ratio
    bp = hybrid_batch(b, r)
    return (1 / (1 - r) ** 2) * profile.t_attn(b, l) / profile.t_attn(bp, l)


def implied_batch_scaling(r, observed_limit):
    """Attention batch-scaling factor t_attn(b') / t_attn(b) implied by an
    observed limiting throughput ratio (e.g. a measured long-context
    speedup); linear scaling corresponds to 1/(1-r)."""
    return (1 / (1 - r) ** 2) / observed_limit


def kv_traffic_transformer(b, n, l):
    """Aggregate KV bytes read per decode step, transformer side."""
    return b * n * l


def kv_traffic_hybrid(b, n, l, r):
    """Hybrid side at the saturated batch: b' (1-r) n l. Equal to the
    transformer's b n l identically (the conservation law)."""
    return hybrid_batch(b, r) * (1 - r) * n * l


def make_profile(preset: str, n_layers: int = 32, hybrid_ratio: float = 0.5,
                 ssm_equiv_tokens: int = DEFAULT_SSM_EQUIV_TOKENS,
                 c_mlp: float = 1.0) -> CostProfile:
    """Preset cost shapes for sensitivity sweeps: attention cost linear,
    square-root, or quadratic in batch (always linear in context); the SSM
    state read is attention cost at a fixed equivalent context."""
    if preset == "linear":
        t_attn = lambda b, l: b * l
    elif preset == "sqrt":
        t_attn = lambda b, l: b ** 0.5 * l
    elif preset == "quadratic":
        t_attn = lambda b, l: b * b * l
    else:
        raise ValueError(f"preset must be one of {PRESETS}, got {preset!r}")
    return CostProfile(
        t_attn=t_attn,
        t_mlp=lambda b: c_mlp * b,
        t_ssm=lambda b: t_attn(b, ssm_equiv_tokens),
        n_layers=n_layers,
        hybrid_ratio=hybrid_ratio,
    )


def sweep_lengths(profile: CostProfile, b, lengths):
    """(l, R, R_limit) rows for a context-length sweep."""
    return [(l, throughput_ratio(profile, b, l), limit_ratio(profile, b, l))
            for l in lengths]
