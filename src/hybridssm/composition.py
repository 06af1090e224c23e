"""Training-free state composition for context extension.

Long inputs are split into chunks processed independently; the per-chunk
SSM states are then merged. For any layer with linear transitions the
concatenation state decomposes exactly over chunks,

    S(u_1 ... u_K) = S^(K) + sum_{c<K} S^(c) A^(c+1) ... A^(K),

with A^(c) the chunk's accumulated transition (scalar decay for Mamba-2
and gated GKA, a dense Householder-like product for GDN), recorded by
``ssm_core.run_chunk``, which the toy stack also calls. That is
``caso_compose``; ``picaso_r`` averages it over the K cyclic chunk orders
in O(K). Over scalar decays each is one weighted sum of the chunk states,
taken in place; GDN's dense transitions take GEMMs. GKA's information pair
additionally composes by plain summation when decay is off, and by souping
(averaging) as the default heuristic.
``chunked_prefill`` runs the whole three-step pipeline on a toy hybrid
stack: chunk with a shared prefix, prefill each chunk with reused position
ids, concatenate KV caches keeping one prefix copy, and merge SSM states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from .ssm_core import ChunkRecord, GkaInfoState, _require_finite
from .ssm_core import run_chunk, ssm_forward  # noqa: F401  (read here by the CLI and the benchmark)
from .stack import ATTENTION_KINDS, KvCache, ToyHybridStack

MERGE_MODES = ("soup", "picaso_r", "gka_sum")


def _describe(record: ChunkRecord) -> str:
    trans = "dense" if isinstance(record.a_acc, np.ndarray) else "scalar"
    state = "a GkaInfoState" if isinstance(record.state, GkaInfoState) else "an array"
    return f"a {trans} transition and {state} state"


def _scalar_records(chunks: Sequence[ChunkRecord]) -> bool:
    """True if the records' transitions are scalar decays, False if they are
    dense matrices. Raises ValueError on an empty list, and on one that
    mixes scalar and dense transitions or array and GkaInfoState states,
    naming the first record that differs from record 0."""
    if not chunks:
        raise ValueError("need at least one chunk")
    kinds = [(isinstance(c.a_acc, np.ndarray), isinstance(c.state, GkaInfoState)) for c in chunks]
    for i, kind in enumerate(kinds):
        if kind != kinds[0]:
            raise ValueError(f"record {i} has {_describe(chunks[i])}, "
                             f"unlike record 0's {_describe(chunks[0])}")
    dense, info = kinds[0]
    if dense and info:
        raise ValueError("info states take scalar (decay) transitions only")
    return not dense


def _check_composed(composer: str, *parts):
    """FloatingPointError naming the composer unless every part of the
    composed state is finite: finite records can still overflow."""
    if not all(np.isfinite(part).all() for part in parts):
        raise FloatingPointError(f"{composer}: the composed state is non-finite (overflow)")


def _by_part(chunks: Sequence[ChunkRecord], merge, composer: str):
    """merge applied to the records' states, or to their H and their U
    apart, which then form one GkaInfoState; checked by _check_composed.
    merge is a combination with weights >= 0 (the records' decays are), so
    the pair is built by GkaInfoState._derived, without the spectrum check."""
    if isinstance(chunks[0].state, GkaInfoState):
        h, u = merge([c.state.h for c in chunks]), merge([c.state.u for c in chunks])
        _check_composed(composer, h, u)
        return GkaInfoState._derived(h, u)
    state = merge([c.state for c in chunks])
    _check_composed(composer, state)
    return state


def caso_compose(chunks: Sequence[ChunkRecord]):
    """Exact composition of ordered chunk states for linear recurrences,
    S^(K) + sum_{c<K} S^(c) A^(c+1) ... A^(K), carried forward chunk by
    chunk, S <- S A^(c) + S^(c).

    Scalar decays (Mamba-2, GKA) are applied in place, by Horner's rule on
    the weights u_c = a_{c+1} ... a_{K-1} (0-based), and a GKA pair folds
    its H and its U into one GkaInfoState; dense transitions (GDN) take one
    GEMM a chunk. Raises ValueError on an empty list or one that mixes
    transition kinds or state types, and FloatingPointError naming
    caso_compose on a non-finite composed state."""
    if not _scalar_records(chunks):
        state = reduce(lambda s, c: s @ c.a_acc + c.state, chunks[1:], chunks[0].state)
        _check_composed("caso_compose", state)
        return state
    if len(chunks) == 1:
        return chunks[0].state

    def fold(states):
        acc = states[0] * chunks[1].a_acc + states[1]
        for state, chunk in zip(states[2:], chunks[2:]):
            acc *= chunk.a_acc
            acc += state
        return acc

    return _by_part(chunks, fold, "caso_compose")


def picaso_r(chunks: Sequence[ChunkRecord]):
    """Mean of caso_compose over the K cyclic chunk orderings.

    Scalar decays (Mamba-2, GKA) give one weighted sum of the states,
    accumulated in place (for GKA, of H and of U into one GkaInfoState).
    In the order starting at chunk s, chunk c is followed by chunks
    c+1 ... K-1 and then 0 ... s-1 when s <= c, and by c+1 ... s-1 when
    s > c, so (0-based) its weight is

        w_c = (prod_{j>c} a_j) sum_{r<=c} prod_{i<r} a_i + B_c, divided by K,

    with B_{K-1} = 0 and B_c = 1 + a_{c+1} B_{c+1}. Every term is >= 0, so
    nothing cancels. Dense transitions (GDN) take running prefix/suffix
    products, O(K) transition multiplies in all. Raises ValueError on an
    empty list or one that mixes transition kinds or state types, and
    FloatingPointError naming picaso_r on a non-finite composed state."""
    scalar = _scalar_records(chunks)
    K = len(chunks)
    if K == 1:
        return chunks[0].state
    if scalar:
        a = np.array([c.a_acc for c in chunks])
        earlier = np.ones_like(a)
        earlier[1:] = np.cumprod(a[:-1])  # prod_{i<r} a_i
        later = np.ones_like(a)
        later[:-1] = np.cumprod(a[:0:-1])[::-1]  # prod_{j>c} a_j
        b = np.zeros_like(a)
        for c in range(K - 2, -1, -1):
            b[c] = 1.0 + a[c + 1] * b[c + 1]
        w = (later * np.cumsum(earlier) + b) / K

        def weighted_sum(states):
            acc = states[0] * w[0]
            term = np.empty_like(acc)
            for state, weight in zip(states[1:], w[1:]):
                acc += np.multiply(state, weight, out=term)
            return acc

        return _by_part(chunks, weighted_sum, "picaso_r")

    eye = np.eye(chunks[0].a_acc.shape[0])
    zero = chunks[0].state * 0.0

    # prefix transition products L_s = A^(1..s) and prefix compositions
    # T_s = caso of the first s chunks, for s < K: the total reads no L_K, T_K
    prefix_prod = [eye]
    prefix_caso = [zero]
    for s in range(1, K):
        prefix_prod.append(prefix_prod[-1] @ chunks[s - 1].a_acc)
        prefix_caso.append(prefix_caso[-1] @ chunks[s - 1].a_acc + chunks[s - 1].state)

    # suffix products R_s = A^(s+1..K), for s >= 1 (the total reads no R_0),
    # and suffix compositions W_s = sum_{c>s} S^(c) A^(c+1..K)
    suffix_prod = [eye] * (K + 1)
    suffix_caso = [zero] * (K + 1)
    for s in range(K - 1, -1, -1):
        suffix_caso[s] = chunks[s].state @ suffix_prod[s + 1] + suffix_caso[s + 1]
        if s:
            suffix_prod[s] = chunks[s].a_acc @ suffix_prod[s + 1]

    # cyclic order starting at chunk s+1
    total = reduce(np.add, (suffix_caso[s] @ prefix_prod[s] + prefix_caso[s] for s in range(K)))
    total *= 1.0 / K
    _check_composed("picaso_r", total)
    return total


def gka_compose(infos: Sequence[GkaInfoState], mode: str = "sum") -> GkaInfoState:
    """Merge GKA information states: additive fusion ("sum", exact when
    decay is off) or souping ("soup", each chunk contributes equally).
    Either is a combination of GkaInfoStates with weights >= 0, so the
    result is built by GkaInfoState._derived, without the spectrum check;
    a sum that overflows still raises ValueError."""
    if not infos:
        raise ValueError("need at least one info state")
    h = sum(i.h for i in infos)
    u = sum(i.u for i in infos)
    if mode == "sum":
        return GkaInfoState._derived(h, u)
    if mode == "soup":
        return GkaInfoState._derived(h / len(infos), u / len(infos))
    raise ValueError(f"unknown mode: {mode!r}")


def soup_states(states: Sequence):
    """Arithmetic mean of states (arrays or GkaInfoStates)."""
    if not states:
        raise ValueError("need at least one state")
    if isinstance(states[0], GkaInfoState):
        return gka_compose(states, mode="soup")
    return sum(states) / len(states)


# -- chunked prefill on the toy hybrid stack ------------------------------


@dataclass(frozen=True)
class PrefillResult:
    layer_kinds: list
    kv_caches: dict = field(default_factory=dict)   # layer index -> KvCache
    ssm_states: dict = field(default_factory=dict)  # layer index -> merged state
    chunk_count: int = 1
    merge_mode: str = "soup"
    padded: int = 0


def _merge_ssm_layer(kind: str, records: list, merge_mode: str):
    """Merge one SSM layer's per-chunk ChunkRecords by merge_mode."""
    if merge_mode == "gka_sum":
        if kind != "gka":
            raise ValueError(f"gka_sum merge is only defined for GKA layers, not {kind!r}")
        return gka_compose([r.state for r in records], mode="sum")
    if merge_mode == "soup":
        return soup_states([r.state for r in records])
    return picaso_r(records)


def chunked_prefill(model: ToyHybridStack, tokens: np.ndarray, chunk_len: int,
                    prefix: np.ndarray | None = None,
                    merge_mode: str = "soup") -> PrefillResult:
    """Three-step composition pipeline: chunk the body (shared prefix
    prepended to each chunk), prefill chunks independently with position
    ids 0..P+L-1 reused per chunk, concatenate attention KV keeping one
    prefix copy, and merge SSM states per merge_mode.

    A non-divisible tail is padded with zero tokens (they write nothing;
    decay still applies), and the pad count is reported. Raises ValueError
    on a non-finite tokens or prefix, naming the argument and its first
    bad row.
    """
    if merge_mode not in MERGE_MODES:
        raise ValueError(f"merge_mode must be one of {MERGE_MODES}")
    tokens = np.asarray(tokens, dtype=np.float64)
    if chunk_len < 1:
        raise ValueError("chunk_len must be >= 1")
    prefix = np.zeros((0, model.d_model)) if prefix is None else np.asarray(prefix, dtype=np.float64)
    _require_finite(tokens=tokens, prefix=prefix)
    pad = (-tokens.shape[0]) % chunk_len
    if pad:
        tokens = np.vstack([tokens, np.zeros((pad, tokens.shape[1]))])
    n_chunks = tokens.shape[0] // chunk_len
    p_len = prefix.shape[0]

    per_layer_caches: list[list] = [[] for _ in model.mixers]
    for c in range(n_chunks):
        body = tokens[c * chunk_len:(c + 1) * chunk_len]
        trace = model.forward(np.vstack([prefix, body]), collect_caches=True)
        for i, cache in enumerate(trace.caches):
            per_layer_caches[i].append(cache)

    kinds = [kind for kind, _ in model.mixers]
    kv_caches = {}
    ssm_states = {}
    for i, kind in enumerate(kinds):
        caches = per_layer_caches[i]
        if kind in ATTENTION_KINDS:
            keys = [caches[0].keys[:p_len]] + [c.keys[p_len:] for c in caches]
            vals = [caches[0].values[:p_len]] + [c.values[p_len:] for c in caches]
            ids = [caches[0].pos_ids[:p_len]] + [c.pos_ids[p_len:] for c in caches]
            kv_caches[i] = KvCache(keys=np.vstack(keys), values=np.vstack(vals),
                                   pos_ids=np.concatenate(ids))
        else:
            ssm_states[i] = _merge_ssm_layer(kind, caches, merge_mode)
    return PrefillResult(layer_kinds=kinds, kv_caches=kv_caches, ssm_states=ssm_states,
                         chunk_count=n_chunks, merge_mode=merge_mode, padded=pad)


def single_pass_prefill(model: ToyHybridStack, tokens: np.ndarray,
                        prefix: np.ndarray | None = None) -> PrefillResult:
    """Oracle: one forward over prefix + full body."""
    prefix = np.zeros((0, model.d_model)) if prefix is None else np.asarray(prefix, dtype=np.float64)
    trace = model.forward(np.vstack([prefix, np.asarray(tokens, dtype=np.float64)]),
                          collect_caches=True)
    kv_caches = {i: c for i, c in enumerate(trace.caches) if isinstance(c, KvCache)}
    ssm_states = {i: c.state for i, c in enumerate(trace.caches) if isinstance(c, ChunkRecord)}
    kinds = [kind for kind, _ in model.mixers]
    return PrefillResult(layer_kinds=kinds, kv_caches=kv_caches, ssm_states=ssm_states)


def state_deviation(a, b) -> float:
    """Max-abs difference between two merged states of matching type."""
    if isinstance(a, GkaInfoState):
        return float(max(np.max(np.abs(a.h - b.h), initial=0.0),
                         np.max(np.abs(a.u - b.u), initial=0.0)))
    return float(np.max(np.abs(a - b), initial=0.0))
