"""Training-free state composition for context extension.

Long inputs are split into chunks processed independently; the per-chunk
SSM states are then merged. For any layer with linear transitions the
concatenation state decomposes exactly over chunks,

    S(u_1 ... u_K) = S^(K) + sum_{c<K} S^(c) A^(c+1) ... A^(K),

with A^(c) the chunk's accumulated transition (scalar decay for Mamba-2
and gated GKA, a dense Householder-like product for GDN). That is
``caso_compose``; ``picaso_r`` averages it over the K cyclic chunk orders
in O(K). GKA's information pair additionally composes by plain summation
when decay is off, and by souping (averaging) as the default heuristic.
``chunked_prefill`` runs the whole three-step pipeline on a toy hybrid
stack: chunk with a shared prefix, prefill each chunk with reused position
ids, concatenate KV caches keeping one prefix copy, and merge SSM states.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from typing import Sequence

import numpy as np

from . import kernels
from .ssm_core import (ChunkRecord, GateTrack, GkaInfoState, SsmKind, _as_kind,
                       _real_or_complex, _require_finite)
from .ssm_core import ssm_forward  # unused here; the benchmark's tracer test reads it
from .stack import ATTENTION_KINDS, KvCache, ToyHybridStack

MERGE_MODES = ("soup", "picaso_r", "gka_sum")


def _apply(state, trans):
    """state . trans, for scalar or dense transitions and array or info states."""
    if isinstance(state, GkaInfoState):
        if isinstance(trans, np.ndarray):
            raise ValueError("info states take scalar (decay) transitions only")
        return GkaInfoState(h=state.h * trans, u=state.u * trans)
    if isinstance(trans, np.ndarray):
        return state @ trans
    return state * trans


def _add(a, b):
    if isinstance(a, GkaInfoState):
        return GkaInfoState(h=a.h + b.h, u=a.u + b.u)
    return a + b


def _compose(trans_left, trans_right):
    """Transition product trans_left . trans_right (sequence order)."""
    if isinstance(trans_left, np.ndarray) or isinstance(trans_right, np.ndarray):
        left = trans_left if isinstance(trans_left, np.ndarray) else trans_left * np.eye(trans_right.shape[0])
        right = trans_right if isinstance(trans_right, np.ndarray) else trans_right * np.eye(left.shape[0])
        return left @ right
    return trans_left * trans_right


def _identity_like(trans):
    return np.eye(trans.shape[0]) if isinstance(trans, np.ndarray) else 1.0


def run_chunk(kind: SsmKind | str, k: np.ndarray, v: np.ndarray, gates: GateTrack) -> ChunkRecord:
    """Process one chunk from the zero state and record (state, A_acc). For
    GDN, kernels.gdn_chunk_states gives each block of kernels.CHUNK tokens
    its zero-start end state e_c and transition a_end_c from the keys,
    values and gates alone (no queries), and the blocks fold in order,
    state <- state a_end_c + e_c and A_acc <- A_acc a_end_c. For Mamba-2
    and GKA A_acc = prod(gamma) and the state is the writes decayed to the
    chunk's end, U = (V w)^T K and GKA's H = (K w)^T K, symmetrised, with
    w_i = gamma_{i+1} ... gamma_n (times beta_i for GKA). Raises ValueError
    naming a k or v that is not 2-D with one row per gate step or is
    non-finite, and FloatingPointError on an overflowed state (or, for
    GDN, transition)."""
    kind = _as_kind(kind)
    k, v = _real_or_complex(k), _real_or_complex(v)
    for name, x in (("k", k), ("v", v)):
        if x.ndim != 2 or x.shape[0] != gates.T:
            raise ValueError(f"{name} must be 2-D with one row per gate step "
                             f"(T = {gates.T}), got shape {x.shape}")
    _require_finite(k=k, v=v)
    d_v, d_k = v.shape[1], k.shape[1]
    if kind is SsmKind.GDN:
        e, a_end = kernels.gdn_chunk_states(k, v, gates.gamma, gates.beta)
        if not len(e):  # no tokens: the zero state and the identity
            return ChunkRecord(state=np.zeros((d_v, d_k)), a_acc=np.eye(d_k))
        s, a_acc = e[0], a_end[0]
        for c in range(1, len(e)):
            s, a_acc = s @ a_end[c] + e[c], a_acc @ a_end[c]
        if not (np.all(np.isfinite(s)) and np.all(np.isfinite(a_acc))):
            raise FloatingPointError("gdn chunk state is non-finite")
        return ChunkRecord(state=s, a_acc=a_acc)
    a_acc = float(np.prod(gates.gamma))
    w = np.ones_like(gates.gamma)
    w[:-1] = np.cumprod(gates.gamma[:0:-1])[::-1]  # w_i = gamma_{i+1} ... gamma_n
    if kind is SsmKind.GKA:  # H rides along as d_k more value columns
        w, v = w * gates.beta, np.hstack([v, k])
    s = (v * w[:, None]).T @ k
    if not np.all(np.isfinite(s)):
        raise FloatingPointError(f"{kind.value} chunk state is non-finite")
    if kind is SsmKind.MAMBA2:
        return ChunkRecord(state=s, a_acc=a_acc)
    h = s[d_v:]
    return ChunkRecord(state=GkaInfoState._derived(0.5 * (h + h.T), s[:d_v]), a_acc=a_acc)


def _carry(merged, chunk: ChunkRecord):
    """The state after one more chunk: merged . A^(c) + S^(c)."""
    return _add(_apply(merged, chunk.a_acc), chunk.state)


def caso_compose(chunks: Sequence[ChunkRecord]):
    """Exact composition of ordered chunk states for linear recurrences,
    carried forward chunk by chunk."""
    if not chunks:
        raise ValueError("need at least one chunk")
    return reduce(_carry, chunks[1:], chunks[0].state)


def picaso_r(chunks: Sequence[ChunkRecord]):
    """Mean of caso_compose over the K cyclic chunk orderings, via running
    prefix/suffix products (O(K) transition multiplies total)."""
    if not chunks:
        raise ValueError("need at least one chunk")
    K = len(chunks)
    if K == 1:
        return chunks[0].state

    eye = _identity_like(chunks[0].a_acc)
    zero = _apply(chunks[0].state, 0.0)

    # prefix transition products L_s = A^(1..s) and prefix compositions
    # T_s = caso of the first s chunks
    prefix_prod = [eye]
    prefix_caso = [zero]
    for s in range(1, K + 1):
        prefix_prod.append(_compose(prefix_prod[-1], chunks[s - 1].a_acc))
        prefix_caso.append(_carry(prefix_caso[-1], chunks[s - 1]))

    # suffix products R_s = A^(s+1..K) and suffix compositions
    # W_s = sum_{c>s} S^(c) A^(c+1..K)
    suffix_prod = [eye] * (K + 1)
    suffix_caso = [zero] * (K + 1)
    for s in range(K - 1, -1, -1):
        suffix_caso[s] = _add(_apply(chunks[s].state, suffix_prod[s + 1]), suffix_caso[s + 1])
        suffix_prod[s] = _compose(chunks[s].a_acc, suffix_prod[s + 1])

    total = None
    for s in range(K):  # cyclic order starting at chunk s+1
        v_s = _add(_apply(suffix_caso[s], prefix_prod[s]), prefix_caso[s])
        total = v_s if total is None else _add(total, v_s)
    return _apply(total, 1.0 / K)


def gka_compose(infos: Sequence[GkaInfoState], mode: str = "sum") -> GkaInfoState:
    """Merge GKA information states: additive fusion ("sum", exact when
    decay is off) or souping ("soup", each chunk contributes equally)."""
    if not infos:
        raise ValueError("need at least one info state")
    h = sum(i.h for i in infos)
    u = sum(i.u for i in infos)
    if mode == "sum":
        return GkaInfoState(h=h, u=u)
    if mode == "soup":
        return GkaInfoState(h=h / len(infos), u=u / len(infos))
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
