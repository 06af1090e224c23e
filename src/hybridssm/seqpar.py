"""Deterministic sequence-parallelism simulator for SSM layers.

Ranks hold sequence shards (contiguous "simple" chunks, or "zigzag" pairs
that balance causal work); cross-rank traffic flows over an in-process
message bus that totally orders each channel and logs payload sizes. Three
mechanisms are modeled:

  * conv1d boundary exchange: each chunk needs the previous chunk's last
    d_conv - 1 tokens, after which the causal conv is local.
  * P2P state passing: every rank runs its chunk from the state the
    previous chunk hands on, and relays its end state onward (the
    intra-/inter-chunk split of Sun et al., "Linear Attention Sequence
    Parallelism", 2024). Valid for recurrences with linear readout (Mamba-2,
    GDN). A chunk's block terms do not depend on its start state, so when
    every chunk holds at least one whole block of ``kernels.CHUNK`` tokens
    the simulator takes every chunk's block terms from one chunkwise kernel
    call over the whole sequence, and each rank carries the state it
    received through its own chunks' blocks (``kernels._carry``). A plan
    with a shorter chunk runs one ``ssm_forward`` per chunk from the
    handed-on state, which perfbench's tracer test counts.
  * USP gather-compute-slice: reconstruct the full sequence per rank, run
    the unmodified layer, keep the local slice. Works for any layer,
    including GKA; the simulator runs the layer once and slices it for
    every rank, since every rank would compute the same output.

``comm_volume`` is the accounting side: P2P volume is constant in sequence
length, A2A and USP scale linearly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .ssm_core import (GateTrack, NonFiniteOutput, SsmKind, _as_kind, _finite_output,
                       _layer_inputs, _real_or_complex, _require_finite, _require_real,
                       ssm_forward)

DEFAULT_ELEM_BYTES = 2  # BF16 accounting; simulation arithmetic stays float64


@dataclass(frozen=True)
class ShardPlan:
    """Chunk layout: chunk c covers [bounds[c], bounds[c+1]) and lives on
    rank owner[c]. Simple: one contiguous chunk per rank. Zigzag: 2N chunks,
    rank i owns chunks i and 2N-1-i."""

    length: int
    n_ranks: int
    pattern: str
    bounds: tuple
    owner: tuple

    @property
    def n_chunks(self) -> int:
        return len(self.owner)

    def chunk_slice(self, c: int) -> slice:
        return slice(self.bounds[c], self.bounds[c + 1])

    def rank_chunks(self, rank: int) -> list[int]:
        return [c for c, r in enumerate(self.owner) if r == rank]

    def rank_token_slices(self, rank: int) -> list[slice]:
        return [self.chunk_slice(c) for c in self.rank_chunks(rank)]


def plan_to_obj(plan: ShardPlan) -> dict:
    """JSON-serializable form of a shard plan."""
    return {"length": plan.length, "n_ranks": plan.n_ranks, "pattern": plan.pattern,
            "bounds": list(plan.bounds), "owner": list(plan.owner)}


def shard(length: int, n_ranks: int, pattern: str = "simple") -> ShardPlan:
    if n_ranks < 1:
        raise ValueError("need at least one rank")
    if pattern == "simple":
        if length % n_ranks != 0:
            raise ValueError(f"length {length} not divisible by {n_ranks} ranks")
        step = length // n_ranks
        bounds = tuple(range(0, length + 1, step))
        owner = tuple(range(n_ranks))
    elif pattern == "zigzag":
        if length % (2 * n_ranks) != 0:
            raise ValueError(f"length {length} not divisible by 2*{n_ranks} chunks")
        step = length // (2 * n_ranks)
        bounds = tuple(range(0, length + 1, step))
        owner = tuple(min(c, 2 * n_ranks - 1 - c) for c in range(2 * n_ranks))
    else:
        raise ValueError(f"unknown pattern: {pattern!r}")
    return ShardPlan(length=length, n_ranks=n_ranks, pattern=pattern,
                     bounds=bounds, owner=owner)


@dataclass(frozen=True)
class MessageRecord:
    src: int
    dst: int
    tag: str
    nbytes: int
    timestamp: int


@dataclass
class RankTrace:
    rank: int
    sent: list = field(default_factory=list)
    received: list = field(default_factory=list)

    @property
    def bytes_sent(self) -> int:
        return sum(m.nbytes for m in self.sent)

    @property
    def bytes_received(self) -> int:
        return sum(m.nbytes for m in self.received)


class MessageBus:
    """Point-to-point channels with FIFO ordering per (src, dst, tag) and
    logical timestamps; every receive must match a prior send."""

    def __init__(self, n_ranks: int):
        self.traces = [RankTrace(rank=r) for r in range(n_ranks)]
        self._queues: dict[tuple, list] = {}
        self._clock = 0

    def send(self, src: int, dst: int, tag: str, payload, nbytes: int) -> None:
        self._clock += 1
        rec = MessageRecord(src=src, dst=dst, tag=tag, nbytes=int(nbytes), timestamp=self._clock)
        self.traces[src].sent.append(rec)
        self._queues.setdefault((src, dst, tag), []).append((rec, payload))

    def recv(self, dst: int, src: int, tag: str):
        queue = self._queues.get((src, dst, tag), [])
        if not queue:
            raise RuntimeError(f"receive without matching send: {src} -> {dst} [{tag}]")
        rec, payload = queue.pop(0)
        self._clock += 1
        self.traces[dst].received.append(
            MessageRecord(src=src, dst=dst, tag=tag, nbytes=rec.nbytes, timestamp=self._clock))
        return payload

    def total_bytes(self) -> int:
        return sum(t.bytes_sent for t in self.traces)


def _relay(bus, plan, chunk, tag, payload, nbytes):
    """Hand a payload from chunk's owner to the next chunk's owner; local
    handoffs (same rank, as in adjacent zigzag chunks) skip the wire."""
    if chunk + 1 >= plan.n_chunks:
        return payload
    src, dst = plan.owner[chunk], plan.owner[chunk + 1]
    if bus is not None and src != dst:
        bus.send(src, dst, tag, payload, nbytes)
        return bus.recv(dst, src, tag)
    return payload


def conv1d_sp(u: np.ndarray, w: np.ndarray, plan: ShardPlan,
              bus: MessageBus | None = None,
              elem_bytes: int = DEFAULT_ELEM_BYTES) -> np.ndarray:
    """Sharded causal conv1d: each chunk receives the previous chunk's last
    d_conv - 1 tokens and computes locally; the first chunk left-pads with
    zeros. The concatenated output equals the single-device convolution
    exactly (identical accumulation order per output). Raises ValueError
    naming a complex u or w (the conv is real-only) and a non-finite u row
    or w tap."""
    _require_real("the causal conv", u=u, w=w)
    u = np.ascontiguousarray(u, dtype=np.float64)
    if u.ndim != 2 or u.shape[0] != plan.length:
        raise ValueError(f"u must be (length, channels) with length {plan.length}, "
                         f"got shape {u.shape}")
    w = np.ascontiguousarray(w, dtype=np.float64)
    d_conv = w.shape[0]
    if d_conv < 1:
        raise ValueError("d_conv must be >= 1")
    _require_finite(u=u, w=w)
    halo = d_conv - 1
    y = np.zeros_like(u)
    channels = u.shape[1]
    left = np.zeros((halo, channels))
    for c in range(plan.n_chunks):
        sl = plan.chunk_slice(c)
        local = u[sl]
        if d_conv > local.shape[0]:
            raise ValueError(f"d_conv {d_conv} exceeds local chunk length {local.shape[0]}")
        y[sl] = kernels.conv1d_with_left_context(local, w, left)
        tail = local[local.shape[0] - halo:] if halo else np.zeros((0, channels))
        left = _relay(bus, plan, c, "conv_halo", tail, halo * channels * elem_bytes)
    return y


def _padded_to_blocks(plan, k, v, q, gates):
    """The sequence with every chunk padded to whole blocks of L = CHUNK
    tokens, and the index of each chunk's first block. Padding tokens have
    k = v = q = 0, gamma = 1 and beta = 0, so they neither decay nor write:
    a chunk of at least L tokens is cut into the blocks a forward over the
    chunk alone would take."""
    L = kernels.CHUNK
    lengths = np.diff(plan.bounds)
    n_blocks = -(-lengths // L)
    first = np.concatenate([[0], np.cumsum(n_blocks)])
    arrays = (k, v, q, gates.gamma, gates.beta)
    if np.all(lengths % L == 0):
        return arrays, first
    rows = np.concatenate([L * b + np.arange(n) for b, n in zip(first, lengths)])
    padded = []
    for x, fill in zip(arrays, (0.0, 0.0, 0.0, 1.0, 0.0)):
        out = np.full((L * first[-1],) + x.shape[1:], fill, dtype=x.dtype)
        out[rows] = x
        padded.append(out)
    return padded, first


def p2p_forward(kind: SsmKind | str, k: np.ndarray, v: np.ndarray, q: np.ndarray,
                gates: GateTrack, plan: ShardPlan, bus: MessageBus | None = None,
                elem_bytes: int = DEFAULT_ELEM_BYTES):
    """P2P sequence-parallel forward for linear-readout recurrences.

    Each chunk runs from the state S_0 that the previous chunk hands on and
    relays its end state onward. Every block of a chunk entered from S
    reads y0 + aq S^T and ends in e + S a_end, where the block terms
    (aq, a_end, y0, e) do not depend on S. When every chunk has at least
    CHUNK tokens, the terms come from one kernels.chunk_terms call over the
    sequence, each chunk padded to whole blocks of CHUNK tokens (the blocks
    a forward over the chunk alone takes), and each rank carries the state
    it received through its own chunks' blocks (kernels._carry). A plan
    with a chunk shorter than CHUNK runs ssm_forward on each chunk from the
    handed-on state: perfbench's tracer test
    (test_instrument_traces_imported_names_and_restores_them) counts one
    traced ssm_forward per chunk on a plan of 2-token chunks.

    Returns (y, final state). Raises ValueError for kinds without a linear
    readout (GKA reads through a matrix solve over the whole key history),
    for shapes that do not match the gates (ssm_core._layer_inputs) or the
    plan, and for a non-finite k, v or q, naming its sequence row;
    FloatingPointError (NonFiniteOutput) naming the first non-finite output
    row of the sequence. Complex inputs (a complex-step derivative) stay
    complex128, as in ssm_forward."""
    kind = _as_kind(kind)
    if kind is SsmKind.GKA:
        raise ValueError("p2p_forward needs a linear readout; GKA's solve-based "
                         "readout is served by usp_forward instead")
    k, v, q = _layer_inputs(gates, k=k, v=v, q=q)  # name a sequence row, not a chunk row
    if k.shape[0] != plan.length:
        raise ValueError(f"sequence length {k.shape[0]} != plan length {plan.length}")
    d_v, d_k = v.shape[1], k.shape[1]
    batched = min(np.diff(plan.bounds)) >= kernels.CHUNK
    if batched:
        padded, first = _padded_to_blocks(plan, k, v, q, gates)
        terms = kernels.chunk_terms(kind.value, *padded)
    y = np.zeros((plan.length, d_v), dtype=np.result_type(k, v, q, gates.gamma, gates.beta))
    state = np.zeros((d_v, d_k))
    state_bytes = d_v * d_k * elem_bytes
    for c in range(plan.n_chunks):
        sl = plan.chunk_slice(c)
        if batched:
            b = slice(first[c], first[c + 1])
            y[sl], state = kernels._carry(*(x[b] for x in terms), state, sl.stop - sl.start)
        else:
            sub = GateTrack(gamma=gates.gamma[sl], beta=gates.beta[sl],
                            lam=None if gates.lam is None else gates.lam[sl])
            try:
                y[sl], state = ssm_forward(kind, k[sl], v[sl], q[sl], sub, state)
            except NonFiniteOutput as err:  # name a sequence row, not a chunk row
                raise NonFiniteOutput(kind, sl.start + err.row) from None
        state = _relay(bus, plan, c, "ssm_state", state, state_bytes)
    return _finite_output(kind, y, state)


def usp_forward(layer_fn, x: np.ndarray, plan: ShardPlan,
                bus: MessageBus | None = None,
                elem_bytes: int = DEFAULT_ELEM_BYTES) -> np.ndarray:
    """Universal SP: AllGather the full sequence on every rank, run the
    black-box layer on it, slice each rank's part back. Every rank would
    compute the same full output, so the layer runs once and each rank's
    slices are cut from that one result; the bus still carries every
    rank's AllGather. The concatenation equals layer_fn(full) exactly. A
    complex x (a complex-step derivative) reaches layer_fn as complex128."""
    x = _real_or_complex(x)
    if x.shape[0] != plan.length:
        raise ValueError(f"sequence length {x.shape[0]} != plan length {plan.length}")
    width = int(np.prod(x.shape[1:], dtype=np.int64))
    if bus is not None:
        for rank in range(plan.n_ranks):
            # gather every other rank's shard
            for other in range(plan.n_ranks):
                if other == rank:
                    continue
                n_tok = sum(s.stop - s.start for s in plan.rank_token_slices(other))
                bus.send(other, rank, "allgather", None, n_tok * width * elem_bytes)
                bus.recv(rank, other, "allgather")
    y_full = np.asarray(layer_fn(x))
    out = np.zeros_like(y_full)
    for rank in range(plan.n_ranks):
        for sl in plan.rank_token_slices(rank):
            out[sl] = y_full[sl]
    return out


def comm_volume(method: str, l: int, d: int, n_sp: int,
                state_bytes: int = 0, d_conv: int = 1,
                elem_bytes: int = DEFAULT_ELEM_BYTES,
                n_heads: int | None = None) -> int:
    """Modeled communication volume per rank, in bytes.

    p2p: the recurrent state plus the d_conv - 1 boundary tokens, however
    long the sequence. a2a: the token tensor through two all-to-all
    collectives, l d / N_SP each way. usp: the (N_SP - 1)/N_SP of the
    sequence gathered from peers. A2A additionally requires the head count
    to divide by N_SP; P2P has no such constraint.
    """
    if min(l, d, n_sp, elem_bytes) <= 0 or d_conv < 1 or state_bytes < 0:
        raise ValueError("parameters must be positive")
    if method == "p2p":
        return int(state_bytes + (d_conv - 1) * d * elem_bytes)
    if method == "a2a":
        if n_heads is not None and n_heads % n_sp != 0:
            raise ValueError(
                f"a2a scatters heads across ranks: {n_heads} heads not divisible by N_SP={n_sp}")
        return int(2 * l * d * elem_bytes // n_sp)
    if method == "usp":
        return int((n_sp - 1) * l * d * elem_bytes // n_sp)
    raise ValueError(f"unknown method: {method!r}")
