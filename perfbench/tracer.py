"""Per-layer tracing from outside the library.

``instrument`` replaces the public functions of each hybridssm module with
timing wrappers, in every module namespace that holds them (so
``seqpar.ssm_forward`` and ``kernels.chebyshev_dense`` as called from
``gka_info_forward`` are covered too), and returns a function that puts
the originals back. Spans stay in memory for one request; the request's
per-layer figures are then read off with ``Tracer.request_metrics``.

A span's self time is its duration minus the part of it that its child
spans cover.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict:
    """Summed self time in seconds per span name. Child intervals are
    clipped to their parent and merged where they overlap."""
    children = defaultdict(list)
    for span in spans:
        if span.parent >= 0:
            children[span.parent].append(span)
    out = defaultdict(float)
    for idx, span in enumerate(spans):
        inside = [(max(c.start, span.start), min(c.end, span.end)) for c in children[idx]]
        inside = [(s, e) for s, e in inside if e > s]
        out[span.name] += (span.end - span.start) - covered(inside)
    return dict(out)


class Tracer:
    """Spans and counters of the request being traced."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts = defaultdict(float)
        self.maxima = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._open.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def high(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], float(value))

    def request_metrics(self) -> dict:
        """`<span>.calls`, `<span>.self_ms`, counters and maxima of the
        request traced since the last reset."""
        out = defaultdict(float)
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
        for name, secs in self_times(self.spans).items():
            out[f"{name}.self_ms"] = secs * 1e3
        out.update(self.counts)
        out.update(self.maxima)
        return dict(out)


def _wrap(tracer: Tracer, name: str, fn, label=None, before=None, after=None):
    """Time fn under span `name` (plus `.label` from its bound arguments).
    `before` may rewrite the arguments; `after` sees the result. Both run
    outside the span, so their cost counts as tracing overhead only."""
    sig = inspect.signature(fn) if (label or before or after) else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        bound = None
        if sig is not None:
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            if before is not None:
                before(bound.arguments)
            args, kwargs = bound.args, bound.kwargs
        full = f"{name}.{label(bound.arguments)}" if label else name
        idx = tracer.begin(full)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if after is not None:
            after(bound.arguments, result)
        return result

    return wrapper


def _library_modules():
    return [m for key, m in sys.modules.items()
            if m is not None and (key == "hybridssm" or key.startswith("hybridssm."))]


def instrument(tracer: Tracer):
    """Wrap the traced layer functions; returns the undo function."""
    from hybridssm import (composition, kernels, mixing, realization, seqpar, ssm_core,
                           tiled_decode)

    undo = []
    modules = _library_modules()

    def patch_function(module, attr, **hooks):
        orig = getattr(module, attr)
        new = _wrap(tracer, f"{module.__name__.rsplit('.', 1)[-1]}.{attr}", orig, **hooks)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, new)
                    undo.append((mod, key, orig))

    def patch_attr(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    patch_function(mixing, "hankel_profile")
    for attr in ("realize", "io_matrix", "verify_minimality"):
        patch_function(realization, attr)
    for attr in ("mamba2_scan", "gdn_scan", "gdn_transition_prefixes", "conv1d_direct",
                 "conv1d_with_left_context", "chebyshev_dense", "gka_recurrent_scan"):
        patch_function(kernels, attr)
    patch_function(kernels, "gka_info_forward",
                   label=lambda a: "chebyshev" if a["solver_r"] > 0 else "exact")
    patch_function(ssm_core, "ssm_forward", label=lambda a: ssm_core._as_kind(a["kind"]).value)
    patch_function(ssm_core, "gka_recurrence_equivalence")

    def chebyshev_health(a, result):
        _, hist = result
        lo, hi = a["spectral_bounds"] or ssm_core.default_spectral_bounds(a["apply_h"], a["lam"])
        bound = ssm_core.chebyshev_residual_bound(lo, hi, a["r"]) * float(np.linalg.norm(a["q"]))
        live = bound > 0.0
        if np.any(live):
            tracer.high("ssm_core.chebyshev_solve.residual_over_bound_max",
                        float(np.max(hist[live] / bound[live])))

    patch_function(ssm_core, "chebyshev_solve", after=chebyshev_health)

    for attr in ("run_chunk", "caso_compose", "picaso_r", "gka_compose"):
        patch_function(composition, attr)
    for attr in ("p2p_forward", "conv1d_sp"):
        patch_function(seqpar, attr)

    def count_layer_calls(a):
        layer_fn = a["layer_fn"]

        def counted(x):
            tracer.count("seqpar.usp_forward.layer_calls")
            return layer_fn(x)

        a["layer_fn"] = counted

    patch_function(seqpar, "usp_forward", before=count_layer_calls)

    def count_tiles(a, result):
        tracer.count(f"tiled_decode.tile_loads.{a['variant']}", result.counters.loads)
        tracer.count(f"tiled_decode.tile_stores.{a['variant']}", result.counters.stores)

    patch_function(tiled_decode, "decode_step", label=lambda a: a["variant"], after=count_tiles)
    for attr in ("tiled_update_and_norm", "tiled_matvec"):
        patch_function(tiled_decode, attr)

    tiles = tiled_decode.LowerTiles
    patch_attr(tiles, "from_dense", classmethod(
        _wrap(tracer, "tiled_decode.LowerTiles.from_dense", tiles.__dict__["from_dense"].__func__)))
    patch_attr(tiles, "to_dense", _wrap(tracer, "tiled_decode.LowerTiles.to_dense", tiles.to_dense))
    info = ssm_core.GkaInfoState
    patch_attr(info, "__post_init__", _wrap(tracer, "ssm_core.GkaInfoState", info.__post_init__))

    bus_send = seqpar.MessageBus.send

    def send(self, src, dst, tag, payload, nbytes):
        tracer.count("seqpar.bus.messages")
        tracer.count("seqpar.bus.bytes", int(nbytes))
        return bus_send(self, src, dst, tag, payload, nbytes)

    patch_attr(seqpar.MessageBus, "send", send)

    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        layer = (tracer.innermost() or "untraced").split(".", 1)[0]
        tracer.count(f"{layer}.svd_calls")
        return svd(*args, **kwargs)

    patch_attr(np.linalg, "svd", counted_svd)

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
        undo.clear()

    return restore
