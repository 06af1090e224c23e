"""Tests of the benchmark's own arithmetic and inputs.

    python3 -m pytest perfbench -q
"""

import hashlib
import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

import refclock
import run
import stats
import tracer as tracing
from workloads import WORKLOADS


def test_tail_below_twenty_samples_is_the_median():
    assert stats.tail([5.0, 1.0, 3.0]) == (3.0, 50.0, 3)
    xs = list(range(1, 20))
    assert stats.tail(xs) == (10.0, 50.0, 19)


def test_tail_has_ten_samples_beyond_it_up_to_a_hundred():
    xs = [float(x) for x in range(100, 0, -1)]
    value, pct, n = stats.tail(xs)
    assert (value, pct, n) == (90.0, 90.0, 100)
    assert sum(x > value for x in xs) == stats.TAIL_BEYOND
    value, pct, n = stats.tail(range(1, 21))
    assert (value, pct, n) == (10.0, 50.0, 20)


def test_tail_stops_at_p90():
    value, pct, _ = stats.tail(range(1, 1001))
    assert (value, pct) == (900.0, 90.0)
    value, pct, n = stats.tail(range(1, 502))
    assert n - value == 51  # a tenth of 501, rounded up, lies beyond it
    assert pct == pytest.approx(100.0 * 450 / 501)


def test_tail_needs_samples():
    with pytest.raises(ValueError):
        stats.tail([])


def test_spread_is_interquartile_range_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    # statistics.quantiles (exclusive method): 2.75, 5.5, 8.25
    assert stats.spread(values) == pytest.approx((8.25 - 2.75) / 5.5)


def test_refclock_scales_each_segment_by_its_neighbouring_probes():
    clock = refclock.RefClock()
    ref = refclock.REF_PROBE_S
    clock.add(1.0, ref, ref)  # probe at reference speed: unchanged
    clock.add(2.0, 2 * ref, 2 * ref)  # host twice as slow: halved
    clock.add(3.0, ref, 3 * ref)  # mean of the two probes
    assert clock.raw_s == pytest.approx(6.0)
    assert clock.ref_s == pytest.approx(1.0 + 1.0 + 1.5)


def test_run_request_laps_once_per_segment_and_keeps_failures():
    probes = iter([1.0, 2.0, 4.0, 8.0, 16.0])

    class Steps:
        def run(self, inp):
            yield
            yield
            if inp == "fail":
                raise RuntimeError("boom")
            return inp * 2

    clock = refclock.RefClock(lambda: next(probes))
    clock.start()
    assert run.run_request(Steps(), 21, clock) == (clock, 42, None)
    assert clock.probes == [1.0, 2.0, 4.0, 8.0]  # start, two yields, return
    clock, out, error = run.run_request(Steps(), "fail")
    assert out is None and "boom" in error and len(clock.probes) == 4


def test_covered_merges_overlaps():
    assert tracing.covered([]) == 0.0
    assert tracing.covered([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert tracing.covered([(0, 10), (2, 3)]) == 10.0


def test_self_time_with_nested_and_overlapping_children():
    S = tracing.Span
    spans = [
        S("root", 0.0, 10.0, -1),
        S("a", 1.0, 4.0, 0),
        S("b", 3.0, 6.0, 0),      # overlaps a
        S("a.inner", 2.0, 3.0, 1),
        S("c", 9.0, 12.0, 0),     # runs past its parent: clipped to 9..10
        S("a", 7.0, 8.0, 0),      # a second call of a, summed
    ]
    self_s = tracing.self_times(spans)
    assert self_s["root"] == pytest.approx(10.0 - (5.0 + 1.0 + 1.0))
    assert self_s["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert self_s["b"] == pytest.approx(3.0)
    assert self_s["a.inner"] == pytest.approx(1.0)
    assert self_s["c"] == pytest.approx(3.0)


def test_token_counts_match_the_generated_inputs():
    lengths = {
        "realize": lambda inp: inp.T,
        "prefill_linear": lambda inp: inp["k"].shape[0],
        "prefill_gka": lambda inp: inp["k"].shape[0],
        "decode_gka": lambda inp: 1 if inp["k"].ndim == 1 else inp["k"].shape[0],
    }
    assert set(lengths) == set(WORKLOADS) == set(run.WORKLOAD_NAMES)
    for name, cls in WORKLOADS.items():
        wl = cls(7)
        assert wl.tokens == lengths[name](wl.inputs(1)) > 0


def _digest(obj, h):
    if isinstance(obj, np.ndarray):
        h.update(repr((obj.dtype.str, obj.shape)).encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, dict):
        for key in sorted(obj):
            h.update(key.encode())
            _digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _digest(item, h)
    elif is_dataclass(obj):
        for f in fields(obj):
            _digest(getattr(obj, f.name), h)
    else:
        h.update(repr(obj).encode())
    return h.hexdigest()


def _inputs_digest(cls, seed):
    wl = cls(seed)
    h = hashlib.sha256()
    _digest(getattr(wl, "state", None), h)
    for index in (0, 1, 2):
        _digest(wl.inputs(index), h)
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_byte_identical_inputs(name):
    cls = WORKLOADS[name]
    assert _inputs_digest(cls, 11) == _inputs_digest(cls, 11)
    assert _inputs_digest(cls, 11) != _inputs_digest(cls, 12)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_instrument_traces_imported_names_and_restores_them():
    from hybridssm import composition, kernels, seqpar, ssm_core
    from hybridssm.ssm_core import GateTrack

    originals = (ssm_core.ssm_forward, composition.ssm_forward, seqpar.ssm_forward,
                 kernels.mamba2_scan, np.linalg.svd)
    tracer = tracing.Tracer()
    restore = tracing.instrument(tracer)
    try:
        rng = np.random.default_rng(0)
        k, v = rng.standard_normal((8, 3)), rng.standard_normal((8, 2))
        gates = GateTrack(gamma=np.full(8, 0.9), beta=np.full(8, 0.5))
        plan = seqpar.shard(8, 2, "zigzag")
        seqpar.p2p_forward("mamba2", k, v, k, gates, plan, seqpar.MessageBus(2))
    finally:
        restore()
    assert (ssm_core.ssm_forward, composition.ssm_forward, seqpar.ssm_forward,
            kernels.mamba2_scan, np.linalg.svd) == originals
    row = tracer.request_metrics()
    assert row["seqpar.p2p_forward.calls"] == 1
    assert row["ssm_core.ssm_forward.mamba2.calls"] == plan.n_chunks
    assert row["kernels.mamba2_scan.calls"] == plan.n_chunks
    # zigzag over 2 ranks: owners 0,1,1,0, so two of three handoffs cross ranks
    assert row["seqpar.bus.messages"] == 2
    assert row["seqpar.bus.bytes"] == 2 * 2 * 3 * seqpar.DEFAULT_ELEM_BYTES
    assert row["seqpar.p2p_forward.self_ms"] > 0.0


def test_per_layer_reports_every_metric():
    usp = {"seqpar.usp_forward.calls": 1.0, "seqpar.usp_forward.layer_calls": 4.0}
    rows = [{**usp, "kernels.gdn_scan.self_ms": 2.0}, {**usp, "kernels.gdn_scan.self_ms": 4.0}]
    out = run.per_layer(rows, {"gka.fusion": 0.5}, 0.1)
    assert set(out) == set(run.PER_LAYER)
    assert out["kernels.gdn_scan.self_ms"] == 3.0
    assert out["seqpar.usp_forward.useful_frac"] == 0.25
    assert out["mixing.svd_calls"] == 0.0  # a layer the rows never called
    assert out["check.gka.fusion.err_over_tol_max"] == 0.5
    assert out["trace.overhead_frac"] == 0.1

