"""hybridssm benchmark: request streams through the library's public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of realize, prefill_linear, prefill_gka, decode_gka, or `all`,
which runs each workload in its own process and prints every result.
Run from the repository root; the library is imported from ./src.

Each workload runs in one process with BLAS pinned to BLAS_THREADS
threads. Set-up is the import (timed from process start in
IMPORT_SAMPLES fresh interpreters) plus seeded inputs, references and one
untimed warm-up request (repeated SETUP_REPEATS times); setup_s adds the
two medians. Then requests run back to back for --seconds, and every one
is checked against its reference.

Every time the benchmark reports (setup_s, tok_per_s, req_p50_ms,
req_tail_ms, and the overhead of tracing) is measured at a reference
core speed: a fixed probe is timed between the segments of each request
and of set-up, and each segment is scaled by the probe's reference time
over its measured time (refclock.py). The host's per-core speed drifts by
up to 1.6x within minutes, which wall time alone cannot tell from a
change to the program. The wall times are printed beside them and kept
in the manifest; per-layer self times are wall time.

--trace 0 measures the end-to-end metrics with tracing off. --trace 1
wraps the library's layer functions on every other request and reports
per-layer figures per request (median over traced requests); the
untraced requests in between give the tracing overhead.

The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; a run manifest goes to
perfbench/results/. The exit status is non-zero if any request failed
(raised, produced a non-finite value, or missed a check).
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"

WORKLOAD_NAMES = ("realize", "prefill_linear", "prefill_gka", "decode_gka")
BLAS_THREADS = 1
SETUP_REPEATS = 3
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 900

# name -> unit; all lower-is-better except tok_per_s. fail_frac is printed
# and recorded in the manifest; the result line carries it as
# attempted/failed, since a metric that is 0 on a healthy run cannot bound
# a regression.
END_TO_END = {"setup_s": "s", "tok_per_s": "1/s", "req_p50_ms": "ms",
              "req_tail_ms": "ms", "peak_rss_mb": "MB"}

TOLERANCED_CHECKS = ("realize.reconstruction", "p2p.mamba2", "p2p.gdn", "caso.mamba2",
                     "caso.gdn", "gka.form_equivalence", "gka.fusion",
                     "decode.tiled_small_batch", "decode.tiled_large_batch")


def _per_layer():
    def timed(prefix, names, stats=("calls", "self_ms")):
        return [f"{prefix}.{n}.{s}" for n in names for s in stats]

    variants = ("reference", "tiled_small_batch", "tiled_large_batch")
    names = (
        timed("mixing", ["hankel_profile"]) + ["mixing.svd_calls", "realization.svd_calls"]
        + timed("realization", ["realize", "io_matrix", "verify_minimality"])
        + timed("kernels", ["mamba2_scan", "gdn_scan", "gdn_transition_prefixes",
                            "conv1d_direct", "conv1d_with_left_context"])
        + timed("ssm_core.ssm_forward", ["mamba2", "gdn", "gka"], ("self_ms",))
        + timed("seqpar", ["p2p_forward", "conv1d_sp"], ("self_ms",))
        + timed("composition", ["run_chunk", "caso_compose", "picaso_r"], ("self_ms",))
        + timed("kernels.gka_info_forward", ["exact", "chebyshev"], ("self_ms",))
        + timed("kernels", ["chebyshev_dense"])
        + ["kernels.gka_recurrent_scan.self_ms", "ssm_core.gka_recurrence_equivalence.self_ms",
           "seqpar.usp_forward.self_ms", "seqpar.usp_forward.layer_calls",
           "seqpar.usp_forward.useful_frac", "composition.gka_compose.self_ms"]
        + timed("tiled_decode.decode_step", variants, ("self_ms",))
        + timed("tiled_decode", ["tiled_update_and_norm", "tiled_matvec",
                                 "LowerTiles.from_dense", "LowerTiles.to_dense"])
        + timed("ssm_core", ["chebyshev_solve", "GkaInfoState"])
        + ["seqpar.bus.messages", "seqpar.bus.bytes"]
        + [f"tiled_decode.tile_{io}.{v}" for io in ("loads", "stores") for v in variants]
        + ["ssm_core.chebyshev_solve.residual_over_bound_max"]
        + [f"check.{c}.err_over_tol_max" for c in TOLERANCED_CHECKS]
        + ["trace.overhead_frac"]
    )

    def unit(name):
        if name.endswith("self_ms"):
            return "ms"
        if name.endswith("bytes"):
            return "B"
        if name.endswith(("_frac", "_max")):
            return "ratio"
        return "count"

    return {n: (unit(n), "higher" if n.endswith("useful_frac") else "lower") for n in names}


PER_LAYER = _per_layer()


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import hybridssm from this checkout's src/, never from elsewhere."""
    if not (SRC / "hybridssm" / "__init__.py").is_file():
        raise SystemExit(f"error: no hybridssm sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import hybridssm
    if Path(hybridssm.__file__).resolve().parent != (SRC / "hybridssm").resolve():
        raise SystemExit(f"error: hybridssm imported from {hybridssm.__file__}, not {SRC}")


def import_clocks() -> list:
    """Process start to libraries loaded, timed in IMPORT_SAMPLES fresh
    interpreters; one sample alone is too noisy to compare runs by."""
    from refclock import RefClock

    code = (f"import sys; sys.path.insert(0, {str(BENCH_DIR)!r}); import run; "
            "run.pin_blas_threads(); run.import_library(); "
            "import workloads, tracer, stats, refclock")
    clocks = []
    for _ in range(IMPORT_SAMPLES):
        clock = RefClock()
        clock.start()
        subprocess.run([sys.executable, "-c", code], check=True, timeout=CHILD_TIMEOUT_S)
        clock.lap()
        clocks.append(clock)
    return clocks


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hybridssm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment() -> dict:
    import numpy as np
    from hybridssm import kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"backend": "numba" if kernels.USING_NUMBA else "numpy",
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)), "machine": platform.machine(),
            "git_commit": git_commit(), "source_sha256": source_sha256()}


def run_request(wl, inp, clock=None):
    """Time one request, a lap of `clock` per segment. Returns (clock,
    outputs, error); a raising request is a failed request, recorded and
    counted, never retried. A given clock must be running already."""
    from refclock import RefClock

    if clock is None:
        clock = RefClock()
        clock.start()
    steps = wl.run(inp)
    try:
        while True:
            next(steps)
            clock.lap()
    except StopIteration as stop:
        clock.lap()
        return clock, stop.value, None
    except Exception:  # noqa: BLE001 - the request loop must keep running
        clock.lap()
        return clock, None, traceback.format_exc(limit=3)


def check_request(wl, inp, out, error):
    if error is not None:
        return [], error
    try:
        return wl.checks(inp, out), None
    except Exception:  # noqa: BLE001 - a check that raises fails the request
        return [], traceback.format_exc(limit=3)


class Ledger:
    """Attempted and failed requests, and the worst error per check."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.worst = {}

    def record(self, index, checks, error):
        self.attempted += 1
        missed = [c for c in checks if not c.ok]
        for c in checks:
            ratio = c.err / c.tol if c.tol > 0 else c.err
            self.worst[c.name] = max(self.worst.get(c.name, 0.0), ratio)
        if error is not None or missed:
            self.failures.append({"request": index, "error": error,
                                  "missed": [(c.name, c.err, c.tol) for c in missed]})


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import stats
    import tracer as tracing
    from refclock import REF_PROBE_S, RefClock
    from workloads import WORKLOADS, Check

    imports = import_clocks()
    cls = WORKLOADS[name]
    ledger = Ledger()
    setups, warm_up = [], []
    for _ in range(SETUP_REPEATS):
        clock = RefClock()
        clock.start()
        wl = cls(seed)
        inp = wl.inputs(0)
        clock.lap()
        before = clock.ref_s
        _, out, error = run_request(wl, inp, clock)
        setups.append(clock)
        warm_up.append(clock.ref_s - before)
        ledger.record(0, *check_request(wl, inp, out, error))

    tracer = tracing.Tracer() if trace else None
    untraced, traced, layer_rows = [], [], []  # a RefClock per timed request
    deadline = time.perf_counter() + seconds
    index = 1
    while True:
        inp = wl.inputs(index)
        traced_now = trace and index % 2 == 1
        if traced_now:
            tracer.reset()
            restore = tracing.instrument(tracer)
        try:
            clock, out, error = run_request(wl, inp)
        finally:
            if traced_now:
                restore()
        checks, error = check_request(wl, inp, out, error)
        if traced_now:
            row = tracer.request_metrics()
            layer_rows.append(row)
            traced.append(clock)
            # counts that must repeat exactly: bus traffic and tile traffic
            checks = checks + [Check(f"trace.{key}", abs(row.get(key, 0.0) - want), 0.0)
                               for key, want in wl.expected_counts.items()]
        else:
            untraced.append(clock)
        ledger.record(index, checks, error)
        index += 1
        if time.perf_counter() >= deadline:
            break

    timed = traced + untraced
    base = untraced or traced  # a traced run of one request has no untraced one

    def metrics(attr):  # "ref_s" at reference speed, "raw_s" by the wall clock
        return request_metrics(wl.tokens, *([getattr(c, attr) for c in clocks]
                                            for clocks in (base, imports, setups)))

    end_to_end, wall = metrics("ref_s"), metrics("raw_s")
    tail_pct, tail_n = end_to_end.pop("tail_percentile"), end_to_end.pop("tail_samples")
    end_to_end["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probes = [p for c in imports + setups + timed for p in c.probes]
    failed = len(ledger.failures)
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "sizes": wl.sizes, "tokens_per_request": wl.tokens,
        "environment": environment(),
        "requests": {"attempted": ledger.attempted, "failed": failed,
                     "fail_frac": failed / ledger.attempted, "timed": len(timed),
                     "warm_up": SETUP_REPEATS, "tail_percentile": tail_pct,
                     "tail_samples": tail_n,
                     "setup_repeats_s": [c.ref_s for c in setups],
                     "import_samples_s": [c.ref_s for c in imports],
                     "latencies_ms": [c.ref_s * 1e3 for c in timed]},
        "check_worst": ledger.worst, "failures": ledger.failures[:20],
        "end_to_end": end_to_end,
        "wall_clock": {"end_to_end": wall, "latencies_ms": [c.raw_s * 1e3 for c in timed],
                       "probe_median_s": stats.median(probes),
                       "ref_probe_s": REF_PROBE_S},
    }
    if trace:
        overhead = (stats.median([c.ref_s for c in traced])
                    / stats.median([c.ref_s for c in untraced] or warm_up) - 1.0)
        result["per_layer"] = per_layer(layer_rows, ledger.worst, overhead)
    return result


def request_metrics(tokens, latencies, imports, setups) -> dict:
    """End-to-end time metrics from request latencies, import times and
    set-up times, each given in seconds."""
    import stats

    tail_ms, tail_pct, tail_n = stats.tail([x * 1e3 for x in latencies])
    return {"setup_s": stats.median(imports) + stats.median(setups),
            "tok_per_s": tokens * len(latencies) / sum(latencies),
            "req_p50_ms": stats.median(latencies) * 1e3, "req_tail_ms": tail_ms,
            "tail_percentile": tail_pct, "tail_samples": tail_n}


def per_layer(rows, worst, overhead) -> dict:
    """Per-request figures over the traced requests: maxima for health
    metrics, medians for the rest; layers a workload never calls read 0."""
    import stats

    for row in rows:
        layer_calls = row.get("seqpar.usp_forward.layer_calls", 0.0)
        row["seqpar.usp_forward.useful_frac"] = (
            row.get("seqpar.usp_forward.calls", 0.0) / layer_calls if layer_calls else 0.0)
    out = {}
    for name in PER_LAYER:
        if name.startswith("check."):
            out[name] = worst.get(name[len("check."):-len(".err_over_tol_max")], 0.0)
        elif name == "trace.overhead_frac":
            out[name] = overhead
        elif name.endswith("_max"):
            out[name] = max(row.get(name, 0.0) for row in rows)
        else:
            out[name] = stats.median([row.get(name, 0.0) for row in rows])
    return out


def report(result: dict) -> dict:
    """Print the run's metrics by name with units; return the result line."""
    req = result["requests"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"{req['timed']} timed requests  backend {result['environment']['backend']}")
    if result["trace"]:
        metrics = {n: {"value": result["per_layer"][n], "unit": PER_LAYER[n][0]}
                   for n in PER_LAYER}
    else:
        metrics = {n: {"value": result["end_to_end"][n], "unit": u}
                   for n, u in END_TO_END.items()}
        print(f"  {'fail_frac':<52} {req['fail_frac']:>14.6g} ratio")
    wall = result["wall_clock"]["end_to_end"] if not result["trace"] else {}
    for name, m in metrics.items():
        extra = f"   (wall clock {wall[name]:.6g})" if name in wall else ""
        print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}{extra}")
    print(f"  req_tail_ms is the p{req['tail_percentile']:.1f} latency of "
          f"{req['tail_samples']} requests")
    for failure in result["failures"]:
        print(f"  FAILED request {failure['request']}: {failure['missed']} "
              f"{failure['error'] or ''}", file=sys.stderr)
    return {"correct": req["failed"] == 0, "attempted": req["attempted"],
            "failed": req["failed"], "metrics": metrics}


def run_all(args) -> int:
    """Each workload in a process of its own; prints every table."""
    lines, status = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        out = proc.stdout.strip().splitlines()
        print("\n".join(out[:-1]))
        sys.stderr.write(proc.stderr)
        status = status or proc.returncode
        lines[name] = json.loads(out[-1]) if out else {"correct": False, "attempted": 0,
                                                        "failed": 0, "metrics": {}}
    summary = {
        "correct": status == 0 and all(x["correct"] for x in lines.values()),
        "attempted": sum(x["attempted"] for x in lines.values()),
        "failed": sum(x["failed"] for x in lines.values()),
        "metrics": {f"{w}.{m}": v for w, x in lines.items() for m, v in x["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_library()
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    line = report(result)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"manifest {path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
