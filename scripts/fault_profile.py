"""Minor page faults, traced peak memory and wall time of each segment of
a benchmark workload's requests.

    python3 scripts/fault_profile.py ROOT [--workload NAME] [--requests N] [--seed S]
                                     [--summary]

ROOT is a checkout: the library is imported from ROOT/src and the
benchmark's workloads, set-up count and clock probe from ROOT/perfbench,
which is only read. The requests run in the benchmark's order: the
set-ups, each a fresh workload and its warm-up request (index 0), then
requests 1..N, each as its inputs, the request's timed segments (each
``yield`` of the workload's ``run`` ends one) with the clock probe before
the first and after each, and its checks, with the previous request's
outputs still alive. One row is printed per request and step:

    request  step  minflt  peak_kb  ms

step is ``inputs``, a segment index from 0 or ``checks``; minflt the
minor faults the process took in it (``resource.getrusage``) and ms its
wall time. tracemalloc's own allocations move the heap's layout and
with it the faults, so these two come from a pass with tracemalloc off;
a second pass over the same requests, traced, gives peak_kb, the
``tracemalloc`` peak of memory allocated in the step above what was live
when it began. Every request's checks must pass, or the script exits 1.

With --summary the script prints one row per step instead, over all the
requests: the mean minflt, the mean peak_kb and the median ms.

    step  minflt  peak_kb  ms

The script sets no allocator option and no environment variable, so the
heap behaves as in the benchmark process. perfbench/run.py pins BLAS to
one thread; to match it, run with OPENBLAS_NUM_THREADS=1 (the header
prints the value seen).
"""

import argparse
import os
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

HEADER = ("request", "step", "minflt", "peak_kb", "ms")
SUMMARY_HEADER = HEADER[1:]


def load_benchmark(root):
    """ROOT's perfbench modules run, refclock and workloads, with the
    library from ROOT/src."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import refclock
    import run
    import workloads
    return run, refclock, workloads


class Meter:
    """Faults and wall time, or the traced peak, of one step at a time."""

    def __init__(self, traced):
        self.traced = traced

    def start(self):
        if self.traced:
            tracemalloc.reset_peak()
            self.live = tracemalloc.get_traced_memory()[0]
        self.faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        self.t0 = time.perf_counter()

    def stop(self):
        ms = (time.perf_counter() - self.t0) * 1e3
        if self.traced:
            return (tracemalloc.get_traced_memory()[1] - self.live) / 1024.0
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - self.faults, ms


def run_segments(wl, inp, meter, probe):
    """Run wl's request on inp one segment at a time, with the clock probe
    before the first segment and after each: ([(segment, figures)], out)."""
    rows = []
    steps = wl.run(inp)
    while True:
        probe()
        meter.start()
        try:
            next(steps)
        except StopIteration as stop:
            rows.append((len(rows), meter.stop()))
            probe()
            return rows, stop.value
        rows.append((len(rows), meter.stop()))


def run_pass(workload, seed, requests, meter, probe, setups):
    """The set-ups and requests 1..requests in the benchmark's order:
    [(request, step, figures)] for the requests, and whether every check
    passed. inp and out are rebound, not cleared, so the previous request's
    inputs and outputs stay alive until this one's replace them."""
    rows, ok = [], True
    for index in [0] * setups + list(range(1, requests + 1)):
        if index == 0:
            wl = workload(seed)
        meter.start()
        inp = wl.inputs(index)
        steps = [("inputs", meter.stop())]
        segments, out = run_segments(wl, inp, meter, probe)
        meter.start()
        checks = wl.checks(inp, out)
        steps += segments + [("checks", meter.stop())]
        ok = ok and all(c.ok for c in checks)
        if index:
            rows += [(index, step, figures) for step, figures in steps]
    return rows, ok


def summarize(rows):
    """[(step, mean minflt, mean peak_kb, median ms)] over the requests,
    one per step in the order of a request, from (index, step, (faults,
    ms), peak_kb) rows."""
    by_step = {}
    for _, step, (faults, ms), peak_kb in rows:
        by_step.setdefault(step, []).append((faults, peak_kb, ms))
    return [(step, statistics.fmean(f for f, _, _ in figures),
             statistics.fmean(p for _, p, _ in figures),
             statistics.median(m for _, _, m in figures))
            for step, figures in by_step.items()]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", type=Path)
    parser.add_argument("--workload", default="prefill_linear")
    parser.add_argument("--requests", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--summary", action="store_true",
                        help="one row per step: mean minflt, mean peak_kb, median ms")
    args = parser.parse_args(argv)
    if args.requests < 1:
        parser.error("--requests must be >= 1")
    run, refclock, workloads = load_benchmark(args.root)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    print(f"# {args.workload} seed {args.seed} from {args.root.resolve()}, "
          f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")
    print(" ".join(SUMMARY_HEADER if args.summary else HEADER))
    passes, ok = [], True
    for traced in (False, True):
        if traced:
            tracemalloc.start()
        rows, passed = run_pass(workloads.WORKLOADS[args.workload], args.seed, args.requests,
                                Meter(traced), refclock.probe, run.SETUP_REPEATS)
        passes.append(rows)
        ok = ok and passed
    tracemalloc.stop()
    rows = [(index, step, figures, peak_kb)
            for (index, step, figures), (_, _, peak_kb) in zip(*passes)]
    if args.summary:
        for step, faults, peak_kb, ms in summarize(rows):
            print(f"{step} {faults:.1f} {peak_kb:.1f} {ms:.3f}")
    else:
        for index, step, (faults, ms), peak_kb in rows:
            print(f"{index} {step} {faults} {peak_kb:.1f} {ms:.3f}")
    if not ok:
        print("error: a request missed its checks", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
