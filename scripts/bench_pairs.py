"""Run alternating benchmark pairs of a parent and a change, and count the
pairs in which the change reads better.

    python3 scripts/bench_pairs.py PARENT_ROOT CHANGE_ROOT --seeds 1101 1110 \
        [--workload NAME|all] [--seconds S]

Each ROOT is a checkout. For every seed S from FIRST to LAST,
`python3 perfbench/run.py --workload W --seed S --seconds N --trace 0` runs
once from each root, each run in its own process: the parent first on
even seeds and the change first on odd ones, so that neither side always
runs on the warmer host. W defaults to `all`, and N to the run_seconds of
the change's BENCHMARK.json. The last line of a run's standard output is
its result line; under `all` its metrics are keyed `workload.metric`.

For each workload and each end-to-end metric that the change's
BENCHMARK.json declares, the script prints both sides' medians and runs,
and in how many pairs the change reads better in the metric's `better`
direction. It exits 1, naming the root, seed and workload, as soon as a
run exits non-zero or reports failed requests. The runs leave their
manifests in each root's perfbench/results/, where scripts/bench_json.py
reads them; the script itself writes nothing.

The end-to-end metrics are at the reference clock (perfbench/refclock.py).
Beside them the script prints, per workload, each side's wall-clock
req_p50_ms and the median time of the clock probe, read from the
manifest each run left (`wall_clock`); a manifest older than its run is
not read. When the probe medians of the two sides differ, the host ran
at another speed for one side, and the reference clock's correction is
what the comparison rests on.

Run an A/A control beside every claimed gain: the parent against a
second copy of itself. On unchanged code the host's phase moves the
reference clock too: prefill_gka read 9.5 ref ms per request in a slow
phase (17.7 ms wall) and 11.1 in a fast one (13.0 ms wall). The root's
path moves it as well: a copy whose root path was one character longer
read 10.58 -> 11.51 and 10.15 -> 11.40 ms in two sets, worse in 0 of 5
pairs each time, while a copy at a path of the same length read level.
So give the two roots paths of the same length.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_json import benchmark  # noqa: E402


def run_once(root, workload, seed, seconds):
    """(exit code, result line or None) of one benchmark run from root."""
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return done.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return done.returncode, None


def manifest_clock(root, workload, seed, since):
    """(wall-clock req_p50_ms, probe median in ms) from the manifest that
    the run of workload and seed from root left, or None if there is none
    written at or after `since` (a time.time() value)."""
    path = Path(root) / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    try:
        if path.stat().st_mtime < since:
            return None
        wall = json.loads(path.read_text())["wall_clock"]
        return wall["end_to_end"]["req_p50_ms"], wall["probe_median_s"] * 1e3
    except (OSError, ValueError, KeyError, TypeError):
        return None


def pair_order(seed):
    return ("parent", "change") if seed % 2 == 0 else ("change", "parent")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout root of the parent commit")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds", type=int, default=None)
    args = parser.parse_args(argv)
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    if not seeds:
        parser.error(f"--seeds {args.seeds[0]} {args.seeds[1]} gives no seed")
    workloads, signs = benchmark(args.change)
    seconds = args.seconds or json.loads((Path(args.change) / "BENCHMARK.json").read_text())[
        "run_seconds"]
    if args.workload != "all":
        workloads = [args.workload]
    roots = {"parent": args.parent, "change": args.change}
    values = {side: {} for side in roots}  # side -> "workload.metric" -> one value per seed
    clocks = {side: {w: [] for w in workloads} for side in roots}  # per run, or None
    for seed in seeds:
        for side in pair_order(seed):
            since = time.time() - 1.0  # file times may be coarser than the clock
            code, line = run_once(roots[side], args.workload, seed, seconds)
            if code or line is None or line["failed"]:
                failed = line["failed"] if line else "no result line"
                print(f"{side} run failed: root {roots[side]}, seed {seed}, workload "
                      f"{args.workload}: exit {code}, failed requests: {failed}")
                return 1
            for key, metric in line["metrics"].items():
                key = key if args.workload == "all" else f"{args.workload}.{key}"
                values[side].setdefault(key, []).append(metric["value"])
            for workload in workloads:
                clocks[side][workload].append(manifest_clock(roots[side], workload, seed, since))
    for workload in workloads:
        for metric, sign in signs.items():
            key = f"{workload}.{metric}"
            missing = [side for side in roots if key not in values[side]]
            if missing:
                print(f"{key}: not reported by the {' and the '.join(missing)}")
                continue
            parent, change = values["parent"][key], values["change"][key]
            better = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
            print(f"{key}: parent {statistics.median(parent):.6g} {parent}; "
                  f"change {statistics.median(change):.6g} {change}; "
                  f"change better in {better}/{len(seeds)} pairs")
        missing = [side for side in roots if None in clocks[side][workload]]
        for i, name in enumerate(("wall_clock.req_p50_ms", "wall_clock.probe_median_ms")):
            if missing:
                print(f"{workload}.{name}: no manifest from every run of the "
                      f"{' and the '.join(missing)}")
                continue
            parent, change = ([run[i] for run in clocks[side][workload]] for side in roots)
            print(f"{workload}.{name}: parent {statistics.median(parent):.6g} {parent}; "
                  f"change {statistics.median(change):.6g} {change}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
