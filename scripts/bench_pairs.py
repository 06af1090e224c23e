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
"""

import argparse
import json
import statistics
import subprocess
import sys
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
    for seed in seeds:
        for side in pair_order(seed):
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
