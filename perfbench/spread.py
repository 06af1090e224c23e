"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads realize decode_gka --seeds 10

Runs run.py once per seed and workload, one run at a time, and prints for
each metric the median of the runs and the distance between the first and
third quartile as a share of that median, beside the metric's bound from
BENCHMARK.json. A workload is steady when every spread except setup_s is
below a third of its bound.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=names, default=names)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    steady = True
    for workload in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not line["correct"]:
                print(f"{workload} seed {seed}: run failed\n{proc.stderr}")
                return 1
            for name in values:
                values[name].append(line["metrics"][name]["value"])
        print(f"{workload} ({args.seeds} seeds)")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            s = stats.spread(values[name])
            ok = name == "setup_s" or s < bound / 3
            steady = steady and ok
            print(f"  {name:<14} median {stats.median(values[name]):>12.6g} "
                  f"spread {s:7.4f} bound {bound:5.3f} {'ok' if ok else 'WIDE'}")
        print("  values " + json.dumps(values))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
