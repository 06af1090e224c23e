"""Write one BENCH_<n>.json from the benchmark manifests of a parent and a
change.

    python3 scripts/bench_json.py PARENT_ROOT CHANGE_ROOT --seeds 131 140 \
        --trace-seed 3 --out BENCH_13.json

Each ROOT is a checkout whose perfbench/results/ holds the manifests that
`python3 perfbench/run.py --workload all --seed S --trace 0` wrote for every
seed S in the range, and the one that `--trace 1` wrote at the trace seed.
The workloads and end-to-end metrics, and whether each metric is better
higher or lower, are those that the change's BENCHMARK.json declares (the
file is only read). Per workload the file holds, for each end-to-end
metric, both sides' median and quartiles (statistics.quantiles, as perfbench/stats.py reads
the spread) over the seeds, every run, and the number of seed pairs in
which the change reads better; the failed and attempted requests; the
traced per-layer figures that are non-zero on either side; and both
sides' environment blocks.

The traced per-layer times are wall milliseconds, and the host's clock
drifts between runs. So each side's traced run also records its wall /
reference ratio (`traced_wall_over_ref`): the median of its clock probes
over the probe's time on the reference core, from the manifest's
wall_clock block. Every *.self_ms entry holds, next to the raw "parent"
and "change" times, "parent_ref" and "change_ref": the same times scaled
to the reference clock.
"""

import argparse
import json
import statistics
from pathlib import Path



def benchmark(root):
    """(workload names, {metric: +1.0 if higher is better, -1.0 if lower})
    as ROOT/BENCHMARK.json declares them."""
    declared = json.loads((Path(root) / "BENCHMARK.json").read_text())
    signs = {"higher": 1.0, "lower": -1.0}
    for m in declared["end_to_end"]:
        if m["better"] not in signs:
            raise ValueError(f"metric {m['name']!r}: better must be 'higher' or 'lower', "
                             f"got {m['better']!r}")
    return ([w["name"] for w in declared["workloads"]],
            {m["name"]: signs[m["better"]] for m in declared["end_to_end"]})


def manifest(root, workload, seed, trace):
    path = Path(root) / "perfbench" / "results" / f"{workload}-seed{seed}-trace{trace}.json"
    return json.loads(path.read_text())


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def workload_entry(parent, change, workload, seeds, trace_seed, signs):
    runs = {side: [manifest(root, workload, s, 0) for s in seeds]
            for side, root in (("parent", parent), ("change", change))}
    end_to_end = {}
    for metric, sign in signs.items():
        values = {side: [m["end_to_end"][metric] for m in ms] for side, ms in runs.items()}
        better = sum(sign * (c - p) > 0.0 for p, c in zip(values["parent"], values["change"]))
        end_to_end[metric] = {"parent": summary(values["parent"]),
                              "change": summary(values["change"]),
                              "change_better_pairs": f"{better}/{len(seeds)}"}
    requests = {side: {key: sum(m["requests"][key] for m in ms)
                       for key in ("attempted", "failed")} for side, ms in runs.items()}
    traced_runs = {side: manifest(root, workload, trace_seed, 1)
                   for side, root in (("parent", parent), ("change", change))}
    traced = {side: m["per_layer"] for side, m in traced_runs.items()}
    clock = {side: m["wall_clock"]["probe_median_s"] / m["wall_clock"]["ref_probe_s"]
             for side, m in traced_runs.items()}
    per_layer = {}
    for name in sorted(set(traced["parent"]) | set(traced["change"])):
        if traced["parent"].get(name) or traced["change"].get(name):
            per_layer[name] = {side: traced[side].get(name, 0.0) for side in traced}
            if name.endswith(".self_ms"):
                per_layer[name].update({f"{side}_ref": per_layer[name][side] / clock[side]
                                        for side in traced})
    return {"seconds": runs["parent"][0]["seconds"], "end_to_end": end_to_end,
            "requests": requests, "traced_wall_over_ref": clock, "per_layer": per_layer,
            "environment": {side: ms[0]["environment"] for side, ms in runs.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout root of the parent commit")
    parser.add_argument("change", help="checkout root of the change")
    parser.add_argument("--seeds", type=int, nargs=2, required=True, metavar=("FIRST", "LAST"))
    parser.add_argument("--trace-seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    seeds = list(range(args.seeds[0], args.seeds[1] + 1))
    if len(seeds) < 2:  # quartiles need two runs a side
        parser.error(f"--seeds {args.seeds[0]} {args.seeds[1]} gives {len(seeds)} seeds; "
                     "give a range of at least two")
    workloads, signs = benchmark(args.change)
    entry = {"seeds": seeds, "trace_seed": args.trace_seed,
             "workloads": {w: workload_entry(args.parent, args.change, w, seeds,
                                             args.trace_seed, signs)
                           for w in workloads}}
    Path(args.out).write_text(json.dumps(entry, indent=1) + "\n")


if __name__ == "__main__":
    main()
