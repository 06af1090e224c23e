import importlib.util
import json
import os
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_pairs", REPO / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

WORKLOADS = ["realize", "decode_gka"]
# per seed: the req_p50_ms and tok_per_s each side's stub reports; the change
# has the lower p50 on seeds 10 and 12 and the higher throughput on 11 only
P50 = {"parent": {10: 5.0, 11: 4.0, 12: 6.0}, "change": {10: 4.0, 11: 4.5, 12: 5.0}}
TOK = {"parent": {10: 100.0, 11: 90.0, 12: 80.0}, "change": {10: 90.0, 11: 95.0, 12: 80.0}}
# per seed: the wall-clock req_p50_ms and probe median (s) of the manifests
WALL = {"parent": {10: 8.0, 11: 7.0, 12: 9.0}, "change": {10: 6.0, 11: 7.5, 12: 6.5}}
PROBE = {"parent": {10: 0.75e-3, 11: 0.5e-3, 12: 1.0e-3}, "change": {10: 0.5e-3, 11: 0.5e-3,
                                                                    12: 0.625e-3}}

# a stand-in for perfbench/run.py: logs "side seed workload", leaves a
# manifest per workload unless MANIFESTS is False, and prints a fixed
# result line; FAIL = (seed, exit code, failed requests) on that seed
STUB = """import json, sys
from pathlib import Path
SIDE, P50, TOK, FAIL = {side!r}, {p50!r}, {tok!r}, {fail!r}
WALL, PROBE, MANIFESTS = {wall!r}, {probe!r}, {manifests!r}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, workload = int(args["--seed"]), args["--workload"]
assert args["--trace"] == "0"
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as log:
    log.write(f"{{SIDE}} {{seed}} {{workload}} {{args['--seconds']}}\\n")
code, failed = (FAIL[1], FAIL[2]) if FAIL and FAIL[0] == seed else (0, 0)
metrics = {{"req_p50_ms": {{"value": P50[seed], "unit": "ms"}},
           "tok_per_s": {{"value": TOK[seed], "unit": "1/s"}}}}
names = {workloads!r} if workload == "all" else [workload]
results = Path(__file__).resolve().parent / "results"
results.mkdir(exist_ok=True)
for name in names if MANIFESTS else []:
    wall = {{"end_to_end": {{"req_p50_ms": WALL[seed]}}, "probe_median_s": PROBE[seed]}}
    (results / f"{{name}}-seed{{seed}}-trace0.json").write_text(json.dumps({{"wall_clock": wall}}))
if workload == "all":
    metrics = {{f"{{w}}.{{m}}": v for w in names for m, v in metrics.items()}}
print("workload table")
print(json.dumps({{"correct": not failed, "attempted": 5, "failed": failed, "metrics": metrics}}))
sys.exit(code)
"""


def write_root(root, side, fail=None, manifests=True):
    (root / "perfbench").mkdir(parents=True, exist_ok=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(
        side=side, p50=P50[side], tok=TOK[side], fail=fail, workloads=WORKLOADS,
        wall=WALL[side], probe=PROBE[side], manifests=manifests))
    declared = {"run_seconds": 7, "workloads": [{"name": w} for w in WORKLOADS],
                "end_to_end": [{"name": "req_p50_ms", "better": "lower"},
                               {"name": "tok_per_s", "better": "higher"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(declared))
    return str(root)


def run(tmp_path, *extra, fail=None, change_manifests=True):
    parent = write_root(tmp_path / "parent", "parent")
    change = write_root(tmp_path / "change", "change", fail, change_manifests)
    code = bench_pairs.main([parent, change, "--seeds", "10", "12", *extra])
    return code, (tmp_path / "order.log").read_text().splitlines()


def clock_lines(workload):
    return [f"{workload}.wall_clock.req_p50_ms: parent 8 [8.0, 7.0, 9.0]; "
            "change 6.5 [6.0, 7.5, 6.5]",
            f"{workload}.wall_clock.probe_median_ms: parent 0.75 [0.75, 0.5, 1.0]; "
            "change 0.5 [0.5, 0.5, 0.625]"]


def test_all_runs_alternate_and_count_the_pairs_the_change_wins(tmp_path, capsys):
    code, order = run(tmp_path)
    assert code == 0
    # parent first on even seeds, change first on odd ones; run_seconds by default
    assert order == ["parent 10 all 7", "change 10 all 7", "change 11 all 7", "parent 11 all 7",
                     "parent 12 all 7", "change 12 all 7"]
    out = capsys.readouterr().out.splitlines()
    assert out == [line for w in WORKLOADS for line in (
        f"{w}.req_p50_ms: parent 5 [5.0, 4.0, 6.0]; change 4.5 [4.0, 4.5, 5.0]; "
        "change better in 2/3 pairs",
        f"{w}.tok_per_s: parent 90 [100.0, 90.0, 80.0]; change 90 [90.0, 95.0, 80.0]; "
        "change better in 1/3 pairs", *clock_lines(w))]


def test_one_workload_keys_its_metrics_by_that_workload(tmp_path, capsys):
    code, order = run(tmp_path, "--workload", "decode_gka", "--seconds", "3")
    assert code == 0
    assert order[:2] == ["parent 10 decode_gka 3", "change 10 decode_gka 3"]
    out = capsys.readouterr().out.splitlines()
    assert out == ["decode_gka.req_p50_ms: parent 5 [5.0, 4.0, 6.0]; change 4.5 [4.0, 4.5, 5.0]; "
                   "change better in 2/3 pairs",
                   "decode_gka.tok_per_s: parent 90 [100.0, 90.0, 80.0]; change 90 "
                   "[90.0, 95.0, 80.0]; change better in 1/3 pairs", *clock_lines("decode_gka")]


def test_a_missing_or_stale_manifest_is_named_not_read(tmp_path, capsys):
    # the change's runs leave no manifest; one from an earlier run is stale
    stale = tmp_path / "change" / "perfbench" / "results" / "decode_gka-seed11-trace0.json"
    stale.parent.mkdir(parents=True)
    stale.write_text(json.dumps({"wall_clock": {"end_to_end": {"req_p50_ms": 1.0},
                                                "probe_median_s": 1.0}}))
    os.utime(stale, (0, 0))
    code, _ = run(tmp_path, "--workload", "decode_gka", change_manifests=False)
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[2:] == [f"decode_gka.wall_clock.{name}: no manifest from every run of the change"
                       for name in ("req_p50_ms", "probe_median_ms")]


@pytest.mark.parametrize("exit_code, failed", [(1, 1), (0, 2), (3, 0)])
def test_a_failing_run_is_named_and_stops_the_pairs(tmp_path, capsys, exit_code, failed):
    code, order = run(tmp_path, fail=(11, exit_code, failed))
    assert code == 1
    assert order[-1] == "change 11 all 7"  # the change runs first on seed 11
    assert capsys.readouterr().out.splitlines() == [
        f"change run failed: root {tmp_path / 'change'}, seed 11, workload all: "
        f"exit {exit_code}, failed requests: {failed}"]
