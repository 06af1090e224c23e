import importlib.util
import json
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

# a stand-in for perfbench/run.py: logs "side seed workload" and prints a
# fixed result line; FAIL = (seed, exit code, failed requests) on that seed
STUB = """import json, sys
from pathlib import Path
SIDE, P50, TOK, FAIL = {side!r}, {p50!r}, {tok!r}, {fail!r}
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
seed, workload = int(args["--seed"]), args["--workload"]
assert args["--trace"] == "0"
with open(Path(__file__).resolve().parents[2] / "order.log", "a") as log:
    log.write(f"{{SIDE}} {{seed}} {{workload}} {{args['--seconds']}}\\n")
code, failed = (FAIL[1], FAIL[2]) if FAIL and FAIL[0] == seed else (0, 0)
metrics = {{"req_p50_ms": {{"value": P50[seed], "unit": "ms"}},
           "tok_per_s": {{"value": TOK[seed], "unit": "1/s"}}}}
if workload == "all":
    metrics = {{f"{{w}}.{{m}}": v for w in {workloads!r} for m, v in metrics.items()}}
print("workload table")
print(json.dumps({{"correct": not failed, "attempted": 5, "failed": failed, "metrics": metrics}}))
sys.exit(code)
"""


def write_root(root, side, fail=None):
    (root / "perfbench").mkdir(parents=True)
    (root / "perfbench" / "run.py").write_text(STUB.format(
        side=side, p50=P50[side], tok=TOK[side], fail=fail, workloads=WORKLOADS))
    declared = {"run_seconds": 7, "workloads": [{"name": w} for w in WORKLOADS],
                "end_to_end": [{"name": "req_p50_ms", "better": "lower"},
                               {"name": "tok_per_s", "better": "higher"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(declared))
    return str(root)


def run(tmp_path, *extra, fail=None):
    parent = write_root(tmp_path / "parent", "parent")
    change = write_root(tmp_path / "change", "change", fail)
    code = bench_pairs.main([parent, change, "--seeds", "10", "12", *extra])
    return code, (tmp_path / "order.log").read_text().splitlines()


def test_all_runs_alternate_and_count_the_pairs_the_change_wins(tmp_path, capsys):
    code, order = run(tmp_path)
    assert code == 0
    # parent first on even seeds, change first on odd ones; run_seconds by default
    assert order == ["parent 10 all 7", "change 10 all 7", "change 11 all 7", "parent 11 all 7",
                     "parent 12 all 7", "change 12 all 7"]
    out = capsys.readouterr().out.splitlines()
    for w in WORKLOADS:
        assert (f"{w}.req_p50_ms: parent 5 [5.0, 4.0, 6.0]; change 4.5 [4.0, 4.5, 5.0]; "
                "change better in 2/3 pairs") in out
        assert (f"{w}.tok_per_s: parent 90 [100.0, 90.0, 80.0]; change 90 [90.0, 95.0, 80.0]; "
                "change better in 1/3 pairs") in out
    assert len(out) == 4


def test_one_workload_keys_its_metrics_by_that_workload(tmp_path, capsys):
    code, order = run(tmp_path, "--workload", "decode_gka", "--seconds", "3")
    assert code == 0
    assert order[:2] == ["parent 10 decode_gka 3", "change 10 decode_gka 3"]
    out = capsys.readouterr().out.splitlines()
    assert out == ["decode_gka.req_p50_ms: parent 5 [5.0, 4.0, 6.0]; change 4.5 [4.0, 4.5, 5.0]; "
                   "change better in 2/3 pairs",
                   "decode_gka.tok_per_s: parent 90 [100.0, 90.0, 80.0]; change 90 "
                   "[90.0, 95.0, 80.0]; change better in 1/3 pairs"]


@pytest.mark.parametrize("exit_code, failed", [(1, 1), (0, 2), (3, 0)])
def test_a_failing_run_is_named_and_stops_the_pairs(tmp_path, capsys, exit_code, failed):
    code, order = run(tmp_path, fail=(11, exit_code, failed))
    assert code == 1
    assert order[-1] == "change 11 all 7"  # the change runs first on seed 11
    assert capsys.readouterr().out.splitlines() == [
        f"change run failed: root {tmp_path / 'change'}, seed 11, workload all: "
        f"exit {exit_code}, failed requests: {failed}"]
