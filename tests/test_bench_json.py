import importlib.util
import json
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", SCRIPT)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)

SEEDS = [11, 12, 13, 14]
# per seed: (req_p50_ms, tok_per_s) of the parent and of the change; the
# change has the lower p50 in pairs 0, 1, 3 and the higher throughput in 0, 3
PARENT = [(10.0, 100.0), (12.0, 90.0), (11.0, 95.0), (13.0, 80.0)]
CHANGE = [(9.0, 110.0), (11.0, 90.0), (11.5, 94.0), (8.0, 120.0)]


def write_manifests(root, side, runs):
    results = root / "perfbench" / "results"
    results.mkdir(parents=True)
    env = {"side": side, "numpy": "1.0", "cpu_count": 2}
    for workload in bench_json.WORKLOADS:
        for seed, (p50, tok) in zip(SEEDS, runs):
            manifest = {"seconds": 8.0, "environment": env,
                        "end_to_end": {"req_p50_ms": p50, "tok_per_s": tok},
                        "requests": {"attempted": 10, "failed": seed % 2}}
            (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(manifest))
        per_layer = {"both.self_ms": 2.0 if side == "parent" else 1.0, "zero.calls": 0.0,
                     f"only_{side}.calls": 3.0}
        traced = {"seconds": 8.0, "environment": env, "per_layer": per_layer}
        (results / f"{workload}-seed{SEEDS[0]}-trace1.json").write_text(json.dumps(traced))


@pytest.fixture
def bench(tmp_path):
    write_manifests(tmp_path / "parent", "parent", PARENT)
    write_manifests(tmp_path / "change", "change", CHANGE)
    out = tmp_path / "BENCH.json"
    bench_json.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds",
                     str(SEEDS[0]), str(SEEDS[-1]), "--trace-seed", str(SEEDS[0]),
                     "--out", str(out)])
    return json.loads(out.read_text())


def test_medians_and_quartiles(bench):
    assert bench["seeds"] == SEEDS and bench["trace_seed"] == SEEDS[0]
    p50 = bench["workloads"]["realize"]["end_to_end"]["req_p50_ms"]
    for side, runs in (("parent", PARENT), ("change", CHANGE)):
        values = [run[0] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert p50[side] == {"median": median, "q1": q1, "q3": q3, "runs": values}
    assert p50["parent"]["median"] == 11.5 and p50["parent"]["q1"] == 10.25


def test_better_pairs_follow_each_metrics_direction(bench):
    for workload in bench_json.WORKLOADS:
        entry = bench["workloads"][workload]
        assert entry["end_to_end"]["req_p50_ms"]["change_better_pairs"] == "3/4"
        assert entry["end_to_end"]["tok_per_s"]["change_better_pairs"] == "2/4"
        assert entry["requests"] == {"parent": {"attempted": 40, "failed": 2},
                                     "change": {"attempted": 40, "failed": 2}}
        assert entry["seconds"] == 8.0


def test_per_layer_drops_metrics_zero_on_both_sides(bench):
    assert bench["workloads"]["decode_gka"]["per_layer"] == {
        "both.self_ms": {"parent": 2.0, "change": 1.0},
        "only_change.calls": {"parent": 0.0, "change": 3.0},
        "only_parent.calls": {"parent": 3.0, "change": 0.0},
    }


def test_environment_blocks(bench):
    env = bench["workloads"]["prefill_gka"]["environment"]
    assert env == {side: {"side": side, "numpy": "1.0", "cpu_count": 2}
                   for side in ("parent", "change")}


@pytest.mark.parametrize("seeds", [("5", "5"), ("6", "5")])
def test_a_range_of_fewer_than_two_seeds_is_a_usage_error(tmp_path, capsys, seeds):
    with pytest.raises(SystemExit) as exc:
        bench_json.main([str(tmp_path), str(tmp_path), "--seeds", *seeds,
                         "--trace-seed", "5", "--out", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
