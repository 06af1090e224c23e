import importlib.util
import json
import statistics
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("bench_json", REPO / "scripts" / "bench_json.py")
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)

SEEDS = [11, 12, 13, 14]
# the change's BENCHMARK.json declares one workload more than the repo's
WORKLOADS = ["realize", "prefill_linear", "prefill_gka", "decode_gka", "added_later"]
# per seed: (req_p50_ms, tok_per_s) of the parent and of the change; the
# change has the lower p50 in pairs 0, 1, 3 and the higher throughput in 0, 3
PARENT = [(10.0, 100.0), (12.0, 90.0), (11.0, 95.0), (13.0, 80.0)]
CHANGE = [(9.0, 110.0), (11.0, 90.0), (11.5, 94.0), (8.0, 120.0)]
# the traced runs' median clock probe: the parent's host ran at half the
# reference speed, the change's at 1.25 times it
PROBE_S = {"parent": 1.0e-3, "change": 0.4e-3}


def write_benchmark(root, workloads, p50_better="lower"):
    declared = {"workloads": [{"name": w} for w in workloads],
                "end_to_end": [{"name": "req_p50_ms", "better": p50_better},
                               {"name": "tok_per_s", "better": "higher"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(declared))


def write_manifests(root, side, runs):
    results = root / "perfbench" / "results"
    results.mkdir(parents=True)
    env = {"side": side, "numpy": "1.0", "cpu_count": 2}
    # only the change's declaration is read: the parent's lists fewer workloads
    write_benchmark(root, WORKLOADS if side == "change" else WORKLOADS[:1])
    for workload in WORKLOADS:
        for seed, (p50, tok) in zip(SEEDS, runs):
            manifest = {"seconds": 8.0, "environment": env,
                        "end_to_end": {"req_p50_ms": p50, "tok_per_s": tok},
                        "requests": {"attempted": 10, "failed": seed % 2}}
            (results / f"{workload}-seed{seed}-trace0.json").write_text(json.dumps(manifest))
        per_layer = {"both.self_ms": 2.0 if side == "parent" else 1.0, "zero.calls": 0.0,
                     f"only_{side}.calls": 3.0}
        traced = {"seconds": 8.0, "environment": env, "per_layer": per_layer,
                  "wall_clock": {"probe_median_s": PROBE_S[side], "ref_probe_s": 0.5e-3}}
        (results / f"{workload}-seed{SEEDS[0]}-trace1.json").write_text(json.dumps(traced))


def run(tmp_path):
    out = tmp_path / "BENCH.json"
    bench_json.main([str(tmp_path / "parent"), str(tmp_path / "change"), "--seeds",
                     str(SEEDS[0]), str(SEEDS[-1]), "--trace-seed", str(SEEDS[0]),
                     "--out", str(out)])
    return json.loads(out.read_text())


@pytest.fixture
def roots(tmp_path):
    write_manifests(tmp_path / "parent", "parent", PARENT)
    write_manifests(tmp_path / "change", "change", CHANGE)
    return tmp_path


@pytest.fixture
def bench(roots):
    return run(roots)


def test_medians_and_quartiles(bench):
    assert bench["seeds"] == SEEDS and bench["trace_seed"] == SEEDS[0]
    p50 = bench["workloads"]["realize"]["end_to_end"]["req_p50_ms"]
    for side, runs in (("parent", PARENT), ("change", CHANGE)):
        values = [run[0] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        assert p50[side] == {"median": median, "q1": q1, "q3": q3, "runs": values}
    assert p50["parent"]["median"] == 11.5 and p50["parent"]["q1"] == 10.25


def test_better_pairs_follow_each_metrics_direction(bench):
    for workload in WORKLOADS:
        entry = bench["workloads"][workload]
        assert entry["end_to_end"]["req_p50_ms"]["change_better_pairs"] == "3/4"
        assert entry["end_to_end"]["tok_per_s"]["change_better_pairs"] == "2/4"
        assert entry["requests"] == {"parent": {"attempted": 40, "failed": 2},
                                     "change": {"attempted": 40, "failed": 2}}
        assert entry["seconds"] == 8.0


def test_per_layer_drops_metrics_zero_on_both_sides(bench):
    assert bench["workloads"]["decode_gka"]["per_layer"] == {
        "both.self_ms": {"parent": 2.0, "change": 1.0, "parent_ref": 1.0, "change_ref": 1.25},
        "only_change.calls": {"parent": 0.0, "change": 3.0},
        "only_parent.calls": {"parent": 3.0, "change": 0.0},
    }


def test_self_times_are_scaled_to_the_reference_clock(bench):
    # 2 wall ms at half speed and 1 wall ms at 1.25 times it are 1 and 1.25
    # reference ms: the change is slower, although its wall time is lower
    for workload in WORKLOADS:
        entry = bench["workloads"][workload]
        assert entry["traced_wall_over_ref"] == {"parent": 2.0, "change": 0.8}
        both = entry["per_layer"]["both.self_ms"]
        assert both["parent_ref"] == pytest.approx(1.0) and both["change_ref"] == pytest.approx(1.25)
        # counts are not times and keep their raw figures only
        assert set(entry["per_layer"]["only_parent.calls"]) == {"parent", "change"}


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


def test_workloads_and_metrics_are_the_ones_the_change_declares(bench):
    assert list(bench["workloads"]) == WORKLOADS
    for entry in bench["workloads"].values():
        assert list(entry["end_to_end"]) == ["req_p50_ms", "tok_per_s"]


def test_better_pairs_follow_the_declared_direction(roots):
    # declared higher-is-better, p50 is better only in pair 2 (11.0 -> 11.5)
    write_benchmark(roots / "change", WORKLOADS, p50_better="higher")
    for entry in run(roots)["workloads"].values():
        assert entry["end_to_end"]["req_p50_ms"]["change_better_pairs"] == "1/4"
        assert entry["end_to_end"]["tok_per_s"]["change_better_pairs"] == "2/4"


def test_a_direction_other_than_higher_or_lower_is_rejected(roots):
    write_benchmark(roots / "change", WORKLOADS, p50_better="smaller")
    with pytest.raises(ValueError, match="req_p50_ms.*'smaller'"):
        run(roots)


def test_reads_the_repository_benchmark_declaration():
    workloads, signs = bench_json.benchmark(REPO)
    declared = json.loads((REPO / "BENCHMARK.json").read_text())
    assert workloads == [w["name"] for w in declared["workloads"]]
    assert {"realize", "prefill_linear", "prefill_gka", "decode_gka"} <= set(workloads)
    assert signs["tok_per_s"] == 1.0 and signs["req_p50_ms"] == -1.0
    assert set(signs) == {m["name"] for m in declared["end_to_end"]}
