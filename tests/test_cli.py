import json
import os

import pytest

from hybridssm import cli
from hybridssm.cli import main, run, validate

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def fixture(name):
    with open(os.path.join(CONFIG_DIR, name)) as f:
        return json.load(f)


class TestValidate:
    def test_empty_config_lists_required_fields(self):
        diags = validate({})
        assert diags == ["missing required field: command"]

    def test_unknown_command(self):
        assert any("unknown command" in d for d in validate({"command": "train"}))

    def test_unknown_fields_rejected(self):
        diags = validate({"command": "hankel", "verbose": True})
        assert any("unknown field: verbose" in d for d in diags)
        diags = validate({"command": "hankel", "params": {"T": 4, "colors": 3}})
        assert any("unknown param" in d for d in diags)

    def test_tile_divisibility_diagnostic_names_both_fields(self):
        diags = validate({"command": "tile-bench", "params": {"d_k": 100, "b_k": 64}})
        assert len(diags) == 1
        assert "b_k=64" in diags[0] and "d_k=100" in diags[0]

    def test_type_check(self):
        diags = validate({"command": "hankel", "params": {"T": "three"}})
        assert any("must be int" in d for d in diags)

    def test_fixture_configs_are_clean(self):
        for name in os.listdir(CONFIG_DIR):
            assert validate(fixture(name)) == [], name

    def test_spsim_head_divisibility(self):
        cfg = {"command": "spsim", "params": {"n_heads": 12, "n_sp": 8}}
        assert any("divisible" in d for d in validate(cfg))


class TestRun:
    def test_hankel_uniform_fixture(self, tmp_path):
        cfg = fixture("hankel_uniform.json")
        cfg["out"] = str(tmp_path)
        bundle = run(cfg)
        assert not bundle.violations
        ranks = (tmp_path / "hankel_ranks.csv").read_text().splitlines()
        assert ranks[0].startswith("# config:")
        assert ranks[1] == "cut,rank,top_singular_value"
        body = [line.split(",") for line in ranks[2:]]
        assert [row[1] for row in body] == ["1", "1"]  # n_min = 1
        mixer = json.loads((tmp_path / "mixer.json").read_text())
        assert mixer["n_min"] == 1

    def test_perf_model_linear_approaches_two(self, tmp_path):
        cfg = fixture("perf_model_linear.json")
        cfg["out"] = str(tmp_path)
        bundle = run(cfg)
        assert not bundle.violations
        lines = (tmp_path / "throughput.csv").read_text().splitlines()
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(2.0, rel=1e-3)

    def test_select_layers_fixture(self, tmp_path):
        cfg = fixture("select_layers.json")
        cfg["out"] = str(tmp_path)
        bundle = run(cfg)
        assert not bundle.violations
        selection = json.loads((tmp_path / "selection.json").read_text())
        assert selection["selected"] == [0, 2]  # the long-range layer (1) is kept
        assert bundle.elapsed < 10.0
        checks = (tmp_path / "priming_checks.csv").read_text().splitlines()
        assert all(line.endswith("True") for line in checks[2:])

    def test_spsim_writes_shard_plans(self, tmp_path):
        cfg = fixture("spsim.json")
        cfg["out"] = str(tmp_path)
        bundle = run(cfg)
        assert not bundle.violations
        plans = json.loads((tmp_path / "shard_plans.json").read_text())["plans"]
        assert plans["zigzag"]["owner"] == [min(c, 15 - c) for c in range(16)]
        assert plans["simple"]["n_ranks"] == 8

    def test_compose_fixture(self, tmp_path):
        cfg = fixture("compose_gdn.json")
        cfg["out"] = str(tmp_path)
        bundle = run(cfg)
        assert not bundle.violations
        assert (tmp_path / "compose_report.csv").exists()

    def test_chebyshev_residuals_are_plain_numbers(self, tmp_path):
        cfg = fixture("ssm_equiv.json")
        cfg["out"] = str(tmp_path)
        run(cfg)
        lines = (tmp_path / "chebyshev_residuals.csv").read_text().splitlines()
        assert lines[1] == "iteration,residual,classical_bound"
        assert len(lines) > 2
        for line in lines[2:]:
            for cell in line.split(","):
                float(cell)  # a numpy repr such as np.float64(2.5) raises

    def test_determinism_byte_identical(self, tmp_path):
        cfg = fixture("select_layers.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            c = dict(cfg)
            c["out"] = str(out)
            run(c)
        for name in os.listdir(out_a):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_realize_profiles_the_reconstruction_only_when_a_cut_may_exceed_n(
            self, tmp_path, monkeypatch):
        # the largest reconstruction cut rank settles the count at 0; the
        # full profile runs only when it exceeds n, and counts the same 0
        cfg = fixture("realize.json")
        cfg["params"] = dict(cfg["params"], T_values=[4, 9, 16], trials_per_T=2)
        profiles = []
        profile = cli.hankel_profile
        monkeypatch.setattr(cli, "hankel_profile", lambda *a: profiles.append(1) or profile(*a))
        reports = []
        for out in ("searched", "profiled"):
            if out == "profiled":
                monkeypatch.setattr(cli, "max_hankel_rank", lambda m, tol: m.shape[0] + 1)
            bundle = run(dict(cfg, out=str(tmp_path / out)))
            assert bundle.violations == []
            reports.append((tmp_path / out / "realize_report.csv").read_bytes())
            assert len(profiles) == (0 if out == "searched" else 6)
        assert reports[0] == reports[1]

    def test_different_seed_changes_reports(self, tmp_path):
        cfg = fixture("compose_gdn.json")
        outputs = []
        for seed in (42, 43):
            c = dict(cfg)
            c["seed"] = seed
            c["out"] = str(tmp_path / str(seed))
            run(c)
            outputs.append((tmp_path / str(seed) / "compose_report.csv").read_text())
        assert outputs[0] != outputs[1]

    def test_invalid_config_raises(self):
        with pytest.raises(ValueError, match="invalid config"):
            run({"command": "nope"})

    @pytest.mark.parametrize("name", sorted(os.listdir(CONFIG_DIR)))
    def test_every_fixture_runs_clean(self, name, tmp_path):
        cfg = fixture(name)
        cfg["out"] = str(tmp_path)
        bundle = run(cfg)
        assert bundle.violations == [], name
        assert bundle.files
        # the bundle lists exactly the files the run wrote, each once
        written = sorted(str(p) for p in tmp_path.rglob("*") if p.is_file())
        assert sorted(bundle.files) == written, name
        assert len(set(bundle.files)) == len(bundle.files), name


class TestMain:
    def test_cli_end_to_end(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(fixture("hankel_uniform.json")))
        code = main(["--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr()
        assert "hankel_ranks.csv" in captured.out

    def test_cli_rejects_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"command": "hankel", "params": {"bogus": 1}}))
        assert main(["--config", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["realize", "hankel"])
    def test_cli_rejects_rank_tol_outside_unit_interval(self, tmp_path, capsys, command):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"command": command, "params": {"rank_tol": 0.0}}))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "rank_tol must lie in (0, 1)" in capsys.readouterr().err

    @pytest.mark.parametrize("command, param, value", [
        ("tile-bench", "alpha", 0.0), ("tile-bench", "alpha", -0.1),
        ("ssm-equiv", "chebyshev_alpha", 0), ("ssm-equiv", "chebyshev_alpha", -1.0),
    ])
    def test_cli_rejects_non_positive_alpha(self, tmp_path, capsys, command, param, value):
        # lam = alpha ||H||_F: a zero or negative alpha has no valid Chebyshev interval
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"command": command, "params": {param: value}}))
        assert main(["--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{param} must be > 0, got {value}" in capsys.readouterr().err

    def test_seed_override(self, tmp_path):
        path = tmp_path / "cfg.json"
        cfg = fixture("compose_gdn.json")
        cfg["out"] = str(tmp_path / "o1")
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path), "--seed", "43"]) == 0
        cfg["out"] = str(tmp_path / "o2")
        cfg["seed"] = 43
        path.write_text(json.dumps(cfg))
        assert main(["--config", str(path)]) == 0
        a = (tmp_path / "o1" / "compose_report.csv").read_text()
        b = (tmp_path / "o2" / "compose_report.csv").read_text()
        assert a == b
