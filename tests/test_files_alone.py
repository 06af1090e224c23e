import importlib.util
import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("files_alone", REPO / "scripts" / "files_alone.py")
files_alone = importlib.util.module_from_spec(spec)
spec.loader.exec_module(files_alone)

# test_b passes only after test_a has run in the same process
TREE = {"tests/shared.py": "flag = False\n",
        "tests/test_a.py": ("import shared\n\n\ndef test_sets_the_flag():\n    shared.flag = True\n\n\n"
                            "def test_plain():\n    pass\n"),
        "tests/test_b.py": "import shared\n\n\ndef test_reads_the_flag():\n    assert shared.flag\n"}


def test_a_file_that_fails_alone_is_named(tmp_path, capsys, monkeypatch):
    # the script hands its environment to its pytest processes; the toy
    # tree needs no plugin, so they skip importing hypothesis' (most of
    # each process's start-up)
    monkeypatch.setenv("PYTEST_DISABLE_PLUGIN_AUTOLOAD", "1")
    for name, text in TREE.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    assert files_alone.test_files(tmp_path) == ["tests/test_a.py", "tests/test_b.py"]
    assert files_alone.main([str(tmp_path), "--json", str(tmp_path / "alone.json")]) == 1
    out = capsys.readouterr().out.splitlines()
    # every count as before; the wall seconds vary, so they match a pattern
    secs = r"in \d+\.\d\d s"
    expected = [rf"tests/test_a\.py: 2 passed {secs}",
                rf"tests/test_b\.py: 0 passed, exit 1 {secs}",
                rf"sum of the files alone: 2 passed {secs}; full run: 3 passed {secs}",
                r"fails alone: tests/test_b\.py \(exit 1\)",
                r"the files alone pass 2 tests, the full run 3"]
    assert len(out) == len(expected)
    for line, pattern in zip(out, expected):
        assert re.fullmatch(pattern, line), line
    # the same figures, with the seconds the lines print rounded
    written = json.loads((tmp_path / "alone.json").read_text())
    printed = re.findall(r"in (\d+\.\d\d) s", "\n".join(out))
    runs = [written["files"]["tests/test_a.py"], written["files"]["tests/test_b.py"],
            written["files_alone"], written["full_run"]]
    assert [(run["passed"], run.get("exit")) for run in runs] == [(2, 0), (0, 1), (2, None),
                                                                   (3, 0)]
    assert [f"{run['seconds']:.2f}" for run in runs] == printed


def test_counts_that_sum_to_the_full_run_pass():
    assert files_alone.problems({"a": (0, 2), "b": (0, 1)}, (0, 3)) == []


def test_counts_that_do_not_sum_are_named():
    assert files_alone.problems({"a": (0, 2), "b": (0, 1)}, (0, 4)) == [
        "the files alone pass 3 tests, the full run 4"]
    assert files_alone.problems({"a": (0, 2)}, (1, 1)) == [
        "the full run fails (exit 1)", "the files alone pass 2 tests, the full run 1"]
