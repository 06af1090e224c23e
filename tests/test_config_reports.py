import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("config_reports",
                                              REPO / "scripts" / "config_reports.py")
config_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(config_reports)


def write_tree(root, files):
    for name, data in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    return root


FILES = {"realize/realize_report.csv": b"# config: 0123\nT,n\n64,8\n",
         "realize/realization.json": b'{"a": 1}\n',
         "spsim/comm_volume.csv": b"ranks,bytes\n4,1024\n"}


def test_identical_trees_pass(tmp_path):
    a, b = write_tree(tmp_path / "a", FILES), write_tree(tmp_path / "b", FILES)
    assert config_reports.differing_files(a, b) == []


def test_one_changed_byte_names_that_file(tmp_path):
    changed = {**FILES, "spsim/comm_volume.csv": b"ranks,bytes\n4,1025\n"}
    a, b = write_tree(tmp_path / "a", FILES), write_tree(tmp_path / "b", changed)
    assert config_reports.differing_files(a, b) == ["spsim/comm_volume.csv"]


def test_a_file_only_one_side_wrote_is_named(tmp_path):
    fewer = {name: data for name, data in FILES.items() if name != "realize/realization.json"}
    a, b = write_tree(tmp_path / "a", FILES), write_tree(tmp_path / "b", fewer)
    assert config_reports.differing_files(a, b) == ["realize/realization.json"]
    assert config_reports.differing_files(b, a) == ["realize/realization.json"]
