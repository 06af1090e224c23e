import importlib.util
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("fault_profile", REPO / "scripts" / "fault_profile.py")
fault_profile = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fault_profile)


def test_two_decode_requests_give_one_row_per_step(capsys, monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script prepends ROOT's src and perfbench
    assert fault_profile.main([str(REPO), "--workload", "decode_gka", "--requests", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# decode_gka seed 1 from ")
    assert lines[1].split() == list(fault_profile.HEADER)
    rows = [line.split() for line in lines[2:]]
    # decode_gka's request is three segments, one per tiled-decode variant
    steps = ["inputs", "0", "1", "2", "checks"]
    assert [(r[0], r[1]) for r in rows] == [(str(i), s) for i in (1, 2) for s in steps]
    for _, _, faults, peak_kb, ms in rows:
        assert int(faults) >= 0 and float(peak_kb) >= 0.0 and float(ms) > 0.0
