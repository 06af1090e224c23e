"""Check that every test file passes alone as it does in the full run.

    python3 scripts/files_alone.py [ROOT] [--json PATH]

ROOT (default: the checkout this script lies in) holds tests/test_*.py and,
where it exists, perfbench/test_perfbench.py. Each file runs in its own
`python3 -m pytest -q -p no:cacheprovider FILE` process from ROOT, with
ROOT/src on PYTHONPATH, and then all of them run in one such process. The
script prints each file's pass count and wall seconds, their sums and the
full run's count and wall seconds, so that a file whose time grows shows
up. With --json PATH it also writes those figures to PATH: each file's
pass count, exit code and seconds, their sums, and the full run's. It
exits 1 if a file fails alone, if the full run fails, or if the counts
do not sum to the full run's: a derandomized property whose examples
depend on which modules were loaded before it shows up as one of these.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path


def test_files(root):
    """tests/test_*.py under root, sorted, and perfbench/test_perfbench.py
    if it exists; paths relative to root."""
    root = Path(root)
    files = sorted(p.relative_to(root).as_posix() for p in (root / "tests").glob("test_*.py"))
    if (root / "perfbench" / "test_perfbench.py").is_file():
        files.append("perfbench/test_perfbench.py")
    return files


def run_pytest(root, files):
    """(exit code, passed count) of one pytest process over files, run
    from root with root/src first on PYTHONPATH."""
    src = str(Path(root).resolve() / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *files],
                          cwd=root, env=env, capture_output=True, text=True)
    counts = re.findall(r"(\d+) passed", done.stdout)
    return done.returncode, int(counts[-1]) if counts else 0


def timed(run, *args):
    """(run(*args), the wall seconds it took)."""
    start = time.perf_counter()
    result = run(*args)
    return result, time.perf_counter() - start


def problems(alone, full):
    """One line for each file that failed alone (alone maps a file to its
    (exit code, passed)), for a failed full run, and for per-file counts
    that do not sum to the full run's."""
    lines = [f"fails alone: {name} (exit {code})" for name, (code, _) in alone.items() if code]
    if full[0]:
        lines.append(f"the full run fails (exit {full[0]})")
    total = sum(passed for _, passed in alone.values())
    if total != full[1]:
        lines.append(f"the files alone pass {total} tests, the full run {full[1]}")
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("root", nargs="?", default=str(Path(__file__).resolve().parents[1]),
                        help="checkout root (default: this script's checkout)")
    parser.add_argument("--json", metavar="PATH", help="also write the figures to PATH")
    args = parser.parse_args(argv)
    files = test_files(args.root)
    if not files:
        parser.error(f"no tests/test_*.py under {args.root}")
    alone, alone_secs = {}, {}
    for name in files:
        alone[name], secs = timed(run_pytest, args.root, [name])
        alone_secs[name] = secs
        print(f"{name}: {alone[name][1]} passed" + (f", exit {alone[name][0]}" if alone[name][0] else "")
              + f" in {secs:.2f} s")
    full, full_secs = timed(run_pytest, args.root, files)
    passed, seconds = sum(p for _, p in alone.values()), sum(alone_secs.values())
    print(f"sum of the files alone: {passed} passed in {seconds:.2f} s; "
          f"full run: {full[1]} passed in {full_secs:.2f} s")
    if args.json:
        record = lambda run, secs: {"passed": run[1], "exit": run[0], "seconds": secs}
        Path(args.json).write_text(json.dumps({
            "files": {name: record(alone[name], alone_secs[name]) for name in files},
            "files_alone": {"passed": passed, "seconds": seconds},
            "full_run": record(full, full_secs)}, indent=1) + "\n")
    lines = problems(alone, full)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
