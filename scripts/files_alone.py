"""Check that every test file passes alone as it does in the full run.

    python3 scripts/files_alone.py [ROOT]

ROOT (default: the checkout this script lies in) holds tests/test_*.py and,
where it exists, perfbench/test_perfbench.py. Each file runs in its own
`python3 -m pytest -q -p no:cacheprovider FILE` process from ROOT, with
ROOT/src on PYTHONPATH, and then all of them run in one such process. The
script prints each file's pass count, their sum and the full run's count.
It exits 1 if a file fails alone, if the full run fails, or if the counts
do not sum to the full run's: a derandomized property whose examples
depend on which modules were loaded before it shows up as one of these.
"""

import argparse
import os
import re
import subprocess
import sys
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
    args = parser.parse_args(argv)
    files = test_files(args.root)
    if not files:
        parser.error(f"no tests/test_*.py under {args.root}")
    alone = {}
    for name in files:
        alone[name] = run_pytest(args.root, [name])
        print(f"{name}: {alone[name][1]} passed" + (f", exit {alone[name][0]}" if alone[name][0] else ""))
    full = run_pytest(args.root, files)
    print(f"sum of the files alone: {sum(p for _, p in alone.values())} passed; "
          f"full run: {full[1]} passed")
    lines = problems(alone, full)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
