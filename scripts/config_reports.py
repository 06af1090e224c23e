"""Check that a change leaves every config's reports byte-identical.

    python3 scripts/config_reports.py PARENT_ROOT CHANGE_ROOT

Each ROOT is a checkout. Every configs/*.json of the change runs as
`python3 -m hybridssm.cli --config CONFIG --out DIR`, once with each
root's src on PYTHONPATH, each side into its own temporary directory. The
script prints each config whose run exited non-zero and each report file
whose bytes differ between the sides or that only one side wrote, and then
exits 1; it exits 0 when both sides' report trees are byte-identical.
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path


def write_reports(root, configs, out):
    """Run each config through ROOT/src, its reports into out/<config
    stem>. Returns one line for each run that exited non-zero."""
    env = {**os.environ, "PYTHONPATH": str(Path(root).resolve() / "src")}
    failed = []
    for config in configs:
        done = subprocess.run([sys.executable, "-m", "hybridssm.cli", "--config", str(config),
                               "--out", str(out / config.stem)],
                              env=env, cwd=out.parent, capture_output=True, text=True)
        if done.returncode:
            last = (done.stderr.strip().splitlines() or [""])[-1]
            failed.append(f"{config.name} exited {done.returncode}: {last}")
    return failed


def differing_files(a, b):
    """The paths, relative to the tree roots a and b, of the files whose
    bytes differ or that only one tree holds, sorted."""
    files = [{p.relative_to(root).as_posix(): p for p in Path(root).rglob("*") if p.is_file()}
             for root in (a, b)]
    return sorted(name for name in files[0].keys() | files[1].keys()
                  if name not in files[0] or name not in files[1]
                  or files[0][name].read_bytes() != files[1][name].read_bytes())


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="checkout root of the parent commit")
    parser.add_argument("change", help="checkout root of the change")
    args = parser.parse_args(argv)
    configs = sorted((Path(args.change) / "configs").resolve().glob("*.json"))
    if not configs:
        parser.error(f"no configs/*.json under {args.change}")
    problems = []
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side / "reports" for side in ("parent", "change")}
        for side, tree in trees.items():
            tree.mkdir(parents=True)
            problems += [f"{side}: {line}"
                         for line in write_reports(getattr(args, side), configs, tree)]
        problems += [f"differs: {name}"
                     for name in differing_files(trees["parent"], trees["change"])]
    for line in problems:
        print(line)
    print(f"{len(configs)} configs: " + (f"{len(problems)} problem(s)" if problems
                                        else "reports byte-identical"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
