"""Lets `python3 -m pytest perfbench` import the benchmark modules and the
library from this checkout's src/."""

import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))
