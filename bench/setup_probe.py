"""Do biharm's set-up for one workload in this fresh interpreter.

    python3 bench/setup_probe.py kernel_eval

run.py times this whole process, from start to exit, as ``setup_s``: the
interpreter, importing biharm and its CLI (with numpy and mpmath), and
making what the workload keeps across rounds.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import biharm  # noqa: E402
import biharm.cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].setup(biharm)
