"""Host-time benchmark of the simulator: four workloads, timed from outside.

Run it from the repository root::

    python -m bench [--workload W] [--seed S] [--seconds T] [--trace]
    python -m bench compare -2 -1

See ``bench/README.md`` for the metrics, the workloads and why each was
chosen.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# the simulator is a src-layout package; running from a checkout must not
# depend on PYTHONPATH or an install
_SRC = ROOT / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
