"""Tests of the benchmark's own code.

Run explicitly: ``python -m pytest perfbench/tests -q`` (the repo's
tier-1 suite is scoped to ``tests/`` and does not collect these).
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for path in (ROOT, ROOT / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
