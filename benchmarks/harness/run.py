"""The command ``BENCHMARK.json`` names: ``python3 benchmarks/harness/run.py``.

Run as a file, the package around this script is not importable until
the repository root is on ``sys.path``; ``python -m benchmarks.harness``
from the root is the same program.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))

if __name__ == "__main__":
    sys.path.insert(0, ROOT)
    from benchmarks.harness.cli import main

    sys.exit(main())
