"""``python -m benchmarks.harness`` (from the repository root)."""

import sys

from benchmarks.harness.cli import main

if __name__ == "__main__":
    sys.exit(main())
