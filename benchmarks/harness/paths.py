"""Where the harness lives (importable without the program)."""

import os

HARNESS_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HARNESS_DIR))
RUN_PY = os.path.join(HARNESS_DIR, "run.py")
OUT_DIR = os.path.join(HARNESS_DIR, "out")
