"""The EIL benchmark: four workloads, best-pass timing, layers timed
from outside.  See README.md beside this file."""
