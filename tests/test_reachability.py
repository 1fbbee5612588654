"""The reachability gate's allow-list stays in step with the source.

The gate itself (``PYTHONPATH=src python -m tests.reachability``) runs
every entry point under a call recorder, so it is a CI job of its own;
this test only parses.
"""

from tests.reachability.allowed import ALLOWED, CATEGORIES
from tests.reachability.gate import functions


def test_reachability_allow_list_names_exist():
    defined = functions()
    gone = sorted(name for name in ALLOWED if name not in defined)
    assert not gone, f"allow-listed functions that no longer exist: {gone}"
    unknown = sorted(
        name for name, (category, reason) in ALLOWED.items()
        if category not in CATEGORIES or not reason
    )
    assert not unknown, f"entries without a category and reason: {unknown}"
