"""The call-level reachability gate (run it with ``python -m
tests.reachability``)."""
