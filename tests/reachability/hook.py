"""The call recorder the reachability gate installs in every process.

The gate copies this file as ``sitecustomize.py`` into a directory it
puts first on ``PYTHONPATH``, next to a ``reachability.json`` naming
the package directory to watch (``root``) and where to write
(``out``).  Python imports ``sitecustomize`` at start-up, so every
interpreter an entry point starts — subprocesses and spawned workers
included — records too.  No environment variable configures it.

The recorder is a ``sys.settrace`` / ``threading.settrace`` hook that
keeps each code object it sees on a ``call`` event and returns
``None``, so no line events are traced.  At exit each process writes
``<out>/trace-<pid>-<random>.json``: the ``[file relative to root,
first line, name]`` of every code object under ``root`` it ran.  Forked workers
leave through ``os._exit``, which skips ``atexit``, so that is wrapped
to write first.
"""

import atexit
import json
import os
import sys
import threading


def _install() -> None:
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(here, "reachability.json")) as handle:
        config = json.load(handle)
    root = os.path.join(os.path.abspath(config["root"]), "")
    out = config["out"]
    seen = set()
    add = seen.add

    def trace(frame, event, arg):
        add(frame.f_code)
        return None

    def dump() -> None:
        called = sorted(
            {
                (code.co_filename[len(root):], code.co_firstlineno,
                 code.co_name)
                for code in list(seen)
                if code.co_filename.startswith(root)
            }
        )
        path = os.path.join(
            out, f"trace-{os.getpid()}-{os.urandom(4).hex()}.json"
        )
        with open(path, "w") as handle:
            json.dump(called, handle)

    real_exit = os._exit

    def exit_after_dump(status):
        try:
            dump()
        finally:
            real_exit(status)

    os._exit = exit_after_dump
    atexit.register(dump)
    sys.settrace(trace)
    threading.settrace(trace)


_install()
