"""Run the call-level reachability gate::

    PYTHONPATH=src python -m tests.reachability
"""

import sys

from tests.reachability.gate import main

sys.exit(main())
