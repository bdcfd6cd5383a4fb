"""Entry point ``BENCHMARK.json`` names: one workload, one result line.

Run as a script from the root of a checkout::

    python3 benchmarks/perf/run.py --workload query-hot --seed 12 --seconds 15 --trace 0

The program under test is imported from ``src/`` of the same checkout; in
a directory without it the import fails and the exit code is not 0.
"""

import os
import sys

if __name__ == "__main__":
    root = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    # Replace this script's own directory on the path: the benchmark's
    # modules are imported as the package ``benchmarks.perf``.
    sys.path[0:1] = [os.path.join(root, "src"), root]
    from benchmarks.perf.cli import one_main

    sys.exit(one_main())
