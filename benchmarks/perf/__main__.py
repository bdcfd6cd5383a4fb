"""``PYTHONPATH=src python -m benchmarks.perf run|compare`` (from the repo root)."""

import sys

from .cli import main

sys.exit(main())
