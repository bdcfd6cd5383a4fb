"""Loom's one performance benchmark (see README.md in this directory).

Four workloads, one seeded dataset, a numpy reference for every answer,
and a per-layer ledger measured from outside by timing calls into each
module's public functions.  Entry points:

* ``python3 benchmarks/perf/run.py --workload W --seed N --seconds S --trace 0|1``
  runs one workload in this process and prints one JSON result line (the
  contract ``BENCHMARK.json`` declares);
* ``PYTHONPATH=src python -m benchmarks.perf run`` runs all four (each in
  its own process, untraced then traced) and writes one result file;
* ``PYTHONPATH=src python -m benchmarks.perf compare A.json B.json``
  judges one result file against another.
"""
