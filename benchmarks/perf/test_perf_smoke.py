"""Smoke test of the benchmark itself (``pytest benchmarks/perf -q``).

Not part of the tier-1 suite (``testpaths`` is ``tests``).  One quick run
of all four workloads, traced, must emit every name ``BENCHMARK.json``
declares, with the reference checks having run and passed; a result file
compared with itself must come out ``unchanged`` throughout.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from benchmarks.perf import schema
from benchmarks.perf.compare import verdict

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _perf(*args: str) -> "subprocess.CompletedProcess[str]":
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return subprocess.run(
        [sys.executable, "-m", "benchmarks.perf", *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )


@pytest.fixture(scope="module")
def result_path(tmp_path_factory: pytest.TempPathFactory) -> str:
    path = str(tmp_path_factory.mktemp("perf") / "quick.json")
    done = _perf("run", "--quick", "--trace", "--out", path)
    assert done.returncode == 0, done.stdout + done.stderr
    return path


def test_benchmark_json_matches_schema() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == schema.benchmark_json()


def test_quick_run_emits_every_declared_metric(result_path: str) -> None:
    with open(result_path) as f:
        document = json.load(f)
    for key in ("git_sha", "hostname", "nproc", "python", "numpy", "seed", "flush_policy"):
        assert key in document["header"]
    end_to_end = {name for name, _, _, _ in schema.END_TO_END}
    per_layer = {name for name, _, _ in schema.PER_LAYER}
    for workload, _ in schema.WORKLOADS:
        entry = document["workloads"][workload]
        assert set(entry["end_to_end"]) == end_to_end
        assert set(entry["per_layer"]) == per_layer
        assert all(m["value"] > 0 for m in entry["end_to_end"].values())
        # The oracle ran on every operation and agreed with the program.
        assert entry["attempted"] > 0 and entry["failed"] == 0 and entry["correct"]
        assert entry["per_layer"]["trace.overhead_pct"]["value"] != 0
        assert entry["samples"]


def test_compare_with_itself_is_unchanged(result_path: str) -> None:
    done = _perf("compare", result_path, result_path)
    assert done.returncode == 0, done.stdout + done.stderr
    verdicts = [line.split()[-1] for line in done.stdout.splitlines()[1:]]
    assert len(verdicts) == len(schema.WORKLOADS) * (len(schema.END_TO_END) + 1)
    assert set(verdicts) == {"unchanged"}


def test_verdicts() -> None:
    assert verdict(100.0, 125.0, 0.01, "lower", 0.10)[0] == "regressed"
    assert verdict(100.0, 80.0, 0.01, "lower", 0.10)[0] == "improved"
    assert verdict(100.0, 80.0, 0.01, "higher", 0.10)[0] == "regressed"
    assert verdict(100.0, 104.0, 0.01, "higher", 0.10)[0] == "unchanged"
    assert verdict(100.0, 104.0, 0.30, "higher", 0.10)[0] == "unresolved"


def test_names_outside_the_alphabet_are_rejected(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(schema, "WORKLOADS", schema.WORKLOADS + [("bad name", "why")])
    with pytest.raises(ValueError):
        schema.check_names()
