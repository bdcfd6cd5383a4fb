"""``compare A.json B.json``: is B worse than A, per metric and workload?

Each side is one result file or several (runs of one commit); a side's
value is the median over its files.  The spread is taken over the files'
values when a side has four or more, otherwise over the rounds inside the
single run.  Verdicts, against the metric's bound from ``schema``:

* ``unresolved`` — a side's spread exceeds the bound, so nothing can be said;
* ``regressed``  — B is worse than A by more than the bound;
* ``improved``   — B is better than A by more than the bound;
* ``unchanged``  — otherwise.

A higher share of failed operations in B is always ``regressed``.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Tuple

from . import schema


def spread(values: List[float]) -> float:
    """Interquartile distance as a share of the median (range over
    median for fewer than four values)."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(middle)


def side(documents: List[Dict[str, Any]], workload: str, metric: str) -> Tuple[float, float]:
    """Median and spread of one metric on one workload over a side's files."""
    entries = [d["workloads"][workload]["end_to_end"][metric] for d in documents]
    values = [e["value"] for e in entries]
    rounds = values if len(values) >= 4 else entries[0].get("rounds", [])
    return statistics.median(values), spread(rounds)


def verdict(a: float, b: float, spread_ab: float, better: str, bound: float) -> Tuple[str, float]:
    """The verdict and by what share of A's value B is worse (negative: better)."""
    worse = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if a == b:  # the same measurement on both sides
        return "unchanged", 0.0
    if spread_ab > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    if worse < -bound:
        return "improved", worse
    return "unchanged", worse


def fail_ratio(documents: List[Dict[str, Any]], workload: str) -> float:
    entries = [d["workloads"][workload] for d in documents]
    return sum(e["failed"] for e in entries) / max(1, sum(e["attempted"] for e in entries))


def compare_files(paths_a: List[str], paths_b: List[str]) -> int:
    def load(paths: List[str]) -> List[Dict[str, Any]]:
        documents = []
        for path in paths:
            with open(path) as f:
                documents.append(json.load(f))
        return documents

    docs_a, docs_b = load(paths_a), load(paths_b)
    regressed = False
    print(
        f"{'workload':11s} {'metric':28s} {'A':>14s} {'B':>14s} "
        f"{'worse by':>9s} {'bound':>6s} {'spread':>7s}  verdict"
    )
    for workload, _ in schema.WORKLOADS:
        if not all(workload in d["workloads"] for d in docs_a + docs_b):
            continue
        for metric, unit, better, bound in schema.END_TO_END:
            a, spread_a = side(docs_a, workload, metric)
            b, spread_b = side(docs_b, workload, metric)
            # Set-up passes differ by design (the first pays for cold
            # memory), so their spread says nothing about the median's.
            spread_ab = 0.0 if metric == "setup_s" else max(spread_a, spread_b)
            word, worse = verdict(a, b, spread_ab, better, bound)
            regressed = regressed or word == "regressed"
            print(
                f"{workload:11s} {metric:28s} {a:14.4f} {b:14.4f} "
                f"{worse:+9.1%} {bound:6.0%} {spread_ab:7.1%}  {word}"
            )
        fail_a, fail_b = fail_ratio(docs_a, workload), fail_ratio(docs_b, workload)
        word = "regressed" if fail_b > fail_a else "unchanged"
        regressed = regressed or word == "regressed"
        print(
            f"{workload:11s} {'fail_ratio':28s} {fail_a:14.6f} {fail_b:14.6f} "
            f"{'':>9s} {'any':>6s} {'':>7s}  {word}"
        )
    return 1 if regressed else 0
