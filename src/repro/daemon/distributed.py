"""A multi-node coordinator over per-host Loom instances (paper section 8).

The paper sketches the distributed extension: "a coordinator could execute
correlations or aggregations on HFT by contacting the Loom instances in
the relevant hosts ... each node would collect the necessary HFT and
calculate intermediate results on-host.  The coordinator would then
aggregate these intermediate results into the final result."

:class:`LoomCoordinator` implements that sketch over *node backends* —
anything exposing the daemon's public :class:`~repro.core.operators.
QueryResult` verbs (``aggregate`` / ``histogram`` / ``bin_values`` /
``scan`` / ``index_spec`` / ``health``).  In-process
:class:`~repro.daemon.monitor.MonitoringDaemon` objects and
:class:`~repro.daemon.client.LoomClient` wire clients satisfy the same
surface, so the identical coordinator code runs over a local cluster and
over the network.

* distributive aggregates (count/sum/min/max/mean) merge per-node partial
  results;
* global percentiles merge per-node *bin histograms* (every node shares
  the index's histogram layout) to locate the target bin, then fetch only
  that bin's values from each node — raw data never leaves a node except
  for the single target bin;
* cross-node correlation scans each node's sources around anchor events.

**Fault tolerance.**  A node that fails (transport error, deadline,
storage failure) is skipped for the query and the result is annotated:
``result.stats.degraded`` is set and ``result.stats.missing_shards``
names the nodes that did not contribute — partial answers beat no
answers (the COPR stance).  Nodes that fail ``failure_threshold``
consecutive times are *quarantined*: excluded from fan-out (still named
as missing) until :meth:`readmit` re-adds them or :meth:`probe` observes
them healthy again.  A node reporting FAILED flush health is quarantined
eagerly by :meth:`probe` — a FAILED shard cannot ingest, and its stale
window would silently skew global answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.errors import (
    CircuitOpenError,
    DeadlineExceededError,
    LoomError,
    StorageError,
    TransportError,
)
from ..core.hybridlog import Health
from ..core.operators import QueryResult, QueryStats

#: Exceptions that mark a node *missing* for one query (and count toward
#: quarantine) instead of propagating.  Logic errors — unknown source,
#: layout disagreement — always propagate: they mean the fleet is
#: misconfigured, not that a host is down.
NODE_FAILURES = (
    TransportError,
    DeadlineExceededError,
    CircuitOpenError,
    StorageError,
    ConnectionError,
    OSError,
)


@dataclass(frozen=True)
class NodeRef:
    """One participating host.

    ``daemon`` is any node backend speaking the public QueryResult verbs:
    an in-process :class:`~repro.daemon.monitor.MonitoringDaemon` or a
    :class:`~repro.daemon.client.LoomClient` over the wire protocol.
    """

    name: str
    daemon: Any


class LoomCoordinator:
    """Fans queries out to per-host Loom instances and merges results.

    All nodes must define the queried source/index under the same names
    with the same histogram layout (the natural deployment: the same
    collector config rolled out fleet-wide).

    Args:
        nodes: the participating hosts.
        failure_threshold: consecutive per-node failures before the node
            is quarantined (excluded from fan-out until readmitted).
    """

    def __init__(
        self, nodes: Sequence[NodeRef], failure_threshold: int = 3
    ) -> None:
        if not nodes:
            raise LoomError("coordinator needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise LoomError("node names must be unique")
        if failure_threshold < 1:
            raise LoomError("failure_threshold must be >= 1")
        self.nodes = list(nodes)
        self.failure_threshold = failure_threshold
        self._consecutive_failures: Dict[str, int] = {n.name: 0 for n in nodes}
        self._quarantined: Dict[str, bool] = {}

    # ------------------------------------------------------------------
    # Node membership / quarantine
    # ------------------------------------------------------------------
    def quarantined_nodes(self) -> List[str]:
        """Names of currently quarantined nodes."""
        return sorted(self._quarantined)

    def quarantine(self, name: str) -> None:
        """Exclude a node from fan-out (it stays named as missing)."""
        self._require_node(name)
        self._quarantined[name] = True

    def readmit(self, name: str) -> None:
        """Re-admit a quarantined node to fan-out and reset its failure
        count.  Results over its data become exact again from the next
        query on — no resynchronization is needed, because Loom nodes own
        their data and the coordinator holds no per-node state beyond
        membership."""
        self._require_node(name)
        self._quarantined.pop(name, None)
        self._consecutive_failures[name] = 0

    def probe(self) -> Dict[str, str]:
        """Health-check every node; quarantine FAILED ones, readmit
        recovered ones.  Returns ``name -> health string`` (unreachable
        nodes report ``"unreachable"`` and are quarantined)."""
        out: Dict[str, str] = {}
        for node in self.nodes:
            try:
                health = node.daemon.health()
            except NODE_FAILURES:
                out[node.name] = "unreachable"
                self._quarantined[node.name] = True
                continue
            value = health.value if isinstance(health, Health) else str(health)
            out[node.name] = value
            if value == Health.FAILED.value:
                self._quarantined[node.name] = True
            elif node.name in self._quarantined:
                self.readmit(node.name)
        return out

    def _require_node(self, name: str) -> None:
        if all(n.name != name for n in self.nodes):
            raise LoomError(f"unknown node {name!r}")

    def _note_failure(self, name: str) -> None:
        self._consecutive_failures[name] = self._consecutive_failures.get(name, 0) + 1
        if self._consecutive_failures[name] >= self.failure_threshold:
            self._quarantined[name] = True

    def _note_success(self, name: str) -> None:
        self._consecutive_failures[name] = 0

    def _fan_out(self) -> Tuple[List[NodeRef], List[str]]:
        """Serving nodes plus the names excluded up front (quarantined)."""
        serving = [n for n in self.nodes if n.name not in self._quarantined]
        missing = [n.name for n in self.nodes if n.name in self._quarantined]
        return serving, missing

    @staticmethod
    def _annotate(stats: QueryStats, missing: List[str]) -> QueryStats:
        if missing:
            stats.degraded = True
            for name in missing:
                if name not in stats.missing_shards:
                    stats.missing_shards.append(name)
        return stats

    # ------------------------------------------------------------------
    def global_aggregate(
        self,
        source_name: str,
        index_name: str,
        t_range: Tuple[int, int],
        method: str,
    ) -> QueryResult:
        """Merge a distributive aggregate across all nodes.

        Returns a :class:`QueryResult`: the merged aggregate on
        ``value`` (``None`` when no node holds data in the window), the
        total covered records on ``count``, and merged work counters —
        including ``degraded`` / ``missing_shards`` when any node did not
        answer — on ``stats``.
        """
        if method not in ("count", "sum", "min", "max", "mean"):
            raise LoomError(f"unsupported distributed method: {method!r}")
        stats = QueryStats()
        partials: List[Tuple[float, int]] = []
        serving, missing = self._fan_out()
        for node in serving:
            try:
                result = node.daemon.aggregate(
                    source_name, index_name, t_range, method
                )
            except NODE_FAILURES:
                self._note_failure(node.name)
                missing.append(node.name)
                continue
            self._note_success(node.name)
            stats.merge(result.stats)
            if result.count:
                partials.append((result.value, result.count))
        self._annotate(stats, missing)
        count = sum(c for _, c in partials)
        if not partials:
            return QueryResult(stats=stats, value=None, count=0, source=source_name)
        if method in ("count", "sum"):
            value = float(sum(v for v, _ in partials))
        elif method == "min":
            value = min(v for v, _ in partials)
        elif method == "max":
            value = max(v for v, _ in partials)
        else:  # mean
            value = sum(v * c for v, c in partials) / count
        return QueryResult(stats=stats, value=value, count=count, source=source_name)

    # ------------------------------------------------------------------
    def global_percentile(
        self,
        source_name: str,
        index_name: str,
        t_range: Tuple[int, int],
        percentile: float,
    ) -> QueryResult:
        """Exact global percentile with on-host intermediate results.

        Phase 1: every node reports its per-bin counts through the public
        ``histogram`` verb (tiny).  Phase 2: the coordinator locates the
        bin containing the global rank and fetches only that bin's values
        from each node via ``bin_values``.  Both phases run on the
        QueryResult API, so the same code path serves in-process daemons
        and remote nodes over the wire, and the result carries merged
        :class:`QueryStats`.

        A node that fails either phase is dropped *entirely* (its phase-1
        histogram is discarded too, keeping rank arithmetic consistent)
        and named in ``stats.missing_shards``.
        """
        if not 0 <= percentile <= 100:
            raise LoomError("percentile must be in [0, 100]")
        stats = QueryStats()
        serving, missing = self._fan_out()
        histograms: Dict[str, Dict[int, int]] = {}
        responders: List[NodeRef] = []
        spec_edges: Optional[Tuple[float, ...]] = None
        for node in serving:
            try:
                edges = tuple(node.daemon.index_spec(source_name, index_name).edges)
                result = node.daemon.histogram(source_name, index_name, t_range)
            except NODE_FAILURES:
                self._note_failure(node.name)
                missing.append(node.name)
                continue
            self._note_success(node.name)
            if spec_edges is None:
                spec_edges = edges
            elif edges != spec_edges:
                raise LoomError("nodes disagree on histogram layout")
            stats.merge(result.stats)
            histograms[node.name] = result.bins or {}
            responders.append(node)

        # Phase 2, with per-node failure handling: dropping a node
        # invalidates the merged CDF, so recompute the target bin over
        # the survivors and retry.  Fetched bins are cached per node, and
        # each iteration either finishes or shrinks the responder set, so
        # the loop terminates.
        fetched: Dict[Tuple[str, int], List[float]] = {}
        while True:
            merged: Dict[int, int] = {}
            for name in (n.name for n in responders):
                for bin_idx, c in histograms[name].items():
                    merged[bin_idx] = merged.get(bin_idx, 0) + c
            total = sum(merged.values())
            if total == 0:
                self._annotate(stats, missing)
                return QueryResult(
                    stats=stats, value=None, count=0, source=source_name
                )
            rank = max(1, math.ceil(percentile / 100.0 * total))
            cumulative = 0
            target_bin = -1
            for bin_idx in sorted(merged):
                if cumulative + merged[bin_idx] >= rank:
                    target_bin = bin_idx
                    break
                cumulative += merged[bin_idx]
            assert target_bin >= 0

            values: List[float] = []
            dropped = False
            for node in list(responders):
                key = (node.name, target_bin)
                if key not in fetched:
                    try:
                        result = node.daemon.bin_values(
                            source_name, index_name, t_range, target_bin
                        )
                    except NODE_FAILURES:
                        self._note_failure(node.name)
                        missing.append(node.name)
                        responders.remove(node)
                        histograms.pop(node.name, None)
                        dropped = True
                        break
                    self._note_success(node.name)
                    stats.merge(result.stats)
                    fetched[key] = result.values or []
                values.extend(fetched[key])
            if dropped:
                continue
            values.sort()
            k = rank - cumulative
            self._annotate(stats, missing)
            return QueryResult(
                stats=stats,
                value=values[k - 1],
                count=total,
                source=source_name,
            )

    # ------------------------------------------------------------------
    def fan_out_scan(
        self,
        source_name: str,
        t_range: Tuple[int, int],
    ) -> Dict[str, QueryResult]:
        """Raw-scan the same source on every node (cross-node correlation).

        Returns ``node name -> QueryResult``.  A node that is down or
        quarantined still appears, with ``records=None`` and its stats
        flagged degraded, so correlation code sees exactly which hosts
        are unaccounted for.
        """
        out: Dict[str, QueryResult] = {}
        serving, missing = self._fan_out()
        for node in serving:
            try:
                result = node.daemon.scan(source_name, t_range)
            except NODE_FAILURES:
                self._note_failure(node.name)
                missing.append(node.name)
                continue
            self._note_success(node.name)
            if result.records is None:
                result.records = []
            out[node.name] = result
        for name in missing:
            out[name] = QueryResult(
                stats=self._annotate(QueryStats(), [name]),
                records=None,
                source=source_name,
            )
        return out
