"""Shared fixtures for the Loom reproduction test suite."""

from __future__ import annotations

import os
import struct
import sys

import numpy as np
import pytest

# The verification engines (tools/loomsan, tools/loommc) and the linter
# live at the repo root, not under src/: make ``tools`` importable however
# pytest was started.
_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if _REPO_ROOT not in sys.path:
    sys.path.insert(0, _REPO_ROOT)

from repro.core import (  # noqa: E402
    HistogramSpec,
    Loom,
    LoomConfig,
    VirtualClock,
)

if os.environ.get("LOOMSAN") == "1":
    # Sanitized mode: every RecordLog in the whole suite runs against a
    # trivially-correct shadow model, with differential oracles at each
    # sync (cheap) and close (full).  See DESIGN.md section 9.
    from tools.loomsan.sanitizer import install as _loomsan_install

    _loomsan_install()

VALUE_STRUCT = struct.Struct("<d")


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    """On test failure, dump every live loomscope registry.

    Gated by ``LOOM_STATS_DUMP=<path>``: CI's faults matrix sets it and
    uploads the file as an artifact when a scenario fails, so the
    Prometheus-style ``stats`` view of each Loom alive at the moment of
    failure (flush retries, reader fallbacks, recovery phases) rides
    along with the red build.  Appends one section per failing test.
    """
    outcome = yield
    report = outcome.get_result()
    dump_path = os.environ.get("LOOM_STATS_DUMP")
    if not dump_path or report.when != "call" or not report.failed:
        return
    from repro.core.metrics import dump_live_registries

    try:
        text = dump_live_registries()
    except Exception as exc:  # diagnostics must never mask the failure
        text = f"(stats dump failed: {exc})"
    with open(dump_path, "a", encoding="utf-8") as f:
        f.write(f"### {item.nodeid}\n{text or '(no live registries)'}\n\n")
    # Network tests: also dump the packet traces of every live
    # fault-injecting transport, so a red run ships the exact byte-level
    # schedule (sends, drops, torn frames) that produced it.
    try:
        from repro.daemon.transport import dump_live_traces

        traces = dump_live_traces()
    except Exception as exc:
        traces = f"(packet trace dump failed: {exc})"
    if traces:
        with open(dump_path, "a", encoding="utf-8") as f:
            f.write(f"### {item.nodeid} packet traces\n{traces}\n\n")
    # Model-checker counterexamples (loommc exploration or conformance
    # violations noted in this process): each section is a replayable
    # JSON trace — feed it to `loommc replay <file>`.
    try:
        from tools.loommc.modelcheck import dump_live_counterexamples

        counterexamples = dump_live_counterexamples()
    except Exception as exc:
        counterexamples = f"(counterexample dump failed: {exc})"
    if counterexamples:
        with open(dump_path, "a", encoding="utf-8") as f:
            f.write(
                f"### {item.nodeid} loommc counterexamples\n"
                f"{counterexamples}\n\n"
            )


@pytest.fixture(autouse=True)
def _loommc_conformance():
    """Refinement check: every packet trace a test produces must conform
    to the abstract ingest model (DESIGN.md section 13).

    Snapshots the live fault-transport set before the test, then runs
    loommc's conformance rules over the traces of transports the test
    created.  A violation fails the test — the network suite doubles as
    a continuous model-to-code conformance proof.
    """
    try:
        from repro.daemon.transport import _LIVE_FAULT_TRANSPORTS
        from tools.loommc.conformance import check_transport
    except ImportError:  # tools/ not importable in this layout: skip
        yield
        return
    before = {id(t) for t in list(_LIVE_FAULT_TRANSPORTS)}
    yield
    violations = []
    for transport in list(_LIVE_FAULT_TRANSPORTS):
        if id(transport) in before:
            continue
        violations.extend(
            check_transport(transport, origin=f"transport-{id(transport):x}")
        )
    if violations:
        pytest.fail(
            "packet trace does not conform to the ingest protocol model:\n"
            + "\n\n".join(cx.render() for cx in violations),
            pytrace=False,
        )


def value_payload(value: float) -> bytes:
    """Minimal test payload: a single little-endian double."""
    return VALUE_STRUCT.pack(value)


def payload_value(payload: bytes) -> float:
    """Index UDF matching :func:`value_payload`."""
    return VALUE_STRUCT.unpack_from(payload)[0]


@pytest.fixture
def clock() -> VirtualClock:
    return VirtualClock()


@pytest.fixture
def small_config() -> LoomConfig:
    """Tiny chunks/blocks so tests cross many chunk and block boundaries."""
    return LoomConfig(
        chunk_size=512,
        record_block_size=4096,
        index_block_size=2048,
        timestamp_block_size=1024,
        timestamp_interval=8,
    )


@pytest.fixture
def loom(small_config, clock) -> Loom:
    instance = Loom(small_config, clock=clock)
    yield instance
    instance.close()


@pytest.fixture
def indexed_loom(loom, clock):
    """A Loom with one source, one value index, and 2,000 known values.

    Returns ``(loom, source_id, index_id, values, timestamps)``; records
    are spaced 1 µs apart in virtual time starting at t=0.
    """
    source_id = 1
    loom.define_source(source_id)
    index_id = loom.define_index(
        source_id, payload_value, HistogramSpec([1.0, 10.0, 100.0, 1000.0])
    )
    rng = np.random.default_rng(1234)
    values = list(rng.lognormal(mean=np.log(20.0), sigma=1.2, size=2000))
    timestamps = []
    for value in values:
        timestamps.append(clock.now())
        loom.push(source_id, value_payload(value))
        clock.advance(1000)
    loom.sync()
    return loom, source_id, index_id, values, timestamps
