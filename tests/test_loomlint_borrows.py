"""Tests for loomlint's view-lifetime rules (LOOM201-208).

Each rule is pinned on a tiny synthetic tree (so behaviour is independent
of the real source), then the final tests run the analysis and the seeded
mutant catalog over the actual repo — the same gates CI applies.
"""

import os
import textwrap

from tools.loomlint import ProjectIndex, lint, run
from tools.loomlint.mutants import MUTANTS, check_mutant

_REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def analyze_tree(tmp_path, files):
    """Write ``files`` (relpath -> source) under tmp_path and analyze."""
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return lint(ProjectIndex.build([str(tmp_path)], str(tmp_path)))


def codes(result):
    return sorted(f.rule for f in result.findings)


# ----------------------------------------------------------------------
# LOOM201: SnapshotRetry bracket escapes
# ----------------------------------------------------------------------
def test_bracket_escape_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/reader.py": """
            def racy_read(log, address, length):
                try:
                    view = log.read_view(address, length)
                except SnapshotRetry:
                    raise
                return bytes(view)
            """,
        },
    )
    assert codes(result) == ["LOOM201"]
    assert "read_view" not in result.findings[0].borrow_site
    assert result.findings[0].borrow_site.endswith(":4")


def test_use_inside_bracket_clean(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/reader.py": """
            def safe_read(log, address, length):
                try:
                    view = log.read_view(address, length)
                    data = bytes(view)
                except SnapshotRetry:
                    raise
                return data
            """,
        },
    )
    assert codes(result) == []


def test_plain_try_is_not_a_bracket(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/reader.py": """
            def io_read(log, address, length):
                try:
                    view = log.read_view(address, length)
                except OSError:
                    raise
                return bytes(view)
            """,
        },
    )
    assert codes(result) == []


# ----------------------------------------------------------------------
# LOOM202/LOOM203: stores that outlive the scope
# ----------------------------------------------------------------------
def test_store_on_self_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            def warm(self, storage):
                self._hot = storage.read_view(0, 64)
            """,
        },
    )
    assert codes(result) == ["LOOM202"]


def test_store_of_copied_bytes_clean(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            def warm(self, storage):
                self._hot = bytes(storage.read_view(0, 64))
            """,
        },
    )
    assert codes(result) == []


def test_module_container_store_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            _CACHE = {}

            def warm(storage, key):
                _CACHE[key] = storage.read_view(0, 64)
            """,
        },
    )
    assert codes(result) == ["LOOM203"]


def test_append_to_self_container_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            def warm(self, storage):
                self._views.append(storage.read_view(0, 64))
            """,
        },
    )
    assert codes(result) == ["LOOM203"]


def test_local_collection_clean(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            def _decode_all(storage):
                views = []
                views.append(storage.read_view(0, 64))
                return [bytes(v) for v in views]
            """,
        },
    )
    assert codes(result) == []


# ----------------------------------------------------------------------
# LOOM204/LOOM205: daemon-only concurrency rules
# ----------------------------------------------------------------------
def test_view_across_await_flagged_in_daemon(tmp_path):
    source = """
    async def stream(storage, writer):
        view = storage.read_view(0, 128)
        await writer.drain()
        return len(view)
    """
    daemon = analyze_tree(tmp_path, {"repro/daemon/server.py": source})
    assert codes(daemon) == ["LOOM204"]


def test_view_across_await_not_flagged_in_core(tmp_path):
    source = """
    async def stream(storage, writer):
        view = storage.read_view(0, 128)
        await writer.drain()
        return len(view)
    """
    core = analyze_tree(tmp_path, {"repro/core/stream.py": source})
    assert "LOOM204" not in codes(core)


def test_copy_before_await_clean(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/daemon/server.py": """
            async def stream(storage, writer):
                data = bytes(storage.read_view(0, 128))
                await writer.drain()
                return len(data)
            """,
        },
    )
    assert codes(result) == []


def test_queue_handoff_flagged_in_daemon(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/daemon/server.py": """
            def enqueue(storage, out_queue):
                out_queue.put_nowait(storage.read_view(0, 128))
            """,
        },
    )
    assert codes(result) == ["LOOM205"]


def test_thread_constructor_handoff_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/daemon/server.py": """
            def spawn(storage):
                view = storage.read_view(0, 128)
                t = Thread(target=consume, args=(view,))
                t.start()
            """,
        },
    )
    assert "LOOM205" in codes(result)


# ----------------------------------------------------------------------
# LOOM206: public borrows need a contract (or a copy)
# ----------------------------------------------------------------------
def test_public_return_of_borrow_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def peek(self, address, length):
                return self.read_view(address, length)
            """,
        },
    )
    assert codes(result) == ["LOOM206"]


def test_private_return_of_borrow_exempt(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def _peek(self, address, length):
                return self.read_view(address, length)
            """,
        },
    )
    assert codes(result) == []


def test_contract_suppresses_public_borrow(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def peek(self, address, length):  # loomflow: borrows=storage
                return self.read_view(address, length)
            """,
        },
    )
    assert codes(result) == []


def test_interprocedural_borrow_reaches_public_return(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def _helper(storage, address, length):
                return storage.read_view(address, length)

            def fetch(storage, address, length):
                return _helper(storage, address, length)
            """,
        },
    )
    assert codes(result) == ["LOOM206"]
    assert result.findings[0].symbol.endswith(".fetch")


def test_copy_true_call_site_launders(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def fetch(log, start, end):
                return log.iter_records_between(start, end, copy=True)
            """,
        },
    )
    assert codes(result) == []


def test_copy_false_call_site_is_a_borrow(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def fetch(log, start, end):
                return log.iter_records_between(start, end, copy=False)
            """,
        },
    )
    assert codes(result) == ["LOOM206"]


def test_copy_default_true_launders_bare_call(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def scan(self, start, end, copy=True):  # loomflow: borrows=scan
                if copy:
                    return bytes(self.read_view(start, end - start))
                return self.read_view(start, end - start)

            def fetch(self, start, end):
                return self.scan(start, end)
            """,
        },
    )
    # fetch takes scan's copying default, so it returns owned bytes.
    assert codes(result) == []


# ----------------------------------------------------------------------
# LOOM207: writes through borrows
# ----------------------------------------------------------------------
def test_write_through_borrow_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/patch.py": """
            def scrub(storage):
                view = storage.read_view(0, 16)
                view[0:4] = b"\\x00\\x00\\x00\\x00"
            """,
        },
    )
    assert codes(result) == ["LOOM207"]


# ----------------------------------------------------------------------
# LOOM208: contract hygiene
# ----------------------------------------------------------------------
def test_unknown_lifetime_token_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def peek(self, address, length):  # loomflow: borrows=forever
                return self.read_view(address, length)
            """,
        },
    )
    assert codes(result) == ["LOOM208"]


def test_stale_contract_flagged(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/log.py": """
            def peek(self, address, length):  # loomflow: borrows=scan
                return bytes(self.read_view(address, length))
            """,
        },
    )
    assert codes(result) == ["LOOM208"]
    assert "stale" in result.findings[0].message


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_suppression_comment_applies(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            def warm(self, storage):
                self._hot = storage.read_view(0, 64)  # loomlint: disable=LOOM202
            """,
        },
    )
    assert codes(result) == []
    assert [f.rule for f in result.suppressed] == ["LOOM202"]


def test_suppression_by_slug(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            def warm(self, storage):
                self._hot = storage.read_view(0, 64)  # loomlint: disable=view-stored-on-self
            """,
        },
    )
    assert codes(result) == []


# ----------------------------------------------------------------------
# Findings carry borrow sites
# ----------------------------------------------------------------------
def test_finding_names_borrow_site(tmp_path):
    result = analyze_tree(
        tmp_path,
        {
            "repro/core/cache.py": """
            def warm(self, storage):
                view = storage.read_view(0, 64)
                self._hot = view
            """,
        },
    )
    (finding,) = result.findings
    assert finding.line == 4
    assert finding.borrow_site == "repro/core/cache.py:3"
    assert "borrowed at" in finding.render()


# ----------------------------------------------------------------------
# The real tree and the mutant catalog
# ----------------------------------------------------------------------
def test_real_tree_has_no_borrow_findings():
    result = run([os.path.join(_REPO_ROOT, "src")], root=_REPO_ROOT)
    borrows = [f for f in result.findings + result.suppressed if f.rule >= "LOOM2"]
    assert borrows == [], [f.render() for f in borrows]


def test_mutant_catalog_covers_every_rule():
    rules = {m.rule for m in MUTANTS}
    assert rules == {f"LOOM20{i}" for i in range(1, 9)}
    assert len(MUTANTS) >= 8


def test_every_mutant_is_caught():
    for mutant in MUTANTS:
        ok, detail, finding = check_mutant(_REPO_ROOT, mutant)
        assert ok, f"{mutant.name}: {detail}"
        assert finding is not None and finding.borrow_site
