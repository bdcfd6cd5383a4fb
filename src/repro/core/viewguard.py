"""Runtime view-lifetime guard: poison-on-recycle for zero-copy views.

This is the runtime twin of loomlint's view-lifetime rules (LOOM201-208
in ``tools/loomlint``).  Those prove (over the AST) that no borrowed view
outlives its validity window; this module makes the same property *falsifiable at runtime*: under
``LOOMSAN=1`` every zero-copy view handed out by the storage tier
(:meth:`Storage.read_view`) or the staging blocks (:meth:`Block.flush_view`)
is wrapped in a :class:`TrackedView` that records its *borrow site* (the
``path:line`` of the code that requested it).  When the backing bytes are
invalidated — storage truncation, storage close, a fault-injection byte
mutation, or a staging-block recycle that reuses the buffer — the owner
*poisons* all affected outstanding views: the underlying ``memoryview`` is
released (so even foreign aliases fault) and every later touch through the
wrapper raises a typed :class:`~repro.core.errors.StaleViewError` carrying
the borrow site and the invalidation reason.

Design constraints:

* **Inert by default.**  ``active`` is a module-level flag checked with one
  global load on the borrow path; production runs never allocate a wrapper
  or a ledger entry.  :func:`tools.loomsan.sanitizer.install` activates the
  guard, so it rides along with every ``LOOMSAN=1`` run.
* **Lock-free.**  The borrow path is reachable from reader/snapshot roots
  (loomlint LOOM101 forbids blocking primitives there), so the ledger uses
  only GIL-atomic list operations; invalidation iterates over a snapshot
  of the entry list.
* **No buffer protocol before 3.12.**  A pure-Python wrapper cannot export
  a C-level buffer on Python <= 3.11, so C consumers (``np.frombuffer``,
  ``struct.unpack_from``, ``zlib.crc32``) must go through :func:`unwrap`,
  which checks for poison and returns the raw ``memoryview``.  The repo's
  own decode paths do exactly that; on 3.12+ the wrapper also exports the
  buffer directly via ``__buffer__`` (PEP 688), so third-party touches work
  unchanged there too.
"""

from __future__ import annotations

import traceback
from typing import Any, Iterator, List, Optional, Tuple

from .errors import StaleViewError

__all__ = [
    "TrackedView",
    "Ledger",
    "activate",
    "deactivate",
    "active",
    "unwrap",
    "as_view",
    "adopt",
]

#: Fast-path flag: borrow sites check this one global before doing any work.
active: bool = False


def activate() -> None:
    """Turn the guard on (new borrows are tracked from now on)."""
    global active
    active = True


def deactivate() -> None:
    """Turn the guard off (existing tracked views stay tracked)."""
    global active
    active = False


# Frames inside these path fragments are the machinery handing the view
# out, not the code borrowing it; the borrow site is the deepest frame
# outside of them.
_INTERNAL_FRAGMENTS = (
    "/repro/core/viewguard.py",
    "/repro/core/storage.py",
    "/repro/core/block.py",
    "/repro/core/hybridlog.py",
)

# Functions that dispatch a read across tiers on behalf of their caller;
# like the files above, they hand views out rather than borrow them.
_INTERNAL_FUNCTIONS = frozenset({"_region_buffer"})


def _borrow_site() -> str:
    """``path:line in function`` of the code that requested the view."""
    stack = traceback.extract_stack()
    for frame in reversed(stack):
        filename = frame.filename.replace("\\", "/")
        if frame.name in _INTERNAL_FUNCTIONS:
            continue
        if not any(fragment in filename for fragment in _INTERNAL_FRAGMENTS):
            return f"{frame.filename}:{frame.lineno} in {frame.name}"
    frame = stack[0]
    return f"{frame.filename}:{frame.lineno} in {frame.name}"


class _BorrowState:
    """Poison cell shared by a tracked view and all slices taken from it."""

    __slots__ = ("borrow_site", "poisoned", "reason", "dropped")

    def __init__(self, borrow_site: str) -> None:
        self.borrow_site = borrow_site
        self.poisoned = False
        self.reason: Optional[str] = None
        self.dropped = False


class TrackedView:
    """A borrowed ``memoryview`` with fault-on-touch poisoning.

    Stands in for ``memoryview`` on the zero-copy read path while the
    guard is active.  All accessors check the shared poison cell first and
    raise :class:`StaleViewError` (with the borrow site attached) once the
    owner has invalidated the backing bytes.  Slicing returns another
    :class:`TrackedView` sharing the same cell, so payload views carved
    out of a region view inherit its lifetime.
    """

    __slots__ = ("_raw", "_state")

    def __init__(self, raw: memoryview, state: _BorrowState) -> None:
        self._raw = raw
        self._state = state

    # -- poison checking ------------------------------------------------
    def _check(self) -> None:
        state = self._state
        if state.poisoned:
            raise StaleViewError(
                f"use of stale zero-copy view (borrowed at "
                f"{state.borrow_site}): {state.reason}",
                borrow_site=state.borrow_site,
                reason=state.reason,
            )

    @property
    def raw(self) -> memoryview:
        """The underlying memoryview, for C-level buffer consumers."""
        self._check()
        return self._raw

    @property
    def borrow_site(self) -> str:
        return self._state.borrow_site

    @property
    def poisoned(self) -> bool:
        return self._state.poisoned

    # -- memoryview stand-in surface ------------------------------------
    def __len__(self) -> int:
        self._check()
        return len(self._raw)

    def __getitem__(self, key: "int | slice") -> Any:
        self._check()
        if isinstance(key, slice):
            return TrackedView(self._raw[key], self._state)
        return self._raw[key]

    def __iter__(self) -> Iterator[int]:
        self._check()
        return iter(self._raw)

    def __bytes__(self) -> bytes:
        self._check()
        return bytes(self._raw)

    def __eq__(self, other: object) -> bool:
        self._check()
        if isinstance(other, TrackedView):
            other._check()
            return self._raw == other._raw
        if isinstance(other, (bytes, bytearray, memoryview)):
            return self._raw == other
        return NotImplemented

    def __hash__(self) -> int:
        self._check()
        return hash(bytes(self._raw))

    def __repr__(self) -> str:
        state = self._state
        status = f"POISONED: {state.reason}" if state.poisoned else "live"
        return (
            f"<TrackedView {status}, {len(self._raw) if not state.poisoned else '?'}"
            f" bytes, borrowed at {state.borrow_site}>"
        )

    def __buffer__(self, flags: int) -> memoryview:
        # PEP 688 (Python 3.12+): lets np.frombuffer / struct / crc32 use
        # the wrapper directly, with the same poison check.
        self._check()
        return self._raw

    def __release_buffer__(self, view: memoryview) -> None:
        view.release()

    @property
    def nbytes(self) -> int:
        self._check()
        return self._raw.nbytes

    @property
    def readonly(self) -> bool:
        return self._raw.readonly

    @property
    def obj(self) -> Any:
        self._check()
        return self._raw.obj

    def tobytes(self) -> bytes:
        self._check()
        return self._raw.tobytes()

    def hex(self) -> str:
        self._check()
        return self._raw.hex()

    def tolist(self) -> List[int]:
        self._check()
        return self._raw.tolist()

    def toreadonly(self) -> "TrackedView":
        self._check()
        return TrackedView(self._raw.toreadonly(), self._state)

    def cast(self, format: str) -> "TrackedView":
        self._check()
        return TrackedView(self._raw.cast(format), self._state)

    def release(self) -> None:
        """Give the borrow back: unregister and release the raw view."""
        self._state.dropped = True
        try:
            self._raw.release()
        except BufferError:  # an exported sub-buffer still pins it
            pass


class Ledger:
    """Outstanding borrows of one owner (a storage backend or a block).

    Owners call :meth:`borrow` when handing out a view and
    :meth:`invalidate` / :meth:`invalidate_all` when the backing bytes
    change meaning.  Entries are ``(state, lo, hi, raw)`` over the owner's
    address space; GIL-atomic appends keep the borrow path lock-free.
    """

    __slots__ = ("_entries",)

    def __init__(self) -> None:
        self._entries: List[Tuple[_BorrowState, int, int, memoryview]] = []

    def __len__(self) -> int:
        return sum(
            1
            for state, _, _, _ in list(self._entries)
            if not state.dropped and not state.poisoned
        )

    def borrow(self, raw: memoryview, lo: int, hi: int) -> TrackedView:
        """Track ``raw`` (spanning owner addresses ``[lo, hi)``)."""
        state = _BorrowState(_borrow_site())
        if len(self._entries) > 4096:
            self._prune()
        self._entries.append((state, lo, hi, raw))
        return TrackedView(raw, state)

    def adopt(self, view: TrackedView) -> memoryview:
        """Ownership handoff: stop tracking ``view``, return the raw bytes.

        Used when a storage backend retains a flushed block's buffer
        zero-copy — the buffer is immutable from then on, so the borrow
        can never go stale.
        """
        view._check()
        view._state.dropped = True
        return view._raw

    def invalidate(self, lo: int, hi: int, reason: str) -> int:
        """Poison outstanding views overlapping ``[lo, hi)``; return count."""
        poisoned = 0
        for state, a, b, raw in list(self._entries):
            if state.dropped or state.poisoned:
                continue
            if a < hi and lo < b:
                state.poisoned = True
                state.reason = reason
                poisoned += 1
                try:
                    raw.release()
                except BufferError:
                    pass  # a C-level export pins it; wrapper checks still fire
        self._prune()
        return poisoned

    def invalidate_all(self, reason: str) -> int:
        """Poison every outstanding view; return how many were live."""
        poisoned = 0
        for state, _, _, raw in list(self._entries):
            if state.dropped or state.poisoned:
                continue
            state.poisoned = True
            state.reason = reason
            poisoned += 1
            try:
                raw.release()
            except BufferError:
                pass
        self._entries = []
        return poisoned

    def clear(self) -> None:
        """Forget all entries without poisoning (buffer ownership moved)."""
        for state, _, _, _ in list(self._entries):
            state.dropped = True
        self._entries = []

    def _prune(self) -> None:
        self._entries = [
            entry
            for entry in list(self._entries)
            if not entry[0].dropped and not entry[0].poisoned
        ]


def unwrap(buffer: Any) -> Any:
    """Raw buffer for C-level consumers, checking poison first.

    Identity on anything that is not a :class:`TrackedView`, so decode
    paths can call it unconditionally; the guard being off costs one
    ``isinstance`` check.
    """
    if isinstance(buffer, TrackedView):
        return buffer.raw
    return buffer


def as_view(buffer: Any) -> Any:
    """``memoryview(buffer)`` that preserves tracking for tracked buffers."""
    if isinstance(buffer, (TrackedView, memoryview)):
        return buffer
    return memoryview(buffer)


def adopt(view: Any) -> Any:
    """Ownership handoff for possibly-tracked views (see ``Ledger.adopt``)."""
    if isinstance(view, TrackedView):
        view._check()
        view._state.dropped = True
        return view._raw
    return view
