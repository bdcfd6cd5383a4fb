"""Named yield points for deterministic schedule exploration.

The seqlock protocol in :mod:`repro.core.block` and the flush/publish
machinery in :mod:`repro.core.hybridlog` mark the instants where a
concurrent interleaving can change the outcome by calling :func:`hit`
with a stable label.  In production no hook is installed and ``hit`` is
a global load plus a ``None`` check — readers stay lock-free and the
writer's hot path stays branch-predictable.  The hottest call sites
additionally guard on the module-level :data:`active` flag so that the
keyword payloads below are never even built in production.

Two kinds of consumer attach here:

* The interleaving explorer and schedule fuzzer
  (:mod:`tools.loomsan.schedule`) install a *hook* that parks the calling
  thread until the scheduler grants it the next step, turning :func:`hit`
  call sites into the alphabet of explorable schedules.  Labels are part
  of that contract: renaming one invalidates recorded schedules, so
  treat them like a wire format.
* The sanitizer (:mod:`tools.loomsan.sanitizer`) registers *observers*
  that receive ``(label, info)`` for every :func:`hit` **and** every
  :func:`note`.  Notes are observation-only events — they never park or
  schedule, so adding one does not change the explorable schedule space.

A hook may be installed with a ``teardown`` callback; :func:`clear_hook`
invokes it after unsetting the hook so the scheduler can release any
threads still parked inside the old hook (they must fail fast rather
than stay blocked forever).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

Hook = Callable[[str], None]
Observer = Callable[[str, Dict[str, object]], None]

_hook: Optional[Hook] = None
_teardown: Optional[Callable[[], None]] = None
_observers: Tuple[Observer, ...] = ()

#: True whenever a hook or at least one observer is installed.  Hot call
#: sites may check this before building their keyword payload; ``hit``
#: and ``note`` themselves stay correct either way.
active: bool = False


def _refresh_active() -> None:
    global active
    active = _hook is not None or bool(_observers)


def set_hook(hook: Hook, teardown: Optional[Callable[[], None]] = None) -> None:
    """Install ``hook`` to be called with each yield-point label.

    ``teardown``, if given, is invoked by :func:`clear_hook` *after* the
    hook is unset, so it can unblock threads parked inside the hook.
    """
    global _hook, _teardown
    _hook = hook
    _teardown = teardown
    _refresh_active()


def clear_hook() -> None:
    """Remove the installed hook (production mode: yield points no-op).

    If the hook was installed with a teardown callback, it runs here —
    releasing (fail-fast) any scenario threads still parked inside the
    old hook, instead of leaving them blocked forever.
    """
    global _hook, _teardown
    teardown = _teardown
    _hook = None
    _teardown = None
    _refresh_active()
    if teardown is not None:
        teardown()


def add_observer(observer: Observer) -> None:
    """Register an observation-only consumer of ``(label, info)`` events."""
    global _observers
    _observers = _observers + (observer,)
    _refresh_active()


def remove_observer(observer: Observer) -> None:
    """Unregister an observer previously added with :func:`add_observer`."""
    global _observers
    _observers = tuple(o for o in _observers if o is not observer)
    _refresh_active()


def hit(label: str, **info: object) -> None:
    """Announce a yield point.  No-op unless a hook/observer is installed.

    Observers see the event (with its ``info`` payload) *before* the
    hook runs, because the hook may park the calling thread: the event
    has already happened in program order by the time the scheduler
    decides who runs next.
    """
    observers = _observers
    if observers:
        for observer in observers:
            observer(label, info)
    hook = _hook
    if hook is not None:
        hook(label)


def note(label: str, **info: object) -> None:
    """Announce an observation-only event: observers see it, hooks do not.

    Notes never park or schedule, so instrumenting a new note does not
    change schedule counts or invalidate recorded schedules.
    """
    observers = _observers
    if observers:
        for observer in observers:
            observer(label, info)
