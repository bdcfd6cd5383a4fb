"""The seqlock scenario and the seeded mutant the loomsan CLI drives.

These mirror the scenario used by the tier-1 interleaving tests: a
writer recycles and remaps a block while a reader copies a range from
the block's first life.  The CLI ships its own copy so the installed
``loomsan`` console script does not depend on the test tree.
"""

from __future__ import annotations

from typing import Dict, Type, Union

from repro.core import yieldpoints
from repro.core.block import Block
from repro.core.errors import SnapshotRetry
from .sanitizer import RaceDetector
from .schedule import Scenario, ThreadSpec


class UnversionedBlock(Block):
    """A block whose recycle 'forgets' the seqlock version bumps.

    The seeded known-bad mutant: without the odd/even bumps a reader
    that snapshotted its bounds before the recycle will happily copy
    bytes written after it.  loomsan's self-test modes must flag this.
    """

    __slots__ = ()

    def recycle(self) -> None:  # loomlint: disable=LOOM102,LOOM107
        with self._lock:
            yieldpoints.hit("block.recycle.begin")
            self.base_address = None
            self.filled = 0
            yieldpoints.hit("block.recycle.cleared")
        if self.recycle_event is not None:
            self.recycle_event.set()


def recycle_vs_reader_scenario(block_cls: Type[Block]) -> Scenario:
    """Writer recycles+remaps a block while a reader copies its old range.

    The reader targets ``[0, 4)`` of the block's first life (b"AAAA").
    Consistent outcomes: the old bytes, or an explicit fallback signal.
    Bytes from the second life (b"BBBB") mean the seqlock failed.
    """
    block = block_cls(8)
    block.map(0)
    block.write(b"AAAA")

    def writer() -> None:
        block.recycle()
        block.map(8)
        block.write(b"BB")
        block.write(b"BB")
        return None

    def reader() -> Union[bytes, str]:
        try:
            return block.read_range(0, 4, retries=2)
        except SnapshotRetry:
            return "fallback"

    def check(results: Dict[str, object]) -> None:
        value = results["reader"]
        assert value in (b"AAAA", "fallback"), (
            f"reader observed {value!r} for address range [0, 4): the copy "
            f"validated against bytes from the block's next life"
        )

    return Scenario(
        threads=[ThreadSpec("writer", writer), ThreadSpec("reader", reader)],
        check=check,
    )


def detector_scenario(block_cls: Type[Block]) -> Scenario:
    """The same scenario judged by the happens-before race detector.

    The semantic check is disabled so a failure can only come from the
    detector — this is how the CLI demonstrates the detector alone
    convicts the mutant.
    """
    scenario = recycle_vs_reader_scenario(block_cls)
    scenario.check = lambda results: None
    scenario.observers = [RaceDetector()]
    return scenario
