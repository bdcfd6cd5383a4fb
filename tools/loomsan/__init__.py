"""loomsan: command-line driver for the Loom sanitizer layer.

Wraps the pieces that live in :mod:`tools.loomsan.sanitizer` and
:mod:`tools.loomsan.schedule` into CI-runnable verbs:

* ``loomsan dfs``    — exhaustive interleaving exploration of the
  seqlock scenario with the happens-before race detector attached;
* ``loomsan fuzz``   — PCT-style randomized schedule fuzzing of the
  same scenario, recording every failing schedule as replayable JSON;
* ``loomsan replay`` — re-run one recorded failing schedule exactly;
* ``loomsan shadow`` — build a real RecordLog under the shadow model
  and run the full differential-oracle pass.

``--mutant`` switches ``dfs``/``fuzz``/``replay`` to the seeded
known-bad :class:`~tools.loomsan.scenarios.UnversionedBlock`, turning
the verb into a self-test: exit 0 then means "the sanitizer caught the
seeded bug".  See ``python -m tools.loomsan --help`` for exit codes.
"""

from .scenarios import UnversionedBlock, detector_scenario, recycle_vs_reader_scenario

__all__ = [
    "UnversionedBlock",
    "detector_scenario",
    "recycle_vs_reader_scenario",
]
