"""loommc — explicit-state model checker for Loom's networked protocol.

Three layers (DESIGN.md section 13):

* :mod:`tools.loommc.modelcheck` — the generic bounded BFS engine
  (safety invariants per state, liveness as reachability under
  fairness, exact counterexample replay as JSON);
* :mod:`tools.loommc.models` — the abstract protocol models
  (ingest exactly-once, circuit breaker, coordinator quarantine) with
  seeded mutants proving the checker catches real ordering bugs;
* :mod:`tools.loommc.conformance` — packet-trace refinement checks
  tying the real ``FaultInjectingTransport`` wire schedules back to
  the model's transition relation.

CLI: ``python -m tools.loommc`` (or the ``loommc`` console script).
"""

from .conformance import abstract_actions, check_trace, parse_trace
from .models import (
    MODELS,
    MUTANTS,
    BreakerModel,
    CoordinatorModel,
    IngestExactlyOnce,
    build_model,
    liveness_properties,
    model_for_mutant,
)

__all__ = [
    "MODELS",
    "MUTANTS",
    "BreakerModel",
    "CoordinatorModel",
    "IngestExactlyOnce",
    "abstract_actions",
    "build_model",
    "check_trace",
    "liveness_properties",
    "model_for_mutant",
    "parse_trace",
]
