"""Switch-graph runs, switching-flow certificates, and the local-search solver.

The package splits into layers, importable as submodules:

* :mod:`switchflow.graphs` -- the switch-graph record, validation, JSON
  and DOT serialization;
* :mod:`switchflow.simulate` -- deterministic token runs, prefix
  re-simulation, and the termination decision;
* :mod:`switchflow.reduction` -- the origin/destination augmentation
  whose two runs decide termination dually;
* :mod:`switchflow.flows` -- switching-flow verification, completion of
  partial flows into certificates, and per-slot bound audits;
* :mod:`switchflow.local_search` -- the neighborhood/potential pair
  whose local optima are exactly the certificates, with the walker and
  certificate extraction;
* :mod:`switchflow.generate` -- seeded random instances;
* :mod:`switchflow.suite` -- the end-to-end property suite;
* :mod:`switchflow.cli` -- the ``switchflow`` command.

The most common entry points are re-exported here.
"""

from .flows import (
    BoundReport,
    Completion,
    FlowCheckReport,
    check_bounds,
    complete,
    desperation,
    verify,
)
from .generate import GeneratorSpec, instance_stream
from .graphs import (
    EVEN,
    ODD,
    EdgeSlot,
    GraphFormatError,
    SwitchGraph,
    graph,
    parse,
    require_valid,
    reverse_reachable,
    serialize,
    to_dot,
    validate,
)
from .local_search import (
    Certificate,
    LocalOptInstance,
    SearchState,
    extract_certificate,
    solve_s_arrival,
    walk_localopt,
)
from .reduction import AugmentedInstance, DualityReport, augment, check_duality
from .simulate import (
    RunOutcome,
    Verdict,
    decide_arrival,
    run,
    run_prefix,
)
from .suite import CheckReport, run_checks

__version__ = "0.1.0"

__all__ = [
    "AugmentedInstance",
    "BoundReport",
    "Certificate",
    "CheckReport",
    "Completion",
    "DualityReport",
    "EVEN",
    "EdgeSlot",
    "FlowCheckReport",
    "GeneratorSpec",
    "GraphFormatError",
    "LocalOptInstance",
    "ODD",
    "RunOutcome",
    "SearchState",
    "SwitchGraph",
    "Verdict",
    "augment",
    "check_bounds",
    "check_duality",
    "complete",
    "decide_arrival",
    "desperation",
    "extract_certificate",
    "graph",
    "instance_stream",
    "parse",
    "require_valid",
    "reverse_reachable",
    "run",
    "run_checks",
    "run_prefix",
    "serialize",
    "solve_s_arrival",
    "to_dot",
    "validate",
    "verify",
    "walk_localopt",
]
