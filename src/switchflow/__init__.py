"""Switch-graph runs, switching-flow certificates, and the local-search solver.

The package splits into layers, importable as submodules:

* :mod:`switchflow.graphs` -- the switch-graph record, validation, JSON
  and DOT serialization;
* :mod:`switchflow.simulate` -- deterministic token runs, prefix
  re-simulation, and the termination decision;
* :mod:`switchflow.condensation` -- the strongly connected components
  that long runs and the decision go down;
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

The most common entry points are re-exported here.  Each layer loads on
first use, of a re-exported name or of the layer itself, so a program
(or a ``switchflow`` command) that needs one layer pays for no other.
"""

import importlib

_EXPORTS = {
    "flows": (
        "BoundReport",
        "Completion",
        "FlowCheckReport",
        "check_bounds",
        "complete",
        "desperation",
        "verify",
    ),
    "generate": ("GeneratorSpec", "instance_stream"),
    "graphs": (
        "EVEN",
        "ODD",
        "GraphFormatError",
        "SwitchGraph",
        "graph",
        "parse",
        "require_valid",
        "serialize",
        "to_dot",
        "validate",
    ),
    "local_search": (
        "Certificate",
        "LocalOptInstance",
        "SearchState",
        "extract_certificate",
        "solve_s_arrival",
        "walk_localopt",
    ),
    "reduction": ("AugmentedInstance", "DualityReport", "augment", "check_duality"),
    "simulate": ("RunOutcome", "Verdict", "decide_arrival", "run", "run_prefix"),
    "suite": ("CheckReport", "run_checks"),
}
_HOME = {name: layer for layer, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
