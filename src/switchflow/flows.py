"""Switching flows: integer certificates for run termination.

A switching flow from ``origin`` to ``dest`` is a nonnegative integer
per edge slot satisfying, at every vertex,

1. conservation: outflow minus inflow is +1 at the origin, -1 at the
   destination, 0 elsewhere (self-loop slots count in both sums), and
2. parity balance: ``0 <= odd <= even <= odd + 1`` between the two slot
   counts of the vertex.

Every run profile is such a flow, and the existence of one certifies
that the run terminates, so flows act as portable certificates that can
be checked without re-simulating.  The degenerate ``origin == dest``
case, which the definition proper excludes, is accepted here with the
required imbalance being 0 everywhere; the local-search layer needs the
all-zero flow at the fresh origin to count as valid.

:func:`complete` turns any flow into a full certificate on an augmented
board: it runs the token from the flow's endpoint with the switches
preset to the flow's parity imbalances to the first terminal (the
stopped run of :mod:`switchflow.simulate`), and adds that run's profile
on top.  :func:`check_bounds` audits the per-slot ceilings that make the
completed flows (and hence the local-search state space) fixed-width:
no slot outside the reached terminal ever exceeds ``2**m - 1`` on a
board with ``m`` vertices.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Sequence

from .graphs import (
    GraphFormatError,
    SolverError,
    SwitchGraph,
    _array,
    _document,
    _dumps,
    _int_field,
    _integer,
    distances_to,
)

if TYPE_CHECKING:
    from .reduction import AugmentedInstance

# A certificate's witness kind: its flow drains into the board's
# destination, or into the fresh sink of a run that never arrives.
TERMINATION = "termination"
NON_TERMINATION = "non-termination"
KINDS = (TERMINATION, NON_TERMINATION)


class CompletionError(SolverError):
    """The completion run failed to reach a terminal; indicates a bug."""


class ConservationViolation(NamedTuple):
    vertex: int
    found: int
    required: int


class ParityViolation(NamedTuple):
    vertex: int
    even_count: int
    odd_count: int


class FlowCheckReport(NamedTuple):
    conservation_violations: tuple[ConservationViolation, ...]
    parity_violations: tuple[ParityViolation, ...]

    @property
    def valid(self) -> bool:
        return not self.conservation_violations and not self.parity_violations


def verify(
    g: SwitchGraph, origin: int, dest: int, counts: Sequence[int]
) -> FlowCheckReport:
    """Check both switching-flow conditions, reporting every violation;
    an entry, ``origin`` or ``dest`` that is no integer raises ValueError."""
    n = g.n
    if len(counts) != 2 * n:
        raise ValueError(f"flow has {len(counts)} entries, graph has {2 * n} slots")
    if not (type(origin) is int and type(dest) is int and 0 <= origin < n and 0 <= dest < n):
        for name, v in (("origin", origin), ("dest", dest)):  # name the first that fails
            if not 0 <= _integer(v, name) < n:
                raise ValueError(f"{name} out of range ({v} not in 0..{n - 1})")

    even, odd = g.even, g.odd
    inflow = [0] * n
    required = [0] * n
    if origin != dest:
        required[origin], required[dest] = 1, -1
    conservation = []
    parity = []
    try:
        for v in range(n):
            inflow[even[v]] += counts[2 * v]
            inflow[odd[v]] += counts[2 * v + 1]
        for v in range(n):
            x_even = counts[2 * v]
            x_odd = counts[2 * v + 1]
            net = x_even + x_odd - inflow[v]
            if net != required[v]:
                conservation.append(ConservationViolation(v, net, required[v]))
            # 0 <= x_odd <= x_even <= x_odd + 1 by an operator that no float has
            if (x_even - x_odd) & -2 or x_odd < 0:
                parity.append(ParityViolation(v, x_even, x_odd))
    except TypeError:
        for si, k in enumerate(counts):
            if not isinstance(k, int):
                raise ValueError(f"flow entry {si} must be an integer, got {k!r}") from None
        raise
    return FlowCheckReport(tuple(conservation), tuple(parity))


def desperation(g: SwitchGraph, dest: int) -> tuple[int | None, ...]:
    """Per slot: shortest path length from the slot's head to ``dest``.

    ``None`` marks slots whose head cannot reach the destination at all.
    A value of 0 means the slot points directly at the destination.
    """
    if not 0 <= _integer(dest, "dest") < g.n:
        raise ValueError(f"dest out of range ({dest} not in 0..{g.n - 1})")
    dist = distances_to(g, (dest,))
    return tuple(dist[w] for w in g.heads())


class Completion(NamedTuple):
    reached: int
    flow: tuple[int, ...]


def complete(aug: AugmentedInstance, u: int, counts: Sequence[int]) -> Completion:
    """Extend a flow ending at ``u`` into a full certificate.

    The construction: zero the terminals' self-loop counts (they cancel
    in both conditions), preset every switch to the flow's parity
    imbalance at that vertex, and let the token run from ``u`` until it
    hits one of the two terminals.  Adding that run's profile pointwise
    yields a switching flow to whichever terminal was reached; the
    result is re-verified before returning.
    """
    from . import simulate as _sim

    h = aug.h
    if u == aug.o_bar:
        raise ValueError("cannot complete a flow ending at the fresh origin")
    report = verify(h, aug.o_bar, u, counts)
    if not report.valid:
        raise ValueError(
            "input is not a switching flow to vertex "
            f"{u}: {len(report.conservation_violations)} conservation and "
            f"{len(report.parity_violations)} parity violations"
        )

    x = list(counts)
    for t in (aug.source_dest, aug.d_bar):
        x[2 * t] = x[2 * t + 1] = 0
    if u in (aug.source_dest, aug.d_bar):
        return Completion(u, tuple(x))

    outcome = _sim._stopped_run(h, u, _sim._switch_word(x), aug.terminals)
    if outcome.verdict is not _sim.Verdict.TERMINATED:
        raise CompletionError(
            f"completion run did not reach a terminal within {outcome.steps} steps; "
            "this contradicts the flow bound and indicates a bug"
        )
    reached = outcome.final_vertex
    y = outcome.profile

    incoming = [y[si] for si, w in enumerate(h.heads()) if w == reached]
    if sum(incoming) != 1 or max(incoming) != 1:
        raise AssertionError(
            "completion run must place exactly one unit on one incoming slot "
            f"of the reached terminal, found {incoming}"
        )

    z = tuple(a + b for a, b in zip(x, y))
    final = verify(h, aug.o_bar, reached, z)
    if not final.valid:
        raise AssertionError(
            "completed flow failed verification: "
            f"{final.conservation_violations} {final.parity_violations}"
        )
    return Completion(reached, z)


class BoundViolation(NamedTuple):
    rule: str
    slot: int
    value: int
    limit: int


class BoundReport(NamedTuple):
    """Hard violations fail the report; flags cover the slots of the
    reached terminal itself, which the ceiling argument leaves out."""

    violations: tuple[BoundViolation, ...]
    flags: tuple[BoundViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_bounds(
    aug: AugmentedInstance, counts: Sequence[int], reached: int
) -> BoundReport:
    """Audit the per-slot ceilings of a flow to the given terminal.

    Checked, with ``m`` the vertex count of the augmented board:

    * every slot is below ``2**m``;
    * both slots of the fresh origin carry at most 1 (nothing flows back
      into it);
    * slots whose head lies in the region drained by the *other*
      terminal carry 0 -- for a flow to the original destination that
      region is the rewired unreachable set plus the fresh sink, for a
      flow to the fresh sink it is the original destination, whose
      inflow the zeroed self-loops pin down;
    * a slot whose head is k steps from the reached terminal carries at
      most ``2**(k+1) - 1`` (doubling per step of desperation).

    Slots of the reached terminal are exempt from the ceilings; findings
    there are reported as flags, not violations.
    """
    h = aug.h
    if _integer(reached, "reached") not in (aug.source_dest, aug.d_bar):
        raise ValueError(f"reached must be one of the terminals, got {reached}")
    if len(counts) != 2 * h.n:
        raise ValueError(f"flow has {len(counts)} entries, board has {2 * h.n} slots")

    m = h.n
    ceiling = 1 << m
    if reached == aug.source_dest:
        zero_heads = aug.x_d | {aug.d_bar}
    else:
        zero_heads = {aug.source_dest}
    desp = desperation(h, reached)

    o_bar = aug.o_bar
    violations = []
    flags = []

    def record(rule: str, si: int, value: int, limit: int) -> None:
        finding = BoundViolation(rule, si, value, limit)
        if si // 2 == reached:
            flags.append(finding)
        else:
            violations.append(finding)

    for si, head in enumerate(h.heads()):
        value = counts[si]
        if value >= ceiling:
            record("slot-ceiling", si, value, ceiling - 1)
        if si // 2 == o_bar and value > 1:
            record("fresh-origin", si, value, 1)
        if head in zero_heads and value != 0:
            record("drained-region", si, value, 0)
        k = desp[si]
        if k is not None and value > (1 << (k + 1)) - 1:
            record("desperation", si, value, (1 << (k + 1)) - 1)

    return BoundReport(tuple(violations), tuple(flags))


def parse_certificate(text: str) -> tuple[int, int, tuple[int, ...], str | None]:
    """Parse the flow JSON document ``{"origin", "dest", "counts"}`` with
    an optional ``kind``, as ``solve`` prints it: ``termination`` or
    ``non-termination``, and None when the document has none."""
    doc = _document(text, ("origin", "dest", "counts"), ("kind",))
    kind = doc.get("kind")
    if "kind" in doc and kind not in KINDS:
        raise GraphFormatError(f"$.kind: expected one of {KINDS}, found {kind!r}")
    return _int_field(doc, "origin"), _int_field(doc, "dest"), _array(doc, "counts"), kind


def parse_flow(text: str) -> tuple[int, int, tuple[int, ...]]:
    """Parse the flow JSON document ``{"origin", "dest", "counts"}``; a
    ``kind``, when present, is checked and dropped."""
    return parse_certificate(text)[:3]


def serialize_flow(origin: int, dest: int, counts: Sequence[int]) -> str:
    """Byte-deterministic flow JSON in slot order."""
    return _dumps({"origin": origin, "dest": dest, "counts": list(counts)})


def report_doc(report: FlowCheckReport) -> dict:
    """JSON-ready dict for a verification report."""
    return {
        "valid": report.valid,
        "conservation_violations": [v._asdict() for v in report.conservation_violations],
        "parity_violations": [
            {"vertex": v.vertex, "even": v.even_count, "odd": v.odd_count}
            for v in report.parity_violations
        ],
    }


def bound_report_doc(report: BoundReport) -> dict:
    def rows(findings: tuple[BoundViolation, ...]) -> list[dict]:
        return [
            {
                "rule": f.rule,
                "slot": f.slot,
                "tail": f.slot // 2,
                "parity": f.slot & 1,
                "value": f.value,
                "limit": f.limit,
            }
            for f in findings
        ]

    return {"ok": report.ok, "violations": rows(report.violations), "flags": rows(report.flags)}
