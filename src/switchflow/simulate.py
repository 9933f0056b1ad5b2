"""Deterministic token runs and the termination decision.

The run starts at the graph's origin with every switch pointing at the
even successor.  Each step departs the current vertex through the slot
its switch points at, toggles that switch, and moves to the slot's head.
The run terminates when the destination is reached.

All switch positions are packed into one integer bitmask (bit ``v`` set
means vertex ``v`` departs through its odd successor next), so a full
simulation state is the pair (vertex, switches) and the graph itself is
never mutated.  The state space has size ``n * 2**n``, so either the
destination is reached or some state repeats.  Repeats are found by
Brent's cycle detection, which keeps one earlier state instead of every
visited one, so runs need O(n) memory at any ``n``; the decision stops
early, where the destination falls out of reach.

Counters are plain Python integers, so profile entries and step counts
are exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, NamedTuple

from .graphs import EVEN, ODD, SwitchGraph, require_valid, reverse_reachable

class Verdict(str, Enum):
    TERMINATED = "terminated"
    NON_TERMINATING = "non-terminating"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class CycleWitness:
    """A repeated (vertex, switches) state and the two steps it occurred at."""

    vertex: int
    switches: int
    first_step: int
    second_step: int


@dataclass(frozen=True)
class RunOutcome:
    verdict: Verdict
    profile: tuple[int, ...]
    steps: int
    final_vertex: int
    cycle_witness: CycleWitness | None = None


class PrefixState(NamedTuple):
    """Simulation state after exactly t steps."""

    vertex: int
    profile: tuple[int, ...]
    switches: int


class TraceStep(NamedTuple):
    step: int
    tail: int
    parity: int
    head: int


def default_budget(n: int) -> int:
    """Step cap covering any terminating run: twice the per-slot ceiling 2**n."""
    return 2 * n * (1 << n)


def simulate(
    g: SwitchGraph,
    *,
    start: int | None = None,
    switches: int = 0,
    targets: Iterable[int] | None = None,
    budget: int | None = None,
    detect_cycles: bool = True,
    trace: list[TraceStep] | None = None,
) -> RunOutcome:
    """Run the token until a target vertex, a repeated state, or the budget.

    This is the engine behind :func:`run`, :func:`run_prefix`,
    :func:`decide_arrival`, the flow-completion procedure, and the
    local-search oracles: it allows an arbitrary start vertex, initial
    switch positions, and a *set* of stopping vertices.  The graph is
    assumed valid.  ``detect_cycles=False`` ignores repeated states.
    """
    n = g.n
    target_set = frozenset({g.dest} if targets is None else targets)
    if budget is None:
        budget = default_budget(n)
    v = first_v = g.origin if start is None else start
    sw = switches
    profile = [0] * (2 * n)
    steps = 0
    even, odd = g.even, g.odd
    # Brent's cycle detection: each state is compared with the anchor, the
    # state at the last power-of-two step.  A state before the cycle never
    # recurs, so the first match gives the cycle length exactly.
    anchor_v, anchor_sw, anchor_step = v, sw, 0

    while v not in target_set:
        if steps >= budget:
            # A repeat that closed unseen by the anchors has this state on its cycle.
            cycle = _return_time(g, v, sw, target_set, budget) if detect_cycles else None
            break
        bit = 1 << v
        parity = ODD if sw & bit else EVEN
        w = odd[v] if parity else even[v]
        profile[2 * v + parity] += 1
        sw ^= bit
        if trace is not None:
            trace.append(TraceStep(steps, v, parity, w))
        v = w
        steps += 1
        if detect_cycles:
            if v == anchor_v and sw == anchor_sw:
                cycle = steps - anchor_step
                break
            if not steps & (steps - 1):
                anchor_v, anchor_sw, anchor_step = v, sw, steps
    else:
        return RunOutcome(Verdict.TERMINATED, tuple(profile), steps, v)

    if cycle is not None:
        mu, v_mu, sw_mu, profile_mu = _first_repeat(g, first_v, switches, cycle)
        if mu + cycle <= budget:
            if trace is not None:
                del trace[len(trace) - steps + mu + cycle:]
            witness = CycleWitness(v_mu, sw_mu, mu, mu + cycle)
            return RunOutcome(Verdict.NON_TERMINATING, profile_mu, mu + cycle, v_mu, witness)
    return RunOutcome(Verdict.BUDGET_EXHAUSTED, tuple(profile), steps, v)


def _return_time(
    g: SwitchGraph, v: int, sw: int, targets: frozenset[int], limit: int
) -> int | None:
    """Steps until the state (v, sw) recurs, if within ``limit`` and before any target."""
    w, w_sw = v, sw
    for k in range(1, limit + 1):
        bit = 1 << w
        w = g.odd[w] if w_sw & bit else g.even[w]
        w_sw ^= bit
        if w == v and w_sw == sw:
            return k
        if w in targets:
            return None
    return None


def _first_repeat(
    g: SwitchGraph, v: int, sw: int, cycle: int
) -> tuple[int, int, int, tuple[int, ...]]:
    """Where the run from (v, sw) first repeats, given its cycle length: a
    lead token ``cycle`` steps ahead of a trailing one first shares its
    state at step ``mu``.  Returns mu, that state and the lead's profile."""
    even, odd = g.even, g.odd
    profile = [0] * (2 * g.n)
    lead_v, lead_sw = v, sw
    steps = 0
    while steps < cycle or lead_v != v or lead_sw != sw:
        bit = 1 << lead_v
        parity = ODD if lead_sw & bit else EVEN
        profile[2 * lead_v + parity] += 1
        lead_sw ^= bit
        lead_v = odd[lead_v] if parity else even[lead_v]
        if steps >= cycle:
            bit = 1 << v
            v = odd[v] if sw & bit else even[v]
            sw ^= bit
        steps += 1
    return steps - cycle, v, sw, tuple(profile)


def run(
    g: SwitchGraph, budget: int | None = None, *, trace: list[TraceStep] | None = None
) -> RunOutcome:
    """Simulate the run from the graph's origin to its destination.  The
    default budget ``2n * 2**n`` exceeds the ``n * 2**n`` states, so
    without a budget the verdict is always decisive."""
    require_valid(g)
    return simulate(g, budget=budget, trace=trace)


def run_prefix(g: SwitchGraph, t: int) -> PrefixState:
    """Re-simulate from the start and stop after exactly ``t`` steps.

    Raises ValueError("prefix beyond termination ...") if the run
    reaches the destination in fewer than ``t`` steps.
    """
    require_valid(g)
    if t < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    outcome = simulate(g, budget=t, detect_cycles=False)
    if outcome.steps < t:
        raise ValueError(
            f"prefix beyond termination: run ended after {outcome.steps} steps, {t} requested"
        )
    p = outcome.profile
    switches = sum(1 << v for v in range(g.n) if (p[2 * v] + p[2 * v + 1]) & 1)
    return PrefixState(outcome.final_vertex, p, switches)


def decide_arrival(g: SwitchGraph) -> bool:
    """True iff the run from origin reaches the destination.

    Runs that end or repeat early are settled within ``4n`` steps.  Any
    other run stops where the destination falls out of reach: the token
    never arrives from a vertex with no path to it, and a run that keeps
    to the vertices with one arrives (Dohrau et al.)."""
    require_valid(g)
    outcome = simulate(g, budget=4 * g.n)
    if outcome.verdict is Verdict.BUDGET_EXHAUSTED:
        stops = set(range(g.n)) - reverse_reachable(g, g.dest) | {g.dest}
        outcome = simulate(g, targets=stops, detect_cycles=False)
        assert outcome.verdict is Verdict.TERMINATED
    return outcome.verdict is Verdict.TERMINATED and outcome.final_vertex == g.dest


def format_trace(trace: Iterable[TraceStep]) -> str:
    """One deterministic line per step: ``step <i>: <v> -<parity>-> <w>``."""
    from .graphs import PARITY_NAMES

    return "\n".join(
        f"step {s.step}: {s.tail} -{PARITY_NAMES[s.parity]}-> {s.head}" for s in trace
    )


def outcome_to_doc(outcome: RunOutcome) -> dict:
    """JSON-ready dict with the profile in slot order."""
    doc: dict = {
        "verdict": outcome.verdict.value,
        "steps": outcome.steps,
        "final_vertex": outcome.final_vertex,
        "profile": list(outcome.profile),
    }
    if outcome.cycle_witness is not None:
        w = outcome.cycle_witness
        doc["cycle_witness"] = {
            "vertex": w.vertex,
            "switches": w.switches,
            "first_step": w.first_step,
            "second_step": w.second_step,
        }
    return doc
