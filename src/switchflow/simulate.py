"""Deterministic token runs and the termination decision.

The run starts at the graph's origin with every switch pointing at the
even successor.  Each step departs the current vertex through the slot
its switch points at, toggles that switch, and moves to the slot's head.
The run terminates when the destination is reached.

The ``4n``-step phase that ends most runs (:func:`_step`) steps on the
graph's own successor tuples, with the even and odd departure counts as
its state: a vertex departs even next exactly when they are equal.  A
run that outlives the phase builds a slot table, per vertex the slot
(``2v`` or ``2v + 1``) it departs through next; the graph is never
mutated.  Records give switch positions as a switch word, bit ``v`` set
where ``v`` departs odd next.  A full state is the pair (vertex, switch
word), one of ``n * 2**n``, so the destination is reached or one repeats.

The engine computes outcomes only.  Traces replay the run
(:func:`replay`) one step at a time after it ends, in O(n) memory too.

One stopped run, from any vertex and switch word to the first of a set
of stops, serves :func:`simulate` (also named ``run``),
:func:`decide_arrival`, :func:`run_prefix` (with a budget of ``t``
steps), the local-search walk and flow completion.  A run kept to the
vertices that reach a target arrives (Dohrau et al.), so a run that
never arrives enters the closed region ``X`` of the vertices that reach
none.  After the ``4n``-step phase, deciding arrival
stops the run in ``X`` or where ``X`` is out of reach, often at once,
and :func:`simulate` stops it in ``X``, from where :func:`_first_repeat`
seeks a repeat by Brent's cycle detection in O(n) memory.  When one
vertex cuts every cycle of the non-stop vertices, the stopped run is
computed by batched passes that fire each vertex's whole token count
at once, with a bisection over the feedback vertex's departure count,
and ``flows.verify`` checks the profile before it is trusted.  Other
stopped runs are stepped by :func:`_tail`, with no step counter or
cycle check.

Counters are plain Python integers, so profile entries and step counts
are exact at any magnitude.
"""

from __future__ import annotations

import sys
from enum import Enum
from itertools import repeat
from operator import add, sub
from typing import Collection, Container, Iterable, Iterator, NamedTuple, Sequence

from .graphs import PARITY_NAMES, SwitchGraph, distances_to, require_valid, slot_order


class Verdict(str, Enum):
    TERMINATED = "terminated"
    NON_TERMINATING = "non-terminating"
    BUDGET_EXHAUSTED = "budget-exhausted"


class CycleWitness(NamedTuple):
    """A repeated (vertex, switches) state and the two steps it occurred at."""

    vertex: int
    switches: int
    first_step: int
    second_step: int


class RunOutcome(NamedTuple):
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
    budget: int | None = None,
    *,
    start: int | None = None,
    switches: int = 0,
    targets: Iterable[int] | None = None,
) -> RunOutcome:
    """Run the token until a target vertex, a repeated state, or the budget.

    The run from ``start`` (default: the origin) and the switch word
    ``switches`` to the first of ``targets`` (default: the destination)
    takes :func:`decide_arrival`'s steps: the ``4n`` phase, then the
    stopped run to a target or into the closed region ``X`` of the
    vertices that reach none.  No state outside ``X`` repeats, so only a
    token in ``X`` goes on to :func:`_first_repeat`'s cycle search, from
    the step it entered ``X`` at.  ``run`` is this function.  The default
    budget makes the verdict decisive; :func:`replay` replays the steps.
    """
    g = require_valid(g)
    n, start = g.n, _start(g, start, switches)
    if budget is not None and _integer(budget, "budget") < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    # a target out of range names no vertex, so it stops nothing
    ends = {g.dest} if targets is None else {t for t in targets if 0 <= _integer(t, "a target") < n}
    cap = default_budget(n) if budget is None else budget
    steps, v, evens, odds = _step(g, start, switches, ends, min(4 * n, cap))
    if v in ends:
        return RunOutcome(Verdict.TERMINATED, tuple(slot_order(evens, odds)), steps, v)
    x = _out_of_reach(g, ends)
    prefix = None if v in x else (steps, v, evens, odds)  # X is closed
    out = _stopped_run(g, start, switches, x | ends, cap, prefix=prefix)
    v = out.final_vertex
    if v not in ends and v not in x and budget is None:
        raise AssertionError(f"the stopped run ended at {v}, not at a stop; indicates a bug")
    if v not in x:
        return out
    profile = list(out.profile)
    nxt = _departures(n, switches, profile[0::2], profile[1::2])
    return _first_repeat(g.heads(), v, nxt, profile, out.steps, cap)


run = simulate


def _start(g: SwitchGraph, start: int | None, switches: int) -> int:
    """``start`` (default: the origin), checked to be a vertex, and ``switches`` a switch word."""
    start = g.origin if start is None else _integer(start, "start")
    if not 0 <= start < g.n:
        raise ValueError(f"start out of range ({start} not in 0..{g.n - 1})")
    if _integer(switches, "switches") >> g.n:  # negative words shift to -1
        raise ValueError(f"switches out of range ({switches} not in 0..2**{g.n} - 1)")
    return start


def _integer(k: int, name: str) -> int:
    """``k``, checked to be an ``int``, which (as in ``graphs.validate``) no bool is."""
    if isinstance(k, int) and not isinstance(k, bool):
        return k
    raise ValueError(f"{name} must be an integer, got {k!r}")


def _departures(n: int, sw: int, evens: Sequence[int] = (), odds: Sequence[int] = ()) -> list[int]:
    """The slot table of the switch word ``sw`` after ``evens``/``odds`` departures."""
    nxt = [2 * v + (sw >> v & 1) for v in range(n)] if sw else range(0, 2 * n, 2)
    return list(map(add, nxt, map(sub, evens, odds))) if evens else list(nxt)


def _step(
    g: SwitchGraph, v: int, switches: int, stops: Container[int], budget: int
) -> tuple[int, int, list[int], list[int]]:
    """The ``4n``-step phase: the run from vertex ``v`` and the switch word
    ``switches`` to the first of ``stops`` or ``budget`` steps; returns the
    steps, the vertex and the even and odd departures per vertex.  Those
    counts are its state, and it steps on ``g.even`` and ``g.odd``, with
    no slot table: a vertex departs even next exactly when they are equal."""
    even, odd, evens, odds, preset = g.even, g.odd, [0] * g.n, [0] * g.n, []
    while switches:  # a preset bit reads as an even departure already made
        u = (switches & -switches).bit_length() - 1
        evens[u] = 1
        preset.append(u)
        switches &= switches - 1
    for steps in range(budget):
        if v in stops:
            break
        k = evens[v]
        if k == odds[v]:
            evens[v] = k + 1
            v = even[v]
        else:  # the odd count is k - 1
            odds[v] = k
            v = odd[v]
    else:
        steps = budget
    for u in preset:
        evens[u] -= 1
    return steps, v, evens, odds


def _first_repeat(
    heads: list[int], v: int, nxt: list[int], profile: list[int], step: int, budget: int
) -> RunOutcome:
    """The run on from its state at ``step``, at or before its first
    repeat: vertex ``v``, slot table ``nxt`` and ``profile`` (both stepped
    in place), to that repeat or to ``budget`` steps.

    Brent's cycle detection: each state is compared with the anchor, the
    state at the last power-of-two step from step 2 on, counted from
    ``step`` (a step flips a switch, so no state recurs a step later), by
    table only where the vertices agree.  A state before the cycle never
    recurs, so the first match gives the cycle length exactly.  The state
    at ``budget`` is the last anchor, for ``budget - step`` more steps: a
    repeat within the budget puts it on a cycle that short.  On a match,
    a lead token ``cycle`` steps ahead of a trailing one from ``step``
    first shares its state at the first repeat, mu."""
    left = budget - step
    start_v, start_nxt, start_profile = v, nxt[:], profile[:]
    anchor_v, anchor_nxt, anchor, mark = -1, None, 0, min(2, left)
    stop_v, stop_profile = v, profile  # the state at ``budget``
    for steps in range(1, 2 * left + 1):
        s = nxt[v]
        profile[s] += 1
        nxt[v] = s ^ 1
        v = heads[s]
        if v == anchor_v and nxt == anchor_nxt:
            break
        if steps == mark:
            anchor_v, anchor_nxt, anchor, mark = v, nxt[:], steps, min(2 * steps, left)
            if steps == left:
                stop_v, stop_profile = v, profile[:]
    else:
        return RunOutcome(Verdict.BUDGET_EXHAUSTED, tuple(stop_profile), budget, stop_v)
    cycle = steps - anchor
    v, nxt, profile, lead_nxt = start_v, start_nxt, start_profile, start_nxt[:]
    lead_v = _tail(heads, v, lead_nxt, profile, (), cycle)[1]
    mu = 0
    while lead_v != v or lead_nxt != nxt:
        s = lead_nxt[lead_v]
        profile[s] += 1
        lead_nxt[lead_v] = s ^ 1
        lead_v = heads[s]
        s = nxt[v]
        nxt[v] = s ^ 1
        v = heads[s]
        mu += 1
    if mu + cycle > left:
        return RunOutcome(Verdict.BUDGET_EXHAUSTED, tuple(stop_profile), budget, stop_v)
    sw = sum(1 << u for u, s in enumerate(nxt) if s & 1)  # the switch word
    witness = CycleWitness(v, sw, step + mu, step + mu + cycle)
    return RunOutcome(Verdict.NON_TERMINATING, tuple(profile), step + mu + cycle, v, witness)


def run_prefix(g: SwitchGraph, t: int) -> PrefixState:
    """The state after exactly ``t`` steps: the stopped run with budget ``t``.

    Raises ValueError("prefix beyond termination ...") if the run
    reaches the destination in fewer than ``t`` steps.
    """
    g = require_valid(g)
    if _integer(t, "step count") < 0:
        raise ValueError(f"step count must be nonnegative, got {t}")
    outcome = _stopped_run(g, g.origin, 0, (g.dest,), t)
    if outcome.steps < t:
        raise ValueError(
            f"prefix beyond termination: run ended after {outcome.steps} steps, {t} requested"
        )
    return PrefixState(outcome.final_vertex, outcome.profile, _switch_word(outcome.profile))


def _switch_word(counts: Sequence[int]) -> int:
    """The switch word after departures ``counts``: their parity imbalances."""
    return sum(1 << v for v in range(len(counts) // 2) if (counts[2 * v] + counts[2 * v + 1]) & 1)


def decide_arrival(g: SwitchGraph) -> bool:
    """True iff the run from origin reaches the destination ``d``: iff it
    reaches ``d`` before the closed region ``X`` of the vertices that
    cannot (Dohrau et al.).  After the ``4n`` phase, the run is stopped
    in ``X`` or at ``d`` or another vertex from which ``X`` is out of reach."""
    g = require_valid(g)
    prefix = _step(g, g.origin, 0, (g.dest,), 4 * g.n)
    v = prefix[1]
    if v == g.dest:
        return True
    x = _out_of_reach(g, (g.dest,))
    if not x or v in x:  # every vertex reaches d, or the run is in X
        return not x
    safe = _out_of_reach(g, x, (g.dest,))  # d, and where no path into X avoids d
    if v not in safe:  # the phase entered neither region: it is the run's start
        v = _stopped_run(g, g.origin, 0, x | safe, prefix=prefix).final_vertex
    return v not in x


def _out_of_reach(g: SwitchGraph, targets: Iterable[int], avoid: Container[int] = ()) -> set[int]:
    """The vertices with no path to ``targets`` that enters no vertex of ``avoid``."""
    return {v for v, k in enumerate(distances_to(g, targets, avoid)) if k is None}


def _stopped_run(
    g: SwitchGraph, start: int, switches: int, stops: Collection[int],
    budget: int | None = None, *, prefix: tuple | None = None,
) -> RunOutcome:
    """The run from ``start`` and the switch word ``switches`` to the first
    of ``stops``, or its first ``budget`` steps (default ``2n * 2**n``),
    without cycle checks: a run toward stops that every vertex reaches
    repeats no state.  The ``4n``-step phase (:func:`_step`), or a
    caller's ``prefix = (steps, vertex, evens, odds)`` of the run, ends
    short runs; longer ones are batched (:func:`_multirun`) or stepped
    on by :func:`_tail`, from a slot table built only then."""
    n = g.n
    budget = default_budget(n) if budget is None else budget
    steps, v, evens, odds = prefix or _step(g, start, switches, stops, min(4 * n, budget))
    profile = slot_order(evens, odds)
    if v not in stops and steps < budget:
        batched = _multirun(g, stops, start, switches, profile)
        if batched is not None and batched.steps <= budget:
            return batched
        nxt = _departures(n, switches, evens, odds)
        more, v = _tail(g.heads(), v, nxt, profile, stops, budget - steps)
        steps += more
    verdict = Verdict.TERMINATED if v in stops else Verdict.BUDGET_EXHAUSTED
    return RunOutcome(verdict, tuple(profile), steps, v)


def _tail(
    heads: list[int], v: int, nxt: list[int], profile: list[int], stops: Iterable[int], budget: int
) -> tuple[int, int]:
    """Step the token from vertex ``v`` and slot table ``nxt`` (in place),
    counting departures into ``profile``, until one of ``stops`` or
    ``budget`` steps, whichever comes first; a budget past
    ``sys.maxsize`` steps, which no run reaches, is cut there.  Returns
    the steps taken and the vertex reached.

    The loop for long stepped runs: the stops are flags in a list (those
    outside ``0..n-1`` flag nothing), a table gives each slot's sibling,
    and it keeps no step counter and makes no cycle check, since the
    profile counts every step."""
    stop = [False] * len(nxt)
    for t in stops:
        if 0 <= t < len(stop):
            stop[t] = True
    sibling = [s ^ 1 for s in range(len(profile))]
    before = sum(profile)
    for _ in repeat(None, min(budget, sys.maxsize)):
        if stop[v]:
            break
        s = nxt[v]
        profile[s] += 1
        nxt[v] = sibling[s]
        v = heads[s]
    return sum(profile) - before, v


def _multirun(
    g: SwitchGraph, stops: Collection[int], start: int, switches: int, departed: Sequence[int]
) -> RunOutcome | None:
    """The run from ``start`` and the switch word ``switches`` to the
    first of ``stops``, in batched passes, or None when no vertex ``s``
    leaves the other non-stop vertices acyclic or some vertex reaches no
    stop.  ``departed``, the slot counts of a prefix of the run (all zero
    for the empty one), picks ``s`` first and bounds its departures.

    A pass fires ``s`` ``w`` times, then each other non-stop vertex once
    in topological order: ``k`` tokens send ``ceil(k/2)`` through the slot
    the switch points at, ``floor(k/2)`` through the other (Gärtner,
    Haslebacher, Hoang).  The tokens absorbed at stops rise by at most one
    per unit of ``w``, so ``a`` of them bound the least absorbing ``w`` by
    ``w - a + 1``; that ``w`` is the run's departure count from ``s``, and
    its pass's slot counts are the run profile, returned only once
    ``flows.verify`` accepts it (with preset switches' slots swapped)."""
    from . import flows

    n = g.n
    # the most departed vertex of a prefix is the likeliest to cut every cycle
    guess = departed.index(max(departed)) >> 1
    found = _feedback_vertex(g, set(range(n)).difference(stops), guess)
    if found is None:
        return None
    s, order = found
    order.insert(0, s)
    heads, nxt = g.heads(), _departures(n, switches)
    passes = [(v, heads[nxt[v]], heads[nxt[v] ^ 1]) for v in order]

    def fire(w: int) -> list[int]:
        tokens = [0] * n
        tokens[start] = 1
        tokens[s] = w  # the start's token is one of them when s is the start
        for v, first, second in passes:
            k = tokens[v]
            tokens[first] += k - (k >> 1)
            tokens[second] += k >> 1
        return tokens

    def absorbed(w: int) -> int:  # the tokens fired less those back at s
        return w + (start != s) - (fire(w)[s] - w)

    lo = departed[2 * s] + departed[2 * s + 1] - 1
    hi = lo + 1
    a = absorbed(hi)
    while not a:
        if hi >= 8 << n:
            return None
        lo, hi = hi, 2 * hi + 1
        a = absorbed(hi)
    hi -= a - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if absorbed(mid):
            hi = mid
        else:
            lo = mid
    tokens = fire(hi)
    tokens[s] = hi  # each vertex's count is the tokens it fired
    profile = [0] * (2 * n)
    for v in order:
        profile[nxt[v]] = tokens[v] - (tokens[v] >> 1)
        profile[nxt[v] ^ 1] = tokens[v] >> 1
    reached = next(t for t in stops if tokens[t])
    board, counts = g, profile
    if switches:  # the run from even switches on the board with preset slots swapped
        even, odd = (tuple(heads[si ^ p] for si in nxt) for p in (0, 1))
        board = SwitchGraph(n, even, odd, start, reached)
        counts = [profile[si ^ p] for si in nxt for p in (0, 1)]
    report = flows.verify(board, start, reached, counts)
    if not report.valid or any(profile[2 * t] or profile[2 * t + 1] for t in stops):
        raise AssertionError(
            "batched run profile failed verification: "
            f"{report.conservation_violations} {report.parity_violations}"
        )
    return RunOutcome(Verdict.TERMINATED, tuple(profile), sum(profile), reached)


def _feedback_vertex(
    g: SwitchGraph, vertices: set[int], guess: int | None = None
) -> tuple[int, list[int]] | None:
    """A vertex whose removal leaves ``vertices`` acyclic, with a
    topological order of the rest, or None.  Such a vertex lies on every
    cycle, so after ``guess`` (if one of ``vertices``) only the vertices
    of one cycle are tried, unless the rest holds a cycle too, and each
    failure narrows them to a cycle that avoids it: O(n) per try."""
    if guess not in vertices:
        guess = None
    order, left = _topological_order(g, vertices - {guess})
    if not left:
        if guess is not None:
            return guess, order
        return (order[0], order[1:]) if order else None
    preds = g.predecessor_slots()
    candidates = _cycle(preds, left)
    if _topological_order(g, vertices.difference(candidates))[1]:
        return None  # a second cycle, disjoint from the first
    while candidates:
        s = candidates.pop()
        order, left = _topological_order(g, vertices - {s})
        if not left:
            return s, order
        on_cycle = set(_cycle(preds, left))
        candidates = [v for v in candidates if v in on_cycle]
    return None


def _topological_order(g: SwitchGraph, vertices: set[int]) -> tuple[list[int], set[int]]:
    """Kahn's order of the vertices not downstream of a cycle within
    ``vertices``, and the set of the others."""
    even, odd = g.even, g.odd
    indegree = dict.fromkeys(vertices, 0)
    for v in vertices:
        for w in (even[v], odd[v]):
            if w in indegree:
                indegree[w] += 1
    order = [v for v in vertices if not indegree[v]]
    for v in order:  # the list grows as it is read
        for w in (even[v], odd[v]):
            if w in indegree:
                indegree[w] -= 1
                if not indegree[w]:
                    order.append(w)
    return order, vertices.difference(order)


def _cycle(preds: list[list[int]], left: set[int]) -> list[int]:
    """A cycle within ``left``, walked backwards: every vertex Kahn's
    order leaves over has a predecessor that is left over too."""
    v = next(iter(left))
    position: dict[int, int] = {}
    path = []
    while v not in position:
        position[v] = len(path)
        path.append(v)
        v = next(si // 2 for si in preds[v] if si // 2 in left)
    return path[position[v]:]


def replay(
    g: SwitchGraph, steps: int, *, start: int | None = None, switches: int = 0
) -> Iterator[TraceStep]:
    """The first ``steps`` steps of the run from ``start`` (default: the
    origin) and the switch word ``switches``, lazily, ignoring targets:
    the trace of an outcome is the replay of its ``steps``."""
    g = require_valid(g)
    v, heads, nxt = _start(g, start, switches), g.heads(), _departures(g.n, switches)
    for step in range(_integer(steps, "step count")):
        s = nxt[v]
        nxt[v] = s ^ 1
        yield TraceStep(step, v, s & 1, heads[s])
        v = heads[s]


def format_trace(trace: Iterable[TraceStep]) -> Iterator[str]:
    """One deterministic line per step, lazily: ``step <i>: <v> -<parity>-> <w>``."""
    return (f"step {s.step}: {s.tail} -{PARITY_NAMES[s.parity]}-> {s.head}" for s in trace)


def outcome_to_doc(outcome: RunOutcome) -> dict:
    """JSON-ready dict with the profile in slot order."""
    doc: dict = {
        "verdict": outcome.verdict.value,
        "steps": outcome.steps,
        "final_vertex": outcome.final_vertex,
        "profile": list(outcome.profile),
    }
    if outcome.cycle_witness is not None:
        doc["cycle_witness"] = outcome.cycle_witness._asdict()
    return doc
