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
:func:`run_prefix` (with a budget of ``t`` steps), the local-search walk
and flow completion.  A run kept to the vertices that reach a target
arrives (Dohrau et al.), so a run that never arrives enters the closed
region ``X`` of the vertices that reach none; :func:`simulate` stops it
there, from where :func:`_first_repeat` seeks a repeat by Brent's cycle
detection in O(n) memory.  When one vertex cuts every cycle of the
non-stop vertices, the rest of the stopped run, from the token's state
after the phase, is computed by batched passes (:func:`_multirun`) that
fire each vertex's whole token count at once, with a bisection over the
feedback vertex's departure count, and ``flows.verify`` checks their
slot counts before they are added to the run's profile.

Otherwise the run goes down the board's strongly connected components
(:mod:`switchflow.condensation`, found after the ``4n``-step phase), one
stopped run through each from the token's state at its entry: batched
where one vertex cuts that component's cycles, and otherwise stepped by
:func:`_tail`, with no step counter or cycle check.  Each run past the
phase, batched or stepped, goes on from a vertex and a slot table and
adds its departures into the caller's profile.  Deciding arrival walks
the same components.

Counters are plain Python integers, so profile entries and step counts
are exact at any magnitude.
"""

from __future__ import annotations

import sys
from enum import Enum
from itertools import repeat
from operator import add, sub
from typing import Collection, Container, Iterable, Iterator, NamedTuple, Sequence

from .graphs import PARITY_NAMES, SwitchGraph, _integer, _out_of_reach, require_valid, slot_order


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


def _departures(n: int, sw: int, evens: Sequence[int] = (), odds: Sequence[int] = ()) -> list[int]:
    """The slot table of the switch word ``sw`` after ``evens``/``odds``
    departures, in one pass over the vertices and one over ``sw``'s set bits."""
    slots = range(0, 2 * n, 2)
    nxt = list(map(add, slots, map(sub, evens, odds)) if evens else slots)
    while sw:
        nxt[(sw & -sw).bit_length() - 1] += 1
        sw &= sw - 1
    return nxt


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
    cannot (Dohrau et al.).  After the ``4n`` phase, one reverse search
    finds ``X``, which answers at once when it is empty or holds the
    token.  Otherwise the answer is ``condensation.arrives``' walk down
    the components of the board from the token's, with ``d`` a sink."""
    g = require_valid(g)
    d = g.dest
    _, v, evens, odds = _step(g, g.origin, 0, (d,), 4 * g.n)
    if v == d:
        return True
    x = _out_of_reach(g, (d,))
    if not x or v in x:  # every vertex reaches d, or the run is in X
        return not x
    from . import condensation

    return condensation.arrives(g, v, evens, odds)


def _stopped_run(
    g: SwitchGraph, start: int, switches: int, stops: Collection[int],
    budget: int | None = None, *, prefix: tuple | None = None,
) -> RunOutcome:
    """The run from ``start`` and the switch word ``switches`` to the first
    of ``stops``, or its first ``budget`` steps (default ``2n * 2**n``),
    without cycle checks: a run toward stops that every vertex reaches
    repeats no state.  The ``4n``-step phase (:func:`_step`), or a
    caller's ``prefix = (steps, vertex, evens, odds)`` of the run, ends
    short runs.  A longer one runs on from the phase's state, in one slot
    table and profile: batched (:func:`_multirun`) when one vertex cuts
    every cycle of the non-stop vertices, and otherwise down the
    components of the board with the stops as sinks, one stopped run per
    component (``condensation.run_down``)."""
    n = g.n
    budget = default_budget(n) if budget is None else budget
    steps, v, evens, odds = prefix or _step(g, start, switches, stops, min(4 * n, budget))
    profile = slot_order(evens, odds)
    if v not in stops and steps < budget:
        nxt, region = _departures(n, switches, evens, odds), set(range(n)).difference(stops)
        # the vertex the phase left most often (by its even departures)
        # is the likeliest to cut every cycle
        ran = _multirun(g, region, stops, v, nxt, profile, budget - steps, evens.index(max(evens)))
        if ran is None:
            from . import condensation

            ran = condensation.run_down(g, v, stops, nxt, profile, budget - steps)
        more, v = ran
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
    sibling = slot_order(range(1, len(profile), 2), range(0, len(profile), 2))
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
    g: SwitchGraph, region: set[int], exits: Collection[int], v: int, nxt: list[int],
    profile: list[int], budget: int, guess: int,
) -> tuple[int, int] | None:
    """The run from vertex ``v`` and slot table ``nxt`` to the first of
    ``exits``, the vertices outside ``region`` that its slots enter, in
    batched passes: as :func:`_tail`, it steps ``nxt`` on, adds its
    departures to ``profile`` and returns the steps taken and the exit
    reached.  Returns None, changing neither, when no vertex ``s`` (tried
    first: ``guess``) leaves the rest of ``region`` acyclic, when the run
    does not leave ``region``, or when it takes more than ``budget`` steps.

    A pass fires ``s`` ``w`` times, then each other vertex of ``region``
    once in topological order: ``k`` tokens send ``ceil(k/2)`` through the
    slot the switch points at, ``floor(k/2)`` through the other (Gärtner,
    Haslebacher, Hoang).  The least ``w`` whose pass absorbs a token
    outside is the run's departure count from ``s``, found by doubling
    from ``s``'s departures in ``profile`` so far, then bisection; the
    tokens absorbed rise by at most one per unit of ``w``, so ``a`` of
    them bound it by ``w - a + 1``.  That pass's slot counts are the
    run's, added only once ``flows.verify`` accepts them on the board of
    ``region`` and the exits the passes run on."""
    from . import flows

    found = _feedback_vertex(g, region, guess)
    if found is None:
        return None
    s, order = found
    order.insert(0, s)
    # the passes run on the region alone, numbered in firing order, each
    # vertex's slots in the order its switch takes them, then the exits
    vertices = [*order, *exits]
    index = {u: i for i, u in enumerate(vertices)}
    m, o = len(vertices), index[v]
    slots = [nxt[u] ^ p for u in order for p in (0, 1)]
    heads = [(g.odd if si & 1 else g.even)[si >> 1] for si in slots]
    exit_ids = range(len(order), m)
    even, odd = ([*(index[w] for w in heads[p::2]), *exit_ids] for p in (0, 1))
    passes = [*zip(range(len(order)), even, odd)]

    def fire(w: int) -> list[int]:
        tokens = [0] * m
        tokens[o] = 1
        tokens[0] = w  # the token at v is one of them when v is s
        for u, first, second in passes:
            k = tokens[u]
            tokens[first] += k - (k >> 1)
            tokens[second] += k >> 1
        return tokens

    def absorbed(w: int) -> int:  # the tokens fired less those back at s
        return w + (o != 0) - (fire(w)[0] - w)

    lo, hi = -1, profile[2 * s] + profile[2 * s + 1]
    a = absorbed(hi)
    while not a:
        if hi >= 8 << g.n:
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
    tokens[0] = hi  # each vertex's count is the tokens it fired
    counts: list[int] = []
    for k in tokens[: len(order)]:
        counts += k - (k >> 1), k >> 1
    steps = sum(counts)
    if steps > budget:
        return None
    counts += repeat(0, 2 * len(exit_ids))  # the exits, self-looped, carry no flow
    r = next(i for i in exit_ids if tokens[i])
    report = flows.verify(SwitchGraph(m, tuple(even), tuple(odd), o, r), o, r, counts)
    if not report.valid:
        raise AssertionError(
            "batched run profile failed verification: "
            f"{report.conservation_violations} {report.parity_violations}"
        )
    for si, k in zip(slots, counts):
        profile[si] += k
    for u, k in zip(order, tokens):
        nxt[u] ^= k & 1
    return steps, vertices[r]


def _feedback_vertex(
    g: SwitchGraph, vertices: set[int], guess: int | None = None
) -> tuple[int, list[int]] | None:
    """A vertex whose removal leaves ``vertices`` acyclic, with a
    topological order of the rest, or None.  Such a vertex lies on every
    cycle, so two disjoint cycles of one or two vertices rule one out at
    once; after ``guess`` (if one of ``vertices``) only the vertices of
    one cycle are tried, unless the rest holds a cycle too, and each
    failure narrows them to a cycle that avoids it, walked within
    ``vertices``: each try costs their number, not the board's size."""
    even, odd = g.even, g.odd
    short: tuple[int, ...] = ()  # a self-loop (v, v) or a 2-cycle (v, w)
    for v in vertices:
        w = even[v]
        if not ((even[w] == v or odd[w] == v) and w in vertices):
            w = odd[v]
            if not ((even[w] == v or odd[w] == v) and w in vertices):
                continue
        if not short:
            short = v, w
        elif v not in short and w not in short:
            return None
    if guess not in vertices:
        guess = None
    order, left = _topological_order(g, vertices - {guess})
    if not left:
        if guess is not None:
            return guess, order
        return (order[0], order[1:]) if order else None
    candidates = _cycle(g, left)
    if _topological_order(g, vertices.difference(candidates))[1]:
        return None  # a second cycle, disjoint from the first
    while candidates:
        s = candidates.pop()
        order, left = _topological_order(g, vertices - {s})
        if not left:
            return s, order
        on_cycle = set(_cycle(g, left))
        candidates = [v for v in candidates if v in on_cycle]
    return None


def _topological_order(g: SwitchGraph, vertices: set[int]) -> tuple[list[int], set[int]]:
    """Kahn's order of the vertices not downstream of a cycle within
    ``vertices``, and the set of the others."""
    even, odd = g.even, g.odd
    indegree = dict.fromkeys(vertices, 0)
    for v in vertices:  # each slot spelt out: a tuple per vertex costs a quarter more
        w = even[v]
        if w in indegree:
            indegree[w] += 1
        w = odd[v]
        if w in indegree:
            indegree[w] += 1
    order = [v for v in vertices if not indegree[v]]
    for v in order:  # the list grows as it is read
        w = even[v]
        if w in indegree:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
        w = odd[v]
        if w in indegree:
            indegree[w] -= 1
            if not indegree[w]:
                order.append(w)
    return order, vertices.difference(order)


def _cycle(g: SwitchGraph, left: set[int]) -> list[int]:
    """A cycle within ``left``, walked backwards over a predecessor of
    each vertex taken from ``left`` alone: every vertex Kahn's order
    leaves over has a predecessor that is left over too."""
    pred = {w: v for v in left for w in (g.even[v], g.odd[v]) if w in left}
    v = next(iter(left))
    position: dict[int, int] = {}
    path = []
    while v not in position:
        position[v] = len(path)
        path.append(v)
        v = pred[v]
    return path[position[v]:]


def replay(
    g: SwitchGraph, steps: int, *, start: int | None = None, switches: int = 0
) -> Iterator[TraceStep]:
    """The first ``steps`` steps of the run from ``start`` (default: the
    origin) and the switch word ``switches``, lazily, ignoring targets:
    the trace of an outcome is the replay of its ``steps``."""
    g = require_valid(g)
    v, heads, nxt = _start(g, start, switches), g.heads(), _departures(g.n, switches)
    if _integer(steps, "step count") < 0:
        raise ValueError(f"step count must be nonnegative, got {steps}")
    for step in range(steps):
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
