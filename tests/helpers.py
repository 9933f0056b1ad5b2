"""Shared fixtures and independent oracles for the test suite.

The three canonical graphs exercise the three interesting shapes: a
direct hop (T1), a self-loop that forces a switch flip (T2), and a
closed pair that can never reach the destination (T3).

The oracles here are deliberately written with different algorithms and
data structures than the library (closure matrix instead of reverse BFS,
rotor deques instead of a slot table, relaxation instead of BFS
levels), so agreement is evidence rather than tautology.
"""

from __future__ import annotations

import itertools
import random
from collections import deque

from switchflow.graphs import EVEN, ODD, SwitchGraph, graph

T1 = graph(2, [1, 1], [1, 1], 0, 1)
T2 = graph(2, [0, 1], [1, 1], 0, 1)
T3 = graph(3, [1, 0, 2], [1, 0, 2], 0, 2)

ACCEPTANCE_SEED = 20260819


def counter_chain(n: int) -> SwitchGraph:
    """Deep deterministic family: even restarts at 0, odd advances.

    The run from 0 to n-1 behaves like a binary counter and takes
    2 * 2**(n-1) - 2 steps, so slot counts actually approach the
    per-slot ceilings instead of staying near 1.
    """
    even = [0] * (n - 1) + [n - 1]
    odd = list(range(1, n)) + [n - 1]
    return graph(n, even, odd, 0, n - 1)


def bouncer_chain(n: int) -> SwitchGraph:
    """Quadratic family: interior vertices bounce back on even, advance
    on odd, giving a profile graded against head-to-dest distance."""
    even = [1] + [v - 1 for v in range(1, n - 1)] + [n - 1]
    odd = [1] + [v + 1 for v in range(1, n - 1)] + [n - 1]
    return graph(n, even, odd, 0, n - 1)


def trapped_counter(k: int) -> SwitchGraph:
    """The origin's first departure enters a closed ``k``-vertex counter
    (vertices ``1..k``, even back to 1, odd up one, the top back to 1);
    its second would reach the destination ``k + 1``.  The run never
    terminates; its first state recurs after ``2**(k+1) - 1`` steps."""
    even = [1] + [1] * k + [k + 1]
    odd = [k + 1] + list(range(2, k + 1)) + [1, k + 1]
    return graph(k + 2, even, odd, 0, k + 1)


def trap_chain(n: int) -> SwitchGraph:
    """A counter on vertices ``0..n-3`` whose top vertex ``n-3`` leaves on
    its even slot into the self-looped trap ``n-2`` and on its odd slot to
    the destination ``n-1``.  The top's first departure is even, so the
    run enters the trap after ``2**(n-2) - 1`` steps and never arrives."""
    k = n - 2
    even = [0] * (k - 1) + [k, k, k + 1]
    odd = list(range(1, k)) + [k + 1, k, k + 1]
    return graph(n, even, odd, 0, n - 1)


def chained(k: int, c: int) -> SwitchGraph:
    """``c`` copies of ``counter_chain(k)``, each copy's destination being
    the next copy's origin: ``c * (k - 1) + 1`` vertices, and a run of
    ``c * (2**k - 2)`` steps.  No single vertex cuts every cycle, but one
    cuts each copy's."""
    n = c * (k - 1) + 1
    even = [v - v % (k - 1) for v in range(n - 1)] + [n - 1]
    odd = list(range(1, n)) + [n - 1]
    return graph(n, even, odd, 0, n - 1)


def leaky_counter(k: int, falls: bool) -> SwitchGraph:
    """``counter_chain(k)`` whose top ``k - 2`` detours on its even slot
    through a vertex ``k - 1`` with one slot back to the counter's first
    vertex and one into the self-looped trap ``k + 1``, and leaves on its
    odd slot through ``k``, whose slots both reach the destination
    ``k + 2``.  The detour's first departure enters the trap when
    ``falls``; otherwise the top's second departure leaves first, and the
    run arrives.  The counter and the detour are one component with two
    exit vertices, ``k`` and the trap."""
    top, detour, out, trap, d = k - 2, k - 1, k, k + 1, k + 2
    even = [0] * top + [detour, trap if falls else 0, d, trap, d]
    odd = list(range(1, top + 1)) + [out, 0 if falls else trap, d, trap, d]
    return graph(k + 3, even, odd, 0, d)


def chain_into_trap(rng: random.Random, g: SwitchGraph, t: int) -> SwitchGraph:
    """A counter or bouncer chain ``g`` plus a closed random region of
    ``t`` vertices, relabelled at random.  The even slot of the vertex
    before the destination, its first departure, enters the region, so
    the run falls in late, never arrives, and repeats a state there."""
    n = g.n
    region = range(n, n + t)
    even = list(g.even) + [rng.choice(region) for _ in region]
    odd = list(g.odd) + [rng.choice(region) for _ in region]
    even[n - 2] = rng.choice(region)
    perm = list(range(n + t))
    rng.shuffle(perm)
    return relabel(graph(n + t, even, odd, g.origin, g.dest), perm)


def relabel(g: SwitchGraph, perm: list[int]) -> SwitchGraph:
    """The same board with vertex ``v`` renamed ``perm[v]``."""
    even = [0] * g.n
    odd = [0] * g.n
    for v in range(g.n):
        even[perm[v]] = perm[g.even[v]]
        odd[perm[v]] = perm[g.odd[v]]
    return graph(g.n, even, odd, perm[g.origin], perm[g.dest])


def random_graph(rng: random.Random, n: int) -> SwitchGraph:
    """Uniform successor maps; origin 0, dest n-1."""
    return graph(
        n,
        [rng.randrange(n) for _ in range(n)],
        [rng.randrange(n) for _ in range(n)],
        0,
        n - 1,
    )


def reference_generate(spec) -> SwitchGraph:
    """Generator oracle: the ``randrange`` loop that ``generate`` once
    ran, one call per successor, every even successor before the first
    odd one.  A layered slot short of the destination points strictly
    forward when ``random()`` falls below 0.75."""
    rng = random.Random(spec.seed)
    n = spec.n
    even, odd = [], []
    for succ in (even, odd):
        for v in range(n):
            if spec.model == "layered" and v < n - 1 and rng.random() < 0.75:
                succ.append(rng.randrange(v + 1, n))
            else:
                succ.append(rng.randrange(n))
    return graph(n, even, odd, 0, n - 1)


def random_trap_graph(rng: random.Random, n: int) -> SwitchGraph:
    """Random successors around a closed trap of one to six vertices: the
    trap's slots stay inside it, and each other slot enters it with
    probability 0.3, so most runs reach it soon and then repeat a state
    within a few hundred steps.  Origin 0, dest n-1."""
    trap = rng.sample(range(n), rng.randrange(1, 7))
    even, odd = [], []
    for v in range(n):
        for succ in (even, odd):
            inside = v in trap or rng.random() < 0.3
            succ.append(rng.choice(trap) if inside else rng.randrange(n))
    return graph(n, even, odd, 0, n - 1)


def closure_reachable(g: SwitchGraph, target: int) -> set[int]:
    """Brute-force oracle for the vertices that reach ``target``, the
    complement of ``graphs._out_of_reach``: iterate a boolean
    reachability matrix to its fixed point."""
    reach = [[v == w for w in range(g.n)] for v in range(g.n)]
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            for w in (g.even[v], g.odd[v]):
                for t in range(g.n):
                    if reach[w][t] and not reach[v][t]:
                        reach[v][t] = True
                        changed = True
    return {v for v in range(g.n) if reach[v][target]}


def rotor_run(g: SwitchGraph, max_steps: int = 1_000_000):
    """Independent RUN oracle: each vertex holds a two-slot rotor deque
    that rotates after every departure.

    Returns (profile, steps) for a terminating run and None when a
    (vertex, rotor positions) state repeats.
    """
    rotors = [deque(((v, EVEN), (v, ODD))) for v in range(g.n)]
    profile = [0] * (2 * g.n)
    v = g.origin
    steps = 0
    seen = set()
    while v != g.dest:
        key = (v, tuple(r[0][1] for r in rotors))
        if key in seen:
            return None
        seen.add(key)
        tail, parity = rotors[v][0]
        rotors[v].rotate(1)
        profile[2 * tail + parity] += 1
        v = (g.odd if parity else g.even)[tail]
        steps += 1
        if steps > max_steps:
            raise RuntimeError("oracle budget exhausted")
    return tuple(profile), steps


def relaxed_distances(g: SwitchGraph, dest: int) -> list[int | None]:
    """Desperation oracle: per-vertex shortest distance to dest by
    repeated edge relaxation instead of BFS levels."""
    inf = float("inf")
    dist: list[float] = [inf] * g.n
    dist[dest] = 0
    for _ in range(g.n):
        for v in range(g.n):
            for w in (g.even[v], g.odd[v]):
                if dist[w] + 1 < dist[v]:
                    dist[v] = dist[w] + 1
    return [None if d == inf else int(d) for d in dist]


def reference_walk(inst, start=None, budget=None):
    """Walk oracle: iterate the total neighbor/potential pair state by
    state, re-verifying every flow, until the potential stops rising.

    Returns ``(solution, steps)`` and raises ``WalkError`` when no state
    among the first ``budget + 1`` is a local optimum, exactly the
    contract of ``walk_localopt``.
    """
    from switchflow.local_search import WalkError

    state = inst.reset if start is None else start
    if budget is None:
        budget = inst.default_budget()
    current = inst.potential(state)
    for steps in range(budget + 1):
        nxt = inst.neighbor(state)
        upcoming = inst.potential(nxt)
        if current >= upcoming:
            return state, steps
        state, current = nxt, upcoming
    raise WalkError(f"no local optimum within {budget} steps")


def reference_walk_trace(inst, start, steps):
    """Trace oracle: the first ``steps + 1`` states of the walk, each
    reached through the total neighbor function and scored through the
    potential, as ``state_doc`` dicts."""
    from switchflow.local_search import state_doc

    docs = [state_doc(inst, start)]
    for _ in range(steps):
        start = inst.neighbor(start)
        docs.append(state_doc(inst, start))
    return docs


def reference_run(g: SwitchGraph, budget=None, *, start=None, switches=0, targets=None):
    """Run oracle: step the token keeping every visited (vertex, switches)
    state in a dict, until a target, the first repeated state, or the
    budget.  Returns ``(outcome, trace)`` in the shape ``simulate`` uses.
    """
    from switchflow.simulate import (
        CycleWitness, RunOutcome, TraceStep, Verdict, default_budget,
    )

    target_set = {g.dest} if targets is None else set(targets)
    if budget is None:
        budget = default_budget(g.n)
    v = g.origin if start is None else start
    profile = [0] * (2 * g.n)
    trace = []
    seen: dict[tuple[int, int], int] = {}
    steps = 0
    while True:
        if v in target_set:
            return RunOutcome(Verdict.TERMINATED, tuple(profile), steps, v), trace
        first = seen.get((v, switches))
        if first is not None:
            witness = CycleWitness(v, switches, first, steps)
            outcome = RunOutcome(Verdict.NON_TERMINATING, tuple(profile), steps, v, witness)
            return outcome, trace
        seen[(v, switches)] = steps
        if steps >= budget:
            return RunOutcome(Verdict.BUDGET_EXHAUSTED, tuple(profile), steps, v), trace
        parity = (switches >> v) & 1
        w = g.odd[v] if parity else g.even[v]
        profile[2 * v + parity] += 1
        switches ^= 1 << v
        trace.append(TraceStep(steps, v, parity, w))
        v = w
        steps += 1


def all_two_vertex_graphs() -> list[SwitchGraph]:
    """Every successor map over 2 vertices, origin 0, dest 1."""
    out = []
    for e0, e1, o0, o1 in itertools.product(range(2), repeat=4):
        out.append(graph(2, [e0, e1], [o0, o1], 0, 1))
    return out


def acceptance_instances() -> list[SwitchGraph]:
    """The shared acceptance suite: seeded random instances with n <= 10
    in both generator models, the canonical graphs, and the two deep
    deterministic families."""
    from switchflow.generate import instance_stream

    randoms = [g for _, g in instance_stream(10, 2500, ACCEPTANCE_SEED)]
    deep = [counter_chain(n) for n in range(4, 11)]
    deep += [bouncer_chain(n) for n in range(4, 11)]
    return randoms + [T1, T2, T3] + deep
