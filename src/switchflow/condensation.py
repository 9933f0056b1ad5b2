"""Strongly connected components of a switch graph, and the runs down them.

A token that leaves a strongly connected component never returns to it,
and finds the switches of the next one as they were at the start: the
abelian property of rotor walks (Holroyd et al.).  So a run goes down
the components of its board, and a run that no single vertex cuts every
cycle of is a chain of runs through one component each.  One iterative
Tarjan pass (:func:`condense`) finds the components; a stopped run goes
down them (:func:`run_down`), and deciding arrival walks them
(:func:`arrives`), running only through a component with two or more
exit vertices (:func:`cross`).  Each run through a component goes on
from the token's vertex and slot table and adds its departures into the
caller's profile, batched or stepped alike.  :mod:`switchflow.simulate`
loads this module only for the runs that reach the pass.
"""

from __future__ import annotations

from typing import Collection, Container

from . import simulate as _sim
from .graphs import SwitchGraph


def condense(g: SwitchGraph, root: int, sinks: Container[int]) -> tuple[
    list[int], list[list[int]], list[set[int]], list[bool], list[bool]
]:
    """The strongly connected components of the vertices reachable from
    ``root``, with ``sinks`` taken to have no slots, by one iterative
    Tarjan pass (Tarjan, 1972): ``(component, members, exits, reaches,
    safe)``.  ``component[v]`` numbers ``v``'s component, -1 out
    of ``root``'s reach; components are numbered as they close, so the
    vertices a component's slots lead to lie in lower-numbered ones.
    Per component: its ``members``, its ``exits`` (the vertices outside
    it that its slots enter), whether it ``reaches`` a sink, and whether
    it is ``safe``: no path from it enters ``X``, the components that
    reach none, without passing a sink."""
    even, odd = g.even, g.odd
    pre, low, component = [0] * g.n, [0] * g.n, [-1] * g.n
    members: list[list[int]] = []
    exits: list[set[int]] = []
    reaches: list[bool] = []
    safe: list[bool] = []
    stack, count = [root], 1
    pre[root] = low[root] = 1
    path = [(root, iter(() if root in sinks else (even[root], odd[root])))]
    while path:
        v, slots = path[-1]
        for w in slots:
            if not pre[w]:  # a tree slot: go down it, and on from v after w closes
                count += 1
                pre[w] = low[w] = count
                stack.append(w)
                path.append((w, iter(() if w in sinks else (even[w], odd[w]))))
                break
            if component[w] < 0 and pre[w] < low[v]:  # w is on the stack
                low[v] = pre[w]
        else:
            path.pop()
            if path and low[v] < low[path[-1][0]]:
                low[path[-1][0]] = low[v]
            if low[v] == pre[v]:  # v is its component's root: close the component
                c, k = len(members), len(stack) - 1
                while stack[k] != v:
                    k -= 1
                inside = stack[k:]
                del stack[k:]
                for u in inside:
                    component[u] = c
                out, reach, clear = set(), True, True
                if v not in sinks:  # a sink's component is the sink alone
                    out = {w for u in inside for w in (even[u], odd[u]) if component[w] != c}
                    reach = False
                    for w in out:  # its component closed before this one
                        reach |= reaches[component[w]]
                        clear &= safe[component[w]]
                members.append(inside)
                exits.append(out)
                reaches.append(reach)
                safe.append(reach and clear)
    return component, members, exits, reaches, safe


def arrives(g: SwitchGraph, v: int, evens: list[int], odds: list[int]) -> bool:
    """Whether the run from the origin with even switches, at vertex ``v``
    after ``evens``/``odds`` departures per vertex, reaches the
    destination ``d`` before ``X``, the vertices that cannot; ``v`` is in
    neither.  The walk down the components from ``v``'s, with ``d`` a
    sink: a component from which no path avoiding ``d`` enters ``X``
    answers True, one in ``X`` False; a component with one exit vertex is
    left through it, and a single vertex with no self-loop through its
    switch, with no step taken.  Only the run through a component with
    two or more exit vertices is computed (:func:`cross`)."""
    component, members, exits, reaches, safe = condense(g, v, (g.dest,))
    nxt: list[int] = []  # the slot table and profile, built for the first run
    while True:
        c = component[v]
        if safe[c] or not reaches[c]:
            return safe[c]
        if len(exits[c]) == 1:
            (v,) = exits[c]
        elif len(members[c]) == 1:  # its two slots leave it: the switch picks one
            v = g.even[v] if evens[v] == odds[v] else g.odd[v]
        else:
            if not nxt:
                nxt, profile = _sim._departures(g.n, 0, evens, odds), [0] * (2 * g.n)
            v = cross(g, members[c], exits[c], v, nxt, profile, _sim.default_budget(g.n))[1]


def run_down(
    g: SwitchGraph, v: int, stops: Container[int], nxt: list[int], profile: list[int], budget: int
) -> tuple[int, int]:
    """The stopped run from vertex ``v`` and slot table ``nxt`` to the
    first of ``stops``, or ``budget`` steps, as one stopped run through
    each component it enters (:func:`cross`), each from the vertex and
    switches the last one left; departures are added to ``profile``.
    Returns the steps taken and the vertex reached."""
    component, members, exits, *_ = condense(g, v, stops)
    steps = 0
    while v not in stops and steps < budget:
        c = component[v]
        more, v = cross(g, members[c], exits[c], v, nxt, profile, budget - steps)
        steps += more
    return steps, v


def cross(
    g: SwitchGraph, members: list[int], exits: Collection[int], v: int,
    nxt: list[int], profile: list[int], budget: int,
) -> tuple[int, int]:
    """The run from vertex ``v`` and slot table ``nxt`` through the
    component ``members`` to the first of its ``exits``, or ``budget``
    steps; its departures are added to ``profile``.  Returns the steps
    taken and the vertex reached; ``nxt`` is stepped on.  Batched
    (``simulate._multirun``, tried first at ``v``) when one vertex cuts
    every cycle of the component and the run ends within the budget, and
    stepped by ``simulate._tail`` otherwise."""
    if exits and len(members) == 1:  # one step, back to it only by a self-loop
        s = nxt[v]
        profile[s] += 1
        nxt[v] = s ^ 1
        return 1, (g.odd if s & 1 else g.even)[v]
    # a run in a closed component stays there: it is stepped to the budget
    batched = exits and _sim._multirun(g, set(members), exits, v, nxt, profile, budget, v)
    return batched or _sim._tail(g.heads(), v, nxt, profile, exits, budget)
