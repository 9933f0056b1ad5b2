"""Origin/destination augmentation and its yes/no duality.

Given a board with origin ``o`` and destination ``d``, the augmented
board adds a fresh origin that feeds ``o`` and a fresh sink that absorbs
the whole region from which ``d`` is unreachable:

* ``o_bar`` (new vertex ``n``): both slots point at the original origin;
  nothing points back at it, so any run from it leaves it exactly once.
* ``d_bar`` (new vertex ``n + 1``): a self-looped sink.
* every vertex with no directed path to ``d`` is rewired so both of its
  slots point at ``d_bar``;
* ``d`` itself becomes a self-looped sink; everything else is unchanged.

On the augmented board exactly one of the two runs -- toward ``d`` or
toward ``d_bar`` -- terminates, and which one it is matches whether the
original run terminates.  That turns non-termination into a reachability
event that can be certified by a flow, which is what the flow and
local-search layers build on.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import SwitchGraph, _Valid, _out_of_reach, require_valid


class AugmentedInstance(NamedTuple):
    """The augmented board plus the bookkeeping of its construction.

    ``h`` keeps the original vertex ids, with ``o_bar = n`` and
    ``d_bar = n + 1``; its origin is ``o_bar`` and its recorded dest is
    the carried-over original destination.  The two decision instances
    derived from it are :meth:`to_dest` and :meth:`to_dbar`; they are
    checked graphs when ``h`` is.
    """

    h: SwitchGraph
    o_bar: int
    d_bar: int
    x_d: frozenset[int]
    source_dest: int

    def to_dest(self) -> SwitchGraph:
        return _route(self.h, self.source_dest)

    def to_dbar(self) -> SwitchGraph:
        return _route(self.h, self.d_bar)

    @property
    def terminals(self) -> frozenset[int]:
        return frozenset((self.source_dest, self.d_bar))


def _route(h: SwitchGraph, dest: int) -> SwitchGraph:
    """``h`` toward ``dest``; a checked board stays valid, and checked,
    under any dest in range other than its origin."""
    if type(h) is _Valid and 0 <= dest < h.n and dest != h.origin:
        n, even, odd, origin, _, labels = h
        return _Valid(n, even, odd, origin, dest, labels)
    return h.with_route(dest=dest)


def augment(g: SwitchGraph) -> AugmentedInstance:
    """Build the augmented board. Deterministic and structure-preserving;
    the board is a checked graph.  ``graphs._out_of_reach`` reads ``X``,
    as for the decision, and only its vertices and ``d`` are rewired."""
    require_valid(g)
    n, even, odd, origin, dest, labels = g
    o_bar, d_bar = n, n + 1
    x = _out_of_reach(g, (dest,))
    even, odd = [*even, origin, d_bar], [*odd, origin, d_bar]
    # Case table, applied verbatim even when the origin lies in the
    # unreachable region (the run is then trivially convergent on d_bar).
    for v in x:
        even[v] = odd[v] = d_bar
    even[dest] = odd[dest] = dest
    labels = None if labels is None else labels + ("o_bar", "d_bar")
    h = _Valid(n + 2, tuple(even), tuple(odd), o_bar, dest, labels)
    return AugmentedInstance(h, o_bar, d_bar, frozenset(x), dest)


class DualityReport(NamedTuple):
    """Verdicts of the three decision instances and whether they agree."""

    g_terminates: bool
    to_dest_terminates: bool
    to_dbar_terminates: bool

    @property
    def ok(self) -> bool:
        return (
            self.to_dest_terminates == self.g_terminates
            and self.to_dbar_terminates != self.g_terminates
        )


def check_duality(g: SwitchGraph) -> DualityReport:
    """Decide all three instances and check the yes/no table.

    A failing report falsifies the augmentation's duality and indicates
    a library bug, never a property of the input.
    """
    from .simulate import decide_arrival

    g = require_valid(g)
    aug = augment(g)
    return DualityReport(
        g_terminates=decide_arrival(g),
        to_dest_terminates=decide_arrival(aug.to_dest()),
        to_dbar_terminates=decide_arrival(aug.to_dbar()),
    )


def sidecar_doc(aug: AugmentedInstance) -> dict:
    """JSON-ready companion record emitted next to the augmented graph."""
    return {
        "o_bar": aug.o_bar,
        "d_bar": aug.d_bar,
        "x_d": sorted(aug.x_d),
    }
