"""The local-search formulation: find a flow certificate by hill climbing.

An augmented board with ``m`` vertices induces a neighborhood/potential
pair over states ``(vertex, flow)``, where the flow has one entry in
``[0, 2**m]`` per slot:

* the *neighbor* function replays one token step: if the flow is a valid
  switching flow from the fresh origin to the state's vertex and the
  vertex is not a terminal, the token departs through the slot selected
  by the flow's parity imbalance and that slot is incremented; terminal
  states and states with invalid flows map to the reset state (fresh
  origin, all-zero flow);
* the *potential* is -1 on invalid flows and the flow's entry sum
  otherwise, so every valid non-terminal step raises it by exactly 1.

A state is a local optimum when its potential is at least its
neighbor's.  The only local optima are terminal states carrying valid
flows, so walking the neighbor function from the reset state both
terminates (the potential is bounded) and lands on a certificate:
a flow to the original destination witnesses that the source run
terminates, a flow to the fresh sink witnesses that it does not.
Extracting either solves the search problem outright.

:func:`walk_localopt` checks the start state once with the total
potential: by the argument above, every state after a valid one stays
valid until it reaches a terminal or its next entry would pass the
field cap.  So the walk from a valid state is the token run to the
terminals whose switches are the flow's parity imbalances, computed as
one stopped run (batched when one vertex cuts every cycle), not a step
per unit of potential.

States encode to fixed-width bit strings (vertex index, then one
``m+1``-bit field per slot), so the pair also exists at the bit level;
``neighbor_bits`` and ``potential_bits`` evaluate it there, with the
potential shifted up by one to stay nonnegative.
"""

from __future__ import annotations

from operator import add
from typing import Iterator, NamedTuple

from . import flows as _flows
from .graphs import SolverError, SwitchGraph, _integer
from .reduction import AugmentedInstance, augment
from .simulate import _stopped_run, _switch_word, replay

TERMINATION = "termination"
NON_TERMINATION = "non-termination"

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_INT = frozenset((int,))


class WalkError(SolverError):
    """The walk budget ran out before a local optimum was reached."""


class CertificateError(SolverError):
    """A claimed local optimum did not have the certified shape."""


class SearchState(NamedTuple):
    vertex: int
    flow: tuple[int, ...]


#: Designated invalid state: every malformed bit string decodes to this.
INVALID_STATE = SearchState(-1, ())


class Certificate(NamedTuple):
    """A switching-flow witness for the source instance's verdict."""

    kind: str  # TERMINATION or NON_TERMINATION
    flow: tuple[int, ...]
    origin: int  # the fresh origin of the augmented board
    dest: int  # the terminal the flow drains into


class WalkResult(NamedTuple):
    solution: SearchState
    steps: int


class LocalOptInstance:
    """Neighborhood and potential over the states of one augmented board.

    Both functions are total and deterministic; anything outside the
    domain (the designated invalid state, vertex ids or entries out of
    range or of a type other than ``int``) behaves like an invalid flow.
    Instances are immutable and may be shared by concurrent walkers.
    """

    def __init__(self, aug: AugmentedInstance):
        self.aug = aug
        self.h = aug.h
        self.m = aug.h.n
        self.max_entry = 1 << self.m
        self.vertex_bits = (self.m - 1).bit_length()
        self.field_bits = self.m + 1
        self.total_bits = self.vertex_bits + 2 * self.m * self.field_bits
        self.reset = SearchState(aug.o_bar, (0,) * (2 * self.m))
        self._o_bar = aug.o_bar
        self._terminals = aug.terminals

    # States are unpacked rather than read by field name: a NamedTuple
    # field read costs about twice a plain attribute read.

    def _in_domain(self, state: SearchState) -> bool:
        try:  # a state of another shape, or a flow with no length, lies outside
            v, flow = state
            size = len(flow)
        except (TypeError, ValueError):
            return False
        return (
            type(v) is int  # a bool, like any other type, is no ``int`` here
            and 0 <= v < self.m
            and size == 2 * self.m
            and _INT.issuperset(map(type, flow))
            and 0 <= min(flow) and max(flow) <= self.max_entry
        )

    def _valid(self, state: SearchState) -> bool:
        if not self._in_domain(state):  # else it may not unpack
            return False
        return _flows.verify(self.h, self._o_bar, state[0], state[1]).valid

    def neighbor(self, state: SearchState) -> SearchState:
        if not self._valid(state):
            return self.reset
        v, flow = state
        if v in self._terminals:
            return self.reset
        i = flow[2 * v] - flow[2 * v + 1]
        flow = list(flow)
        flow[2 * v + i] += 1
        return SearchState((self.h.odd if i else self.h.even)[v], tuple(flow))

    def potential(self, state: SearchState) -> int:
        if not self._valid(state):
            return -1
        return sum(state[1])

    def is_local_optimum(self, state: SearchState) -> bool:
        return self.potential(state) >= self.potential(self.neighbor(state))

    # -- fixed-width bit-string interface ---------------------------------

    def encode(self, state: SearchState) -> str:
        """Vertex index bits (big-endian), then one field per slot in slot order."""
        if not self._in_domain(state):
            raise ValueError(f"state outside the encodable domain: {state}")
        v, flow = state
        parts = [format(v, f"0{self.vertex_bits}b")]
        parts += [format(e, f"0{self.field_bits}b") for e in flow]
        return "".join(parts)

    def decode(self, bits: str) -> SearchState:
        """Total on strings of the instance width; malformations map to
        the designated invalid state rather than raising."""
        if len(bits) != self.total_bits or set(bits) - {"0", "1"}:
            raise ValueError(
                f"expected a bit string of width {self.total_bits}, got {bits!r}"
            )
        vertex = int(bits[: self.vertex_bits], 2)
        if vertex >= self.m:
            return INVALID_STATE
        flow = []
        pos = self.vertex_bits
        for _ in range(2 * self.m):
            entry = int(bits[pos : pos + self.field_bits], 2)
            if entry > self.max_entry:
                return INVALID_STATE
            flow.append(entry)
            pos += self.field_bits
        return SearchState(vertex, tuple(flow))

    def neighbor_bits(self, bits: str) -> str:
        return self.encode(self.neighbor(self.decode(bits)))

    def potential_bits(self, bits: str) -> int:
        """Potential shifted up by 1 so the bit-level range is nonnegative
        (invalid states score 0); the shift preserves every comparison."""
        return self.potential(self.decode(bits)) + 1

    def default_budget(self) -> int:
        # Strict ascent bounds any walk by the maximum potential 2m * 2**m.
        return 2 * self.m * (1 << self.m) + 2


def walk_localopt(
    inst: LocalOptInstance,
    start: SearchState | None = None,
    budget: int | None = None,
) -> WalkResult:
    """Iterate the neighbor function until the potential stops rising.

    Returns the first state whose potential is at least its neighbor's,
    plus the number of neighbor applications taken to reach it; raises
    :class:`WalkError` when that takes more than ``budget`` of them, and
    ValueError for a ``budget`` that is no nonnegative integer.

    From a valid state the walk is the stopped run to the terminals whose
    switches are the flow's parity imbalances: it ends at the start flow
    plus that run's profile, unless the sum passes the field cap, and
    then the run is replayed to the step that would pass it.
    """
    limit = inst.default_budget() if budget is None else _integer(budget, "budget")
    if limit < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    state = inst.reset if start is None else start
    taken = 0
    if start is not None and inst.potential(state) < 0:  # the reset state is valid
        state, taken = inst.reset, 1
    v, flow = state
    fresh = state is inst.reset  # the zero flow: even switches, nothing to add
    cap, switches = inst.max_entry, 0 if fresh else _switch_word(flow)
    # more than 2m * cap steps from a state in the domain pass the cap
    room = max(0, min(limit - taken, 2 * inst.m * cap) + 1)
    outcome = _stopped_run(inst.h, v, switches, inst._terminals, room)
    end = outcome.profile if fresh else tuple(map(add, flow, outcome.profile))
    if max(end) > cap:  # a step past the cap leaves the domain: stop before it
        counts = list(flow)
        for step in replay(inst.h, outcome.steps, start=v, switches=switches):
            if counts[2 * step.tail + step.parity] >= cap:
                break
            counts[2 * step.tail + step.parity] += 1
            v, taken = step.head, taken + 1
        end = tuple(counts)
    else:  # at a terminal (which resets), or out of room and so past the limit
        v, taken = outcome.final_vertex, taken + outcome.steps
    if taken > limit:
        reason = (
            "contradicts the ascent bound and indicates a bug"
            if budget is None
            else "the given budget ran out"
        )
        raise WalkError(f"no local optimum within {limit} steps; {reason}")
    return WalkResult(SearchState(v, end), taken)


def extract_certificate(inst: LocalOptInstance, solution: SearchState) -> Certificate:
    """Read the certificate off a local optimum.

    Any conforming local optimum sits at a terminal with a valid flow;
    anything else falsifies the solution analysis and is rejected.
    """
    aug, (v, flow) = inst.aug, solution
    if v not in (aug.source_dest, aug.d_bar):
        raise CertificateError(f"non-conforming local optimum: vertex {v} is not a terminal")
    report = _flows.verify(inst.h, aug.o_bar, v, flow)
    if not report.valid:
        raise CertificateError(
            "non-conforming local optimum: flow fails verification"
        )
    kind = TERMINATION if v == aug.source_dest else NON_TERMINATION
    return Certificate(kind=kind, flow=flow, origin=aug.o_bar, dest=v)


def solve_s_arrival(g: SwitchGraph) -> Certificate:
    """End to end: augment, build the instance, walk from reset, extract.

    The walk has no budget but the ascent bound, which it never reaches;
    the certificate's kind always matches the simulation verdict of
    ``g``: a termination witness iff the run reaches its destination.
    """
    inst = LocalOptInstance(augment(g))
    solution, _ = walk_localopt(inst)
    return extract_certificate(inst, solution)


def certificate_doc(cert: Certificate) -> dict:
    """JSON-ready dict: the flow document plus the witness kind."""
    return {
        "origin": cert.origin,
        "dest": cert.dest,
        "counts": list(cert.flow),
        "kind": cert.kind,
    }


def state_doc(inst: LocalOptInstance, state: SearchState) -> dict:
    v, flow = state
    return {"vertex": v, "counts": list(flow), "potential": inst.potential(state)}


def walk_trace(inst: LocalOptInstance, start: SearchState, steps: int) -> Iterator[dict]:
    """The first ``steps + 1`` states of the walk from ``start``, as
    :func:`state_doc` dicts, lazily and in O(1) per step after the first:
    an invalid start is followed by the reset state, and the walk from a
    valid state is the token run whose switches are the flow's parity
    imbalances, each step adding one to a slot and to the potential."""
    v, flow = start
    flow, potential = list(flow), inst.potential(start)
    yield {"vertex": v, "counts": flow[:], "potential": potential}
    if potential < 0 < steps:
        v, flow, potential, steps = inst.reset.vertex, list(inst.reset.flow), 0, steps - 1
        yield {"vertex": v, "counts": flow[:], "potential": potential}
    for step in replay(inst.h, steps, start=v, switches=_switch_word(flow)):
        flow[2 * step.tail + step.parity] += 1
        potential += 1
        yield {"vertex": step.head, "counts": flow[:], "potential": potential}


def hex_encode(inst: LocalOptInstance, state: SearchState) -> str:
    """Hex form of the encoded state, left-padded to a whole number of nibbles."""
    bits = inst.encode(state)
    width = (inst.total_bits + 3) // 4
    return format(int(bits, 2), f"0{width}x")


def hex_decode(inst: LocalOptInstance, text: str) -> SearchState:
    width = (inst.total_bits + 3) // 4
    if len(text) != width:
        raise ValueError(
            f"expected {width} hex digits for this instance, got {len(text)}"
        )
    if not set(text) <= _HEX_DIGITS:
        raise ValueError(f"expected only the digits 0-9, a-f and A-F, got {text!r}")
    value = int(text, 16)
    if value >= 1 << inst.total_bits:
        raise ValueError("encoded value exceeds the instance's bit width")
    return inst.decode(format(value, f"0{inst.total_bits}b"))
