"""Switch graphs: directed graphs with exactly two outgoing edge slots per vertex.

Every vertex has an *even* and an *odd* successor.  A token walking the
graph leaves each vertex through the slot its switch currently points
at, and the switch toggles after every departure, so departures from a
vertex alternate even, odd, even, ...  The graph record also carries the
origin and destination of the token run, because everything downstream
(simulation, certificates, the reduction) consumes the triple together.

Slot convention, used by every flow vector in this package: the slots of
a graph with ``n`` vertices are indexed ``0 .. 2n-1`` in the order
(vertex 0 even, vertex 0 odd, vertex 1 even, ...), i.e. slot ``2*v + p``
is vertex ``v`` with parity ``p``.  Parallel slots (even and odd
successor coinciding) stay distinct slots.

Graphs are immutable after construction and safe to share across
threads; all functions here are pure.  Construction does not validate,
so that malformed records can be built and inspected in tests: a graph
from :func:`graph` or ``SwitchGraph(...)`` is checked by every entry
point it is passed to.  The producers that check their graphs, or build
them valid, return them *checked*: :func:`parse`,
``generate.generate``, ``reduction.augment`` (its board and the two
decision boards derived from it), and :func:`require_valid` itself.  A
checked graph is a private subclass that entry points accept without
checking again; it equals, hashes, prints, pickles and serializes as
the plain graph, and replacing any of its fields gives a plain graph.
"""

from __future__ import annotations

import json
import sys
from typing import Iterable, NamedTuple, Sequence

EVEN = 0
ODD = 1

PARITY_NAMES = ("even", "odd")

# The seeded instance models of :mod:`switchflow.generate`.  They live in
# this always-loaded module so that the command line can offer them
# without importing the generator.
MODELS = ("uniform", "layered")

# JSON schema: fixed key order, "labels" optional.
_REQUIRED_KEYS = ("n", "origin", "dest", "even", "odd")


class GraphFormatError(ValueError):
    """Malformed or invalid graph or flow document; message includes the position."""


class SolverError(RuntimeError):
    """Base of the errors raised when a completion, a walk or a
    certificate extraction fails; the command line reports each one as a
    content error."""


class SwitchGraph(NamedTuple):
    """A switch graph plus the origin/destination of the token run.

    ``even[v]`` / ``odd[v]`` are the two successors of vertex ``v``;
    vertices are dense integer ids ``0 .. n-1``.  Optional ``labels``
    carry external vertex names and live only in the JSON document.
    """

    n: int
    even: tuple[int, ...]
    odd: tuple[int, ...]
    origin: int
    dest: int
    labels: tuple[str, ...] | None = None

    def with_route(self, origin: int | None = None, dest: int | None = None) -> "SwitchGraph":
        """Same board, different origin/dest."""
        return self._replace(
            origin=self.origin if origin is None else origin,
            dest=self.dest if dest is None else dest,
        )

    def heads(self) -> list[int]:
        """The head of every slot, in slot order."""
        return slot_order(self.even, self.odd)


def slot_order(even: Sequence[int], odd: Sequence[int]) -> list[int]:
    """Per-vertex ``even`` and ``odd`` entries as one list in slot order."""
    slots = [0] * (2 * len(even))
    slots[0::2], slots[1::2] = even, odd
    return slots


class _Valid(SwitchGraph):
    """A graph that passed :func:`validate` or was built valid."""

    __slots__ = ()

    # Reported as the plain class, so that it prints and pickles byte for
    # byte as one; ``type`` still tells them apart, and a pickle loads as
    # a plain (unchecked) graph.
    __class__ = property(lambda self: SwitchGraph)  # type: ignore[assignment]

    def __reduce_ex__(self, protocol):
        return SwitchGraph._make(self).__reduce_ex__(protocol)

    # Every replace path (``copy.replace`` too) builds through ``_make``,
    # and a new route can make origin == dest: the result is unchecked.
    _make = SwitchGraph._make
    __replace__ = SwitchGraph._replace


def graph(n: int, even, odd, origin: int, dest: int, labels=None) -> SwitchGraph:
    """Convenience constructor accepting any successor sequences."""
    return SwitchGraph(
        n=n,
        even=tuple(even),
        odd=tuple(odd),
        origin=origin,
        dest=dest,
        labels=None if labels is None else tuple(labels),
    )


def validate(g: SwitchGraph) -> list[str]:
    """Return every invariant violation; an empty list means the graph is valid."""
    n, even, odd, origin, dest, labels = g
    if not isinstance(n, int) or isinstance(n, bool):  # a bool is no ``int`` here
        return [f"n: expected integer, found {n!r}"]
    if n < 1:
        return [f"n: vertex count must be positive, found {n}"]
    violations = []
    succ = (*even, *odd)
    plain = len(even) == len(odd) == n and {*map(type, succ)} == {int}
    if not (plain and 0 <= min(succ) and max(succ) < n):  # else name each bad entry
        for name, succ in (("even", even), ("odd", odd)):
            if len(succ) != n:
                violations.append(
                    f"{name}: bad vertex count, expected {n} successors, found {len(succ)}"
                )
                continue
            for v, w in enumerate(succ):
                if not isinstance(w, int) or isinstance(w, bool) or not 0 <= w < n:
                    violations.append(
                        f"{name}[{v}]: successor out of range ({w!r} not in 0..{n - 1})"
                    )
    for name, v in (("origin", origin), ("dest", dest)):
        if not isinstance(v, int) or isinstance(v, bool):
            violations.append(f"{name}: expected integer, found {v!r}")
        elif not 0 <= v < n:
            violations.append(f"{name}: vertex out of range ({v} not in 0..{n - 1})")
    if origin == dest:
        violations.append("origin equals dest")
    if labels is not None:
        if len(labels) != n:
            violations.append(f"labels: bad vertex count, expected {n} labels, found {len(labels)}")
        violations += [
            f"labels[{v}]: expected string, found {a!r}"
            for v, a in enumerate(labels)
            if not isinstance(a, str)
        ]
    return violations


def require_valid(g: SwitchGraph) -> SwitchGraph:
    """``g`` as a checked graph, which entry points pass on instead of
    ``g``; raises ValueError naming every violation when it is invalid.
    A checked graph is returned as it is."""
    if type(g) is _Valid:
        return g
    violations = validate(g)
    if violations:
        raise ValueError("invalid switch graph: " + "; ".join(violations))
    return _Valid(*g)


def distances_to(g: SwitchGraph, targets: Iterable[int]) -> list[int | None]:
    """Per vertex: the length of a shortest directed path to the nearest
    of ``targets``, by one breadth-first search over the predecessor
    vertices, listed in one pass over the slots (once where both share a
    head); ``None`` marks the region that can never deliver the token
    there, which :func:`_out_of_reach` reads."""
    frontier = list(targets)
    dist: list[int | None] = [None] * g.n
    for t in frontier:
        if not 0 <= t < g.n:
            raise ValueError(f"target out of range ({t} not in 0..{g.n - 1})")
        dist[t] = 0
    preds: list[list[int]] = [[] for _ in dist]
    for v, a, b in zip(range(g.n), g.even, g.odd):
        preds[a].append(v)
        if b != a:
            preds[b].append(v)
    for w in frontier:  # breadth first: the list grows as it is read
        d = dist[w] + 1  # type: ignore[operator]
        for v in preds[w]:
            if dist[v] is None:
                dist[v] = d
                frontier.append(v)
    return dist


def _out_of_reach(g: SwitchGraph, targets: Iterable[int]) -> set[int]:
    """The vertices with no path to ``targets``; for the destination alone,
    the closed region ``X`` that the decision and the augmentation read."""
    return {v for v, k in enumerate(distances_to(g, targets)) if k is None}


def _integer(k: int, name: str) -> int:
    """``k``, checked to be an ``int``, which (as in :func:`validate`) no bool is."""
    if isinstance(k, int) and not isinstance(k, bool):
        return k
    raise ValueError(f"{name} must be an integer, got {k!r}")


def _int_field(doc: dict, key: str) -> int:
    value = doc[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise GraphFormatError(f"$.{key}: expected integer, found {value!r}")
    return value


def _array(doc: dict, key: str, n: int | None = None, entry: type = int) -> tuple:
    """The array of ``entry`` values (``int`` or ``str``; a boolean is no
    ``int`` here) at ``key``, of exactly ``n`` entries when ``n`` is given."""
    value = doc[key]
    if not isinstance(value, list):
        raise GraphFormatError(f"$.{key}: expected array, found {value!r}")
    if n is not None and len(value) != n:
        raise GraphFormatError(f"$.{key}: expected {n} entries, found {len(value)}")
    for i, item in enumerate(value):
        if type(item) is not entry:
            name = "string" if entry is str else "integer"
            raise GraphFormatError(f"$.{key}[{i}]: expected {name}, found {item!r}")
    return tuple(value)


def _document(text: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    """Decode a JSON object holding every ``required`` key, no key
    outside ``required`` and ``optional``, and no key twice; the field
    values are left to the caller."""
    pairs: list[tuple[str, object]] = []

    def keep_pairs(items: list[tuple[str, object]]) -> dict:
        pairs[:] = items  # objects close innermost first: the document's comes last
        return dict(items)

    try:
        doc = json.loads(text, object_pairs_hook=keep_pairs)
    except json.JSONDecodeError as e:
        raise GraphFormatError(f"line {e.lineno} column {e.colno}: {e.msg}") from None
    except ValueError:  # an integer literal past the interpreter's digit limit
        raise GraphFormatError(f"$: integer over {sys.get_int_max_str_digits()} digits") from None
    except RecursionError:
        raise GraphFormatError("$: nested too deeply") from None
    if not isinstance(doc, dict):
        raise GraphFormatError(f"$: expected object, found {type(doc).__name__}")
    if len(doc) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise GraphFormatError(f"$.{key}: duplicate field")
    for key in doc:
        if key not in required and key not in optional:
            raise GraphFormatError(f"$.{key}: unknown field")
    for key in required:
        if key not in doc:
            raise GraphFormatError(f"$.{key}: missing required field")
    return doc


def _dumps(doc) -> str:
    """Compact JSON: no whitespace, keys in insertion order."""
    return json.dumps(doc, separators=(",", ":"))


def parse(text: str) -> SwitchGraph:
    """Parse the JSON graph document, rejecting anything malformed.

    Unknown fields, type errors, and invariant violations are all
    reported with their position in the document.
    """
    doc = _document(text, _REQUIRED_KEYS, ("labels",))
    n = _int_field(doc, "n")
    if n < 1:
        raise GraphFormatError(f"$.n: vertex count must be positive, found {n}")
    g = _Valid(
        n=n,
        labels=_array(doc, "labels", n, str) if "labels" in doc else None,  # reported first
        even=_array(doc, "even", n),
        odd=_array(doc, "odd", n),
        origin=_int_field(doc, "origin"),
        dest=_int_field(doc, "dest"),
    )
    violations = validate(g)
    if violations:
        raise GraphFormatError(
            "; ".join(f"$.{v}" if ":" in v else f"$: {v}" for v in violations)
        )
    return g


def serialize(g: SwitchGraph) -> str:
    """Byte-deterministic JSON: fixed key order, no whitespace; invalid graphs raise ValueError."""
    g = require_valid(g)
    doc: dict = {
        "n": g.n,
        "origin": g.origin,
        "dest": g.dest,
        "even": list(g.even),
        "odd": list(g.odd),
    }
    if g.labels is not None:
        doc["labels"] = list(g.labels)
    return _dumps(doc)


def to_dot(g: SwitchGraph) -> str:
    """DOT export with one edge line per slot, tagged with its parity.

    Labels are quoted with backslashes and double quotes escaped, so any
    label stays inside its node's attribute list; invalid graphs raise ValueError."""
    g = require_valid(g)
    lines = ["digraph switch_graph {"]
    for v in range(g.n):
        attrs = []
        if g.labels is not None:
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            attrs.append(f'label="{label}"')
        if v == g.origin:
            attrs.append('role="origin"')
        if v == g.dest:
            attrs.append('role="dest"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {v}{suffix};")
    for si, w in enumerate(g.heads()):
        lines.append(f'  {si // 2} -> {w} [parity="{PARITY_NAMES[si & 1]}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
