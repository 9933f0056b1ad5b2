"""Seeded random instance generation.

Instances come from a named, platform-independent PRNG (Python's
Mersenne Twister with an explicit integer seed), so any instance ever
reported by the checking suites can be rebuilt from its spec alone.
A spec's bytes depend only on the ``getrandbits`` and ``random()``
streams of ``random.Random(seed)``: each successor is drawn by the
rejection sampler that ``randrange`` uses underneath, called directly.

Two models:

* ``uniform``: each successor drawn independently and uniformly over
  all vertices.  Dense back-edges make non-terminating runs common.
* ``layered``: successors biased toward higher-numbered vertices with
  the destination last, so most runs fall through to the destination.
  Both witness kinds stay abundant across a mixed suite.

By convention the origin is vertex 0 and the destination is ``n - 1``.
"""

from __future__ import annotations

import random
from itertools import islice, repeat
from typing import NamedTuple

from .graphs import MODELS, SwitchGraph, _integer, _Valid

# Probability that a layered-model slot points strictly forward.
_FORWARD_BIAS = 0.75


class _Spec(NamedTuple):
    n: int
    seed: int
    model: str


class GeneratorSpec(_Spec):
    """Everything an instance is rebuilt from; validated on construction.
    ``n`` and ``seed`` are ``int``s, never ``bool``s: another seed would be
    hashed or drawn from the OS, and the reproduce line prints them."""

    __slots__ = ()

    def __new__(cls, n: int, seed: int, model: str = "uniform") -> "GeneratorSpec":
        _integer(seed, "seed")
        if _integer(n, "n") < 2:
            raise ValueError(f"need at least 2 vertices (origin != dest), got {n}")
        if model not in MODELS:
            raise ValueError(f"unknown model {model!r}, expected one of {MODELS}")
        return super().__new__(cls, n, seed, model)

    @classmethod
    def _make(cls, iterable) -> "GeneratorSpec":
        # through the checks above, so that ``_replace`` keeps them too
        return cls(*iterable)


def generate(spec: GeneratorSpec) -> SwitchGraph:
    """Deterministic: the same spec always yields a byte-identical graph.

    The bytes depend only on the ``getrandbits`` and ``random()`` streams
    of ``random.Random(spec.seed)``.  A successor below ``w`` is
    ``getrandbits(w.bit_length())``, drawn again while it is ``>= w``:
    ``randrange``'s own sampler, so the mapping from spec to graph is the
    one ``randrange`` gave, without its per-call argument handling.
    Every even successor is drawn before the first odd one.

    The graph is checked by construction: the spec has ``n >= 2``, every
    successor is drawn from ``0 .. n-1``, and the origin 0 is not the
    destination ``n - 1``."""
    rng = random.Random(spec.seed)
    n = spec.n
    if spec.model == "layered":
        even, odd = _layered(rng, n), _layered(rng, n)
    else:
        draws = filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))
        even, odd = tuple(islice(draws, n)), tuple(islice(draws, n))
    return _Valid(n=n, even=even, odd=odd, origin=0, dest=n - 1)


def _layered(rng: random.Random, n: int) -> tuple[int, ...]:
    """One slot's successors under the layered model: a vertex short of
    the destination draws ``random()`` and, below the bias, a successor
    strictly above it; otherwise the successor is drawn over all ``n``."""
    chance, getrandbits = rng.random, rng.getrandbits
    succ = []
    for v in range(n):
        if v < n - 1 and chance() < _FORWARD_BIAS:
            low, w = v + 1, n - 1 - v
        else:
            low, w = 0, n
        k = w.bit_length()
        r = getrandbits(k)
        while r >= w:
            r = getrandbits(k)
        succ.append(low + r)
    return tuple(succ)


def instance_stream(n_max: int, count: int, seed: int) -> list[tuple[GeneratorSpec, SwitchGraph]]:
    """A reproducible mixed suite: sizes cycle 2..n_max, models alternate.

    Each instance gets its own 64-bit seed drawn from one master stream,
    so a failure reproduces from the instance spec without replaying the
    whole suite.
    """
    _integer(count, "count")
    _integer(seed, "seed")
    if _integer(n_max, "n_max") < 2:
        raise ValueError(f"n_max must be at least 2, got {n_max}")
    master = random.Random(seed)
    out = []
    for i in range(count):
        spec = GeneratorSpec(
            n=2 + i % (n_max - 1),
            seed=master.getrandbits(64),
            model=MODELS[i % len(MODELS)],
        )
        out.append((spec, generate(spec)))
    return out
