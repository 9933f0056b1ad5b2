"""The generator against the ``randrange`` loop it replaced, kept as
``helpers.reference_generate``: every spec must give the same bytes,
since the check report's reproduce line names a graph by its spec.

The file needs no pytest, so interpreters without it run it as a script:

    PYTHONPATH=src:tests python tests/test_generate_reference.py
"""

from __future__ import annotations

from helpers import reference_generate

from switchflow.generate import MODELS, GeneratorSpec, generate, instance_stream
from switchflow.graphs import serialize


def _mismatches(specs) -> list[GeneratorSpec]:
    return [s for s in specs if serialize(generate(s)) != serialize(reference_generate(s))]


def test_small_boards_match_the_randrange_loop():
    specs = [
        GeneratorSpec(n, seed, model)
        for n in range(2, 70) for seed in range(40) for model in MODELS
    ]
    assert _mismatches(specs) == []


def test_boards_around_powers_of_two_match_the_randrange_loop():
    # a successor below w is drawn with w.bit_length() bits, so the
    # rejection rate jumps between 127, 128 and 129 vertices
    specs = [
        GeneratorSpec(n, seed, model)
        for n in (127, 128, 129, 1000, 4097) for seed in (0, 1, 2**64 - 1) for model in MODELS
    ]
    assert _mismatches(specs) == []


def test_the_instance_stream_matches_the_randrange_loop():
    stream = instance_stream(40, 200, 12345)
    assert len(stream) == 200
    assert [spec for spec, g in stream if serialize(g) != serialize(reference_generate(spec))] == []


if __name__ == "__main__":
    import sys

    for test in (
        test_small_boards_match_the_randrange_loop,
        test_boards_around_powers_of_two_match_the_randrange_loop,
        test_the_instance_stream_matches_the_randrange_loop,
    ):
        test()
        print(f"{sys.version.split()[0]} ok: {test.__name__}")
