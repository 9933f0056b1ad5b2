"""Seeded instance generation: determinism, validity, and the stream mix."""

from __future__ import annotations

import re

import pytest

from switchflow.generate import MODELS, GeneratorSpec, generate, instance_stream
from switchflow.graphs import serialize, validate
from switchflow.simulate import decide_arrival


def test_identical_specs_generate_identical_graphs():
    spec = GeneratorSpec(n=6, seed=42, model="uniform")
    assert generate(spec) == generate(spec)


@pytest.mark.parametrize(
    "n, seed, model, text",
    [
        (6, 42, "uniform", '{"n":6,"origin":0,"dest":5,"even":[5,0,0,5,2,1],"odd":[1,1,5,0,5,5]}'),
        (6, 42, "layered", '{"n":6,"origin":0,"dest":5,"even":[1,3,5,4,5,0],"odd":[2,2,5,5,5,0]}'),
        (
            11, 2**64 - 1, "uniform",
            '{"n":11,"origin":0,"dest":10,"even":[0,3,5,9,3,7,9,1,5,0,3],'
            '"odd":[8,7,10,1,5,7,4,4,9,0,5]}',
        ),
        (
            11, 2**64 - 1, "layered",
            '{"n":11,"origin":0,"dest":10,"even":[6,9,8,0,10,6,7,10,10,10,9],'
            '"odd":[3,5,6,7,2,7,7,10,10,9,4]}',
        ),
    ],
)
def test_a_spec_generates_the_same_bytes_on_every_python(n, seed, model, text):
    # the check report's "reproduce: --n --seed --model" line names a
    # graph by its spec, so the spec must give these bytes on every
    # supported interpreter
    assert serialize(generate(GeneratorSpec(n, seed, model))) == text


def test_different_seeds_generate_different_graphs():
    graphs = {generate(GeneratorSpec(n=6, seed=s)) for s in range(20)}
    assert len(graphs) > 1


def test_generated_graphs_are_valid():
    for model in MODELS:
        for seed in range(50):
            g = generate(GeneratorSpec(n=5, seed=seed, model=model))
            assert validate(g) == []
            assert (g.origin, g.dest) == (0, g.n - 1)


def test_spec_rejects_bad_arguments():
    with pytest.raises(ValueError, match="at least 2 vertices"):
        GeneratorSpec(n=1, seed=0)
    with pytest.raises(ValueError, match="unknown model"):
        GeneratorSpec(n=3, seed=0, model="dense")
    with pytest.raises(ValueError, match="at least 2 vertices"):
        GeneratorSpec(n=3, seed=0)._replace(n=1)
    # a seed that is no int would be drawn from the OS (None), hashed, or
    # printed by the reproduce line as no --seed the command line takes
    for seed in (None, 1.5, "x", True, b"\x01"):
        message = f"^seed must be an integer, got {re.escape(repr(seed))}$"
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(n=4, seed=seed)
        with pytest.raises(ValueError, match="^seed must be an integer"):
            GeneratorSpec(n=4, seed=0)._replace(seed=seed)
    for n in (3.0, "3", True, None):
        with pytest.raises(ValueError, match=f"^n must be an integer, got {re.escape(repr(n))}$"):
            GeneratorSpec(n=n, seed=0)


def test_stream_cycles_sizes_and_models():
    stream = instance_stream(4, 12, seed=0)
    assert len(stream) == 12
    assert [spec.n for spec, _ in stream] == [2, 3, 4] * 4
    assert [spec.model for spec, _ in stream] == ["uniform", "layered"] * 6
    for spec, g in stream:
        assert generate(spec) == g


def test_stream_is_reproducible():
    assert instance_stream(6, 30, seed=9) == instance_stream(6, 30, seed=9)


def test_stream_rejects_bad_sizes():
    with pytest.raises(ValueError, match="n_max"):
        instance_stream(1, 5, seed=0)
    for n_max, count, seed, name in (
        (4.0, 5, 0, "n_max"), (True, 5, 0, "n_max"), (4, 5.0, 0, "count"), (4, "5", 0, "count"),
        (4, 5, None, "seed"), (4, 5, 1.5, "seed"), (4, 5, "x", "seed"), (4, 5, True, "seed"),
    ):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            instance_stream(n_max, count, seed)


def test_both_generator_models_yield_both_verdicts():
    # The mixed suite must keep both witness kinds abundant.
    verdicts = {
        model: {decide_arrival(generate(GeneratorSpec(n=6, seed=s, model=model)))
                for s in range(40)}
        for model in MODELS
    }
    assert verdicts["uniform"] == {True, False}
    assert verdicts["layered"] == {True, False}
