"""The package surface: lazily loaded layers, the modules each command
leaves unloaded, and the immutability of the record types."""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import textwrap

import pytest

import switchflow
from switchflow.flows import check_bounds, complete, verify
from switchflow.generate import GeneratorSpec
from switchflow.graphs import graph, serialize
from switchflow.local_search import LocalOptInstance, solve_s_arrival
from switchflow.reduction import augment, check_duality
from switchflow.simulate import run

from helpers import T1, T3

# Per command: what it must leave out of ``sys.modules``.  No command
# needs ``dataclasses`` (nor ``inspect``, which it would bring in), and a
# run that ends in its ``4n`` phase needs no component pass.
LEFT_OUT = {
    "decide": {
        "dataclasses",
        "inspect",
        "switchflow.condensation",
        "switchflow.flows",
        "switchflow.reduction",
        "switchflow.local_search",
        "switchflow.suite",
        "switchflow.generate",
    },
    "solve": {
        "dataclasses",
        "inspect",
        "switchflow.condensation",
        "switchflow.suite",
        "switchflow.generate",
    },
    "verify-flow": {"dataclasses", "inspect", "switchflow.suite", "switchflow.generate"},
}

# Per command: the layer it runs, so that the check above is not vacuous.
LOADED = {
    "decide": "switchflow.simulate",
    "solve": "switchflow.local_search",
    "verify-flow": "switchflow.flows",
}


@pytest.mark.parametrize("command", sorted(LEFT_OUT))
def test_each_command_loads_only_its_own_layers(command, tmp_path):
    graph_path = tmp_path / "g.json"
    graph_path.write_text(serialize(T1))
    flow_path = tmp_path / "f.json"
    flow_path.write_text('{"origin":0,"dest":1,"counts":[1,0,0,0]}')
    argv = [command, "--input", str(graph_path), "--output", str(tmp_path / "out")]
    if command == "verify-flow":
        argv += ["--flow", str(flow_path)]
    # A fresh interpreter without the site hook, so that only the
    # command's own imports count.
    script = textwrap.dedent(
        """
        import json, sys
        from switchflow.cli import main

        code = main(sys.argv[1:])
        print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, *argv],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["code"] == 0
    assert LOADED[command] in report["modules"]
    assert LEFT_OUT[command].isdisjoint(report["modules"])


def test_every_exported_name_resolves():
    for name in switchflow.__all__:
        getattr(switchflow, name)
    assert set(switchflow.__all__) <= set(dir(switchflow))


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from switchflow import *", namespace)
    assert set(switchflow.__all__) <= set(namespace)
    assert namespace["run"] is run


def test_layers_are_reachable_as_attributes():
    assert switchflow.simulate.run is run


def test_unknown_attributes_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        switchflow.no_such_name


def _records():
    aug = augment(T1)
    # The fresh origin's even slot: a flow from it to the old origin.
    completion = complete(aug, T1.origin, (0, 0, 0, 0, 1, 0, 0, 0))
    return [
        T1,
        run(T3).cycle_witness,
        run(T1),
        verify(T1, 0, 1, (1, 0, 0, 0)),
        check_bounds(aug, completion.flow, completion.reached),
        aug,
        check_duality(T1),
        LocalOptInstance(aug).reset,
        solve_s_arrival(T1),
        GeneratorSpec(n=3, seed=0),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    with pytest.raises(AttributeError):
        record.extra = None


def test_the_package_has_no_assert_statements():
    # ``python -O`` strips asserts, so every check in the package raises
    package = os.path.dirname(switchflow.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), name)
            found += [f"{name}:{n.lineno}" for n in ast.walk(tree) if isinstance(n, ast.Assert)]
    assert found == []


def test_with_route_changes_only_the_route():
    g = graph(3, [1, 2, 2], [0, 2, 2], 0, 2, labels=["a", "b", "c"])
    moved = g.with_route(origin=1, dest=0)
    assert type(moved) is type(g)
    assert (moved.origin, moved.dest) == (1, 0)
    assert moved._replace(origin=g.origin, dest=g.dest) == g
    assert g.with_route() == g
    assert g.with_route(dest=1) == g._replace(dest=1)
