"""The end-to-end property harness behind the check command."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap

from switchflow import flows
from switchflow.graphs import SolverError
from switchflow.suite import (
    FAMILIES,
    CheckReport,
    prefix_states,
    run_checks,
    self_test,
)
from switchflow.reduction import augment

from helpers import T2


def test_prefix_states_reconstruct_the_whole_run():
    aug = augment(T2)
    states = prefix_states(aug.h, aug.terminals)
    assert states[0] == (aug.o_bar, (0,) * 8, 0)
    assert states[-1].vertex in aug.terminals
    for earlier, later in zip(states, states[1:]):
        assert sum(later.profile) == sum(earlier.profile) + 1


def test_small_suite_passes():
    report = run_checks(6, 40, seed=7)
    assert report.ok
    assert report.instances == 40
    assert all(report.passed[f] == 40 for f in FAMILIES)


def test_reports_are_deterministic():
    assert run_checks(5, 25, seed=3) == run_checks(5, 25, seed=3)


def test_report_doc_shape():
    doc = run_checks(4, 6, seed=1).to_doc()
    assert doc["ok"] is True
    assert doc["instances"] == 6
    assert set(doc["passed"]) == set(FAMILIES)


def test_corrupted_verifier_is_surfaced():
    assert self_test(seed=7) is True


def test_failure_reports_carry_a_reproduction_spec():
    def broken(g, origin, dest, counts):
        report = flows.verify(g, origin, dest, counts)
        if report.valid and sum(counts) > 3:
            return flows.FlowCheckReport((flows.ConservationViolation(0, 9, 0),), ())
        return report

    report = run_checks(6, 40, seed=7, verify=broken)
    assert not report.ok
    assert report.failure.family in FAMILIES
    doc = report.to_doc()
    assert doc["failure"]["detail"]
    assert doc["failure"]["seed"] == report.failure.spec.seed
    # The generator settings alone rebuild the failing graph.
    from switchflow.generate import generate
    from switchflow.graphs import parse

    assert parse(report.failure.graph_json) == generate(report.failure.spec)


def test_a_solver_error_is_an_internal_failure(monkeypatch):
    error = SolverError("completion stalled")

    def stalled(*args):
        raise error

    monkeypatch.setattr(flows, "complete", stalled)
    report = run_checks(6, 20, 7)
    assert report.failure.family == "internal"
    assert report.failure.detail == repr(error)
    assert report.instances == 1


def test_passing_checks_format_no_reports():
    class Unprintable(flows.FlowCheckReport):
        def __repr__(self):
            raise RuntimeError("repr of a report that passed its check")

    def quiet(*args):
        return Unprintable(*flows.verify(*args))

    assert run_checks(6, 20, 7, verify=quiet) == run_checks(6, 20, 7)


def test_empty_report_is_ok():
    assert CheckReport().ok


def test_reimporting_the_package_releases_the_old_modules():
    # A fresh interpreter, so no test module holds the old modules.
    script = textwrap.dedent(
        """
        import gc, importlib, sys, weakref

        def fresh_import():
            for name in [k for k in sys.modules if k.split(".")[0] == "switchflow"]:
                del sys.modules[name]
            importlib.import_module("switchflow.cli")
            importlib.import_module("switchflow.simulate")

        fresh_import()
        old = weakref.ref(sys.modules["switchflow.simulate"])
        fresh_import()
        gc.collect()
        sys.exit(0 if old() is None else 1)
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run([sys.executable, "-c", script], env=env, timeout=60)
    assert result.returncode == 0
