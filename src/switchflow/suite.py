"""End-to-end property suite over seeded random instances.

This is the engine behind the ``check`` command.  For every generated
instance it exercises the full chain and cross-checks each layer against
the simulator:

* ``duality``: exactly one of the two augmented runs terminates, and
  which one matches the source run's verdict;
* ``prefix-flows``: every prefix of the augmented run (and the full
  profiles on both boards) verifies as a switching flow to the token's
  current vertex;
* ``completion``: flows completed from random cutoffs re-verify, only
  grow, equal the full run profile, and respect the per-slot ceilings;
* ``trace-equivalence``: the local-search walk from the reset state
  reproduces the simulator's prefix states step by step with the
  potential rising by exactly 1, and the extracted certificate agrees
  with the decision verdict.

Any failure is reported with the instance's generator spec and
serialized graph so it reproduces in isolation.  The verifier is
injectable so the harness itself can be smoke-tested with a corrupted
one (``self_test``).
"""

from __future__ import annotations

import random
from typing import Callable, NamedTuple, Sequence

from . import flows, local_search, simulate
from .generate import GeneratorSpec, generate, instance_stream
from .graphs import SolverError, SwitchGraph, serialize
from .reduction import augment, check_duality

FAMILIES = ("duality", "prefix-flows", "completion", "trace-equivalence")

# Random cutoffs of each instance's run that the completion family completes.
_CUTOFFS_PER_INSTANCE = 3


class CheckFailure(NamedTuple):
    family: str
    spec: GeneratorSpec
    graph_json: str
    detail: str


class CheckReport:
    """Counts per check family, filled in as the suite runs."""

    def __init__(self) -> None:
        self.instances = 0
        self.passed = {f: 0 for f in FAMILIES}
        self.failure: CheckFailure | None = None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CheckReport):
            return NotImplemented
        return (self.instances, self.passed, self.failure) == (
            other.instances,
            other.passed,
            other.failure,
        )

    @property
    def ok(self) -> bool:
        return self.failure is None

    def to_doc(self) -> dict:
        doc: dict = {
            "ok": self.ok,
            "instances": self.instances,
            "passed": {f: self.passed[f] for f in FAMILIES},
        }
        if self.failure is not None:
            doc["failure"] = {
                "family": self.failure.family,
                "n": self.failure.spec.n,
                "seed": self.failure.spec.seed,
                "model": self.failure.spec.model,
                "graph": self.failure.graph_json,
                "detail": self.failure.detail,
            }
        return doc


class _Falsified(Exception):
    def __init__(self, family: str, detail: str):
        self.family = family
        self.detail = detail
        super().__init__(detail)


def prefix_states(g: SwitchGraph, targets: Sequence[int]) -> list[simulate.PrefixState]:
    """All simulation states (vertex, profile, switches) for t = 0..T,
    reconstructed from one replay instead of T re-simulations."""
    outcome = simulate.simulate(g, targets=targets)
    if outcome.verdict is not simulate.Verdict.TERMINATED:
        raise AssertionError(f"the run to {sorted(targets)} ended {outcome.verdict.value}")
    profile = [0] * (2 * g.n)
    switches = 0
    states = [simulate.PrefixState(g.origin, tuple(profile), switches)]
    for step in simulate.replay(g, outcome.steps):
        profile[2 * step.tail + step.parity] += 1
        switches ^= 1 << step.tail
        states.append(simulate.PrefixState(step.head, tuple(profile), switches))
    return states


def _check_instance(
    g: SwitchGraph,
    rng: random.Random,
    report: CheckReport,
    verify: Callable[..., flows.FlowCheckReport],
) -> None:
    aug = augment(g)
    h, o_bar = aug.h, aug.o_bar

    duality = check_duality(g)
    if not duality.ok:
        raise _Falsified(
            "duality",
            f"verdicts g={duality.g_terminates} to_dest={duality.to_dest_terminates} "
            f"to_dbar={duality.to_dbar_terminates}",
        )
    report.passed["duality"] += 1

    # The run on the augmented board, stopped at whichever terminal comes
    # first; every prefix must verify as a flow to the current vertex.
    states = prefix_states(h, targets=aug.terminals)
    for t, st in enumerate(states):
        rep = verify(h, o_bar, st.vertex, st.profile)
        if not rep.valid:
            raise _Falsified("prefix-flows", f"prefix t={t} at vertex {st.vertex} failed: {rep}")
    if duality.g_terminates:
        g_outcome = simulate.simulate(g)
        rep = verify(g, g.origin, g.dest, g_outcome.profile)
        if not rep.valid:
            raise _Falsified("prefix-flows", f"source run profile failed: {rep}")
    report.passed["prefix-flows"] += 1

    full = states[-1]
    reached = full.vertex
    for _ in range(_CUTOFFS_PER_INSTANCE):
        t = rng.randrange(1, len(states))
        st = states[t]
        got = flows.complete(aug, st.vertex, st.profile)
        if got.reached != reached or got.flow != full.profile:
            raise _Falsified(
                "completion",
                f"cutoff t={t}: completion reached {got.reached}, "
                f"expected the full run profile to {reached}",
            )
        rep = verify(h, o_bar, got.reached, got.flow)
        if not rep.valid:
            raise _Falsified("completion", f"completed flow failed: {rep}")
        zeroed = {2 * v + p for v in (aug.source_dest, aug.d_bar) for p in (0, 1)}
        if any(z < x for si, (z, x) in enumerate(zip(got.flow, st.profile)) if si not in zeroed):
            raise _Falsified(
                "completion",
                f"cutoff t={t}: completed flow shrank outside the terminal self-loops",
            )
        bounds = flows.check_bounds(aug, got.flow, got.reached)
        if not bounds.ok:
            raise _Falsified("completion", f"bound violations: {bounds.violations}")
    bounds = flows.check_bounds(aug, full.profile, reached)
    if not bounds.ok:
        raise _Falsified("completion", f"run profile bound violations: {bounds.violations}")
    report.passed["completion"] += 1

    inst = local_search.LocalOptInstance(aug)
    state = inst.reset
    for t, st in enumerate(states):
        if state.vertex != st.vertex or state.flow != st.profile:
            raise _Falsified(
                "trace-equivalence", f"walk state at t={t} is {state}, run prefix is {st}"
            )
        if t < len(states) - 1:
            nxt = inst.neighbor(state)
            if inst.potential(nxt) != inst.potential(state) + 1:
                raise _Falsified("trace-equivalence", f"potential did not rise by 1 at t={t}")
            state = nxt
    solution, walk_steps = local_search.walk_localopt(inst)
    if solution.vertex != reached or walk_steps != len(states) - 1:
        raise _Falsified(
            "trace-equivalence",
            f"walk ended at {solution.vertex} after {walk_steps} steps, "
            f"run ended at {reached} after {len(states) - 1}",
        )
    cert = local_search.extract_certificate(inst, solution)
    expected_kind = (
        local_search.TERMINATION if duality.g_terminates else local_search.NON_TERMINATION
    )
    if cert.kind != expected_kind:
        raise _Falsified(
            "trace-equivalence", f"certificate kind {cert.kind}, decision says {expected_kind}"
        )
    rep = verify(h, cert.origin, cert.dest, cert.flow)
    if not rep.valid:
        raise _Falsified("trace-equivalence", f"certificate failed re-verification: {rep}")
    report.passed["trace-equivalence"] += 1


def run_checks(
    n_max: int,
    count: int,
    seed: int,
    *,
    verify: Callable[..., flows.FlowCheckReport] = flows.verify,
) -> CheckReport:
    """Run the four check families over ``count`` seeded instances.

    Stops at the first falsification and reports it with a reproduction
    spec; identical arguments always produce identical reports.
    """
    report = CheckReport()
    for spec, g in instance_stream(n_max, count, seed):
        report.instances += 1
        rng = random.Random(spec.seed ^ 0xC0FFEE)
        try:
            _check_instance(g, rng, report, verify)
        except _Falsified as f:
            report.failure = CheckFailure(f.family, spec, serialize(g), f.detail)
            break
        except (AssertionError, SolverError, ValueError) as e:
            report.failure = CheckFailure("internal", spec, serialize(g), repr(e))
            break
    return report


def _corrupted_verify(g, origin, dest, counts) -> flows.FlowCheckReport:
    """Deliberately broken verifier: ignores the parity condition and
    misreads the origin's required imbalance."""
    report = flows.verify(g, origin, dest, counts)
    if report.valid and sum(counts) % 2 == 1:
        return flows.FlowCheckReport(
            (flows.ConservationViolation(origin, 0, 1),), ()
        )
    return flows.FlowCheckReport(report.conservation_violations, ())


def self_test(seed: int = 7) -> bool:
    """Harness sanity: a corrupted verifier must surface as a failure."""
    report = run_checks(6, 20, seed, verify=_corrupted_verify)
    return not report.ok
