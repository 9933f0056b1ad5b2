"""Token runs: outcomes, prefixes, decision, and the rotor oracle."""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import textwrap
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from switchflow.generate import MODELS, GeneratorSpec, generate
from switchflow import condensation, flows
from switchflow.graphs import SwitchGraph, _out_of_reach, graph
from switchflow.local_search import TERMINATION, solve_s_arrival
from switchflow.reduction import augment
from switchflow.simulate import (
    RunOutcome,
    TraceStep,
    Verdict,
    _feedback_vertex,
    _departures,
    _multirun,
    _stopped_run,
    _switch_word,
    decide_arrival,
    default_budget,
    format_trace,
    outcome_to_doc,
    replay,
    run,
    run_prefix,
    simulate,
)

from helpers import (
    T1,
    T2,
    T3,
    acceptance_instances,
    bouncer_chain,
    chain_into_trap,
    chained,
    closure_reachable,
    counter_chain,
    leaky_counter,
    random_graph,
    random_trap_graph,
    reference_run,
    relabel,
    rotor_run,
    trap_chain,
    trapped_counter,
)


@st.composite
def switch_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=2, max_value=max_n))
    even = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    odd = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return graph(n, even, odd, 0, n - 1)


def test_direct_hop_takes_one_step():
    outcome = run(T1)
    assert outcome.verdict is Verdict.TERMINATED
    assert outcome.steps == 1
    assert outcome.profile == (1, 0, 0, 0)
    assert outcome.final_vertex == 1
    assert outcome.cycle_witness is None


def test_self_loop_flips_the_switch_then_leaves():
    outcome = run(T2)
    assert outcome.verdict is Verdict.TERMINATED
    assert outcome.steps == 2
    assert outcome.profile == (1, 1, 0, 0)


def test_closed_pair_never_terminates():
    outcome = run(T3)
    assert outcome.verdict is Verdict.NON_TERMINATING
    assert outcome.cycle_witness is not None


def test_cycle_witness_names_a_genuinely_repeated_state():
    w = run(T3).cycle_witness
    assert 0 <= w.first_step < w.second_step
    for t in (w.first_step, w.second_step):
        st_t = run_prefix(T3, t)
        assert (st_t.vertex, st_t.switches) == (w.vertex, w.switches)


def test_run_rejects_invalid_graphs():
    with pytest.raises(ValueError, match="invalid switch graph"):
        run(graph(2, [1, 1], [1, 1], 0, 0))


def test_simulate_and_replay_check_their_input():
    invalid = graph(2, [1, 1], [1, 1], 0, 0)
    with pytest.raises(ValueError, match="^invalid switch graph: origin equals dest$"):
        simulate(invalid)
    with pytest.raises(ValueError, match="^invalid switch graph: origin equals dest$"):
        list(replay(invalid, 1))
    for start in (-1, 3, 10**30):
        message = f"^start out of range \\({start} not in 0..2\\)$"
        with pytest.raises(ValueError, match=message):
            simulate(T3, start=start)
        with pytest.raises(ValueError, match=message):
            next(replay(T3, 2, start=start))
    assert simulate(T3, start=2, targets={1}).verdict is Verdict.NON_TERMINATING
    assert list(replay(T3, 1, start=2)) == [TraceStep(0, 2, 0, 2)]
    # a switch word of T3 has 3 bits; one past them or a negative word
    # would be read as some other word, and a non-int is none
    for switches in (8, 1 << 70, -1, -8):
        message = f"^switches out of range \\({switches} not in 0..2\\*\\*3 - 1\\)$"
        with pytest.raises(ValueError, match=message):
            simulate(T3, switches=switches)
        with pytest.raises(ValueError, match=message):
            next(replay(T3, 2, switches=switches))
    for switches in (True, 1.0, "1", None):
        message = f"^switches must be an integer, got {re.escape(repr(switches))}$"
        with pytest.raises(ValueError, match=message):
            run(T3, switches=switches)
        with pytest.raises(ValueError, match=message):
            next(replay(T3, 2, switches=switches))
    assert simulate(T3, switches=7).verdict is Verdict.NON_TERMINATING
    assert list(replay(T3, 1, switches=7)) == [TraceStep(0, 0, 1, 1)]
    # step counts are ints too, never bools, as in graphs.validate
    for count in (2.5, 1.0, True, False, "3"):
        message = f"must be an integer, got {re.escape(repr(count))}$"
        for call in (
            lambda: simulate(T3, budget=count),
            lambda: run(T3, count),
            lambda: run_prefix(T3, count),
            lambda: list(replay(T3, count)),
        ):
            with pytest.raises(ValueError, match=f"^(budget|step count) {message}"):
                call()


def test_start_and_targets_must_be_integers():
    # a float start would index the engine's lists and a bool would read
    # as a vertex; so would a float or bool target, and a string of
    # targets would stop nothing
    for start in (1.0, True, False, "1"):
        message = f"^start must be an integer, got {re.escape(repr(start))}$"
        with pytest.raises(ValueError, match=message):
            simulate(T3, start=start)
        with pytest.raises(ValueError, match=message):
            next(replay(T3, 2, start=start))
    for targets, bad in (([1.0], 1.0), ([True], True), ("ab", "a"), ([2, None], None)):
        message = f"^a target must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ValueError, match=message):
            simulate(T3, targets=targets)
        with pytest.raises(ValueError, match=message):
            run(T3, 5, targets=targets)
    # an int target out of range names no vertex and stops nothing
    assert simulate(T3, targets=[3, -1]) == simulate(T3, targets=()) == run(T3, targets=[])
    assert simulate(T3, targets=[1, 3]).steps == 1


def test_a_negative_step_count_is_refused():
    # replaying -1 steps would yield nothing, as if the run had none: like
    # run_prefix and simulate, replay raises, where its other checks do
    with pytest.raises(ValueError, match="^step count must be nonnegative, got -1$"):
        run_prefix(T3, -1)
    with pytest.raises(ValueError, match="^budget must be nonnegative, got -1$"):
        simulate(T3, -1)
    steps = replay(T3, -1)  # a generator: its checks run at the first step
    with pytest.raises(ValueError, match="^step count must be nonnegative, got -1$"):
        next(steps)
    with pytest.raises(ValueError, match="^switches out of range"):
        next(replay(T3, -1, switches=8))  # the switch word is checked first
    assert list(replay(T3, 0)) == []


def test_the_phase_and_its_hand_off_match_the_replay():
    # The 4n phase steps on the graph's successor tuples with the even and
    # odd departure counts as its state, a preset bit read as one even
    # departure made.  At every budget its steps, vertex and profile must
    # be the replay's up to the first stop, and the slot table built from
    # them where a run outlives the phase must point where the replay's
    # switches do: past each vertex's last departure, or at its preset bit
    # where it has not departed.
    import switchflow.simulate as engine

    rng = random.Random(20261021)
    compared = preset = stopped = 0
    for n in range(2, 13):
        for _ in range(12):
            g = random_graph(rng, n)
            start, switches = rng.randrange(n), rng.choice((0, rng.getrandbits(n)))
            stops = set(rng.sample(range(n), rng.randrange(3)))
            trace = list(replay(g, 4 * n, start=start, switches=switches))
            at = [start] + [step.head for step in trace]
            for budget in range(4 * n + 1):
                steps = next((i for i in range(budget) if at[i] in stops), budget)
                profile = [0] * (2 * n)
                table = [2 * u + (switches >> u & 1) for u in range(n)]
                for step in trace[:steps]:
                    profile[2 * step.tail + step.parity] += 1
                    table[step.tail] = 2 * step.tail + 1 - step.parity
                got = engine._step(g, start, switches, stops, budget)
                assert got[:2] == (steps, at[steps]), (g, start, switches, stops, budget)
                assert engine.slot_order(*got[2:]) == profile, (g, switches, budget)
                assert engine._departures(n, switches, *got[2:]) == table, (g, switches, budget)
                compared += 1
                preset += switches != 0
                stopped += steps < budget
    assert compared > 3000 and preset > 1000 and stopped > 1000, (compared, preset, stopped)


def test_prefix_of_zero_steps_is_the_start_state():
    for g in (T1, T2, T3):
        assert run_prefix(g, 0) == (g.origin, (0,) * (2 * g.n), 0)


def test_prefix_after_one_step():
    assert run_prefix(T2, 1) == (0, (1, 0, 0, 0), 1)
    assert run_prefix(T1, 1) == (1, (1, 0, 0, 0), 1)


def test_prefix_switch_toggles_back():
    # Vertex 0 departs twice in T2, so its switch returns to even.
    assert run_prefix(T2, 2) == (1, (1, 1, 0, 0), 0)


def test_prefix_beyond_termination_is_rejected():
    with pytest.raises(ValueError, match="prefix beyond termination"):
        run_prefix(T1, 2)


def test_prefix_rejects_negative_steps():
    with pytest.raises(ValueError, match="nonnegative"):
        run_prefix(T1, -1)


def test_a_negative_budget_is_rejected():
    # as run_prefix rejects a negative step count; a budget of 0 stops at the start
    cases = [(counter_chain(5), -1), (counter_chain(5), -5), (trapped_counter(3), -1)]
    for g, budget in cases:
        for call in (lambda: run(g, budget), lambda: simulate(g, budget=budget)):
            with pytest.raises(ValueError, match=f"^budget must be nonnegative, got {budget}$"):
                call()
        for outcome in (run(g, 0), simulate(g, budget=0)):
            assert (outcome.verdict, outcome.steps, outcome.final_vertex) == (
                Verdict.BUDGET_EXHAUSTED, 0, g.origin,
            )


def test_decision_matches_the_run():
    assert decide_arrival(T1) is True
    assert decide_arrival(T2) is True
    assert decide_arrival(T3) is False


def test_decision_decides_n_21():
    n = 21
    chain = [min(v + 1, n - 1) for v in range(n)]
    assert decide_arrival(graph(n, chain, chain, 0, n - 1)) is True
    assert decide_arrival(graph(n, [0] * n, [0] * n, 0, n - 1)) is False


def test_large_graphs_get_a_decisive_verdict():
    n = 25
    chain = [min(v + 1, n - 1) for v in range(n)]
    outcome = run(graph(n, chain, chain, 0, n - 1))
    assert outcome.verdict is Verdict.TERMINATED
    assert outcome.steps == n - 1

    stuck = graph(n, [0] * n, [0] * n, 0, n - 1)
    for budget in (None, 100):
        outcome = run(stuck, budget=budget)
        assert outcome.verdict is Verdict.NON_TERMINATING
        w = outcome.cycle_witness
        assert (w.vertex, w.switches, w.first_step, w.second_step) == (0, 0, 0, 2)


def test_budget_exhaustion_below_the_cycle_length():
    # T3's first repeated state recurs at step 4
    outcome = run(T3, budget=3)
    assert outcome.verdict is Verdict.BUDGET_EXHAUSTED
    assert outcome.steps == 3
    assert run(T3, budget=4).verdict is Verdict.NON_TERMINATING


def _assert_matches_the_reference(g, budget=None):
    outcome = run(g, budget)
    trace = list(replay(g, outcome.steps))
    assert (outcome, trace) == reference_run(g, budget), (g, budget)
    return outcome


def test_run_matches_the_reference_on_the_acceptance_suite():
    for g in acceptance_instances():
        _assert_matches_the_reference(g)


def test_run_matches_the_reference_on_a_budget_grid():
    # every budget around the end of the run, where the reference's
    # visited-state dict and the anchors of cycle detection differ most
    for n in range(2, 13):
        for model in MODELS:
            for seed in range(200):
                g = generate(GeneratorSpec(n=n, seed=seed, model=model))
                full = _assert_matches_the_reference(g)
                end = full.steps
                for budget in (0, 1, 3, 7, 20, 100, end - 1, end):
                    _assert_matches_the_reference(g, budget)


def test_simulate_matches_the_reference_from_any_state():
    rng = random.Random(20260819)
    for _ in range(2000):
        n = rng.randrange(2, 9)
        g = random_graph(rng, n)
        kwargs = dict(
            start=rng.randrange(n),
            switches=rng.getrandbits(n),
            targets=set(rng.sample(range(n), rng.randrange(3))),
        )
        budget = rng.choice([None, 0, 1, 5, 30])
        outcome = simulate(g, budget=budget, **kwargs)
        trace = list(replay(g, outcome.steps, start=kwargs["start"], switches=kwargs["switches"]))
        assert (outcome, trace) == reference_run(g, budget, **kwargs)


def _spy_on_the_search_start(monkeypatch) -> list[int]:
    """The step each call of the cycle search starts at: the step the run
    entered ``X`` at, in the ``4n`` phase or in the stopped run after it."""
    import switchflow.simulate as engine

    entries: list[int] = []
    first_repeat = engine._first_repeat
    monkeypatch.setattr(
        engine, "_first_repeat", lambda *args: entries.append(args[4]) or first_repeat(*args)
    )
    return entries


def test_simulate_matches_the_reference_with_no_target_in_range(monkeypatch):
    # With no targets, or only targets outside 0..n-1 (which stop nothing),
    # X is every vertex: the phase ends in it, and the cycle search starts
    # at the start, at step 0.
    entries = _spy_on_the_search_start(monkeypatch)
    rng = random.Random(20261108)
    compared = 0
    for n in range(2, 12):
        for _ in range(15):
            g = random_graph(rng, n)
            outside = {n + rng.randrange(3), -1 - rng.randrange(3)}
            for targets in ((), set(rng.sample(sorted(outside), rng.randrange(1, 3)))):
                start, switches = rng.randrange(n), rng.getrandbits(n)
                kwargs = dict(start=start, switches=switches, targets=targets)
                entries.clear()
                outcome = simulate(g, **kwargs)
                trace = list(replay(g, outcome.steps, start=start, switches=switches))
                assert (outcome, trace) == reference_run(g, **kwargs), (g, kwargs)
                assert outcome.verdict is Verdict.NON_TERMINATING and entries == [0], (g, kwargs)
                compared += 1
    assert compared == 300, compared


def test_the_cycle_search_starts_where_the_run_enters_x(monkeypatch):
    # The search starts at the first step at which the run is in X, the
    # closed region of the vertices that reach no target, also when the
    # 4n phase already ended there: trapped_counter(k) enters X at step 1,
    # and random and trap-funnelled runs from random states at some step
    # of their phase.  The reference trace shows where the run enters X.
    entries = _spy_on_the_search_start(monkeypatch)
    rng = random.Random(20261120)
    cases = [(trapped_counter(k), {}) for k in range(2, 15)]
    for n in range(8, 41):
        for make in (random_graph, random_trap_graph) * 12:
            g = make(rng, n)
            targets = set(rng.sample(range(n), rng.randrange(1, 3)))
            reach = sorted(set(range(n)) - _out_of_reach(g, targets))
            kwargs = dict(start=rng.choice(reach), switches=rng.getrandbits(n), targets=targets)
            cases.append((g, rng.choice([{}, kwargs])))  # a random start reaches a target
    searched = in_phase = after_step_0 = 0
    for g, kwargs in cases:
        if simulate(g, budget=1 << 16, **kwargs).verdict is Verdict.BUDGET_EXHAUSTED:
            continue  # the oracle keeps every state
        targets = kwargs.get("targets", {g.dest})
        x = _out_of_reach(g, targets)
        entries.clear()
        outcome = simulate(g, **kwargs)
        start, switches = kwargs.get("start"), kwargs.get("switches", 0)
        trace = list(replay(g, outcome.steps, start=start, switches=switches))
        assert (outcome, trace) == reference_run(g, **kwargs), (g, kwargs)
        path = [g.origin if start is None else start] + [step.head for step in trace]
        entered = next((t for t, v in enumerate(path) if v in x), None)
        if entered is None:
            assert entries == [] and outcome.verdict is Verdict.TERMINATED, (g, kwargs)
            continue
        assert entries == [entered] and outcome.verdict is Verdict.NON_TERMINATING, (g, kwargs)
        searched += 1
        in_phase += entered <= 4 * g.n
        after_step_0 += 0 < entered <= 4 * g.n
    assert in_phase >= 250 and after_step_0 >= 100, (searched, in_phase, after_step_0)


def _spy_on_the_cycle_search(monkeypatch) -> list[SimpleNamespace]:
    """One record per call of the cycle search, seen through its seams:
    ``left``, its ``budget`` less its ``step``; ``stepped``, the rise of
    the profile it steps in place; and ``cycle``, the head start its lead
    token is given (None when no state matched)."""
    import switchflow.simulate as engine

    searches: list[SimpleNamespace] = []
    first_repeat, tail = engine._first_repeat, engine._tail

    def search(heads, v, nxt, profile, step, budget):
        searches.append(record := SimpleNamespace(left=budget - step, cycle=None))
        before = sum(profile)
        out = first_repeat(heads, v, nxt, profile, step, budget)
        record.stepped = sum(profile) - before
        return out

    def lead(heads, v, nxt, profile, stops, budget):
        if stops == () and searches:
            searches[-1].cycle = budget
        return tail(heads, v, nxt, profile, stops, budget)

    monkeypatch.setattr(engine, "_first_repeat", search)
    monkeypatch.setattr(engine, "_tail", lead)
    return searches


def test_simulate_matches_the_reference_from_any_state_at_large_n(monkeypatch):
    # n = 31..100, so switch words are multi-digit integers.  Half the
    # graphs funnel into a small trap and repeat early; budgets sit around
    # each first repeat, where a binding budget stops the run before
    # Brent's anchors match and the repeat is found by stepping on from
    # the state the budget stopped at: a match after more than ``left``
    # steps is that state's return.
    searches = _spy_on_the_cycle_search(monkeypatch)
    continued_to_a_cycle = 0
    rng = random.Random(20261019)
    witnesses = []
    for i in range(300):
        n = rng.randrange(31, 101)
        g = (random_trap_graph if i % 2 else random_graph)(rng, n)
        kwargs = dict(
            start=rng.randrange(n),
            switches=rng.getrandbits(n),
            targets=set(rng.sample(range(n), rng.randrange(3))),
        )
        full, _ = reference_run(g, 4000, **kwargs)
        budgets = {0, 1, 5, 30, 4000}
        if full.cycle_witness is not None:
            witnesses.append(full.cycle_witness)
            end = full.steps
            budgets |= {end - 1, end, end + 1, rng.randrange(end, 3 * end + 1)}
        for budget in budgets:
            searches.clear()
            outcome = simulate(g, budget=budget, **kwargs)
            continued_to_a_cycle += any(s.cycle is not None and s.stepped > s.left for s in searches)
            start, switches = kwargs["start"], kwargs["switches"]
            trace = list(replay(g, outcome.steps, start=start, switches=switches))
            assert (outcome, trace) == reference_run(g, budget, **kwargs), (g, kwargs, budget)
    assert sum(w.switches >= 1 << 30 for w in witnesses) >= 100
    assert continued_to_a_cycle >= 100


def test_a_budget_stop_steps_on_at_most_the_budget(monkeypatch):
    # A run the budget stops repeats within the budget only if the stopped
    # state recurs within it, so the run steps on at most ``budget`` states
    # past the stop, and the lead token's head start is the steps the stop
    # took to recur; none is sought when the stop lies outside X_d, where
    # no state repeats.  The trapped counter's cycle has 2**41 - 2 states,
    # so no repeat is sought there.
    searches = _spy_on_the_cycle_search(monkeypatch)
    rng = random.Random(20261018)
    cases = [(trapped_counter(40), budget) for budget in (1, 1000, 10**4)]
    # trap_chain(12) enters its trap at step 1023 and first repeats at 1025
    cases += [(trap_chain(12), budget) for budget in (0, 10, 1000, 1 << 10, default_budget(12))]
    for _ in range(100):
        g = random_trap_graph(rng, rng.randrange(31, 101))
        end = reference_run(g, 4000)[0].steps
        cases += [(g, budget) for budget in (end - 1, end, end + 1, 2 * end)]
    stopped = outside = continued_to_a_cycle = 0
    for g, budget in cases:
        searches.clear()
        outcome = run(g, budget)
        assert outcome == reference_run(g, budget)[0], (g, budget)
        matched = any(s.cycle is not None and s.stepped <= s.left for s in searches)
        if matched or outcome.verdict is Verdict.TERMINATED:
            continue  # Brent's anchors matched, or the run ended, within the budget
        stopped += 1
        ran = searches[:]  # run_prefix below steps too
        if run_prefix(g, budget).vertex not in _out_of_reach(g, (g.dest,)):
            assert ran == [], (g, budget)
            outside += 1
            continue
        (search,) = ran
        steps, cycle = search.stepped - search.left, search.cycle
        assert steps <= budget, (g, budget)
        assert steps == cycle if cycle is not None else steps == search.left, (g, budget)
        continued_to_a_cycle += cycle is not None
    assert stopped >= 200 and continued_to_a_cycle >= 100, (stopped, continued_to_a_cycle)
    assert outside >= 10, outside


def _relabelled(family, n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return relabel(family(n), perm), perm


def _shuffled(g, rng):
    return _relabelled(lambda n: g, g.n, rng)[0]


def test_chains_match_the_reference_beyond_64_vertices():
    rng = random.Random(20261020)
    for n in (64, 77, 91, 100):
        g, perm = _relabelled(bouncer_chain, n, rng)
        _assert_matches_the_reference(g)  # (n - 1)**2 steps
        for _ in range(4):
            kwargs = dict(start=rng.randrange(n), switches=rng.getrandbits(n))
            assert simulate(g, **kwargs) == reference_run(g, **kwargs)[0], (n, kwargs)
        assert decide_arrival(g) is True

        # the counter of trap_chain(n) starts j carries short of its top,
        # which then enters the trap or the destination after 2**j steps
        g, perm = _relabelled(trap_chain, n, rng)
        top, trap = n - 3, n - 2
        for j in (0, 1, 5, 9):
            for top_odd in (0, 1):
                counter = sum(1 << perm[v] for v in range(j, top))
                kwargs = dict(
                    start=perm[0],
                    switches=counter | top_odd << perm[top] | rng.getrandbits(1) << perm[trap],
                )
                for budget in (1 << j, 3 << j, None):
                    outcome = simulate(g, budget=budget, **kwargs)
                    trace = list(replay(g, outcome.steps, **kwargs))
                    assert (outcome, trace) == reference_run(g, budget, **kwargs), (n, j)
                assert outcome.final_vertex == (g.dest if top_odd else perm[trap])
        for budget in (0, 1000, 5000):
            _assert_matches_the_reference(g, budget)


def test_run_without_cycle_detection_takes_the_whole_budget():
    # a prefix replays on past T3's first repeat at step 4
    assert run(T3).cycle_witness.second_step == 4
    state = run_prefix(T3, 10)
    assert sum(state.profile) == 10
    assert state == (0, (3, 2, 3, 2, 0, 0), 0b11)


def test_decision_agrees_with_the_certificate_beyond_20_vertices():
    for n in range(21, 201):
        for model in MODELS:
            g = generate(GeneratorSpec(n=n, seed=n, model=model))
            assert decide_arrival(g) == (solve_s_arrival(g).kind == TERMINATION), (n, model)


def test_decision_stops_at_the_unreachable_region():
    # the trap's cycle has 2**41 - 2 states, far beyond any stepping
    assert decide_arrival(trapped_counter(40)) is False


def _stops(g):
    return _out_of_reach(g, (g.dest,)) | {g.dest}


def _batched(g):
    """The batched run from the origin to the first of ``_stops(g)``, as
    an outcome, or None, where it leaves its profile as it was."""
    stops, profile = _stops(g), [0] * (2 * g.n)
    ran = _multirun(
        g, set(range(g.n)) - stops, stops, g.origin, _departures(g.n, 0), profile,
        default_budget(g.n), g.origin,
    )
    if ran is None:
        assert not any(profile), g
        return None
    return RunOutcome(Verdict.TERMINATED, tuple(profile), *ran)


def _assert_batched_matches_stepping(g):
    batched = _batched(g)
    if batched is not None:
        assert batched == simulate(g, targets=_stops(g)), g
    return batched


def test_batched_run_matches_stepping_on_generated_graphs():
    batched = 0
    for n in range(2, 61):
        for model in MODELS:
            for seed in range(40):
                g = generate(GeneratorSpec(n=n, seed=seed, model=model))
                batched += _assert_batched_matches_stepping(g) is not None
    assert batched >= 1000  # about a fifth have a single feedback vertex


def test_batched_run_matches_stepping_on_relabelled_chains():
    rng = random.Random(20261018)
    for family, sizes in ((counter_chain, range(2, 15)), (trap_chain, range(4, 17))):
        for n in sizes:
            perm = list(range(n))
            rng.shuffle(perm)
            g = relabel(family(n), perm)
            assert _feedback_vertex(g, set(range(g.n)) - _stops(g))[0] == g.origin
            assert _assert_batched_matches_stepping(g) is not None, (family, n)


def test_batched_run_without_departures_from_the_feedback_vertex():
    # the origin steps straight to the destination; 1 <-> 2 is the only cycle
    g = graph(4, [3, 2, 1, 3], [3, 2, 3, 3], 0, 3)
    s, _ = _feedback_vertex(g, {0, 1, 2})
    outcome = _assert_batched_matches_stepping(g)
    assert s != g.origin and outcome.profile[2 * s : 2 * s + 2] == (0, 0)
    assert outcome.steps == 1 and outcome.final_vertex == 3


def test_a_feedback_vertex_search_reads_its_region_alone():
    # one copy of a long chain of counters, guessed at a vertex that cuts
    # none of its cycles (the base's self-loop avoids it), so the search
    # walks cycles to narrow its candidates: it reads the slots of the
    # copy and of their heads alone, not every slot of the board
    reads = []

    class Counted(tuple):
        def __getitem__(self, v):
            reads.append(v)
            return tuple.__getitem__(self, v)

    g = chained(12, 1000)
    base = 11 * 500
    copy = set(range(base, base + 11))
    heads = {w for v in copy for w in (g.even[v], g.odd[v])}
    g = g._replace(even=Counted(g.even), odd=Counted(g.odd))
    assert _feedback_vertex(g, copy, base + 1)[0] == base
    assert reads and set(reads) <= copy | heads


def test_batched_components_build_no_slot_table_of_the_board(monkeypatch):
    # chained(12, 1000) has 11,001 vertices: the 4n phase (44,004 steps)
    # runs its first ten copies (4,094 steps each), and the run goes on
    # down the other 990, each cut by one vertex and batched from the
    # token's state at its entry on its own slots: no pass builds the
    # board's heads
    heads, multirun = SwitchGraph.heads, condensation._sim._multirun
    built, batched = [], []
    monkeypatch.setattr(SwitchGraph, "heads", lambda self: built.append(self) or heads(self))
    monkeypatch.setattr(
        condensation._sim, "_multirun", lambda *a: batched.append(multirun(*a)) or batched[-1]
    )
    outcome = run(chained(12, 1000))
    assert outcome.verdict is Verdict.TERMINATED and outcome.steps == 1000 * (2**12 - 2)
    assert sum(ran is not None for ran in batched) == 990 and not built


def test_the_bouncer_has_no_single_feedback_vertex():
    g = bouncer_chain(91)
    assert _batched(g) is None
    assert decide_arrival(g) is True


def test_batched_answers_pass_verify(monkeypatch):
    g = counter_chain(8)
    assert _batched(g).steps == 2 * (1 << 7) - 2
    rejected = flows.FlowCheckReport((flows.ConservationViolation(0, 0, 1),), ())
    monkeypatch.setattr(flows, "verify", lambda *args: rejected)
    with pytest.raises(AssertionError, match="failed verification"):
        _batched(g)


def test_verify_gates_hold_without_asserts():
    # ``python -O`` strips assert statements; the gates must still raise.
    # The leaky counter's run leaves a 62-vertex component with two exit
    # vertices after 2**61 steps, so deciding it runs the batched pass
    # through that component; running counter_chain(64) batches the board.
    script = textwrap.dedent(
        """
        import sys
        from switchflow import flows
        from switchflow.simulate import decide_arrival, run
        from helpers import counter_chain, leaky_counter

        rejected = flows.FlowCheckReport((flows.ConservationViolation(0, 0, 1),), ())
        flows.verify = lambda *args: rejected
        leaky = leaky_counter(62, True)
        for call in (lambda: decide_arrival(leaky), lambda: run(counter_chain(64))):
            try:
                print(sys.flags.optimize, call())
            except AssertionError as e:
                print(sys.flags.optimize, "raised", e)
        """
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert len(lines) == 2, result
    for line in lines:
        assert line.startswith("1 raised batched run profile failed verification"), result


def test_decision_of_64_vertex_chains():
    # 2**64 - 2 and 2**62 - 1 steps: stepping would never finish
    for g, terminates, steps in (
        (counter_chain(64), True, (1 << 64) - 2),
        (trap_chain(64), False, (1 << 62) - 1),
    ):
        assert _batched(g).steps == steps
        start = time.perf_counter()
        assert decide_arrival(g) is terminates
        assert time.perf_counter() - start < 1.0


def test_run_matches_the_reference_on_trap_chains():
    # the run enters the self-looped trap at step 2**(n - 2) - 1, past the
    # 4n phase from n = 8 on, and its first repeat is sought from there
    for n in range(4, 15):
        g = trap_chain(n)
        end = (1 << (n - 2)) + 1
        for budget in (None, end - 1, end, end + 1, 1 << (n - 2), 3 << (n - 3)):
            outcome = _assert_matches_the_reference(g, budget)
        assert outcome.cycle_witness.first_step == end - 2


def test_default_budget_value():
    assert default_budget(2) == 16


def test_simulate_stops_at_any_target():
    outcome = simulate(T3, targets={1})
    assert outcome.verdict is Verdict.TERMINATED
    assert outcome.final_vertex == 1
    assert outcome.steps == 1


def test_trace_records_every_step():
    trace = list(replay(T2, run(T2).steps))
    assert trace == [TraceStep(0, 0, 0, 0), TraceStep(1, 0, 1, 1)]
    assert "\n".join(format_trace(trace)) == "step 0: 0 -even-> 0\nstep 1: 0 -odd-> 1"


def test_outcome_doc_shape():
    doc = outcome_to_doc(run(T2))
    assert doc == {
        "verdict": "terminated",
        "steps": 2,
        "final_vertex": 1,
        "profile": [1, 1, 0, 0],
    }
    doc = outcome_to_doc(run(T3))
    assert doc["verdict"] == "non-terminating"
    assert set(doc["cycle_witness"]) == {"vertex", "switches", "first_step", "second_step"}


def test_counter_chain_depth_is_exponential():
    for n in range(4, 13):
        outcome = run(counter_chain(n))
        assert outcome.verdict is Verdict.TERMINATED
        assert outcome.steps == 2 * (1 << (n - 1)) - 2
        assert max(outcome.profile) == 1 << (n - 2)
        assert outcome.steps <= default_budget(n)


def test_bouncer_chain_depth_is_quadratic():
    for n in range(4, 13):
        outcome = run(bouncer_chain(n))
        assert outcome.verdict is Verdict.TERMINATED
        assert outcome.steps == (n - 1) ** 2
        assert outcome.steps <= default_budget(n)


def test_rotor_oracle_agrees_on_random_graphs():
    rng = random.Random(20260819)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(2, 9))
        outcome = run(g)
        oracle = rotor_run(g)
        if oracle is None:
            assert outcome.verdict is Verdict.NON_TERMINATING
        else:
            profile, steps = oracle
            assert outcome.verdict is Verdict.TERMINATED
            assert (outcome.profile, outcome.steps) == (profile, steps)


@given(switch_graphs())
@settings(deadline=None)
def test_prefixes_partition_the_run(g):
    outcome = run(g)
    assert sum(outcome.profile) == outcome.steps
    if outcome.verdict is Verdict.TERMINATED:
        checked = range(outcome.steps + 1) if outcome.steps <= 40 else (0, outcome.steps)
        for t in checked:
            state = run_prefix(g, t)
            assert sum(state.profile) == t
        assert run_prefix(g, outcome.steps).vertex == g.dest
        assert run_prefix(g, outcome.steps).profile == outcome.profile


# -- stopped runs: the one run behind run, decide, solve and complete -----


def _augmented_boards():
    """The augmented boards of the acceptance instances, of generated
    graphs with n = 2..39 and of relabelled counter and trap chains."""
    rng = random.Random(20261101)
    sources = acceptance_instances()
    sources += [
        generate(GeneratorSpec(n=n, seed=seed, model=model))
        for n in range(2, 40)
        for seed in range(20)
        for model in MODELS
    ]
    sources += [_relabelled(counter_chain, n, rng)[0] for n in range(3, 15)]
    sources += [_relabelled(trap_chain, n, rng)[0] for n in range(4, 15)]
    return [augment(g) for g in sources]


def test_stopped_runs_match_stepping_on_augmented_boards(monkeypatch):
    # the reset run and three runs from a random start and switch word per
    # board, each stepped to the terminals by the visited-state oracle; the
    # batched pass is also run on its own, from the start and from the
    # state (vertex, slot table, profile) after a random prefix of the run,
    # against the rest of the oracle's run
    import switchflow.simulate as engine

    batched = []
    multirun = engine._multirun
    monkeypatch.setattr(
        engine, "_multirun", lambda *a, **k: batched.append(multirun(*a, **k)) or batched[-1]
    )
    rng = random.Random(20261102)
    runs = alone = 0
    for aug in _augmented_boards():
        h, stops = aug.h, aug.terminals
        region = set(range(h.n)) - stops
        starts = [(h.origin, 0)] + [(rng.randrange(h.n), rng.getrandbits(h.n)) for _ in range(3)]
        for start, switches in starts:
            expected, trace = reference_run(h, start=start, switches=switches, targets=stops)
            assert _stopped_run(h, start, switches, stops) == expected, (h, start, switches)
            runs += 1
            for taken in (0, rng.randrange(len(trace) + 1)):
                v, profile = start, [0] * (2 * h.n)
                for step in trace[:taken]:
                    profile[2 * step.tail + step.parity] += 1
                    v = step.head
                before, evens = profile[:], profile[0::2]
                nxt = _departures(h.n, switches, evens, profile[1::2])
                nxt_before = nxt[:]
                guess = evens.index(max(evens)) if taken else v
                ran = multirun(h, region, stops, v, nxt, profile, default_budget(h.n), guess)
                if ran is None:
                    assert profile == before and nxt == nxt_before, (h, start, switches, taken)
                    continue
                assert ran == (expected.steps - taken, expected.final_vertex), (h, start, taken)
                assert tuple(profile) == expected.profile, (h, start, switches, taken)
                assert nxt == _departures(h.n, switches, profile[0::2], profile[1::2])
                alone += 1
    assert runs > 16000 and alone >= 10000, alone
    assert sum(outcome is not None for outcome in batched) >= 50


def test_stopped_runs_stop_at_the_budget():
    rng = random.Random(20261103)
    for family, n in ((counter_chain, 9), (trap_chain, 10), (bouncer_chain, 12)):
        h = augment(_relabelled(family, n, rng)[0]).h
        stops = frozenset((h.dest, h.n - 1))
        for _ in range(5):
            start, switches = rng.randrange(h.n), rng.getrandbits(h.n)
            end = reference_run(h, start=start, switches=switches, targets=stops)[0].steps
            for budget in {0, 1, end // 2, end - 1, end, end + 1}:
                expected = reference_run(
                    h, max(budget, 0), start=start, switches=switches, targets=stops
                )[0]
                got = _stopped_run(h, start, switches, stops, max(budget, 0))
                assert got == expected, (family, start, switches, budget)


def test_stepped_tails_match_the_reference(monkeypatch):
    # Relabelled bouncer chains have no vertex that cuts every cycle, so
    # the run past its 4n phase is stepped by the tail loop to its end at
    # (n - 1)**2 steps.  Budgets sit at random steps inside the tail, at
    # the run's end and past sys.maxsize; a budget stop is the reference
    # run's state at that step.
    import switchflow.simulate as engine

    tails = []
    tail = engine._tail
    monkeypatch.setattr(engine, "_tail", lambda *args: tails.append(tail(*args)) or tails[-1])
    rng = random.Random(20261201)
    for n in range(64, 129, 4):
        g, _ = _relabelled(bouncer_chain, n, rng)
        full, trace = reference_run(g)
        end = full.steps
        assert end == (n - 1) ** 2 and list(replay(g, end)) == trace
        cuts = sorted(rng.randrange(4 * n + 1, end) for _ in range(3))
        profile = [0] * (2 * n)
        expected = {}
        for step in trace[: cuts[-1]]:
            profile[2 * step.tail + step.parity] += 1
            if step.step + 1 in cuts:
                state = (tuple(profile), step.step + 1, step.head)
                expected[step.step + 1] = RunOutcome(Verdict.BUDGET_EXHAUSTED, *state)
        expected |= {end: full, 1 << 80: full}
        for budget, want in expected.items():
            tails.clear()
            outcome = simulate(g, budget=budget)
            assert outcome == want, (n, budget)
            assert [steps for steps, _ in tails] == [outcome.steps - 4 * n], (n, budget)
            state = run_prefix(g, outcome.steps)
            assert state == (want.final_vertex, want.profile, _switch_word(want.profile))
        assert decide_arrival(g) is True


def test_targets_out_of_range_stop_nothing():
    # A negative target names no vertex, so it must not flag vertex n - 1
    # the way a list index would.  The relabelled chain passes n - 1
    # before its destination, and so does its tail.
    import switchflow.simulate as engine

    rng = random.Random(20261202)
    g = bouncer_chain(91)
    relabelled, perm = _relabelled(bouncer_chain, 91, rng)
    while perm[90] == 90:
        relabelled, perm = _relabelled(bouncer_chain, 91, rng)
    for h in (g, relabelled):
        outcome = simulate(h, targets={-1, h.n, 2 * h.n, h.dest})
        assert outcome == simulate(h, targets={h.dest}) == reference_run(h)[0]
        assert (outcome.verdict, outcome.steps) == (Verdict.TERMINATED, 90**2)
        nxt, profile = engine._departures(h.n, 0), [0] * (2 * h.n)
        out_of_range = {-1, h.n, 2 * h.n}
        steps, v = engine._tail(h.heads(), h.origin, nxt, profile, out_of_range, 90**2 - 1)
        assert steps == sum(profile) == 90**2 - 1
        assert v == reference_run(h, 90**2 - 1)[0].final_vertex


def _run_cases():
    """Terminating and non-terminating graphs at n = 2..100: generated,
    funnelled into random traps, trapped counters, relabelled chains and
    chains that fall into a trap late."""
    rng = random.Random(20261104)
    graphs = [
        generate(GeneratorSpec(n=n, seed=seed, model=model))
        for n in range(2, 61)
        for seed in range(10)
        for model in MODELS
    ]
    graphs += [random_trap_graph(rng, n) for n in range(8, 101) for _ in range(5)]
    graphs += [trapped_counter(k) for k in range(3, 15)]
    graphs += [_relabelled(counter_chain, n, rng)[0] for n in range(3, 15)]
    graphs += [_relabelled(trap_chain, n, rng)[0] for n in range(4, 15)]
    graphs += [chain_into_trap(rng, counter_chain(k), t) for k in range(5, 14) for t in range(1, 7)]
    graphs += [chain_into_trap(rng, bouncer_chain(k), t) for k in range(5, 45) for t in (1, 3, 6)]
    return graphs


def test_run_matches_the_reference_through_the_stop(monkeypatch):
    # A run that outlasts the 4n phase is stopped at the destination or at
    # the region X_d that cannot reach it; one stopped in X_d goes on to
    # Brent's search, and its first repeat is sought from the stop.  The
    # oracle keeps every state, so runs longer than 2**16 steps are left out.
    entries = _spy_on_the_search_start(monkeypatch)
    compared = through_x_d = 0
    for g in _run_cases():
        if simulate(g, budget=1 << 16).verdict is Verdict.BUDGET_EXHAUSTED:
            continue
        expected = reference_run(g)
        entries.clear()
        outcome = run(g)
        assert (outcome, list(replay(g, outcome.steps))) == expected, g
        compared += 1
        assert len(entries) <= 1, entries
        if any(entries):  # the step at which the stopped run entered X_d
            assert outcome.verdict is Verdict.NON_TERMINATING
            through_x_d += 1
    assert compared > 1700 and through_x_d >= 100, (compared, through_x_d)


def test_run_of_64_vertex_chains():
    g = counter_chain(64)
    start = time.perf_counter()
    outcome = run(g)
    assert time.perf_counter() - start < 1.0
    assert (outcome.verdict, outcome.steps, outcome.final_vertex) == (
        Verdict.TERMINATED, (1 << 64) - 2, 63,
    )
    assert flows.verify(g, g.origin, g.dest, outcome.profile).valid

    g = trap_chain(64)
    start = time.perf_counter()
    outcome = run(g)
    assert time.perf_counter() - start < 1.0
    w = outcome.cycle_witness
    assert outcome.verdict is Verdict.NON_TERMINATING
    assert (w.vertex, w.switches, w.first_step, w.second_step) == (
        62, 1 << 61, (1 << 62) - 1, (1 << 62) + 1,
    )
    assert outcome.steps == w.second_step and sum(outcome.profile) == outcome.steps


def test_budgeted_runs_of_64_vertex_chains():
    # trap_chain(64) enters its self-looped trap 62 at step 2**62 - 1 and
    # first repeats two steps on; counter_chain(64) arrives at step
    # 2**64 - 2.  Each budget here lies at or beyond the step the run
    # enters X_d or arrives, so no budget stop needs the states before it.
    def counter(k):  # each slot of the counter's vertex v fires 2**(k - 1 - v) times
        return tuple(1 << (k - 1 - v) for v in range(k) for _ in (0, 1))

    t = 1 << 62
    cases = [(trap_chain(64), t, (
        Verdict.BUDGET_EXHAUSTED, counter(61) + (1, 0, 1, 0, 0, 0), t, 62, None,
    ))]
    repeated = (
        Verdict.NON_TERMINATING, counter(61) + (1, 0, 1, 1, 0, 0), t + 1, 62,
        (62, 1 << 61, t - 1, t + 1),
    )
    cases += [(trap_chain(64), budget, repeated) for budget in (t + 1, 1 << 63, 1 << 64)]
    arrived = (Verdict.TERMINATED, counter(63) + (0, 0), (1 << 64) - 2, 63, None)
    cases += [(counter_chain(64), b, arrived) for b in ((1 << 64) - 2, (1 << 64) - 1, 1 << 64)]
    for g, budget, expected in cases:
        for call in (lambda: run(g, budget), lambda: simulate(g, budget=budget)):
            start = time.perf_counter()
            outcome = call()
            assert time.perf_counter() - start < 1.0, (g.n, budget)
            assert outcome == expected, (g, budget)


def test_simulate_matches_the_reference_around_the_stop():
    # Runs from the origin and from random states of chains that fall into
    # a closed region late, to sets of zero to three targets.  Targets
    # include the vertex ``n`` appended to each board, which no other
    # vertex reaches, and the out-of-range ``n + 1``, which stops nothing.
    # Budgets sit one step around the step T at which the run enters the
    # region X that reaches no target, and at the first repeat's two steps.
    rng = random.Random(20261106)
    boards = [chain_into_trap(rng, counter_chain(k), t) for k in range(5, 13) for t in range(1, 7)]
    boards += [chain_into_trap(rng, bouncer_chain(k), t) for k in range(5, 25, 3) for t in (1, 4)]
    boards += [_relabelled(trap_chain, n, rng)[0] for n in range(4, 15) for _ in range(2)]
    compared = around_t = late = 0
    for g in boards:
        n = g.n
        g = graph(n + 1, g.even + (g.origin,), g.odd + (g.dest,), g.origin, g.dest)
        for i in range(12):
            start, switches = (g.origin, 0) if i == 0 else (rng.randrange(n), rng.getrandbits(n))
            if i % 4 == 2:  # a counter part way up, at the origin
                start = g.origin
            targets = set(rng.sample(range(n), rng.randrange(4)))
            if i % 2 == 0:  # so that X is the closed region
                targets = {g.dest}
            if i % 3 == 1:
                targets = set(list(targets)[:2]) | {n}
            elif i % 3 == 2:
                targets = set(list(targets)[:2]) | {n + 1}
            kwargs = dict(start=start, switches=switches, targets=targets)
            full, trace = reference_run(g, **kwargs)
            reach = set().union(*(closure_reachable(g, t) for t in targets if t <= n))
            vertices = [start] + [step.head for step in trace]
            budgets = {None}
            entered = next((t for t, v in enumerate(vertices) if v not in reach), None)
            if entered is not None:
                budgets |= {entered - 1, entered, entered + 1}
                around_t += 1
                late += entered > 4 * g.n  # entered in the stopped run, after the 4n phase
            if full.cycle_witness is not None:
                budgets |= {full.steps - 1, full.steps}
            for budget in budgets - {-1}:
                outcome = simulate(g, budget=budget, **kwargs)
                got = (outcome, list(replay(g, outcome.steps, start=start, switches=switches)))
                assert got == reference_run(g, budget, **kwargs), (g, kwargs, budget)
                compared += 1
    assert compared >= 3000 and around_t >= 500 and late >= 100, (compared, around_t, late)


def test_decide_run_and_solve_agree_beyond_30_vertices(monkeypatch):
    # A run whose 4n phase already ends in X_d, on a cycle of more than
    # 10**5 states there, is still stepped to its first repeat, so run
    # is not asked for it: about one random graph in six has no vertex
    # that reaches the destination.
    entries = _spy_on_the_search_start(monkeypatch)
    rng = random.Random(20261105)
    ran = 0
    for i in range(200):
        n = rng.randrange(31, 101)
        g = (random_trap_graph if i % 2 else random_graph)(rng, n)
        terminates = decide_arrival(g)
        assert (solve_s_arrival(g).kind == TERMINATION) == terminates, g
        entries.clear()
        stepped = simulate(g, budget=10**5).verdict is Verdict.BUDGET_EXHAUSTED
        if not (stepped and entries and entries[0] <= 4 * g.n):  # the phase ended in X_d
            assert (run(g).verdict is Verdict.TERMINATED) == terminates, g
            ran += 1
    assert ran >= 180, ran


def _decision_cases():
    """Generated graphs at n = 2..59, random and trap-funnelled graphs at
    n = 8..100, chains that fall into a trap late, trapped counters, and
    trap chains turned away from the trap, into a counter of ``m``
    vertices whose last is a destination leading into the trap, and
    relabelled leaky counters, whose run leaves a component with two
    exit vertices after the ``4n`` phase."""
    rng = random.Random(20261107)
    graphs = [
        generate(GeneratorSpec(n=n, seed=seed, model=model))
        for n in range(2, 60)
        for seed in range(20)
        for model in MODELS
    ]
    graphs += [f(rng, n) for n in range(8, 101) for f in (random_graph, random_trap_graph) * 3]
    graphs += [chain_into_trap(rng, counter_chain(k), t) for k in range(5, 14) for t in (1, 3, 6)]
    graphs += [chain_into_trap(rng, bouncer_chain(k), t) for k in range(5, 45, 3) for t in (1, 6)]
    graphs += [trapped_counter(k) for k in range(3, 15)]
    for n in range(4, 17):
        top, trap, c = n - 3, n - 2, n - 1
        g = trap_chain(n)
        for m in (1, 8):
            # the trap is in reach through d too, so the run must stop at d
            # or, for m > 1, short of it, at the counter's first vertex c
            even, odd = list(g.even[:c]), list(g.odd[:c])
            even[top], odd[top] = c, trap
            even += [c] * (m - 1) + [trap]
            odd += list(range(c + 1, c + m)) + [trap]
            perm = list(range(c + m))
            rng.shuffle(perm)
            graphs.append(relabel(graph(c + m, even, odd, 0, c + m - 1), perm))
    for k in range(6, 20):
        for falls in (False, True):
            perm = list(range(k + 3))
            rng.shuffle(perm)
            graphs.append(relabel(leaky_counter(k, falls), perm))
    return graphs


def _spy_on_the_decision(monkeypatch) -> tuple[list, list]:
    """The ``(steps, vertex)`` of each ``4n`` phase, and the vertex each
    stopped run through a component ends at, as the decision calls them."""
    import switchflow.simulate as engine

    phases, stopped = [], []
    step, cross = engine._step, condensation.cross

    def phase(*args):
        out = step(*args)
        phases.append(out[:2])
        return out

    def stop(*args):
        out = cross(*args)
        stopped.append(out[1])
        return out

    monkeypatch.setattr(engine, "_step", phase)
    monkeypatch.setattr(condensation, "cross", stop)
    return phases, stopped


def test_decision_agrees_with_the_run_and_the_certificate(monkeypatch):
    # The decision ends inside the 4n phase, in X after it (the vertices
    # that cannot reach d), where X is out of reach with no step taken, or
    # after a run stopped at either region; each ending must occur, and
    # stopped runs must also end where X fell out of reach, short of d.  A
    # run left in X is stepped only to a budget, since its cycle may be long.
    phases, stopped = _spy_on_the_decision(monkeypatch)
    endings = dict.fromkeys(("phase", "in X", "out of reach", "stopped run"), 0)
    short_of_d = 0
    for g in _decision_cases():
        phases.clear()
        stopped.clear()
        terminates = decide_arrival(g)
        ((_, v),) = phases
        if v == g.dest:
            ending = "phase"
        elif stopped:
            ending = "stopped run"
            short_of_d += terminates and stopped[0] != g.dest
        else:
            ending = "out of reach" if terminates else "in X"
        endings[ending] += 1
        assert len(stopped) <= 1, g
        outcome = run(g) if terminates else simulate(g, budget=1 << 12)
        assert (outcome.verdict is Verdict.TERMINATED) == terminates, (g, ending)
        assert (solve_s_arrival(g).kind == TERMINATION) == terminates, (g, ending)
    assert min(endings.values()) >= 20 and short_of_d >= 5, (endings, short_of_d)

    # chains with nothing to fall into are decided without a stopped run
    rng = random.Random(20261108)
    for family in (counter_chain, bouncer_chain):
        for n in (*range(2, 40), 64, 100, 128, 256, 512, 1024):
            phases.clear()
            stopped.clear()
            assert decide_arrival(_relabelled(family, n, rng)[0]) is True, (family, n)
            assert len(phases) == 1 and not stopped, (family, n)


def test_decision_searches_once_where_every_vertex_reaches_d(monkeypatch):
    # Where X, the vertices that cannot reach d, is empty, the run arrives:
    # a decision whose phase ends short of d answers after the one reverse
    # search that finds X empty, with no component pass for the safe region.
    import switchflow.simulate as engine

    searches, passes = [], []
    out_of_reach, condense = engine._out_of_reach, condensation.condense
    monkeypatch.setattr(
        engine, "_out_of_reach", lambda *args: searches.append(args) or out_of_reach(*args)
    )
    monkeypatch.setattr(
        condensation, "condense", lambda *args: passes.append(args) or condense(*args)
    )
    rng = random.Random(20261022)
    chains = [counter_chain(k) for k in range(5, 14)] + [bouncer_chain(k) for k in (7, 30, 91)]
    chains += [_relabelled(counter_chain, k, rng)[0] for k in range(5, 14)]
    chains += [_relabelled(bouncer_chain, k, rng)[0] for k in (7, 30, 91)]
    for g in chains:
        searches.clear()
        assert decide_arrival(g) is True
        assert searches == [(g, (g.dest,))] and not passes, g
    # a chain that falls into a trap after the phase takes the search and the pass
    searches.clear()
    assert decide_arrival(chain_into_trap(rng, counter_chain(8), 3)) is False
    assert len(searches) == 1 and len(passes) == 1


def test_decision_of_1024_and_20001_vertex_chains():
    # runs of 2**1024 - 2 and 20000**2 steps: stepping the second to its
    # end takes more than a minute
    rng = random.Random(20261109)
    for family, n in ((counter_chain, 1024), (bouncer_chain, 20001)):
        g = _relabelled(family, n, rng)[0]
        start = time.perf_counter()
        assert decide_arrival(g) is True
        assert time.perf_counter() - start < 0.5, (family, n)


# -- the component pass, the decision's walk and stopped runs through components


def test_the_component_pass_matches_fixed_points():
    # Against reachability iterated to a fixed point, sinks having no
    # slots: two vertices share a component iff each reaches the other, a
    # component reaches a sink iff its vertices do, and it is safe iff none
    # of them reaches X, the vertices that reach no sink, by a path that
    # passes no sink.  Exits lie in lower-numbered components.
    rng = random.Random(20261201)
    graphs = [random_graph(rng, n) for n in range(2, 14) for _ in range(30)]
    graphs += [random_trap_graph(rng, n) for n in range(8, 30) for _ in range(3)]
    graphs += [generate(GeneratorSpec(n=n, seed=seed, model=model))
               for n in (12, 20, 33) for seed in range(6) for model in MODELS]
    graphs += [_shuffled(chained(k, 3), rng) for k in (3, 4, 7)]
    graphs += [_shuffled(leaky_counter(k, True), rng) for k in (6, 11)]
    closed = safe_seen = 0
    for g in graphs:
        n = g.n
        if rng.random() < 0.5:
            sinks = {g.dest}
        else:
            sinks = set(rng.sample(range(n), rng.randrange(3)))
        root = rng.randrange(n)
        succ = [() if v in sinks else (g.even[v], g.odd[v]) for v in range(n)]
        reach = [{v} for v in range(n)]
        changed = True
        while changed:
            changed = False
            for v in range(n):
                for w in succ[v]:
                    if not reach[w] <= reach[v]:
                        reach[v] |= reach[w]
                        changed = True
        x = {v for v in range(n) if not reach[v] & sinks}
        exposed = set(x)  # grows to the vertices that reach X past no sink
        while True:
            more = {v for v in range(n) if any(w in exposed for w in succ[v])} - exposed
            if not more:
                break
            exposed |= more
        component, members, exits, reaches, safe = condensation.condense(g, root, sinks)
        assert sorted(u for inside in members for u in inside) == sorted(reach[root]), g
        for v in range(n):
            c = component[v]
            if v not in reach[root]:
                assert c == -1, (g, v)
                continue
            assert set(members[c]) == {u for u in reach[v] if v in reach[u]}, (g, v)
            assert exits[c] == {w for u in members[c] for w in succ[u]} - set(members[c])
            assert all(component[w] < c for w in exits[c]), (g, v)
            assert reaches[c] == (v not in x) and safe[c] == (v not in exposed), (g, v)
            safe_seen += safe[c] and v not in sinks
        # X's closed components, where a run that enters them stays
        closed += sum(not out and not reaches[c] for c, out in enumerate(exits))
    assert closed >= 100 and safe_seen >= 100, (closed, safe_seen)


def _component_cases():
    """Chained counters (k = 3..11, two and three copies), relabelled
    chained counters, generated graphs at n = 2..39 (seeds 0..29, both
    models), chains that fall into a trap, and relabelled leaky counters."""
    rng = random.Random(20261202)
    graphs = [chained(k, c) for k in range(3, 12) for c in (2, 3)]
    graphs += [_shuffled(chained(k, 2), rng) for k in range(3, 12)]
    graphs += [
        generate(GeneratorSpec(n=n, seed=seed, model=model))
        for n in range(2, 40)
        for seed in range(30)
        for model in MODELS
    ]
    graphs += [chain_into_trap(rng, counter_chain(k), t) for k in range(5, 13) for t in (1, 3, 6)]
    graphs += [chain_into_trap(rng, bouncer_chain(k), t) for k in range(5, 30, 4) for t in (1, 4)]
    graphs += [_shuffled(leaky_counter(k, falls), rng) for k in range(6, 14) for falls in (0, 1)]
    return rng, graphs


def test_stopped_runs_through_components_match_the_replay(monkeypatch):
    # The stopped run from the origin to d or into X, and its first steps
    # up to a budget inside it, against the visited-state stepping oracle
    # and the replay's profile.  Where no single vertex cuts every cycle of
    # the board, the run goes through its components one by one: chained
    # counters batch each copy, and others step the components they cross.
    crossed = []
    cross = condensation.cross
    monkeypatch.setattr(condensation, "cross", lambda *a: crossed.append(cross(*a)) or crossed[-1])
    batched_copies = compared = 0
    rng, graphs = _component_cases()
    for g in graphs:
        stops = _stops(g)
        crossed.clear()
        expected, trace = reference_run(g, targets=stops)
        assert _stopped_run(g, g.origin, 0, stops) == expected, g
        profile = [0] * (2 * g.n)
        for step in replay(g, expected.steps):
            profile[2 * step.tail + step.parity] += 1
        assert tuple(profile) == expected.profile and trace == list(replay(g, expected.steps))
        batched_copies += sum(steps > 4 * g.n for steps, _ in crossed)
        for budget in {0, 4 * g.n, rng.randrange(expected.steps + 1), expected.steps - 1}:
            if budget >= 0:
                want = reference_run(g, budget, targets=stops)[0]
                assert _stopped_run(g, g.origin, 0, stops, budget) == want, (g, budget)
                compared += 1
        # deciding arrival is asking where this run stops
        assert decide_arrival(g) is (expected.final_vertex == g.dest), g
        assert simulate(g, targets=stops) == expected
    assert compared >= 4000 and batched_copies >= 40, (compared, batched_copies)


def test_deciding_trap_chains_runs_nothing(monkeypatch):
    # The trap chain's counter is a component left only through its top,
    # a single vertex whose first departure enters the trap: the walk down
    # the components decides it with no stopped run, at any size.
    import switchflow.simulate as engine

    runs = []

    def spy(module, name):
        original = getattr(module, name)
        return lambda *a, **k: runs.append(name) or original(*a, **k)

    for module, name in (
        (engine, "_stopped_run"), (engine, "_multirun"), (engine, "_tail"),
        (condensation, "run_down"), (condensation, "cross"),
    ):
        monkeypatch.setattr(module, name, spy(module, name))
    rng = random.Random(20261203)
    for n in (*range(4, 40), 64, 100, 128, 256, 512, 1024):
        g = _relabelled(trap_chain, n, rng)[0]
        start = time.perf_counter()
        assert decide_arrival(g) is False
        assert time.perf_counter() - start < 0.5 and not runs, (n, runs)


def test_runs_and_certificates_of_two_chained_64_bit_counters():
    # 2 * (2**64 - 2) steps; no single vertex cuts both copies' cycles, so
    # the stopped run batches one copy after the other
    rng = random.Random(20261204)
    steps = 2 * ((1 << 64) - 2)
    for g in (chained(64, 2), _shuffled(chained(64, 2), rng)):
        start = time.perf_counter()
        outcome = run(g)
        certificate = solve_s_arrival(g)
        state = run_prefix(g, steps)
        assert time.perf_counter() - start < 1.0
        assert outcome.verdict is Verdict.TERMINATED and outcome.steps == steps
        assert certificate.kind == TERMINATION and sum(certificate.flow) == steps + 1
        assert state == (g.dest, outcome.profile, 0)
        assert flows.verify(g, g.origin, g.dest, outcome.profile).valid


def test_prefixes_past_a_late_fall_into_a_trap():
    # The trap chain's run enters its self-looped trap at step 2**62 - 1.
    # A prefix past that batches the counter, takes the top's one step and
    # steps the closed trap by the tail loop: no vertex there reaches d.
    g, trap = trap_chain(64), 62
    entry = (1 << 62) - 1
    at_entry = run_prefix(g, entry)
    start = time.perf_counter()
    state = run_prefix(g, entry + 10**6 + 1)
    assert time.perf_counter() - start < 1.0
    profile = list(at_entry.profile)
    profile[2 * trap : 2 * trap + 2] = 500_001, 500_000
    assert at_entry.vertex == trap and at_entry.profile[2 * trap : 2 * trap + 2] == (0, 0)
    assert state == (trap, tuple(profile), at_entry.switches | 1 << trap)


# -- prefixes: the stopped run to the destination, with a budget of t steps


def _prefix_cases():
    """Acceptance instances, generated graphs, chains that fall into a
    trap late, random traps, relabelled chains and trapped counters:
    runs that arrive, runs that cycle inside the region that cannot
    reach the destination, and runs long enough to be batched."""
    rng = random.Random(20261107)
    graphs = rng.sample(acceptance_instances(), 400)
    graphs += [
        generate(GeneratorSpec(n=n, seed=seed, model=model))
        for n in range(2, 41)
        for seed in range(5)
        for model in MODELS
    ]
    graphs += [chain_into_trap(rng, counter_chain(k), t) for k in range(5, 13) for t in (1, 3, 6)]
    graphs += [chain_into_trap(rng, bouncer_chain(k), t) for k in range(5, 30, 4) for t in (1, 4)]
    graphs += [random_trap_graph(rng, n) for n in range(8, 101, 2) for _ in range(4)]
    graphs += [_relabelled(counter_chain, n, rng)[0] for n in range(3, 15)]
    graphs += [_relabelled(trap_chain, n, rng)[0] for n in range(4, 15)]
    graphs += [trapped_counter(k) for k in range(3, 15)]
    return rng, graphs


def test_prefixes_match_the_replay(monkeypatch):
    # Each prefix is counted from one replay of the run, at every t of
    # runs up to 200 steps and at a sample of t (around the 4n phase, the
    # end and random points) of longer ones.  A run that does not arrive
    # is compared up to its first repeat or its first 5000 steps.
    import switchflow.simulate as engine

    computed = []
    multirun = engine._multirun

    def spy(g, region, exits, v, nxt, profile, budget, guess):
        # a pass whose run ends past the budget returns None and changes
        # nothing, so it counts as computed where it returns the run's end
        # with no budget, from copies of the state
        ran = multirun(g, region, exits, v, nxt, profile, budget, guess)
        computed.append(ran is not None or multirun(
            g, region, exits, v, nxt[:], profile[:], default_budget(g.n), guess
        ) is not None)
        return ran

    monkeypatch.setattr(engine, "_multirun", spy)
    rng, graphs = _prefix_cases()
    compared = beyond = in_x = 0
    for g in graphs:
        outcome = simulate(g, budget=5000)
        end = outcome.steps
        if end <= 200:
            ts = set(range(end + 1))
        else:
            ts = {0, 1, 4 * g.n - 1, 4 * g.n, 4 * g.n + 1, end - 1, end}
            ts |= {rng.randrange(end + 1) for _ in range(40)}
        ts = {t for t in ts if 0 <= t <= end}
        v, profile = g.origin, [0] * (2 * g.n)
        expected = {0: (v, tuple(profile))}
        for step in replay(g, end):
            profile[2 * step.tail + step.parity] += 1
            v = step.head
            if step.step + 1 in ts:
                expected[step.step + 1] = (v, tuple(profile))
        for t in ts:
            state = run_prefix(g, t)
            vertex, counts = expected[t]
            parity = sum(1 << u for u in range(g.n) if (counts[2 * u] + counts[2 * u + 1]) & 1)
            assert state == (vertex, counts, parity), (g, t)
            compared += 1
        if outcome.verdict is Verdict.TERMINATED:
            for t in (end + 1, end + 7):
                message = f"^prefix beyond termination: run ended after {end} steps, {t} requested$"
                with pytest.raises(ValueError, match=message):
                    run_prefix(g, t)
                beyond += 1
        else:
            in_x += v in _out_of_reach(g, (g.dest,))
    assert len(graphs) >= 1000 and compared >= 14000, (len(graphs), compared)
    assert beyond >= 1400 and in_x >= 300, (beyond, in_x)
    assert sum(computed) >= 400


def test_prefixes_of_the_64_vertex_counter_chain():
    # the run arrives at step 2**64 - 2, so replaying it would never finish
    g = counter_chain(64)
    end = (1 << 64) - 2
    start = time.perf_counter()
    state = run_prefix(g, end)
    assert time.perf_counter() - start < 1.0
    assert state.vertex == 63 and sum(state.profile) == end
    assert state.profile == run(g).profile and state.switches == 0
    for t in (end + 1, 1 << 70):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^prefix beyond termination: run ended after {end} "):
            run_prefix(g, t)
        assert time.perf_counter() - start < 1.0, t
