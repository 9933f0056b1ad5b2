"""Acceptance gate: eight end-to-end checks over one fixed shared suite.

The suite mixes 2500 seeded random instances (both generator models,
n <= 10), the three canonical graphs, and two deep deterministic
families whose runs actually approach the per-slot ceilings.  Every
check is zero-tolerance: one counterexample fails the run, and the
assertion carries the serialized instance so it reproduces in
isolation.  Each check also prints one ``[criterion N]`` line in the
terminal summary (see conftest).
"""

from __future__ import annotations

import functools
import itertools
import random
import time

from switchflow.cli import main as cli_main
from switchflow.flows import check_bounds, complete, serialize_flow, verify
from switchflow.graphs import SwitchGraph, serialize
from switchflow.local_search import (
    INVALID_STATE,
    NON_TERMINATION,
    TERMINATION,
    LocalOptInstance,
    SearchState,
    solve_s_arrival,
    walk_localopt,
)
from switchflow.reduction import AugmentedInstance, augment, check_duality
from switchflow.simulate import Verdict, decide_arrival, run, run_prefix
from switchflow.suite import prefix_states

from conftest import record_criterion
from helpers import (
    ACCEPTANCE_SEED,
    acceptance_instances,
    all_two_vertex_graphs,
    relaxed_distances,
)

INSTANCES = acceptance_instances()


def criterion(number):
    """Record the verdict for the terminal summary, then assert it."""

    def wrap(fn):
        @functools.wraps(fn)
        def inner(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException as e:
                record_criterion(number, False, f"{type(e).__name__}: {e}")
                raise
            record_criterion(
                number, True, f"{detail} [{time.perf_counter() - start:.1f}s]"
            )

        return inner

    return wrap


@criterion(1)
def test_criterion_1_termination_duality():
    start = time.perf_counter()
    assert len(INSTANCES) >= 500
    for g in INSTANCES:
        assert g.n <= 10
        report = check_duality(g)
        assert report.ok, serialize(g)
    assert time.perf_counter() - start < 60.0
    return (
        "exactly one augmented run terminates, matching the source verdict, "
        f"on {len(INSTANCES)} instances"
    )


@criterion(2)
def test_criterion_2_profiles_are_flows():
    checks = 0
    rng = random.Random(ACCEPTANCE_SEED + 2)
    for i, g in enumerate(INSTANCES):
        aug = augment(g)
        h = aug.h
        for t, state in enumerate(prefix_states(h, aug.terminals)):
            assert verify(h, aug.o_bar, state.vertex, state.profile).valid, (
                serialize(g),
                t,
            )
            checks += 1
        outcome = run(g)
        if outcome.verdict is Verdict.TERMINATED:
            assert verify(g, g.origin, g.dest, outcome.profile).valid, serialize(g)
            checks += 1
            if i % 25 == 0 and outcome.steps > 0:
                t = rng.randrange(outcome.steps + 1)
                state = run_prefix(g, t)
                assert verify(g, g.origin, state.vertex, state.profile).valid, (
                    serialize(g),
                    t,
                )
                checks += 1
    assert checks >= 10_000, checks
    return f"{checks} run and prefix profiles verified as switching flows"


@criterion(3)
def test_criterion_3_slot_ceilings():
    audited = 0
    rng = random.Random(ACCEPTANCE_SEED + 3)
    for g in INSTANCES:
        aug = augment(g)
        h = aug.h
        m = h.n
        states = prefix_states(h, aug.terminals)
        produced = [(states[-1].vertex, states[-1].profile)]
        cutoff = states[rng.randrange(1, len(states))]
        got = complete(aug, cutoff.vertex, cutoff.profile)
        produced.append((got.reached, got.flow))
        for reached, flow in produced:
            dist = relaxed_distances(h, reached)
            for si in range(2 * m):
                if si // 2 == reached:
                    continue
                value = flow[si]
                assert 0 <= value < (1 << m), (serialize(g), si, value)
                if si // 2 == aug.o_bar:
                    assert value <= 1, (serialize(g), si, value)
                k = dist[(h.odd if si % 2 else h.even)[si // 2]]
                if k is not None:
                    assert value <= (1 << (k + 1)) - 1, (serialize(g), si, value)
            assert check_bounds(aug, flow, reached).ok, (serialize(g), reached)
            audited += 1
    return f"per-slot ceilings hold on {audited} produced flows"


@criterion(4)
def test_criterion_4_completion_soundness():
    pairs = 0
    rng = random.Random(ACCEPTANCE_SEED + 4)
    for g in INSTANCES:
        aug = augment(g)
        states = prefix_states(aug.h, aug.terminals)
        full = states[-1]
        zeroed = {2 * t + p for t in (aug.source_dest, aug.d_bar) for p in (0, 1)}
        state = states[rng.randrange(1, len(states))]
        got = complete(aug, state.vertex, state.profile)
        assert verify(aug.h, aug.o_bar, got.reached, got.flow).valid, serialize(g)
        assert all(
            z >= x
            for si, (z, x) in enumerate(zip(got.flow, state.profile))
            if si not in zeroed
        ), serialize(g)
        assert (got.reached, got.flow) == (full.vertex, full.profile), serialize(g)
        pairs += 1
    assert pairs >= 1000, pairs
    return f"{pairs} randomized prefix completions re-verified"


@criterion(5)
def test_criterion_5_walk_equals_simulation():
    compared = 0
    for g in INSTANCES:
        aug = augment(g)
        inst = LocalOptInstance(aug)
        states = prefix_states(aug.h, aug.terminals)
        state = inst.reset
        for t, expected in enumerate(states):
            assert (state.vertex, state.flow) == (expected.vertex, expected.profile), (
                serialize(g),
                t,
            )
            compared += 1
            if t < len(states) - 1:
                nxt = inst.neighbor(state)
                assert inst.potential(nxt) == inst.potential(state) + 1, (
                    serialize(g),
                    t,
                )
                state = nxt
        solution, steps = walk_localopt(inst)
        assert solution == state and steps == len(states) - 1, serialize(g)
    return f"walks reproduced {compared} simulation states with strict ascent"


def _one_vertex_board_instance():
    # The board arising from the single one-vertex graph.  Its sole
    # vertex is its own origin and destination, which the graph record
    # itself rules out, so the augmented board is written down directly:
    # fresh origin 1 feeding vertex 0, fresh sink 2, vertex 0 a
    # self-looped destination.
    h = SwitchGraph(n=3, even=(0, 0, 2), odd=(0, 0, 2), origin=1, dest=0)
    aug = AugmentedInstance(h=h, o_bar=1, d_bar=2, x_d=frozenset(), source_dest=0)
    return LocalOptInstance(aug)


def _oracle_valid_m3(v: int, flow: tuple[int, ...]) -> bool:
    # Closed form of the flow conditions on the one-vertex board, worked
    # out by hand: parity on the three slot pairs, and conservation
    # collapses to the traffic on the fresh origin's slots.  No flow can
    # end at the fresh sink (nothing reaches it), so vertex 2 is never
    # valid.
    x0, x1, x2, x3, x4, x5 = flow
    if not (x1 <= x0 <= x1 + 1 and x3 <= x2 <= x3 + 1 and x5 <= x4 <= x5 + 1):
        return False
    if v == 0:
        return x2 + x3 == 1
    if v == 1:
        return x2 + x3 == 0
    return False


@criterion(6)
def test_criterion_6_local_optimum_characterization():
    inst = _one_vertex_board_instance()
    terminals = (0, 2)
    base = 9 ** 6
    reset = inst.reset

    # Pass 1: the library potential of every state in the structured
    # domain (3 vertices x 9 values per slot field).
    pot = [0] * (3 * base)
    for idx, flow in enumerate(itertools.product(range(9), repeat=6)):
        for v in range(3):
            pot[v * base + idx] = inst.potential(SearchState(v, flow))

    def flow_rank(flow):
        r = 0
        for e in flow:
            r = r * 9 + e
        return r

    # Pass 2: evaluate the neighbor of every state and compare the
    # resulting local-optimum verdict with the hand-derived
    # characterization.
    checked = 0
    for idx, flow in enumerate(itertools.product(range(9), repeat=6)):
        total = sum(flow)
        for v in range(3):
            state = SearchState(v, flow)
            p_state = pot[v * base + idx]
            valid = _oracle_valid_m3(v, flow)
            assert p_state == (total if valid else -1), (v, flow)
            nxt = inst.neighbor(state)
            if valid and v == 1:
                # valid non-terminal states here have both self-loop
                # slots at zero, so the step stays inside the table
                assert max(nxt.flow) <= inst.max_entry, (v, flow)
                p_next = pot[nxt.vertex * base + flow_rank(nxt.flow)]
            else:
                assert nxt == reset, (v, flow)
                p_next = 0
            actual = p_state >= p_next
            expected = valid and v in terminals
            assert actual == expected, (v, flow)
            checked += 1

    # Tie the table shortcut back to the public predicate.
    rng = random.Random(ACCEPTANCE_SEED + 6)
    for _ in range(2000):
        v = rng.randrange(3)
        flow = tuple(rng.randrange(9) for _ in range(6))
        assert inst.is_local_optimum(SearchState(v, flow)) == (
            _oracle_valid_m3(v, flow) and v in terminals
        ), (v, flow)

    # Four-vertex boards: a fixed sample of raw fixed-width encodings
    # across every two-vertex source graph.
    sampled = 0
    for gi, g in enumerate(all_two_vertex_graphs()):
        aug = augment(g)
        inst4 = LocalOptInstance(aug)
        assert inst4.total_bits == 42
        board_terminals = (aug.source_dest, aug.d_bar)
        rng = random.Random(ACCEPTANCE_SEED * 100 + gi)
        for _ in range(625):
            bits = format(rng.getrandbits(42), "042b")
            state = inst4.decode(bits)
            actual = inst4.is_local_optimum(state)
            if state == INVALID_STATE:
                expected = False
            else:
                expected = (
                    state.vertex in board_terminals
                    and verify(inst4.h, aug.o_bar, state.vertex, state.flow).valid
                )
            assert actual == expected, (serialize(g), bits)
            sampled += 1
    assert sampled == 10_000
    return (
        f"local optima are exactly the valid terminal states on {checked} "
        f"exhaustive states and {sampled} sampled encodings"
    )


@criterion(7)
def test_criterion_7_end_to_end_certificates(tmp_path):
    graph_path = tmp_path / "board.json"
    flow_path = tmp_path / "certificate.json"
    report_path = tmp_path / "report.json"
    agreements = 0
    for g in INSTANCES:
        cert = solve_s_arrival(g)
        expected = TERMINATION if decide_arrival(g) else NON_TERMINATION
        assert cert.kind == expected, serialize(g)
        graph_path.write_text(serialize(augment(g).h))
        flow_path.write_text(serialize_flow(cert.origin, cert.dest, cert.flow))
        code = cli_main(
            [
                "verify-flow",
                "--input",
                str(graph_path),
                "--flow",
                str(flow_path),
                "--output",
                str(report_path),
            ]
        )
        assert code == 0, serialize(g)
        agreements += 1
    return (
        f"certificate kinds match the decision verdict on {agreements} instances, "
        "all re-verified through the command line"
    )


@criterion(8)
def test_criterion_8_anchored_walk_consistency():
    for g in INSTANCES:
        aug = augment(g)
        inst = LocalOptInstance(aug)
        plain = walk_localopt(inst)
        # Anchor at an explicitly built reset state, then midway along
        # the run: both must land on the plain walk's solution, with the
        # step count measuring the remaining trace.
        anchored = walk_localopt(inst, SearchState(aug.o_bar, (0,) * (2 * aug.h.n)))
        assert anchored == plain, serialize(g)
        states = prefix_states(aug.h, aug.terminals)
        trace_length = len(states) - 1
        assert anchored.steps == trace_length, serialize(g)
        mid = states[trace_length // 2]
        midway = walk_localopt(inst, SearchState(mid.vertex, mid.profile))
        assert midway == (plain.solution, trace_length - trace_length // 2), serialize(g)
    return (
        "walks anchored at the reset state and midway along the run return "
        f"the plain walk's solution and the remaining trace length on "
        f"{len(INSTANCES)} instances"
    )
