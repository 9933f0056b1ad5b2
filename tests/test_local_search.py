"""The neighborhood/potential pair, bit-level codecs, the walker (checked
against the neighbor/potential iteration), and certificate extraction."""

from __future__ import annotations

import random
import re
import time
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings, strategies as st

from switchflow.local_search import (
    INVALID_STATE,
    NON_TERMINATION,
    TERMINATION,
    CertificateError,
    LocalOptInstance,
    SearchState,
    WalkError,
    WalkResult,
    certificate_doc,
    extract_certificate,
    hex_decode,
    hex_encode,
    solve_s_arrival,
    state_doc,
    walk_localopt,
    walk_trace,
)
from switchflow.flows import check_bounds, verify
from switchflow.graphs import SwitchGraph
from switchflow.reduction import AugmentedInstance, augment
from switchflow.simulate import _departures, _multirun, decide_arrival, default_budget
from switchflow.suite import prefix_states

from helpers import (
    T1,
    T2,
    T3,
    acceptance_instances,
    bouncer_chain,
    counter_chain,
    random_graph,
    reference_walk,
    reference_walk_trace,
    relabel,
    trap_chain,
)

INST1 = LocalOptInstance(augment(T1))
INST3 = LocalOptInstance(augment(T3))

T1_SOLUTION = SearchState(1, (1, 0, 0, 0, 1, 0, 0, 0))


@st.composite
def t1_states(draw):
    vertex = draw(st.integers(0, INST1.m - 1))
    flow = draw(
        st.lists(
            st.integers(0, INST1.max_entry),
            min_size=2 * INST1.m,
            max_size=2 * INST1.m,
        )
    )
    return SearchState(vertex, tuple(flow))


def test_instance_geometry():
    assert (INST1.m, INST1.max_entry) == (4, 16)
    assert (INST1.vertex_bits, INST1.field_bits, INST1.total_bits) == (2, 5, 42)
    assert INST1.reset == SearchState(2, (0,) * 8)
    assert INST1.default_budget() == 2 * 4 * 16 + 2


def test_neighbor_of_reset_takes_the_first_step():
    assert INST1.neighbor(INST1.reset) == SearchState(0, (0, 0, 0, 0, 1, 0, 0, 0))


def test_neighbor_of_a_terminal_state_resets():
    assert INST1.neighbor(T1_SOLUTION) == INST1.reset


def test_neighbor_of_invalid_flows_resets():
    assert INST1.neighbor(SearchState(0, (7, 0, 0, 0, 0, 0, 0, 0))) == INST1.reset
    assert INST1.neighbor(SearchState(9, (0,) * 8)) == INST1.reset
    assert INST1.neighbor(INVALID_STATE) == INST1.reset


def test_potential_values():
    assert INST1.potential(INST1.reset) == 0
    assert INST1.potential(INST1.neighbor(INST1.reset)) == 1
    assert INST1.potential(T1_SOLUTION) == 2
    assert INST1.potential(tuple(T1_SOLUTION)) == 2  # a plain pair is a state too
    assert INST1.potential(SearchState(0, (7, 0, 0, 0, 0, 0, 0, 0))) == -1
    assert INST1.potential(INVALID_STATE) == -1


def test_local_optimum_test():
    assert INST1.is_local_optimum(T1_SOLUTION)
    assert not INST1.is_local_optimum(INST1.reset)
    assert not INST1.is_local_optimum(INVALID_STATE)


def test_ascent_continues_through_saturated_self_loops():
    # Entries at the cap on a non-departing slot never block the step.
    state = SearchState(2, (0, 0, 16, 16, 0, 0, 0, 0))
    assert INST1.potential(state) == 32
    nxt = INST1.neighbor(state)
    assert nxt == SearchState(0, (0, 0, 16, 16, 1, 0, 0, 0))
    assert INST1.potential(nxt) == 33


def test_encode_layout():
    assert INST1.encode(INST1.reset) == "10" + "0" * 40


def test_encode_rejects_out_of_domain_states():
    with pytest.raises(ValueError, match="encodable domain"):
        INST1.encode(INVALID_STATE)


@pytest.mark.parametrize(
    "state, twin",
    [
        # half units through the fresh origin's two slots
        (SearchState(0, (0, 0, 0, 0, 0.5, 0.5, 0, 0)), SearchState(0, (0, 0, 0, 0, 1, 0, 0, 0))),
        (SearchState(0, (0, 0, 0, 0, None, 0, 0, 0)), SearchState(0, (0, 0, 0, 0, 1, 0, 0, 0))),
        (SearchState(0, (0, 0, 0, 0, "1", 0, 0, 0)), SearchState(0, (0, 0, 0, 0, 1, 0, 0, 0))),
        (SearchState(0, (0, 0, 0, 0, True, 0, 0, 0)), SearchState(0, (0, 0, 0, 0, 1, 0, 0, 0))),
        (SearchState(2.0, (0,) * 8), INST1.reset),
        (SearchState(True, T1_SOLUTION.flow), T1_SOLUTION),
    ],
)
def test_a_vertex_or_entry_that_is_no_int_lies_outside_the_domain(state, twin):
    # the same state with ints in place is valid, and a bool is no int here
    assert INST1.potential(twin) >= 0
    assert INST1.potential(state) == -1
    assert INST1.neighbor(state) == INST1.reset
    assert not INST1.is_local_optimum(state)
    with pytest.raises(ValueError, match="encodable domain"):
        INST1.encode(state)


@pytest.mark.parametrize(
    "state", [SearchState(0, None), SearchState(0, 5), (0,), (0, (0,) * 8, 0), 0, None]
)
def test_a_state_of_another_shape_lies_outside_the_domain(state):
    # a state that does not unpack into two fields, or whose flow has no
    # length, scores like an invalid flow instead of raising
    assert INST1.potential(state) == -1
    assert INST1.neighbor(state) == INST1.reset
    assert not INST1.is_local_optimum(state)
    with pytest.raises(ValueError, match="encodable domain"):
        INST1.encode(state)


@given(t1_states())
def test_every_reader_takes_a_plain_pair_as_a_state(state):
    # potential and neighbor score a plain (vertex, flow) pair; the readers
    # of a state (codec, documents, traces, certificates) take it too
    pair = tuple(state)
    assert INST1.encode(pair) == INST1.encode(state)
    assert hex_encode(INST1, pair) == hex_encode(INST1, state)
    assert state_doc(INST1, pair) == state_doc(INST1, state)
    assert list(walk_trace(INST1, pair, 3)) == list(walk_trace(INST1, state, 3))
    assert extract_certificate(INST1, tuple(T1_SOLUTION)) == extract_certificate(
        INST1, T1_SOLUTION
    )
    if state.vertex not in INST1.aug.terminals:
        with pytest.raises(CertificateError, match="is not a terminal"):
            extract_certificate(INST1, pair)


@given(t1_states())
def test_codec_round_trip(state):
    assert INST1.decode(INST1.encode(state)) == state


def test_decode_rejects_wrong_width_or_alphabet():
    with pytest.raises(ValueError, match="width 42"):
        INST1.decode("10")
    with pytest.raises(ValueError, match="width 42"):
        INST1.decode("2" * 42)


def test_malformed_bit_strings_decode_to_the_invalid_state():
    # Out-of-range vertex index.
    assert INST3.decode("1" * INST3.total_bits) == INVALID_STATE
    assert INST3.potential_bits("1" * INST3.total_bits) == 0
    # Field value beyond the entry cap.
    bits = "00" + "10001" + "0" * 35
    assert INST1.decode(bits) == INVALID_STATE


def test_bit_level_functions_match_the_state_level():
    bits = INST1.encode(INST1.reset)
    assert INST1.neighbor_bits(bits) == INST1.encode(INST1.neighbor(INST1.reset))
    assert INST1.potential_bits(bits) == INST1.potential(INST1.reset) + 1


def test_hex_round_trip():
    assert hex_encode(INST1, INST1.reset) == "20000000000"
    assert hex_decode(INST1, "20000000000") == INST1.reset
    assert hex_decode(INST1, hex_encode(INST1, T1_SOLUTION)) == T1_SOLUTION


@given(t1_states())
def test_hex_round_trip_property(state):
    assert hex_decode(INST1, hex_encode(INST1, state)) == state


def test_hex_decode_rejects_malformed_input():
    with pytest.raises(ValueError, match="11 hex digits"):
        hex_decode(INST1, "20")
    with pytest.raises(ValueError):
        hex_decode(INST1, "zzzzzzzzzzz")
    with pytest.raises(ValueError, match="exceeds"):
        hex_decode(INST1, "f" * 11)
    # int(text, 16) alone would accept or misreport each of these
    for text in ("0x000000000", "0_000000000", " 000000000 ", "+0000000000", "-0000000001"):
        with pytest.raises(ValueError, match="digits 0-9, a-f and A-F"):
            hex_decode(INST1, text)


def test_walk_reaches_the_destination_certificate():
    assert walk_localopt(INST1) == WalkResult(T1_SOLUTION, 2)


def test_walk_reaches_the_sink_certificate():
    solution, steps = walk_localopt(INST3)
    assert solution == SearchState(4, (1, 0, 0, 0, 0, 0, 1, 0, 0, 0))
    assert steps == 2


def test_walk_from_an_invalid_state_resets_first():
    start = SearchState(0, (7, 0, 0, 0, 0, 0, 0, 0))
    solution, steps = walk_localopt(INST1, start)
    assert solution == T1_SOLUTION
    assert steps == 3


def test_walk_from_a_local_optimum_takes_no_steps():
    assert walk_localopt(INST1, T1_SOLUTION) == WalkResult(T1_SOLUTION, 0)


def test_walk_budget_exhaustion_is_an_error():
    with pytest.raises(WalkError, match="no local optimum within 1 steps"):
        walk_localopt(INST1, budget=1)
    assert walk_localopt(INST1, budget=2).steps == 2


def test_walk_error_names_the_exhausted_budget():
    with pytest.raises(WalkError, match="the given budget ran out"):
        walk_localopt(INST1, budget=0)
    with pytest.raises(WalkError, match="the given budget ran out"):
        walk_localopt(INST1, INVALID_STATE, budget=0)
    assert walk_localopt(INST1, T1_SOLUTION, budget=0) == WalkResult(T1_SOLUTION, 0)


def test_walk_rejects_a_budget_that_is_no_integer():
    # an int, never a bool, as graphs.validate types its fields; budget=True
    # ran one step, and a float failed inside the stopped run
    for budget in (2.5, 2.0, True, False, "2"):
        message = f"^budget must be an integer, got {re.escape(repr(budget))}$"
        for start in (None, T1_SOLUTION):
            with pytest.raises(ValueError, match=message):
                walk_localopt(INST1, start, budget)


def test_anchored_walk_matches_the_plain_walk():
    anchored = walk_localopt(INST1, SearchState(2, (0,) * 8))
    assert anchored == walk_localopt(INST1)


def test_anchored_walk_at_a_local_optimum_reports_zero():
    sink = SearchState(4, (1, 0, 0, 0, 0, 0, 1, 0, 0, 0))
    assert walk_localopt(INST3, sink) == WalkResult(sink, 0)


def test_anchored_walk_from_an_invalid_state():
    anchored = walk_localopt(INST1, INVALID_STATE)
    assert anchored == WalkResult(T1_SOLUTION, 3)


def test_certificate_kinds():
    cert = extract_certificate(INST1, walk_localopt(INST1).solution)
    assert cert.kind == TERMINATION
    assert (cert.origin, cert.dest) == (2, 1)
    assert cert.flow == T1_SOLUTION.flow

    cert = extract_certificate(INST3, walk_localopt(INST3).solution)
    assert cert.kind == NON_TERMINATION
    assert cert.dest == 4


def test_interior_states_are_not_certificates():
    with pytest.raises(CertificateError, match="not a terminal"):
        extract_certificate(INST1, SearchState(0, (0, 0, 0, 0, 1, 0, 0, 0)))
    with pytest.raises(CertificateError, match="fails verification"):
        extract_certificate(INST1, SearchState(1, (0,) * 8))


def test_solver_end_to_end():
    assert solve_s_arrival(T1).kind == TERMINATION
    assert solve_s_arrival(T3).kind == NON_TERMINATION
    cert = solve_s_arrival(T2)
    assert cert.kind == TERMINATION
    assert sum(cert.flow) == 3


def test_solver_rejects_invalid_graphs():
    from switchflow.graphs import graph

    with pytest.raises(ValueError, match="invalid switch graph"):
        solve_s_arrival(graph(2, [1, 1], [1, 1], 0, 0))


def test_certificate_doc_shape():
    doc = certificate_doc(extract_certificate(INST1, T1_SOLUTION))
    assert doc == {
        "origin": 2,
        "dest": 1,
        "counts": [1, 0, 0, 0, 1, 0, 0, 0],
        "kind": "termination",
    }


def test_state_doc_shape():
    assert state_doc(INST1, INST1.reset) == {
        "vertex": 2,
        "counts": [0] * 8,
        "potential": 0,
    }


@given(t1_states())
@settings(deadline=None)
def test_local_optima_are_exactly_valid_terminal_states(state):
    expected = state.vertex in (1, 3) and INST1.potential(state) >= 0
    assert INST1.is_local_optimum(state) == expected


def test_walk_replays_the_simulation():
    rng = random.Random(17)
    for _ in range(80):
        g = random_graph(rng, rng.randrange(2, 8))
        aug = augment(g)
        inst = LocalOptInstance(aug)
        states = prefix_states(aug.h, aug.terminals)
        solution, steps = walk_localopt(inst)
        assert steps == len(states) - 1
        assert solution.vertex == states[-1].vertex
        assert solution.flow == states[-1].profile
        cert = extract_certificate(inst, solution)
        expected = TERMINATION if decide_arrival(g) else NON_TERMINATION
        assert cert.kind == expected


def test_concurrent_walkers_share_one_instance():
    with ThreadPoolExecutor(max_workers=4) as pool:
        results = list(pool.map(lambda _: walk_localopt(INST1), range(8)))
    assert all(r == WalkResult(T1_SOLUTION, 2) for r in results)


# -- differential test against the neighbor/potential iteration ----------


def _trap_instance():
    # A hand-built board with a non-terminal vertex whose two slots loop
    # back to itself (augment would rewire it to the fresh sink): fresh
    # origin 2 feeds vertex 1, which circles until its next slot would
    # pass the entry cap.  Vertex 0 is the destination, 3 the fresh sink.
    h = SwitchGraph(n=4, even=(0, 1, 1, 3), odd=(0, 1, 1, 3), origin=2, dest=0)
    aug = AugmentedInstance(h=h, o_bar=2, d_bar=3, x_d=frozenset(), source_dest=0)
    return LocalOptInstance(aug)


def _starts(inst, rng):
    """Invalid, out-of-domain, terminal and valid starts, including valid
    flows with an entry at the cap."""
    m, cap = inst.m, inst.max_entry
    path = [inst.reset]
    while not inst.is_local_optimum(path[-1]):
        path.append(inst.neighbor(path[-1]))
    starts = [
        INVALID_STATE,
        SearchState(0, (0,) * (2 * m - 1)),
        SearchState(m, (0,) * (2 * m)),
        SearchState(0, (-1,) + (0,) * (2 * m - 1)),
        SearchState(inst.aug.source_dest, (0,) * (2 * m)),
    ]
    starts += path
    for _ in range(4):
        starts.append(
            SearchState(rng.randrange(m), tuple(rng.randrange(cap + 2) for _ in range(2 * m)))
        )
    for state in (path[0], path[len(path) // 2], path[-1]):
        for terminal in inst.aug.terminals:
            for loops in ((cap, cap), (cap, cap - 1)):
                flow = list(state.flow)
                flow[2 * terminal : 2 * terminal + 2] = loops
                starts.append(SearchState(state.vertex, tuple(flow)))
        flow = list(state.flow)
        flow[rng.randrange(2 * m)] = cap
        starts.append(SearchState(state.vertex, tuple(flow)))
    return starts


def _assert_traces_agree(inst, start, steps):
    start = inst.reset if start is None else start
    assert list(walk_trace(inst, start, steps)) == reference_walk_trace(inst, start, steps)


def _assert_walks_agree(inst, start):
    expected = reference_walk(inst, start)
    assert walk_localopt(inst, start) == expected, start
    steps = expected[1]
    _assert_traces_agree(inst, start, steps)
    assert walk_localopt(inst, start, budget=steps) == expected, start
    if steps:
        with pytest.raises(WalkError):
            reference_walk(inst, start, steps - 1)
        with pytest.raises(WalkError):
            walk_localopt(inst, start, steps - 1)
    # as simulate, run_prefix and replay reject a negative count
    with pytest.raises(ValueError, match="^budget must be nonnegative, got -1$"):
        walk_localopt(inst, start, -1)
    return expected


def test_walk_agrees_with_the_reference_on_the_acceptance_instances():
    for g in acceptance_instances():
        inst = LocalOptInstance(augment(g))
        expected = reference_walk(inst)
        assert walk_localopt(inst) == expected, g
        _assert_traces_agree(inst, None, expected[1])


def test_walk_agrees_with_the_reference_on_counter_chains():
    for n in range(2, 12):
        inst = LocalOptInstance(augment(counter_chain(n)))
        run_length = len(prefix_states(inst.h, inst.aug.terminals)) - 1
        assert _assert_walks_agree(inst, None)[1] == run_length, n


def test_walk_agrees_with_the_reference_from_arbitrary_starts():
    rng = random.Random(23)
    instances = [_trap_instance(), INST1, INST3]
    instances += [
        LocalOptInstance(augment(random_graph(rng, rng.randrange(2, 7))))
        for _ in range(30)
    ]
    for inst in instances:
        for start in _starts(inst, rng):
            _assert_walks_agree(inst, start)


def test_walk_stops_where_the_next_entry_would_pass_the_cap():
    inst = _trap_instance()
    solution, steps = walk_localopt(inst)
    assert solution == SearchState(1, (0, 0, 16, 16, 1, 0, 0, 0))
    assert steps == 33
    assert inst.is_local_optimum(solution)


# -- walks that outlast the short phase: the stopped run ------------------


def _long_walk_boards():
    rng = random.Random(29)
    graphs = []
    for family, sizes in ((counter_chain, range(5, 11)), (trap_chain, range(5, 12))):
        for n in sizes:
            perm = list(range(n))
            rng.shuffle(perm)
            graphs.append(relabel(family(n), perm))
    graphs += [bouncer_chain(n) for n in range(5, 13)]
    graphs += [random_graph(rng, rng.randrange(8, 16)) for _ in range(20)]
    return graphs


def test_long_walks_agree_with_the_reference(monkeypatch):
    # from the reset state and from valid states along the walk, whose
    # switches are preset mid-run, with and without binding budgets
    import switchflow.simulate as engine

    batched = []
    multirun = engine._multirun
    monkeypatch.setattr(
        engine, "_multirun", lambda *a, **k: batched.append(multirun(*a, **k)) or batched[-1]
    )
    rng = random.Random(31)
    for g in _long_walk_boards():
        inst = LocalOptInstance(augment(g))
        solution, _ = _assert_walks_agree(inst, None)
        assert solve_s_arrival(g) == extract_certificate(inst, solution), g
        path = prefix_states(inst.h, inst.aug.terminals)
        for t in sorted(rng.sample(range(len(path)), min(3, len(path)))):
            state = SearchState(path[t].vertex, path[t].profile)
            _assert_walks_agree(inst, state)
            flow = list(state.flow)
            flow[rng.randrange(len(flow))] = inst.max_entry
            _assert_walks_agree(inst, SearchState(state.vertex, tuple(flow)))
    assert sum(outcome is not None for outcome in batched) >= 50


def test_a_walk_stops_at_the_cap_on_a_cycle_without_terminals():
    # fresh origin 4 feeds vertex 1, and vertices 1, 2 and 3 circle without
    # a path to either terminal, so the walk ends where a slot would pass
    # the cap; vertex 1 cuts the cycle, but no departure count of it lets
    # a token out, so the batched pass gives up and the run is stepped
    h = SwitchGraph(n=6, even=(0, 2, 3, 1, 1, 5), odd=(0, 3, 1, 1, 1, 5), origin=4, dest=0)
    aug = AugmentedInstance(h=h, o_bar=4, d_bar=5, x_d=frozenset(), source_dest=0)
    inst = LocalOptInstance(aug)
    stops = inst.aug.terminals
    nxt, profile = _departures(h.n, 0), [0] * (2 * h.n)
    region, budget = set(range(h.n)) - stops, default_budget(h.n)
    assert _multirun(h, region, stops, h.origin, nxt, profile, budget, h.origin) is None
    assert nxt == _departures(h.n, 0) and not any(profile)
    solution, steps = _assert_walks_agree(inst, None)
    assert (solution.vertex, steps, max(solution.flow)) == (1, 289, inst.max_entry)


def test_certificates_of_64_vertex_chains():
    # 2**64 - 1 and 2**62 + 1 steps: the walk is the batched stopped run
    for g, kind, size in (
        (counter_chain(64), TERMINATION, (1 << 64) - 1),
        (trap_chain(64), NON_TERMINATION, (1 << 62) + 1),
    ):
        start = time.perf_counter()
        cert = solve_s_arrival(g)
        assert time.perf_counter() - start < 1.0
        assert (cert.kind, sum(cert.flow)) == (kind, size)
        aug = augment(g)
        assert verify(aug.h, cert.origin, cert.dest, cert.flow).valid
        assert check_bounds(aug, cert.flow, cert.dest).ok
