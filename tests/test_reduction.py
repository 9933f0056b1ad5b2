"""Board augmentation and the termination duality it creates."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from switchflow.graphs import graph, require_valid, serialize, validate
from switchflow.reduction import AugmentedInstance, augment, check_duality, sidecar_doc
from switchflow.simulate import Verdict, decide_arrival, simulate

from helpers import (
    T1,
    T2,
    T3,
    acceptance_instances,
    closure_reachable,
    counter_chain,
    random_graph,
    random_trap_graph,
    trap_chain,
    trapped_counter,
)


@st.composite
def switch_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    even = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    odd = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return graph(n, even, odd, 0, n - 1)


def test_augmenting_the_direct_hop():
    aug = augment(T1)
    assert aug.o_bar == 2 and aug.d_bar == 3
    assert aug.x_d == frozenset()
    assert aug.source_dest == 1
    assert aug.h.n == 4
    assert aug.h.even == (1, 1, 0, 3)
    assert aug.h.odd == (1, 1, 0, 3)
    assert aug.h.origin == aug.o_bar


def test_augmenting_the_closed_pair():
    aug = augment(T3)
    assert aug.o_bar == 3 and aug.d_bar == 4
    assert aug.x_d == frozenset({0, 1})
    assert aug.h.n == 5
    assert aug.h.even == (4, 4, 2, 0, 4)
    assert aug.h.odd == (4, 4, 2, 0, 4)


def test_augmented_board_is_always_valid():
    rng = random.Random(3)
    for _ in range(100):
        aug = augment(random_graph(rng, rng.randrange(2, 9)))
        assert validate(aug.h) == []
        assert validate(aug.to_dest()) == []
        assert validate(aug.to_dbar()) == []


def test_augment_rejects_invalid_input():
    with pytest.raises(ValueError, match="invalid switch graph"):
        augment(graph(2, [1, 1], [1, 1], 1, 1))


def test_augment_is_deterministic():
    assert augment(T3) == augment(T3)


def test_terminals_are_dest_and_fresh_sink():
    aug = augment(T3)
    assert aug.terminals == frozenset({2, 4})
    assert aug.to_dest().dest == 2
    assert aug.to_dbar().dest == 4


def test_labels_gain_the_two_fresh_names():
    g = graph(2, [1, 1], [1, 1], 0, 1, labels=["a", "b"])
    assert augment(g).h.labels == ("a", "b", "o_bar", "d_bar")


def test_sidecar_doc_is_sorted_and_complete():
    assert sidecar_doc(augment(T3)) == {"o_bar": 3, "d_bar": 4, "x_d": [0, 1]}
    assert sidecar_doc(augment(T1)) == {"o_bar": 2, "d_bar": 3, "x_d": []}


@given(switch_graphs())
@settings(deadline=None)
def test_structure_of_the_augmented_board(g):
    aug = augment(g)
    h = aug.h
    require_valid(h)
    # Fresh origin feeds the original origin and nothing feeds it back.
    assert h.even[aug.o_bar] == h.odd[aug.o_bar] == g.origin
    assert aug.o_bar not in h.heads()
    # Both terminals are self-looped sinks.
    for t in (aug.source_dest, aug.d_bar):
        assert h.even[t] == h.odd[t] == t
    # The unreachable region drains into the fresh sink, the rest of the
    # board is untouched.
    for v in range(g.n):
        if v in aug.x_d:
            assert h.even[v] == h.odd[v] == aug.d_bar
        elif v != g.dest:
            assert (h.even[v], h.odd[v]) == (g.even[v], g.odd[v])


@given(switch_graphs(max_n=6))
@settings(deadline=None)
def test_unreachable_region_matches_the_closure_oracle(g):
    aug = augment(g)
    assert aug.x_d == frozenset(range(g.n)) - closure_reachable(g, g.dest)


def _reference_augment(g):
    """The augmentation built from the closure oracle's reachable set,
    vertex by vertex through the case table."""
    n, x = g.n, frozenset(range(g.n)) - closure_reachable(g, g.dest)
    even, odd = [], []
    for v in range(n):
        w = g.dest if v == g.dest else n + 1 if v in x else None
        even.append(g.even[v] if w is None else w)
        odd.append(g.odd[v] if w is None else w)
    labels = None if g.labels is None else g.labels + ("o_bar", "d_bar")
    h = graph(n + 2, even + [g.origin, n + 1], odd + [g.origin, n + 1], n, g.dest, labels)
    return AugmentedInstance(h, n, n + 1, x, g.dest)


def test_augment_matches_the_closure_reference():
    rng = random.Random(20261020)
    boards = acceptance_instances()
    # the origin in the unreachable region, with and without labels
    for _ in range(300):
        g = random_trap_graph(rng, rng.randrange(6, 14))
        x = sorted(frozenset(range(g.n)) - closure_reachable(g, g.dest))
        if x:
            g = g.with_route(origin=rng.choice(x))
            boards += [g, g._replace(labels=tuple(f"v{v}" for v in range(g.n)))]
    assert len(boards) > 2700
    for g in boards:
        aug, want = augment(g), _reference_augment(g)
        assert aug == want, g
        # so the command line's board and sidecar stay byte for byte
        assert serialize(aug.h) == serialize(want.h)
        assert sidecar_doc(aug) == sidecar_doc(want)


def test_the_reverse_search_lists_no_predecessor_slots(monkeypatch):
    # the one reverse search lists the predecessor vertices itself, and
    # augment, decide_arrival and simulate all read X through it
    from switchflow import graphs

    searches = []
    distances_to = graphs.distances_to
    monkeypatch.setattr(
        graphs, "distances_to", lambda *args: searches.append(args) or distances_to(*args)
    )
    # each run outlives its 4n phase, so each entry point searches for X;
    # the trapped runs end in X, the chains' pass their feedback vertex
    for g in (trapped_counter(12), trap_chain(12), counter_chain(12), T3):
        for entry in (augment, decide_arrival, simulate):
            searches.clear()
            entry(g)
            assert len(searches) == 1, (entry.__name__, g)


def test_duality_on_the_canonical_graphs():
    rep = check_duality(T1)
    assert (rep.g_terminates, rep.to_dest_terminates, rep.to_dbar_terminates) == (
        True,
        True,
        False,
    )
    assert rep.ok

    rep = check_duality(T3)
    assert (rep.g_terminates, rep.to_dest_terminates, rep.to_dbar_terminates) == (
        False,
        False,
        True,
    )
    assert rep.ok

    assert check_duality(T2).ok


def test_duality_on_a_trapped_counter():
    report = check_duality(trapped_counter(40))
    assert report.ok and not report.g_terminates


def test_duality_on_seeded_random_graphs():
    rng = random.Random(11)
    for _ in range(150):
        g = random_graph(rng, rng.randrange(2, 9))
        rep = check_duality(g)
        assert rep.ok
        assert rep.g_terminates == decide_arrival(g)


@given(switch_graphs())
@settings(deadline=None)
def test_exactly_one_augmented_run_terminates(g):
    rep = check_duality(g)
    assert rep.ok
    assert rep.to_dest_terminates != rep.to_dbar_terminates


@given(switch_graphs())
@settings(deadline=None)
def test_fresh_origin_departs_exactly_once(g):
    aug = augment(g)
    outcome = simulate(aug.h, targets=aug.terminals)
    assert outcome.verdict is Verdict.TERMINATED
    slots = outcome.profile[2 * aug.o_bar] + outcome.profile[2 * aug.o_bar + 1]
    assert slots == 1


def test_each_entry_point_validates_once(monkeypatch):
    from switchflow import graphs
    from switchflow.local_search import solve_s_arrival
    from switchflow.simulate import run

    from helpers import counter_chain

    calls = []
    real = graphs.validate
    monkeypatch.setattr(graphs, "validate", lambda g: calls.append(g) or real(g))
    bad = graph(3, [1, 2, 2], [1, 2, 2], 0, 0)
    for entry in (decide_arrival, run, augment, check_duality, solve_s_arrival):
        calls.clear()
        entry(counter_chain(9))
        assert len(calls) == 1, entry.__name__
        with pytest.raises(ValueError, match=r"^invalid switch graph: origin equals dest$"):
            entry(bad)


def _entry_points():
    from switchflow.local_search import solve_s_arrival
    from switchflow.simulate import run, run_prefix

    return {
        "decide_arrival": decide_arrival,
        "run": run,
        "run_prefix": lambda g: run_prefix(g, 3),
        "augment": augment,
        "check_duality": check_duality,
        "solve_s_arrival": solve_s_arrival,
    }


def test_checked_graphs_are_not_validated_again(monkeypatch):
    from switchflow import graphs
    from switchflow.generate import GeneratorSpec, generate

    from helpers import counter_chain

    calls = []
    real = graphs.validate
    monkeypatch.setattr(graphs, "validate", lambda g: calls.append(g) or real(g))
    text = graphs.serialize(counter_chain(9))
    producers = {
        "parse": lambda: graphs.parse(text),
        "generate": lambda: generate(GeneratorSpec(n=9, seed=4)),
        "augment": lambda: augment(graphs.parse(text)).to_dest(),
        "graph": lambda: counter_chain(9),
    }
    for producer, make in producers.items():
        for name, entry in _entry_points().items():
            g = make()
            calls.clear()
            entry(g)
            assert len(calls) == (producer == "graph"), (producer, name)


def test_hand_built_boards_stay_unchecked():
    aug = augment(T3)
    with pytest.raises(ValueError, match=r"^invalid switch graph: dest: vertex out of range"):
        decide_arrival(aug._replace(d_bar=9).to_dbar())
    with pytest.raises(ValueError, match=r"^invalid switch graph: origin equals dest$"):
        decide_arrival(aug._replace(source_dest=aug.o_bar).to_dest())
    n, even, odd, origin, dest, _ = aug.h
    bad_board = graph(n, (9,) + even[1:], odd, origin, dest)
    with pytest.raises(ValueError, match=r"^invalid switch graph: even\[0\]: successor out"):
        decide_arrival(aug._replace(h=bad_board).to_dest())
