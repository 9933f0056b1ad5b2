"""Flow verification, desperation, completion, and the slot ceilings."""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from switchflow.flows import (
    BoundViolation,
    ConservationViolation,
    ParityViolation,
    bound_report_doc,
    check_bounds,
    complete,
    desperation,
    parse_certificate,
    parse_flow,
    report_doc,
    serialize_flow,
    verify,
)
from switchflow.graphs import GraphFormatError, graph
from switchflow.reduction import augment
from switchflow.simulate import run_prefix
from switchflow.suite import prefix_states

from helpers import (
    T1,
    T2,
    T3,
    bouncer_chain,
    random_graph,
    reference_run,
    relabel,
    relaxed_distances,
)


@st.composite
def switch_graphs(draw, max_n=7):
    n = draw(st.integers(min_value=2, max_value=max_n))
    even = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    odd = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return graph(n, even, odd, 0, n - 1)


def test_run_profile_is_a_valid_flow():
    assert verify(T2, 0, 1, (1, 1, 0, 0)).valid


def test_zero_flow_cannot_source_a_unit():
    report = verify(T1, 0, 1, (0, 0, 0, 0))
    assert not report.valid
    assert ConservationViolation(0, 0, 1) in report.conservation_violations
    assert ConservationViolation(1, 0, -1) in report.conservation_violations
    assert report.parity_violations == ()


def test_degenerate_route_accepts_the_zero_flow():
    assert verify(T1, 0, 0, (0, 0, 0, 0)).valid
    assert verify(T3, 2, 2, (0, 0, 0, 0, 0, 0)).valid


def test_odd_before_even_is_a_parity_violation():
    report = verify(T1, 0, 1, (0, 1, 0, 0))
    assert report.conservation_violations == ()
    assert report.parity_violations == (ParityViolation(0, 0, 1),)


def test_even_running_two_ahead_is_a_parity_violation():
    report = verify(T1, 0, 1, (2, 0, 0, 1))
    assert ParityViolation(0, 2, 0) in report.parity_violations


def test_negative_counts_are_parity_violations():
    report = verify(T1, 0, 1, (1, -1, 0, 0))
    assert ParityViolation(0, 1, -1) in report.parity_violations


def test_verify_rejects_malformed_arguments():
    with pytest.raises(ValueError, match="entries"):
        verify(T1, 0, 1, (0, 0))
    with pytest.raises(ValueError, match="origin out of range"):
        verify(T1, 9, 1, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="dest out of range"):
        verify(T1, 0, -1, (0, 0, 0, 0))
    # an int, never a bool, as graphs.validate types a vertex
    for name, origin, dest in (("origin", 0.0, 1), ("dest", 0, 1.0), ("dest", 0, True)):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
            verify(T1, origin, dest, (1, 0, 0, 0))


@pytest.mark.parametrize(
    "counts",
    [
        # half units conserve flow on T1 and keep odd <= even <= odd + 1
        (0.5, 0.5, 0, 0),
        (Fraction(1, 2), Fraction(1, 2), 0, 0),
        # the only flow on T1, with a float in place of an int
        (1.0, 0, 0, 0),
        (1, 0.0, 0, 0),
        (1, 0, None, 0),
    ],
)
def test_verify_rejects_an_entry_that_is_no_integer(counts):
    si = next(si for si, k in enumerate(counts) if type(k) is not int)
    with pytest.raises(ValueError, match=f"^flow entry {si} must be an integer, got "):
        verify(T1, 0, 1, counts)
    assert verify(T1, 0, 1, (1, 0, 0, 0)).valid


def test_report_doc_shape():
    doc = report_doc(verify(T1, 0, 1, (0, 0, 0, 0)))
    assert doc["valid"] is False
    assert {"vertex": 0, "found": 0, "required": 1} in doc["conservation_violations"]
    assert doc["parity_violations"] == []


@given(switch_graphs())
@settings(deadline=None)
def test_terminating_profiles_verify_on_both_boards(g):
    aug = augment(g)
    states = prefix_states(aug.h, aug.terminals)
    full = states[-1]
    assert verify(aug.h, aug.o_bar, full.vertex, full.profile).valid
    from switchflow.simulate import Verdict, run

    outcome = run(g)
    if outcome.verdict is Verdict.TERMINATED:
        assert verify(g, g.origin, g.dest, outcome.profile).valid


@given(switch_graphs())
@settings(deadline=None)
def test_every_prefix_is_a_flow_to_the_current_vertex(g):
    aug = augment(g)
    for state in prefix_states(aug.h, aug.terminals):
        assert verify(aug.h, aug.o_bar, state.vertex, state.profile).valid


def test_desperation_on_the_canonical_graphs():
    assert desperation(T1, 1) == (0, 0, 0, 0)
    assert desperation(T2, 1) == (1, 0, 0, 0)
    assert desperation(T3, 2) == (None, None, None, None, 0, 0)


def test_desperation_rejects_bad_dest():
    with pytest.raises(ValueError, match="dest out of range"):
        desperation(T1, 5)
    # True read as vertex 1, and 1.0 failed inside the search
    for dest in (True, 1.0):
        with pytest.raises(ValueError, match=f"^dest must be an integer, got {dest!r}$"):
            desperation(T1, dest)


@given(switch_graphs(), st.integers(0, 6))
@settings(deadline=None)
def test_desperation_matches_the_relaxation_oracle(g, dest):
    dest %= g.n
    dist = relaxed_distances(g, dest)
    got = desperation(g, dest)
    for si in range(2 * g.n):
        assert got[si] == dist[(g.odd if si % 2 else g.even)[si // 2]]


def test_completing_the_first_prefix_reproduces_the_full_run():
    aug = augment(T1)
    state = run_prefix(aug.h, 1)
    assert state.vertex == 0
    assert state.profile == (0, 0, 0, 0, 1, 0, 0, 0)
    completion = complete(aug, state.vertex, state.profile)
    assert completion.reached == 1
    assert completion.flow == (1, 0, 0, 0, 1, 0, 0, 0)


def test_completing_a_full_flow_only_strips_self_loops():
    aug = augment(T1)
    completion = complete(aug, 1, (1, 0, 0, 0, 1, 0, 0, 0))
    assert completion == (1, (1, 0, 0, 0, 1, 0, 0, 0))
    # Self-loop units at a terminal cancel in both conditions and are
    # dropped rather than carried.
    completion = complete(aug, 1, (1, 0, 5, 5, 1, 0, 0, 0))
    assert completion == (1, (1, 0, 0, 0, 1, 0, 0, 0))


def test_completion_from_the_unreachable_region_drains_to_the_sink():
    aug = augment(T3)
    state = run_prefix(aug.h, 1)
    assert state.vertex == 0
    completion = complete(aug, state.vertex, state.profile)
    assert completion.reached == aug.d_bar
    assert completion.flow == (1, 0, 0, 0, 0, 0, 1, 0, 0, 0)


def test_complete_rejects_flows_ending_at_the_fresh_origin():
    aug = augment(T1)
    with pytest.raises(ValueError, match="fresh origin"):
        complete(aug, aug.o_bar, (0,) * 8)


def test_complete_rejects_non_flows():
    aug = augment(T1)
    with pytest.raises(ValueError, match="not a switching flow"):
        complete(aug, 0, (7, 0, 0, 0, 1, 0, 0, 0))


def test_completion_on_random_cutoffs():
    rng = random.Random(5)
    for _ in range(120):
        g = random_graph(rng, rng.randrange(2, 8))
        aug = augment(g)
        states = prefix_states(aug.h, aug.terminals)
        full = states[-1]
        zeroed = {2 * t + p for t in (aug.source_dest, aug.d_bar) for p in (0, 1)}
        for _ in range(2):
            state = states[rng.randrange(1, len(states))]
            completion = complete(aug, state.vertex, state.profile)
            assert completion.reached == full.vertex
            assert completion.flow == full.profile
            assert verify(aug.h, aug.o_bar, completion.reached, completion.flow).valid
            assert all(
                z >= x
                for si, (z, x) in enumerate(zip(completion.flow, state.profile))
                if si not in zeroed
            )


def test_completion_with_multi_digit_switch_words():
    # augmented bouncers of 65 to 100 vertices: the completion run starts
    # from switches preset across every vertex id
    rng = random.Random(20261021)
    for n in (63, 80, 98):
        perm = list(range(n))
        rng.shuffle(perm)
        aug = augment(relabel(bouncer_chain(n), perm))
        h = aug.h
        full, _ = reference_run(h, targets=aug.terminals)
        zeroed = [0 if si // 2 in aug.terminals else c for si, c in enumerate(full.profile)]
        for t in sorted(rng.sample(range(1, full.steps), 6)):
            prefix, _ = reference_run(h, t, targets=aug.terminals)
            completion = complete(aug, prefix.final_vertex, prefix.profile)
            assert completion == (full.final_vertex, tuple(zeroed)), (n, t)


def test_bounds_accept_completed_flows():
    aug = augment(T1)
    report = check_bounds(aug, (1, 0, 0, 0, 1, 0, 0, 0), 1)
    assert report.ok
    assert report.violations == () and report.flags == ()


def test_slot_ceiling_rule():
    aug = augment(T1)
    report = check_bounds(aug, (16, 0, 0, 0, 1, 0, 0, 0), 1)
    assert BoundViolation("slot-ceiling", 0, 16, 15) in report.violations


def test_fresh_origin_rule():
    aug = augment(T1)
    report = check_bounds(aug, (0, 0, 0, 0, 2, 0, 0, 0), 1)
    assert report.violations == (BoundViolation("fresh-origin", 4, 2, 1),)


def test_drained_region_rule_toward_the_sink():
    aug = augment(T3)
    # A unit on a slot pointing at the original destination cannot occur
    # in any flow that drains to the fresh sink.
    counts = [0] * 10
    counts[4] = 1
    report = check_bounds(aug, counts, aug.d_bar)
    assert BoundViolation("drained-region", 4, 1, 0) in report.violations


def test_drained_region_rule_toward_the_dest():
    aug = augment(T3)
    counts = [0] * 10
    counts[1] = 1  # this slot heads into the fresh sink
    report = check_bounds(aug, counts, aug.source_dest)
    assert BoundViolation("drained-region", 1, 1, 0) in report.violations


def test_desperation_rule():
    aug = augment(T1)
    report = check_bounds(aug, (2, 0, 0, 0, 1, 0, 0, 0), 1)
    assert report.violations == (BoundViolation("desperation", 0, 2, 1),)


def test_reached_terminal_slots_are_flagged_not_failed():
    aug = augment(T1)
    report = check_bounds(aug, (1, 0, 16, 0, 1, 0, 0, 0), 1)
    assert report.ok
    assert any(f.rule == "slot-ceiling" and f.slot == 2 for f in report.flags)


def test_check_bounds_rejects_malformed_arguments():
    aug = augment(T1)
    with pytest.raises(ValueError, match="terminals"):
        check_bounds(aug, (0,) * 8, 0)
    with pytest.raises(ValueError, match="slots"):
        check_bounds(aug, (0,) * 4, 1)
    # True was accepted as terminal 1
    for reached in (True, 1.0):
        with pytest.raises(ValueError, match=f"^reached must be an integer, got {reached!r}$"):
            check_bounds(augment(T2), (0,) * 8, reached)


def test_bound_report_doc_shape():
    aug = augment(T1)
    doc = bound_report_doc(check_bounds(aug, (2, 0, 0, 0, 1, 0, 0, 0), 1))
    assert doc["ok"] is False
    assert doc["violations"] == [
        {"rule": "desperation", "slot": 0, "tail": 0, "parity": 0, "value": 2, "limit": 1}
    ]
    assert doc["flags"] == []


def test_bound_report_doc_rows_on_both_parities():
    aug = augment(T1)
    doc = bound_report_doc(check_bounds(aug, (2, 3, 16, 5, 2, 2, 1, 4), 1))
    assert json.dumps(doc, separators=(",", ":")) == (
        '{"ok":false,"violations":['
        '{"rule":"desperation","slot":0,"tail":0,"parity":0,"value":2,"limit":1},'
        '{"rule":"desperation","slot":1,"tail":0,"parity":1,"value":3,"limit":1},'
        '{"rule":"fresh-origin","slot":4,"tail":2,"parity":0,"value":2,"limit":1},'
        '{"rule":"fresh-origin","slot":5,"tail":2,"parity":1,"value":2,"limit":1},'
        '{"rule":"drained-region","slot":6,"tail":3,"parity":0,"value":1,"limit":0},'
        '{"rule":"drained-region","slot":7,"tail":3,"parity":1,"value":4,"limit":0}'
        '],"flags":['
        '{"rule":"slot-ceiling","slot":2,"tail":1,"parity":0,"value":16,"limit":15},'
        '{"rule":"desperation","slot":2,"tail":1,"parity":0,"value":16,"limit":1},'
        '{"rule":"desperation","slot":3,"tail":1,"parity":1,"value":5,"limit":1}'
        "]}"
    )


@given(switch_graphs())
@settings(deadline=None)
def test_full_profiles_and_completions_respect_the_bounds(g):
    aug = augment(g)
    states = prefix_states(aug.h, aug.terminals)
    full = states[-1]
    assert check_bounds(aug, full.profile, full.vertex).ok
    mid = states[len(states) // 2] if len(states) > 1 else None
    if mid is not None and mid.vertex != aug.o_bar:
        completion = complete(aug, mid.vertex, mid.profile)
        assert check_bounds(aug, completion.flow, completion.reached).ok


def test_flow_document_round_trip():
    text = serialize_flow(2, 1, (1, 0, 0, 0, 1, 0, 0, 0))
    assert text == '{"origin":2,"dest":1,"counts":[1,0,0,0,1,0,0,0]}'
    assert parse_flow(text) == (2, 1, (1, 0, 0, 0, 1, 0, 0, 0))


@given(st.integers(), st.integers(), st.lists(st.integers()))
def test_flow_document_round_trip_property(origin, dest, counts):
    assert parse_flow(serialize_flow(origin, dest, counts)) == (origin, dest, tuple(counts))


def test_flow_documents_may_name_their_kind():
    text = '{"origin":2,"dest":1,"counts":[1,0,0,0,1,0,0,0],"kind":"%s"}'
    for kind in ("termination", "non-termination"):
        assert parse_flow(text % kind) == (2, 1, (1, 0, 0, 0, 1, 0, 0, 0))
        assert parse_certificate(text % kind) == (2, 1, (1, 0, 0, 0, 1, 0, 0, 0), kind)
    assert parse_certificate(serialize_flow(2, 1, [0, 1])) == (2, 1, (0, 1), None)
    for kind in ('"Termination"', '""', "null", "1", "true", '["termination"]'):
        bad = '{"origin":0,"dest":1,"counts":[],"kind":%s}' % kind
        with pytest.raises(GraphFormatError, match=r"^\$\.kind: expected one of"):
            parse_flow(bad)


def test_parse_flow_rejects_duplicate_fields():
    with pytest.raises(GraphFormatError, match=r"^\$\.origin: duplicate field$"):
        parse_flow('{"origin":0,"origin":1,"dest":1,"counts":[]}')
    # a repeated key inside a nested object fails its own field's check
    with pytest.raises(GraphFormatError, match=r"^\$\.counts\[0\]: expected integer"):
        parse_flow('{"origin":0,"dest":1,"counts":[{"a":1,"a":2}]}')


def test_parse_flow_rejects_deeply_nested_documents():
    text = '{"origin":0,"dest":1,"counts":' + "[" * 200000 + "]" * 200000 + "}"
    with pytest.raises(GraphFormatError, match=r"^\$: nested too deeply$"):
        parse_flow(text)


def test_parse_flow_rejects_integer_literals_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = '{"origin":0,"dest":1,"counts":[' + "1" * 5000 + "]}"
    with pytest.raises(GraphFormatError, match=rf"^\$: integer over {limit} digits$"):
        parse_flow(text)


def test_parse_flow_rejects_malformed_documents():
    with pytest.raises(ValueError, match="line 1 column"):
        parse_flow("{nope")
    with pytest.raises(ValueError, match=r"\$: expected object"):
        parse_flow("[]")
    with pytest.raises(ValueError, match=r"\$\.extra: unknown field"):
        parse_flow('{"origin":0,"dest":1,"counts":[],"extra":1}')
    with pytest.raises(ValueError, match=r"\$\.counts: missing required field"):
        parse_flow('{"origin":0,"dest":1}')
    with pytest.raises(ValueError, match=r"\$\.origin: expected integer"):
        parse_flow('{"origin":"0","dest":1,"counts":[]}')
    with pytest.raises(ValueError, match=r"\$\.counts\[1\]: expected integer"):
        parse_flow('{"origin":0,"dest":1,"counts":[0,true]}')
