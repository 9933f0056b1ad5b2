"""Graph record, validation, JSON round trips, and reverse reachability."""

from __future__ import annotations

import pickle
import random
import sys

import pytest
from hypothesis import given, strategies as st

from switchflow import graphs
from switchflow.generate import GeneratorSpec, generate
from switchflow.graphs import (
    GraphFormatError,
    SwitchGraph,
    _out_of_reach,
    distances_to,
    graph,
    parse,
    require_valid,
    serialize,
    to_dot,
    validate,
)
from switchflow.reduction import augment
from switchflow.simulate import decide_arrival

from helpers import (
    T1,
    T2,
    T3,
    bouncer_chain,
    chained,
    closure_reachable,
    counter_chain,
    random_graph,
    relabel,
    trap_chain,
)


@st.composite
def switch_graphs(draw, max_n=8):
    n = draw(st.integers(min_value=2, max_value=max_n))
    even = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    odd = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return graph(n, even, odd, 0, n - 1)


def test_minimal_legal_graph_is_valid():
    assert validate(T1) == []
    assert validate(T2) == []
    assert validate(T3) == []


def test_origin_equal_dest_is_rejected():
    g = graph(2, [1, 1], [1, 1], 0, 0)
    assert any("origin equals dest" in v for v in validate(g))


def test_successor_out_of_range_is_rejected():
    g = graph(2, [5, 1], [1, 1], 0, 1)
    assert any("successor out of range" in v for v in validate(g))


def test_wrong_successor_count_is_rejected():
    g = graph(3, [0, 1], [0, 1, 2], 0, 2)
    assert any("bad vertex count" in v for v in validate(g))


def test_every_bad_successor_is_named_in_order():
    class Vertex(int):
        pass

    assert validate(graph(2, [Vertex(1), 1], [1, Vertex(0)], 0, 1)) == []
    assert validate(graph(3, [0, True, 2], [1.0, -1, 5], 0, 2)) == [
        "even[1]: successor out of range (True not in 0..2)",
        "odd[0]: successor out of range (1.0 not in 0..2)",
        "odd[1]: successor out of range (-1 not in 0..2)",
        "odd[2]: successor out of range (5 not in 0..2)",
    ]
    assert validate(graph(3, [0, 1], [0, "1", 2, 0], 0, 2)) == [
        "even: bad vertex count, expected 3 successors, found 2",
        "odd: bad vertex count, expected 3 successors, found 4",
    ]
    assert validate(graph(3, [0, 1, 2, 0], [3, 0, 1], 0, 2)) == [
        "even: bad vertex count, expected 3 successors, found 4",
        "odd[0]: successor out of range (3 not in 0..2)",
    ]


@st.composite
def successor_maps(draw):
    n = draw(st.integers(1, 12))
    entry = st.integers(-2, n + 1)
    even = draw(st.lists(st.one_of(entry, st.booleans()), min_size=n, max_size=n))
    odd = draw(st.lists(entry, min_size=n, max_size=n))
    return n, even, odd


@given(successor_maps())
def test_validate_agrees_with_the_entrywise_rule(case):
    n, even, odd = case
    expected = [
        f"{name}[{v}]: successor out of range ({w!r} not in 0..{n - 1})"
        for name, succ in (("even", even), ("odd", odd))
        for v, w in enumerate(succ)
        if type(w) is not int or not 0 <= w < n
    ]
    assert validate(graph(n, even, odd, 0, n)) == expected + [
        f"dest: vertex out of range ({n} not in 0..{n - 1})"
    ]


def test_route_out_of_range_is_rejected():
    g = graph(2, [1, 1], [1, 1], 0, 7)
    assert any("dest: vertex out of range" in v for v in validate(g))


def test_nonpositive_vertex_count_is_rejected():
    g = graph(0, [], [], 0, 0)
    assert any("must be positive" in v for v in validate(g))


def test_label_count_must_match():
    g = graph(2, [1, 1], [1, 1], 0, 1, labels=["a"])
    assert any("labels" in v for v in validate(g))


def test_vertex_count_must_be_an_integer():
    class Count(int):
        pass

    assert validate(graph(Count(2), [1, 1], [1, 1], 0, 1)) == []
    for n in (2.0, True, "2"):
        g = graph(n, [1, 1], [1, 1], 0, 1)
        assert validate(g) == [f"n: expected integer, found {n!r}"], n
        with pytest.raises(ValueError, match="invalid switch graph: n: expected integer"):
            decide_arrival(g)


def test_origin_must_be_an_integer():
    for origin in (0.0, True, None):
        g = graph(3, [1, 2, 2], [1, 2, 2], origin, 2)
        assert validate(g) == [f"origin: expected integer, found {origin!r}"], origin
        with pytest.raises(ValueError, match="invalid switch graph: origin: expected integer"):
            decide_arrival(g)


def test_dest_must_be_an_integer():
    for dest in (2.0, False, "2"):
        g = graph(3, [1, 2, 2], [1, 2, 2], 1, dest)
        assert validate(g) == [f"dest: expected integer, found {dest!r}"], dest
        with pytest.raises(ValueError, match="invalid switch graph: dest: expected integer"):
            require_valid(g)


def test_labels_must_be_strings():
    g = graph(3, [1, 2, 2], [1, 2, 2], 0, 2, labels=["a", 1, b"c"])
    assert validate(g) == [
        "labels[1]: expected string, found 1",
        "labels[2]: expected string, found b'c'",
    ]
    with pytest.raises(ValueError, match="invalid switch graph: labels"):
        require_valid(g)


def test_require_valid_raises_with_all_violations():
    g = graph(2, [5, 1], [1, 1], 0, 0)
    with pytest.raises(ValueError, match="invalid switch graph"):
        require_valid(g)


def test_require_valid_returns_the_graph_checked():
    checked = require_valid(T1)
    assert checked == T1
    assert type(checked) is not type(T1)  # graphs from graph() stay unchecked
    assert require_valid(checked) is checked


def _checked_graphs():
    g = graph(3, [1, 2, 2], [0, 2, 2], 0, 2, labels=["a", 'b"', "c"])
    aug = augment(g)
    yield parse(serialize(g))
    yield require_valid(g)
    yield generate(GeneratorSpec(n=7, seed=3, model="layered"))
    yield from (aug.h, aug.to_dest(), aug.to_dbar())


def test_checked_graphs_behave_as_plain_graphs():
    for checked in _checked_graphs():
        plain = SwitchGraph(*checked)
        assert type(checked) is not SwitchGraph and type(plain) is SwitchGraph
        assert repr(checked) == repr(plain) and repr(plain).startswith("SwitchGraph(")
        assert checked == plain and hash(checked) == hash(plain)
        assert serialize(checked) == serialize(plain)
        assert to_dot(checked) == to_dot(plain)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(checked, protocol)
            assert data == pickle.dumps(plain, protocol)
            loaded = pickle.loads(data)
            assert loaded == plain and type(loaded) is SwitchGraph


def test_a_new_route_on_a_checked_graph_is_checked_again():
    checked = parse(serialize(T3))
    moves = (checked.with_route(dest=0), checked._replace(dest=0), checked.__replace__(dest=0))
    moves += (SwitchGraph._replace(checked, dest=0),)  # what ``copy.replace`` calls from 3.13
    for moved in moves:
        assert type(moved) is SwitchGraph
        with pytest.raises(ValueError, match=r"^invalid switch graph: origin equals dest$"):
            require_valid(moved)
        with pytest.raises(ValueError, match=r"^invalid switch graph: origin equals dest$"):
            decide_arrival(moved)
    assert type(checked.with_route(dest=1)) is SwitchGraph


def test_with_route_changes_only_the_route():
    g = T3.with_route(origin=1)
    assert (g.n, g.even, g.odd, g.dest) == (T3.n, T3.even, T3.odd, T3.dest)
    assert g.origin == 1


def test_reverse_reachable_direct_edge():
    assert _out_of_reach(T1, (1,)) == set()


def test_reverse_reachable_closed_pair():
    # Vertices 0 and 1 only point at each other, so nothing but the
    # target itself can reach vertex 2.
    assert _out_of_reach(T3, (2,)) == {0, 1}


def test_reverse_reachable_includes_target():
    for g in (T1, T2, T3):
        for t in range(g.n):
            assert t not in _out_of_reach(g, (t,))


def test_reverse_reachable_rejects_bad_target():
    with pytest.raises(ValueError, match="target out of range"):
        _out_of_reach(T1, (2,))


@given(switch_graphs(max_n=5), st.integers(0, 4), st.integers(0, 4))
def test_reverse_reachable_matches_closure_oracle(g, target, other):
    target, other = target % g.n, other % g.n
    everything = set(range(g.n))
    assert _out_of_reach(g, (target,)) == everything - closure_reachable(g, target)
    reach = closure_reachable(g, target) | closure_reachable(g, other)
    assert _out_of_reach(g, (target, other)) == everything - reach


def _fixed_point_distances(g, targets) -> list[int | None]:
    """Per vertex, the fewest steps to the nearest target, by relaxation to
    a fixed point instead of a breadth-first search."""
    want: list[int | None] = [0 if v in targets else None for v in range(g.n)]
    changed = True
    while changed:
        changed = False
        for v in range(g.n):
            heads = [want[w] for w in (g.even[v], g.odd[v]) if want[w] is not None]
            if heads and (want[v] is None or min(heads) + 1 < want[v]):
                want[v], changed = min(heads) + 1, True
    return want


def test_distances_to_a_set_match_a_fixed_point():
    rng = random.Random(20261110)
    boards = [random_graph(rng, rng.randrange(2, 12)) for _ in range(300)]
    for n in (8, 64, 1024):  # relabelled chains, whose paths are long
        for family in (counter_chain, trap_chain, bouncer_chain, lambda n: chained(n // 2, 2)):
            g = family(n)
            perm = list(range(g.n))
            rng.shuffle(perm)
            boards.append(relabel(g, perm))
        # most vertices' two slots share a head, and those are listed once
        even = [rng.randrange(n) for _ in range(n)]
        odd = [w if rng.random() < 0.8 else rng.randrange(n) for w in even]
        boards.append(graph(n, even, odd, 0, n - 1))
    for g in boards:
        targets = rng.sample(range(g.n), rng.randrange(1, min(g.n, 3) + 1))
        want = _fixed_point_distances(g, targets)
        assert distances_to(g, targets) == want, (g, targets)
        assert distances_to(g, set(targets)) == want
        assert distances_to(g, targets[:1]) == _fixed_point_distances(g, targets[:1])
    assert distances_to(T1, (1,)) == distances_to(T1, [1]) == [1, 0]
    with pytest.raises(ValueError, match="target out of range"):
        distances_to(T1, [1, 2])


def test_serialize_rejects_an_invalid_graph():
    # unchecked, it would write "origin":true, which parse rejects
    with pytest.raises(ValueError, match="origin: expected integer, found True"):
        serialize(graph(3, [1, 2, 2], [1, 2, 2], True, 2))


def test_dot_export_rejects_an_invalid_graph():
    # unchecked, the integer labels would fail inside the export
    with pytest.raises(ValueError, match=r"labels\[0\]: expected string, found 1"):
        to_dot(graph(2, [1, 1], [1, 1], 0, 1, labels=[1, 2]))


def test_serialize_is_byte_stable():
    assert serialize(T1) == '{"n":2,"origin":0,"dest":1,"even":[1,1],"odd":[1,1]}'


def test_parse_fixture_file_is_t1():
    import pathlib

    text = pathlib.Path(__file__).with_name("data").joinpath("t1.json").read_text()
    assert parse(text) == T1


def test_round_trip_canonical_graphs():
    for g in (T1, T2, T3):
        assert parse(serialize(g)) == g
        assert serialize(parse(serialize(g))) == serialize(g)


def test_round_trip_many_random_graphs():
    rng = random.Random(0)
    for _ in range(1000):
        g = random_graph(rng, rng.randrange(2, 9))
        assert parse(serialize(g)) == g


@given(switch_graphs())
def test_round_trip_property(g):
    assert parse(serialize(g)) == g


def test_labels_survive_the_round_trip():
    g = graph(2, [1, 1], [1, 1], 0, 1, labels=["a", "b"])
    assert parse(serialize(g)) == g
    assert parse(serialize(g)).labels == ("a", "b")


def test_parse_rejects_bad_json_with_position():
    with pytest.raises(GraphFormatError, match="line 1 column"):
        parse("{")


def test_parse_rejects_non_object():
    with pytest.raises(GraphFormatError, match=r"\$: expected object"):
        parse("[1,2]")


def test_parse_rejects_unknown_field():
    with pytest.raises(GraphFormatError, match=r"\$\.extra: unknown field"):
        parse('{"n":2,"origin":0,"dest":1,"even":[1,1],"odd":[1,1],"extra":0}')


def test_parse_rejects_duplicate_fields():
    # even a repeat of the same value: the decoder would keep only one
    with pytest.raises(GraphFormatError, match=r"^\$\.n: duplicate field$"):
        parse('{"n":2,"origin":0,"dest":1,"even":[1,1],"odd":[1,1],"n":2}')
    with pytest.raises(GraphFormatError, match=r"^\$\.odd: duplicate field$"):
        parse('{"n":2,"odd":[0,0],"origin":0,"dest":1,"even":[1,1],"odd":[1,1]}')


def test_parse_rejects_missing_field():
    with pytest.raises(GraphFormatError, match=r"\$\.odd: missing required field"):
        parse('{"n":2,"origin":0,"dest":1,"even":[1,1]}')


def test_parse_rejects_non_integer_entries():
    with pytest.raises(GraphFormatError, match=r"\$\.even\[1\]: expected integer"):
        parse('{"n":2,"origin":0,"dest":1,"even":[1,"x"],"odd":[1,1]}')


def test_parse_rejects_boolean_entries():
    with pytest.raises(GraphFormatError, match=r"\$\.even\[0\]: expected integer"):
        parse('{"n":2,"origin":0,"dest":1,"even":[true,1],"odd":[1,1]}')


def test_parse_rejects_wrong_length_arrays():
    with pytest.raises(GraphFormatError, match=r"\$\.even: expected 2 entries"):
        parse('{"n":2,"origin":0,"dest":1,"even":[1],"odd":[1,1]}')


def test_parse_rejects_invalid_graphs_with_position():
    with pytest.raises(GraphFormatError, match=r"\$: origin equals dest"):
        parse('{"n":2,"origin":0,"dest":0,"even":[1,1],"odd":[1,1]}')
    with pytest.raises(GraphFormatError, match=r"\$\.even\[0\]: successor out of range"):
        parse('{"n":2,"origin":0,"dest":1,"even":[9,1],"odd":[1,1]}')
    with pytest.raises(GraphFormatError) as caught:
        parse('{"n":0,"origin":0,"dest":1,"even":[],"odd":[]}')
    assert str(caught.value) == "$.n: vertex count must be positive, found 0"


def test_parse_rejects_bad_labels():
    with pytest.raises(GraphFormatError, match=r"\$\.labels\[0\]: expected string"):
        parse('{"n":2,"origin":0,"dest":1,"even":[1,1],"odd":[1,1],"labels":[1,2]}')


def test_parse_reports_bad_labels_exactly():
    head = '{"n":2,"origin":0,"dest":1,"even":[1,1],"odd":[1,1],"labels":'
    for labels, message in (
        ('"ab"', "$.labels: expected array, found 'ab'"),
        ("{}", "$.labels: expected array, found {}"),
        ('["a"]', "$.labels: expected 2 entries, found 1"),
        ('["a","b","c"]', "$.labels: expected 2 entries, found 3"),
        ('["a",2]', "$.labels[1]: expected string, found 2"),
        ('[null,"b"]', "$.labels[0]: expected string, found None"),
        ('["a",true]', "$.labels[1]: expected string, found True"),
    ):
        with pytest.raises(GraphFormatError) as caught:
            parse(head + labels + "}")
        assert str(caught.value) == message, labels


def test_parse_rejects_deeply_nested_documents():
    # the decoder recurses per level: too deep a document is a format error
    for text in ("[" * 200000 + "]" * 200000, '{"n":' * 5000 + "1" + "}" * 5000):
        with pytest.raises(GraphFormatError, match=r"^\$: nested too deeply$"):
            parse(text)


def test_parse_rejects_integer_literals_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    long = "1" * 5000
    t1 = serialize(T1)
    for text in (f'{{"n": {long}}}', t1.replace('"even":[1,1]', f'"even":[1,{long}]')):
        assert long in text
        with pytest.raises(GraphFormatError, match=rf"^\$: integer over {limit} digits$"):
            parse(text)


class _Unprintable:
    """Mixed into a JSON value type: a message built from the value raises."""

    def __repr__(self):
        raise RuntimeError("repr of a field that passed its check")


class _UnprintableInt(_Unprintable, int):
    pass


class _UnprintableList(_Unprintable, list):
    pass


def test_int_field_formats_no_message_for_a_good_integer():
    assert graphs._int_field({"n": _UnprintableInt(3)}, "n") == 3


def test_array_formats_no_message_for_a_good_array():
    assert graphs._array({"even": _UnprintableList([0, 1])}, "even", 2) == (0, 1)


def test_dot_export_has_one_line_per_slot():
    for g in (T1, T2, T3):
        edge_lines = [l for l in to_dot(g).splitlines() if "->" in l]
        assert len(edge_lines) == 2 * g.n


def test_dot_export_is_pinned_line_by_line():
    assert to_dot(T1) == (
        "digraph switch_graph {\n"
        '  0 [role="origin"];\n'
        '  1 [role="dest"];\n'
        '  0 -> 1 [parity="even"];\n'
        '  0 -> 1 [parity="odd"];\n'
        '  1 -> 1 [parity="even"];\n'
        '  1 -> 1 [parity="odd"];\n'
        "}\n"
    )
    g = graph(3, [1, 2, 0], [2, 2, 1], 2, 0, labels=["x", 'say "hi"', "a\\b"])
    assert to_dot(g) == (
        "digraph switch_graph {\n"
        '  0 [label="x", role="dest"];\n'
        '  1 [label="say \\"hi\\""];\n'
        '  2 [label="a\\\\b", role="origin"];\n'
        '  0 -> 1 [parity="even"];\n'
        '  0 -> 2 [parity="odd"];\n'
        '  1 -> 2 [parity="even"];\n'
        '  1 -> 2 [parity="odd"];\n'
        '  2 -> 0 [parity="even"];\n'
        '  2 -> 1 [parity="odd"];\n'
        "}\n"
    )


def test_dot_export_escapes_labels():
    g = graph(2, [1, 1], [1, 1], 0, 1, labels=['a"];evil', "back\\slash"])
    lines = to_dot(g).splitlines()
    node_lines = [l for l in lines[1:-1] if "->" not in l]
    assert node_lines == [
        '  0 [label="a\\"];evil", role="origin"];',
        '  1 [label="back\\\\slash", role="dest"];',
    ]
    for line in lines:
        assert line.replace("\\\\", "").replace('\\"', "").count('"') % 2 == 0, line


def test_dot_export_marks_the_route():
    text = to_dot(T1)
    assert 'role="origin"' in text
    assert 'role="dest"' in text
    assert 'parity="even"' in text and 'parity="odd"' in text
