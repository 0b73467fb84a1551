"""Spine structure: parsing, validation, boundary windows, dual arcs."""

import hashlib
import itertools
import math
import random
import re
import sys
from fractions import Fraction

import pytest

from spineforms import CoordinatePoint, PathWord, parse_graph, validate
from spineforms.flips import flip_edge
from spineforms.fuzz import _flippable, random_exact_point, random_spine
from spineforms.coords import _log_q
from spineforms.ribbon import Edge, FatGraph, GraphError, _exact_parts, _int_refusal, dual_arc, emit_graph, windows

from conftest import ALL_FIXTURES, fixture_text, load_fixture
from key_oracle import oracle_key
from walk_oracle import oracle_dual_arc, oracle_windows


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixture_validates(name):
    report = validate(load_fixture(name))
    assert report.ok, "\n".join(report.lines())


@pytest.mark.parametrize(
    "name, edges, faces, monogons, cusps",
    [
        ("t3", 3, 1, 0, 3),
        ("sigma_0_2_1", 2, 2, 1, 1),
        ("sigma_0_3_1", 5, 3, 2, 1),
        ("sigma_0_1_4", 5, 1, 0, 4),
        ("sigma_0_5_1", 11, 5, 4, 1),
    ],
)
def test_fixture_counts(name, edges, faces, monogons, cusps):
    c = load_fixture(name).counts()
    assert c["edges"] == edges
    assert c["faces"] == faces
    assert c["monogons"] == monogons
    assert c["cusps"] == cusps
    assert c["genus2x"] == 0  # every shipped fixture is planar


def test_faces_partition_arrival_halves(five_holes):
    seen = [h for orbit in five_holes.faces() for h in orbit]
    assert sorted(seen) == sorted(five_holes._half_order)
    assert len(seen) == len(set(seen))


def test_parse_rejects_duplicate_half():
    text = fixture_text("t3").replace("p2_v p3_v", "p1_v p3_v")
    with pytest.raises(GraphError):
        parse_graph(text)


def test_parse_rejects_bad_value_key():
    text = fixture_text("t3").replace("pi=1", "omega=1", 1)
    with pytest.raises(GraphError, match="pi="):
        parse_graph(text)


def test_parse_rejects_nonpositive_exact_value():
    text = fixture_text("t3").replace("pi=1", "pi=0", 1)
    with pytest.raises(GraphError, match="positive"):
        parse_graph(text)


def test_parse_reports_line_numbers():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("surface g=0 sh=1 so=0 n=3\nvertex v ccw: a b\n")


def test_orbifold_weights():
    base = fixture_text("sigma_0_2_1")
    g2 = parse_graph(base.replace("omega=2", "orbifold=2"))
    assert g2.point().omega_value("w") == 0
    g3 = parse_graph(base.replace("omega=2", "orbifold=3"))
    assert g3.point().omega_value("w") == 1
    with pytest.raises(GraphError):
        parse_graph(base.replace("omega=2", "orbifold=1"))


@pytest.mark.parametrize("field", ["omega=-7", "omega=-1/2", "omega=-0.5"])
def test_negative_loop_weight_rejected(field):
    with pytest.raises(GraphError, match="line 6: loop weight .* is negative"):
        parse_graph(fixture_text("sigma_0_2_1").replace("omega=2", field))


def test_orbifold_order_rounding_to_a_hole_rejected():
    base = fixture_text("sigma_0_2_1")
    assert parse_graph(base.replace("omega=2", "orbifold=100000000")).point().omega_value("w") < 2
    with pytest.raises(GraphError, match="line 6: orbifold order .* rounds to 2"):
        parse_graph(base.replace("omega=2", "orbifold=100000000000000000000"))


def test_zero_loop_weight_accepted():
    assert parse_graph(fixture_text("sigma_0_2_1").replace("omega=2", "omega=0")).point().omega_value("w") == 0


def test_perimeter_weight_is_float():
    import math

    g = parse_graph(fixture_text("sigma_0_2_1").replace("omega=2", "perimeter=2"))
    point = g.point()
    assert not point.exact
    assert point.omega_value("w") == pytest.approx(2 * math.cosh(1.0))


def test_disconnected_graph_flagged():
    second = fixture_text("t3").replace("vertex v ", "vertex u ")
    for a, b in (("p1", "q1"), ("p2", "q2"), ("p3", "q3"), ("c1", "d1"), ("c2", "d2"), ("c3", "d3")):
        second = second.replace(a, b)
    text = fixture_text("t3") + second
    # the doubled file redeclares the surface line; drop the second one
    lines = [ln for i, ln in enumerate(text.splitlines()) if not (i > 0 and ln.startswith("surface"))]
    graph = parse_graph("\n".join(lines))
    report = validate(graph)
    assert not report.ok
    failed = {name for name, passed, _ in report.checks if not passed}
    assert "connected" in failed


def test_header_mismatch_detected():
    text = fixture_text("t3").replace("g=0", "g=1")
    report = validate(parse_graph(text))
    failed = {name for name, passed, _ in report.checks if not passed}
    assert failed == {"header"}


def test_windows_t3(t3):
    wins = windows(t3)
    orders = [tuple(w.coordinate_tokens(t3)) for w in wins]
    assert orders == [("p2", "p3"), ("p3", "p1"), ("p1", "p2")]
    assert all(w.hole == 0 for w in wins)


def test_windows_five_holes(five_holes):
    wins = windows(five_holes)
    cusped = [w for w in wins if w.steps]
    assert len(cusped) == 1
    assert ",".join(cusped[0].coordinate_tokens(five_holes)) == "pi,a1,a1,b1,a2,a2,b2,a3,a3,b3,b3,b2,b1,pi"


def test_window_loop_tokens_keep_signs(one_loop):
    w = windows(one_loop)[0]
    assert w.tokens == ["pi", "w+", "pi"]
    assert w.coordinate_tokens(one_loop) == ["pi", "pi"]


def test_window_walk_that_skips_its_cusp_is_refused():
    """A loop-kind edge on the cusp makes a walk by '+' turns bounce past
    it, so no window reaches a cusp; windows refuses the graph."""
    graph = parse_graph(
        "vertex v ccw: pi_v w_a w_b\n"
        "cusp c0 half: pi_c\n"
        "edge pi loop pi_v pi_c\n"
        "edge w pending w_a w_b\n"
    )
    assert not validate(graph).ok
    with pytest.raises(GraphError, match="does not reach a cusp"):
        windows(graph)


def test_dual_arc_of_pending_ends_at_its_cusp(t3):
    arc = dual_arc(t3, "p3")
    assert arc.tokens == ["p2", "p3"]
    assert arc.end_cusp == "c3"


def test_pending_dual_arc_is_the_window_ending_at_its_cusp():
    graphs = [load_fixture(name) for name in ALL_FIXTURES]
    rng = random.Random(2024)
    graphs += [random_spine(rng) for _ in range(200)]
    for graph in graphs:
        ending = {w.steps[-1].edge: w for w in windows(graph)}
        for e in graph.edges.values():
            if e.kind == "pending":
                w = ending[e.name]
                assert dual_arc(graph, e.name) == PathWord(w.start_cusp, w.steps, w.end_cusp)


def test_windows_and_dual_arcs_equal_the_turn_by_turn_walks():
    """Cut from the face orbits, every window and every dual arc, inner
    ones included, equals the oracle's walk step for step: the edge, the
    loop sign and the exit half of each step, and both end cusps."""
    graphs = [load_fixture(name) for name in ALL_FIXTURES]
    rng = random.Random(1)
    graphs += [random_spine(rng) for _ in range(300)]
    for graph in graphs:
        assert windows(graph) == oracle_windows(graph)
        for name in graph.coordinate_edges():
            assert dual_arc(graph, name) == oracle_dual_arc(graph, name)


def test_dual_arc_of_inner_crosses_it_once(four_cusps):
    arc = dual_arc(four_cusps, "e")
    assert arc.tokens.count("e") == 1
    assert arc.tokens[0].startswith("p") and arc.tokens[-1].startswith("p")


def test_dual_arc_loop_refused(one_loop):
    with pytest.raises(GraphError):
        dual_arc(one_loop, "w")


def test_dual_arc_unknown_edge(t3):
    with pytest.raises(GraphError, match="^no edge named zz$"):
        dual_arc(t3, "zz")


def test_emit_parse_round_trip():
    for name in ALL_FIXTURES:
        graph = load_fixture(name)
        again = parse_graph(emit_graph(graph))
        assert again.canonical_key() == graph.canonical_key()
        assert validate(again).ok


def test_emit_preserves_pending_value_key(t3):
    text = emit_graph(t3)
    assert " pi=1" in text
    assert "pending" in text


def test_canonical_key_ignores_vertex_names_and_order():
    base = fixture_text("sigma_0_1_4")
    lines = base.splitlines()
    vertex_lines = [ln for ln in lines if ln.startswith("vertex")]
    rest = [ln for ln in lines if not ln.startswith("vertex")]
    renamed = [ln.replace("va", "zz").replace("vb", "aa") for ln in vertex_lines]
    shuffled = rest[:1] + renamed[::-1] + rest[1:]
    other = parse_graph("\n".join(shuffled))
    assert other.canonical_key() == load_fixture("sigma_0_1_4").canonical_key()


def test_canonical_key_distinguishes_fixtures():
    keys = {load_fixture(n).canonical_key() for n in ALL_FIXTURES}
    assert len(keys) == len(ALL_FIXTURES)


def test_canonical_key_ignores_stored_rotation(five_holes):
    vid, halves = next(iter(five_holes.vertices.items()))
    rotated = dict(five_holes.vertices)
    rotated[vid] = halves[1:] + halves[:1]
    other = FatGraph(rotated, five_holes.cusps, five_holes.edges, five_holes.declared)
    assert other.canonical_key() == five_holes.canonical_key()


@pytest.mark.parametrize("text", ["", "cusp c1 half: a\ncusp c2 half: b\nedge p pending a b\n"])
def test_canonical_key_refuses_a_graph_with_no_root(text):
    with pytest.raises(GraphError, match="^canonical key needs a pending edge from a cusp to a trivalent vertex$"):
        parse_graph(text).canonical_key()


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_canonical_key_ignores_cusp_ids_and_edge_order(name):
    """Cusp ids renamed in reverse order and edge lines reversed."""
    graph = load_fixture(name)
    ids = list(graph.cusps)
    cusps = {"k%d" % (len(ids) - i): graph.cusps[c] for i, c in enumerate(ids)}
    other = FatGraph(graph.vertices, cusps, dict(reversed(graph.edges.items())))
    assert list(other.edges) != list(graph.edges)
    assert other.canonical_key() == graph.canonical_key()


@pytest.mark.parametrize("seed", [1, 20261017])
def test_canonical_key_agrees_with_the_min_over_roots_oracle(seed):
    """On every pair of the first 120 spines, the rooted key and the
    least certificate over all roots and rotations find the same pairs
    equal."""
    rng = random.Random(seed)
    graphs = [random_spine(rng) for _ in range(120)]
    keys = [g.canonical_key() for g in graphs]
    oracle = [oracle_key(g) for g in graphs]
    equal = 0
    for i, j in itertools.combinations(range(len(graphs)), 2):
        assert (keys[i] == keys[j]) == (oracle[i] == oracle[j]), (i, j)
        equal += keys[i] == keys[j]
    assert equal > 20


def test_every_flip_changes_the_key_and_a_second_restores_it():
    rng = random.Random(1)
    flips = 0
    for k in range(300):
        graph = random_spine(rng)
        key, point = graph.canonical_key(), random_exact_point(rng, graph)
        for name in _flippable(graph):
            g1, p1, _ = flip_edge(graph, name, point)
            g2, _, _ = flip_edge(g1, name, p1)
            assert g1.canonical_key() != key, (k, name)
            assert g2.canonical_key() == key, (k, name)
            flips += 1
    assert flips > 1000


def test_sigma_cycles_through_vertex(two_loops):
    for vid, halves in two_loops.vertices.items():
        a, b, c = halves
        assert two_loops.sigma(a) == b
        assert two_loops.sigma(b) == c
        assert two_loops.sigma(c) == a
        assert two_loops.sigma_inv(b) == a


def test_monogons_follow_loops(five_holes):
    assert len(five_holes.monogon_faces()) == len(five_holes.loop_edges())


def test_coordinate_edges_keep_file_order(five_holes):
    assert list(five_holes.coordinate_edges()) == ["pi", "a1", "a2", "a3", "b1", "b2", "b3"]


# -- errors, round trip and indexes, pinned ----------------------------

_QUAD = """surface g=0 sh=1 so=0 n=4
vertex va ccw: p1_v e_a p4_v
vertex vb ccw: p2_v p3_v e_b
cusp c1 half: p1_c
cusp c2 half: p2_c
cusp c3 half: p3_c
cusp c4 half: p4_c
edge e inner e_a e_b %s
edge p1 pending p1_v p1_c pi=3
edge p2 pending p2_v p2_c pi=5/2
edge p3 pending p3_v p3_c pi=7
edge p4 pending p4_v p4_c %s
"""


def _text_with(field):
    key = field.split("=")[0]
    if key.startswith("surface "):
        return fixture_text("sigma_0_2_1").replace("surface g=0", field)
    if key == "Z":
        return _QUAD % (field, "pi=1")
    if key == "pi":
        return _QUAD % ("Z=1", field)
    return fixture_text("sigma_0_2_1").replace("omega=2", field)


_DIGITS = sys.get_int_max_str_digits()
_TOO_LONG = "a number of %%d digits is too long; at most %d are read" % _DIGITS


@pytest.mark.parametrize("field, message", [
    ("Z=0", "line 8: exact value is e^Y and must be positive"),
    ("Z=-1/2", "line 8: exact value is e^Y and must be positive"),
    ("Z=3/0", "line 8: value '3/0' is not finite"),
    ("pi=-0", "line 12: exact value is e^Y and must be positive"),
    ("omega=-1/2", "line 6: loop weight omega=-1/2 is negative; it must be >= 0"),
    ("omega=1/0", "line 6: value '1/0' is not finite"),
    ("Z=1e999", "line 8: value '1e999' is not finite"),
    ("orbifold=1", "line 6: orbifold order must be an integer >= 2"),
    # str.isdigit accepts a superscript, which int() refuses
    pytest.param("surface g=\u00b2", "line 2: malformed surface field 'g=\u00b2'", id="surface-superscript"),
    pytest.param("orbifold=\u00b2", "line 6: orbifold order must be an integer >= 2", id="orbifold-superscript"),
    # int() converts at most sys.get_int_max_str_digits() digits
    pytest.param("Z=" + "7" * (_DIGITS + 1), "line 8: " + _TOO_LONG % (_DIGITS + 1), id="Z-too-long"),
    pytest.param("pi=3/" + "7" * (_DIGITS + 1), "line 12: " + _TOO_LONG % (_DIGITS + 1), id="pi-denominator-too-long"),
    pytest.param("omega=" + "1" * 5000, "line 6: " + _TOO_LONG % 5000, id="omega-too-long"),
    pytest.param("orbifold=" + "9" * 5000, "line 6: " + _TOO_LONG % 5000, id="orbifold-too-long"),
    pytest.param("surface g=-" + "1" * 5000, "line 2: " + _TOO_LONG % 5000, id="surface-too-long"),
])
def test_value_errors_are_pinned(field, message):
    """Messages as the parser gave them when it read values with
    Fraction(str); a number int() refuses is refused with its line."""
    with pytest.raises(GraphError) as info:
        parse_graph(_text_with(field))
    assert type(info.value) is GraphError
    assert str(info.value) == message


def _edges(*specs):
    return {name: Edge(name, kind, halves) for name, kind, halves in specs}


@pytest.mark.parametrize("vertices, cusps, edges, message", [
    ({"v": ("a", "b", "c"), "u": ("c", "d", "e")}, {}, {}, "half-edge c used twice"),
    ({"v": ("a", "b", "c")}, {"c1": "x"}, _edges(("l", "loop", ("a", "b"))),
     "half-edge c belongs to no edge"),
    ({"v": ("a", "b", "c")}, {"c1": "x"}, _edges(("l", "loop", ("a", "a"))),
     "edge l needs two distinct half-edges"),
    ({"v": ("a", "b", "c")}, {"c1": "x"}, _edges(("l", "loop", ("a", "zz"))),
     "edge l references unknown half-edge zz"),
    ({"v": ("a", "b")}, {"c1": "x"}, {}, "vertex v must list exactly 3 half-edges"),
], ids=["half-twice", "half-in-no-edge", "edge-half-twice", "unknown-half", "two-half-vertex"])
def test_build_errors_are_pinned(vertices, cusps, edges, message):
    """Messages as FatGraph gave them when it built its indexes in four
    loops over the halves."""
    with pytest.raises(GraphError) as info:
        FatGraph(vertices, cusps, edges)
    assert type(info.value) is GraphError
    assert str(info.value) == message


def _reference_indexes(vertices, cusps, edges):
    """FatGraph's cross-reference maps, each derived on its own."""
    half_order = [h for hs in vertices.values() for h in hs] + list(cusps.values())
    owner = {h: v for v, hs in vertices.items() for h in hs}
    owner.update((h, c) for c, h in cusps.items())
    sigma = {hs[i]: hs[(i + 1) % 3] for hs in vertices.values() for i in range(3)}
    sigma.update((h, h) for h in cusps.values())
    sigma_inv = {b: a for a, b in sigma.items()}
    mate = {}
    edge_of = {}
    for e in edges.values():
        a, b = e.halves
        mate[a], mate[b] = b, a
        edge_of[a] = edge_of[b] = e.name
    return {"_half_order": half_order, "_owner": owner, "_sigma": sigma,
            "_sigma_inv": sigma_inv, "_mate": mate, "_edge_of": edge_of}


def test_round_trip_and_indexes_on_seeded_spines():
    """300 seeded spines, each at an exact and at a float point: emitted
    text parses back to the same text and point, and every index the
    parsed graph holds is what a plain derivation gives."""
    rng = random.Random(1)
    for trial in range(300):
        g = random_spine(rng)
        exact = random_exact_point(rng, g)
        y = {n: rng.uniform(-2.0, 2.0) for n in g.coordinate_edges()}
        omega = {n: float(rng.randint(2, 6)) for n in g.loop_edges()}
        for p in (exact, CoordinatePoint(False, y=y, omega=omega)):
            text = emit_graph(g, p)
            back = parse_graph(text)
            assert emit_graph(back) == text, trial
            assert back.point() == p, trial
            want = _reference_indexes(back.vertices, back.cusps, back.edges)
            for attr, value in want.items():
                assert getattr(back, attr) == value, (trial, attr)


def _emission_corpus():
    """emit_graph text over 60 seeded spines: bare, at an exact point, at
    a float point with float y and float loop weights, and re-read with
    loop weights from perimeter= and orbifold= next to exact and decimal
    coordinate values, emitted as stored and at the point they give."""
    rng = random.Random(15)
    for _ in range(60):
        g = random_spine(rng)
        yield emit_graph(g)
        yield emit_graph(g, random_exact_point(rng, g))
        y = {n: rng.uniform(-3.0, 3.0) for n in g.coordinate_edges()}
        omega = {n: rng.uniform(0.0, 6.0) for n in g.loop_edges()}
        yield emit_graph(g, CoordinatePoint(False, y=y, omega=omega))
        lines = []
        for line in emit_graph(g).splitlines():
            kind = line.split()[2] if line.startswith("edge") else None
            if kind == "loop":
                line += rng.choice((" perimeter=%r" % rng.uniform(0.1, 4.0), " orbifold=%d" % rng.randint(2, 9)))
            elif kind is not None and rng.random() < 0.5:
                key = "Z" if kind == "inner" else "pi"
                value = rng.choice(("%d/%d" % (rng.randint(1, 9), rng.randint(1, 9)), "%.3f" % rng.uniform(-2, 2)))
                line += " %s=%s" % (key, value)
            lines.append(line)
        back = parse_graph("\n".join(lines))
        yield emit_graph(back)
        yield emit_graph(back, back.point())


# sha256 of the corpus joined by NUL bytes, taken when emit_graph wrote
# each edge line from a tagged value payload
EMISSION_SHA256 = "1935e09d1897b84db13b5fbd38530233e2cc4914302a32301fe84ea6db57c7a3"


def test_emission_bytes_are_pinned():
    digest = hashlib.sha256("\0".join(_emission_corpus()).encode("utf-8")).hexdigest()
    assert digest == EMISSION_SHA256


# -- the value reader and the point, against their earlier forms -------

_EXACT_RE = re.compile(r"^([+-]?\d+)(?:/(\d+))?$")


def _oracle_exact_parts(raw):
    """ribbon._exact_parts as it read a value with _EXACT_RE."""
    m = _EXACT_RE.match(raw)
    if m is None:
        return None
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except ValueError:
        raise _int_refusal((m[1], m[2] or ""), "bad value %r" % raw) from None
    if not den:
        raise GraphError("value %r is not finite" % raw)
    return num, den


def _reading(read, raw):
    try:
        return read(raw)
    except GraphError as exc:
        return ("refused", str(exc))


def _value_tokens():
    """Whitespace-free tokens: pinned edge cases, then random joins of
    signs, digits of several scripts, slashes and stray characters."""
    limit = sys.get_int_max_str_digits()
    tokens = ["0", "+0", "-0", "7", "+7", "-7", "12/5", "-12/5", "+3/4", "1/", "/2", "/", "1/-2", "1/+2",
              "1/0", "0/0", "-0/3", "1/2/3", "1_000", "1_0/3", "²", "1²", "2/²",
              "٣", "١٢/٥", "-٧", "1.5", "1e5", "inf", "nan", "+-1", "--1", "++1",
              "+", "-", "", "0x10", "１", "7" * limit, "7" * (limit + 1), "-" + "1" * (limit + 1),
              "1/" + "7" * (limit + 1), "7" * (limit + 1) + "/3"]
    pieces = ["", "+", "-", "/", "0", "1", "9", "42", "_", ".", "e", "²", "٣", "５", "x"]
    rng = random.Random(3)
    tokens += ["".join(rng.choice(pieces) for _ in range(rng.randint(1, 5))) for _ in range(4000)]
    return tokens


def test_value_reader_matches_the_regex_oracle():
    """_exact_parts reads a value with str.partition and str.isdecimal;
    on every token it gives what the regular expression it replaced
    gave: the same (num, den), None, or refusal text."""
    seen = {"parts": 0, "none": 0, "refused": 0}
    for raw in _value_tokens():
        got = _reading(_exact_parts, raw)
        assert got == _reading(_oracle_exact_parts, raw), raw
        seen["none" if got is None else "refused" if got[0] == "refused" else "parts"] += 1
    assert seen["parts"] > 100 and seen["none"] > 100 and seen["refused"] >= 6, seen


def _oracle_point(graph):
    """CoordinatePoint.from_graph as it read the edges in two passes and
    handed them to the constructor."""
    exact = not any(isinstance(e.value, float) for e in graph.edges.values())
    q, y, omega = {}, {}, {}
    for e in graph.edges.values():
        v = e.value
        if e.kind == "loop":
            omega[e.name] = 2 if v is None else v
        elif exact:
            q[e.name] = Fraction(1) if v is None else v
        elif v is None:
            y[e.name] = 0.0
        else:
            y[e.name] = v if isinstance(v, float) else _log_q(e.name, v)
    if exact:
        return CoordinatePoint(True, q=q, omega=omega)
    return CoordinatePoint(False, y=y, omega=omega)


def _point_reading(read, graph):
    try:
        p = read(graph)
    except ValueError as exc:
        return ("refused", str(exc))
    return p.exact, repr(p), [(type(v), repr(v)) for d in (p.q, p.y, p.omega) for v in d.values()]


def test_point_refuses_the_first_bad_value_as_before():
    """from_graph reads the point in one pass and refuses as the two
    passes and the constructor did: the first bad coordinate value in
    edge order before any weight, whatever comes first in the file; a
    float anywhere, a weight's included, makes every value a Y."""
    base = load_fixture("sigma_0_3_1")
    # edge order w1, pi, w2, a1, b1: a weight comes first
    order = ["w1", "pi", "w2", "a1", "b1"]
    assert sorted(order) == sorted(base.edges)
    bad_q = [Fraction(0), Fraction(-1, 2), 0, -3, Fraction(10) ** -400, Fraction(10) ** 400]
    good_q = [None, Fraction(3, 2), 2, 0.5, -1.25]
    bad_y = [math.inf, -math.inf, math.nan]
    weights = [None, Fraction(0), Fraction(1, 2), 3, 2.5, -1, Fraction(-1, 3), -0.5, math.inf, math.nan]
    rng = random.Random(9)
    outcomes = set()
    for _ in range(3000):
        edges = {}
        for name in order:
            e = base.edges[name]
            if e.kind == "loop":
                v = rng.choice(weights)
            else:
                v = rng.choice(good_q if rng.random() < 0.8 else bad_q + bad_y)
            edges[name] = Edge(name, e.kind, e.halves, v)
        graph = FatGraph(base.vertices, base.cusps, edges)
        got = _point_reading(CoordinatePoint.from_graph, graph)
        assert got == _point_reading(_oracle_point, graph), [e.value for e in edges.values()]
        outcomes.add(got[1][:2] if got[0] == "refused" else "exact" if got[0] else "float")
    assert outcomes == {"exact", "float", "q[", "y[", "lo"}, outcomes
    # a q below 0 on a float reading is named, as an exact reading names it
    values = {"a1": 0.5, "b1": Fraction(-1, 2)}
    edges = {n: Edge(n, e.kind, e.halves, values.get(n)) for n, e in base.edges.items()}
    with pytest.raises(ValueError, match=re.escape("q[b1] = -1/2 must be positive")):
        FatGraph(base.vertices, base.cusps, edges).point()


def test_a_surface_line_is_read_once():
    """A second surface line, or a field given twice in one, is refused
    with its line, as a repeated vertex or edge name is; before, the
    last one silently won."""
    text = fixture_text("t3")
    with pytest.raises(GraphError) as info:
        parse_graph(text.replace("surface g=0", "surface g=0 g=5"))
    assert str(info.value) == "line 2: duplicate surface field g"
    with pytest.raises(GraphError) as info:
        parse_graph(text + "surface g=0 sh=1 so=0 n=3\n")
    assert str(info.value) == "line %d: duplicate surface line" % (len(text.splitlines()) + 1)
    assert parse_graph(text).declared == {"g": 0, "sh": 1, "so": 0, "n": 3}
