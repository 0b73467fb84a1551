"""Coordinate points and the lambda-length bijection."""

import itertools
import math
import random
import re
from collections import Counter
from fractions import Fraction

import pytest

from spineforms import (
    CoordinatePoint,
    LambdaAssignment,
    lambda_of_dual_arcs,
    penner_form_matrix,
    poisson_matrix,
    shear_from_lambda,
)
from spineforms import coords
from spineforms.algebra import SqrtRational
from spineforms.flips import flip_edge
from spineforms.fuzz import _flippable, random_exact_point, random_spine
from spineforms.paths import lambda_length
from spineforms.ribbon import Edge, FatGraph, GraphError, dual_arc, parse_graph, validate, windows

from conftest import ALL_FIXTURES, fixture_text, load_fixture
from dense_oracle import cross_ratio, frac_inverse, frac_matmul, local_rule_mismatches, pending_ratio
from walk_oracle import oracle_dual_arc, oracle_windows


def rational_point(graph, rng):
    q = {n: Fraction(rng.randint(1, 12), rng.randint(1, 12)) for n in graph.coordinate_edges()}
    omega = {n: Fraction(rng.randint(2, 9)) for n in graph.loop_edges()}
    return CoordinatePoint(True, q=q, omega=omega)


def test_unit_point_gives_unit_lambdas(t3):
    lam = lambda_of_dual_arcs(t3)
    assert all(v == 1 for _, v in lam.items())
    back = shear_from_lambda(t3, lam)
    assert all(back.q_value(n) == 1 for n in t3.coordinate_edges())


def test_exact_point_validation():
    with pytest.raises(ValueError, match="positive"):
        CoordinatePoint(True, q={"e": Fraction(-1)})
    with pytest.raises(ValueError):
        CoordinatePoint(True, y={"e": 0.5})
    with pytest.raises(ValueError):
        CoordinatePoint(False, q={"e": Fraction(1)})


@pytest.mark.parametrize(
    "exact, values, omega, message",
    [
        (False, {"pi": math.nan}, {"w": 2.0}, r"y\[pi\] = nan must be finite"),
        (True, {"pi": 1}, {"w": -7}, r"loop weight omega\[w\] = -7 must be >= 0"),
        (False, {"pi": 0.5}, {"w": math.inf}, r"loop weight omega\[w\] = inf must be finite"),
        (False, {"pi": 0.5}, {"w": math.nan}, r"loop weight omega\[w\] = nan must be >= 0"),
        (False, {"pi": math.inf}, {"w": 2.0}, r"y\[pi\] = inf must be finite"),
    ],
)
def test_point_refuses_values_outside_the_domain(exact, values, omega, message):
    """A float y must be finite and a loop weight finite and >= 0, as in
    a graph file; a graph built in code that stores the same values on
    its edges is refused with the same message by graph.point()."""
    key = "q" if exact else "y"
    with pytest.raises(ValueError, match=message):
        CoordinatePoint(exact, omega=omega, **{key: values})
    base = load_fixture("sigma_0_2_1")
    stored = {**values, **omega}
    edges = {n: Edge(n, e.kind, e.halves, stored[n]) for n, e in base.edges.items()}
    with pytest.raises(ValueError, match=message):
        FatGraph(base.vertices, base.cusps, edges).point()


def test_bad_lambda_is_reported_before_bad_loop_weight(one_loop):
    lam = LambdaAssignment({"pi": Fraction(-1)}, {"w": Fraction(-7)})
    with pytest.raises(ValueError, match="lambda pi = -1 must be positive"):
        shear_from_lambda(one_loop, lam)
    lam = LambdaAssignment({"pi": 1.5}, {"w": -7.0})
    with pytest.raises(ValueError, match=r"omega\[w\] = -7.0 must be >= 0"):
        shear_from_lambda(one_loop, lam)


def test_point_accessors(one_loop):
    point = CoordinatePoint(True, q={"pi": Fraction(9, 4)}, omega={"w": Fraction(3)})
    assert point.q_value("pi") == Fraction(9, 4)
    assert point.t_value("pi") * point.t_value("pi") == point.t_value("pi") ** 2
    assert point.omega_value("w") == 3
    assert point.y_value("pi") == pytest.approx(math.log(2.25))
    floated = point.as_float()
    assert not floated.exact
    assert floated.y_value("pi") == pytest.approx(math.log(2.25))


@pytest.mark.parametrize("q, message", [
    (Fraction(10**400), "q[pi] = 1%s is too large for a float" % ("0" * 400)),
    (Fraction(1, 10**400), "q[pi] = 1/1%s is too small for a float" % ("0" * 400)),
])
def test_exact_q_outside_the_float_range_has_no_float_y(q, message):
    point = CoordinatePoint(True, q={"pi": q})
    for read in (point.as_float, lambda: point.y_value("pi")):
        with pytest.raises(ValueError, match=re.escape(message)):
            read()


def test_cross_ratio_substitution():
    assert cross_ratio(2, 1, 3, 1) == Fraction(6)


def test_pending_ratio_substitution():
    assert pending_ratio(2, 3, 4) == Fraction(3, 2)


def test_cross_ratio_recovers_inner_coordinate(four_cusps):
    rng = random.Random(40)
    for _ in range(10):
        point = rational_point(four_cusps, rng)
        lam = lambda_of_dual_arcs(four_cusps, point)
        assert cross_ratio(lam["p1"], lam["p2"], lam["p3"], lam["p4"]) == point.q_value("e")


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_exact(name):
    graph = load_fixture(name)
    rng = random.Random(hash(name) % 100000)
    for _ in range(5):
        point = rational_point(graph, rng)
        lam = lambda_of_dual_arcs(graph, point)
        assert shear_from_lambda(graph, lam) == point


def test_round_trip_carries_loop_weights(two_loops):
    point = CoordinatePoint(
        True,
        q={"pi": Fraction(2), "a1": Fraction(3), "b1": Fraction(5, 2)},
        omega={"w1": Fraction(4), "w2": Fraction(7)},
    )
    lam = lambda_of_dual_arcs(two_loops, point)
    assert lam.omega == {"w1": Fraction(4), "w2": Fraction(7)}
    back = shear_from_lambda(two_loops, lam)
    assert back == point
    assert back.omega == point.omega


def test_round_trip_float(two_loops):
    point = CoordinatePoint(False, y={"pi": 0.3, "a1": -0.7, "b1": 1.1}, omega={"w1": 2.5, "w2": 3.0})
    lam = lambda_of_dual_arcs(two_loops, point)
    back = shear_from_lambda(two_loops, lam)
    for n in two_loops.coordinate_edges():
        assert back.y_value(n) == pytest.approx(point.y_value(n), abs=1e-12)


def test_multiplicity_matrix_is_invertible_on_fixtures():
    for name in ALL_FIXTURES:
        graph = load_fixture(name)
        m = [[Fraction(x) for x in row] for row in coords.dual_view(graph).rows]
        inv = frac_inverse(m)
        for row in inv:
            for x in row:
                assert (2 * x).denominator == 1, name


def test_assignment_getitem(two_loops):
    lam = lambda_of_dual_arcs(two_loops)
    assert lam["pi"] == lam.values["pi"]
    assert isinstance(lam["pi"], SqrtRational)


def test_inconsistent_lambdas_rejected(t3):
    lam = LambdaAssignment({"p1": Fraction(1), "p2": Fraction(1)})
    with pytest.raises(ValueError, match="^missing lambda values for p3$"):
        shear_from_lambda(t3, lam)


def test_lambdas_with_no_rational_q_are_refused(four_cusps):
    """lambda_e = sqrt(2) and every other lambda 1 make q_p1 the square
    root of 2: no rational q, and the first such edge is named."""
    lam = {n: SqrtRational.sqrt(2) if n == "e" else 1 for n in four_cusps.coordinate_edges()}
    with pytest.raises(ValueError, match="^lambda-lengths give no rational q for p1$"):
        shear_from_lambda(four_cusps, lam)


def _same_lambda(rng, v):
    """v as another exact value equal to it: an int or a Fraction when
    rational, else a SqrtRational whose rad keeps a square factor."""
    if v.rad == 1:
        forms = [v, v.rat, SqrtRational(v.rat)] + ([int(v.rat)] if v.rat.denominator == 1 else [])
        return rng.choice(forms)
    k = rng.randint(1, 3)
    return SqrtRational(v.rat / k, v.rad * k * k)


def test_every_exact_lambda_type_gives_the_same_q():
    """Lambdas given as ints, Fractions, SqrtRationals with rad 1 and
    SqrtRationals with rad > 1, in any mix and with a rad that is not
    the smallest, give back the point."""
    rng = random.Random(20261019)
    kinds = Counter()
    for k in range(150):
        graph = random_spine(rng)
        point = random_exact_point(rng, graph)
        if k % 2:  # squares q: every lambda rational, many of them ints
            q = {n: Fraction(rng.randint(1, 4)) ** 2 for n in point.q}
            point = CoordinatePoint(True, q=q, omega=point.omega)
        lam = lambda_of_dual_arcs(graph, point)
        given = {n: _same_lambda(rng, v) for n, v in lam.items()}
        kinds.update(type(v).__name__ + (str(min(v.rad, 2)) if isinstance(v, SqrtRational) else "")
                     for v in given.values())
        assert shear_from_lambda(graph, LambdaAssignment(given, dict(lam.omega))) == point
    assert set(kinds) == {"int", "Fraction", "SqrtRational1", "SqrtRational2"}, kinds


def test_closed_form_matches_matrix_word_oracle():
    """lambda_of_dual_arcs against the matrix word of every dual arc,
    exactly at exact points and to 1e-9 at their float copies; the
    oracle's values invert back to the point."""
    rng = random.Random(20261017)
    for k in range(200):
        graph = random_spine(rng)
        point = random_exact_point(rng, graph)
        fpoint = point.as_float()
        lam = lambda_of_dual_arcs(graph, point)
        flam = lambda_of_dual_arcs(graph, fpoint)
        oracle = {n: lambda_length(graph, dual_arc(graph, n), point) for n in graph.coordinate_edges()}
        foracle = {n: lambda_length(graph, dual_arc(graph, n), fpoint) for n in graph.coordinate_edges()}
        assert lam.values == oracle, k
        for n, v in foracle.items():
            assert math.isclose(flam[n], v, rel_tol=1e-9), (k, n)
        assert shear_from_lambda(graph, LambdaAssignment(oracle, dict(point.omega))) == point
        back = shear_from_lambda(graph, LambdaAssignment(foracle, dict(fpoint.omega)))
        for n in graph.coordinate_edges():
            assert back.y_value(n) == pytest.approx(fpoint.y_value(n), abs=1e-9), (k, n)


def test_dual_view_is_built_once_per_graph(monkeypatch, two_loops):
    built = []
    build = coords.DualView.__init__

    def counting(self, graph):
        built.append(graph)
        build(self, graph)

    monkeypatch.setattr(coords.DualView, "__init__", counting)
    assert two_loops._dual is None
    first = lambda_of_dual_arcs(two_loops)
    assert built == [two_loops]
    second = lambda_of_dual_arcs(two_loops)
    shear_from_lambda(two_loops, second)
    coords.dual_view(two_loops)
    assert built == [two_loops]
    assert first.values == second.values


def test_parse_does_not_build_the_dual_view():
    assert parse_graph(fixture_text("sigma_0_5_1"))._dual is None


def test_exact_lambdas_print_in_split_form(four_cusps):
    """lambda_i = prod q^{floor(M_ij/2)} * sqrt(prod_{M_ij odd} q), perfect
    squares taken out of the root: lambda_e = sqrt(3 * 5/7 * 4) = 2/7*sqrt(105)."""
    point = CoordinatePoint(True, q={"e": Fraction(3), "p1": Fraction(2), "p2": Fraction(5, 7),
                                     "p3": Fraction(1, 6), "p4": Fraction(4)})
    lam = lambda_of_dual_arcs(four_cusps, point)
    assert {n: str(v) for n, v in lam.items()} == {
        "e": "2/7*sqrt(105)", "p1": "2*sqrt(6)", "p2": "1/7*sqrt(70)", "p3": "1/14*sqrt(70)", "p4": "1/3*sqrt(6)",
    }


@pytest.mark.parametrize("bad", [Fraction(0), Fraction(-1), Fraction(-2, 3), SqrtRational(-2, 3), -0.5, 0.0])
def test_shear_from_lambda_rejects_non_positive(four_cusps, bad):
    lam = dict(lambda_of_dual_arcs(four_cusps, four_cusps.point()).values)
    if isinstance(bad, float):
        lam = {n: float(v) for n, v in lam.items()}
    lam["e"] = bad
    with pytest.raises(ValueError, match="lambda e = .* must be positive"):
        shear_from_lambda(four_cusps, lam)


def test_local_rule_is_twice_the_inverse():
    """The DualView's local rule against 2 M^{-1} by Gauss-Jordan, on
    every fixture and on 300 seeded spines, each before and after one
    random flip."""
    graphs = [load_fixture(name) for name in ALL_FIXTURES]
    rng = random.Random(20261018)
    for _ in range(300):
        graph = random_spine(rng)
        graphs.append(graph)
        options = _flippable(graph)
        if options:
            graphs.append(flip_edge(graph, rng.choice(options))[0])
    assert len(graphs) > 500
    for k, graph in enumerate(graphs):
        assert local_rule_mismatches(graph) == [], k


def local_rows(graph):
    view = coords.dual_view(graph)
    return {view.names[i]: {view.names[j]: k for j, k in terms} for i, terms in enumerate(view.inverse())}


def test_local_rule_gives_the_local_formulas(four_cusps, two_loops):
    """Inner edge e: the cross-ratio lambda_p1 lambda_p3 / (lambda_p2
    lambda_p4); pending edge p1: lambda_p1 lambda_p2 / lambda_e; loop
    stem a1: lambda_b1 / lambda_pi."""
    rows = local_rows(four_cusps)
    assert rows["e"] == {"p1": 1, "p2": -1, "p3": 1, "p4": -1}
    assert rows["p1"] == {"e": -1, "p1": 1, "p2": 1}
    assert local_rows(two_loops) == {
        "pi": {"pi": 1, "a1": 1, "b1": -1}, "a1": {"pi": -1, "b1": 1}, "b1": {"pi": 1, "a1": -1},
    }
    lam = lambda_of_dual_arcs(four_cusps, rational_point(four_cusps, random.Random(5)))
    back = shear_from_lambda(four_cusps, lam)
    assert back.q_value("p1") == pending_ratio(lam["p1"], lam["p2"], lam["e"])
    assert back.q_value("e") == cross_ratio(lam["p1"], lam["p2"], lam["p3"], lam["p4"])


def test_shear_from_lambda_past_float_range(two_loops):
    """Exact round trip whose lambda-lengths have parts past float range."""
    point = CoordinatePoint(
        True,
        q={"pi": Fraction(10**400, 3), "a1": Fraction(7, 10**350), "b1": Fraction(2**1100, 5)},
        omega={"w1": Fraction(4), "w2": Fraction(7)},
    )
    lam = lambda_of_dual_arcs(two_loops, point)
    parts = [x for _, v in lam.items() for x in (v.rat.numerator, v.rat.denominator)]
    assert max(parts) > 10**308
    assert shear_from_lambda(two_loops, lam) == point


def rewired_fixture_texts():
    """Every fixture with two half-edge tokens of its edge lines swapped."""
    for name in ALL_FIXTURES:
        lines = fixture_text(name).splitlines()
        slots = [(i, k) for i, line in enumerate(lines) if line.startswith("edge ") for k in (3, 4)]
        for (i1, k1), (i2, k2) in itertools.combinations(slots, 2):
            parts = [line.split(" ") for line in lines]
            parts[i1][k1], parts[i2][k2] = parts[i2][k2], parts[i1][k1]
            yield "%s %d.%d-%d.%d" % (name, i1, k1, i2, k2), "\n".join(" ".join(p) for p in parts) + "\n"


def test_rewired_fixtures_without_dual_arcs_are_refused():
    """Whenever a dual arc cannot be cut from the face orbits the graph
    is no spine and shear_from_lambda must refuse it.  The counts are
    those of the turn-by-turn walks."""
    refused = windows_refused = 0
    for tag, text in rewired_fixture_texts():
        graph = parse_graph(text)
        unit = {n: Fraction(1) for n in graph.coordinate_edges()}
        try:
            windows(graph)
        except GraphError:
            windows_refused += 1
        try:
            for name in graph.coordinate_edges():
                dual_arc(graph, name)
        except GraphError:
            refused += 1
            try:
                shear_from_lambda(graph, unit)
            except ValueError:
                continue
            pytest.fail("%s: dual arcs fail but shear_from_lambda accepts" % tag)
    assert refused == 226
    assert windows_refused == 14


def dual_arc_counts(graph, arc=dual_arc):
    """M counted step by step from every dual arc that ``arc`` gives,
    loop steps left out, or the first refusal's message."""
    names = graph.coordinate_edges()
    try:
        counts = [Counter(s.edge for s in arc(graph, n).steps) for n in names]
    except GraphError as exc:
        return str(exc)
    return tuple(tuple(c[m] for m in names) for c in counts)


def dual_view_rows(graph):
    try:
        return coords.DualView(graph).rows
    except GraphError as exc:
        return str(exc)


def test_dual_view_rows_are_the_dual_arc_counts_on_spines():
    rng = random.Random(1)
    graphs = [load_fixture(name) for name in ALL_FIXTURES] + [random_spine(rng) for _ in range(300)]
    for k, graph in enumerate(graphs):
        rows = dual_view_rows(graph)
        assert rows == dual_arc_counts(graph), k
        # the turn-by-turn walks share no code with ribbon._run_into
        assert rows == dual_arc_counts(graph, oracle_dual_arc), k


def refusals_against_dual_arcs(graphs):
    """(graphs some dual_arc refuses, graphs only DualView refuses) among
    (tag, graph) pairs.  DualView refuses with dual_arc's first message
    where some dual_arc refuses, and otherwise has dual_arc's counts
    unless a loop edge does not close at one trivalent vertex: then it
    refuses the graph, which fails validate's loop-placement check."""
    refused = loops_refused = 0
    for tag, graph in graphs:
        oracle, rows = dual_arc_counts(graph), dual_view_rows(graph)
        if isinstance(oracle, str):
            refused += 1
            assert rows == oracle, tag
        elif rows != oracle:
            loops_refused += 1
            assert re.fullmatch("loop edge .* does not close at one trivalent vertex", rows), tag
            assert ("loop-placement", False) in [check[:2] for check in validate(graph).checks], tag
    return refused, loops_refused


def test_dual_view_refuses_where_dual_arc_refuses_on_rewired_fixtures():
    graphs = ((tag, parse_graph(text)) for tag, text in rewired_fixture_texts())
    assert refusals_against_dual_arcs(graphs) == (226, 14)


def test_dual_view_refuses_where_dual_arc_refuses_with_an_edge_kind_changed():
    """Every fixture with one edge given another kind: a pending edge
    made a loop leaves its cusp on a loop-kind edge, from which no dual
    arc is cut."""
    def changed(base, e, kind):
        return FatGraph(base.vertices, base.cusps, {**base.edges, e.name: Edge(e.name, kind, e.halves)})

    bases = [(name, load_fixture(name)) for name in ALL_FIXTURES]
    graphs = (
        ((name, e.name, kind), changed(base, e, kind))
        for name, base in bases
        for e in base.edges.values()
        for kind in ("inner", "pending", "loop")
        if kind != e.kind
    )
    assert refusals_against_dual_arcs(graphs) == (32, 10)


def test_rewired_fixtures_that_fail_validate_are_refused():
    """No graph that fails validate gets coordinates from lambda-lengths
    or a Penner form; every other gets 1/4 M^T P M, multiplied out."""
    valid = invalid = 0
    for tag, text in rewired_fixture_texts():
        graph = parse_graph(text)
        if validate(graph).ok:
            valid += 1
            m = coords.dual_view(graph).rows
            mtpm = frac_matmul(frac_matmul(list(zip(*m)), poisson_matrix(graph).data), m)
            assert penner_form_matrix(graph).data == [[x / 4 for x in row] for row in mtpm], tag
            continue
        invalid += 1
        unit = {n: Fraction(1) for n in graph.coordinate_edges()}
        for f, args in ((shear_from_lambda, (graph, unit)), (penner_form_matrix, (graph,))):
            try:
                f(*args)
            except ValueError:
                continue
            pytest.fail("%s fails validate but %s accepts it" % (tag, f.__name__))
    assert (valid, invalid) == (102, 240)


# The rewired fixtures, by fixture and swapped slots, on which the cut
# windows or dual arcs differ from the turn-by-turn walks.
CUT_DIFFERS_FROM_WALKS = {
    "sigma_0_3_1": "7.4-10.3 8.4-9.4 9.3-10.4 9.4-10.3",
    "sigma_0_5_1": "11.4-18.3 11.4-19.3 11.4-20.3 12.4-17.4 12.4-19.3 12.4-20.3 13.4-17.4 13.4-18.4 "
    "13.4-20.3 16.4-17.4 16.4-18.4 16.4-19.4 17.3-18.4 17.3-19.4 17.3-20.4 17.4-18.3 17.4-19.3 "
    "17.4-20.3 18.3-19.4 18.3-20.4 18.4-19.3 18.4-20.3 19.3-20.4 19.4-20.3",
}


def test_rewired_fixtures_where_the_cut_differs_from_the_walks_fail_validate():
    """Each graph on which windows or dual_arc gives other steps than the
    walks fails validate, and each step that differs is a loop edge's:
    the walks took it as a bounce stem and left it unsigned, the cut
    signs it like any loop step.  M counts no loop step, so it is the
    walks' M.  Refusals are the same on both sides."""

    def steps(f, graph, *args):
        """(start cusp, end cusp, step) of every step of f's windows or
        dual arc, or f's refusal message."""
        try:
            result = f(graph, *args)
        except GraphError as exc:
            return [str(exc)]
        return [(p.start_cusp, p.end_cusp, s) for p in (result if isinstance(result, list) else [result]) for s in p.steps]

    differs = set()
    for tag, text in rewired_fixture_texts():
        graph = parse_graph(text)
        names = graph.coordinate_edges()
        cut = steps(windows, graph) + [x for n in names for x in steps(dual_arc, graph, n)]
        walk = steps(oracle_windows, graph) + [x for n in names for x in steps(oracle_dual_arc, graph, n)]
        if cut == walk:
            continue
        differs.add(tag)
        assert not validate(graph).ok
        assert len(cut) == len(walk), tag
        for c, w in zip(cut, walk):
            if c != w:
                assert not isinstance(c, str) and not isinstance(w, str), tag
                (c_start, c_end, s), (w_start, w_end, t) = c, w
                assert (c_start, c_end, s.edge, s.exit_half) == (w_start, w_end, t.edge, t.exit_half), tag
                assert t.sign is None and graph.edges[t.edge].kind == "loop", tag
    assert differs == {"%s %s" % (name, swap) for name, swaps in CUT_DIFFERS_FROM_WALKS.items() for swap in swaps.split()}


def test_dual_arc_lambdas_print_as_their_words_whatever_the_order_of_q():
    """A point built by hand with its q dict in reverse order: the closed
    form folds each radical in the order of q, as the matrix word does,
    so both print every lambda in the same r*sqrt(n) form."""
    rng = random.Random(3)
    for _ in range(200):
        graph = random_spine(rng)
        point = random_exact_point(rng, graph)
        backwards = CoordinatePoint(True, q=dict(reversed(point.q.items())), omega=point.omega)
        lam = lambda_of_dual_arcs(graph, backwards)
        for name in graph.coordinate_edges():
            assert str(lam[name]) == str(lambda_length(graph, dual_arc(graph, name), backwards))


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda lam: lam.omega.pop("w4"), "missing loop weights for w4"),
        (lambda lam: lam.values.__setitem__("zz", Fraction(1)), "lambda given for zz, which is not a coordinate edge"),
        (lambda lam: lam.omega.__setitem__("zz", Fraction(2)), "loop weight given for zz, which is not a loop edge"),
        (lambda lam: lam.values.__setitem__("w1", Fraction(1)), "lambda given for w1, which is not a coordinate edge"),
        (lambda lam: lam.values.pop("a2"), "missing lambda values for a2"),
    ],
)
def test_shear_from_lambda_refuses_wrong_names(five_holes, change, message):
    lam = lambda_of_dual_arcs(five_holes)
    change(lam)
    with pytest.raises(ValueError, match="^%s$" % message):
        shear_from_lambda(five_holes, lam)


@pytest.mark.parametrize("value", [1, 3, "3", "4/6", Fraction(2, 3), Fraction(7)])
def test_point_reads_int_str_and_fraction_q_alike(value):
    """A Fraction q is kept as it is; ints and strings become the same
    Fraction."""
    want = Fraction(value)
    points = [CoordinatePoint(True, q={"e": v}) for v in (value, want, str(want))]
    if want.denominator == 1:
        points.append(CoordinatePoint(True, q={"e": want.numerator}))
    for p in points:
        assert p == points[0]
        assert type(p.q["e"]) is Fraction and p.q["e"] == want


@pytest.mark.parametrize("value", [Fraction(0), Fraction(-1, 2), 0, -3, "-1/2"])
def test_point_refuses_non_positive_q(value):
    with pytest.raises(ValueError, match=r"^q\[e\] = .* must be positive$"):
        CoordinatePoint(True, q={"e": value})


def _dense_inverse_holds(view):
    """K M = 2I by a dense sum over every column, as DualView.inverse()
    checked it before it summed over nonzeros."""
    cols = range(len(view.names))
    return all([sum(k * view.rows[j][c] for j, k in terms) for c in cols] == [2 * (c == i) for c in cols]
               for i, terms in enumerate(view.local))


def test_inverse_check_agrees_with_the_dense_sums():
    """inverse() sums K M = 2I over the nonzeros of K and of M's rows;
    on 300 spines, most with one entry of K moved by +-1 (on or off the
    diagonal, into a zero or out of one), it refuses exactly where the
    dense sums over every column fail."""
    rng = random.Random(4)
    refused = 0
    for _ in range(300):
        view = coords.DualView(random_spine(rng))
        n = len(view.names)
        if rng.random() < 0.8:
            i, j = rng.randrange(n), rng.randrange(n)
            entries = dict(view.local[i])
            entries[j] = entries.get(j, 0) + rng.choice((-1, 1))
            row = tuple(sorted((c, k) for c, k in entries.items() if k))
            view.local = view.local[:i] + (row,) + view.local[i + 1:]
        try:
            view.inverse()
        except ValueError as exc:
            assert "not inverted by the local rule" in str(exc)
            assert not _dense_inverse_holds(view)
            refused += 1
        else:
            assert _dense_inverse_holds(view)
    assert 150 < refused < 300
