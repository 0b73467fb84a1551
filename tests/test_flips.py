"""Flip moves: matrix identities, rewiring, coordinate rules, lambda
mutation, and their exact involutivity."""

import gc
import math
import random
import weakref
from fractions import Fraction

import pytest

from spineforms import (
    CoordinatePoint,
    flip_inner,
    flip_loop_adjacent,
    lambda_of_dual_arcs,
    mutate_lambda,
    shear_from_lambda,
    verify_flip_matrix_identities,
)
from spineforms import flips
from spineforms.algebra import SqrtRational
from spineforms.coords import DualView, LambdaAssignment, dual_view
from spineforms.flips import flip_edge, flip_site
from spineforms.fuzz import _flippable, random_exact_point, random_spine
from spineforms.paths import walk_turn
from spineforms.ribbon import FatGraph, GraphError, dual_arc, emit_graph, parse_graph, validate, windows

from conftest import ALL_FIXTURES, fixture_text, load_fixture, partial_point
from dense_oracle import dense_rows
from exchange_oracle import parts, ptolemy
from walk_oracle import fresh_move


def test_symbolic_identities_all_hold():
    results = verify_flip_matrix_identities()
    assert [label for label, _ in results] == [
        "quad-right-right",
        "quad-right-left",
        "quad-adjacent",
        "loop-left",
        "loop-right",
    ]
    assert all(ok for _, ok in results)


# Float oracle: both sides of each identity multiplied out as plain 2x2
# float products, with t_A~ = t_A u, t_B~ = t_B t_Z/u, u = sqrt(1 + t_Z^2)
# in a quadrilateral and t_A~ = t_A v, t_B~ = t_B t_Z^2/v,
# v = sqrt(1 + w t_Z^2 + t_Z^4), at a loop.


def _mul(m, n):
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def _word(*mats):
    out = mats[0]
    for m in mats[1:]:
        out = _mul(out, m)
    return out


def _edge(t):
    return ((0.0, -t), (1 / t, 0.0))


_EL = ((0.0, 1.0), (-1.0, -1.0))
_ER = ((1.0, 1.0), (-1.0, 0.0))


def _identity_sides(ta, tb, tc, td, tz, w):
    u = math.sqrt(1 + tz * tz)
    v = math.sqrt(1 + w * tz * tz + tz ** 4)
    x, zt = _edge, _edge(1 / tz)
    fw, fw_inv = ((0.0, 1.0), (-1.0, -w)), ((w, 1.0), (-1.0, 0.0))
    return {
        "quad-right-right": (_word(x(td), _ER, x(tz), _ER, x(ta)),
                             _word(x(td * tz / u), _ER, x(ta * u))),
        "quad-right-left": (_word(x(td), _ER, x(tz), _EL, x(tb)),
                            _word(x(td * tz / u), _EL, zt, _ER, x(tb * tz / u))),
        "quad-adjacent": (_word(x(tc), _ER, x(td)),
                          _word(x(tc * u), _ER, zt, _ER, x(td * tz / u))),
        "loop-left": (_word(x(tb), _EL, x(ta)),
                      _word(x(tb * tz * tz / v), _EL, zt, fw, zt, _EL, x(ta * v))),
        "loop-right": (_word(x(tb), _ER, x(tz), fw_inv, x(tz), _ER, x(ta)),
                       _word(x(tb * tz * tz / v), _ER, x(ta * v))),
    }


def _close(m, n, rel=1e-9):
    scale = max(abs(e) for row in m + n for e in row)
    return all(abs(a - b) <= rel * scale for ra, rb in zip(m, n) for a, b in zip(ra, rb))


def test_identities_hold_in_floats():
    rng = random.Random(2024)
    for _ in range(50):
        ta, tb, tc, td, tz = (rng.uniform(0.2, 5.0) for _ in range(5))
        w = rng.uniform(-1.9, 6.0)
        sides = _identity_sides(ta, tb, tc, td, tz, w)
        for label, (lhs, rhs) in sides.items():
            assert _close(lhs, rhs), (label, ta, tb, tc, td, tz, w)
        # the oracle tells a wrong B-rule, t_B~ = t_B u, from the right one
        u = math.sqrt(1 + tz * tz)
        wrong = _word(_edge(td * tz / u), _EL, _edge(1 / tz), _ER, _edge(tb * u))
        assert not _close(sides["quad-right-left"][0], wrong)


def test_inner_flip_slots_and_values(four_cusps):
    point = CoordinatePoint(
        True,
        q={"e": Fraction(2), "p1": Fraction(3), "p2": Fraction(5, 2), "p3": Fraction(7), "p4": Fraction(1, 3)},
    )
    flipped, new_point, record = flip_inner(four_cusps, "e", point)
    assert record.kind == "inner"
    assert record.slots == {"A": "p1", "B": "p2", "C": "p3", "D": "p4"}
    assert new_point.q_value("e") == Fraction(1, 2)
    assert new_point.q_value("p1") == Fraction(9)  # 3 * (1 + 2)
    assert new_point.q_value("p2") == Fraction(5, 3)  # 5/2 * 2/3
    assert new_point.q_value("p3") == Fraction(21)
    assert new_point.q_value("p4") == Fraction(2, 9)
    assert validate(flipped).ok


def test_inner_flip_is_involution(four_cusps):
    point = CoordinatePoint(
        True,
        q={"e": Fraction(7, 3), "p1": Fraction(1), "p2": Fraction(2), "p3": Fraction(3), "p4": Fraction(4)},
    )
    g1, p1, _ = flip_inner(four_cusps, "e", point)
    g2, p2, _ = flip_inner(g1, "e", p1)
    assert g2.canonical_key() == four_cusps.canonical_key()
    assert p2 == point


def test_five_holes_flip_rewiring(five_holes):
    after, _, record = flip_inner(five_holes, "b1", five_holes.point())
    assert record.slots == {"A": "pi", "B": "a1", "C": "a2", "D": "b2"}
    assert after.vertices["v1"] == ("b1_l", "b2_l", "pi_v")
    assert after.vertices["v2"] == ("b1_r", "a1_d", "a2_d")


def test_five_holes_involution_with_values(five_holes):
    rng = random.Random(3)
    q = {n: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for n in five_holes.coordinate_edges()}
    omega = {n: Fraction(rng.randint(2, 5)) for n in five_holes.loop_edges()}
    point = CoordinatePoint(True, q=q, omega=omega)
    g1, p1, _ = flip_inner(five_holes, "b1", point)
    g2, p2, _ = flip_inner(g1, "b1", p1)
    assert g2.canonical_key() == five_holes.canonical_key()
    assert p2 == point


def test_loop_stem_flip_and_alias(two_loops):
    point = CoordinatePoint(
        True,
        q={"pi": Fraction(3, 2), "a1": Fraction(2), "b1": Fraction(5)},
        omega={"w1": Fraction(3), "w2": Fraction(2)},
    )
    by_stem, p_stem, rec = flip_loop_adjacent(two_loops, "a1", point)
    by_loop, p_loop, _ = flip_loop_adjacent(two_loops, "w1", point)
    assert rec.kind == "loop-stem"
    assert by_stem.canonical_key() == by_loop.canonical_key()
    assert p_stem == p_loop
    assert validate(by_stem).ok

    g2, p2, _ = flip_loop_adjacent(by_stem, "a1", p_stem)
    assert g2.canonical_key() == two_loops.canonical_key()
    assert p2 == point


def test_loop_stem_coordinate_rule(two_loops):
    point = CoordinatePoint(
        True,
        q={"pi": Fraction(1), "a1": Fraction(2), "b1": Fraction(1)},
        omega={"w1": Fraction(3), "w2": Fraction(2)},
    )
    _, new_point, record = flip_loop_adjacent(two_loops, "a1", point)
    # grow factor 1 + w*q + q^2 with q = 2, w = 3 is 11
    s = Fraction(11)
    assert new_point.q_value("a1") == Fraction(1, 2)
    assert new_point.q_value(record.slots["A"]) == point.q_value(record.slots["A"]) * s
    assert new_point.q_value(record.slots["B"]) == point.q_value(record.slots["B"]) * 4 / s


def test_float_flip_matches_exact(four_cusps):
    exact = CoordinatePoint(
        True,
        q={"e": Fraction(3), "p1": Fraction(2), "p2": Fraction(1, 2), "p3": Fraction(4), "p4": Fraction(5)},
    )
    _, exact_after, _ = flip_inner(four_cusps, "e", exact)
    _, float_after, _ = flip_inner(four_cusps, "e", exact.as_float())
    for n in four_cusps.coordinate_edges():
        assert float_after.y_value(n) == pytest.approx(exact_after.y_value(n), abs=1e-12)


def test_float_loop_flip_involution(two_loops):
    point = CoordinatePoint(False, y={"pi": 0.4, "a1": -1.2, "b1": 0.9}, omega={"w1": 2.5, "w2": 2.0})
    g1, p1, _ = flip_loop_adjacent(two_loops, "a1", point)
    g2, p2, _ = flip_loop_adjacent(g1, "a1", p1)
    assert g2.canonical_key() == two_loops.canonical_key()
    for n in two_loops.coordinate_edges():
        assert p2.y_value(n) == pytest.approx(point.y_value(n), abs=1e-12)


def test_flip_refusals(two_loops, four_cusps):
    with pytest.raises(GraphError, match="no edge named"):
        flip_inner(four_cusps, "zz")
    with pytest.raises(GraphError, match="only inner edges flip"):
        flip_inner(four_cusps, "p1")
    with pytest.raises(GraphError, match="use flip_loop_adjacent"):
        flip_inner(two_loops, "a1")
    with pytest.raises(GraphError, match="use flip_inner"):
        flip_loop_adjacent(four_cusps, "e")
    with pytest.raises(GraphError, match="inner edge"):
        flip_loop_adjacent(two_loops, "pi")


def test_mutation_matches_flip_inner(four_cusps):
    rng = random.Random(14)
    for _ in range(5):
        q = {n: Fraction(rng.randint(1, 9), rng.randint(1, 9)) for n in four_cusps.coordinate_edges()}
        point = CoordinatePoint(True, q=q)
        lam = lambda_of_dual_arcs(four_cusps, point)
        mutated = mutate_lambda(four_cusps, lam, "e")
        g1, p1, _ = flip_inner(four_cusps, "e", point)
        actual = lambda_of_dual_arcs(g1, p1)
        assert mutated.values == actual.values
        assert shear_from_lambda(g1, mutated) == p1


def test_mutation_matches_loop_flip(two_loops):
    point = CoordinatePoint(
        True,
        q={"pi": Fraction(5, 3), "a1": Fraction(7, 2), "b1": Fraction(2)},
        omega={"w1": Fraction(5), "w2": Fraction(3)},
    )
    lam = lambda_of_dual_arcs(two_loops, point)
    mutated = mutate_lambda(two_loops, lam, "a1")
    g1, p1, _ = flip_loop_adjacent(two_loops, "a1", point)
    actual = lambda_of_dual_arcs(g1, p1)
    assert mutated.values == actual.values


def test_mutate_lambda_reports_bad_lambda_before_bad_weight(two_loops):
    lam = lambda_of_dual_arcs(two_loops)
    lambdas = LambdaAssignment(dict(lam.values, a1=Fraction(-1)), {"w1": Fraction(-7), "w2": Fraction(2)})
    for call in (lambda: mutate_lambda(two_loops, lambdas, "w1"), lambda: shear_from_lambda(two_loops, lambdas)):
        with pytest.raises(ValueError, match="^lambda a1 = -1 must be positive$"):
            call()


@pytest.mark.parametrize("exact, changes, message", [
    (True, {"e": -3}, "lambda e = -3 must be positive$"),
    (True, {"e": 0}, "lambda e = 0 must be positive$"),
    (False, {"e": math.nan}, "lambda e = nan must be positive and finite"),
    (False, {"e": -2.0}, "lambda e = -2.0 must be positive and finite"),
    (False, {"e": math.inf}, "lambda e = inf must be positive and finite"),
    (True, {"p1": None}, "missing lambda values for p1"),
    (True, {"p1": 2.0}, None),
])
def test_mutate_lambda_reads_lambdas_as_shear_from_lambda_does(four_cusps, exact, changes, message):
    """Flipping e on sigma_0_1_4 reads lambda_e and the four sides.  A
    value that is not positive (and, read as a float, finite) or is
    missing is refused with shear_from_lambda's message; an assignment
    of exact values with one float value is read as floats by both
    (message None)."""
    point = random_exact_point(random.Random(3), four_cusps)
    if not exact:
        point = CoordinatePoint(False, y={n: math.log(q) for n, q in point.q.items()})
    lam = lambda_of_dual_arcs(four_cusps, point)
    values = dict(lam.values, **changes)
    values = {n: v for n, v in values.items() if v is not None}
    lambdas = LambdaAssignment(values, lam.omega)
    if message is None:
        mutated = mutate_lambda(four_cusps, lambdas, "e")
        floats = {n: float(v) for n, v in values.items()}
        assert type(mutated["e"]) is float and mutated["e"] == mutate_lambda(four_cusps, floats, "e")["e"]
        assert shear_from_lambda(four_cusps, lambdas) == shear_from_lambda(four_cusps, floats)
        return
    for call in (lambda: mutate_lambda(four_cusps, lambdas, "e"), lambda: shear_from_lambda(four_cusps, lambdas)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("e, sides, result", [
    (1e-200, (1e200, 1.0, 1e200, 1.0), "inf"),
    (1e200, (1e-200,) * 4, "0.0"),
])
def test_mutate_lambda_refuses_a_float_exchange_out_of_range(four_cusps, e, sides, result):
    """Finite positive lambdas whose exchange overflows or underflows a
    float are refused, naming the edge, not returned as inf or 0.0."""
    lambdas = dict(zip(("e", "p1", "p2", "p3", "p4"), (e, *sides)))
    with pytest.raises(ValueError, match=r"^exchanged lambda e = %s is out of float range$" % result):
        mutate_lambda(four_cusps, lambdas, "e")


def test_mutation_exchange_relations(four_cusps, two_loops):
    point = CoordinatePoint(
        True,
        q={"e": Fraction(3, 2), "p1": Fraction(2), "p2": Fraction(3), "p3": Fraction(4), "p4": Fraction(5)},
    )
    lam = lambda_of_dual_arcs(four_cusps, point)
    mutated = mutate_lambda(four_cusps, lam, "e")
    lhs = lam["e"] * mutated["e"]
    rhs = lam["p1"] * lam["p3"] + lam["p2"] * lam["p4"]
    assert lhs == rhs

    point2 = CoordinatePoint(
        True,
        q={"pi": Fraction(2), "a1": Fraction(3), "b1": Fraction(7, 5)},
        omega={"w1": Fraction(4), "w2": Fraction(2)},
    )
    lam2 = lambda_of_dual_arcs(two_loops, point2)
    mutated2 = mutate_lambda(two_loops, lam2, "a1")
    _, _, record = flip_loop_adjacent(two_loops, "a1", point2)
    la = lam2[record.slots["A"]]
    lb = lam2[record.slots["B"]]
    assert lam2["a1"] * mutated2["a1"] == la * la + 4 * la * lb + lb * lb


def test_mutation_takes_a_loop_name_as_the_flips_do():
    """mutate_lambda reads a loop's name as its stem, as flip_edge and
    flip_loop_adjacent do, on every loop of the fixtures and of 50
    seeded spines; where the stem is pending, both refuse it.
    flip_site still refuses the loop's own name."""
    rng = random.Random(50)
    graphs = [load_fixture(name) for name in ALL_FIXTURES] + [random_spine(rng) for _ in range(50)]
    flipped = refused = 0
    for graph in graphs:
        for loop in graph.loop_edges():
            assert flip_site(graph, loop).kind == "refused"
            point = random_exact_point(rng, graph)
            lam = lambda_of_dual_arcs(graph, point)
            try:
                g1, p1, record = flip_edge(graph, loop, point)
            except GraphError as exc:
                with pytest.raises(GraphError, match="only inner edges flip; .* is pending"):
                    mutate_lambda(graph, lam, loop)
                assert "is pending" in str(exc)
                refused += 1
                continue
            assert flip_loop_adjacent(graph, loop, point)[1] == p1
            assert mutate_lambda(graph, lam, loop).values == lambda_of_dual_arcs(g1, p1).values, (loop, record.edge)
            flipped += 1
    assert flipped > 20 and refused > 0


def test_one_decimal_makes_the_reading_float(two_loops):
    """Exact lambdas with a float weight, carried or stored by a graph
    with a decimal, are read as floats by mutate_lambda and
    shear_from_lambda: the same results as the all-float input."""
    lam = lambda_of_dual_arcs(two_loops)
    floats = {n: float(v) for n, v in lam.items()}
    weights = {"w1": 2.5, "w2": 2.0}
    decimal = parse_graph(fixture_text("sigma_0_3_1").replace("omega=2\n", "omega=2.5\n", 1))
    cases = [
        (two_loops, LambdaAssignment(lam.values, weights), LambdaAssignment(floats, weights)),
        (decimal, lam.values, floats),
    ]
    for graph, mixed, all_float in cases:
        # w2 flips its stem b1
        for edge, stem in (("a1", "a1"), ("w2", "b1")):
            new = mutate_lambda(graph, mixed, edge)[stem]
            assert type(new) is float and new == mutate_lambda(graph, all_float, edge)[stem]
        assert not shear_from_lambda(graph, mixed).exact
        assert shear_from_lambda(graph, mixed) == shear_from_lambda(graph, all_float)


@pytest.mark.parametrize("exact, omega, message", [
    (True, {"w1": Fraction(-7), "w2": Fraction(2)}, "loop weight omega[w1] = -7 must be >= 0"),
    (False, {"w1": -7.0, "w2": 2.0}, "loop weight omega[w1] = -7.0 must be >= 0"),
    (False, {"w1": math.nan, "w2": 2.0}, "loop weight omega[w1] = nan must be >= 0"),
    (False, {"w1": math.inf, "w2": 2.0}, "loop weight omega[w1] = inf must be finite"),
    (True, {"w1": Fraction(3)}, "missing loop weights for w2"),
    (True, {"w1": Fraction(3), "w2": Fraction(2), "zz": Fraction(2)},
     "loop weight given for zz, which is not a loop edge"),
])
def test_mutate_lambda_refuses_the_weights_shear_from_lambda_refuses(two_loops, exact, omega, message):
    """Flipping w1 on sigma_0_3_1 turns its stem a1 and reads w1's
    weight.  Carried weights that are negative, NaN or infinite, or that
    miss a loop or name a non-loop, are refused by both readers with
    one message, at an exact point and at a float one."""
    point = two_loops.point() if exact else two_loops.point().as_float()
    lambdas = LambdaAssignment(lambda_of_dual_arcs(two_loops, point).values, omega)
    for call in (lambda: mutate_lambda(two_loops, lambdas, "w1"), lambda: shear_from_lambda(two_loops, lambdas)):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message


def test_each_flip_reads_its_site_once(monkeypatch, two_loops, four_cusps):
    """flip_edge, flip_inner, flip_loop_adjacent and mutate_lambda read
    the flip site once per call, for an inner edge, a loop's stem and a
    loop's own name."""
    calls = []
    real = flips.flip_site

    def spy(graph, name):
        calls.append(name)
        return real(graph, name)

    monkeypatch.setattr(flips, "flip_site", spy)
    lam4, lam2 = lambda_of_dual_arcs(four_cusps), lambda_of_dual_arcs(two_loops)
    cases = [
        (flip_edge, four_cusps, "e"),
        (flip_edge, two_loops, "a1"),
        (flip_edge, two_loops, "w1"),
        (flip_inner, four_cusps, "e"),
        (flip_loop_adjacent, two_loops, "a1"),
        (flip_loop_adjacent, two_loops, "w1"),
        (lambda g, n: mutate_lambda(g, lam4, n), four_cusps, "e"),
        (lambda g, n: mutate_lambda(g, lam2, n), two_loops, "a1"),
        (lambda g, n: mutate_lambda(g, lam2, n), two_loops, "w1"),
    ]
    for call, graph, name in cases:
        calls.clear()
        call(graph, name)
        assert len(calls) == 1, (call, name, calls)


@pytest.mark.parametrize("value, message", [
    (1e308, "y[p1] = inf must be finite"),
    (-1e308, "y[p2] = -inf must be finite"),
])
def test_float_flip_that_overflows_is_refused(four_cusps, value, message):
    """The new point checks the values the exchange writes, in edge
    order and with CoordinatePoint's messages, though it takes the
    untouched ones unchecked."""
    point = CoordinatePoint(False, y={n: value for n in four_cusps.coordinate_edges()})
    with pytest.raises(ValueError) as info:
        flip_edge(four_cusps, "e", point)
    assert str(info.value) == message


def _flip_every_edge(graph):
    """(kind, name, flipped graph) for every name flip_edge accepts: the
    inner edges, loop stems and loops named by themselves."""
    for name, edge in graph.edges.items():
        try:
            g1, _, record = flip_edge(graph, name)
        except GraphError:
            continue
        yield ("loop" if edge.kind == "loop" else record.kind), name, g1


def test_derived_graph_equals_a_fresh_build():
    """Each flipped graph, derived from its parent, holds the indexes,
    face order and windows of a fresh build of the same vertices, cusps
    and edges."""
    rng = random.Random(1)
    graphs = [load_fixture(n) for n in ALL_FIXTURES] + [random_spine(rng) for _ in range(300)]
    kinds = {}
    for i, graph in enumerate(graphs):
        for kind, name, g1 in _flip_every_edge(graph):
            kinds[kind] = kinds.get(kind, 0) + 1
            fresh = FatGraph(g1.vertices, g1.cusps, g1.edges)
            for attr in ("_owner", "_sigma", "_edge_of", "_mate"):
                assert getattr(g1, attr) == getattr(fresh, attr), (i, name, attr)
            assert g1.faces() == fresh.faces(), (i, name)
            assert windows(g1) == windows(fresh), (i, name)
    assert set(kinds) == {"inner", "loop-stem", "loop"} and min(kinds.values()) > 50, kinds


def test_sigma_inv_inverts_sigma_on_built_and_flipped_graphs():
    """sigma_inv, read as sigma twice, undoes sigma on every half of the
    fixtures, of 300 seeded spines and of every flip of them."""
    rng = random.Random(1)
    graphs = [load_fixture(n) for n in ALL_FIXTURES] + [random_spine(rng) for _ in range(300)]
    for i, graph in enumerate(graphs):
        for g in (graph, *(g1 for _, _, g1 in _flip_every_edge(graph))):
            for h in g._owner:
                assert g.sigma(g.sigma_inv(h)) == h == g.sigma_inv(g.sigma(h)), (i, h)


def _walk_every_turn(graph):
    """walk_turn's move for every (arrival, sign) of the graph, as
    (steps, next arrival), each read twice: the second read must hand
    back the steps the first one stored."""
    moves = {}
    for h in graph._owner:
        for sign in "+-":
            first, again = [], []
            after = walk_turn(graph, h, sign, first)
            assert walk_turn(graph, h, sign, again) == after
            assert all(a is b for a, b in zip(first, again)) and len(first) == len(again)
            moves[h, sign] = tuple(first), after
    return moves


def test_walk_moves_equal_fresh_derivations_on_spines_and_their_flips():
    """Every move walk_turn keeps in a graph's table equals the move
    derived again from sigma and the mates, on the fixtures, on 300
    seeded spines and on every flip of them.  A graph holds no table
    until it is walked (cutting its windows, dual arcs and dual view
    walks nothing), and a flipped graph starts with none though its
    parent's is full; walks on it equal walks on a fresh parse of its
    text."""
    rng = random.Random(1)
    graphs = [load_fixture(n) for n in ALL_FIXTURES] + [random_spine(rng) for _ in range(300)]
    for i, graph in enumerate(graphs):
        windows(graph)
        dual_view(graph)
        for name in graph.coordinate_edges():
            dual_arc(graph, name)
        assert graph._moves is None, i
        moves = _walk_every_turn(graph)
        for (h, sign), move in moves.items():
            assert move == fresh_move(graph, h, sign), (i, h, sign)
        for _, name, g1 in _flip_every_edge(graph):
            assert g1._moves is None, (i, name)
            moves = _walk_every_turn(g1)
            assert moves == _walk_every_turn(parse_graph(emit_graph(g1))), (i, name)
            for (h, sign), move in moves.items():
                assert move == fresh_move(g1, h, sign), (i, name, h, sign)


def test_flipped_dual_view_is_derived_by_the_closed_forms():
    """On every flip of a graph whose dual view is built, each row j != k
    of the parent's M balances the flip's grow and shrink slots,
    M_jA + M_jC = M_jB + M_jD in a quadrilateral and M_jA = M_jB at a
    loop stem: the identity behind the column rule M'_jk =
    d sum_{s in S} M_js - M_jk.  The view derived from the parent's
    equals a fresh DualView field by field, each row of M in the same
    order (dict == ignores order), whether column k was already in a
    changed row, new to it or dropped from it; its exact lambdas print
    as a fresh view's, at a point in file order and in reversed order,
    and its K' M' = 2I check holds."""
    rng = random.Random(1)
    graphs = [load_fixture(n) for n in ALL_FIXTURES] + [random_spine(rng) for _ in range(150)]
    kinds, cases = {}, {"kept": 0, "new": 0, "dropped": 0}
    for i, graph in enumerate(graphs):
        view = dual_view(graph)
        index = {n: j for j, n in enumerate(view.names)}
        for name, edge in graph.edges.items():
            if edge.kind != "inner" or flip_site(graph, name).kind == "refused":
                continue
            g1, _, record = flip_edge(graph, name)
            kinds[record.kind] = kinds.get(record.kind, 0) + 1
            grow, shrink = ("AC", "BD") if record.kind == "inner" else ("A", "B")
            for j, row in enumerate(dense_rows(view)):
                if view.names[j] != name:
                    count = lambda slots: sum(row[index[record.slots[x]]] for x in slots)
                    assert count(grow) == count(shrink), (i, name, view.names[j])
            assert type(g1._dual) is tuple, (i, name)
            derived, fresh = dual_view(g1), DualView(g1)
            assert (derived.names, derived.local) == (fresh.names, fresh.local), (i, name)
            k = index[name]
            for j, (before, row, want) in enumerate(zip(view.rows, derived.rows, fresh.rows)):
                assert list(row.items()) == list(want.items()), (i, name, j)
                if j != k and row is not before:
                    cases["kept" if k in before and k in row else "new" if k in row else "dropped"] += 1
            point = random_exact_point(rng, g1)
            for q in (point.q, dict(reversed(point.q.items()))):
                assert list(map(str, derived.exact_lambdas(q))) == list(map(str, fresh.exact_lambdas(q))), (i, name)
            assert derived.inverse() == fresh.local, (i, name)
    assert set(kinds) == {"inner", "loop-stem"} and min(kinds.values()) > 100, kinds
    assert min(cases.values()) > 100, cases


def test_a_flip_keeps_no_parent_alive(four_cusps):
    """A flip records its parent's view only once that view is built;
    the record holds the view, not the graph, and goes once the flipped
    graph's view is derived.  A graph still holding a record passes
    nothing on, so flips never chain parents."""
    g1, _, _ = flip_edge(four_cusps, "e")
    assert g1._dual is None
    parent = dual_view(four_cusps)
    g1, p1, _ = flip_edge(four_cusps, "e")
    assert type(g1._dual) is tuple and g1._dual[0] is parent
    assert not any(isinstance(x, FatGraph) for x in g1._dual)
    g2, _, _ = flip_edge(g1, "e", p1)
    assert g2._dual is None
    view = dual_view(g1)
    assert g1._dual is view and type(view) is DualView
    assert dense_rows(dual_view(g2)) == dense_rows(DualView(g2))

    graph = parse_graph(fixture_text("sigma_0_1_4"))
    dual_view(graph)
    g1, _, _ = flip_edge(graph, "e")
    ref = weakref.ref(graph)
    del graph
    gc.collect()
    assert ref() is None
    assert dense_rows(dual_view(g1)) == dense_rows(DualView(g1))


def test_flip_site_is_read_once_per_graph_and_edge(monkeypatch, four_cusps):
    """flip_site caches its site on the graph: a flip and the exchange of
    its lambdas on the same graph and edge derive it once, and the
    flipped graph, a new graph, derives its own."""
    assert flip_site(four_cusps, "e") is flip_site(four_cusps, "e")
    calls = []
    real = flips._read_site

    def spy(graph, name):
        calls.append(name)
        return real(graph, name)

    monkeypatch.setattr(flips, "_read_site", spy)
    for graph, name, stem in ((load_fixture("sigma_0_1_4"), "e", "e"), (load_fixture("sigma_0_3_1"), "w1", "a1")):
        lam = lambda_of_dual_arcs(graph)
        g1, _, _ = flip_edge(graph, name)
        mutate_lambda(graph, lam, name)
        assert calls == [stem], calls
        flip_edge(g1, name)
        assert calls == [stem, stem], calls
        calls.clear()


def _exchange_outcome(call):
    """parts() of a new lambda, or the refusal's type and message."""
    try:
        return parts(call())
    except ValueError as exc:
        return ("refused", type(exc).__name__, str(exc))


def _agree_with_the_oracle(graph, lambdas, name):
    def new():
        out = mutate_lambda(graph, lambdas, name)
        return out[flips._resolve(graph, name)[0]]

    got = _exchange_outcome(new)
    assert got == _exchange_outcome(lambda: ptolemy(graph, lambdas, name)), (emit_graph(graph), name)
    return got


@pytest.mark.parametrize("seed", [1, 20261017])
def test_exchange_matches_the_sqrt_rational_oracle(seed):
    """mutate_lambda folds the exchange in ints; on 400 random spines
    at an exact point it gives the (rat, rad) the Ptolemy formula over
    the earlier SqrtRational operators gives, on every flippable edge
    and every loop's name, at the point's loop weights and at weights
    0 and 1 (orbifold orders 2 and 3)."""
    rng = random.Random(seed)
    kinds = {"inner": 0, "loop-stem": 0}
    for _ in range(400):
        graph = random_spine(rng)
        lam = lambda_of_dual_arcs(graph, random_exact_point(rng, graph))
        loops = graph.loop_edges()
        weights = [lam.omega] + [{n: Fraction(w) for n in loops} for w in (0, 1) if loops]
        for omega in weights:
            lambdas = LambdaAssignment(lam.values, omega)
            for name in _flippable(graph) + loops:
                got = _agree_with_the_oracle(graph, lambdas, name)
                if got[0] == "sqrt":
                    kinds[flip_site(graph, flips._resolve(graph, name)[0]).kind] += 1
                else:  # a loop whose stem is a pending edge
                    assert got[2].startswith("only inner edges flip") and name in loops
    assert kinds["inner"] > 500 and kinds["loop-stem"] > 200, kinds


def test_exchange_matches_the_oracle_across_square_classes():
    """Arbitrary exact lambdas: Fractions, ints and SqrtRationals whose
    radicands share a class or not, with now and then a missing or a
    non-positive value.  The new lambda, its type (a Fraction exactly
    when no value read is a SqrtRational) and every refusal, message
    and order included, are the oracle's."""
    rng = random.Random(5)
    rads = (1, 2, 3, 6, 8, 12, 18, 27)
    outcomes = {"sqrt": 0, "Fraction": 0, "refused": 0}
    messages = set()
    for _ in range(400):
        graph = random_spine(rng)
        values = {}
        for n in graph.coordinate_edges():
            rat = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            kind = rng.randrange(12)
            if kind < 4:
                values[n] = SqrtRational(rat, rng.choice(rads))
            elif kind < 8:
                values[n] = rat
            elif kind < 10:
                values[n] = rng.randint(1, 5)
            elif kind == 10:
                values[n] = -rat
        omega = {n: Fraction(rng.randint(0, 4), rng.randint(1, 2)) for n in graph.loop_edges()}
        lambdas = LambdaAssignment(values, omega)
        for name in _flippable(graph):
            got = _agree_with_the_oracle(graph, lambdas, name)
            outcomes[got[0]] += 1
            if got[0] == "refused":
                messages.add(got[2].split(" ")[0])
    assert min(outcomes.values()) > 100, outcomes
    assert {"incompatible", "lambda", "missing"} <= messages


@pytest.mark.parametrize("flip", [flip_edge, flip_inner])
@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize("given, missing", [({"e1": 2}, "e"), ({"e": 2, "p1": 3, "p4": 5}, "p2")])
def test_flip_refuses_a_point_missing_a_coordinate_edge(flip, exact, given, missing):
    """A flip of a point with no value for some coordinate edge is
    refused with a ValueError naming the first such edge in file order,
    worded as lambda_of_dual_arcs words it, not with a KeyError."""
    graph = load_fixture("sigma_0_1_4")
    label = "q" if exact else "y"
    with pytest.raises(ValueError, match=r"^point has no %s value for coordinate edge %s$" % (label, missing)):
        flip(graph, "e", partial_point(exact, given))


@pytest.mark.parametrize("exact", [True, False])
@pytest.mark.parametrize(
    "values, omega, refusal",
    [
        ({"pi": 2, "a1": 3, "b1": 5}, {}, "weight for loop edge w1"),
        ({"pi": 2, "a1": 3, "b1": 5}, {"w1": 2}, "weight for loop edge w2"),
        ({"a1": 3, "b1": 5}, {}, "{} value for coordinate edge pi"),
    ],
    ids=["w1", "w2", "pi"],
)
def test_flip_refuses_a_point_missing_a_weight(exact, values, omega, refusal):
    """With every coordinate value there, the first loop with no weight
    is named in file order, whether the flip reads it or not; a missing
    coordinate value is named before any missing weight."""
    graph = load_fixture("sigma_0_3_1")
    with pytest.raises(ValueError, match="^point has no %s$" % refusal.format("q" if exact else "y")):
        flip_edge(graph, "w1", partial_point(exact, values, omega))
