"""Path compilation and evaluation: matrix words, lambda-lengths,
geodesic functions, sign normalization."""

from fractions import Fraction

import pytest

from spineforms import (
    LaurentPoly,
    Mat2,
    PathWord,
    SqrtRational,
    compile_path,
    evaluate,
    geodesic_function,
    lambda_length,
)
from spineforms.coords import CoordinatePoint
from spineforms.ribbon import dual_arc

from conftest import ALL_FIXTURES, load_fixture


def tokens(graph, text, closed=False):
    return PathWord.from_tokens(graph, text.split(","), closed=closed)


def test_compile_shortest_window_path(t3):
    word = compile_path(t3, tokens(t3, "p2,p3"))
    assert str(word) == "X[p3]*L*X[p2]"


def test_compile_inner_crossing(four_cusps):
    word = compile_path(four_cusps, dual_arc(four_cusps, "e"))
    assert str(word) == "X[p4]*R*X[e]*L*X[p2]"


def test_compile_loop_bounce_has_no_adjacent_turns(one_loop):
    word = compile_path(one_loop, tokens(one_loop, "pi,w+,pi", closed=True))
    assert str(word) == "X[pi]*F[w]*X[pi]"
    word_minus = compile_path(one_loop, tokens(one_loop, "pi,w-,pi", closed=True))
    assert str(word_minus) == "X[pi]*-Finv[w]*X[pi]"


def test_compile_tadpole_dual(two_loops):
    word = compile_path(two_loops, dual_arc(two_loops, "a1"))
    assert str(word) == "X[pi]*R*X[a1]*-Finv[w1]*X[a1]*L*X[pi]"


def test_formal_lambda_of_two_pendings(t3):
    lam = lambda_length(t3, tokens(t3, "p1,p2"))
    t1, t2 = LaurentPoly.var("t_p1"), LaurentPoly.var("t_p2")
    assert lam == t1 * t2


def test_lambda_at_exact_point(t3):
    point = CoordinatePoint(True, q={"p1": Fraction(4), "p2": Fraction(9), "p3": Fraction(1)})
    lam = lambda_length(t3, tokens(t3, "p1,p2"), point)
    assert lam == SqrtRational(Fraction(6))


def test_lambda_rejects_closed_paths(one_loop):
    with pytest.raises(ValueError):
        lambda_length(one_loop, tokens(one_loop, "pi,w+,pi", closed=True))


def test_geodesic_needs_matching_cusps(four_cusps):
    with pytest.raises(ValueError):
        geodesic_function(four_cusps, tokens(four_cusps, "p2,e,p3", closed=True))


def test_geodesic_function_trace(one_loop):
    gf = geodesic_function(one_loop, tokens(one_loop, "pi,w+,pi", closed=True), one_loop.point())
    assert gf.value == SqrtRational(Fraction(2))


def test_formal_geodesic_trace_is_weight(one_loop):
    word = compile_path(one_loop, tokens(one_loop, "pi,w+,pi", closed=True))
    assert evaluate(word).trace() == LaurentPoly.var("w_w")


def test_evaluate_mixed_turn_loop_word():
    """The five atoms compose as plain matrices even though compile
    never emits turns adjacent to a bounce."""
    from spineforms.paths import MatrixWord

    word = MatrixWord((("X", "pi"), ("R", ), ("F", "w"), ("L", ), ("X", "pi")))
    m = evaluate(word)
    t = LaurentPoly.var("t_pi")
    w = LaurentPoly.var("w_w")
    two_minus_w = LaurentPoly.const(2) - w
    assert m.a == LaurentPoly.const(-1)
    assert m.b == t * t * two_minus_w
    assert m.c == (t * t).inverse() * LaurentPoly.const(-1)
    assert m.d == LaurentPoly.const(1) - w


def test_all_fixture_dual_arcs_are_unimodular():
    for name in ALL_FIXTURES:
        graph = load_fixture(name)
        for edge in graph.coordinate_edges():
            m = evaluate(compile_path(graph, dual_arc(graph, edge)))
            det = m.a * m.d - m.b * m.c
            assert det == LaurentPoly.const(1), (name, edge)


def test_lambda_direction_independent():
    for name in ALL_FIXTURES:
        graph = load_fixture(name)
        for edge in graph.coordinate_edges():
            arc = dual_arc(graph, edge)
            back = arc.reversed(graph)
            assert lambda_length(graph, arc) == lambda_length(graph, back), (name, edge)


def test_from_tokens_needs_pending_ends(four_cusps):
    with pytest.raises(ValueError, match="pending"):
        tokens(four_cusps, "e,p2")


def test_from_tokens_rejects_backtracking(t3):
    with pytest.raises(ValueError):
        tokens(t3, "p1,p1")


def test_from_tokens_rejects_nonincident_jump(four_cusps):
    with pytest.raises(ValueError):
        tokens(four_cusps, "p1,p3")


def test_loop_sign_mandatory(one_loop):
    with pytest.raises(ValueError):
        tokens(one_loop, "pi,w,pi")


def test_compile_checks_loop_sign_against_order(two_loops):
    from spineforms.paths import Step

    path = tokens(two_loops, "pi,a1,w1-,a1,pi")
    steps = list(path.steps)
    steps[2] = Step("w1", "+", steps[2].exit_half)
    bad = PathWord(path.start_cusp, tuple(steps), path.end_cusp)
    with pytest.raises(ValueError, match="cyclic order"):
        compile_path(two_loops, bad)


def test_tokens_round_trip(five_holes):
    path = tokens(five_holes, "pi,a1,w1+,a1,pi", closed=True)
    assert path.tokens == ["pi", "a1", "w1+", "a1", "pi"]
    assert path.start_cusp == path.end_cusp == "c0"
    assert path.closed
