"""Bracket table, window form, vertex-sum form, centers, inversion."""

import random
from fractions import Fraction

import pytest

from spineforms import (
    center_vectors,
    geodesic_function,
    penner_form_matrix,
    poisson_bracket,
    poisson_matrix,
    verify_inverse,
    window_form_matrix,
)
from spineforms import coords
from spineforms.coords import dual_view
from spineforms.forms import CoordinateIndexedMatrix
from spineforms.algebra import LaurentPoly
from spineforms.fuzz import random_closed_word, random_exact_point, random_spine
from spineforms.paths import PathWord, t_var
from spineforms.ribbon import emit_graph, parse_graph

from conftest import ALL_FIXTURES, exact_values, fixture_text, load_fixture
from dense_oracle import dense_rows, dense_verify_inverse, numeric_bracket


def as_ints(mat):
    return [[int(x) for x in row] for row in mat.data]


T3_TABLE = [[0, 1, -1], [-1, 0, 1], [1, -1, 0]]

# restricted to (a1, b1, a2, b2, a3, b3)
FIVE_HOLES_BRACKET = [
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 1, -1, 0, 0],
    [0, -1, 0, 1, 0, 0],
    [0, 1, -1, 0, 1, -1],
    [0, 0, 0, -1, 0, 1],
    [0, 0, 0, 1, -1, 0],
]

FIVE_HOLES_WINDOW = [
    [0, 4, 4, 4, 4, 4],
    [-4, 0, 0, 0, 0, 0],
    [-4, 0, 0, 4, 4, 4],
    [-4, 0, -4, 0, 0, 0],
    [-4, 0, -4, 0, 0, 4],
    [-4, 0, -4, 0, -4, 0],
]

AB_ORDER = ("a1", "b1", "a2", "b2", "a3", "b3")


def test_t3_bracket_and_window(t3):
    assert as_ints(poisson_matrix(t3)) == T3_TABLE
    assert as_ints(window_form_matrix(t3)) == T3_TABLE


def test_t3_vertex_sum_is_quarter(t3):
    penner = penner_form_matrix(t3)
    window = window_form_matrix(t3)
    assert penner == window.scaled(Fraction(1, 4))


def test_t3_leaf_inversion(t3):
    c, residual = verify_inverse(window_form_matrix(t3), poisson_matrix(t3), leaf=True)
    assert c == -3
    assert residual == 0


def test_five_holes_bracket_matches_frozen(five_holes):
    got = poisson_matrix(five_holes).restrict(AB_ORDER)
    assert as_ints(got) == FIVE_HOLES_BRACKET


def test_five_holes_window_matches_frozen(five_holes):
    got = window_form_matrix(five_holes).restrict(AB_ORDER)
    assert as_ints(got) == FIVE_HOLES_WINDOW
    quarter = [[x // 4 for x in row] for row in FIVE_HOLES_WINDOW]
    assert [[x * 4 for x in row] for row in quarter] == FIVE_HOLES_WINDOW


def test_five_holes_inversion(five_holes):
    window = window_form_matrix(five_holes)
    table = poisson_matrix(five_holes)
    block = window.nonzero_row_names()
    assert set(block) == set(AB_ORDER)
    c, residual = verify_inverse(window.restrict(block), table.restrict(block))
    assert (c, residual) == (-4, 0)


def test_two_loop_inversion(two_loops):
    window = window_form_matrix(two_loops)
    table = poisson_matrix(two_loops)
    block = window.nonzero_row_names()
    assert block == ["a1", "b1"]
    assert as_ints(window.restrict(block)) == [[0, 4], [-4, 0]]
    c, residual = verify_inverse(window.restrict(block), table.restrict(block))
    assert (c, residual) == (-4, 0)


def test_four_cusp_product_is_not_scalar(four_cusps):
    window = window_form_matrix(four_cusps)
    table = poisson_matrix(four_cusps)
    c, residual = verify_inverse(window, table)
    assert c is None or residual != 0


def _inverse_cases():
    """(form, bracket) for every fixture and 200 seeded spines, whole
    and restricted to the nonzero block of the window form."""
    rng = random.Random(1)
    for graph in [load_fixture(name) for name in ALL_FIXTURES] + [random_spine(rng) for _ in range(200)]:
        window, table = window_form_matrix(graph), poisson_matrix(graph)
        yield window, table
        block = window.nonzero_row_names()
        if block:
            yield window.restrict(block), table.restrict(block)


def test_inverse_check_matches_the_dense_oracle():
    """Without leaf, (c, residual) is the dense W P's.  With leaf,
    P W P = c P passes exactly where the projection T (W P) T = c T
    does, with the same c."""
    def passes(result):
        return result[0] is not None and result[1] == 0

    cases = failing = 0
    for k, (form, bracket) in enumerate(_inverse_cases()):
        assert verify_inverse(form, bracket) == dense_verify_inverse(form, bracket), k
        got, want = verify_inverse(form, bracket, leaf=True), dense_verify_inverse(form, bracket, leaf=True)
        assert passes(got) == passes(want), k
        if passes(want):
            assert got[0] == want[0], k
        cases += 1
        failing += not passes(want)
    assert cases > 300 and failing > 50


def test_penner_table_inverts_as_a_quarter_of_the_window_form():
    """verify_inverse reads Penner's Fraction table as it holds it: on
    the window form's nonzero block it returns exactly (c/4, residual/4)
    of the window form's, both Fractions, in both modes, on the fixtures
    and 300 spines each of seeds 1 and 20261017."""
    graphs = [load_fixture(name) for name in ALL_FIXTURES]
    for seed in (1, 20261017):
        rng = random.Random(seed)
        graphs += [random_spine(rng) for _ in range(300)]
    scalars = residuals = 0
    for k, graph in enumerate(graphs):
        window, table = window_form_matrix(graph), poisson_matrix(graph)
        block = window.nonzero_row_names()
        penner, table = penner_form_matrix(graph).restrict(block), table.restrict(block)
        for leaf in (False, True):
            c, residual = verify_inverse(window.restrict(block), table, leaf=leaf)
            got = verify_inverse(penner, table, leaf=leaf)
            assert got == (None if c is None else c / 4, residual / 4), (k, leaf)
            assert type(got[1]) is Fraction and type(got[0]) is (Fraction if c is not None else type(None)), (k, leaf)
            scalars += c is not None and residual == 0
            residuals += residual != 0
    assert scalars > 400 and residuals > 400


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_antisymmetry_and_integrality(name):
    graph = load_fixture(name)
    for mat in (poisson_matrix(graph), window_form_matrix(graph), penner_form_matrix(graph)):
        n = len(mat.names)
        assert all(mat.data[i][j] == -mat.data[j][i] for i in range(n) for j in range(n))
    for mat in (poisson_matrix(graph), window_form_matrix(graph)):
        assert all(type(x) is int for row in mat.data for x in row)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_vertex_sum_proportional_to_window(name):
    graph = load_fixture(name)
    assert penner_form_matrix(graph) == window_form_matrix(graph).scaled(Fraction(1, 4))


def test_penner_table_is_quarter_counts_in_rows_of_their_own():
    """Every entry is the Fraction (M_ji - M_ij)/4; entries share one
    Fraction per value, but no two rows are one list, so writing into a
    row changes no other row or later table."""
    rng = random.Random(20261019)
    graphs = [load_fixture(name) for name in ALL_FIXTURES] + [random_spine(rng) for _ in range(100)]
    for graph in graphs:
        m = dense_rows(dual_view(graph))
        data = penner_form_matrix(graph).data
        n = len(m)
        assert all(type(x) is Fraction and x == Fraction(m[j][i] - m[i][j], 4)
                   for i, row in enumerate(data) for j, x in enumerate(row))
        assert all(type(row) is list for row in data) and len({id(row) for row in data}) == n
        if n > 1:
            data[0][1] = None
            assert all(x is not None for row in data[1:] for x in row)
            assert None not in penner_form_matrix(graph).data[0]


def test_penner_form_refuses_a_broken_local_rule(monkeypatch, t3):
    """Penner's form is 1/4 (M^T - M) only where K M = 2I: one wrong
    entry of K makes it refuse, with DualView.inverse()'s error."""
    build = coords.DualView.__init__

    def broken(self, graph):
        build(self, graph)
        (j, k), *rest = self.local[0]
        self.local = (((j, k + 1), *rest),) + self.local[1:]

    monkeypatch.setattr(coords.DualView, "__init__", broken)
    with pytest.raises(ValueError, match="not inverted by the local rule"):
        penner_form_matrix(t3)


def test_one_fock_table_against_a_dense_oracle():
    """On every fixture and 300 seeded spines: P and W hold ints, the
    window form equals M^T P M by plain triple loops and four times
    Penner's form, the local inverse rule made dense is P + E (E: 1 on
    each pending edge's diagonal), and the bracket table is built
    without the dual view."""
    texts = [fixture_text(name) for name in ALL_FIXTURES]
    rng = random.Random(1)
    texts += [emit_graph(random_spine(rng)) for _ in range(300)]
    for k, text in enumerate(texts):
        graph = parse_graph(text)
        p = poisson_matrix(graph).data
        window = window_form_matrix(graph)
        assert all(type(x) is int for mat in (p, window.data) for row in mat for x in row), k
        assert graph._dual is None, k
        assert penner_form_matrix(graph).scaled(4) == window, k
        view = dual_view(graph)
        m = dense_rows(view)
        n = len(m)
        pm = [[sum(p[u][v] * m[v][g] for v in range(n)) for g in range(n)] for u in range(n)]
        mtpm = [[sum(m[u][f] * pm[u][g] for u in range(n)) for g in range(n)] for f in range(n)]
        assert window.data == mtpm, k
        k_dense = [[0] * n for _ in range(n)]
        for i, terms in enumerate(view.inverse()):
            for j, x in terms:
                k_dense[i][j] = x
        for i, name in enumerate(view.names):
            p[i][i] += graph.edges[name].kind == "pending"
        assert k_dense == p, k


@pytest.mark.parametrize("name", ("sigma_0_2_1", "sigma_0_3_1", "sigma_0_5_1"))
def test_pending_row_drops_out_of_window_form(name):
    graph = load_fixture(name)
    window = window_form_matrix(graph)
    assert all(window["pi", v] == 0 for v in window.names)
    assert all(window[v, "pi"] == 0 for v in window.names)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_centers_annihilate_bracket(name):
    graph = load_fixture(name)
    table = poisson_matrix(graph)
    basis = center_vectors(graph)
    assert basis.loop_names == list(graph.loop_edges())
    assert len(basis.holes) == graph.counts()["cusped_faces"]
    for _, vec in basis.holes:
        for i in range(len(vec)):
            assert sum(table.data[i][j] * vec[j] for j in range(len(vec))) == 0


def test_center_vector_counts_traversals(t3):
    basis = center_vectors(t3)
    assert basis.holes == [(0, [2, 2, 2])]


def test_matrix_container_behaviour():
    m = CoordinateIndexedMatrix(("x", "y", "z"), [[0, 3, 0], [-3, 0, 0], [0, 0, 0]])
    assert m["x", "y"] == 3 and type(m["x", "y"]) is int
    assert m.nonzero_row_names() == ["x", "y"]
    assert m.restrict(("y", "x")).data == [[0, -3], [3, 0]]
    assert m.restrict(("z",)).data == [[0]]
    assert m == m.scaled(1)
    assert m != m.scaled(2)
    quarter = m.scaled(Fraction(1, 4))
    assert quarter["x", "y"] == Fraction(3, 4)
    assert quarter.scaled(4) == m
    assert m != CoordinateIndexedMatrix(("x", "z", "y"), m.data)
    with pytest.raises(ValueError, match="shape"):
        CoordinateIndexedMatrix(("x", "y"), [[0, 1]])
    with pytest.raises(ValueError, match="shape"):
        CoordinateIndexedMatrix(("x", "y"), [[0, 1], [1]])


def test_bracket_of_squared_half_coordinates(two_loops):
    """4{t_a1^2, t_b1^2} = 4 P[a1, b1] t_a1^2 t_b1^2: {Y_u, Y_v} = P_uv."""
    table = poisson_matrix(two_loops)
    ta, tb = LaurentPoly.var("t_a1", 2), LaurentPoly.var("t_b1", 2)
    assert table["a1", "b1"] != 0
    assert poisson_bracket(two_loops, ta, tb) == ta * tb * (4 * table["a1", "b1"])
    assert poisson_bracket(two_loops, ta, ta).is_zero()


def test_bracket_center_vanishes(two_loops):
    basis = center_vectors(two_loops)
    _, vec = basis.holes[0]
    center = LaurentPoly.monomial_from(1, {t_var(n): 2 * c for n, c in zip(basis.names, vec)})
    word = PathWord.from_tokens(two_loops, ["pi", "a1", "w1+", "a1", "b1", "w2-", "b1", "pi"], closed=True)
    geo = geodesic_function(two_loops, word).value
    assert not poisson_bracket(two_loops, LaurentPoly.var("t_a1"), geo).is_zero()
    assert poisson_bracket(two_loops, center, geo).is_zero()
    # the loop weights are Casimirs
    assert poisson_bracket(two_loops, LaurentPoly.var("w_w1"), geo).is_zero()


def test_bracket_of_commuting_loops(five_holes):
    w1 = PathWord.from_tokens(five_holes, ["pi", "a1", "w1+", "a1", "pi"], closed=True)
    w3 = PathWord.from_tokens(five_holes, ["pi", "b1", "b2", "a3", "w3+", "a3", "b2", "b1", "pi"], closed=True)
    g1 = geodesic_function(five_holes, w1).value
    g3 = geodesic_function(five_holes, w3).value
    # disjoint boundary-parallel curves commute
    assert poisson_bracket(five_holes, g1, g3).is_zero()


@pytest.mark.parametrize("var", ["t_zz", "w_a1", "t_w1", "w_zz", "q_a1", "a1"])
def test_bracket_refuses_foreign_variables(two_loops, var):
    """Only t_ of a coordinate edge and w_ of a loop name a variable of
    the graph."""
    geo = geodesic_function(two_loops, PathWord.from_tokens(two_loops, ["pi", "a1", "w1+", "a1", "pi"], closed=True)).value
    stray = LaurentPoly.var(var) * LaurentPoly.var("t_a1")
    with pytest.raises(ValueError, match="%s is no t_ or w_ variable" % var):
        poisson_bracket(two_loops, stray, geo)
    with pytest.raises(ValueError, match="%s is no t_ or w_ variable" % var):
        poisson_bracket(two_loops, geo, stray)


def test_bracket_is_a_poisson_bracket_and_matches_the_float_oracle():
    """On 40 seeded triples of closed words: 4{f, g} = -4{g, f}, the
    Jacobi sum is the zero polynomial, and a quarter of 4{f, g} at an
    exact point matches central differences at its float copy, within
    1e-6 relative (absolute below 1, where the exact value is 0)."""
    rng = random.Random(7)
    triples = nonzero = 0
    while triples < 40:
        graph = random_spine(rng)
        words = [random_closed_word(rng, graph, max_len=12) for _ in range(3)]
        if None in words:
            continue
        f, g, h = (geodesic_function(graph, w).value for w in words)
        fg = poisson_bracket(graph, f, g)
        assert fg == -poisson_bracket(graph, g, f)
        jacobi = (
            poisson_bracket(graph, f, poisson_bracket(graph, g, h))
            + poisson_bracket(graph, g, poisson_bracket(graph, h, f))
            + poisson_bracket(graph, h, fg)
        )
        assert jacobi.is_zero()
        point = random_exact_point(rng, graph)
        got = float(fg.subs(exact_values(point))) / 4

        def geo(word):
            return lambda p: float(geodesic_function(graph, word, p).value)

        want = numeric_bracket(graph, geo(words[0]), geo(words[1]), point.as_float())
        assert abs(got - want) <= 1e-6 * max(abs(got), 1.0), (triples, got, want)
        nonzero += not fg.is_zero()
        triples += 1
    assert nonzero >= 4
