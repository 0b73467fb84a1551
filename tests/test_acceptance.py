"""End-to-end checks, one per numbered requirement, each with a time budget.

Every test here freezes behavior the rest of the suite exercises piecemeal:
window orderings, the six-coordinate bracket and window matrices of the
five-hole disc, inversion constants, fuzzed structural properties, flip
identities, the shear/lambda bijection, centers, form proportionality, and
invariance of geodesic brackets under flips.
"""

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from spineforms import (
    CoordinatePoint,
    center_vectors,
    flip_inner,
    geodesic_function,
    lambda_of_dual_arcs,
    mutate_lambda,
    penner_form_matrix,
    poisson_bracket,
    poisson_matrix,
    shear_from_lambda,
    verify_flip_matrix_identities,
    verify_inverse,
    window_form_matrix,
)
from spineforms.algebra import LaurentPoly
from spineforms.flips import flip_loop_adjacent
from spineforms.fuzz import random_closed_word, random_exact_point, run_suite
from spineforms.paths import PathWord, t_var
from spineforms.ribbon import windows

from conftest import ALL_FIXTURES, exact_values, load_fixture
from dense_oracle import cross_ratio


@contextmanager
def budget(seconds):
    t0 = time.perf_counter()
    yield
    elapsed = time.perf_counter() - t0
    assert elapsed < seconds, "took %.2fs, budget %gs" % (elapsed, seconds)


AB_ORDER = ("a1", "b1", "a2", "b2", "a3", "b3")

SIX_COORD_BRACKET = [
    [0, 1, 0, 0, 0, 0],
    [-1, 0, 1, -1, 0, 0],
    [0, -1, 0, 1, 0, 0],
    [0, 1, -1, 0, 1, -1],
    [0, 0, 0, -1, 0, 1],
    [0, 0, 0, 1, -1, 0],
]

SIX_COORD_SYMPLECTIC = [
    [0, 1, 1, 1, 1, 1],
    [-1, 0, 0, 0, 0, 0],
    [-1, 0, 0, 1, 1, 1],
    [-1, 0, -1, 0, 0, 0],
    [-1, 0, -1, 0, 0, 1],
    [-1, 0, -1, 0, -1, 0],
]


def test_criterion_01_five_hole_window_order():
    """The five-hole disc has one window and a pinned coordinate order."""
    with budget(0.1):
        graph = load_fixture("sigma_0_5_1")
        wins = windows(graph)
        assert len(wins) == 1
        assert wins[0].coordinate_tokens(graph) == [
            "pi", "a1", "a1", "b1", "a2", "a2", "b2",
            "a3", "a3", "b3", "b3", "b2", "b1", "pi",
        ]


def test_criterion_02_five_hole_bracket_matrix():
    """Bracket restricted to the six interior coordinates, exact integers."""
    with budget(0.1):
        graph = load_fixture("sigma_0_5_1")
        got = poisson_matrix(graph).restrict(AB_ORDER)
        assert [[int(x) for x in row] for row in got.data] == SIX_COORD_BRACKET


def test_criterion_03_window_form_inverts_bracket():
    """Window form is 4x the pinned symplectic matrix and inverts the
    bracket on the interior block with constant -4, exactly."""
    with budget(0.1):
        graph = load_fixture("sigma_0_5_1")
        window = window_form_matrix(graph).restrict(AB_ORDER)
        expected = [[4 * x for x in row] for row in SIX_COORD_SYMPLECTIC]
        assert [[int(x) for x in row] for row in window.data] == expected
        full = window_form_matrix(graph)
        block = full.nonzero_row_names()
        c, residual = verify_inverse(full.restrict(block), poisson_matrix(graph).restrict(block))
        assert (c, residual) == (Fraction(-4), Fraction(0))

        small = load_fixture("sigma_0_3_1")
        sw = window_form_matrix(small)
        block = sw.nonzero_row_names()
        c2, r2 = verify_inverse(sw.restrict(block), poisson_matrix(small).restrict(block))
        assert (c2, r2) == (Fraction(-4), Fraction(0))


def test_criterion_04_dual_arc_monomiality():
    """On 200 random spines every dual arc's formal lambda-length is a
    single unit-coefficient monomial with no loop-weight dependence."""
    with budget(30.0):
        result = run_suite("monomiality", 200, seed=20260816)
        assert result.trials == 200
        assert result.failures == [], result.summary()


def test_criterion_05_sign_definite_entries():
    """Entries of 500 random arc words and traces of 200 random closed
    words are sign-definite integer Laurent polynomials."""
    with budget(60.0):
        result = run_suite("positivity", 500, seed=20260816)
        assert result.failures == [], result.summary()


def test_criterion_06_flip_identities_and_exchange():
    """The five symbolic flip identities hold, flips are involutive on
    exact points, and on 100 random rational points of the four-cusp
    sphere the mutated lambda satisfies the exchange relation, matches
    the cross-ratio, and maps back to the flipped shear point."""
    with budget(10.0):
        assert all(ok for _, ok in verify_flip_matrix_identities())

        four_cusps = load_fixture("sigma_0_1_4")
        two_loops = load_fixture("sigma_0_3_1")
        rng = random.Random(618)

        point = CoordinatePoint(
            True,
            q={n: Fraction(rng.randint(1, 9), rng.randint(1, 9))
               for n in four_cusps.coordinate_edges()},
        )
        g1, p1, _ = flip_inner(four_cusps, "e", point)
        g2, p2, _ = flip_inner(g1, "e", p1)
        assert g2.canonical_key() == four_cusps.canonical_key()
        assert p2 == point

        lpoint = CoordinatePoint(
            True,
            q={"pi": Fraction(5, 2), "a1": Fraction(3), "b1": Fraction(4, 7)},
            omega={"w1": Fraction(5), "w2": Fraction(2)},
        )
        h1, lp1, _ = flip_loop_adjacent(two_loops, "a1", lpoint)
        h2, lp2, _ = flip_loop_adjacent(h1, "a1", lp1)
        assert h2.canonical_key() == two_loops.canonical_key()
        assert lp2 == lpoint

        for _ in range(100):
            q = {n: Fraction(rng.randint(1, 12), rng.randint(1, 12))
                 for n in four_cusps.coordinate_edges()}
            point = CoordinatePoint(True, q=q)
            lam = lambda_of_dual_arcs(four_cusps, point)
            mutated = mutate_lambda(four_cusps, lam, "e")
            flipped, new_point, record = flip_inner(four_cusps, "e", point)
            la, lb = lam[record.slots["A"]], lam[record.slots["B"]]
            lc, ld = lam[record.slots["C"]], lam[record.slots["D"]]
            assert lam["e"] * mutated["e"] == la * lc + lb * ld
            assert cross_ratio(la, lb, lc, ld) == point.q["e"]
            assert mutated.values == lambda_of_dual_arcs(flipped, new_point).values
            assert shear_from_lambda(flipped, mutated) == new_point


def test_criterion_07_shear_lambda_round_trip():
    """Recovering shear coordinates from dual-arc lambda-lengths is the
    identity, exactly, on all fixtures and 100 random spines."""
    with budget(10.0):
        rng = random.Random(77)
        for name in ALL_FIXTURES:
            graph = load_fixture(name)
            for _ in range(3):
                point = random_exact_point(rng, graph)
                lam = lambda_of_dual_arcs(graph, point)
                assert shear_from_lambda(graph, lam) == point
        result = run_suite("roundtrip", 100, seed=20260816)
        assert result.failures == [], result.summary()


def test_criterion_08_centers_annihilated():
    """Center vectors are exact kernel vectors of the bracket on fixtures
    and random spines, and their monomials have zero bracket with 20
    random geodesic functions."""
    with budget(10.0):
        for name in ALL_FIXTURES:
            graph = load_fixture(name)
            table = poisson_matrix(graph)
            basis = center_vectors(graph)
            for _, vec in basis.holes:
                for row_name in basis.names:
                    total = sum(
                        table[row_name, col] * w
                        for col, w in zip(basis.names, vec)
                    )
                    assert total == 0

        result = run_suite("centers", 60, seed=20260816)
        assert result.failures == [], result.summary()

        rng = random.Random(2024)
        loopy = ("sigma_0_2_1", "sigma_0_3_1", "sigma_0_5_1")
        checked = 0
        for attempt in range(400):
            if checked == 20:
                break
            graph = load_fixture(loopy[attempt % len(loopy)])
            word = random_closed_word(rng, graph)
            if word is None:
                continue
            basis = center_vectors(graph)
            _, vec = basis.holes[checked % len(basis.holes)]
            # e^{sum v_n Y_n} = t^{2v}
            center = LaurentPoly.monomial_from(1, {t_var(n): 2 * w for n, w in zip(basis.names, vec)})
            geo = geodesic_function(graph, word).value
            assert poisson_bracket(graph, center, geo).is_zero(), word.tokens
            checked += 1
        assert checked == 20


def test_criterion_09_form_proportionality():
    """The vertex-sum form is an exact scalar multiple of the window form
    on every fixture, with ratio 1/4 on the three-cusp disc, and the ratio
    tabulated over 100 random spines is always 1/4 when nonzero."""
    with budget(30.0):
        for name in ALL_FIXTURES:
            graph = load_fixture(name)
            assert penner_form_matrix(graph) == window_form_matrix(graph).scaled(Fraction(1, 4))
        t3 = load_fixture("t3")
        assert penner_form_matrix(t3).data != window_form_matrix(t3).scaled(Fraction(1, 2)).data

        result = run_suite("proportionality", 100, seed=20260816)
        assert result.failures == [], result.summary()
        kappas = dict(part.rsplit(":", 1) for part in result.info["kappa"].split(","))
        assert sum(int(v) for v in kappas.values()) == 100
        assert set(kappas) <= {"1/4", "(zero)"}


def test_criterion_10_flip_preserves_geodesic_brackets():
    """Transporting two geodesics through a flip of the five-hole disc
    preserves their traces and their Poisson bracket exactly."""
    with budget(5.0):
        graph = load_fixture("sigma_0_5_1")
        before_1 = ["pi", "a1", "w1+", "a1", "b1", "a2", "w2+", "a2", "b1", "pi"]
        after_1 = ["pi", "b1", "a1", "w1+", "a1", "a2", "w2+", "a2", "b1", "pi"]
        before_2 = ["pi", "b1", "a2", "w2+", "a2", "b2", "a3", "w3+", "a3", "b2", "b1", "pi"]
        after_2 = ["pi", "b1", "a2", "w2+", "a2", "b1", "b2", "a3", "w3+", "a3", "b2", "pi"]

        rng = random.Random(31)
        exact = random_exact_point(rng, graph)
        flipped, exact_after, _ = flip_inner(graph, "b1", exact)

        for before, after in ((before_1, after_1), (before_2, after_2)):
            wb = PathWord.from_tokens(graph, before, closed=True)
            wa = PathWord.from_tokens(flipped, after, closed=True)
            gb = geodesic_function(graph, wb, exact)
            ga = geodesic_function(flipped, wa, exact_after)
            assert gb.value == ga.value

        w1b = PathWord.from_tokens(graph, before_1, closed=True)
        w2b = PathWord.from_tokens(graph, before_2, closed=True)
        w1a = PathWord.from_tokens(flipped, after_1, closed=True)
        w2a = PathWord.from_tokens(flipped, after_2, closed=True)

        def gf(g, w):
            return geodesic_function(g, w).value

        # 4{G1, G2}, exactly at the point and at its image
        bracket_before = poisson_bracket(graph, gf(graph, w1b), gf(graph, w2b)).subs(exact_values(exact))
        bracket_after = poisson_bracket(flipped, gf(flipped, w1a), gf(flipped, w2a)).subs(exact_values(exact_after))
        assert bracket_before != 0
        assert bracket_before == bracket_after
