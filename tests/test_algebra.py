"""Exact-arithmetic building blocks: Laurent polynomials, quadratic
surds, 2x2 matrices, and the dense rational linear algebra the tests
use as an oracle."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from spineforms.algebra import (
    LaurentPoly,
    Mat2,
    SqrtRational,
    _fold_sqrt,
    _sqrt_parts,
    fraction_sqrt,
)
from spineforms.paths import MatrixWord, evaluate

from dense_oracle import frac_inverse, frac_kernel
from exchange_oracle import OldSqrtRational, parts


def lp(var):
    return LaurentPoly.var(var)


small_ints = st.integers(min_value=-6, max_value=6)


@st.composite
def laurent_polys(draw, vars=("t", "u")):
    n = draw(st.integers(min_value=0, max_value=4))
    out = LaurentPoly()
    for _ in range(n):
        coeff = draw(small_ints)
        exps = {v: draw(st.integers(min_value=-3, max_value=3)) for v in vars}
        out = out + LaurentPoly.monomial_from(coeff, exps)
    return out


def test_var_times_inverse_is_one():
    t = lp("t_a")
    assert (t * t.inverse()).is_one()


def test_binomial_square():
    t = lp("t_Z")
    s = t + t.inverse()
    sq = s * s
    expected = t * t + LaurentPoly.const(2) + (t * t).inverse()
    assert sq == expected


def test_substitution_with_weight():
    t = lp("t_Z")
    w = lp("w")
    p = LaurentPoly.const(1) + w * t * t + (t * t) * (t * t)
    value = p.subs({"t_Z": Fraction(1), "w": Fraction(2)})
    assert value == Fraction(4)


def test_substitution_of_square_roots():
    """t = sqrt(q) values: terms of one square class add to a
    SqrtRational; ints and Fractions still give a Fraction."""
    t, u = lp("t"), lp("u")
    p = t * u + LaurentPoly.const(3) * t.inverse() * u
    got = p.subs({"t": SqrtRational.sqrt(Fraction(2, 3)), "u": SqrtRational.sqrt(6)})
    assert got == 2 + 3 * SqrtRational.sqrt(9) and isinstance(got, SqrtRational)
    assert p.subs({"t": 2, "u": Fraction(1, 2)}) == Fraction(7, 4)
    assert type(p.subs({"t": 2, "u": 3})) is Fraction
    with pytest.raises(ValueError, match="incompatible square classes"):
        (t + u).subs({"t": SqrtRational.sqrt(2), "u": SqrtRational.sqrt(3)})


def test_sign_definite():
    t = lp("t")
    assert (t * t + LaurentPoly.const(2) + (t * t).inverse()).sign_definite() == 1
    assert (t - t.inverse()).sign_definite() is None
    assert (LaurentPoly.const(-3) - t).sign_definite() == -1
    assert LaurentPoly().sign_definite() == 0


def test_canonical_str_sorted_and_stable():
    t, u = lp("t"), lp("u")
    p = u * t + t + LaurentPoly.const(-1)
    assert str(p) == str(p)
    assert "t*u" in str(p)


@given(laurent_polys(), laurent_polys(), laurent_polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


# one L turn multiplied out: constant entries 0, 1 and -1, still packed
_L_ONLY = evaluate(MatrixWord((("L",),)))


@given(laurent_polys())
@example(LaurentPoly())
@example(LaurentPoly.const(3))
@example(_L_ONLY.a)
@example(_L_ONLY.b)
@example(_L_ONLY.d)
def test_equal_polys_hash_equal(a):
    """A poly hashes as its plain copy and, when it is 0 or a constant
    c, as the int c it equals."""
    h, copy = hash(a), LaurentPoly(dict(a.terms))  # hash first: a packed entry decodes for it
    assert a == copy and h == hash(copy)
    c = a.terms.get((), 0)
    if a.terms.keys() <= {()}:
        assert a == c and hash(a) == hash(c) and len({a, copy, c}) == 1
    else:
        assert a != c


@given(laurent_polys())
def test_additive_inverse(a):
    assert (a - a).is_zero()


def test_monomial_inspection():
    t = lp("t_a")
    m = t * t * lp("t_b").inverse()
    assert m.is_monomial()
    coeff, exps = m.monomial()
    assert coeff == 1
    assert exps == {"t_a": 2, "t_b": -1}


def test_evalf_matches_subs():
    t = lp("t")
    p = t * t + LaurentPoly.const(3)
    assert p.evalf({"t": 2.0}) == pytest.approx(7.0)


# -- quadratic surds ---------------------------------------------------


def test_sqrt_rational_product_contracts_radicals():
    a = SqrtRational.sqrt(Fraction(8))
    b = SqrtRational.sqrt(Fraction(2))
    assert a * b == SqrtRational(Fraction(4))


def test_sqrt_rational_add_same_class():
    a = SqrtRational(Fraction(1, 2), 3)
    b = SqrtRational(Fraction(1, 3), 3)
    assert a + b == SqrtRational(Fraction(5, 6), 3)


def test_sqrt_rational_incompatible_classes():
    with pytest.raises(ValueError, match="incompatible square classes"):
        SqrtRational(Fraction(1), 2) + SqrtRational(Fraction(1), 3)


def test_sqrt_rational_inverse_and_pow():
    x = SqrtRational(Fraction(3, 2), 5)
    assert x * x.inverse() == SqrtRational(Fraction(1))
    assert x ** 2 == SqrtRational(Fraction(45, 4))


def _folded(qs):
    """sqrt(q_1 * ... * q_k) as _fold_sqrt folds it."""
    num, den, rad = _fold_sqrt(map(_sqrt_parts, qs))
    return SqrtRational._of(Fraction(num, den), rad)


def test_sqrt_of_product_folds_factor_by_factor():
    """a/b enters as sqrt(a*b)/b, perfect squares leave the root and
    common factors move out; the order of the factors fixes the form."""
    cases = [
        ([Fraction(4, 9)], "2/3"),
        ([Fraction(8), Fraction(2)], "4"),
        ([Fraction(2, 3), Fraction(3)], "sqrt(2)"),
        ([Fraction(10), Fraction(50), Fraction(8)], "10*sqrt(40)"),
        ([Fraction(8), Fraction(10), Fraction(50)], "20*sqrt(10)"),
        # the radicand 8*2 = 16 stays in the root until the end
        ([Fraction(8), Fraction(2), Fraction(3)], "2*sqrt(12)"),
    ]
    for qs, text in cases:
        root = _folded(qs)
        want = SqrtRational(1)
        for q in qs:
            want = want * SqrtRational.sqrt(q)
        assert root == want and str(root) == text, qs
        assert root.scaled(-3, 4) == want * Fraction(-3, 4) and root.scaled(-3, 4).rad == root.rad
    assert str(_folded([Fraction(3)]).scaled(0, 5)) == "0"


def _fraction_fold(qs):
    """The fold in Fraction arithmetic, with whether a square radicand
    other than 1 was met before the last factor."""
    rat, rad, square_midway = Fraction(1), 1, False
    for k, x in enumerate(qs):
        s = x.numerator * x.denominator
        rat /= x.denominator
        r = math.isqrt(s)
        if r * r == s:
            rat *= r
        else:
            g = math.gcd(rad, s)
            rat *= g
            rad = rad // g * (s // g)
        square_midway |= k < len(qs) - 1 and rad > 1 and math.isqrt(rad) ** 2 == rad
    return SqrtRational(rat, rad), square_midway


def _factor(rng):
    kind = rng.randrange(4)
    if kind == 0:  # a square
        return Fraction(rng.randint(1, 6) ** 2, rng.randint(1, 6) ** 2)
    if kind == 1:  # most often not a square
        return Fraction(rng.randint(1, 30), rng.randint(1, 12))
    if kind == 2:  # factors shared with the radicand so far
        return Fraction(rng.choice((2, 3, 5)) * rng.choice((1, 2, 3, 4, 6, 8)), rng.choice((1, 2, 3)))
    return Fraction(1)


def test_one_fold_gives_one_form_in_any_order():
    """_fold_sqrt folds in ints as the Fraction fold does, giving
    the same (rat, rad) in every order of the factors; it equals the
    product of the SqrtRational.sqrt(q) and has its form, except where a
    square radicand met midway leaves the root later in the fold than in
    the product.  A start num/den scales the value and keeps the rad."""
    rng = random.Random(20261019)
    seen = {False: 0, True: 0}
    for _ in range(400):
        qs = [_factor(rng) for _ in range(rng.randint(0, 7))]
        for order in (qs, qs[::-1], rng.sample(qs, len(qs))):
            root = _folded(order)
            want, square_midway = _fraction_fold(order)
            assert (root.rat, root.rad) == (want.rat, want.rad), order
            assert root.rad == 1 or math.isqrt(root.rad) ** 2 != root.rad
            chain = SqrtRational(1)
            for q in order:
                chain = chain * SqrtRational.sqrt(q)
            assert root == chain, order
            if not square_midway:
                assert (root.rat, root.rad) == (chain.rat, chain.rad), order
            seen[square_midway] += 1
            num, den = rng.randint(-5, 5), rng.randint(1, 9)
            n, d, rad = _fold_sqrt(map(_sqrt_parts, order), num, den)
            scaled = root.scaled(num, den)
            assert (Fraction(n, d), rad if n else 1) == (scaled.rat, scaled.rad), order
    assert min(seen.values()) > 10, seen


def test_to_fraction_requires_trivial_radical():
    assert SqrtRational(Fraction(7, 3)).to_fraction() == Fraction(7, 3)
    with pytest.raises(ValueError):
        SqrtRational(Fraction(1), 2).to_fraction()


@given(st.integers(min_value=1, max_value=50), st.integers(min_value=1, max_value=50))
def test_sqrt_round_trip(num, den):
    q = Fraction(num, den)
    r = SqrtRational.sqrt(q)
    assert r * r == SqrtRational(q)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@given(rationals, st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=60))
@example(Fraction(2), 1, 1)
@example(Fraction(-3, 2), 2, 9)
def test_sqrt_rational_equality_across_radicands(a, k, r):
    """a*k*sqrt(r) and a*sqrt(r*k^2) are one number in two forms: they
    compare and hash equal whichever rad each keeps, and, when rational,
    as the Fraction and any int they equal."""
    x, y = SqrtRational(a * k, r), SqrtRational(a, r * k * k)
    assert x == y and y == x
    assert hash(x) == hash(y)
    if x.rad == 1:
        same = [x, y, x.rat] + ([int(x.rat)] if x.rat.denominator == 1 else [])
        assert all(x == v and hash(x) == hash(v) for v in same)
        assert len(set(same)) == 1


@given(rationals, rationals, st.integers(min_value=1, max_value=60))
def test_sqrt_rational_equal_rads_compare_rats(a, b, r):
    assert (SqrtRational(a, r) == SqrtRational(b, r)) == (a == b)


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    with pytest.raises(ValueError):
        fraction_sqrt(Fraction(2))
    # ints are reduced once before the roots are taken
    assert fraction_sqrt(18, 8) == Fraction(3, 2)
    assert fraction_sqrt(-27, -12) == Fraction(3, 2)
    assert fraction_sqrt(0, 5) == 0
    with pytest.raises(ValueError, match="^8/3 is not a rational square$"):
        fraction_sqrt(16, 6)
    with pytest.raises(ValueError, match="^negative radicand$"):
        fraction_sqrt(-4, 1)


# -- matrices ----------------------------------------------------------


def _int_mat(a, b, c, d):
    return Mat2(Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def test_turn_relation():
    one = LaurentPoly.const(1)
    zero = LaurentPoly()
    r = Mat2(one, one, -one, zero)
    l = Mat2(zero, one, -one, -one)
    assert r * r == l


def test_edge_matrix_squares_to_minus_identity():
    t = lp("t")
    zero = LaurentPoly()
    x = Mat2(zero, -t, t.inverse(), zero)
    sq = x * x
    minus_one = LaurentPoly.const(-1)
    assert sq == Mat2(minus_one, zero, zero, minus_one)


def test_bounce_pair_is_minus_identity():
    w = lp("w")
    one = LaurentPoly.const(1)
    zero = LaurentPoly()
    f = Mat2(zero, one, -one, -w)
    g = Mat2(w, one, -one, zero)  # minus the inverse of f
    prod = f * g
    assert prod == Mat2(-one, zero, zero, -one)


@given(*(small_ints for _ in range(8)))
def test_det_multiplicative(a, b, c, d, e, f, g, h):
    m = _int_mat(a, b, c, d)
    n = _int_mat(e, f, g, h)
    assert (m * n).det() == m.det() * n.det()


def test_trace_of_product_commutes():
    m = _int_mat(1, 2, 3, 4)
    n = _int_mat(0, 1, -1, 5)
    assert (m * n).trace() == (n * m).trace()


# -- fraction linear algebra -------------------------------------------


def test_frac_inverse_and_kernel():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    inv = frac_inverse(m)
    assert inv == [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(2)]]

    singular = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    with pytest.raises(ValueError, match="singular"):
        frac_inverse(singular)
    kern = frac_kernel(singular)
    assert len(kern) == 1
    x, y = kern[0]
    assert x + 2 * y == 0


class _Rational(Fraction):
    """A Fraction subclass, which SqrtRational reads as a plain Fraction."""


_RADS = (-4, -1, 0, True, 1, 2, 3, 4, 8, 9, 12, 49, 50, 10**6, 2**61 - 1, _Rational(5), _Rational(16))


@pytest.mark.parametrize("rad", _RADS, ids=repr)
@pytest.mark.parametrize("rat", [0, 1, -3, Fraction(2, 3), Fraction(-7, 4), "5/6", _Rational(3, 2)], ids=repr)
def test_int_radicand_matches_the_fraction_one(rat, rad):
    """An int radicand takes no detour through Fraction; the result is
    the one a Fraction radicand gives, in type and value."""
    if rad <= 0:
        for r in (rad, Fraction(rad)):
            with pytest.raises(ValueError, match="radicand must be positive"):
                SqrtRational(rat, r)
        return
    fast, general = SqrtRational(rat, rad), SqrtRational(rat, Fraction(rad))
    assert type(fast.rat) is type(general.rat) is Fraction
    assert type(fast.rad) is type(general.rad) is int
    assert (fast.rat, fast.rad) == (general.rat, general.rad)
    assert str(fast) == str(general)


def _sqrt_outcome(call):
    """("sqrt", rat, rad) of a result of either SqrtRational class, or
    the refusal's message."""
    try:
        return parts(call())
    except ValueError as exc:
        return ("refused", str(exc))


def test_products_and_sums_match_the_earlier_operators():
    """SqrtRational's *, + and / take their square-class rules from
    algebra's int helpers; on values across square classes (radicands
    that share a class without being equal, such as 3 and 12, included)
    they give the (rat, rad) and the refusals the earlier operators
    gave, and an int or a Fraction on either side is read as rad 1."""
    rng = random.Random(11)
    rads = (1, 2, 3, 5, 6, 8, 12, 18, 20, 27, 45, 50)
    refused = 0
    for _ in range(3000):
        xs = []
        for _ in range(2):
            rat = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            kind = rng.randrange(5)
            xs.append(rat if kind == 0 else rng.randint(-4, 4) if kind == 1 else SqrtRational(rat, rng.choice(rads)))
        x, y = xs
        if not isinstance(x, SqrtRational) and not isinstance(y, SqrtRational):
            continue
        ox, oy = OldSqrtRational.of(x), OldSqrtRational.of(y)
        assert _sqrt_outcome(lambda: x * y) == _sqrt_outcome(lambda: ox * oy)
        assert _sqrt_outcome(lambda: x + y) == _sqrt_outcome(lambda: ox + oy)
        assert _sqrt_outcome(lambda: x - y) == _sqrt_outcome(lambda: ox + (-1) * oy)
        if y != 0:
            assert _sqrt_outcome(lambda: x / y) == _sqrt_outcome(lambda: ox / oy)
        refused += _sqrt_outcome(lambda: x + y)[0] == "refused"
    assert 300 < refused
