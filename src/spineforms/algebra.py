"""Exact arithmetic substrate.

Three value families cover every computation in the package:

* ``Fraction`` (re-exported) for rational scalars,
* ``LaurentPoly`` for integer-coefficient Laurent polynomials in the
  half-coordinate variables ``t_*`` and loop weights ``w_*``,
* ``SqrtRational`` for numbers of the shape ``a*sqrt(b)`` with rational
  ``a, b`` (lambda-lengths at exact points live here).

2x2 matrices over any of these are handled by ``Mat2``, which is ring
agnostic: entries only need ``+``, ``*`` and unary ``-``.  There is
no general matrix type: the coordinate matrices (the bracket table, the
dual-arc counts, the forms) are sparse and integral, and coords and
forms work on the nonzero entries of their rows (see _sparse_product).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional

__all__ = [
    "Fraction",
    "LaurentPoly",
    "Mat2",
    "SqrtRational",
    "fraction_sqrt",
]


Key = tuple  # tuple of (variable, exponent) pairs, sorted, exponents nonzero


def _merge_keys(k1: Key, k2: Key) -> Key:
    exps = dict(k1)
    for v, e in k2:
        e2 = exps.get(v, 0) + e
        if e2:
            exps[v] = e2
        else:
            del exps[v]
    return tuple(sorted(exps.items()))


class LaurentPoly:
    """Sparse Laurent polynomial with integer coefficients.

    Terms map a sorted tuple of (variable, exponent) pairs to a nonzero
    int.  The empty tuple keys the constant term.  Canonical form (no
    zero coefficients, no zero exponents) is maintained by every
    operation, so ``==`` is plain dict equality.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Key, int]] = None):
        clean: dict[Key, int] = {}
        if terms:
            for key, coeff in terms.items():
                if coeff == 0:
                    continue
                key = tuple(sorted((v, e) for v, e in key if e != 0))
                clean[key] = clean.get(key, 0) + coeff
                if clean[key] == 0:
                    del clean[key]
        self.terms = clean

    @classmethod
    def const(cls, c: int) -> "LaurentPoly":
        return cls({(): int(c)})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "LaurentPoly":
        return cls({((name, exp),): 1})

    @classmethod
    def monomial_from(cls, coeff: int, exps: Mapping[str, int]) -> "LaurentPoly":
        return cls({tuple(sorted(exps.items())): coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {(): 1}

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def monomial(self) -> tuple[int, dict[str, int]]:
        """Coefficient and exponent dict of a one-term polynomial."""
        if len(self.terms) != 1:
            raise ValueError("not a monomial: %s" % self)
        ((key, coeff),) = self.terms.items()
        return coeff, dict(key)

    def sign_definite(self) -> Optional[int]:
        """+1 or -1 if every coefficient has that sign, 0 for the zero
        polynomial, None when signs are mixed."""
        if not self.terms:
            return 0
        signs = {1 if c > 0 else -1 for c in self.terms.values()}
        if len(signs) > 1:
            return None
        return signs.pop()

    def _coerce(self, other) -> "LaurentPoly":
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int):
            return LaurentPoly.const(other)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for key, coeff in other.terms.items():
            s = out.get(key, 0) + coeff
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = out
        return result

    __radd__ = __add__

    def __neg__(self):
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = {k: -c for k, c in self.terms.items()}
        return result

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            if other == 0:
                return LaurentPoly()
            result = LaurentPoly.__new__(LaurentPoly)
            result.terms = {k: c * other for k, c in self.terms.items()}
            return result
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[Key, int] = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = _merge_keys(k1, k2)
                s = out.get(key, 0) + c1 * c2
                if s:
                    out[key] = s
                else:
                    del out[key]
        result = LaurentPoly.__new__(LaurentPoly)
        result.terms = out
        return result

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = LaurentPoly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "LaurentPoly":
        """Inverse of a unit monomial (coefficient +-1)."""
        coeff, exps = self.monomial()
        if coeff not in (1, -1):
            raise ValueError("not a unit monomial: %s" % self)
        return LaurentPoly.monomial_from(coeff, {v: -e for v, e in exps.items()})

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # 0 or a constant c equals the int c, so hashes as it
        return hash(self.terms.get((), 0)) if self.terms.keys() <= {()} else hash(frozenset(self.terms.items()))

    def subs(self, values: Mapping[str, Fraction | SqrtRational]):
        """Exact evaluation; every variable present must be covered.
        Ints and Fractions give a Fraction.  SqrtRational values give a
        SqrtRational; terms of two square classes raise ValueError."""
        total = Fraction(0)
        for key, coeff in self.terms.items():
            term = Fraction(coeff)
            for v, e in key:
                x = values[v]
                term *= (x if isinstance(x, SqrtRational) else Fraction(x)) ** e
            total += term
        return total

    def evalf(self, values: Mapping[str, float]) -> float:
        total = 0.0
        for key, coeff in self.terms.items():
            term = float(coeff)
            for v, e in key:
                term *= values[v] ** e
            total += term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        chunks = []
        for key in sorted(self.terms):
            coeff = self.terms[key]
            factors = ["%s^%d" % (v, e) if e != 1 else v for v, e in key]
            body = "*".join(factors)
            mag = abs(coeff)
            if not body:
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = "%d*%s" % (mag, body)
            chunks.append(("-" if coeff < 0 else "+", text))
        sign, text = chunks[0]
        out = ("-" if sign == "-" else "") + text
        for sign, text in chunks[1:]:
            out += " %s %s" % (sign, text)
        return out

    def __repr__(self):
        return "LaurentPoly(%s)" % self


class SqrtRational:
    """Exact number of the shape rat*sqrt(rad), rad a positive integer.

    Normalization clears the radicand's denominator and folds perfect
    squares into the rational part, so purely rational values always end
    up with rad == 1.  Sums are only defined inside one square class
    (rad2/rad1 a rational square).  Products and sums take their
    square-class rules from the int helpers _mul_parts and _add_parts.
    Matrix words and the closed-form lambda-lengths never sum or
    multiply these: they fold their values in ints, the radical by
    _fold_sqrt, and build each entry once, with one Fraction, by _of,
    so the entries of one word share one rad.  The exchange relation of
    flips.mutate_lambda, whose terms can carry different rads of one
    class, folds in ints by the same helpers, as these operators would
    take it, and builds one value.
    """

    __slots__ = ("rat", "rad")

    def __init__(self, rat, rad=1):
        if type(rat) is not Fraction:
            rat = Fraction(rat)
        if type(rad) is not int:
            rad = Fraction(rad)  # sqrt(p/q) = sqrt(p*q)/q
            rat /= rad.denominator
            rad = rad.numerator * rad.denominator
        if rad <= 0:
            raise ValueError("radicand must be positive")
        root = math.isqrt(rad)
        if root * root == rad:
            if root != 1:
                rat *= root
            rad = 1
        if not rat.numerator:
            rad = 1
        self.rat = rat
        self.rad = rad

    @classmethod
    def sqrt(cls, q) -> "SqrtRational":
        return cls(1, Fraction(q))

    @classmethod
    def _of(cls, rat: Fraction, rad: int) -> "SqrtRational":
        """rat*sqrt(rad) as given: rad must be 1 or not a square, and 1
        when rat is 0."""
        out = cls.__new__(cls)
        out.rat = rat
        out.rad = rad
        return out

    def scaled(self, num: int, den: int = 1) -> "SqrtRational":
        """self * num/den for ints num and den != 0, keeping rad."""
        return SqrtRational._of(Fraction(num * self.rat.numerator, den * self.rat.denominator), self.rad if num else 1)

    def is_zero(self) -> bool:
        return self.rat == 0

    def sign(self) -> int:
        return 0 if self.rat == 0 else (1 if self.rat > 0 else -1)

    def square(self) -> Fraction:
        return self.rat * self.rat * self.rad

    def to_fraction(self) -> Fraction:
        if self.rad != 1:
            raise ValueError("not rational: %r" % self)
        return self.rat

    def __float__(self):
        return float(self.rat) * math.sqrt(self.rad)

    def _coerce(self, other) -> "SqrtRational":
        if isinstance(other, SqrtRational):
            return other
        if isinstance(other, (int, Fraction)):
            return SqrtRational(other, 1)
        return NotImplemented  # type: ignore[return-value]

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self.rat, other.rat
        num, den, rad = _mul_parts((x.numerator, x.denominator, self.rad), (y.numerator, y.denominator, other.rad))
        return SqrtRational._of(Fraction(num, den), rad)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inverse()

    def inverse(self) -> "SqrtRational":
        if self.rat == 0:
            raise ZeroDivisionError("inverse of zero")
        return SqrtRational(Fraction(self.rat.denominator, self.rat.numerator * self.rad), self.rad)

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = SqrtRational(1, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        x, y = self.rat, other.rat
        parts = _add_parts((x.numerator, x.denominator, self.rad), (y.numerator, y.denominator, other.rad))
        if parts is None:
            raise _incompatible(self, other)
        num, den, rad = parts
        return SqrtRational._of(Fraction(num, den), rad)

    __radd__ = __add__

    def __neg__(self):
        return self.scaled(-1)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __eq__(self, other):
        # one rad: compare rat, before the slow isinstance against Fraction's ABC
        if isinstance(other, SqrtRational) and other.rad == self.rad:
            return self.rat == other.rat
        if isinstance(other, (int, Fraction)):
            other = SqrtRational(other, 1)
        if not isinstance(other, SqrtRational):
            return NotImplemented
        return self.sign() == other.sign() and self.square() == other.square()

    def __hash__(self):
        # rad == 1 exactly when the value is rational, and then it equals rat
        return hash(self.rat) if self.rad == 1 else hash((self.sign(), self.square()))

    def __str__(self):
        if self.rad == 1:
            return str(self.rat)
        if self.rat == 1:
            return "sqrt(%d)" % self.rad
        return "%s*sqrt(%d)" % (self.rat, self.rad)

    def __repr__(self):
        return "SqrtRational(%s, %s)" % (self.rat, self.rad)


Parts = tuple  # (num, den, rad) of num/den * sqrt(rad): ints, den > 0, rad 1 or not a square


def _parts(v) -> Parts:
    """The Parts of a Fraction (or an int) or a SqrtRational: the one
    place an exact value is split into ints."""
    if isinstance(v, SqrtRational):
        r = v.rat
        return r.numerator, r.denominator, v.rad
    return v.numerator, v.denominator, 1


def _mul_parts(x: Parts, y: Parts) -> Parts:
    """The product of two Parts, as SqrtRational.__mul__ takes it: the
    gcd of the radicands moves out of the radicand, a square radicand
    left leaves it, and a zero product has rad 1.  num and den are not
    reduced."""
    g = math.gcd(x[2], y[2])
    num, rad = x[0] * y[0] * g, (x[2] // g) * (y[2] // g)
    if not num:
        return 0, 1, 1
    root = math.isqrt(rad)
    if root * root == rad:
        return num * root, x[1] * y[1], 1
    return num, x[1] * y[1], rad


def _add_parts(x: Parts, y: Parts) -> Optional[Parts]:
    """The sum of two Parts, in the first one's square class, as
    SqrtRational.__add__ takes it: a zero term gives the other, y's
    radicand must be x's times a rational square (a/b with a and b
    squares once the gcd is out), else None, and a zero sum has rad 1.
    num and den are not reduced."""
    if not x[0]:
        return y
    if not y[0]:
        return x
    if x[2] == y[2]:
        num, den = x[0] * y[1] + y[0] * x[1], x[1] * y[1]
    else:
        g = math.gcd(x[2], y[2])
        a, b = y[2] // g, x[2] // g
        ra, rb = math.isqrt(a), math.isqrt(b)
        if ra * ra != a or rb * rb != b:
            return None
        num, den = x[0] * y[1] * rb + y[0] * x[1] * ra, x[1] * y[1] * rb
    return (num, den, x[2]) if num else (0, 1, 1)


def _incompatible(x: SqrtRational, y: SqrtRational) -> ValueError:
    """The refusal of a sum x + y across two square classes."""
    return ValueError("incompatible square classes: %r + %r" % (x, y))


def _sqrt_parts(x: Fraction) -> tuple[int, int, int, int]:
    """(n, d, s, r) of a positive Fraction x = n/d, as _fold_sqrt reads
    it: s = n*d, so that sqrt(x) = sqrt(s)/d, and r is the root of s
    when s is a square, else 0."""
    n, d = x.numerator, x.denominator
    s = n * d
    r = math.isqrt(s)
    return n, d, s, r if r * r == s else 0


def _fold_sqrt(parts: Iterable[tuple[int, int, int, int]], num: int = 1, den: int = 1) -> tuple[int, int, int]:
    """(num', den', rad) with num'/den' * sqrt(rad) = num/den *
    sqrt(x_1 * ... * x_k), in ints, from the _sqrt_parts of positive
    Fractions x_i.  The one radical fold: x = n/d enters as
    sqrt(n*d)/d, a perfect square n*d leaves the root at once, factors
    common to the radicand so far move out of it, and a square
    radicand left at the end leaves it too.  This keeps radicands small
    without factoring.  The form depends on the order of the factors,
    so its callers, coords.DualView.exact_lambdas and
    paths._evaluate_exact, fix one.  It can differ from the product of
    the SqrtRational.sqrt(x_i), which takes a square radicand out at
    every step: 8, 2, 3 fold to 2*sqrt(12), their product is
    4*sqrt(3)."""
    rad = 1
    for _, d, s, r in parts:
        den *= d
        if r:
            num *= r
        else:
            g = math.gcd(rad, s)
            num *= g
            rad = (rad // g) * (s // g)
    if rad != 1:
        r = math.isqrt(rad)
        if r * r == rad:
            num *= r
            rad = 1
    return num, den, rad


def fraction_sqrt(num, den=1) -> Fraction:
    """Exact square root of the rational num/den (ints or Fractions,
    den != 0), reduced once; ValueError unless it is the square of a
    rational.  Builds one Fraction."""
    n, d = num.numerator * den.denominator, num.denominator * den.numerator
    if d < 0:
        n, d = -n, -d
    if n < 0:
        raise ValueError("negative radicand")
    g = math.gcd(n, d)
    n, d = n // g, d // g
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn != n or rd * rd != d:
        raise ValueError("%s is not a rational square" % Fraction(n, d))
    return Fraction(rn, rd)


def _sparse_product(a, b):
    """The rows of A B as dicts {column: entry}, one at a time so a check
    can stop early; A's rows are (column, entry) pairs, B's rows dicts."""
    for terms in a:
        row: dict = {}
        for j, x in terms:
            for c, y in b[j].items():
                row[c] = row.get(c, 0) + x * y
        yield row


class Mat2:
    """2x2 matrix over an arbitrary commutative ring."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a = a
        self.b = b
        self.c = c
        self.d = d

    def __mul__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self):
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def trace(self):
        return self.a + self.d

    def det(self):
        return self.a * self.d - self.b * self.c

    def __eq__(self, other):
        if not isinstance(other, Mat2):
            return NotImplemented
        return self.a == other.a and self.b == other.b and self.c == other.c and self.d == other.d

    def __str__(self):
        return "[[%s, %s], [%s, %s]]" % (self.a, self.b, self.c, self.d)

    __repr__ = __str__
