"""The exchange relation as SqrtRational arithmetic took it, kept as a
reference oracle.

flips.mutate_lambda folds the exact exchange in ints, and
SqrtRational's operators take their square-class rules from the same
int helpers.  ``ptolemy`` is the earlier route: the Ptolemy formula
written with the arithmetic operators, read in the same order as
before, over ``OldSqrtRational``, a copy of the operators SqrtRational
had before the helpers, so that neither side shares the rule it is
checked against.
"""

import math
from fractions import Fraction

from spineforms.algebra import SqrtRational
from spineforms.coords import _lambda_reading, _loop_weight, _positive_lambda
from spineforms.flips import _resolve


class OldSqrtRational:
    """rat*sqrt(rad) with SqrtRational's earlier multiplication, sum
    and inverse; its repr is SqrtRational's."""

    __slots__ = ("rat", "rad")

    def __init__(self, rat, rad=1):
        rat = Fraction(rat)
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
    def of(cls, v):
        """A SqrtRational as its (rat, rad), a Fraction or int as itself."""
        if isinstance(v, SqrtRational):
            out = cls.__new__(cls)
            out.rat, out.rad = v.rat, v.rad
            return out
        return v

    def _coerce(self, other):
        if isinstance(other, OldSqrtRational):
            return other
        if isinstance(other, (int, Fraction)):
            return OldSqrtRational(other, 1)
        return NotImplemented

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        g = math.gcd(self.rad, other.rad)
        x, y = self.rat, other.rat
        return OldSqrtRational(Fraction(x.numerator * y.numerator * g, x.denominator * y.denominator),
                               (self.rad // g) * (other.rad // g))

    __rmul__ = __mul__

    def inverse(self):
        return OldSqrtRational(Fraction(self.rat.denominator, self.rat.numerator * self.rad), self.rad)

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

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.rat == 0:
            return other
        if other.rat == 0:
            return self
        if self.rad == other.rad:
            return OldSqrtRational(self.rat + other.rat, self.rad)
        ratio = Fraction(other.rad, self.rad)
        num_root = math.isqrt(ratio.numerator)
        den_root = math.isqrt(ratio.denominator)
        if num_root * num_root != ratio.numerator or den_root * den_root != ratio.denominator:
            raise ValueError("incompatible square classes: %r + %r" % (self, other))
        return OldSqrtRational(self.rat + other.rat * Fraction(num_root, den_root), self.rad)

    __radd__ = __add__

    def __repr__(self):
        return "SqrtRational(%s, %s)" % (self.rat, self.rad)


def ptolemy(graph, lambdas, name):
    """The new lambda of ``name`` (a loop's name flips its stem), read
    and computed as mutate_lambda did before it folded in ints: the
    exact formula over OldSqrtRational, which gives an OldSqrtRational
    or a Fraction, and the float formula unchanged."""
    values, _, omega, exact = _lambda_reading(graph, lambdas, False)
    name, site = _resolve(graph, name)

    def lam(h):
        n = graph.edge_of(h)
        v = values.get(n)
        if v is None:
            raise ValueError("missing lambda values for %s" % n)
        return OldSqrtRational.of(_positive_lambda(n, v, exact))

    (h_e, h_a, h_b), (_, h_c, h_d) = site.ends
    la, lb = lam(h_a), lam(h_b)
    if site.kind == "loop-stem":
        le = lam(h_e)
        w = _loop_weight(site.loop, omega[site.loop], exact)
        return (la * la + w * la * lb + lb * lb) / le
    return (la * lam(h_c) + lb * lam(h_d)) / lam(h_e)


def parts(v):
    """A value as ("sqrt", rat, rad) for either SqrtRational class, else
    (type name, value)."""
    if isinstance(v, (SqrtRational, OldSqrtRational)):
        return ("sqrt", v.rat, v.rad)
    return (type(v).__name__, v)
