"""Coordinate points and lambda-length conversion.

A coordinate point assigns a value to every non-loop edge (the shear or
extended shear coordinate) and a weight to every loop edge.  Exact
points store the exponentiated coordinate ``q = e^Y`` as a Fraction so
edge matrices have ``SqrtRational`` entries ``t = sqrt(q)``; float
points store ``Y`` itself.

Lambda-lengths of the dual-triangulation arcs determine the coordinates
through the traversal-count matrix of the dual arcs: twice its inverse
has integer entries on every graph met in practice, which turns the
inversion into products of integer powers of lambda values and keeps
the round trip exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .algebra import SqrtRational, frac_inverse, fraction_nth_root
from .paths import lambda_length
from .ribbon import FatGraph, dual_arc

__all__ = [
    "CoordinatePoint",
    "LambdaAssignment",
    "lambda_of_dual_arcs",
    "shear_from_lambda",
    "dual_multiplicity_matrix",
    "cross_ratio",
    "pending_ratio",
]

Number = Union[int, Fraction, float, SqrtRational]


def _promote(v):
    return Fraction(v) if isinstance(v, int) else v


class CoordinatePoint:
    """Values for every edge of one graph, all exact or all float."""

    __slots__ = ("exact", "q", "y", "omega")

    def __init__(
        self,
        exact: bool,
        q: Optional[Mapping[str, Fraction]] = None,
        y: Optional[Mapping[str, float]] = None,
        omega: Optional[Mapping[str, Union[Fraction, float]]] = None,
    ):
        self.exact = bool(exact)
        self.q = {k: Fraction(v) for k, v in (q or {}).items()}
        self.y = {k: float(v) for k, v in (y or {}).items()}
        self.omega = dict(omega or {})
        if self.exact:
            if self.y:
                raise ValueError("exact point carries q values, not y")
            for k, v in self.q.items():
                if v <= 0:
                    raise ValueError("q[%s] = %s must be positive" % (k, v))
            for k, v in self.omega.items():
                if not isinstance(v, (int, Fraction)):
                    raise ValueError("exact point needs rational loop weight for %s" % k)
                self.omega[k] = Fraction(v)
        else:
            if self.q:
                raise ValueError("float point carries y values, not q")
            self.omega = {k: float(v) for k, v in self.omega.items()}

    @classmethod
    def from_graph(cls, graph: FatGraph) -> "CoordinatePoint":
        """Read the value payloads off the graph's edges.

        Exact when every stored value is exact; missing values default
        to q = 1 (Y = 0) and loop weight 2.
        """
        exact = True
        for e in graph.edges.values():
            if e.value is not None and e.value[0] in ("lin", "omega_float"):
                exact = False
        q: dict[str, Fraction] = {}
        y: dict[str, float] = {}
        omega: dict[str, Union[Fraction, float]] = {}
        for e in graph.edges.values():
            if e.kind == "loop":
                if e.value is None:
                    omega[e.name] = Fraction(2) if exact else 2.0
                elif e.value[0] == "omega":
                    omega[e.name] = e.value[1] if exact else float(e.value[1])
                else:
                    omega[e.name] = e.value[1]
            else:
                if e.value is None:
                    val: tuple = ("exp", Fraction(1))
                else:
                    val = e.value
                if exact:
                    q[e.name] = val[1]
                else:
                    y[e.name] = math.log(float(val[1])) if val[0] == "exp" else val[1]
        if exact:
            return cls(True, q=q, omega=omega)
        return cls(False, y=y, omega=omega)

    # value accessors used by path evaluation

    def t_value(self, edge: str):
        """e^{Y/2} for an edge matrix: SqrtRational when exact."""
        if self.exact:
            return SqrtRational.sqrt(self.q[edge])
        return math.exp(0.5 * self.y[edge])

    def omega_value(self, edge: str):
        return self.omega[edge]

    def q_value(self, edge: str) -> Fraction:
        if not self.exact:
            raise ValueError("float point has no exact q values")
        return self.q[edge]

    def y_value(self, edge: str) -> float:
        if self.exact:
            return math.log(float(self.q[edge]))
        return self.y[edge]

    def as_float(self) -> "CoordinatePoint":
        if not self.exact:
            return CoordinatePoint(False, y=dict(self.y), omega=dict(self.omega))
        y = {k: math.log(float(v)) for k, v in self.q.items()}
        omega = {k: float(v) for k, v in self.omega.items()}
        return CoordinatePoint(False, y=y, omega=omega)

    def shifted(self, edge: str, delta: float) -> "CoordinatePoint":
        """Float copy with one coordinate nudged; finite differences."""
        pt = self.as_float()
        if edge not in pt.y:
            raise ValueError("unknown coordinate edge %s" % edge)
        pt.y[edge] += delta
        return pt

    def with_updates(self, q=(), y=(), omega=()) -> "CoordinatePoint":
        if self.exact:
            if dict(y):
                raise ValueError("exact point takes q updates, not y")
            qs = dict(self.q)
            for k, v in dict(q).items():
                if k not in qs:
                    raise ValueError("unknown coordinate edge %s" % k)
                qs[k] = Fraction(v)
            oms = dict(self.omega)
            for k, v in dict(omega).items():
                if k not in oms:
                    raise ValueError("unknown loop edge %s" % k)
                oms[k] = Fraction(v)
            return CoordinatePoint(True, q=qs, omega=oms)
        if dict(q):
            raise ValueError("float point takes y updates, not q")
        ys = dict(self.y)
        for k, v in dict(y).items():
            if k not in ys:
                raise ValueError("unknown coordinate edge %s" % k)
            ys[k] = float(v)
        oms = dict(self.omega)
        for k, v in dict(omega).items():
            if k not in oms:
                raise ValueError("unknown loop edge %s" % k)
            oms[k] = float(v)
        return CoordinatePoint(False, y=ys, omega=oms)

    def edge_payload(self, name: str) -> tuple:
        """Raw file payload for serialization."""
        if name in self.omega:
            w = self.omega[name]
            return ("omega", w) if isinstance(w, Fraction) else ("omega_float", w)
        if self.exact:
            return ("exp", self.q[name])
        return ("lin", self.y[name])

    def __eq__(self, other):
        if not isinstance(other, CoordinatePoint):
            return NotImplemented
        return (
            self.exact == other.exact
            and self.q == other.q
            and self.y == other.y
            and self.omega == other.omega
        )

    def __repr__(self):
        vals = self.q if self.exact else self.y
        parts = ["%s=%s" % (k, v) for k, v in vals.items()]
        parts += ["%s:omega=%s" % (k, v) for k, v in self.omega.items()]
        return "CoordinatePoint(%s; %s)" % ("exact" if self.exact else "float", ", ".join(parts))


@dataclass
class LambdaAssignment:
    """Lambda-length of the dual arc crossing each non-loop edge, keyed
    by that edge's name.  Loop weights ride along (they are part of the
    point but invisible to the lambda values themselves)."""

    values: dict[str, Number]
    exact: bool
    omega: dict[str, Union[Fraction, float]] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.omega is None:
            self.omega = {}

    def items(self):
        return self.values.items()

    def __getitem__(self, key):
        return self.values[key]


def lambda_of_dual_arcs(graph: FatGraph, point: Optional[CoordinatePoint] = None) -> LambdaAssignment:
    """Evaluate the lambda-length of every coordinate edge's dual arc."""
    if point is None:
        point = graph.point()
    values = {}
    for name in graph.coordinate_edges():
        values[name] = lambda_length(graph, dual_arc(graph, name), point)
    return LambdaAssignment(values, point.exact, dict(point.omega))


def dual_multiplicity_matrix(graph: FatGraph) -> tuple[list[str], list[list[int]]]:
    """Row i counts how often dual_arc(names[i]) runs through each
    coordinate edge; loop bounces are not counted."""
    names = graph.coordinate_edges()
    index = {n: j for j, n in enumerate(names)}
    rows = []
    for name in names:
        row = [0] * len(names)
        for step in dual_arc(graph, name).steps:
            j = index.get(step.edge)
            if j is not None:
                row[j] += 1
        rows.append(row)
    return names, rows


def _as_sqrt(v) -> SqrtRational:
    if isinstance(v, SqrtRational):
        return v
    return SqrtRational(Fraction(v))


def shear_from_lambda(graph: FatGraph, lambdas) -> CoordinatePoint:
    """Reconstruct the coordinate point from dual-arc lambda-lengths.

    Solves  (multiplicity matrix) * Y = 2 log(lambda)  for the vector of
    coordinates.  Exact inputs go through integer-power products: twice
    the inverse matrix is integral on all shipped and fuzzed graphs, and
    when it is not, the smallest common denominator k is cleared and an
    exact k-th root is taken.  Float inputs solve the linear system
    numerically.  Loop weights are not determined by lambda-lengths and
    are taken from the weights carried by a LambdaAssignment, or else
    from the graph's stored values.
    """
    if isinstance(lambdas, LambdaAssignment):
        lam = dict(lambdas.values)
        carried = dict(lambdas.omega)
    else:
        lam = dict(lambdas)
        carried = {}
    names, rows = dual_multiplicity_matrix(graph)
    missing = [n for n in names if n not in lam]
    if missing:
        raise ValueError("missing lambda values for %s" % ", ".join(missing))

    exact = all(isinstance(lam[n], (int, Fraction, SqrtRational)) for n in names)
    omegas: dict[str, Union[Fraction, float]] = carried or dict(graph.point().omega)
    if exact:
        for k, v in omegas.items():
            if isinstance(v, float):
                raise ValueError("exact reconstruction needs a rational weight for loop %s" % k)
            omegas[k] = Fraction(v)
    else:
        omegas = {k: float(v) for k, v in omegas.items()}

    m = [[Fraction(x) for x in row] for row in rows]
    try:
        minv = frac_inverse(m)
    except ValueError:
        raise ValueError("dual-arc multiplicity matrix is singular; lambda-lengths do not determine the coordinates") from None

    if exact:
        e2 = [[2 * x for x in row] for row in minv]
        denom = 1
        for row in e2:
            for x in row:
                denom = denom * x.denominator // math.gcd(denom, x.denominator)
        vals = [_as_sqrt(lam[n]) for n in names]
        q: dict[str, Fraction] = {}
        for i, name in enumerate(names):
            acc = SqrtRational(1)
            for j in range(len(names)):
                k = e2[i][j] * denom
                acc = acc * vals[j] ** int(k)
            if denom == 1:
                q[name] = acc.to_fraction()
            else:
                q[name] = fraction_nth_root(acc.to_fraction(), denom)
        return CoordinatePoint(True, q=q, omega=omegas)

    rhs = [2.0 * math.log(float(lam[n])) for n in names]
    y = {}
    for i, name in enumerate(names):
        y[name] = sum(float(minv[i][j]) * rhs[j] for j in range(len(names)))
    return CoordinatePoint(False, y=y, omega=omegas)


def cross_ratio(lam_a: Number, lam_b: Number, lam_c: Number, lam_d: Number):
    """Exponentiated shear of the edge between opposite arcs a, c and
    adjacent arcs b, d of the surrounding quadrilateral."""
    a, b, c, d = map(_promote, (lam_a, lam_b, lam_c, lam_d))
    return (a * c) / (b * d)


def pending_ratio(lam_a: Number, lam_b: Number, lam_c: Number):
    """Exponentiated coordinate of a pending edge from the two arcs at
    its cusp and the arc closing the triangle."""
    a, b, c = map(_promote, (lam_a, lam_b, lam_c))
    return (a * b) / c
