"""Coordinate points and lambda-length conversion.

A coordinate point assigns a value to every non-loop edge (the shear or
extended shear coordinate) and a weight to every loop edge.  Exact
points store the exponentiated coordinate ``q = e^Y`` as a Fraction so
edge matrices have ``SqrtRational`` entries ``t = sqrt(q)``; float
points store ``Y`` itself.  Every point, whether built by hand, read
off a graph or made by a flip, sets its values through one builder,
CoordinatePoint._set: it keeps a Fraction q as given and checks q > 0
on its numerator (float y: finite), refusing the first bad value in
edge order, so a flip or a parse that already built the Fraction pays
for no second one.

Lambda-lengths and coordinates are maps on integer exponent vectors.
The dual arc of coordinate edge i runs M_ij times through edge j, and
its lambda-length is the unit monomial

    lambda_i = prod_j t_j^{M_ij},   t_j = e^{Y_j/2},

so an exact point gives lambda_i = prod_j q_j^{floor(M_ij/2)} *
sqrt(prod_{M_ij odd} q_j) and a float point exp(sum_j M_ij Y_j / 2).
Going back is local: K = 2 M^{-1} is P + E, Fock's bracket table P
plus 1 on the diagonal of each pending edge.  P is vertex-local (see
_fock_table): each vertex adds +1 for every cyclically adjacent ordered
pair of its coordinate slots, loops skipped, so an inner edge's row is
the cross-ratio of its quadrilateral and a pending edge's the ratio of
its triangle; no separate function computes either.  Y_e = sum_j K_ej
log(lambda_j), and an exact point gives q_e = sqrt(prod_j
(lambda_j^2)^{K_ej}), one exact square root.  Exact values are folded in ints (numerators, denominators
and radicands) with one Fraction built per value: each lambda_i from its
row's even powers and odd factors (algebra._fold_sqrt), each q_e from
the lambda^2 kept as int pairs, reduced once before its root is taken
(algebra.fraction_sqrt).  M and K are derived once per graph in a
DualView cached on the graph (see dual_view), which checks K M = 2I
before K is used.  M's rows read the runs into a cusp that dual_arc
reads, from ribbon._run_into, counting the edges they leave through
with no Step built; the view refuses, with a GraphError, a graph on
which some dual arc cannot be cut and a loop edge that does not close
at one trivalent vertex.  The matrix words of the dual arcs
(paths.lambda_length) remain an independent check.
Penner's form 1/4 M^T P M is 1/4 (M^T - M) once K M = 2I (forms).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .algebra import SqrtRational, _fold_sqrt, _parts, _sqrt_parts, fraction_sqrt
from .ribbon import FatGraph, GraphError, _run_into

__all__ = [
    "CoordinatePoint",
    "LambdaAssignment",
    "lambda_of_dual_arcs",
    "shear_from_lambda",
    "dual_view",
]

Number = Union[int, Fraction, float, SqrtRational]


def _promote(v):
    return Fraction(v) if isinstance(v, int) else v


class CoordinatePoint:
    """Values for every edge of one graph, all exact or all float.

    Exact q must be positive and float y finite; loop weights pass
    _loop_weight, as in a graph file.
    """

    __slots__ = ("exact", "q", "y", "omega")

    def __init__(
        self,
        exact: bool,
        q: Optional[Mapping[str, Fraction]] = None,
        y: Optional[Mapping[str, float]] = None,
        omega: Optional[Mapping[str, Union[Fraction, float]]] = None,
    ):
        q = {k: v if type(v) is Fraction else Fraction(v) for k, v in (q or {}).items()}
        y = {k: float(v) for k, v in (y or {}).items()}
        if exact and y:
            raise ValueError("exact point carries q values, not y")
        if not exact and q:
            raise ValueError("float point carries y values, not q")
        values = q if exact else y
        self._set(bool(exact), values, values)
        self.omega = {k: _loop_weight(k, v, self.exact) for k, v in (omega or {}).items()}

    def _set(self, exact: bool, values: dict, names) -> None:
        """Store ``values`` as given, as q when ``exact`` and else as y;
        exact q must be positive and float y finite, and the first bad
        value among ``names``, in their order, is refused.  Every point
        sets its values here; the caller sets omega after."""
        self.exact = exact
        if exact:
            self.q, self.y = values, {}
            for k in names:
                if values[k].numerator <= 0:
                    raise ValueError("q[%s] = %s must be positive" % (k, values[k]))
        else:
            self.q, self.y = {}, values
            for k in names:
                if not math.isfinite(values[k]):
                    raise ValueError("y[%s] = %s must be finite" % (k, values[k]))

    @classmethod
    def _exchanged(cls, point: "CoordinatePoint", values: dict, written: set) -> "CoordinatePoint":
        """``point`` with ``values`` for its q (exact) or y (float)
        values, which differ from the point's only on ``written``: what a
        flip makes.  Only the written values are checked, in the point's
        edge order, so a flip reports what __init__ would."""
        new = cls.__new__(cls)
        new._set(point.exact, values, [k for k in values if k in written])
        new.omega = dict(point.omega)
        return new

    @classmethod
    def from_graph(cls, graph: FatGraph) -> "CoordinatePoint":
        """Read the values off the graph's edges.

        Exact when no stored value is a float, else every value is a Y,
        an exact q read as Y = log q; missing values default to q = 1
        (Y = 0) and loop weight 2.  One pass decides exactness and one
        reads the values in edge order, where _log_q refuses a q it
        cannot take; then the checks and their order are __init__'s:
        the first bad coordinate value, in edge order, is refused
        before any weight is read by _loop_weight.
        """
        edges = graph.edges.values()
        exact = not any(isinstance(e.value, float) for e in edges)
        values: dict = {}
        weights = []
        for e in edges:
            v = e.value
            if e.kind == "loop":
                weights.append((e.name, 2 if v is None else v))
            elif exact:
                values[e.name] = Fraction(1) if v is None else v if type(v) is Fraction else Fraction(v)
            elif v is None:
                values[e.name] = 0.0
            else:
                values[e.name] = float(v) if isinstance(v, float) else _log_q(e.name, v)
        point = cls.__new__(cls)
        point._set(exact, values, values)
        point.omega = {k: _loop_weight(k, v, exact) for k, v in weights}
        return point

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
            return _log_q(edge, self.q[edge])
        return self.y[edge]

    def as_float(self) -> "CoordinatePoint":
        if not self.exact:
            return CoordinatePoint(False, y=dict(self.y), omega=dict(self.omega))
        y = {k: _log_q(k, v) for k, v in self.q.items()}
        return CoordinatePoint(False, y=y, omega=self.omega)

    def value(self, name: str) -> Union[Fraction, float]:
        """The value a graph file stores for the edge: the loop weight,
        else q when exact and Y when float."""
        if name in self.omega:
            return self.omega[name]
        return self.q[name] if self.exact else self.y[name]

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
    by that edge's name.  Loop weights ride along (part of the point but
    invisible to the lambda values); see _lambda_reading for how both
    are read."""

    values: dict[str, Number]
    omega: dict[str, Number] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.omega is None:
            self.omega = {}

    def items(self):
        return self.values.items()

    def __getitem__(self, key):
        return self.values[key]


def _fock_table(graph: FatGraph) -> list[list[int]]:
    """Fock's bracket table P over the coordinate edges in file order.

    Each vertex adds +1 at (u, v) and -1 at (v, u) for every cyclically
    adjacent ordered pair (u, v) of its coordinate slots; loop halves
    carry no coordinate and are skipped.  Walks no dual arc.
    """
    index = {n: j for j, n in enumerate(graph.coordinate_edges())}
    table = [[0] * len(index) for _ in index]
    for halves in graph.vertices.values():
        slots = [index[e] for e in map(graph.edge_of, halves) if e in index]
        for u, v in zip(slots, slots[1:] + slots[:1]):
            table[u][v] += 1
            table[v][u] -= 1
    return table


class DualView:
    """The dual arcs of one graph as exponent vectors, derived once.

    ``names`` are the coordinate edges in file order and ``rows[i][j]``
    counts how often dual_arc(names[i]) runs through names[j] (loop
    bounces are not counted): the traversal-count matrix M.  Each row
    reads the runs into a cusp that dual_arc reads, from
    ribbon._run_into, and counts the halves they leave through, building
    no Step: a pending edge's row counts the run into its cusp, and an
    inner edge e's, with halves h1 and h2, the runs out through h1 and
    h2 less one crossing of e.  The view refuses with dual_arc's
    GraphError where dual_arc refuses (a face orbit with no cusp, or a
    run from a cusp on a loop-kind edge), and with its own a loop edge
    whose halves are not at one trivalent vertex.  The lambda-length of
    dual arc i is the unit monomial prod_j t_j^{M_ij}, t_j = e^{Y_j/2}.
    ``local[i]`` holds the nonzero (j, K_ij) of row i of K = P + E, P
    Fock's bracket table and E adding 1 on the diagonal of each pending
    edge, in ascending j.  K = 2 M^{-1} on a spine, and inverse() checks
    K M = 2I before handing K out; where it holds, Penner's form
    1/4 M^T P M is 1/4 (M^T - M) (forms).
    """

    __slots__ = ("names", "rows", "local", "_terms", "_checked")

    def __init__(self, graph: FatGraph):
        names = graph.coordinate_edges()
        index = {n: j for j, n in enumerate(names)}
        slot = {h: index.get(e) for h, e in graph._edge_of.items()}
        rows = []
        for name in names:
            edge = graph.edges[name]
            if edge.kind == "pending":
                exits = _run_into(graph, graph.mate(graph.cusp_half(graph.cusp_of_pending(name))))[1]
            else:  # as in dual_arc: the second run short of its crossing of the edge
                exits = _run_into(graph, edge.halves[0])[1] + _run_into(graph, edge.halves[1])[1][:-1]
            row = [0] * len(names)
            for j in map(slot.__getitem__, exits):
                if j is not None:
                    row[j] += 1
            rows.append(tuple(row))
        # a cusp has one half, so a loop's halves at one vertex are at a trivalent one
        for name in graph.loop_edges():
            a, b = graph.edges[name].halves
            if graph.vertex_of(a) != graph.vertex_of(b):
                raise GraphError("loop edge %s does not close at one trivalent vertex" % name)
        self.names = tuple(names)
        self.rows = tuple(rows)
        table = _fock_table(graph)  # K = P + E, P having a zero diagonal
        for i, name in enumerate(names):
            table[i][i] += graph.edges[name].kind == "pending"
        self.local = tuple(tuple((j, k) for j, k in enumerate(row) if k) for row in table)
        # the (edge, M_ij) pairs of each row's nonzero counts
        self._terms = [[(names[j], m) for j, m in enumerate(row) if m] for row in rows]
        self._checked = False

    def inverse(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``local``, once K M = 2I has been checked on this graph, row
        by row over the nonzeros of K and of the rows of M they pick,
        each column keyed by its edge."""
        if not self._checked:
            for name, terms in zip(self.names, self.local):
                row: dict[str, int] = {}
                for j, k in terms:
                    for n, m in self._terms[j]:
                        row[n] = row.get(n, 0) + k * m
                if {n: x for n, x in row.items() if x} != {name: 2}:
                    raise ValueError(
                        "dual-arc multiplicity matrix is not inverted by the local rule; "
                        "lambda-lengths do not determine the coordinates"
                    )
            self._checked = True
        return self.local

    def exact_lambdas(self, q: Mapping[str, Fraction]) -> list[SqrtRational]:
        """lambda_i = prod_j q_j^{floor(M_ij/2)} * sqrt(prod_{M_ij odd} q_j).

        Folded in ints, with one Fraction per value: each q_j is read
        once, as algebra._sqrt_parts, and each row multiplies its even
        powers and then folds its odd factors, in the order of q, by
        algebra._fold_sqrt, the rule matrix words fold theirs by, so a
        dual arc's word prints its lambda in the same form."""
        parts = {n: _sqrt_parts(x) for n, x in q.items()}
        rows = self._terms  # each in file order, re-sorted when q's order differs
        if tuple(q) != self.names:
            rank = {n: i for i, n in enumerate(q)}
            rows = [sorted(terms, key=lambda t: rank[t[0]]) for terms in rows]
        out = []
        for terms in rows:
            num = den = 1
            odd = []
            for n, m in terms:
                x = parts[n]
                if m & 1:
                    odd.append(x)
                if m > 1:
                    num *= x[0] ** (m >> 1)
                    den *= x[1] ** (m >> 1)
            num, den, rad = _fold_sqrt(odd, num, den)
            out.append(SqrtRational._of(Fraction(num, den), rad))
        return out

    def float_lambdas(self, y: Mapping[str, float]) -> list[float]:
        """lambda_i = exp(sum_j M_ij Y_j / 2), each held to
        _positive_lambda's float rule, 0 < lambda < inf."""
        out = []
        for name, terms in zip(self.names, self._terms):
            try:
                v = math.exp(0.5 * sum(m * y[n] for n, m in terms))
            except OverflowError:
                v = math.inf
            out.append(_positive_lambda(name, v, False))
        return out


def dual_view(graph: FatGraph) -> DualView:
    """The graph's DualView, built on first use and kept on the graph."""
    view = graph._dual
    if view is None:
        view = graph._dual = DualView(graph)
    return view


def lambda_of_dual_arcs(graph: FatGraph, point: Optional[CoordinatePoint] = None) -> LambdaAssignment:
    """Lambda-length of every coordinate edge's dual arc.

    Evaluated in closed form from the graph's DualView: the dual arc of
    edge i has lambda_i = prod_j t_j^{M_ij}, M the traversal-count
    matrix.  Exact points give prod_j q_j^{floor(M_ij/2)} *
    sqrt(prod_{M_ij odd} q_j), whose a*sqrt(b) form is fixed by the
    arc's exponent vector; float points give exp(sum_j M_ij Y_j / 2).
    The matrix word of the arc, lambda_length(graph, dual_arc(graph,
    name), point), gives the same values.
    """
    if point is None:
        point = graph.point()
    view = dual_view(graph)
    values = view.exact_lambdas(point.q) if point.exact else view.float_lambdas(point.y)
    return LambdaAssignment(dict(zip(view.names, values)), dict(point.omega))


def _all_exact(values) -> bool:
    """Whether every value is exact: one float makes a reading float."""
    # float and SqrtRational first: an isinstance test against Fraction,
    # an ABC, is slow unless the value is a Fraction
    return not any(type(v) is float or not isinstance(v, (SqrtRational, int, Fraction)) for v in values)


def _float(v, label: str, name: str) -> float:
    """float(v); an exact value too large for a float is refused."""
    try:
        return float(v)
    except OverflowError:
        raise ValueError("%s = %s is too large for a float" % (label % name, v)) from None


def _log_q(name: str, q: Fraction) -> float:
    """log q as a float; a q that is not positive is refused with an
    exact point's message, and one whose float is 0 or infinite as out
    of float range."""
    if q.numerator <= 0:
        raise ValueError("q[%s] = %s must be positive" % (name, q))
    x = _float(q, "q[%s]", name)
    if not x:
        raise ValueError("q[%s] = %s is too small for a float" % (name, q))
    return math.log(x)


def _positive_lambda(name: str, v, exact: bool):
    """A lambda value, which must be positive: exactly, as a Fraction or
    SqrtRational, or else as a finite float."""
    if exact:
        v = _promote(v)
        # the numerator carries the sign; cheaper than a Fraction comparison
        if (v.rat if isinstance(v, SqrtRational) else v).numerator <= 0:
            raise ValueError("lambda %s = %s must be positive" % (name, v))
        return v
    v = _float(v, "lambda %s", name)
    if not 0.0 < v < math.inf:
        raise ValueError("lambda %s = %r must be positive and finite" % (name, v))
    return v


def _loop_weight(name: str, v, exact: bool):
    """A loop weight, which must be >= 0: rational when the reading is
    exact, else a finite float.  Every reader of a weight uses this."""
    if exact:
        if type(v) is SqrtRational and v.rad == 1:
            v = v.rat
        elif not isinstance(v, (int, Fraction)):
            raise ValueError("loop weight omega[%s] = %s must be rational when exact" % (name, v))
        v = _promote(v)
        if v.numerator < 0:
            raise ValueError("loop weight omega[%s] = %s must be >= 0" % (name, v))
        return v
    v = _float(v, "loop weight omega[%s]", name)
    if not 0.0 <= v < math.inf:
        raise ValueError("loop weight omega[%s] = %s must be %s" % (name, v, "finite" if v > 0 else ">= 0"))
    return v


def _lambda_reading(graph: FatGraph, lambdas, complete: bool):
    """(values, carried weights, weights, exact) of a LambdaAssignment or
    a mapping of values; with ``complete`` the values must name exactly
    the coordinate edges.  The weights are the carried ones, which must
    name exactly the loops, else the graph's stored ones.  One float
    value or weight makes the reading float.  Readers check the values
    and then the weights they use, by _positive_lambda and _loop_weight."""
    if isinstance(lambdas, LambdaAssignment):
        values, carried = lambdas.values, lambdas.omega
    else:
        values, carried = lambdas, {}
    if complete:
        names = graph.coordinate_edges()
        known = set(names)
        for n in values:
            if n not in known:
                raise ValueError("lambda given for %s, which is not a coordinate edge" % n)
        missing = [n for n in names if n not in values]
        if missing:
            raise ValueError("missing lambda values for %s" % ", ".join(missing))
    loops = graph.loop_edges()
    if carried:
        known = set(loops)
        for n in carried:
            if n not in known:
                raise ValueError("loop weight given for %s, which is not a loop edge" % n)
        missing = [n for n in loops if n not in carried]
        if missing:
            raise ValueError("missing loop weights for %s" % ", ".join(missing))
    omega = carried or (graph.point().omega if loops else {})
    return values, carried, omega, _all_exact(values.values()) and _all_exact(omega.values())


def shear_from_lambda(graph: FatGraph, lambdas) -> CoordinatePoint:
    """Reconstruct the coordinate point from dual-arc lambda-lengths.

    Solves  M Y = 2 log(lambda)  for the coordinates by the local rule
    of the graph's DualView, K = 2 M^{-1}: exact inputs give
    q_i = sqrt(prod_j (lambda_j^2)^{K_ij}), an exact square root, and
    float inputs Y_i = sum_j K_ij log(lambda_j).  Exact inputs are
    folded in ints: each lambda_j^2 is an int pair, K's powers multiply
    as ints, and fraction_sqrt reduces the product once and takes its
    root, building the one Fraction of q_i; a product that is not a
    rational square is refused, naming the first such edge.  Loop
    weights are not determined by lambda-lengths: they are those a
    LambdaAssignment carries, else the graph's stored ones.  The input
    is read as a lambda file is (_lambda_reading): one float value or
    weight makes it float; values must be positive, weights >= 0,
    finite and, when exact, rational.
    """
    lam, _, omega, exact = _lambda_reading(graph, lambdas, True)
    view = dual_view(graph)
    names = view.names
    if exact:
        squares = []  # each lambda^2 as ints (numerator, denominator), not reduced
        for n in names:
            num, den, rad = _parts(_positive_lambda(n, lam[n], True))
            squares.append((num * num * rad, den * den))
        q: dict[str, Fraction] = {}
        for name, terms in zip(names, view.inverse()):
            num = den = 1
            for j, k in terms:
                a, b = squares[j]
                if k > 0:
                    num *= a**k
                    den *= b**k
                else:
                    num *= b**-k
                    den *= a**-k
            try:
                q[name] = fraction_sqrt(num, den)
            except ValueError:
                raise ValueError("lambda-lengths give no rational q for %s" % name) from None
        return CoordinatePoint(True, q=q, omega=omega)

    logs = [math.log(_positive_lambda(n, lam[n], False)) for n in names]
    y = {name: sum(k * logs[j] for j, k in terms) for name, terms in zip(names, view.inverse())}
    return CoordinatePoint(False, y=y, omega=omega)

