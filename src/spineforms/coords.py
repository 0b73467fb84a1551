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
(lambda_j^2)^{K_ej}), one exact square root.  Exact values are folded
in ints with one Fraction built per value: each lambda_i from its row's
even powers and odd factors (algebra._fold_sqrt), each q_e from the
lambda^2 kept as int pairs (algebra.fraction_sqrt).  M, held once as
sparse rows {j: M_ij}, and K are derived once per graph in a DualView
cached on the graph (see dual_view), which checks K M = 2I before K is
used.  The matrix words of the dual arcs (paths.lambda_length) remain
an independent check.  Penner's form 1/4 M^T P M is 1/4 (M^T - M) once
K M = 2I (forms).

A flip of edge k, whose parent's view is built, gets its view from the
parent's by the flip's closed forms (DualView._flipped): the other rows
of M change only in column k, so each changed row is a copy with that
one entry set or deleted, row k alone is walked again, and K' is K with
P mutated at k as a cluster exchange matrix.  K' M' = 2I is still
checked before K' is used.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from .algebra import SqrtRational, _fold_sqrt, _parts, _sparse_product, _sqrt_parts, fraction_sqrt
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


def _float_sum(values) -> float:
    """The values added left to right, one rounded add at a time, as the
    built-in sum adds floats before Python 3.12; from 3.12 on it
    compensates the rounding, which changes last bits, so the float
    lambdas and shears fold their sums here to read the same on every
    Python version."""
    return functools.reduce(operator.add, values, 0)


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

    ``names`` are the coordinate edges in file order and ``rows[i]`` maps
    each j, in ascending order, to the nonzero count of how often
    dual_arc(names[i]) runs through names[j] (loop bounces are not
    counted): the traversal-count matrix M, held once, each row read by
    _row.  The view refuses with dual_arc's GraphError where dual_arc
    refuses (a face orbit with no cusp, or a run from a cusp on a
    loop-kind edge), and with its own a loop edge whose halves are not
    at one trivalent vertex.  The lambda-length of dual arc i is the
    unit monomial prod_j t_j^{M_ij}, t_j = e^{Y_j/2}.
    ``local[i]`` holds the nonzero (j, K_ij) of row i of K = P + E, P
    Fock's bracket table and E adding 1 on the diagonal of each pending
    edge, in ascending j.  K = 2 M^{-1} on a spine, and inverse() checks
    K M = 2I before handing K out; where it holds, Penner's form
    1/4 M^T P M is 1/4 (M^T - M) (forms).
    """

    __slots__ = ("names", "rows", "local", "_checked")

    def __init__(self, graph: FatGraph):
        names = graph.coordinate_edges()
        index = {n: j for j, n in enumerate(names)}
        slot = {h: index.get(e) for h, e in graph._edge_of.items()}
        self.rows = tuple([_row(graph, name, slot.__getitem__) for name in names])
        # a cusp has one half, so a loop's halves at one vertex are at a trivalent one
        for name in graph.loop_edges():
            a, b = graph.edges[name].halves
            if graph.vertex_of(a) != graph.vertex_of(b):
                raise GraphError("loop edge %s does not close at one trivalent vertex" % name)
        self.names = tuple(names)
        table = _fock_table(graph)  # K = P + E, P having a zero diagonal
        for i, name in enumerate(names):
            table[i][i] += graph.edges[name].kind == "pending"
        self.local = tuple(tuple((j, k) for j, k in enumerate(row) if k) for row in table)
        self._checked = False

    def _flipped(self, graph: FatGraph, name: str, shrink: tuple[str, ...], d: int) -> "DualView":
        """The view of ``graph``, made by flipping the inner edge ``name``
        of this view's graph, by the flip's closed forms; d is 1 in a
        quadrilateral and 2 at a loop stem, and ``shrink`` the edges in
        the shrink slots (B and D, or B alone), one per slot.

        Every dual arc but name's keeps its lambda, so matching the
        coefficients of Y_k, k = name, under the flip's coordinate rule
        gives the rows j != k of M': they are M's but in column k, where
        M'_jk = d sum_{s in shrink} M_js - M_jk (the grow and shrink
        slots balance, so the shifts cancel).  A changed row is a copy
        with column k set or deleted, re-sorted only when k is new to
        it.  Row k is walked on ``graph``.  K' is K with P mutated at k,
        as a cluster algebra's exchange matrix: P'_ik = -P_ik, P'_kj =
        -P_kj and otherwise P'_ij = P_ij + d sgn(P_ik) max(P_ik P_kj, 0);
        E stays.  Rows that do not change are shared with this view, and
        the new view checks K' M' = 2I on its first inverse(), as a fresh
        one does."""
        names = self.names
        index = {n: j for j, n in enumerate(names)}
        k = index[name]
        a, b = [index[x] for x in shrink] * d  # d sum_S as two terms: (B, D) or (B, B)
        rows = list(self.rows)
        for j, row in enumerate(self.rows):
            old = row.get(k, 0)
            m = row.get(a, 0) + row.get(b, 0) - old
            if m != old and j != k:
                if not old:  # k new to the row: sorted into place
                    rows[j] = dict(sorted([*row.items(), (k, m)]))
                else:
                    row = rows[j] = {**row, k: m}
                    if not m:
                        del row[k]
        edge_of = graph._edge_of
        rows[k] = _row(graph, name, lambda h: index.get(edge_of[h]))
        local = list(self.local)
        pk = local[k]  # P_kj; K_kk = 0 on an inner edge, and P_ik = -P_ki
        local[k] = tuple((j, -p) for j, p in pk)
        for i, p in pk:
            new = dict(local[i])
            new[k] = -new[k]
            for j, pj in pk:
                if -p * pj > 0:  # P_ik P_kj > 0: add d sgn(P_ik) P_ik P_kj
                    new[j] = new.get(j, 0) + d * abs(p) * pj
            local[i] = tuple(sorted([x for x in new.items() if x[1]]))
        view = DualView.__new__(DualView)
        view.names, view.rows, view.local, view._checked = names, tuple(rows), tuple(local), False
        return view

    def inverse(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``local``, once K M = 2I has been checked on this graph, row by
        row of algebra._sparse_product, stopping at the first that fails."""
        if not self._checked:
            for i, row in enumerate(_sparse_product(self.local, self.rows)):
                if row.pop(i, 0) != 2 or any(row.values()):
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
        parts = [_sqrt_parts(q[n]) for n in self.names]
        rows = self.rows  # each in file order, re-sorted when q's order differs
        if tuple(q) != self.names:
            rank = {n: i for i, n in enumerate(q)}
            order = [rank[n] for n in self.names]
            rows = [dict(sorted(row.items(), key=lambda t: order[t[0]])) for row in rows]
        out = []
        for row in rows:
            num = den = 1
            odd = []
            for j, m in row.items():
                x = parts[j]
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
        ys = [y[n] for n in self.names]
        out = []
        for name, row in zip(self.names, self.rows):
            try:
                v = math.exp(0.5 * _float_sum(m * ys[j] for j, m in row.items()))
            except OverflowError:
                v = math.inf
            out.append(_positive_lambda(name, v, False))
        return out


def _row(graph: FatGraph, name: str, column) -> dict[int, int]:
    """Row ``name`` of M: {column: count}, in ascending column order, of
    the halves the dual arc of coordinate edge ``name`` leaves through,
    ``column`` giving a half's column (None for a loop's half).  The
    halves are read from ribbon._run_into, building no Step: a pending
    edge's run into its cusp, and an inner edge's two runs, the second
    short of its crossing of the edge, as dual_arc cuts them."""
    edge = graph.edges[name]
    if edge.kind == "pending":
        exits = _run_into(graph, graph.mate(graph.cusp_half(graph.cusp_of_pending(name))))[1]
    else:
        exits = _run_into(graph, edge.halves[0])[1] + _run_into(graph, edge.halves[1])[1][:-1]
    row: dict[int, int] = {}
    for j in sorted([j for j in map(column, exits) if j is not None]):
        row[j] = row.get(j, 0) + 1
    return row


def _incomplete(graph: FatGraph, point: CoordinatePoint, error: KeyError) -> Exception:
    """What a reader that caught ``error`` raises: a ValueError naming the
    first coordinate edge in file order with no q (or y) value, else the
    first loop with no weight; ``error`` itself if the point is complete.
    Built only after the catch, so a complete point pays nothing."""
    label, values = ("q", point.q) if point.exact else ("y", point.y)
    for names, given, what in (
        (graph.coordinate_edges(), values, label + " value for coordinate edge"),
        (graph.loop_edges(), point.omega, "weight for loop edge"),
    ):
        missing = next((n for n in names if n not in given), None)
        if missing is not None:
            return ValueError("point has no %s %s" % (what, missing))
    return error


def dual_view(graph: FatGraph) -> DualView:
    """The graph's DualView, built on first use and kept on the graph.

    A graph that a flip made from a parent with a built view holds, in
    its place, the flip's record (parent view, edge, shrink edges, d),
    which flips._flip leaves; the view is derived from it by
    DualView._flipped and the record dropped.  A record holds a view,
    never a graph, and a flip of a graph holding a record records
    nothing, so no chain of parents is kept alive."""
    view = graph._dual
    if type(view) is not DualView:
        view = graph._dual = DualView(graph) if view is None else view[0]._flipped(graph, *view[1:])
    return view


def lambda_of_dual_arcs(graph: FatGraph, point: Optional[CoordinatePoint] = None) -> LambdaAssignment:
    """Lambda-length of every coordinate edge's dual arc.

    Evaluated in closed form from the graph's DualView: the dual arc of
    edge i has lambda_i = prod_j t_j^{M_ij}, M the traversal-count
    matrix.  Exact points give prod_j q_j^{floor(M_ij/2)} *
    sqrt(prod_{M_ij odd} q_j), whose a*sqrt(b) form is fixed by the
    arc's exponent vector; float points give exp(sum_j M_ij Y_j / 2).
    The matrix word of the arc, lambda_length(graph, dual_arc(graph,
    name), point), gives the same values.  A point with no value for
    some coordinate edge is refused, naming the first in file order.
    """
    if point is None:
        point = graph.point()
    view = dual_view(graph)
    try:
        values = view.exact_lambdas(point.q) if point.exact else view.float_lambdas(point.y)
    except KeyError as exc:
        raise _incomplete(graph, point, exc) from None
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


def _check_names(given: Mapping, names, what: str, kind: str, plural: str) -> None:
    """Refuse the first name in ``given`` not in ``names``, then those missing."""
    known = set(names)
    for n in given:
        if n not in known:
            raise ValueError("%s given for %s, which is not a %s" % (what, n, kind))
    missing = [n for n in names if n not in given]
    if missing:
        raise ValueError("missing %s for %s" % (plural, ", ".join(missing)))


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
        _check_names(values, graph.coordinate_edges(), "lambda", "coordinate edge", "lambda values")
    loops = graph.loop_edges()
    if carried:
        _check_names(carried, loops, "loop weight", "loop edge", "loop weights")
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
    y = {name: _float_sum(k * logs[j] for j, k in terms) for name, terms in zip(names, view.inverse())}
    return CoordinatePoint(False, y=y, omega=omega)

