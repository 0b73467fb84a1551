"""Poisson and symplectic structure of the coordinate ring.

Three coordinate-indexed matrices are built combinatorially:

* ``poisson_matrix``: Fock's vertex-local bracket table P.  Each
  trivalent vertex contributes +1 for every cyclically adjacent ordered
  pair of its coordinate-bearing slots (loop half-edges carry no
  coordinate and are skipped); coords derives it once for P and the
  local inverse rule K = P + E.
* ``window_form_matrix``: the boundary-ordered two-form W.  Every
  window contributes +1 for every ordered pair of coordinate tokens
  along it.
* ``penner_form_matrix``: Penner's form, P in d log lambda, pulled back
  through log lambda = 1/2 M Y to 1/4 M^T P M, M the dual-arc traversal
  counts.  K = P + E with K M = 2I gives M^T P M = 2 M^T - M^T E M,
  antisymmetric on the left and M^T E M symmetric, so M^T P M = M^T - M.
  The window form equals it on every spine.

P and W are tables of ints; Penner's form, with its entries x/4, is the
one table of Fractions, and verify_inverse reads either kind as it is.

Centers of the bracket: one counting vector per cusped hole (the
traversal counts of its full boundary walk) and the loop weights, which
are parameters rather than coordinates.

Brackets of functions are a closed form: {Y_u, Y_v} = P_uv and t_u =
e^{Y_u/2} give {t^a, t^b} = 1/4 a^T P b t^{a+b}, and ``poisson_bracket``
returns 4{f, g} of two Laurent polynomials as one, with no derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import LaurentPoly, _merge_keys, _sparse_product
from .coords import _fock_table, dual_view
from .paths import t_var, w_var
from .ribbon import FatGraph, windows

__all__ = [
    "CoordinateIndexedMatrix",
    "CenterBasis",
    "poisson_matrix",
    "window_form_matrix",
    "penner_form_matrix",
    "center_vectors",
    "verify_inverse",
    "poisson_bracket",
]


class CoordinateIndexedMatrix:
    """Square matrix with rows and columns labeled by edge names; the
    rows are stored as given (ints, or Fractions for Penner's form)."""

    __slots__ = ("names", "data", "_index")

    def __init__(self, names: Sequence[str], data: list[list]):
        self.names = tuple(names)
        n = len(self.names)
        if len(data) != n or any(len(row) != n for row in data):
            raise ValueError("data shape does not match names")
        self.data = data
        self._index = {nm: i for i, nm in enumerate(self.names)}

    def __getitem__(self, key):
        u, v = key
        return self.data[self._index[u]][self._index[v]]

    def restrict(self, names: Sequence[str]) -> "CoordinateIndexedMatrix":
        idx = [self._index[n] for n in names]
        data = [[self.data[i][j] for j in idx] for i in idx]
        return CoordinateIndexedMatrix(names, data)

    def nonzero_row_names(self) -> list[str]:
        return [nm for i, nm in enumerate(self.names) if any(x != 0 for x in self.data[i])]

    def scaled(self, c) -> "CoordinateIndexedMatrix":
        return CoordinateIndexedMatrix(self.names, [[c * x for x in row] for row in self.data])

    def __eq__(self, other):
        if not isinstance(other, CoordinateIndexedMatrix):
            return NotImplemented
        return self.names == other.names and self.data == other.data

    def lines(self) -> list[str]:
        width = max([len(n) for n in self.names] + [4])
        width = max(width, max((len(str(x)) for row in self.data for x in row), default=1))
        head = " " * (width + 1) + " ".join(n.rjust(width) for n in self.names)
        out = [head]
        for nm, row in zip(self.names, self.data):
            out.append(nm.rjust(width) + "  " + " ".join(str(x).rjust(width) for x in row))
        return out

    def __repr__(self):
        return "CoordinateIndexedMatrix(%s)" % (self.names,)


def poisson_matrix(graph: FatGraph) -> CoordinateIndexedMatrix:
    """Bracket table {Y_u, Y_v} over the coordinate edges."""
    return CoordinateIndexedMatrix(graph.coordinate_edges(), _fock_table(graph))


def window_form_matrix(graph: FatGraph) -> CoordinateIndexedMatrix:
    """Two-form from the window orderings: +1 for every ordered pair of
    coordinate tokens inside one window."""
    names = graph.coordinate_edges()
    index = {n: j for j, n in enumerate(names)}
    table = [[0] * len(names) for _ in names]
    for w in windows(graph):
        tokens = [index[n] for n in w.coordinate_tokens(graph)]
        for p, u in enumerate(tokens):
            for v in tokens[p + 1:]:
                table[u][v] += 1
                table[v][u] -= 1
    return CoordinateIndexedMatrix(names, table)


class _Quarters(dict):
    """Fraction(d, 4) by int d, each built once on first use and then
    shared, as Fractions are immutable."""

    def __missing__(self, d: int) -> Fraction:
        x = self[d] = Fraction(d, 4)
        return x


_QUARTERS = _Quarters()


def penner_form_matrix(graph: FatGraph) -> CoordinateIndexedMatrix:
    """Penner's form, P in d log lambda, pulled back through
    log lambda = 1/2 M Y: 1/4 M^T P M, which is 1/4 (M^T - M) once
    view.inverse() has checked K M = 2I (raising its ValueError where it
    fails; see the module docstring).  The table starts at 0 and each
    nonzero M_ij of the view's sparse rows scatters d = M_ji - M_ij to
    (i, j) and -d to (j, i); every entry is the one Fraction(d, 4)
    _QUARTERS keeps for its int d, in rows that are lists of their own.
    """
    view = dual_view(graph)
    view.inverse()
    rows = view.rows
    table = [[_QUARTERS[0]] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, m in row.items():
            d = rows[j].get(i, 0) - m
            table[i][j], table[j][i] = _QUARTERS[d], _QUARTERS[-d]
    return CoordinateIndexedMatrix(view.names, table)


@dataclass
class CenterBasis:
    """Central elements: one coordinate-count vector per cusped hole
    plus the loop weights (Casimir parameters, no vector)."""

    names: tuple[str, ...]
    holes: list[tuple[int, list[int]]]
    loop_names: list[str]

    def lines(self) -> list[str]:
        out = []
        for face, vec in self.holes:
            body = " ".join("%s:%d" % (n, c) for n, c in zip(self.names, vec) if c)
            out.append("hole %d  %s" % (face, body))
        for nm in self.loop_names:
            out.append("loop %s  weight is a Casimir" % nm)
        return out


def center_vectors(graph: FatGraph) -> CenterBasis:
    names = tuple(graph.coordinate_edges())
    index = {n: i for i, n in enumerate(names)}
    monogons = set(graph.monogon_faces())
    holes = []
    for fi, orbit in enumerate(graph.faces()):
        if fi in monogons:
            continue
        vec = [0] * len(names)
        for h in orbit:
            name = graph.edge_of(graph.sigma(h))
            j = index.get(name)
            if j is not None:
                vec[j] += 1
        holes.append((fi, vec))
    return CenterBasis(names, holes, graph.loop_edges())


def verify_inverse(
    form: CoordinateIndexedMatrix,
    bracket: CoordinateIndexedMatrix,
    leaf: bool = False,
) -> tuple[Optional[Fraction], Fraction]:
    """Check that form*bracket is a scalar multiple of the identity.

    With ``leaf=True`` the check is made on the symplectic leaf: P W P
    is compared to c * P, W the form and P the bracket.  This is the
    check after projecting off the kernel of P (the direction of the
    Casimirs): P is antisymmetric, so the orthogonal projector T off its
    kernel has T P = P T = P, and T (W P) T = c T exactly when
    P W P = c P.  The products are algebra._sparse_product over each
    row's nonzeros as the table holds them, ints or Fractions.

    c is read from the first nonzero entry of the target (I, or P with
    ``leaf``) in row-major order and the residual max |product -
    c * target| is max |b * product - a * target| / b for c = a/b, in
    ints for int tables.  Returns (c, residual), Fractions; c is None when
    the target has no nonzero entry, the residual then max |product|.
    """
    if form.names != bracket.names:
        raise ValueError("mismatched coordinate labels")
    w, p = [[{j: x for j, x in enumerate(row) if x} for row in m.data] for m in (form, bracket)]
    prod = list(_sparse_product(map(dict.items, w), p))
    if leaf:
        prod = list(_sparse_product(map(dict.items, p), prod))
    want = p if leaf else [{i: 1} for i in range(len(p))]
    first = next(((i, j) for i, row in enumerate(want) for j in row), None)
    if first is None:
        return None, Fraction(max((abs(x) for row in prod for x in row.values()), default=0))
    i, j = first
    r = Fraction(prod[i].get(j, 0), want[i][j])
    residual = max(
        abs(r.denominator * got.get(k, 0) - r.numerator * row.get(k, 0))
        for got, row in zip(prod, want)
        for k in got.keys() | row.keys()
    )
    return r, Fraction(residual, r.denominator)


def poisson_bracket(graph: FatGraph, f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """4{f, g} = sum_uv P_uv (D_u f)(D_v g), D_u t^a = a_u t^a, for Laurent
    polynomials in the t_ and w_ variables of the graph's edges: an
    integer Laurent polynomial, the 1/4 kept outside as in W = 4 * Penner.
    Loop weights w_* are Casimirs; any other variable raises ValueError."""
    names = [t_var(n) for n in graph.coordinate_edges()]
    fock = {u: {v: p for v, p in zip(names, row) if p} for u, row in zip(names, _fock_table(graph))}
    stray = sorted({v for h in (f, g) for key in h.terms for v, _ in key} - fock.keys()
                   - {w_var(n) for n in graph.loop_edges()})
    if stray:
        raise ValueError("%s is no t_ or w_ variable of this graph's edges" % stray[0])
    out: dict = {}
    for kf, cf in f.terms.items():
        for kg, cg in g.terms.items():
            s = sum(a * b * fock[u].get(v, 0) for u, a in kf if u in fock for v, b in kg)
            if s:
                key = _merge_keys(kf, kg)
                out[key] = out.get(key, 0) + s * cf * cg
    return LaurentPoly(out)
