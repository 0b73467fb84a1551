"""Dense Fraction linear algebra, float derivatives and the textbook
ratios of lambda-lengths, kept as reference oracles.

The package works on the nonzero entries of its sparse integer
matrices, and takes brackets in closed form.  The tests compare it
against the textbook routes: Gauss-Jordan for 2 M^{-1}, for the leaf
check an orthogonal projection off the kernel of the bracket, for the
bracket of two functions central differences against the table, and
for shear_from_lambda the cross-ratio of an inner edge's quadrilateral
and the ratio of a pending edge's triangle.
"""

import math
from fractions import Fraction

from spineforms.coords import CoordinatePoint, dual_view
from spineforms.forms import poisson_matrix


def frac_matmul(A, B):
    """A B, multiplied out over ints once each side's denominators are
    cleared."""
    (a, da), (b, db) = _cleared(A), _cleared(B)
    out = [[0] * (len(B[0]) if B else 0) for _ in A]
    for row, ai in zip(out, a):
        for x, bt in zip(ai, b):
            if x:
                for j, y in enumerate(bt):
                    row[j] += x * y
    return [[Fraction(x, da * db) for x in row] for row in out]


def _cleared(A):
    """(integer matrix, d) with A = matrix / d."""
    d = math.lcm(*(x.denominator for row in A for x in row))
    return [[x.numerator * (d // x.denominator) for x in row] for row in A], d


def frac_inverse(A):
    """Inverse via Gauss-Jordan; raises ValueError when singular."""
    n = len(A)
    aug = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("singular matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def frac_kernel(A):
    """Basis of the right kernel of A (rows are basis vectors)."""
    if not A:
        return []
    rows = [list(map(Fraction, row)) for row in A]
    n, m = len(rows), len(rows[0])
    pivots = []
    r = 0
    for col in range(m):
        pivot = next((i for i in range(r, n) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(n):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == n:
            break
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        vec = [Fraction(0)] * m
        vec[fc] = Fraction(1)
        for prow, pcol in enumerate(pivots):
            vec[pcol] = -rows[prow][fc]
        basis.append(vec)
    return basis


def cross_ratio(lam_a, lam_b, lam_c, lam_d):
    """Exponentiated shear of the edge between opposite arcs a, c and
    adjacent arcs b, d of the surrounding quadrilateral."""
    a, b, c, d = map(_promote, (lam_a, lam_b, lam_c, lam_d))
    return (a * c) / (b * d)


def pending_ratio(lam_a, lam_b, lam_c):
    """Exponentiated coordinate of a pending edge from the two arcs at
    its cusp and the arc closing the triangle."""
    a, b, c = map(_promote, (lam_a, lam_b, lam_c))
    return (a * b) / c


def _promote(v):
    return Fraction(v) if isinstance(v, int) else v


def dense_rows(view):
    """The view's traversal-count matrix M as dense rows: one tuple per
    coordinate edge, with a count, 0 or not, for every column."""
    n = len(view.names)
    return tuple(tuple(row.get(j, 0) for j in range(n)) for row in view.rows)


def local_rule_mismatches(graph):
    """(edge, row of the DualView's local rule, row of 2 M^{-1}) for
    every coordinate edge where the two differ."""
    view = dual_view(graph)
    inverse = frac_inverse(dense_rows(view))
    out = []
    for name, terms, inv in zip(view.names, view.local, inverse):
        row = [0] * len(view.names)
        for j, k in terms:
            row[j] = k
        twice = [2 * x for x in inv]
        if row != twice:
            out.append((name, row, twice))
    return out


def dense_verify_inverse(form, bracket, leaf=False):
    """(c, residual) of forms.verify_inverse by dense products: W P
    against c I, or with ``leaf`` T (W P) T against c T, T the
    orthogonal projector off the kernel of P."""
    n = len(form.data)
    identity = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    prod, target = frac_matmul(form.data, bracket.data), identity
    kernel = frac_kernel(bracket.data) if leaf else []
    if kernel:
        bt = [list(col) for col in zip(*kernel)]
        proj = frac_matmul(frac_matmul(bt, frac_inverse(frac_matmul(kernel, bt))), kernel)
        target = [[identity[i][j] - proj[i][j] for j in range(n)] for i in range(n)]
        prod = frac_matmul(frac_matmul(target, prod), target)
    first = next(((i, j) for i in range(n) for j in range(n) if target[i][j] != 0), None)
    if first is None:
        return None, max((abs(x) for row in prod for x in row), default=Fraction(0))
    c = prod[first[0]][first[1]] / target[first[0]][first[1]]
    return c, max(abs(prod[i][j] - c * target[i][j]) for i in range(n) for j in range(n))


def numeric_bracket(graph, f, g, point):
    """{f, g} at a float point by central differences, step 1e-4 in each
    Y, against Fock's table P; f and g map a CoordinatePoint to a float."""
    table = poisson_matrix(graph)
    step = 1e-4

    def grad(func):
        out = []
        for name in table.names:
            values = []
            for delta in (step, -step):
                y = dict(point.y)
                y[name] += delta
                values.append(func(CoordinatePoint(False, y=y, omega=point.omega)))
            out.append((values[0] - values[1]) / (2.0 * step))
        return out

    df, dg = grad(f), grad(g)
    return sum(p * df[u] * dg[v] for u, row in enumerate(table.data) for v, p in enumerate(row) if p)
