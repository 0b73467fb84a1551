"""Edge flips and the induced coordinate and lambda-length mutations.

Flipping an inner edge rotates it inside its quadrilateral: with the
stored order (h_t, A, B) at the top vertex and (h_b, C, D) at the
bottom, the halves in slots B and D trade vertices and the coordinates
update multiplicatively,

    q_A' = q_A (1+q),   q_B' = q_B q/(1+q),   q' = 1/q,

with the A-rule on slots A and C and the B-rule on slots B and D,
accumulated when one edge occupies several slots.  When one endpoint
carries a loop the quadrilateral degenerates to a triangle with the
loop at its apex and the update picks up the loop weight w:

    q_A' = q_A (1 + w q + q^2),   q_B' = q_B q^2/(1 + w q + q^2).

Lambda-lengths mutate by the exchange relation: the flipped edge's dual
arc trades for the other diagonal of its quadrilateral,

    lam_e lam_e' = lam_A lam_C + lam_B lam_D
    lam_e lam_e' = lam_A^2 + w lam_A lam_B + lam_B^2   (loop case)

while every other dual arc keeps its class and value.  This is the
exchange relation of the cluster algebra of the surface (Fomin,
Shapiro and Thurston, "Cluster algebras and triangulated surfaces I").
An exact exchange is folded in ints (numerators, denominators and
radicands) by algebra's _mul_parts and _add_parts, the square-class
rules SqrtRational's operators use.  It builds one value and gives
what the formula written with those operators gives: the same
SqrtRational, a Fraction when no lambda read is a SqrtRational, and
the same refusal of a sum across two square classes.

``flip_edge`` is the entry point; it turns a loop's name into its
stem.  Both flip kinds run through one body, ``_flip``, which reads the
slots and the new cyclic orders off one ``FlipSite``, and one exchange
rule, ``_exchange``.  ``flip_inner`` and ``flip_loop_adjacent`` are
flip_edge restricted to one kind.  A flip derives its result from its
parent and touches only what it changes: the new graph patches the
parent's indexes at the two rewired vertices (FatGraph._rewired) and
keeps each Edge whose value is unchanged, and the new point checks only
the values the exchange wrote.  ``flip_site`` caches each site on the
graph, so a flip and mutate_lambda on the same graph and edge read it
once.

``verify_flip_matrix_identities`` proves the matrix-word substitution
rules symbolically over the Laurent ring.  The new letters carry one
radical each, u = sqrt(1 + t_Z^2) or v = sqrt(1 + w t_Z^2 + t_Z^4), and
every right-hand side holds exactly two of them, so it is u^2 (or v^2)
times a plain Laurent word and each check clears the radicand exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import LaurentPoly, Mat2, SqrtRational, _add_parts, _incompatible, _mul_parts, _parts
from .coords import CoordinatePoint, LambdaAssignment, _lambda_reading, _loop_weight, _positive_lambda
from .ribbon import Edge, FatGraph, GraphError

__all__ = [
    "FlipRecord",
    "FlipSite",
    "flip_site",
    "flip_edge",
    "flip_inner",
    "flip_loop_adjacent",
    "mutate_lambda",
    "verify_flip_matrix_identities",
]


@dataclass
class FlipRecord:
    """What a flip did: the edge the flip turned (a loop's name turns its
    stem), the site's kind, "inner" or "loop-stem", and the edges read
    off the stored cyclic orders in each slot (A, B, C, D, or A, B and
    the loop)."""

    edge: str
    kind: str
    slots: dict[str, str]


class FlipSite(NamedTuple):
    """The region a flip of one edge turns, read off the stored cyclic
    orders, and the kind of flip it takes.

    ``kind`` is "inner" (an inner edge between two loop-free vertices),
    "loop-stem" (an inner edge with a loop at exactly one end) or
    "refused", with ``reason`` saying why.  ``ends`` holds the cyclic
    order at each end rotated to start at the edge's half: the first
    and then the second half for an inner flip, the end away from the
    loop and then the loop's vertex for a loop stem.
    """

    kind: str
    ends: tuple[tuple[str, ...], ...]
    loop: Optional[str]
    reason: str


def _rotate_to(halves: tuple[str, ...], h: str) -> tuple[str, ...]:
    i = halves.index(h)
    return halves[i:] + halves[:i]


def flip_site(graph: FatGraph, name: str) -> FlipSite:
    """The quadrilateral or loop triangle a flip of ``name`` turns, and
    the flip's kind; unknown names raise GraphError.  The site is read
    once per graph and edge, by _read_site, and cached on the graph as
    its faces and dual view are; a flipped graph, derived from its
    parent, starts with no sites."""
    site = graph._sites.get(name)
    if site is None:
        site = graph._sites[name] = _read_site(graph, name)
    return site


def _read_site(graph: FatGraph, name: str) -> FlipSite:
    """Read the site of ``name`` off the stored cyclic orders."""
    edge = graph.edges.get(name)
    if edge is None:
        raise GraphError("no edge named %s" % name)
    if edge.kind != "inner":
        return FlipSite("refused", (), None, "only inner edges flip; %s is %s" % (name, edge.kind))
    h1, h2 = edge.halves
    v1, v2 = graph.vertex_of(h1), graph.vertex_of(h2)
    if v1 == v2:
        return FlipSite("refused", (), None, "cannot flip %s: both ends meet one vertex" % name)
    ends = (_rotate_to(graph.vertices[v1], h1), _rotate_to(graph.vertices[v2], h2))
    # a loop at an end of an inner edge fills both of that end's other slots
    x1, x2 = graph.edge_of(ends[0][1]), graph.edge_of(ends[1][1])
    loop1 = x1 if graph.edges[x1].kind == "loop" else None
    loop2 = x2 if graph.edges[x2].kind == "loop" else None
    if loop1 and loop2:
        return FlipSite("refused", (), None, "both ends of %s carry loops; no triangle to flip" % name)
    if loop1:
        return FlipSite("loop-stem", ends[::-1], loop1, "")
    if loop2:
        return FlipSite("loop-stem", ends, loop2, "")
    return FlipSite("inner", ends, None, "")


def _resolve(graph: FatGraph, name: str) -> tuple[str, FlipSite]:
    """The edge a flip of ``name`` turns, the stem for a loop's name,
    and its site; a refused site raises its reason."""
    edge = graph.edges.get(name)
    if edge is not None and edge.kind == "loop":
        u = graph.vertex_of(edge.halves[0])
        name = next(e for e in map(graph.edge_of, graph.vertices[u]) if e != name)
    site = flip_site(graph, name)
    if site.kind == "refused":
        raise GraphError(site.reason)
    return name, site


def flip_edge(graph: FatGraph, name: str, point: Optional[CoordinatePoint] = None):
    """Flip ``name``, or the stem of the loop ``name``, by the rule its
    site takes.  Returns (new graph, new point, FlipRecord); ``point``
    defaults to the graph's stored values."""
    return _flip(graph, *_resolve(graph, name), point)


def _softplus(z: float) -> float:
    """log(1 + e^z) without overflow."""
    return math.log1p(math.exp(-abs(z))) + max(z, 0.0)


def _exchange(point: CoordinatePoint, name: str, grow, shrink, w=None) -> CoordinatePoint:
    """The point after flipping ``name``.  With g = 1 + q and k = 1 in a
    quadrilateral, g = 1 + w q + q^2 and k = 2 at a loop of weight w:

        q_x' = q_x g on the grow slots,  q_x' = q_x q^k/g on the shrink
        slots,  q' = 1/q,

    multiplied up per edge when one edge fills several slots.  An exact
    point multiplies numerator and denominator ints and builds one
    Fraction per slot.  A float point takes the same steps on y = log q,
    summing each edge's shifts before adding them.  The new point keeps
    the untouched values and checks only the ones written here, so a
    float value that overflows is refused as the point's constructor
    refuses it."""
    k = 1 if w is None else 2
    values = dict(point.q if point.exact else point.y)
    z = values[name]
    if point.exact:
        # g = gn/gd; at a loop of weight w = wn/wd, g = (wd (d^2 + n^2) + wn n d) / (wd d^2)
        n, d = z.numerator, z.denominator
        if w is None:
            gn, gd = d + n, d
        else:
            gn, gd = w.denominator * (d * d + n * n) + w.numerator * n * d, w.denominator * d * d
        for slots, (a, b) in zip((grow, shrink), ((gn, gd), (n ** k * gd, d ** k * gn))):
            for x in slots:
                v = values[x]
                values[x] = Fraction(v.numerator * a, v.denominator * b)
        values[name] = Fraction(d, n)
        return CoordinatePoint._exchanged(point, values, {name, *grow, *shrink})
    acc: dict = {}
    if w is None:
        g = _softplus(z)
    elif z > 0:  # log(1 + w e^z + e^{2z}), stable on both tails
        g = 2 * z + math.log(1 + w * math.exp(-z) + math.exp(-2 * z))
    else:
        g = math.log(1 + w * math.exp(z) + math.exp(2 * z))
    for slots, m in zip((grow, shrink), (g, k * z - g)):
        for x in slots:
            acc[x] = acc.get(x, 0.0) + m
    for x, m in acc.items():
        values[x] += m
    values[name] = -z
    return CoordinatePoint._exchanged(point, values, {name, *acc})


def _flip(graph: FatGraph, name: str, site: FlipSite, point: Optional[CoordinatePoint]):
    """Both flip kinds: read the slots off ``site``, exchange the point
    and rewire the two ends.  In a quadrilateral, (h_t, A, B) and
    (h_b, C, D) become (h_t, D, A) and (h_b, B, C); at a loop stem the
    far end (h_v, A, B) becomes (h_v, B, A) and the loop's halves swap
    at its vertex.  The new graph is derived from ``graph`` at those two
    vertices (FatGraph._rewired), and an Edge whose value is the same
    object in the new point is kept."""
    if point is None:
        point = graph.point()
    (h1, a, b), (h2, c, d) = site.ends
    v1, v2 = graph.vertex_of(h1), graph.vertex_of(h2)
    sa, sb = graph.edge_of(a), graph.edge_of(b)
    if site.loop is None:
        slots = {"A": sa, "B": sb, "C": graph.edge_of(c), "D": graph.edge_of(d)}
        point2 = _exchange(point, name, (sa, slots["C"]), (sb, slots["D"]))
        orders = {v1: (h1, d, a), v2: (h2, b, c)}
    else:
        slots = {"A": sa, "B": sb, "loop": site.loop}
        point2 = _exchange(point, name, (sa,), (sb,), point.omega[site.loop])
        orders = {v1: (h1, b, a), v2: (h2, d, c)}
    values = {**(point2.q if point2.exact else point2.y), **point2.omega}
    edges = {}
    for n, e in graph.edges.items():
        v = values[n]
        edges[n] = e if e.value is v else Edge(n, e.kind, e.halves, v)
    return graph._rewired(orders, edges), point2, FlipRecord(name, site.kind, slots)


def flip_inner(graph: FatGraph, name: str, point: Optional[CoordinatePoint] = None):
    """flip_edge for an inner edge between two loop-free vertices;
    refuses every other edge, stems of loops with a pointer to
    flip_loop_adjacent."""
    site = flip_site(graph, name)
    if site.kind == "loop-stem":
        raise GraphError("edge %s is the stem of loop %s; use flip_loop_adjacent" % (name, site.loop))
    if site.kind == "refused":
        raise GraphError(site.reason)
    return _flip(graph, name, site, point)


def flip_loop_adjacent(graph: FatGraph, name: str, point: Optional[CoordinatePoint] = None):
    """flip_edge for the stem of a loop, given by its own name or the
    loop's (the move that drags the loop past its neighbor vertex);
    refuses an edge with no loop at either end."""
    name, site = _resolve(graph, name)
    if site.kind == "inner":
        raise GraphError("no loop at either end of %s; use flip_inner" % name)
    return _flip(graph, name, site, point)


def mutate_lambda(graph: FatGraph, lambdas, name: str) -> LambdaAssignment:
    """Exchange relation on the lambda-lengths of the dual arcs.

    Only the flipped edge's value changes; the quadrilateral (or, at a
    loop, triangle) sides keep their arcs.  A loop's name flips its
    stem, as in flip_edge.  The input is read as shear_from_lambda reads
    it (coords._lambda_reading), but only what the exchange reads is
    checked: the lambdas it reads, and the loop's weight at a loop stem.
    A float exchange whose products leave the float range, so that the
    new lambda would read inf or 0.0, is refused.  An exact exchange is
    folded in ints (_exact_sum, _exact_ratio).  The result carries the
    input's weights.
    """
    values, carried, omega, exact = _lambda_reading(graph, lambdas, False)
    name, site = _resolve(graph, name)

    def lam(h):
        n = graph.edge_of(h)
        v = values.get(n)
        if v is None:
            raise ValueError("missing lambda values for %s" % n)
        return _positive_lambda(n, v, exact)

    (h_e, h_a, h_b), (_, h_c, h_d) = site.ends
    la, lb = lam(h_a), lam(h_b)
    if site.kind == "loop-stem":
        le = lam(h_e)  # a bad lambda is reported before a bad weight
        w = _loop_weight(site.loop, omega[site.loop], exact)
        if exact:
            new = _exact_ratio(_exact_sum(((la, la), (w, la, lb), (lb, lb))), le)
        else:
            new = (la * la + w * la * lb + lb * lb) / le
    elif exact:  # the sum is refused before a bad lam(h_e) is
        new = _exact_ratio(_exact_sum(((la, lam(h_c)), (lb, lam(h_d)))), lam(h_e))
    else:
        new = (la * lam(h_c) + lb * lam(h_d)) / lam(h_e)
    if not exact and not 0.0 < new < math.inf:
        raise ValueError("exchanged lambda %s = %r is out of float range" % (name, new))
    return LambdaAssignment({**values, name: new}, dict(carried))


def _exact_sum(products) -> tuple:
    """(num, den, rad, radical) of the sum of the products of exact
    values, folded in ints by algebra's _mul_parts and _add_parts as
    SqrtRational arithmetic takes it left to right: a term is radical
    when one of its factors is a SqrtRational, and a Fraction plus a
    radical term is summed in the radical term's square class.  A sum
    across two square classes is refused as SqrtRational refuses it."""
    total = None
    for first, *rest in products:
        term, radical = _parts(first), isinstance(first, SqrtRational)
        for v in rest:
            term = _mul_parts(term, _parts(v))
            radical = radical or isinstance(v, SqrtRational)
        if total is None:
            total, total_radical = term, radical
            continue
        x, y = (term, total) if radical and not total_radical else (total, term)
        s = _add_parts(x, y)
        if s is None:
            raise _incompatible(*(SqrtRational._of(Fraction(n, d), r) for n, d, r in (x, y)))
        total, total_radical = s, total_radical or radical
    return (*total, total_radical)


def _exact_ratio(total: tuple, le):
    """An _exact_sum divided by the exact value le: a Fraction when
    neither is radical, else the SqrtRational that multiplying by
    le.inverse() gives, built once."""
    num, den, rad, radical = total
    e = _parts(le)
    num, den, rad = _mul_parts((num, den, rad), (e[1], e[0] * e[2], e[2]))
    if radical or isinstance(le, SqrtRational):
        return SqrtRational._of(Fraction(num, den), rad)
    return Fraction(num, den)


# Symbolic verification of the substitution identities.


def _x(p: LaurentPoly, q: LaurentPoly) -> Mat2:
    """[[0, -p], [q, 0]]; the edge matrix of a letter t is _x(t, 1/t)."""
    return Mat2(LaurentPoly(), -p, q, LaurentPoly())


def _prod(*mats: Mat2) -> Mat2:
    out = mats[0]
    for m in mats[1:]:
        out = out * m
    return out


def verify_flip_matrix_identities() -> list[tuple[str, bool]]:
    """Prove the quadrilateral and loop-triangle substitution rules.

    Each identity states that a matrix word through the flipped region
    equals the corresponding word in the new letters.  The new letters
    carry one radical each, rho = sqrt(rad): u = sqrt(1 + t_Z^2) in a
    quadrilateral and v = sqrt(1 + w t_Z^2 + t_Z^4) at a loop, with
    t~ = t rho on a grow slot and t~ = t t_Z^k/rho on a shrink slot
    (k = 1, 2).  Either way X(t~) = (rho/rad) N for a plain Laurent
    matrix N.  Every right-hand side holds exactly two new letters, so
    it is rho^2/rad^2 = 1/rad times a product of plain matrices, and
    each identity is checked as rad * lhs == that product over the
    Laurent ring alone.
    """
    t = {n: LaurentPoly.var("t_" + n) for n in "ABCDZ"}
    tz, w = t["Z"], LaurentPoly.var("w")
    x = {n: _x(p, p.inverse()) for n, p in t.items()}
    xz_t = _x(tz.inverse(), tz)
    el, er = Mat2(0, 1, -1, -1), Mat2(1, 1, -1, 0)
    fw, fw_i = Mat2(0, 1, -1, -w), Mat2(w, 1, -1, 0)

    def new_letters(k: int, rad: LaurentPoly) -> dict[str, Mat2]:
        # N for t~ = t rho on the grow slots A, C and t~ = t t_Z^k/rho on B, D
        out = {n: _x(t[n] * rad, t[n].inverse()) for n in "AC"}
        out.update({n: _x(t[n] * tz ** k, rad * (t[n] * tz ** k).inverse()) for n in "BD"})
        return out

    r, s = 1 + tz * tz, 1 + w * tz * tz + tz ** 4
    q, lp = new_letters(1, r), new_letters(2, s)
    checks = (
        ("quad-right-right", r, (x["D"], er, x["Z"], er, x["A"]), (q["D"], er, q["A"])),
        ("quad-right-left", r, (x["D"], er, x["Z"], el, x["B"]), (q["D"], el, xz_t, er, q["B"])),
        ("quad-adjacent", r, (x["C"], er, x["D"]), (q["C"], er, xz_t, er, q["D"])),
        ("loop-left", s, (x["B"], el, x["A"]), (lp["B"], el, xz_t, fw, xz_t, el, lp["A"])),
        ("loop-right", s, (x["B"], er, x["Z"], fw_i, x["Z"], er, x["A"]), (lp["B"], er, lp["A"])),
    )
    return [(name, Mat2(rad, 0, 0, rad) * _prod(*lhs) == _prod(*rhs)) for name, rad, lhs, rhs in checks]
