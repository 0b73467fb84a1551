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

while every other dual arc keeps its class and value.

``verify_flip_matrix_identities`` proves the matrix-word substitution
rules symbolically, working in a square-root extension of the Laurent
ring and clearing denominators by cross-multiplication so every check
is exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .algebra import LaurentPoly, Mat2, SqrtExtension
from .coords import CoordinatePoint, LambdaAssignment
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
    """What a flip did: the edge, the slot assignment read off the
    stored cyclic orders, and the graphs and points on both sides."""

    edge: str
    kind: str
    slots: dict[str, str]
    before: FatGraph
    after: FatGraph
    point_before: CoordinatePoint
    point_after: CoordinatePoint


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
    """Read the quadrilateral or loop triangle a flip of ``name`` turns
    and decide the flip's kind; unknown names raise GraphError."""
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


def flip_edge(graph: FatGraph, name: str, point: Optional[CoordinatePoint] = None):
    """Flip ``name`` by the rule its site takes: flip_loop_adjacent for
    a loop or its stem, flip_inner for every other edge."""
    site = flip_site(graph, name)
    if site.kind == "loop-stem" or graph.edges[name].kind == "loop":
        return flip_loop_adjacent(graph, name, point)
    return flip_inner(graph, name, point)


def _softplus(z: float) -> float:
    """log(1 + e^z) without overflow."""
    return math.log1p(math.exp(-abs(z))) + max(z, 0.0)


def _rebuild(graph: FatGraph, new_vertices: dict[str, tuple[str, ...]], point: CoordinatePoint) -> FatGraph:
    vertices = dict(graph.vertices)
    vertices.update(new_vertices)
    edges = {
        n: Edge(n, e.kind, e.halves, point.edge_payload(n)) for n, e in graph.edges.items()
    }
    return FatGraph(vertices, graph.cusps, edges, None)


def flip_inner(graph: FatGraph, name: str, point: Optional[CoordinatePoint] = None):
    """Flip an inner edge between two ordinary trivalent vertices.

    Returns (new graph, new point, FlipRecord).  Refuses pending and
    loop edges, self-incident edges, and stems of loops (those go
    through flip_loop_adjacent).
    """
    site = flip_site(graph, name)
    if site.kind == "loop-stem":
        raise GraphError("edge %s is the stem of loop %s; use flip_loop_adjacent" % (name, site.loop))
    if site.kind == "refused":
        raise GraphError(site.reason)
    if point is None:
        point = graph.point()

    (h_t, a_h, b_h), (h_b, c_h, d_h) = site.ends
    top, bottom = graph.vertex_of(h_t), graph.vertex_of(h_b)
    slots = {
        "A": graph.edge_of(a_h),
        "B": graph.edge_of(b_h),
        "C": graph.edge_of(c_h),
        "D": graph.edge_of(d_h),
    }

    if point.exact:
        qz = point.q[name]
        grow = 1 + qz
        shrink = qz / grow
        factors: dict[str, Fraction] = {}
        for slot, f in (("A", grow), ("C", grow), ("B", shrink), ("D", shrink)):
            x = slots[slot]
            factors[x] = factors.get(x, Fraction(1)) * f
        q2 = dict(point.q)
        for x, f in factors.items():
            q2[x] *= f
        q2[name] = 1 / qz
        point2 = CoordinatePoint(True, q=q2, omega=dict(point.omega))
    else:
        z = point.y[name]
        grow_l = _softplus(z)
        shifts: dict[str, float] = {}
        for slot, df in (("A", grow_l), ("C", grow_l), ("B", z - grow_l), ("D", z - grow_l)):
            x = slots[slot]
            shifts[x] = shifts.get(x, 0.0) + df
        y2 = dict(point.y)
        for x, df in shifts.items():
            y2[x] += df
        y2[name] = -z
        point2 = CoordinatePoint(False, y=y2, omega=dict(point.omega))

    graph2 = _rebuild(
        graph,
        {top: (h_t, d_h, a_h), bottom: (h_b, b_h, c_h)},
        point2,
    )
    return graph2, point2, FlipRecord(name, "inner", slots, graph, graph2, point, point2)


def flip_loop_adjacent(graph: FatGraph, name: str, point: Optional[CoordinatePoint] = None):
    """Flip the stem of a loop (the move that drags the loop past its
    neighbor vertex).  Accepts the stem edge or the loop edge itself."""
    site = flip_site(graph, name)
    edge = graph.edges[name]
    if edge.kind == "loop":
        u = graph.vertex_of(edge.halves[0])
        stem_halves = [h for h in graph.halves_at(u) if graph.edge_of(h) != name]
        stem = graph.edge_of(stem_halves[0])
        return flip_loop_adjacent(graph, stem, point)
    if edge.kind != "inner":
        raise GraphError("the stem of a loop is an inner edge; %s is %s" % (name, edge.kind))
    if site.kind == "inner":
        raise GraphError("no loop at either end of %s; use flip_inner" % name)
    if site.kind == "refused":
        raise GraphError(site.reason)
    if point is None:
        point = graph.point()

    (h_v, a_h, b_h), (h_u, l1, l2) = site.ends
    v, u = graph.vertex_of(h_v), graph.vertex_of(h_u)
    loop = site.loop
    slots = {"A": graph.edge_of(a_h), "B": graph.edge_of(b_h), "loop": loop}

    if point.exact:
        w = point.omega[loop]
        qz = point.q[name]
        grow = 1 + w * qz + qz * qz
        shrink = qz * qz / grow
        factors: dict[str, Fraction] = {}
        for slot, f in (("A", grow), ("B", shrink)):
            x = slots[slot]
            factors[x] = factors.get(x, Fraction(1)) * f
        q2 = dict(point.q)
        for x, f in factors.items():
            q2[x] *= f
        q2[name] = 1 / qz
        point2 = CoordinatePoint(True, q=q2, omega=dict(point.omega))
    else:
        w = float(point.omega[loop])
        z = point.y[name]
        # log(1 + w e^z + e^{2z}), stable on both tails
        if z > 0:
            grow_l = 2 * z + math.log(1 + w * math.exp(-z) + math.exp(-2 * z))
        else:
            grow_l = math.log(1 + w * math.exp(z) + math.exp(2 * z))
        shifts: dict[str, float] = {}
        for slot, df in (("A", grow_l), ("B", 2 * z - grow_l)):
            x = slots[slot]
            shifts[x] = shifts.get(x, 0.0) + df
        y2 = dict(point.y)
        for x, df in shifts.items():
            y2[x] += df
        y2[name] = -z
        point2 = CoordinatePoint(False, y=y2, omega=dict(point.omega))

    graph2 = _rebuild(
        graph,
        {v: (h_v, b_h, a_h), u: (h_u, l2, l1)},
        point2,
    )
    return graph2, point2, FlipRecord(name, "loop-stem", slots, graph, graph2, point, point2)


def mutate_lambda(graph: FatGraph, lambdas, name: str) -> LambdaAssignment:
    """Exchange relation on the lambda-lengths of the dual arcs.

    Only the flipped edge's value changes; the quadrilateral (or, at a
    loop, triangle) sides keep their arcs.  The loop weight is the one
    carried by a LambdaAssignment, or else the graph's stored weight.
    """
    if isinstance(lambdas, LambdaAssignment):
        values = dict(lambdas.values)
        exact = lambdas.exact
        carried = dict(lambdas.omega)
    else:
        values = dict(lambdas)
        exact = all(not isinstance(v, float) for v in values.values())
        carried = {}
    site = flip_site(graph, name)
    if site.kind == "refused":
        raise GraphError(site.reason)

    def lam(h):
        v = values[graph.edge_of(h)]
        return Fraction(v) if isinstance(v, int) else v

    (h_e, h_a, h_b), (_, h_c, h_d) = site.ends
    la, lb = lam(h_a), lam(h_b)
    if site.kind == "loop-stem":
        omega = carried.get(site.loop)
        if omega is None:
            omega = graph.point().omega_value(site.loop)
        if exact and isinstance(omega, float):
            raise GraphError("exact mutation needs a rational weight for loop %s" % site.loop)
        w = Fraction(omega) if not isinstance(omega, float) else omega
        values[name] = (la * la + w * la * lb + lb * lb) / lam(h_e)
    else:
        values[name] = (la * lam(h_c) + lb * lam(h_d)) / lam(h_e)
    return LambdaAssignment(values, exact, carried)


# Symbolic verification of the substitution identities.


def _ext_const(gens, c: int) -> SqrtExtension:
    return SqrtExtension.from_poly(gens, LaurentPoly.const(c))


def _ext_poly(gens, p: LaurentPoly) -> SqrtExtension:
    return SqrtExtension.from_poly(gens, p)


def _ext_mat(gens, rows) -> Mat2:
    flat = []
    for x in rows[0] + rows[1]:
        if isinstance(x, int):
            flat.append(_ext_const(gens, x))
        elif isinstance(x, LaurentPoly):
            flat.append(_ext_poly(gens, x))
        else:
            flat.append(x)
    return Mat2(*flat)


def _x_mat(gens, tname: str) -> Mat2:
    t = LaurentPoly.var(tname)
    return _ext_mat(gens, [[LaurentPoly(), -t], [t.inverse(), LaurentPoly()]])


def _turn_l(gens) -> Mat2:
    return _ext_mat(gens, [[0, 1], [-1, -1]])


def _turn_r(gens) -> Mat2:
    return _ext_mat(gens, [[1, 1], [-1, 0]])


def _prod(*mats: Mat2) -> Mat2:
    out = mats[0]
    for m in mats[1:]:
        out = out * m
    return out


def _eq_scaled(lhs: Mat2, rhs_n: Mat2, scale: SqrtExtension) -> bool:
    """lhs == rhs_n / scale, checked as lhs*scale == rhs_n."""
    scaled = Mat2(lhs.a * scale, lhs.b * scale, lhs.c * scale, lhs.d * scale)
    return scaled == rhs_n


def verify_flip_matrix_identities() -> list[tuple[str, bool]]:
    """Prove the quadrilateral and loop-triangle substitution rules.

    Each identity states that a matrix word through the flipped region
    equals the corresponding word in the new letters.  The new letters
    involve u = sqrt(1+t^2) (or v = sqrt(1 + w t^2 + t^4) at a loop), so
    the check runs in the square-root extension and clears the
    denominators u^2 and v^2 by cross-multiplication.
    """
    results = []

    tz = LaurentPoly.var("t_Z")
    r = LaurentPoly.const(1) + tz * tz
    gens = (("u", r),)
    u = SqrtExtension.gen(gens, "u")
    xa = _x_mat(gens, "t_A")
    xb = _x_mat(gens, "t_B")
    xc = _x_mat(gens, "t_C")
    xd = _x_mat(gens, "t_D")
    xz = _x_mat(gens, "t_Z")
    xz_t = _ext_mat(gens, [[LaurentPoly(), -tz.inverse()], [tz, LaurentPoly()]])
    el, er = _turn_l(gens), _turn_r(gens)

    def scaled_x(tpoly: LaurentPoly, tinv: LaurentPoly) -> Mat2:
        # r * [[0, -t~], [t~^{-1}, 0]] with t~ = tpoly*u, t~^{-1} = tinv*u/r
        return _ext_mat(gens, [[_ext_const(gens, 0), -(_ext_poly(gens, tpoly * r) * u)],
                               [_ext_poly(gens, tinv) * u, _ext_const(gens, 0)]])

    ta, tb = LaurentPoly.var("t_A"), LaurentPoly.var("t_B")
    tc, td = LaurentPoly.var("t_C"), LaurentPoly.var("t_D")
    na = scaled_x(ta, ta.inverse())
    # t_B~ = t_B t_Z/u: r*X becomes [[0, -t_B t_Z u], [r u/(t_B t_Z), 0]]
    nb = _ext_mat(gens, [[0, -(_ext_poly(gens, tb * tz) * u)],
                         [_ext_poly(gens, (tb * tz).inverse() * r) * u, 0]])
    nc = scaled_x(tc, tc.inverse())
    nd = _ext_mat(gens, [[0, -(_ext_poly(gens, td * tz) * u)],
                         [_ext_poly(gens, (td * tz).inverse() * r) * u, 0]])
    rr = _ext_poly(gens, r * r)

    lhs = _prod(xd, er, xz, er, xa)
    rhs = _prod(nd, er, na)
    results.append(("quad-right-right", _eq_scaled(lhs, rhs, rr)))

    lhs = _prod(xd, er, xz, el, xb)
    rhs = _prod(nd, el, xz_t, er, nb)
    results.append(("quad-right-left", _eq_scaled(lhs, rhs, rr)))

    lhs = _prod(xc, er, xd)
    rhs = _prod(nc, er, xz_t, er, nd)
    results.append(("quad-adjacent", _eq_scaled(lhs, rhs, rr)))

    w = LaurentPoly.var("w")
    s = LaurentPoly.const(1) + w * tz * tz + tz ** 4
    gens2 = (("v", s),)
    v = SqrtExtension.gen(gens2, "v")
    xa2 = _x_mat(gens2, "t_A")
    xb2 = _x_mat(gens2, "t_B")
    xz2 = _x_mat(gens2, "t_Z")
    xz2_t = _ext_mat(gens2, [[LaurentPoly(), -tz.inverse()], [tz, LaurentPoly()]])
    el2, er2 = _turn_l(gens2), _turn_r(gens2)
    fw = _ext_mat(gens2, [[LaurentPoly(), LaurentPoly.const(1)], [LaurentPoly.const(-1), -w]])
    fw_i = _ext_mat(gens2, [[w, LaurentPoly.const(1)], [LaurentPoly.const(-1), LaurentPoly()]])
    na2 = _ext_mat(gens2, [[0, -(_ext_poly(gens2, ta * s) * v)],
                           [_ext_poly(gens2, ta.inverse()) * v, 0]])
    nb2 = _ext_mat(gens2, [[0, -(_ext_poly(gens2, tb * tz * tz) * v)],
                           [_ext_poly(gens2, (tb * tz * tz).inverse() * s) * v, 0]])
    ss = _ext_poly(gens2, s * s)

    lhs = _prod(xb2, el2, xa2)
    rhs = _prod(nb2, el2, xz2_t, fw, xz2_t, el2, na2)
    results.append(("loop-left", _eq_scaled(lhs, rhs, ss)))

    lhs = _prod(xb2, er2, xz2, fw_i, xz2, er2, xa2)
    rhs = _prod(nb2, er2, na2)
    results.append(("loop-right", _eq_scaled(lhs, rhs, ss)))

    return results
