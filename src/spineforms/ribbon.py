"""Fat-graph spines with half-edge combinatorics.

A spine is a connected ribbon graph whose vertices are trivalent except
for one univalent cusp vertex per marked boundary point.  Edges come in
three kinds: ``inner`` (carrying a shear-type coordinate), ``pending``
(one end at a cusp, carrying an extended coordinate), and ``loop`` (both
halves at one trivalent vertex, bounding a monogon around a hole or
orbifold point and carrying a weight instead of a coordinate).

The stored cyclic order at each vertex is counterclockwise.  A boundary
walk arrives along a half-edge h and leaves through sigma(h), the next
half counterclockwise; its arrivals form one face orbit per hole, cached
on the graph.  Windows and dual arcs are stretches of those orbits: a
window runs from one cusp visit to the next, and a dual arc is a run
into a cusp, or two such runs joined across an inner edge.

Text round trip: parse_graph reads a graph file once, line by line,
each declaration once (a second surface line, or a field given twice
in one, is refused); an exact value is read as two ints by
str.partition and str.isdecimal, with no regular expression, and
builds one Fraction; FatGraph derives its four indexes, the owner,
sigma, edge and mate of each half, in one pass over the vertices and
cusps and one over the edges (sigma is a 3-cycle at a trivalent vertex
and fixes a cusp half, so sigma_inv is sigma twice and has no table);
CoordinatePoint.from_graph reads the point in two more, one deciding
whether it is exact and one reading the values; emit_graph writes each
value with %s, the key taken from the edge kind.  A flip builds no
graph from scratch: FatGraph._rewired derives the flipped graph from
its parent, patching the indexes at the two rewired vertices and
sharing what the flip leaves alone.
"""

from __future__ import annotations

import functools
import math
import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain
from fractions import Fraction
from typing import Iterable, Optional, Union

from .paths import PathWord, Step

__all__ = [
    "GraphError",
    "Edge",
    "FatGraph",
    "Window",
    "ValidationReport",
    "parse_graph",
    "validate",
    "windows",
    "dual_arc",
    "emit_graph",
]


class GraphError(ValueError):
    """Structural problem in a graph file or graph mutation."""


@dataclass(slots=True)
class Edge:
    """One edge and the value a graph file gives it, or None.  An inner
    or pending edge holds q = e^Y as a Fraction or Y as a float; a loop
    holds its weight as a Fraction or a float."""

    name: str
    kind: str
    halves: tuple[str, str]
    value: Optional[Union[Fraction, float]] = None


class FatGraph:
    """Immutable-by-convention half-edge structure.

    vertices: id -> tuple of half ids in stored (counterclockwise)
    cyclic order; cusps: id -> single half id; edges: name -> Edge in
    file order.  Four half-keyed maps are built eagerly so lookups
    during walks are dict hits: _owner (vertex or cusp), _sigma (next
    half counterclockwise), _edge_of and _mate.  sigma is a 3-cycle at
    each trivalent vertex and fixes each cusp half, so sigma_inv is
    sigma applied twice and needs no table of its own.  _moves, the
    move table of paths.walk_turn, is None until the graph is first
    walked; walk_turn alone starts and fills it.
    """

    def __init__(
        self,
        vertices: dict[str, tuple[str, ...]],
        cusps: dict[str, str],
        edges: dict[str, Edge],
        declared: Optional[dict[str, int]] = None,
    ):
        self.vertices = {v: tuple(hs) for v, hs in vertices.items()}
        self.cusps = dict(cusps)
        self.edges = dict(edges)
        self.declared = dict(declared) if declared else None

        owner: dict[str, str] = {}
        sigma: dict[str, str] = {}
        for vid, halves in self.vertices.items():
            if len(halves) != 3:
                raise GraphError("vertex %s must list exactly 3 half-edges" % vid)
            for h in halves:
                if h in owner:
                    raise GraphError("half-edge %s used twice" % h)
                owner[h] = vid
            a, b, c = halves
            sigma[a], sigma[b], sigma[c] = b, c, a
        for cid, h in self.cusps.items():
            if h in owner:
                raise GraphError("half-edge %s used twice" % h)
            owner[h], sigma[h] = cid, h
        self._owner = owner
        self._sigma = sigma

        edge_of: dict[str, str] = {}
        mate: dict[str, str] = {}
        for e in self.edges.values():
            if len(e.halves) != 2 or e.halves[0] == e.halves[1]:
                raise GraphError("edge %s needs two distinct half-edges" % e.name)
            a, b = e.halves
            for h in (a, b):
                if h not in owner:
                    raise GraphError("edge %s references unknown half-edge %s" % (e.name, h))
                if h in edge_of:
                    raise GraphError("half-edge %s referenced by two edges" % h)
                edge_of[h] = e.name
            mate[a], mate[b] = b, a
        if len(edge_of) != len(owner):
            h = next(h for h in owner if h not in edge_of)
            raise GraphError("half-edge %s belongs to no edge" % h)
        self._edge_of = edge_of
        self._mate = mate
        self._faces: Optional[list[list[str]]] = None
        self._dual = None  # coords.DualView, built on first use (or a flip's record of its parent's)
        self._sites: dict = {}  # flips.FlipSite by edge name, read on first use
        self._moves: Optional[tuple[dict, dict, dict]] = None  # paths.walk_turn's move table, started by the first walk

    def _rewired(self, orders: dict[str, tuple[str, ...]], edges: dict[str, Edge]) -> "FatGraph":
        """This graph with the trivalent vertices in ``orders`` taking new
        cyclic orders of the same halves, and with ``edges`` (the same
        names, kinds and halves) for its edges: the graph a flip makes.
        Of the four indexes, _owner and _sigma are copied and patched at
        those vertices, and _edge_of and _mate, which a rewiring leaves
        alone, are shared; sigma_inv is sigma twice, so there is no
        third map to patch.  The vertices keep their order, so the
        faces come out in a fresh build's order.  The move table is not
        shared, since sigma changes at the rewired vertices: the new
        graph starts with none, as a fresh build does.  Nothing is
        checked again, and the new graph declares no surface line."""
        g = FatGraph.__new__(FatGraph)
        g.vertices = {**self.vertices, **orders}
        g.cusps, g.edges, g.declared = self.cusps, edges, None
        owner, sigma = dict(self._owner), dict(self._sigma)
        for vid, (a, b, c) in orders.items():
            owner[a] = owner[b] = owner[c] = vid
            sigma[a], sigma[b], sigma[c] = b, c, a
        g._owner, g._sigma = owner, sigma
        g._edge_of, g._mate = self._edge_of, self._mate
        g._faces = g._dual = g._moves = None
        g._sites = {}
        return g

    # basic accessors

    def sigma(self, h: str) -> str:
        return self._sigma[h]

    def sigma_inv(self, h: str) -> str:
        return self._sigma[self._sigma[h]]

    def mate(self, h: str) -> str:
        return self._mate[h]

    def edge_of(self, h: str) -> str:
        return self._edge_of[h]

    def vertex_of(self, h: str) -> str:
        return self._owner[h]

    def halves_at(self, vertex: str) -> tuple[str, ...]:
        if vertex in self.vertices:
            return self.vertices[vertex]
        return (self.cusps[vertex],)

    def is_cusp_half(self, h: str) -> bool:
        return self._owner[h] in self.cusps

    def cusp_half(self, cusp: str) -> str:
        return self.cusps[cusp]

    def cusp_of_pending(self, name: str) -> str:
        e = self.edges[name]
        for h in e.halves:
            if self.is_cusp_half(h):
                return self._owner[h]
        raise GraphError("pending edge %s touches no cusp" % name)

    def coordinate_edges(self) -> list[str]:
        return [e.name for e in self.edges.values() if e.kind != "loop"]

    def loop_edges(self) -> list[str]:
        return [e.name for e in self.edges.values() if e.kind == "loop"]

    def point(self):
        return _coordinate_point().from_graph(self)

    # faces and derived counts

    def faces(self) -> list[list[str]]:
        """Orbits of arrival halves under h -> mate(sigma(h)); each orbit
        is one boundary walk (one hole), started from its first half in
        the order the vertices, then the cusps, list their halves."""
        if self._faces is None:
            mate, sigma = self._mate, self._sigma
            seen: set[str] = set()
            out: list[list[str]] = []
            for h in chain(chain.from_iterable(self.vertices.values()), self.cusps.values()):
                if h in seen:
                    continue
                orbit = []
                cur = h
                while cur not in seen:
                    seen.add(cur)
                    orbit.append(cur)
                    cur = mate[sigma[cur]]
                out.append(orbit)
            self._faces = out
        return self._faces

    def monogon_faces(self) -> list[int]:
        return [i for i, orbit in enumerate(self.faces()) if len(orbit) == 1]

    def counts(self) -> dict[str, int]:
        faces = self.faces()
        monogons = self.monogon_faces()
        V = len(self.vertices) + len(self.cusps)
        E = len(self.edges)
        F = len(faces)
        euler = V - E + F
        return {
            "trivalent": len(self.vertices),
            "cusps": len(self.cusps),
            "edges": E,
            "faces": F,
            "monogons": len(monogons),
            "cusped_faces": F - len(monogons),
            "genus2x": 2 - euler,
        }

    def is_connected(self) -> bool:
        if not self._owner:
            return False
        start = next(iter(self._owner.values()))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for h in self.halves_at(v):
                u = self._owner[self._mate[h]]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices) + len(self.cusps)

    def canonical_key(self):
        """Certificate invariant under renaming of vertex and cusp ids.

        Edge names are part of the key, and flips keep them, so the
        least-named pending edge from a cusp to a trivalent vertex is a
        canonical root: one breadth-first pass from the far end of that
        edge, each vertex read counterclockwise from the half it is
        entered through, gives one row per trivalent vertex of (edge
        name, kind, number of the mate half or -1).  A graph with no
        such edge has no root and is refused.
        """
        mate, owner, sigma, edge_of = self._mate, self._owner, self._sigma, self._edge_of
        roots = [(edge_of[h], mate[h]) for h in self.cusps.values()
                 if owner[mate[h]] in self.vertices and self.edges[edge_of[h]].kind == "pending"]
        if not roots:
            raise GraphError("canonical key needs a pending edge from a cusp to a trivalent vertex")
        start = min(roots)[1]
        placed = {owner[start]}
        queue = deque([start])
        halfnum: dict[str, int] = {}
        rows = []
        while queue:
            h = queue.popleft()
            row = []
            for _ in range(3):
                halfnum[h] = len(halfnum)
                m = mate[h]
                row.append((edge_of[h], self.edges[edge_of[h]].kind, halfnum.get(m, -1)))
                peer = owner[m]
                if peer in self.vertices and peer not in placed:
                    placed.add(peer)
                    queue.append(m)
                h = sigma[h]
            rows.append(tuple(row))
        return tuple(rows)


@functools.cache
def _coordinate_point():
    """coords.CoordinatePoint, imported once, on first use: coords
    imports this module, and an import statement in FatGraph.point cost
    more than reading the point."""
    from .coords import CoordinatePoint

    return CoordinatePoint


@dataclass(frozen=True)
class Window:
    """Boundary segment of a cusped hole between consecutive cusps,
    inclusive of the bounding pending edges."""

    hole: int
    start_cusp: str
    end_cusp: str
    steps: tuple[Step, ...]

    @property
    def tokens(self) -> list[str]:
        return [s.token() for s in self.steps]

    def coordinate_tokens(self, graph: FatGraph) -> list[str]:
        return [s.edge for s in self.steps if graph.edges[s.edge].kind != "loop"]


def _steps(graph: FatGraph, exits: Iterable[str]) -> tuple[Step, ...]:
    """The steps out through the given halves, each a '+' turn."""
    edge_of, edges = graph._edge_of, graph.edges
    steps = []
    for x in exits:
        name = edge_of[x]
        steps.append(Step(name, "+" if edges[name].kind == "loop" else None, x))
    return tuple(steps)


def windows(graph: FatGraph) -> list[Window]:
    """All windows, in face order: each face orbit cut at its cusp visits.
    A cusp on a loop edge is refused; a walk turn by turn bounces past it."""
    out: list[Window] = []
    for fi, orbit in enumerate(graph.faces()):
        at = [i for i, h in enumerate(orbit) if graph.is_cusp_half(h)]
        for i, j in zip(at, at[1:] + at[:1]):
            if graph.edges[graph._edge_of[orbit[j]]].kind == "loop":
                raise GraphError("window walk does not reach a cusp (invalid graph?)")
            run = orbit[i:j] if i < j else orbit[i:] + orbit[:j]
            steps = _steps(graph, map(graph._sigma.__getitem__, run))
            out.append(Window(fi, graph.vertex_of(orbit[i]), graph.vertex_of(orbit[j]), steps))
    return out


def _run_into(graph: FatGraph, half: str) -> tuple[str, list[str]]:
    """The last cusp the face walk visits before it leaves through
    ``half``, and the halves it leaves through from there up to ``half``,
    read by following the face orbit back from ``half``; that cusp is
    refused on a loop edge, as in windows.  dual_arc cuts its steps from
    these runs, and coords.DualView counts the rows of M from them."""
    sigma, mate = graph._sigma, graph._mate
    x, back = sigma[sigma[half]], [half]
    # sigma fixes cusp halves only; on a spine ``half`` leaves no cusp: tried last
    while True:
        h = mate[x]
        back.append(h)
        x = sigma[sigma[h]]
        if x == h or h == half:
            break
    if x != h or graph.edges[graph._edge_of[h]].kind == "loop":
        raise GraphError("hugging walk does not reach a cusp (invalid graph?)")
    return graph._owner[h], back[::-1]


def dual_arc(graph: FatGraph, name: str) -> PathWord:
    """The arc of the dual triangulation crossing the given edge, cut from
    the face orbits.  A pending edge's is the window of its hole that ends
    at its cusp (on a single-cusp hole, the whole boundary walk).  An inner
    edge's, with halves h1 and h2, is the run from the last cusp through
    the step out through h1, then the run up to h2, short of it, walked back."""
    edge = graph.edges.get(name)
    if edge is None:
        raise GraphError("no edge named %s" % name)
    if edge.kind == "loop":
        raise GraphError("loop edge %s has no dual arc" % name)
    if edge.kind == "pending":
        cusp = graph.cusp_of_pending(name)
        start, run = _run_into(graph, graph.mate(graph.cusp_half(cusp)))
        return PathWord(start, _steps(graph, run), cusp)
    start, run = _run_into(graph, edge.halves[0])
    end, tail = _run_into(graph, edge.halves[1])
    back = PathWord(end, _steps(graph, tail[:-1]), end).reversed(graph)
    return PathWord(start, _steps(graph, run) + back.steps, end)


@dataclass
class ValidationReport:
    checks: list[tuple[str, bool, str]]
    genus: int
    holes_with_cusps: int
    monogon_holes: int
    cusps: int
    edges: int

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def lines(self) -> list[str]:
        out = []
        for nm, passed, detail in self.checks:
            status = "ok" if passed else "FAIL"
            out.append("%-18s %-4s %s" % (nm, status, detail))
        return out


def validate(graph: FatGraph) -> ValidationReport:
    """Run every spine axiom on the graph and report per check.

    FatGraph refuses a graph whose half-edges are not paired by its
    edges or whose vertices are not trivalent, so the pairing and
    valence checks always pass; they stay in the report."""
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, passed: bool, detail: str = ""):
        checks.append((name, bool(passed), detail))

    check("pairing", True, "%d half-edges in %d edges" % (len(graph._owner), len(graph.edges)))
    check("valence", True, "all trivalent or cusp")

    pending = [e for e in graph.edges.values() if e.kind == "pending"]
    ok_pending = all(sum(graph.is_cusp_half(h) for h in e.halves) == 1 for e in pending)
    cusp_halves = set(graph.cusps.values())
    pend_cusp_halves = {h for e in pending for h in e.halves if graph.is_cusp_half(h)}
    ok_pending = ok_pending and pend_cusp_halves == cusp_halves and len(pending) == len(graph.cusps)
    check("pending-cusps", ok_pending, "%d pending edges, %d cusps" % (len(pending), len(graph.cusps)))

    loops = [e for e in graph.edges.values() if e.kind == "loop"]
    ok_loops = all(
        not graph.is_cusp_half(e.halves[0])
        and graph.vertex_of(e.halves[0]) == graph.vertex_of(e.halves[1])
        for e in loops
    )
    check("loop-placement", ok_loops, "%d loops" % len(loops))

    inner = [e for e in graph.edges.values() if e.kind == "inner"]
    ok_inner = all(not graph.is_cusp_half(h) for e in inner for h in e.halves)
    check("inner-placement", ok_inner, "%d inner edges" % len(inner))

    connected = graph.is_connected()
    check("connected", connected)

    faces = graph.faces()
    monogons = set(graph.monogon_faces())
    mono_ok = True
    mono_loops = set()
    for i in monogons:
        h = faces[i][0]
        name = graph.edge_of(graph.sigma(h))
        if graph.edges[name].kind != "loop":
            mono_ok = False
        mono_loops.add(name)
    mono_ok = mono_ok and len(monogons) == len(loops) and len(mono_loops) == len(loops)
    check("monogon-loops", mono_ok, "%d monogons for %d loops" % (len(monogons), len(loops)))

    cusped_ok = all(
        any(h in cusp_halves for h in orbit) for i, orbit in enumerate(faces) if i not in monogons
    )
    check("faces-have-cusps", cusped_ok)

    counts = graph.counts()
    n, E, s = counts["cusps"], counts["edges"], counts["faces"]
    s_o, s_h, genus2x = counts["monogons"], counts["cusped_faces"], counts["genus2x"]
    check("euler", genus2x >= 0 and genus2x % 2 == 0, "V-E+F = %d" % (2 - genus2x))
    g = genus2x // 2 if genus2x >= 0 and genus2x % 2 == 0 else -1

    expected_e = 6 * g - 6 + 3 * s + 2 * n
    check("edge-count", g >= 0 and E == expected_e, "E = %d, 6g-6+3s+2n = %d" % (E, expected_e))

    if graph.declared:
        d = graph.declared
        match = (
            d.get("g", g) == g
            and d.get("sh", s_h) == s_h
            and d.get("so", s_o) == s_o
            and d.get("n", n) == n
        )
        check(
            "header",
            match,
            "declared g=%s sh=%s so=%s n=%s, computed g=%d sh=%d so=%d n=%d"
            % (d.get("g"), d.get("sh"), d.get("so"), d.get("n"), g, s_h, s_o, n),
        )

    return ValidationReport(
        checks=checks,
        genus=g,
        holes_with_cusps=s_h,
        monogon_holes=s_o,
        cusps=n,
        edges=E,
    )


# The key each edge kind stores its value under, read and written; a
# loop also reads perimeter= and orbifold=.
_VALUE_KEYS = {"inner": "Z", "pending": "pi", "loop": "omega"}


def _int_refusal(digits: Iterable[str], refusal: str) -> GraphError:
    """The error for runs of digits that str.isdigit or the regex \\d
    accepted but int() refused: more digits than
    sys.get_int_max_str_digits() allows (Python before 3.10.7 has no
    such limit), else ``refusal`` (int() does not read every digit
    str.isdigit accepts, a superscript for one).
    The graph reader and the lambda-file reader both refuse by it."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    longest = max((len(d.lstrip("+-")) for d in digits), default=0)
    if 0 < limit < longest:
        return GraphError("a number of %d digits is too long; at most %d are read" % (longest, limit))
    return GraphError(refusal)


def _exact_parts(raw: str) -> Optional[tuple[int, int]]:
    """(numerator, denominator) of an integer or fraction value, else
    None: an optionally signed run of decimal digits (str.isdecimal, the
    digits int() reads), then optionally '/' and an unsigned run."""
    top, slash, bottom = raw.partition("/")
    if not (top[1:] if top[:1] in ("+", "-") else top).isdecimal() or slash and not bottom.isdecimal():
        return None
    try:
        num, den = int(top), int(bottom or 1)
    except ValueError:
        raise _int_refusal((top, bottom), "bad value %r" % raw) from None
    if not den:
        raise GraphError("value %r is not finite" % raw)
    return num, den


def _parse_float(raw: str) -> float:
    try:
        x = float(raw)
    except ValueError:
        raise GraphError("bad value %r" % raw) from None
    if not math.isfinite(x):
        raise GraphError("value %r is not finite" % raw)
    return x


def _parse_value(kind: str, key: str, raw: str) -> Union[Fraction, float]:
    if kind in ("inner", "pending"):
        if key != _VALUE_KEYS[kind]:
            raise GraphError("%s edges take %s=, got %s=" % (kind, _VALUE_KEYS[kind], key))
        parts = _exact_parts(raw)
        if parts is None:
            return _parse_float(raw)
        if parts[0] <= 0:
            raise GraphError("exact value is e^Y and must be positive")
        return Fraction(*parts)
    if key == "omega":
        parts = _exact_parts(raw)
        value = _parse_float(raw) if parts is None else Fraction(*parts)
        if value < 0:
            raise GraphError("loop weight omega=%s is negative; it must be >= 0" % raw)
        return value
    if key == "perimeter":
        p = _parse_float(raw)
        if p < 0:
            raise GraphError("hole perimeter perimeter=%s is negative; it must be >= 0" % raw)
        try:
            return 2.0 * math.cosh(p / 2.0)
        except OverflowError:
            raise GraphError("perimeter %r is too large" % raw) from None
    if key == "orbifold":
        refusal = "orbifold order must be an integer >= 2"
        try:
            p = int(raw) if raw.isdigit() else 0
        except ValueError:
            raise _int_refusal((raw,), refusal) from None
        if p < 2:
            raise GraphError(refusal)
        if p == 2:
            return Fraction(0)
        if p == 3:
            return Fraction(1)
        w = 2.0 * math.cos(math.pi / p)
        if w == 2.0:
            raise GraphError("orbifold order %s is too large: 2cos(pi/p) rounds to 2" % raw)
        return w
    raise GraphError("unknown value key %s=" % key)


def parse_graph(text: str) -> FatGraph:
    """Parse the line-oriented graph format.

    Grammar (# starts a comment):
      surface g=<int> sh=<int> so=<int> n=<int>
      vertex <id> ccw: <he> <he> <he>
      cusp <id> half: <he>
      edge <name> inner   <he> <he> [Z=<value>]
      edge <name> pending <he> <he> [pi=<value>]
      edge <name> loop    <he> <he> [omega=<v> | perimeter=<v> | orbifold=<int>]

    An integer or fraction coordinate value is exact and denotes e^Y; a
    decimal value is a float Y.  Loop weights are given directly
    (omega= with omega >= 0), via the hole perimeter P >= 0 (omega =
    2cosh(P/2) >= 2), or via an orbifold order p (omega = 2cos(pi/p),
    refused when it rounds to 2 in float).  A file has at most one
    surface line, which gives each of its fields at most once.
    """
    vertices: dict[str, tuple[str, ...]] = {}
    cusps: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    declared: Optional[dict[str, int]] = None

    for lineno, rawline in enumerate(text.splitlines(), 1):
        parts = rawline.split("#", 1)[0].split()
        if not parts:
            continue
        head = parts[0]
        try:
            if head == "edge":
                if len(parts) not in (5, 6):
                    raise GraphError("expected 'edge <name> <kind> <he> <he> [k=v]'")
                name, kind = parts[1], parts[2]
                if kind not in ("inner", "pending", "loop"):
                    raise GraphError("unknown edge kind %r" % kind)
                if name in edges:
                    raise GraphError("duplicate edge name %s" % name)
                value = None
                if len(parts) == 6:
                    key, eq, raw = parts[5].partition("=")
                    if not eq:
                        raise GraphError("malformed value %r" % parts[5])
                    value = _parse_value(kind, key, raw)
                edges[name] = Edge(name, kind, (parts[3], parts[4]), value)
            elif head == "vertex":
                if len(parts) != 6 or parts[2] != "ccw:":
                    raise GraphError("expected 'vertex <id> ccw: <he> <he> <he>'")
                vid = parts[1]
                if vid in vertices or vid in cusps:
                    raise GraphError("duplicate vertex id %s" % vid)
                a, b, c = hs = tuple(parts[3:6])
                if a == b or b == c or a == c:
                    raise GraphError("repeated half-edge at vertex %s" % vid)
                vertices[vid] = hs
            elif head == "cusp":
                if len(parts) != 4 or parts[2] != "half:":
                    raise GraphError("expected 'cusp <id> half: <he>'")
                cid = parts[1]
                if cid in vertices or cid in cusps:
                    raise GraphError("duplicate vertex id %s" % cid)
                cusps[cid] = parts[3]
            elif head == "surface":
                if declared is not None:
                    raise GraphError("duplicate surface line")
                declared = {}
                for item in parts[1:]:
                    k, eq, v = item.partition("=")
                    refusal = "malformed surface field %r" % item
                    if not eq or k not in ("g", "sh", "so", "n") or not v.lstrip("-").isdigit():
                        raise GraphError(refusal)
                    if k in declared:
                        raise GraphError("duplicate surface field %s" % k)
                    try:
                        declared[k] = int(v)
                    except ValueError:
                        raise _int_refusal((v,), refusal) from None
            else:
                raise GraphError("unknown directive %r" % head)
        except GraphError as exc:
            raise GraphError("line %d: %s" % (lineno, exc)) from None

    return FatGraph(vertices, cusps, edges, declared)


def emit_graph(graph: FatGraph, point=None) -> str:
    """Serialize back to the file format, optionally writing the value
    fields from a coordinate point.  Each value is written with %s,
    which for a float is its repr."""
    counts = graph.counts()
    lines = [
        "surface g=%d sh=%d so=%d n=%d"
        % (counts["genus2x"] // 2, counts["cusped_faces"], counts["monogons"], counts["cusps"])
    ]
    for vid, hs in graph.vertices.items():
        lines.append("vertex %s ccw: %s %s %s" % (vid, *hs))
    for cid, h in graph.cusps.items():
        lines.append("cusp %s half: %s" % (cid, h))
    for e in graph.edges.values():
        value = e.value if point is None else point.value(e.name)
        if value is None:
            lines.append("edge %s %s %s %s" % (e.name, e.kind, *e.halves))
        else:
            lines.append("edge %s %s %s %s %s=%s" % (e.name, e.kind, *e.halves, _VALUE_KEYS[e.kind], value))
    return "\n".join(lines) + "\n"
