"""Random spines and randomized property suites.

Generation is rejection sampling in three steps.  Draw: a surface
signature, then loops, pendings and a perfect matching scattered over
the vertex slots, all as ints (slot i of vertex v is 3v + i).  Screen:
on those ints, count the face orbits and check that the monogons are
exactly the loops' and every other face has a cusp, and that the graph
is connected; about 7 draws in 8 stop here.  Build: only a survivor is
named and built into a FatGraph, and the full validator and the
signature check still run on it, raising if they refuse it.  Everything
is driven by one ``random.Random`` so a seed reproduces the corpus.
Draws read the generator only through ``getrandbits``, and for a
``random.Random`` they give the corpus that its choice, randint, sample
and shuffle gave on Python 3.10-3.13.

The suites re-check the structural invariants on that corpus: dual-arc
lambdas stay monomial, compiled words stay sign-definite, flips are
involutions whose graphs, derived from their parents, equal fresh
builds, lambda-lengths invert back to the coordinates by the
local rule, which DualView.inverse() checks exactly to be twice the
inverse of the dual-arc matrix, hole vectors stay central, and the
boundary-ordered form W equals M^T P M, four times the vertex-sum form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from sys import intern
from typing import Callable, Optional

from .algebra import LaurentPoly
from .coords import CoordinatePoint, DualView, dual_view, lambda_of_dual_arcs, shear_from_lambda
from .flips import flip_edge, flip_site, mutate_lambda
from .forms import penner_form_matrix, poisson_matrix, verify_inverse, window_form_matrix, center_vectors
from .paths import PathWord, compile_path, evaluate, lambda_length, t_var, walk_turn
from .ribbon import Edge, FatGraph, GraphError, dual_arc, validate, windows

__all__ = [
    "random_spine",
    "random_exact_point",
    "random_arc",
    "random_closed_word",
    "SuiteResult",
    "SUITES",
    "run_suite",
]


def _trivalent(sig: tuple[int, int, int, int]) -> int:
    """The number of trivalent vertices of a spine of signature
    (g, s_h, s_o, n): 4g - 4 + 2s + n, read off Euler's formula."""
    g, s_h, s_o, n = sig
    return 4 * g - 4 + 2 * (s_h + s_o) + n


def _below(bits: Callable[[int], int], n: int) -> int:
    """A draw from range(n) read through ``bits``, a generator's
    getrandbits: n.bit_length() bits at a time until the value is below
    n.  This is random.Random._randbelow on 3.10-3.13, through which
    choice(seq) draws seq[_below(bits, len(seq))] and randint(a, b)
    draws a + _below(bits, b - a + 1).  n <= 0 is refused, since
    getrandbits(0) is 0 and the loop would never end."""
    if n <= 0:
        raise ValueError("_below needs n >= 1, not %d" % n)
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _shuffle(bits: Callable[[int], int], xs: list[int]) -> None:
    """Random.shuffle(xs): Fisher-Yates swaps from the top."""
    for i in range(len(xs) - 1, 0, -1):
        j = _below(bits, i + 1)
        xs[i], xs[j] = xs[j], xs[i]


def _sample(bits: Callable[[int], int], m: int, k: int) -> list[int]:
    """Random.sample(range(m), k) as it is drawn for m <= 21: from a
    pool whose last entry fills each gap left by a pick."""
    pool = list(range(m))
    picked = []
    for top in range(m - 1, m - 1 - k, -1):
        j = _below(bits, top + 1)
        picked.append(pool[j])
        pool[j] = pool[top]
    return picked


_GENERA = (0, 0, 0, 0, 1, 1, 2)


def _signature(rng: random.Random) -> tuple[int, int, int, int]:
    """g from _GENERA, s_h in 1..3, n in s_h..4 and s_o in 0..5-s_h,
    drawn as choice and randint drew them, until Euler's count leaves
    at least one trivalent vertex with room for the loops and pendings.
    That keeps v3 <= 4*2 - 4 + 2*5 + 4 = 18."""
    bits = rng.getrandbits
    while True:
        g = _GENERA[_below(bits, 7)]
        s_h = 1 + _below(bits, 3)
        n = s_h + _below(bits, 5 - s_h)
        s_o = _below(bits, 6 - s_h)
        v3 = _trivalent((g, s_h, s_o, n))
        if v3 < max(1, s_o):
            continue
        if 3 * v3 - 2 * s_o - n < 0:
            continue
        return g, s_h, s_o, n


def _draw(rng: random.Random, sig: tuple[int, int, int, int]) -> list[int]:
    """One draw for the signature: the edges' halves, two by two, loops
    first, then pendings, then inner edges.  Half 3v + i is slot i of
    trivalent vertex v, and half 3v3 + k is the half of cusp k.

    Loops take two slots at each of s_o distinct vertices; the free
    slots are shuffled, n of them go to pendings, and the rest are
    shuffled again and paired.  3v3 - 2s_o - n = 12g - 12 + 6s + 2n -
    2s_o is even, so the pairing never runs short.  _signature keeps
    v3 <= 18, so _sample picks the vertices as Random.sample did."""
    g, s_h, s_o, n = sig
    bits = rng.getrandbits
    cut = 3 * _trivalent(sig)
    halves: list[int] = []
    for v in _sample(bits, cut // 3, s_o):
        i, j = sorted(_sample(bits, 3, 2))
        halves += (3 * v + i, 3 * v + j)
    used = set(halves)
    free = [h for h in range(cut) if h not in used]
    _shuffle(bits, free)
    for k in range(cut, cut + n):
        halves += (free.pop(), k)
    _shuffle(bits, free)
    return halves + free


def _screen(sig: tuple[int, int, int, int], halves: list[int]) -> bool:
    """True when the draw is a spine of signature sig, read on ints.

    The draw already has trivalent vertices, every half in one edge,
    pendings ending at cusps and loops at one vertex, and its Euler
    count gives genus g once it has s faces.  What is left of validate
    and the signature check: the orbits of h -> mate(sigma(h)) number
    s, where sigma turns a slot to the next one at its vertex and fixes
    cusp halves; s_o of them are monogons, each leaving through a loop
    half; every other orbit holds a cusp half; and the graph is
    connected.  A loop's two halves are neighbours at their vertex, so
    each loop closes one monogon, and a count of s_o monogons leaves no
    room for one closed by an inner edge."""
    g, s_h, s_o, n = sig
    cut = 3 * _trivalent(sig)
    mate = [0] * (cut + n)
    for k in range(0, len(halves), 2):
        a, b = halves[k], halves[k + 1]
        mate[a], mate[b] = b, a
    seen = [False] * (cut + n)
    faces = monogons = 0
    for h in range(cut + n):
        if seen[h]:
            continue
        faces += 1
        cur, size, cusped = h, 0, False
        while not seen[cur]:
            seen[cur] = True
            size += 1
            if cur >= cut:
                cusped = True
                cur = mate[cur]
            else:
                cur = mate[cur + 1 if cur % 3 != 2 else cur - 2]
        if size == 1:
            monogons += 1
        elif not cusped:
            return False
    if faces != s_h + s_o or monogons != s_o:
        return False
    # each cusp hangs off its pending's vertex, so the trivalent ones decide
    reached = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for h in range(3 * v, 3 * v + 3):
            u = mate[h] // 3
            if mate[h] < cut and u not in reached:
                reached.add(u)
                stack.append(u)
    return len(reached) == cut // 3


_TABLES: dict[tuple[int, int, int, int], tuple] = {}


def _table(v3: int, loops: int, pendings: int, inner: int) -> tuple:
    """The names of a spine of this size, made once and shared by every
    spine of it: (half names by half, vertices, cusps, edge names and
    kinds in order).  Vertex v is "v%d", its slot i "h%d_%d", cusp k
    (from 1) "c%d" with half "hc%d", and the edges "w%d", "p%d" and
    "e%d" in that order.  Every name is interned, so spines of other
    sizes share one string per name with these.  FatGraph copies the
    vertices and cusps dicts, so no graph can change the table; there
    is one table per size _signature can draw."""
    key = (v3, loops, pendings, inner)
    table = _TABLES.get(key)
    if table is None:
        names = [intern("h%d_%d" % (v, i)) for v in range(v3) for i in range(3)]
        names += [intern("hc%d" % k) for k in range(1, pendings + 1)]
        vertices = {intern("v%d" % v): tuple(names[3 * v : 3 * v + 3]) for v in range(v3)}
        cusps = {intern("c%d" % k): h for k, h in enumerate(names[3 * v3 :], 1)}
        edges = tuple((intern("%s%d" % (prefix, k)), kind)
                      for prefix, kind, count in (("w", "loop", loops), ("p", "pending", pendings), ("e", "inner", inner))
                      for k in range(1, count + 1))
        table = _TABLES[key] = (names, vertices, cusps, edges)
    return table


def _graph(sig: tuple[int, int, int, int], halves: list[int]) -> FatGraph:
    """The draw as a FatGraph, named from its size's _table.  Each
    half's name is one string, shared by its vertex or cusp and its
    edge, and the vertices' half tuples are the table's.  The Edge
    objects are the graph's own, since an Edge is mutable."""
    g, s_h, s_o, n = sig
    names, vertices, cusps, edges = _table(_trivalent(sig), s_o, n, len(halves) // 2 - s_o - n)
    return FatGraph(vertices, cusps, {
        name: Edge(name, kind, (names[a], names[b]))
        for (name, kind), a, b in zip(edges, halves[::2], halves[1::2])})


def _attempt(rng: random.Random, sig: tuple[int, int, int, int]) -> Optional[FatGraph]:
    """A spine drawn for the signature, or None when the screen refuses
    the draw.  FatGraph, validate and the signature check stay the
    authority: a survivor that any of them refuses is a fault of the
    screen, and raises."""
    halves = _draw(rng, sig)
    if not _screen(sig, halves):
        return None
    label = "g=%d sh=%d so=%d n=%d" % sig
    try:
        graph = _graph(sig, halves)
    except GraphError as exc:
        raise RuntimeError("spine screen passed a draw for %s that FatGraph refuses: %s" % (label, exc)) from exc
    report = validate(graph)
    if not report.ok or (report.genus, report.holes_with_cusps, report.monogon_holes, report.cusps) != sig:
        raise RuntimeError("spine screen passed a draw for %s that validate refuses" % label)
    return graph


_MAX_TRIES = 2000
_ARC_TRIES, _CLOSED_TRIES = 40, 60  # walks random_arc, random_closed_word try


def random_spine(seed_or_rng) -> FatGraph:
    """A validated random spine; deterministic for a given seed.

    Draws a signature and a graph for it until the int screen accepts
    one (about 8 draws per spine), then names and builds only that one.
    The draws read the generator only through getrandbits; for a
    random.Random they give the spines the stdlib helpers gave on
    3.10-3.13."""
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    for _ in range(_MAX_TRIES):
        graph = _attempt(rng, _signature(rng))
        if graph is not None:
            return graph
    raise RuntimeError("no valid spine found in %d attempts" % _MAX_TRIES)


def random_exact_point(rng: random.Random, graph: FatGraph) -> CoordinatePoint:
    q = {n: Fraction(rng.randint(1, 10), rng.randint(1, 10)) for n in graph.coordinate_edges()}
    omega = {n: Fraction(rng.randint(2, 6)) for n in graph.loop_edges()}
    return CoordinatePoint(True, q=q, omega=omega)


_TURNS = ("+", "-")


def _walk(rng: random.Random, graph: FatGraph, start_cusp: str, want_closed: bool, max_len: int):
    steps = []
    # sigma fixes a cusp half, so a turn there leaves along its pending edge
    arrival = walk_turn(graph, graph.cusp_half(start_cusp), "+", steps)
    while len(steps) < max_len:
        # one draw per trivalent vertex; the stem after a loop is forced
        arrival = walk_turn(graph, arrival, rng.choice(_TURNS), steps)
        if graph.is_cusp_half(arrival):
            end = graph.vertex_of(arrival)
            if want_closed and end != start_cusp:
                return None
            return PathWord(start_cusp, tuple(steps), end, closed=want_closed)
    return None


def _random_word(rng: random.Random, graph: FatGraph, closed: bool, max_len: int) -> Optional[PathWord]:
    """The first of _ARC_TRIES walks (_CLOSED_TRIES if ``closed``) to end
    at a cusp, its start cusp after more than 2 steps if closed; or None.
    A graph with no cusp is refused before anything is drawn."""
    cusp_names = list(graph.cusps)
    if not cusp_names:
        raise GraphError("a random %s starts at a cusp, and this graph has none" % (
            "closed word" if closed else "arc"))
    for _ in range(_CLOSED_TRIES if closed else _ARC_TRIES):
        path = _walk(rng, graph, rng.choice(cusp_names), closed, max_len)
        if path is not None and (not closed or len(path.steps) > 2):
            return path
    return None


def random_arc(rng: random.Random, graph: FatGraph, max_len: int = 20) -> Optional[PathWord]:
    """Random realizable cusp-to-cusp path (never an invented word)."""
    return _random_word(rng, graph, False, max_len)


def random_closed_word(rng: random.Random, graph: FatGraph, max_len: int = 24) -> Optional[PathWord]:
    """Random realizable based loop: leaves a cusp and first returns to
    the same cusp."""
    return _random_word(rng, graph, True, max_len)


@dataclass
class SuiteResult:
    name: str
    trials: int
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        status = "pass" if self.ok else "FAIL"
        extra = ""
        if self.info:
            extra = "  " + " ".join("%s=%s" % kv for kv in sorted(self.info.items()))
        out = "%-16s %s  (%d trials)%s" % (self.name, status, self.trials, extra)
        for f in self.failures[:5]:
            out += "\n    " + f
        if len(self.failures) > 5:
            out += "\n    ... %d more" % (len(self.failures) - 5)
        return out


def _spine_trials(trials: int, seed: int):
    """(trial, spine, rng) for each trial, one spine drawn per trial from
    random.Random(seed); a suite that draws more from the rng gets it."""
    rng = random.Random(seed)
    for k in range(trials):
        yield k, random_spine(rng), rng


def suite_monomiality(trials: int, seed: int) -> SuiteResult:
    """Dual-arc lambdas are single monomials with unit coefficient whose
    exponent vector is the arc's row of the traversal-count matrix, the
    closed form lambda_of_dual_arcs evaluates."""
    res = SuiteResult("monomiality", trials)
    for k, graph, _ in _spine_trials(trials, seed):
        view = dual_view(graph)
        for name, row in zip(view.names, view.rows):
            lam = lambda_length(graph, dual_arc(graph, name))
            if not lam.is_monomial():
                res.failures.append("graph %d dual(%s): %s" % (k, name, lam))
                continue
            coeff, powers = lam.monomial()
            if coeff != 1:
                res.failures.append("graph %d dual(%s) coefficient %d" % (k, name, coeff))
            if any(var.startswith("w_") for var in powers):
                res.failures.append("graph %d dual(%s) depends on a loop weight" % (k, name))
            exponents = {j: powers[v] for j, v in enumerate(map(t_var, view.names)) if v in powers}
            if exponents != row:
                res.failures.append("graph %d dual(%s) exponents %s, row of M %s" % (k, name, exponents, row))
    return res


def _sign_definite_in_s(p: LaurentPoly) -> bool:
    """True when p has one sign once every loop weight w_x is written as
    s_x + 1/s_x, with s_x = e^{P/2} for the hole perimeter P.

    A word that winds twice round one loop picks up F(w)^2, whose entry
    w^2 - 1 has mixed signs in w but is s^2 + 1 + s^-2 in s, so one sign
    in w alone is not a property of every word.
    """
    if p.sign_definite() is not None:
        return True
    expanded = LaurentPoly()
    for key, coeff in p.terms.items():
        term = LaurentPoly.const(coeff)
        for v, e in key:
            if v.startswith("w_"):
                s = LaurentPoly.var("s_" + v[2:])
                term = term * (s + s.inverse()) ** e
            else:
                term = term * LaurentPoly.var(v, e)
        expanded = expanded + term
    return expanded.sign_definite() is not None


def suite_positivity(trials: int, seed: int) -> SuiteResult:
    """Entries of compiled arc words and traces of closed words have one
    sign as Laurent polynomials once each loop weight is written as
    w = s + 1/s."""
    rng = random.Random(seed)
    closed_trials = max(1, (trials * 2) // 5)
    res = SuiteResult("positivity", trials + closed_trials)
    # term counts grow exponentially with word length; the default caps
    # in random_arc / random_closed_word keep evaluation in memory
    random_spine(rng)  # never used; drawing it keeps each seed's corpus
    for draw, count in ((random_arc, trials), (random_closed_word, closed_trials)):
        made = 0
        while made < count:
            if made % 10 == 0:
                graph = random_spine(rng)
            path = draw(rng, graph)
            if path is None:
                graph = random_spine(rng)
                continue
            m = evaluate(compile_path(graph, path))
            entries = {"trace": m.trace()} if path.closed else {
                "entry ul": m.a, "entry ur": m.b, "entry ll": m.c, "entry lr": m.d}
            for label, entry in entries.items():
                if not _sign_definite_in_s(entry):
                    res.failures.append("%s %s %s mixed: %s" % (
                        "closed" if path.closed else "arc", path.token_string(), label, entry))
            made += 1
    return res


def _flippable(graph: FatGraph) -> list[str]:
    return [name for name in graph.edges if flip_site(graph, name).kind != "refused"]


def _flip_draws(rng: random.Random):
    """Endless (spine, flippable edge, exact point) draws from ``rng``;
    a spine where no edge flips is drawn again."""
    while True:
        graph = random_spine(rng)
        options = _flippable(graph)
        if options:
            yield graph, rng.choice(options), random_exact_point(rng, graph)


_INDEXES = ("_owner", "_sigma", "_edge_of", "_mate")


def _as_built(graph: FatGraph) -> bool:
    """The indexes, faces and windows of a graph, which a flip derives
    from its parent, are those a fresh build of its vertices, cusps and
    edges gives."""
    fresh = FatGraph(graph.vertices, graph.cusps, graph.edges)
    return (all(getattr(graph, a) == getattr(fresh, a) for a in _INDEXES)
            and graph.faces() == fresh.faces() and windows(graph) == windows(fresh))


def suite_involution(trials: int, seed: int) -> SuiteResult:
    """Flipping any edge twice restores the graph and the point, and each
    flipped graph equals a fresh build of it."""
    res = SuiteResult("involution", trials)
    for k, (graph, name, point) in zip(range(trials), _flip_draws(random.Random(seed))):
        g1, p1, _ = flip_edge(graph, name, point)
        g2, p2, _ = flip_edge(g1, name, p1)
        if not (_as_built(g1) and _as_built(g2)):
            res.failures.append("trial %d edge %s: flipped graph differs from a fresh build" % (k, name))
        if g2.canonical_key() != graph.canonical_key():
            res.failures.append("trial %d edge %s: graph not restored" % (k, name))
        if p2 != point:
            res.failures.append("trial %d edge %s: point not restored" % (k, name))
    return res


def suite_roundtrip(trials: int, seed: int) -> SuiteResult:
    """shear_from_lambda undoes lambda_of_dual_arcs exactly.  Each call
    goes through DualView.inverse(), which checks K M = 2I exactly for
    the local rule K and the dual-arc matrix M; M is square, so that is
    K = 2 M^{-1}, and a graph where it fails fails the trial."""
    res = SuiteResult("roundtrip", trials)
    for k, graph, rng in _spine_trials(trials, seed):
        point = random_exact_point(rng, graph)
        try:
            lam = lambda_of_dual_arcs(graph, point)
            back = shear_from_lambda(graph, lam)
        except ValueError as exc:
            res.failures.append("trial %d: %s" % (k, exc))
            continue
        if back != point:
            res.failures.append("trial %d: reconstruction differs" % k)
    return res


def suite_mutation(trials: int, seed: int) -> SuiteResult:
    """Exchange-relation lambdas match the flipped graph's dual arcs.
    The lambdas are read before the flip, so the flipped graph's dual
    view is derived from its parent's (coords.dual_view), and it must
    equal a fresh DualView."""
    res = SuiteResult("mutation", trials)
    for k, (graph, name, point) in zip(range(trials), _flip_draws(random.Random(seed))):
        lam = lambda_of_dual_arcs(graph, point)
        g1, p1, _ = flip_edge(graph, name, point)
        mutated = mutate_lambda(graph, lam, name)
        actual = lambda_of_dual_arcs(g1, p1)
        for n in graph.coordinate_edges():
            if mutated[n] != actual[n]:
                res.failures.append("trial %d edge %s: lambda[%s] mismatch" % (k, name, n))
        fields = lambda v: (v.names, v.local, [list(row.items()) for row in v.rows])  # dict == ignores order
        if fields(dual_view(g1)) != fields(DualView(g1)):
            res.failures.append("trial %d edge %s: derived dual view differs from a fresh one" % (k, name))
    return res


def suite_centers(trials: int, seed: int) -> SuiteResult:
    """Hole vectors annihilate the bracket table."""
    res = SuiteResult("centers", trials)
    for k, graph, _ in _spine_trials(trials, seed):
        table = poisson_matrix(graph).data
        for face, vec in center_vectors(graph).holes:
            if any(sum(p * v for p, v in zip(row, vec)) for row in table):
                res.failures.append("graph %d hole %d: P v != 0" % (k, face))
    return res


def suite_proportionality(trials: int, seed: int) -> SuiteResult:
    """The window form W, read off the windows, equals M^T - M (which is
    M^T P M wherever DualView.inverse() passes), four times Penner's
    form, on every graph; tabulates kappa = Penner / W, 1/4 unless W = 0."""
    res = SuiteResult("proportionality", trials)
    seen: dict[str, int] = {}
    for k, graph, _ in _spine_trials(trials, seed):
        window = window_form_matrix(graph)
        mtpm = penner_form_matrix(graph).scaled(4)
        if window != mtpm:
            u, v = next((u, v) for u in window.names for v in window.names if window[u, v] != mtpm[u, v])
            res.failures.append("graph %d: W[%s,%s] = %s but M^T P M has %s" % (k, u, v, window[u, v], mtpm[u, v]))
            continue
        key = "1/4" if window.nonzero_row_names() else "(zero)"
        seen[key] = seen.get(key, 0) + 1
    res.info["kappa"] = ",".join("%s:%d" % kv for kv in sorted(seen.items()))
    return res


def suite_inversion(trials: int, seed: int) -> SuiteResult:
    """On single-cusp graphs the window form inverts the bracket up to
    one scalar on the nonzero block; multi-cusp graphs are only
    reported, their product need not be scalar."""
    res = SuiteResult("inversion", trials)
    scalars: dict[str, int] = {}
    skipped = 0
    for k, graph, _ in _spine_trials(trials, seed):
        if len(graph.cusps) != 1:
            skipped += 1
            continue
        window = window_form_matrix(graph)
        table = poisson_matrix(graph)
        sub = window.nonzero_row_names()
        if not sub:
            continue
        c, residual = verify_inverse(window.restrict(sub), table.restrict(sub))
        if c is None or residual != 0:
            res.failures.append("graph %d: product not scalar (c=%s residual=%s)" % (k, c, residual))
            continue
        scalars[str(c)] = scalars.get(str(c), 0) + 1
    res.info["c"] = ",".join("%s:%d" % kv for kv in sorted(scalars.items())) or "(none)"
    res.info["multicusp_skipped"] = skipped
    return res


SUITES: dict[str, Callable[[int, int], SuiteResult]] = {
    "monomiality": suite_monomiality,
    "positivity": suite_positivity,
    "involution": suite_involution,
    "roundtrip": suite_roundtrip,
    "mutation": suite_mutation,
    "centers": suite_centers,
    "proportionality": suite_proportionality,
    "inversion": suite_inversion,
}


def run_suite(name: str, trials: int, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise ValueError("unknown suite %r; choose from %s" % (name, ", ".join(sorted(SUITES))))
    return SUITES[name](trials, seed)
