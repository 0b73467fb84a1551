"""The three benchmark workloads.

Each workload builds its inputs from a seed, then hands out operations
round by round.  Spines come from ``fuzz.random_spine`` and words from
``fuzz.random_arc`` and ``fuzz.random_closed_word`` at their default
lengths, as the fuzz suites use them, all genera and sizes included
(formal-words alone stops closed words at 20 steps, see FormalWords).
They are sampled systematically (see OVERSAMPLE), so a run's figures
depend less on which seed drew them, and dealt to rounds of
ROUND_SPINES spines.  Runs pass over the rounds again and again.

Every call into spineforms goes through the tracer ``T`` so a traced
run gets one span per call.  Every operation checks its result against
an oracle that does not share the code path being measured, and returns
whether the check held.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import random
import re
from pathlib import Path

from spineforms import cli, coords, flips, forms, fuzz, paths, ribbon
from spineforms.algebra import SqrtRational
from spineforms.coords import CoordinatePoint

FLOAT_TOL = 1e-9  # relative and absolute tolerance of float comparisons
ROUND_SPINES = 16  # spines per round; a run stops only at the end of a round
# Systematic sampling: draw OVERSAMPLE times the spines (or words) a
# workload needs, order them by size and keep every OVERSAMPLE-th.  The
# kept ones follow the sizes random_spine (or random_arc) gives in close
# to their proportions on every seed, where a plain draw of a few
# hundred would not: cost grows steeply with size, so a seed that drew
# a few more large spines would read as slower code.  A spine's size is
# the total length of its dual arcs, which predicts the time of
# lambda_of_dual_arcs to within about 6% (the number of coordinate
# edges alone: about 36%).
OVERSAMPLE = 3


def systematic(items: list, size, every: int = OVERSAMPLE) -> list:
    """Every ``every``-th of ``items`` in order of ``size``, the middle
    one of each group; ties stay in draw order."""
    return sorted(items, key=size)[every // 2::every]


class Counters:
    """Size counters of one pass over a workload's inputs.  They depend
    only on inputs and outputs, so they repeat exactly for a seed."""

    def __init__(self, arc_calls: int = 0, arc_hits: int = 0):
        self.arc_calls = arc_calls
        self.arc_hits = arc_hits
        self.atoms: list[int] = []
        self.terms_max = 0
        self.terms_total = 0
        self.coeff_bits_max = 0
        self.sqrt_bits_max = 0
        self.q_bits_max = 0
        self.lod_calls = 0
        self.lod_graphs: dict[int, object] = {}  # id -> graph, kept alive so ids stay unique

    def word(self, word, m) -> None:
        self.atoms.append(len(word.atoms))
        for entry in (m.a, m.b, m.c, m.d):
            self.terms_max = max(self.terms_max, len(entry.terms))
            self.terms_total += len(entry.terms)
            for c in entry.terms.values():
                self.coeff_bits_max = max(self.coeff_bits_max, abs(c).bit_length())

    def sqrt(self, values) -> None:
        for v in values:
            if isinstance(v, SqrtRational):
                bits = max(v.rat.numerator.bit_length(), v.rat.denominator.bit_length(), v.rad.bit_length())
                self.sqrt_bits_max = max(self.sqrt_bits_max, bits)

    def point(self, point: CoordinatePoint) -> None:
        for q in point.q.values():
            self.q_bits_max = max(self.q_bits_max, q.numerator.bit_length(), q.denominator.bit_length())

    def lod(self, graph) -> None:
        self.lod_calls += 1
        self.lod_graphs[id(graph)] = graph

    def metrics(self) -> dict[str, tuple[float, str]]:
        return {
            "paths.compile_path.atoms_max": (max(self.atoms, default=0), "count"),
            "paths.compile_path.atoms_mean": (sum(self.atoms) / len(self.atoms) if self.atoms else 0, "count"),
            "algebra.LaurentPoly.terms_max": (self.terms_max, "count"),
            "algebra.LaurentPoly.terms_total": (self.terms_total, "count"),
            "algebra.LaurentPoly.coeff_bits_max": (self.coeff_bits_max, "bits"),
            "algebra.SqrtRational.bits_max": (self.sqrt_bits_max, "bits"),
            "algebra.Fraction.q_bits_max": (self.q_bits_max, "bits"),
            "coords.lambda_of_dual_arcs.calls_per_graph": (
                self.lod_calls / len(self.lod_graphs) if self.lod_graphs else 0, "calls/graph"),
            "fuzz.random_arc.yield": (self.arc_hits / self.arc_calls if self.arc_calls else 0, "ratio"),
        }


def flippable(graph) -> list[tuple[str, str]]:
    """Inner edges a flip accepts, with the flip that takes them: 'inner'
    between two loop-free vertices, 'loop-stem' when exactly one end
    carries a loop."""
    def has_loop(v):
        return any(graph.edges[graph.edge_of(h)].kind == "loop" for h in graph.halves_at(v))

    out = []
    for e in graph.edges.values():
        if e.kind != "inner":
            continue
        v1, v2 = graph.vertex_of(e.halves[0]), graph.vertex_of(e.halves[1])
        if v1 == v2:
            continue
        l1, l2 = has_loop(v1), has_loop(v2)
        if not (l1 and l2):
            out.append((e.name, "loop-stem" if (l1 or l2) else "inner"))
    return out


def flip_call(T, graph, edge: str, kind: str, point):
    if kind == "inner":
        return T("flips.flip_inner", flips.flip_inner, graph, edge, point)
    return T("flips.flip_loop_adjacent", flips.flip_loop_adjacent, graph, edge, point)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=FLOAT_TOL, abs_tol=FLOAT_TOL)


def one_sign(coeffs) -> bool:
    coeffs = [c for c in coeffs if c]
    return all(c > 0 for c in coeffs) or all(c < 0 for c in coeffs)


def sign_definite(terms: dict) -> bool:
    """Laurent polynomial terms (monomial key -> coefficient) all of one
    sign once every loop weight w is written
    as s + 1/s, s = e^{P/2} for the hole perimeter P.

    A word that winds twice around one loop picks up F(w)^2, whose
    entry w^2 - 1 has mixed signs in w but is s^2 + 1 + s^-2 in s, so
    sign-definiteness in w alone is not a property of every word.
    """
    if one_sign(terms.values()):
        return True
    expanded: dict[tuple, int] = {}
    for key, c in terms.items():
        parts = [(tuple((v, e) for v, e in key if not v.startswith("w_")), c)]
        for v, k in key:
            if v.startswith("w_"):
                s = "s_" + v[2:]
                parts = [(mono + ((s, k - 2 * j),), coeff * math.comb(k, j))
                         for mono, coeff in parts for j in range(k + 1)]
        for mono, coeff in parts:
            mono = tuple(sorted((v, e) for v, e in mono if e))
            expanded[mono] = expanded.get(mono, 0) + coeff
    return one_sign(expanded.values())


class Workload:
    """Inputs of one workload, built from a seed.  Subclasses fill
    ``rounds`` in ``build`` and turn a round into operations in
    ``_ops``."""

    name = ""
    # Spines are drawn 8x: the largest spines set the tail and much of
    # the total (lambda_of_dual_arcs and formal dual arcs grow steeply
    # with dual-arc length), and with 3x the top sizes, and op_tail_ms
    # with them, still moved by a quarter between seeds.
    SPINE_OVERSAMPLE = 8

    def __init__(self, seed: int, T):
        self.rng = random.Random("%s:%d" % (self.name, seed))
        self.digest = hashlib.sha256()
        self.arc_calls = 0
        self.arc_hits = 0
        self.rounds: list[list] = []
        self.build(T)
        self.pass_seed = self.rng.getrandbits(64)
        self.feed(self.pass_seed)
        self.pass_len = sum(self.round_len(items) for items in self.rounds)

    def build(self, T) -> None:
        raise NotImplementedError

    def feed(self, *parts) -> None:
        for part in parts:
            self.digest.update(str(part).encode())
            self.digest.update(b"\0")

    def spines(self, T, rounds: int, need_flip: bool) -> list[list]:
        """``rounds`` lists of ROUND_SPINES random spines, sampled
        systematically by size and dealt to rounds in a seeded order,
        smallest first within a round so that the warm-up, which runs
        the first operations, costs about the same on every seed.  With
        ``need_flip`` only spines with a flippable edge are drawn."""
        pool = []
        while len(pool) < self.SPINE_OVERSAMPLE * rounds * ROUND_SPINES:
            g = T("fuzz.random_spine", fuzz.random_spine, self.rng)
            if not need_flip or flippable(g):
                pool.append(g)
        size = {id(g): sum(len(T("ribbon.dual_arc", ribbon.dual_arc, g, name).steps) for name in g.coordinate_edges())
                for g in pool}
        kept = systematic(pool, lambda g: size[id(g)], self.SPINE_OVERSAMPLE)
        self.rng.shuffle(kept)
        return [sorted(kept[r * ROUND_SPINES:(r + 1) * ROUND_SPINES], key=lambda g: size[id(g)]) for r in range(rounds)]

    def random_arc(self, T, graph):
        path = T("fuzz.random_arc", fuzz.random_arc, self.rng, graph)
        self.arc_calls += 1
        self.arc_hits += path is not None
        return path

    def counters(self) -> Counters:
        return Counters(self.arc_calls, self.arc_hits)

    def round_len(self, items) -> int:
        return len(items)

    def round_ops(self, T, C):
        """Endless rounds, each an iterator of its operations: one pass
        over all rounds, then the same pass again.  ``C`` collects size
        counters when not None.  The random choices made while the
        workload runs restart with each pass, so every pass repeats the
        same inputs."""
        while True:
            rng = random.Random(self.pass_seed)
            for items in self.rounds:
                yield self._ops(T, C, rng, items)

    def _ops(self, T, C, rng, round_items):
        raise NotImplementedError


class FormalWords(Workload):
    """Formal evaluation of dual arcs, random arcs and closed words over
    Laurent polynomials; no exact numbers, no flips."""

    name = "formal-words"
    ROUNDS = 15
    ARCS = 12  # random arcs per spine
    CLOSED = 6  # random closed words per spine
    # Closed words stop at 20 steps, not at random_closed_word's 24: the
    # rare closed words of 21-24 steps on genus-2 spines take 1-2 s and
    # 60-100 MB each, and whether a seed drew one moved ops_per_s,
    # op_tail_ms and peak_rss_mb by 20% to 57% (IQR over median) between
    # seeds.
    CLOSED_MAX_LEN = 20

    def build(self, T) -> None:
        """Words are sampled systematically over the whole workload, by
        number of steps and then by the number of coordinate edges of
        their spine: a word's time grows exponentially with its length,
        and the few longest words on large spines take about 40% of
        the time of all of them."""
        rounds = self.spines(T, self.ROUNDS, False)
        drawn = []  # (round, spine, kind, path) in draw order
        for r, spines in enumerate(rounds):
            for b, g in enumerate(spines):
                self.feed(T("ribbon.emit_graph", ribbon.emit_graph, g))
                drawn += [(r, b, "arc", self.random_arc(T, g)) for _ in range(OVERSAMPLE * self.ARCS)]
                drawn += [(r, b, "closed", T("fuzz.random_closed_word", fuzz.random_closed_word, self.rng, g,
                                             self.CLOSED_MAX_LEN))
                          for _ in range(OVERSAMPLE * self.CLOSED)]
        words: dict[tuple, list] = {}
        for kind in ("arc", "closed"):
            pool = [d for d in drawn if d[2] == kind and d[3] is not None]
            for r, b, _, path in systematic(pool, lambda d: (len(d[3].steps), len(rounds[d[0]][d[1]].coordinate_edges()))):
                words.setdefault((r, b), []).append((kind, path))
        for r, spines in enumerate(rounds):
            items = []
            for b, g in enumerate(spines):
                items += [("dual", g, name) for name in g.coordinate_edges()]
                items += [(kind, g, path) for kind, path in words.get((r, b), [])]
            self.feed(*(it[2] if it[0] == "dual" else it[2].token_string() for it in items))
            self.rounds.append(items)

    def _ops(self, T, C, rng, round_items):
        for kind, g, arg in round_items:
            yield lambda kind=kind, g=g, arg=arg: self.op(T, C, kind, g, arg)

    @staticmethod
    def op(T, C, kind, g, arg) -> bool:
        path = T("ribbon.dual_arc", ribbon.dual_arc, g, arg) if kind == "dual" else arg
        word = T("paths.compile_path", paths.compile_path, g, path)
        m = T("paths.evaluate.formal", paths.evaluate, word)
        if C is not None:
            C.word(word, m)
        if kind == "dual":
            # the dual arc's lambda-length is a unit monomial in the t_* variables
            terms = m.b.terms
            if len(terms) != 1:
                return False
            (key, coeff), = terms.items()
            return abs(coeff) == 1 and not any(var.startswith("w_") for var, _ in key)
        if kind == "arc":
            return all(sign_definite(e.terms) for e in (m.a, m.b, m.c, m.d))
        trace = dict(m.a.terms)
        for key, c in m.d.terms.items():
            trace[key] = trace.get(key, 0) + c
        return sign_definite(trace)


class ExactCoords(Workload):
    """Exact lambda-lengths, shears, flips and forms at several random
    points per spine; no formal evaluation."""

    name = "exact-coords"
    ROUNDS = 8
    POINTS = 3

    def build(self, T) -> None:
        for spines in self.spines(T, self.ROUNDS, True):
            items = []
            for g in spines:
                self.feed(T("ribbon.emit_graph", ribbon.emit_graph, g))
                for k in range(self.POINTS):
                    p = T("fuzz.random_exact_point", fuzz.random_exact_point, self.rng, g)
                    edge, kind = self.rng.choice(flippable(g))
                    arc = self.random_arc(T, g)
                    closed = T("fuzz.random_closed_word", fuzz.random_closed_word, self.rng, g)
                    items.append((g, k, p, p.as_float(), edge, kind, arc, closed))
                    self.feed(sorted(p.q.items()), sorted(p.omega.items()), edge,
                              arc.token_string() if arc else "-", closed.token_string() if closed else "-")
            self.rounds.append(items)

    def _ops(self, T, C, rng, round_items):
        for item in round_items:
            yield lambda item=item: self.op(T, C, *item)

    @staticmethod
    def forms_ok(T, g) -> bool:
        """Hole vectors annihilate the bracket, the vertex-sum form is a
        multiple of the window form, and on one-cusp graphs the window
        form inverts the bracket on its nonzero block."""
        bracket = T("forms.poisson_matrix", forms.poisson_matrix, g)
        window = T("forms.window_form_matrix", forms.window_form_matrix, g)
        penner = T("forms.penner_form_matrix", forms.penner_form_matrix, g)
        centers = T("forms.center_vectors", forms.center_vectors, g)
        n = len(bracket.names)
        ok = all(
            sum(bracket.data[i][j] * vec[j] for j in range(n)) == 0
            for _, vec in centers.holes for i in range(n)
        )
        pairs = [(w, p) for wr, pr in zip(window.data, penner.data) for w, p in zip(wr, pr)]
        kappa = next((p / w for w, p in pairs if w != 0), None)
        if kappa is None:
            ok = ok and all(p == 0 for _, p in pairs)
        else:
            ok = ok and all(p == kappa * w for w, p in pairs)
        sub = window.nonzero_row_names()
        if len(g.cusps) == 1 and sub:
            wsub, bsub = window.restrict(sub), bracket.restrict(sub)
            c, residual = T("forms.verify_inverse", forms.verify_inverse, wsub, bsub)
            m = len(sub)
            ok = ok and c is not None and residual == 0 and all(
                sum(wsub.data[i][k] * bsub.data[k][j] for k in range(m)) == (c if i == j else 0)
                for i in range(m) for j in range(m)
            )
        return ok

    def op(self, T, C, g, k, p, pf, edge, kind, arc, closed) -> bool:
        ok = self.forms_ok(T, g) if k == 0 else True
        lam = T("coords.lambda_of_dual_arcs", coords.lambda_of_dual_arcs, g, p)
        back = T("coords.shear_from_lambda", coords.shear_from_lambda, g, lam)
        ok = ok and back == p
        g1, p1, _ = flip_call(T, g, edge, kind, p)
        mutated = T("flips.mutate_lambda", flips.mutate_lambda, g, lam, edge)
        actual = T("coords.lambda_of_dual_arcs", coords.lambda_of_dual_arcs, g1, p1)
        ok = ok and mutated.values == actual.values
        if C is not None:
            C.lod(g)
            C.lod(g1)
            C.point(p)
            C.point(p1)
            C.sqrt(lam.values.values())
            C.sqrt(actual.values.values())
        if arc is not None:
            v = T("paths.lambda_length.exact", paths.lambda_length, g, arc, p)
            vf = T("paths.lambda_length.float", paths.lambda_length, g, arc, pf)
            ok = ok and v.sign() > 0 and close(float(v), vf)
            if C is not None:
                C.sqrt([v])
        if closed is not None:
            gf = T("paths.geodesic_function.exact", paths.geodesic_function, g, closed, p)
            gff = T("paths.geodesic_function.float", paths.geodesic_function, g, closed, pf)
            # a closed curve on a surface with loop weights >= 2 has trace >= 2
            ok = ok and gf.value.sign() > 0 and gf.value.square() >= 4 and close(float(gf.value), gff.value)
            if C is not None:
                C.sqrt([gf.value])
        return ok


_SQRT_RE = re.compile(r"^(?:(?P<rat>[+-]?\d+(?:/\d+)?)\*)?sqrt\((?P<rad>\d+)\)$")


def parse_printed(text: str, float_mode: bool):
    """A value as the CLI prints it: %.17g in a float walk, else a
    fraction or ``[a*]sqrt(b)``."""
    if float_mode:
        return float(text)
    m = _SQRT_RE.match(text)
    if m:
        return SqrtRational(m.group("rat") or 1, int(m.group("rad")))
    return SqrtRational(text)


class FlipWalk(Workload):
    """Random flip walks through graph text, the way the CLI's flip
    command does them, carrying lambda-lengths by exchange relations."""

    name = "flip-walk"
    ROUNDS = 20
    SPINE_OVERSAMPLE = OVERSAMPLE  # a walk step costs little more on a large spine
    STEPS = 24
    FLOAT_Y = 1.5  # float walks draw shears Y uniformly from [-FLOAT_Y, FLOAT_Y]

    def __init__(self, seed: int, T):
        super().__init__(seed, T)
        self.scratch = Path(__file__).resolve().parent / "out" / ("walk-%d.graph" % os.getpid())

    def build(self, T) -> None:
        for r, spines in enumerate(self.spines(T, self.ROUNDS, True)):
            items = []
            for b, g in enumerate(spines):
                float_mode = b % 4 == r % 4  # one walk in four
                if float_mode:
                    y = {n: round(self.rng.uniform(-self.FLOAT_Y, self.FLOAT_Y), 3) for n in g.coordinate_edges()}
                    omega = {n: float(self.rng.randint(2, 6)) for n in g.loop_edges()}
                    p = CoordinatePoint(False, y=y, omega=omega)
                else:
                    p = T("fuzz.random_exact_point", fuzz.random_exact_point, self.rng, g)
                text = T("ribbon.emit_graph", ribbon.emit_graph, g, p)
                self.feed(text)
                items.append((text, float_mode))
            self.rounds.append(items)

    def round_len(self, items) -> int:
        return len(items) * self.STEPS

    def _ops(self, T, C, rng, round_items):
        for text, float_mode in round_items:
            state = {"text": text, "lam": None}
            for i in range(self.STEPS):
                yield lambda i=i, state=state, float_mode=float_mode: self.step(T, C, rng, state, i, float_mode)

    def step(self, T, C, rng, state, i, float_mode) -> bool:
        g = T("ribbon.parse_graph", ribbon.parse_graph, state["text"])
        p = g.point()
        if i == 0:
            state["lam"] = T("coords.lambda_of_dual_arcs", coords.lambda_of_dual_arcs, g, p)
            if C is not None:
                C.lod(g)
        edge, kind = rng.choice(flippable(g))
        g1, p1, _ = flip_call(T, g, edge, kind, p)
        state["lam"] = T("flips.mutate_lambda", flips.mutate_lambda, g, state["lam"], edge)
        state["text"] = T("ribbon.emit_graph", ribbon.emit_graph, g1, p1)
        if C is not None:
            C.point(p1)
            C.sqrt(state["lam"].values.values())
        if i < self.STEPS - 1:
            return True
        return self.walk_end(T, g1, p1, state, float_mode)

    def walk_end(self, T, g1, p1, state, float_mode) -> bool:
        """The CLI recomputes every lambda from the final file; the carried
        lambdas must match it and must invert back to the final point."""
        lam = state["lam"]
        self.scratch.parent.mkdir(parents=True, exist_ok=True)
        self.scratch.write_text(state["text"], encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = T("cli.main", cli.main, ["lambda-from-shear", str(self.scratch)])
        printed = {}
        for line in out.getvalue().splitlines():
            kind, name, eq, value = line.split()
            if kind == "lambda" and eq == "=":
                printed[name] = parse_printed(value, float_mode)
        ok = rc == 0 and printed.keys() == lam.values.keys()
        for name, value in printed.items():
            carried = lam.values.get(name)
            if float_mode:
                ok = ok and close(value, carried)
            else:
                ok = ok and value == carried
        back = T("coords.shear_from_lambda", coords.shear_from_lambda, g1, lam)
        if float_mode:
            ok = ok and back.y.keys() == p1.y.keys() and all(close(back.y[n], p1.y[n]) for n in p1.y)
            ok = ok and back.omega == p1.omega
        else:
            ok = ok and back == p1
        return ok

    def close_scratch(self) -> None:
        self.scratch.unlink(missing_ok=True)


WORKLOADS = {w.name: w for w in (FormalWords, ExactCoords, FlipWalk)}
