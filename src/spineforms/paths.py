"""Paths on a spine and their 2x2 matrix words.

A path is a token sequence: pending and inner edges by name, loop
traversals as signed tokens (``w1+`` bounces clockwise through the loop
w1, ``w1-`` counterclockwise), read by walking walk_turn's moves, one
per vertex.

walk_turn derives each move, (steps, next arrival), once per graph and
keeps it in the graph's move table, FatGraph._moves: None until the
first walk, then filled by walk_turn alone as walks reach new turns.
Every turn and loop bounce that leaves through one half shares the move
straight out through it, so the words PathWord.from_tokens and
fuzz._walk build on one graph share their Step objects.  A flip's graph
starts with no table, since sigma changes at its two rewired vertices;
windows, dual_arc and PathWord.reversed build their own steps.

Compilation inserts one edge matrix per coordinate edge traversal and
one turn or loop atom per vertex passage:

    X(Y)  = [[0, -e^{Y/2}], [e^{-Y/2}, 0]]
    R     = [[1, 1], [-1, 0]]          L = R^2 = [[0, 1], [-1, -1]]
    F(w)  = [[0, 1], [-1, -w]]         -F(w)^-1 = [[w, 1], [-1, 0]]

A left turn (a '+' turn of a walk) exits through the half-edge right
after the arrival half in the stored (counterclockwise) cyclic order, a
right turn ('-') through the one before.  A loop bounce contributes its
single loop atom and swallows the turns on both sides: the stem
arrival, the forced passage around the loop, and the stem exit compile
to X_stem * F * X_stem.

Words multiply right to left: the first atom of the path is the
rightmost factor.  Evaluation applies each atom to the running entries
(a, b, c, d) as the row operation it is, with no 2x2 product:

    X   (-t*c, -t*d, a/t, b/t)         L   (c, d, -a-c, -b-d)
    R   (a+c, b+d, -a, -b)             F   (c, d, -a-w*c, -b-w*d)
    -F^-1  (w*a+c, w*b+d, -a, -b)

Formal entries stay dicts over packed monomials while the product runs:
the exponent vector sits in one int, a signed bit field per variable of
the word, wide enough for any exponent the word can reach, so that a
monomial product is one int add (Monagan & Pearce, CASC 2007).  Each
entry is sign * m * (its dict) for one packed monomial m, its shift: a
product with t, 1/t or w moves the shift, a negation flips the sign,
and neither touches the dict.  A sum copies the larger operand's dict
and merges the smaller one's terms into it, moved by the difference of
the shifts.  The product returns LaurentPolys that hold their packed
entry and decode it into the usual tuple keys the first time their
terms are read, so an entry the caller never reads is never decoded.

The row operations act on each column alone, so lambda_length, which
reads b only, runs the (b, d) column and leaves a and c zero.

Exact entries are four ints over one common int denominator, times one
radical shared by the whole word: every entry is a rational multiple of
sqrt(prod_{j in S} q_j), S the parity set of edges the word has crossed
an odd number of times so far.  With q_e = n/m, X[e] maps the ints to
(-n*c, -n*d, m*a, m*b), toggles e in S and multiplies the denominator
by n when e enters S, by m when it leaves; F and -F^-1 with w = wn/wd
scale the row operation by wd, and the denominator with it.  L and R
are int row operations.  The radical is folded once, at the end, by
algebra._fold_sqrt, the rule the closed-form lambda-lengths use, and
each entry is one Fraction times it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Optional

from .algebra import LaurentPoly, Mat2, SqrtRational, _fold_sqrt, _sqrt_parts

if TYPE_CHECKING:
    from .coords import CoordinatePoint
    from .ribbon import FatGraph

__all__ = [
    "Step",
    "PathWord",
    "MatrixWord",
    "GeodesicFunction",
    "compile_path",
    "evaluate",
    "lambda_length",
    "geodesic_function",
    "walk_turn",
    "t_var",
    "w_var",
]


def t_var(edge: str) -> str:
    """Formal variable name for e^{Y/2} of a coordinate edge."""
    return "t_" + edge

def w_var(edge: str) -> str:
    """Formal variable name for the weight of a loop edge."""
    return "w_" + edge


class Step(NamedTuple):
    """One edge traversal: the edge's name, the loop direction sign
    ('+'/'-' for loop edges, None otherwise), and optionally the half
    edge the traversal exits through (resolves multi-edge ambiguity).
    A named tuple: immutable and hashable.  Walks take their steps from
    the graph's move table, so a walked step is built once per graph
    and shared by every word walked through it."""

    edge: str
    sign: Optional[str] = None
    exit_half: Optional[str] = None

    def token(self) -> str:
        return self.edge + (self.sign or "")


@dataclass(frozen=True, slots=True)
class PathWord:
    """Cusp-to-cusp token sequence.

    ``closed`` marks a based loop (trace semantics) rather than an arc;
    both kinds may start and end at the same cusp, so the flag is the
    only way to tell them apart on single-cusp surfaces.
    """

    start_cusp: str
    steps: tuple[Step, ...]
    end_cusp: str
    closed: bool = False

    @property
    def tokens(self) -> list[str]:
        return [s.token() for s in self.steps]

    def token_string(self) -> str:
        return ",".join(self.tokens)

    @classmethod
    def from_tokens(cls, graph: "FatGraph", tokens: Iterable[str], closed: bool = False) -> "PathWord":
        """Build from name-level tokens by walking them: the first token is
        a pending edge, left from its cusp; at each vertex after it the
        walk takes the one walk_turn move, '+' or '-', whose steps spell
        the next tokens (a loop bounce spells two, such as ``w1+,a1``).
        Raises ValueError when no move fits or both do (parallel edges
        need half-edge data), when tokens are left over once the walk
        enters a cusp, or when the last step is no pending edge."""
        toks = [t.strip() for t in tokens if t.strip()]
        if not toks:
            raise ValueError("empty path")
        first = toks[0]
        if first not in graph.edges or graph.edges[first].kind != "pending":
            raise ValueError("path must start with a pending edge, got %r" % first)
        start_cusp = graph.cusp_of_pending(first)
        steps: list[Step] = []
        # sigma fixes a cusp half, so a turn there leaves along its pending edge
        arrival = walk_turn(graph, graph.cusp_half(start_cusp), "+", steps)
        i = 1
        while i < len(toks):
            if graph.is_cusp_half(arrival):
                raise ValueError("the path ends at cusp %s after %s; token %r is left over"
                                 % (graph.vertex_of(arrival), steps[-1].token(), toks[i]))
            fits, words = [], []
            for sign in "+-":
                taken: list[Step] = []
                after = walk_turn(graph, arrival, sign, taken)
                word = [s.token() for s in taken]
                words.append(",".join(word))
                if word == toks[i:i + len(word)]:
                    fits.append((taken, after))
            if len(fits) > 1:
                raise ValueError("ambiguous token %r (parallel edge); supply half-edge data" % toks[i])
            if not fits:
                raise ValueError("cannot walk token %r after %s: the walk continues with %s"
                                 % (toks[i], steps[-1].token(), " or ".join(words)))
            taken, arrival = fits[0]
            steps += taken
            i += len(taken)
        last = steps[-1].edge
        if graph.edges[last].kind != "pending":
            raise ValueError("path must end with a pending edge")
        return cls(start_cusp, tuple(steps), graph.cusp_of_pending(last), closed)

    def reversed(self, graph: "FatGraph") -> "PathWord":
        """Same underlying arc walked the other way: step order reversed,
        loop signs flipped, exit halves swapped to the mates."""
        steps = []
        for s in self.steps[::-1]:
            sign = {"+": "-", "-": "+"}.get(s.sign) if s.sign else None
            exit_half = graph.mate(s.exit_half) if s.exit_half is not None else None
            steps.append(Step(s.edge, sign, exit_half))
        return PathWord(self.end_cusp, tuple(steps), self.start_cusp, self.closed)


def _turn(graph: "FatGraph", arrival: str, sign: str) -> str:
    """Exit half of a turn at the vertex reached through ``arrival``:
    '+' exits through sigma(arrival), the next half counterclockwise,
    '-' through sigma_inv(arrival)."""
    return graph.sigma(arrival) if sign == "+" else graph.sigma_inv(arrival)


def _bounce(graph: "FatGraph", loop_half: str, sign: str) -> str:
    """Stem half through which a walk leaves a loop it entered through
    ``loop_half``: the same turn again, from the loop's other half."""
    return _turn(graph, graph.mate(loop_half), sign)


def walk_turn(graph: "FatGraph", arrival: str, sign: str, steps: list[Step]) -> str:
    """Leave the vertex reached through ``arrival`` by a ``sign`` turn.

    Appends the steps taken to ``steps``: one step, or, when the turn
    enters a loop, the loop step and the stem step of its bounce.
    Returns the half through which the walk arrives at the next vertex.
    The move, (steps, next arrival), is derived on the first walk
    through this turn and kept in the graph's move table, which this
    function alone starts and fills; every later walk through the turn
    appends the same Step objects.  ``sign`` is '+' or '-'.
    """
    moves = graph._moves
    if moves is None:
        # threads that start one table at once keep their own: equal moves, fewer steps shared
        moves = graph._moves = ({}, {}, {})
    plus, minus, straight = moves  # turns by arrival half; straight moves by exit half
    turns = plus if sign == "+" else minus
    move = turns.get(arrival)
    if move is None:
        move = turns.setdefault(arrival, _fresh_move(graph, straight, arrival, sign))
    steps.extend(move[0])
    return move[1]


def _fresh_move(graph: "FatGraph", straight: dict, arrival: str, sign: str) -> tuple[tuple[Step, ...], str]:
    """The move of a ``sign`` turn at ``arrival``.  A turn into a
    coordinate edge is the move straight out through its exit half; a
    turn into a loop is the loop step, then the move straight out
    through the stem half of the bounce."""
    x = _turn(graph, arrival, sign)
    name = graph.edge_of(x)
    if graph.edges[name].kind != "loop":
        return _straight(graph, straight, x)
    stem, after = _straight(graph, straight, _bounce(graph, x, sign))
    return (Step(name, sign, x), *stem), after


def _straight(graph: "FatGraph", straight: dict, x: str) -> tuple[tuple[Step, ...], str]:
    """The move straight out through the half ``x``, kept in ``straight``:
    every turn and bounce that leaves through x shares it, so that on
    one graph equal steps are one object."""
    move = straight.get(x)
    if move is None:
        move = straight.setdefault(x, ((Step(graph.edge_of(x), None, x),), graph.mate(x)))
    return move


# Matrix word atoms: ("X", edge), ("L",), ("R",), ("F", loop), ("Fi", loop).
Atom = tuple


@dataclass(frozen=True)
class MatrixWord:
    """Atoms in path order; the product applies them right to left, so
    atoms[0] is the rightmost factor."""

    atoms: tuple[Atom, ...]

    def __str__(self):
        names = []
        for atom in self.atoms[::-1]:
            if atom[0] == "X":
                names.append("X[%s]" % atom[1])
            elif atom[0] == "F":
                names.append("F[%s]" % atom[1])
            elif atom[0] == "Fi":
                names.append("-Finv[%s]" % atom[1])
            else:
                names.append(atom[0])
        return "*".join(names)


@dataclass(frozen=True)
class GeodesicFunction:
    """Sign-normalized trace of a closed word, with the raw trace kept
    for debugging."""

    value: object
    raw_trace: object
    path: PathWord


def compile_path(graph: "FatGraph", path: PathWord) -> MatrixWord:
    """Compile a PathWord to its matrix word.

    One X per pending/inner traversal; between consecutive coordinate
    edges a turn atom L (exit right after arrival in the stored cyclic
    order) or R (right before); a loop step becomes the single atom F
    for '+' or -F^-1 for '-', with no adjacent turns.  Raises
    ValueError when the first step does not leave ``start_cusp``, or
    when the last step enters no cusp (a one-token path leaves its cusp
    and stops at a vertex) or another cusp than ``end_cusp``.
    """
    steps = _resolve_steps(graph, path)
    if not steps or steps[0].exit_half != graph.cusps.get(path.start_cusp):
        raise ValueError("path does not start at cusp %s" % path.start_cusp)
    atoms: list[Atom] = []
    prev_arrival: Optional[str] = None
    forced_stem: Optional[str] = None
    for step in steps:
        kind = graph.edges[step.edge].kind
        if kind == "loop":
            if prev_arrival is not None and step.exit_half != _turn(graph, prev_arrival, step.sign):
                raise ValueError("loop sign %s%s disagrees with the cyclic order" % (step.edge, step.sign))
            atoms.append(("F", step.edge) if step.sign == "+" else ("Fi", step.edge))
            forced_stem = _bounce(graph, step.exit_half, step.sign)
            prev_arrival = None
            continue
        if forced_stem is not None:
            # the bounce swallows the turns on both sides of the loop atom
            if step.exit_half != forced_stem:
                raise ValueError("loop bounce must leave through %s" % graph.edge_of(forced_stem))
            forced_stem = None
        elif prev_arrival is not None:
            exit_half = step.exit_half
            # at a cusp sigma fixes the lone half, so test this first
            if exit_half == prev_arrival:
                raise ValueError("backtracking at edge %s" % step.edge)
            if exit_half == _turn(graph, prev_arrival, "+"):
                atoms.append(("L",))
            elif exit_half == _turn(graph, prev_arrival, "-"):
                atoms.append(("R",))
            else:
                raise ValueError("steps %s -> %s do not meet at a vertex" % (prev_arrival, exit_half))
        atoms.append(("X", step.edge))
        prev_arrival = graph.mate(step.exit_half)
    if prev_arrival is None or not graph.is_cusp_half(prev_arrival):
        raise ValueError("path must end by entering a cusp; its last step %s does not" % steps[-1].token())
    if graph.vertex_of(prev_arrival) != path.end_cusp:
        raise ValueError("path does not end at cusp %s" % path.end_cusp)
    return MatrixWord(tuple(atoms))


def _resolve_steps(graph: "FatGraph", path: PathWord) -> tuple[Step, ...]:
    """Ensure every step carries its exit half, re-deriving from token
    names when the path was built by hand; compile_path checks the
    rebuilt steps against the declared cusps like any others."""
    if all(s.exit_half is not None for s in path.steps):
        for s in path.steps:
            if graph.edges[s.edge].kind == "loop" and s.sign is None:
                raise ValueError("loop step %s lacks a direction sign" % s.edge)
        return path.steps
    return PathWord.from_tokens(graph, path.tokens, path.closed).steps


def evaluate(word: MatrixWord, point: Optional["CoordinatePoint"] = None) -> Mat2:
    """Multiply the word out over LaurentPoly (point=None) or numbers.

    Float points run the atoms' row operations on floats, refusing a
    t = e^(y/2) or a product entry outside the float range.  Exact points
    run them on ints over one denominator and attach the word's single
    radical at the end, so every nonzero exact entry prints as r*sqrt(n)
    with the n that algebra._fold_sqrt gives for the edges
    crossed an odd number of times, folded in the point's edge order;
    on a dual arc that is the form lambda_of_dual_arcs prints.
    """
    return _evaluate(word, point, 1)


def _evaluate(word: MatrixWord, point: Optional["CoordinatePoint"], a0: int) -> Mat2:
    """The kernels start from [[a0, 0], [0, 1]]: a0 = 1 gives the whole
    product, a0 = 0 only its (b, d) column, with a and c zero."""
    if not word.atoms:
        raise ValueError("empty word")
    if point is None:
        return _evaluate_formal(word.atoms, a0)
    if point.exact:
        return _evaluate_exact(word.atoms, point, a0)
    return _evaluate_float(word.atoms, point, a0)


# A formal entry (terms, shift, sign) is sign * m_shift * (sum of terms),
# terms {packed exponent vector: coefficient}.  No terms dict changes
# once built, so entries share them.
_Entry = tuple[dict[int, int], int, int]


def _evaluate_formal(atoms: tuple[Atom, ...], a0: int) -> Mat2:
    """The product over packed entries.  Its four entries are
    LaurentPolys decoded on the first read of their terms, through one
    _Decoder the four share."""
    # Variable i (in name order) owns the signed field of `width` bits
    # at bit width*i.  No exponent of a value exceeds the atom count in
    # size, so the fields of shift + key never overflow; keys alone may
    # leave the fields, but int adds carry them exactly.
    names = sorted({t_var(a[1]) if a[0] == "X" else w_var(a[1]) for a in atoms if len(a) > 1})
    width = len(atoms).bit_length() + 1
    unit = {name: 1 << (width * i) for i, name in enumerate(names)}
    zero: _Entry = ({}, 0, 1)
    one: _Entry = ({0: 1}, 0, 1)
    a, b, c, d = one if a0 else zero, zero, zero, one
    for atom in atoms:
        kind = atom[0]
        if kind == "X":
            u = unit[t_var(atom[1])]
            a, b, c, d = ((c[0], c[1] + u, -c[2]), (d[0], d[1] + u, -d[2]),
                          (a[0], a[1] - u, a[2]), (b[0], b[1] - u, b[2]))
        elif kind == "L":
            a, b, c, d = c, d, _packed_sum(a, c, 0, -1), _packed_sum(b, d, 0, -1)
        elif kind == "R":
            a, b, c, d = (_packed_sum(a, c, 0, 1), _packed_sum(b, d, 0, 1),
                          (a[0], a[1], -a[2]), (b[0], b[1], -b[2]))
        elif kind == "F":
            u = unit[w_var(atom[1])]
            a, b, c, d = c, d, _packed_sum(a, c, u, -1), _packed_sum(b, d, u, -1)
        elif kind == "Fi":
            u = unit[w_var(atom[1])]
            a, b, c, d = (_packed_sum(c, a, u, 1), _packed_sum(d, b, u, 1),
                          (a[0], a[1], -a[2]), (b[0], b[1], -b[2]))
        else:
            raise ValueError("unknown atom %r" % (atom,))
    decoder = _Decoder(names, width)
    return Mat2(_LazyPoly(a, decoder), _LazyPoly(b, decoder), _LazyPoly(c, decoder), _LazyPoly(d, decoder))


def _packed_sum(p: _Entry, q: _Entry, u: int, sign: int) -> _Entry:
    """sign * (p + m*q) for the monomial m packed as u.

    The larger operand's terms are copied as they are and keep their
    shift and sign; the smaller operand's terms are merged into the
    copy, moved by the difference of the shifts and multiplied by the
    product of the signs.
    """
    pt, ps, pg = p
    qt, qs, qg = q
    qs += u
    if len(pt) < len(qt):
        pt, ps, pg, qt, qs, qg = qt, qs, qg, pt, ps, pg
    if not qt:
        return pt, ps, sign * pg
    out = dict(pt)
    offset = qs - ps
    f = pg * qg
    for k, v in qt.items():
        k += offset
        v = out.get(k, 0) + f * v
        if v:
            out[k] = v
        else:
            del out[k]
    return out, ps, sign * pg


_CHUNK = 4  # packed fields decoded per memo lookup


class _Decoder:
    """Turns the packed entries of one word into LaurentPoly terms.

    Each key is moved by its entry's shift plus a bias that makes every
    field non-negative, and each coefficient takes the entry's sign;
    keys are then read _CHUNK fields at a time through a memo of chunk
    value -> (name, exponent) pairs, one memo per chunk of names, which
    the word's four entries share.  The names are sorted, so the joined
    pairs are canonical.
    """

    __slots__ = ("width", "bias", "chunks")

    def __init__(self, names: list[str], width: int):
        self.width = width
        self.bias = sum((1 << (width - 1)) << (width * i) for i in range(len(names)))
        self.chunks = [(names[i:i + _CHUNK], {}) for i in range(0, len(names), _CHUNK)]

    def decode(self, entry: _Entry) -> dict[tuple, int]:
        packed, shift, sign = entry
        width, chunks = self.width, self.chunks
        span = width * _CHUNK
        mask = (1 << span) - 1
        shift += self.bias
        terms = {}
        for key, coeff in packed.items():
            key += shift
            exps: tuple = ()
            for names, memo in chunks:
                value = key & mask
                pairs = memo.get(value)
                if pairs is None:
                    pairs = memo[value] = _chunk_pairs(value, names, width)
                exps += pairs
                key >>= span
            terms[exps] = sign * coeff
        return terms


class _LazyPoly(LaurentPoly):
    """A LaurentPoly holding a packed entry and its word's decoder until
    its terms are first read.  Copies and pickles are plain
    LaurentPolys."""

    # (entry, decoder) in one slot, so that one read sees both or, once
    # another thread has decoded the terms, neither
    __slots__ = ("_source",)

    def __init__(self, entry: _Entry, decoder: _Decoder):
        self._source = entry, decoder

    def __getattr__(self, name):
        # runs only while the terms slot is unset
        if name != "terms":
            raise AttributeError(name)
        source = self._source
        if source is None:
            return self.terms
        terms = self.terms = source[1].decode(source[0])
        self._source = None
        return terms

    def __reduce__(self):
        return LaurentPoly, (self.terms,)


def _chunk_pairs(value: int, chunk: list[str], width: int) -> tuple:
    """(name, exponent) pairs of the nonzero biased fields in value."""
    half = 1 << (width - 1)
    field = (1 << width) - 1
    pairs = []
    for name in chunk:
        e = (value & field) - half
        if e:
            pairs.append((name, e))
        value >>= width
    return tuple(pairs)


def _evaluate_exact(atoms: tuple[Atom, ...], point: "CoordinatePoint", a0: int) -> Mat2:
    # entry = int / den * sqrt(prod_{j in odd} q_j)
    q, omega = point.q, point.omega
    a, b, c, d, den = a0, 0, 0, 1, 1
    odd: set[str] = set()
    for atom in atoms:
        kind = atom[0]
        if kind == "X":
            e = atom[1]
            x = q[e]
            n, m = x.numerator, x.denominator
            a, b, c, d = -n * c, -n * d, m * a, m * b
            if e in odd:
                odd.remove(e)
                den *= m
            else:
                odd.add(e)
                den *= n
        elif kind == "L":
            a, b, c, d = c, d, -a - c, -b - d
        elif kind == "R":
            a, b, c, d = a + c, b + d, -a, -b
        elif kind in ("F", "Fi"):
            # the row operation times wd, so that w enters as the int wn
            w = omega[atom[1]]
            wn, wd = w.numerator, w.denominator
            if kind == "F":
                a, b, c, d = wd * c, wd * d, -wd * a - wn * c, -wd * b - wn * d
            else:
                a, b, c, d = wn * a + wd * c, wn * b + wd * d, -wd * a, -wd * b
            den *= wd
        else:
            raise ValueError("unknown atom %r" % (atom,))
    num, den, rad = _fold_sqrt([_sqrt_parts(x) for e, x in q.items() if e in odd], 1, den)
    return Mat2(*[SqrtRational._of(Fraction(v * num, den), rad if v else 1) for v in (a, b, c, d)])


def _evaluate_float(atoms: tuple[Atom, ...], point: "CoordinatePoint", a0: int) -> Mat2:
    a, b, c, d = float(a0), 0.0, 0.0, 1.0
    for atom in atoms:
        kind = atom[0]
        if kind == "X":
            try:
                t = point.t_value(atom[1])
                mt, ti = -t, 1.0 / t
            except (OverflowError, ZeroDivisionError):
                e = atom[1]
                raise ValueError("y[%s] = %r puts t = e^(y/2) out of the float range" % (e, point.y[e])) from None
            a, b, c, d = mt * c, mt * d, ti * a, ti * b
        elif kind == "L":
            a, b, c, d = c, d, -a - c, -b - d
        elif kind == "R":
            a, b, c, d = a + c, b + d, -a, -b
        elif kind in ("F", "Fi"):
            w = point.omega_value(atom[1])
            if kind == "F":
                a, b, c, d = c, d, -a + -w * c, -b + -w * d
            else:
                a, b, c, d = w * a + c, w * b + d, -a, -b
        else:
            raise ValueError("unknown atom %r" % (atom,))
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c) and math.isfinite(d)):
        raise ValueError("the matrix product is out of the float range")
    return Mat2(a, b, c, d)


def _sign_normalize(value):
    """Flip the PSL(2) sign so the result is positive (numeric) or has
    positive coefficients (formal); mixed-sign formal values are
    returned as-is with their leading coefficient made positive."""
    if isinstance(value, LaurentPoly):
        sd = value.sign_definite()
        if sd == -1:
            return -value
        if sd is None:
            lead = min(value.terms)
            if value.terms[lead] < 0:
                return -value
        return value
    if isinstance(value, SqrtRational):
        return -value if value.sign() < 0 else value
    return -value if value < 0 else value


def _evaluate_path(graph: "FatGraph", path: PathWord, point: Optional["CoordinatePoint"], a0: int) -> Mat2:
    """_evaluate of the compiled path; a point with no value for an edge
    the word reads is refused as coords._incomplete words it."""
    word = compile_path(graph, path)
    try:
        return _evaluate(word, point, a0)
    except KeyError as exc:
        from .coords import _incomplete  # coords imports ribbon, which imports paths
        raise exc if point is None else _incomplete(graph, point, exc) from None


def lambda_length(graph: "FatGraph", path: PathWord, point: Optional["CoordinatePoint"] = None):
    """Sign-normalized upper-right entry of the compiled path; at a float
    point it must be positive and finite, as _positive_lambda rules."""
    if path.closed:
        raise ValueError("closed path has no lambda-length; use geodesic_function")
    m = _evaluate_path(graph, path, point, 0)
    value = _sign_normalize(m.b)
    if point is not None and not point.exact and not 0.0 < value < math.inf:
        from .coords import _positive_lambda  # refuses, naming the path
        _positive_lambda(",".join(path.tokens), value, False)
    return value


def geodesic_function(graph: "FatGraph", path: PathWord, point: Optional["CoordinatePoint"] = None) -> GeodesicFunction:
    """Sign-normalized trace of a closed path based at a cusp."""
    if path.start_cusp != path.end_cusp:
        raise ValueError("open path: starts at %s, ends at %s" % (path.start_cusp, path.end_cusp))
    raw = _evaluate_path(graph, path, point, 1).trace()
    return GeodesicFunction(_sign_normalize(raw), raw, path)

