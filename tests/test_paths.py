"""Path compilation and evaluation: matrix words, lambda-lengths,
geodesic functions, sign normalization."""

import copy
import dataclasses
import pickle
import random
from fractions import Fraction

import pytest

from spineforms import (
    LaurentPoly,
    Mat2,
    PathWord,
    SqrtRational,
    compile_path,
    evaluate,
    geodesic_function,
    lambda_length,
    paths,
)
from spineforms.algebra import _fold_sqrt, _sqrt_parts
from spineforms.coords import CoordinatePoint, lambda_of_dual_arcs
from spineforms.fuzz import random_arc, random_closed_word, random_exact_point, random_spine
from spineforms.paths import MatrixWord, _packed_sum, t_var, w_var
from spineforms.ribbon import dual_arc

import token_corpus
from conftest import ALL_FIXTURES, exact_values, load_fixture, partial_point


def tokens(graph, text, closed=False):
    return PathWord.from_tokens(graph, text.split(","), closed=closed)


def test_compile_shortest_window_path(t3):
    word = compile_path(t3, tokens(t3, "p2,p3"))
    assert str(word) == "X[p3]*L*X[p2]"


def test_compile_inner_crossing(four_cusps):
    word = compile_path(four_cusps, dual_arc(four_cusps, "e"))
    assert str(word) == "X[p4]*R*X[e]*L*X[p2]"


def test_compile_loop_bounce_has_no_adjacent_turns(one_loop):
    word = compile_path(one_loop, tokens(one_loop, "pi,w+,pi", closed=True))
    assert str(word) == "X[pi]*F[w]*X[pi]"
    word_minus = compile_path(one_loop, tokens(one_loop, "pi,w-,pi", closed=True))
    assert str(word_minus) == "X[pi]*-Finv[w]*X[pi]"


def test_compile_tadpole_dual(two_loops):
    word = compile_path(two_loops, dual_arc(two_loops, "a1"))
    assert str(word) == "X[pi]*R*X[a1]*-Finv[w1]*X[a1]*L*X[pi]"


def test_formal_lambda_of_two_pendings(t3):
    lam = lambda_length(t3, tokens(t3, "p1,p2"))
    t1, t2 = LaurentPoly.var("t_p1"), LaurentPoly.var("t_p2")
    assert lam == t1 * t2


def test_lambda_at_exact_point(t3):
    point = CoordinatePoint(True, q={"p1": Fraction(4), "p2": Fraction(9), "p3": Fraction(1)})
    lam = lambda_length(t3, tokens(t3, "p1,p2"), point)
    assert lam == SqrtRational(Fraction(6))


def test_lambda_rejects_closed_paths(one_loop):
    with pytest.raises(ValueError):
        lambda_length(one_loop, tokens(one_loop, "pi,w+,pi", closed=True))


def test_geodesic_needs_matching_cusps(four_cusps):
    with pytest.raises(ValueError):
        geodesic_function(four_cusps, tokens(four_cusps, "p2,e,p3", closed=True))


def test_geodesic_function_trace(one_loop):
    gf = geodesic_function(one_loop, tokens(one_loop, "pi,w+,pi", closed=True), one_loop.point())
    assert gf.value == SqrtRational(Fraction(2))


def test_formal_geodesic_trace_is_weight(one_loop):
    word = compile_path(one_loop, tokens(one_loop, "pi,w+,pi", closed=True))
    assert evaluate(word).trace() == LaurentPoly.var("w_w")


def test_evaluate_mixed_turn_loop_word():
    """The five atoms compose as plain matrices even though compile
    never emits turns adjacent to a bounce."""
    from spineforms.paths import MatrixWord

    word = MatrixWord((("X", "pi"), ("R", ), ("F", "w"), ("L", ), ("X", "pi")))
    m = evaluate(word)
    t = LaurentPoly.var("t_pi")
    w = LaurentPoly.var("w_w")
    two_minus_w = LaurentPoly.const(2) - w
    assert m.a == LaurentPoly.const(-1)
    assert m.b == t * t * two_minus_w
    assert m.c == (t * t).inverse() * LaurentPoly.const(-1)
    assert m.d == LaurentPoly.const(1) - w


def test_all_fixture_dual_arcs_are_unimodular():
    for name in ALL_FIXTURES:
        graph = load_fixture(name)
        for edge in graph.coordinate_edges():
            m = evaluate(compile_path(graph, dual_arc(graph, edge)))
            det = m.a * m.d - m.b * m.c
            assert det == LaurentPoly.const(1), (name, edge)


def test_lambda_direction_independent():
    for name in ALL_FIXTURES:
        graph = load_fixture(name)
        for edge in graph.coordinate_edges():
            arc = dual_arc(graph, edge)
            back = arc.reversed(graph)
            assert lambda_length(graph, arc) == lambda_length(graph, back), (name, edge)


def test_from_tokens_needs_pending_ends(four_cusps):
    with pytest.raises(ValueError, match="pending"):
        tokens(four_cusps, "e,p2")


def test_from_tokens_rejects_backtracking(t3):
    with pytest.raises(ValueError):
        tokens(t3, "p1,p1")


def test_from_tokens_rejects_nonincident_jump(four_cusps):
    with pytest.raises(ValueError):
        tokens(four_cusps, "p1,p3")


def test_one_token_path_is_refused(t3, one_loop):
    """A lone pending edge leaves its cusp and stops at a vertex; the
    path must enter a cusp at its end, whether it was built from tokens
    or by hand."""
    for graph, name in ((t3, "p1"), (one_loop, "pi")):
        path = tokens(graph, name)
        for call in (compile_path, lambda_length, geodesic_function):
            with pytest.raises(ValueError, match="must end by entering a cusp; its last step %s" % name):
                call(graph, path)
    arc = tokens(t3, "p1,p2")
    cut = PathWord(arc.start_cusp, arc.steps[:1], arc.end_cusp)
    with pytest.raises(ValueError, match="must end by entering a cusp"):
        compile_path(t3, cut)
    bare = PathWord(arc.start_cusp, (paths.Step("p1"),), arc.end_cusp)
    with pytest.raises(ValueError, match="must end by entering a cusp"):
        compile_path(t3, bare)


def test_loop_sign_mandatory(one_loop):
    with pytest.raises(ValueError):
        tokens(one_loop, "pi,w,pi")


def test_compile_checks_loop_sign_against_order(two_loops):
    from spineforms.paths import Step

    path = tokens(two_loops, "pi,a1,w1-,a1,pi")
    steps = list(path.steps)
    steps[2] = Step("w1", "+", steps[2].exit_half)
    bad = PathWord(path.start_cusp, tuple(steps), path.end_cusp)
    with pytest.raises(ValueError, match="cyclic order"):
        compile_path(two_loops, bad)


@pytest.mark.parametrize("start, cut, bare, end, closed, message", [
    ("c1", 1, False, "c3", False, "start at cusp c1"),  # first step leaves no cusp
    ("c4", 0, False, "c2", False, "start at cusp c4"),  # cusps the steps never visit
    ("zz", 0, False, "c3", False, "start at cusp zz"),  # no such cusp
    ("c1", 0, False, "c2", False, "end at cusp c2"),
    ("c1", 0, True, "c2", False, "end at cusp c2"),  # steps rebuilt from their tokens
    ("c1", 0, False, "c1", True, "end at cusp c1"),  # a "closed" word that ends at c3
])
def test_compile_refuses_steps_off_the_declared_cusps(four_cusps, start, cut, bare, end, closed, message):
    """The steps p1,e,p3 run from c1 to c3; declared cusps must match."""
    steps = PathWord.from_tokens(four_cusps, ["p1", "e", "p3"]).steps[cut:]
    if bare:
        steps = tuple(paths.Step(s.edge) for s in steps)
    path = PathWord(start, steps, end, closed)
    for call in (compile_path, geodesic_function if closed else lambda_length):
        with pytest.raises(ValueError, match="path does not " + message):
            call(four_cusps, path)


def test_tokens_round_trip(five_holes):
    path = tokens(five_holes, "pi,a1,w1+,a1,pi", closed=True)
    assert path.tokens == ["pi", "a1", "w1+", "a1", "pi"]
    assert path.start_cusp == path.end_cusp == "c0"
    assert path.closed


def test_tokens_round_trip_on_dual_arcs_and_random_walks():
    """Every base path of the token corpus (dual arcs, random arcs and
    closed words on the fixtures and 300 seed-7 spines) reads back from
    its tokens step for step, exit halves included."""
    count = 0
    for graph, bases, _ in token_corpus.corpus():
        for path in bases:
            assert PathWord.from_tokens(graph, path.tokens, path.closed) == path, path.token_string()
            count += 1
    assert count == 8274


def test_token_corpus_accepts_and_refuses_the_pinned_lists():
    """Which token lists PathWord.from_tokens accepts, and the steps it
    gives them, pinned on the seeded mutant corpus: lists tried, lists
    accepted, and a sha256 of the accepted paths.  The figures were
    taken before from_tokens matched walk_turn's moves, when it derived
    turns and loop bounces on its own."""
    assert token_corpus.read_corpus() == (
        57918, 13133, "738ed12a2e120483e2252ea209dd294e9a405255e205e15a12c03d0a222776ae")


def _atom_matrix(atom, point):
    """One atom of the table in the paths module docstring, as a matrix
    over LaurentPoly (point None), SqrtRational or float."""
    if point is None:
        one, zero = LaurentPoly.const(1), LaurentPoly()
    elif point.exact:
        one, zero = SqrtRational(1), SqrtRational(0)
    else:
        one, zero = 1.0, 0.0
    kind = atom[0]
    if kind == "X":
        t = LaurentPoly.var(t_var(atom[1])) if point is None else point.t_value(atom[1])
        return Mat2(zero, -t, t.inverse() if point is None else one / t, zero)
    if kind == "L":
        return Mat2(zero, one, -one, -one)
    if kind == "R":
        return Mat2(one, one, -one, zero)
    if point is None:
        w = LaurentPoly.var(w_var(atom[1]))
    else:
        w = SqrtRational(point.omega_value(atom[1])) if point.exact else point.omega_value(atom[1])
    return Mat2(zero, one, -one, -w) if kind == "F" else Mat2(w, one, -one, zero)


def oracle_evaluate(word, point=None):
    """The word multiplied out as a product of 2x2 matrices, right to left."""
    result = _atom_matrix(word.atoms[0], point)
    for atom in word.atoms[1:]:
        result = _atom_matrix(atom, point) * result
    return result


def _assert_canonical(poly):
    """No zero coefficient, no zero exponent, variables sorted in each key."""
    for key, coeff in poly.terms.items():
        assert coeff != 0, poly.terms
        assert all(e != 0 for _, e in key), key
        assert list(key) == sorted(key), key


def test_evaluate_matches_matrix_product_oracle():
    """Formal, exact and float values are equal to the oracle's; formal
    values print the same and floats agree to the last bit.  Exact
    values print in the one form of their radical, the one the
    closed-form lambda-lengths print: on every dual arc the word's
    value prints as lambda_of_dual_arcs prints it."""
    rng = random.Random(20260816)
    words = 0
    for _ in range(200):
        graph = random_spine(rng)
        paths = [dual_arc(graph, name) for name in graph.coordinate_edges()]
        paths += [p for p in (random_arc(rng, graph), random_closed_word(rng, graph, max_len=20)) if p is not None]
        point = random_exact_point(rng, graph)
        fpoint = point.as_float()
        for path in paths:
            word = compile_path(graph, path)
            got, want = evaluate(word), oracle_evaluate(word)
            assert got == want and str(got) == str(want), path.token_string()
            for entry in (got.a, got.b, got.c, got.d):
                _assert_canonical(entry)
            assert evaluate(word, point) == oracle_evaluate(word, point), (path.token_string(), point)
            assert evaluate(word, fpoint) == oracle_evaluate(word, fpoint), path.token_string()
            words += 1
        closed_form = lambda_of_dual_arcs(graph, point).values
        for name in graph.coordinate_edges():
            assert str(lambda_length(graph, dual_arc(graph, name), point)) == str(closed_form[name]), name
    assert words > 1000


def _assert_exact_entries(word, point):
    """The word's exact entries at point equal the oracle's and the
    formal entries with t_e = sqrt(q_e) and the loop weights
    substituted."""
    got = evaluate(word, point)
    assert got == oracle_evaluate(word, point), (str(word), point)
    values = exact_values(point)
    formal = evaluate(word)
    for entry, poly in zip((got.a, got.b, got.c, got.d), (formal.a, formal.b, formal.c, formal.d)):
        assert entry == poly.subs(values), (str(word), point)
    return got


def test_fractional_loop_weights_scale_the_denominator(two_loops):
    """Loop weights 5/2 and 7/3 through F and -F^-1: the dual arcs of
    sigma_0_3_1 and two closed words bounce both ways off both loops."""
    paths = [dual_arc(two_loops, name) for name in two_loops.coordinate_edges()]
    paths += [tokens(two_loops, text, closed=True) for text in
              ("pi,a1,w1+,a1,b1,w2-,b1,pi", "pi,b1,w2+,b1,a1,w1-,a1,b1,w2-,b1,pi")]
    omega = {"w1": Fraction(5, 2), "w2": Fraction(7, 3)}
    square = CoordinatePoint(True, q={"pi": Fraction(4, 9), "a1": Fraction(25), "b1": Fraction(1, 16)}, omega=omega)
    plain = CoordinatePoint(True, q={"pi": Fraction(2, 3), "a1": Fraction(5), "b1": Fraction(7, 2)}, omega=omega)
    kinds = set()
    for path in paths:
        word = compile_path(two_loops, path)
        kinds.update((atom[0], atom[1]) for atom in word.atoms if atom[0] in ("F", "Fi"))
        _assert_exact_entries(word, square)
        _assert_exact_entries(word, plain)
    assert kinds == {("F", "w1"), ("Fi", "w1"), ("F", "w2"), ("Fi", "w2")}


def test_huge_q_toggles_parity_back():
    """q_a past 1e308 on words that cross a twice (a leaves the parity
    set again) and three times (a stays in it)."""
    twice = MatrixWord((("X", "a"), ("L",), ("X", "b"), ("R",), ("X", "a")))
    thrice = MatrixWord(twice.atoms + (("L",), ("X", "a")))
    plain = CoordinatePoint(True, q={"a": Fraction(10**400, 3), "b": Fraction(7, 5)})
    square = CoordinatePoint(True, q={"a": Fraction(10**400, 9), "b": Fraction(49, 25)})
    for word, odd in ((twice, ["b"]), (thrice, ["a", "b"])):
        _assert_exact_entries(word, square)
        got = _assert_exact_entries(word, plain)
        rad = _fold_sqrt(_sqrt_parts(plain.q[e]) for e in odd)[2]
        assert {x.rad for x in (got.a, got.b, got.c, got.d) if not x.is_zero()} == {rad}, str(word)


def test_long_word_with_high_exponents():
    """A word of 507 atoms that winds one loop 101 times and turns right
    101 times on another edge: exponents pass 100, where packed fields
    too narrow for the word would spill into each other."""
    atoms = [("X", "a"), ("F", "w"), ("X", "a")] * 101 + [("X", "b"), ("R",)] * 101 + [("L",), ("X", "a")]
    word = MatrixWord(tuple(atoms))
    got, want = evaluate(word), oracle_evaluate(word)
    assert got == want and str(got) == str(want)
    exponents = {}
    for entry in (got.a, got.b, got.c, got.d):
        for key in entry.terms:
            for var, e in key:
                exponents[var] = max(exponents.get(var, 0), abs(e))
    assert exponents["w_w"] > 100 and exponents["t_b"] > 100
    point = CoordinatePoint(True, q={"a": Fraction(9, 4), "b": Fraction(4)}, omega={"w": Fraction(3)})
    exact, want = evaluate(word, point), oracle_evaluate(word, point)
    assert exact == want and str(exact) == str(want)
    values = {"t_a": Fraction(3, 2), "t_b": Fraction(2), "w_w": Fraction(3)}
    assert exact.b == got.b.subs(values) and exact.c == got.c.subs(values)


def test_empty_word_rejected():
    with pytest.raises(ValueError, match="empty word"):
        evaluate(MatrixWord(()))


def _assert_oracle(atoms):
    word = MatrixWord(tuple(atoms))
    got, want = evaluate(word), oracle_evaluate(word)
    assert got == want and str(got) == str(want), str(word)
    for entry in (got.a, got.b, got.c, got.d):
        _assert_canonical(entry)
    return got


# Prefixes whose running entries carry different shifts and signs: the
# X atoms move shifts, F[w] F[w] and -F[w]^-1 -F[w]^-1 grow one entry of
# each column more than the other.
_PREFIXES = (
    [("L",), ("F", "w"), ("F", "w"), ("L",)],
    [("X", "a"), ("L",), ("F", "w"), ("F", "w"), ("L",), ("X", "b")],
    [("X", "a"), ("X", "a"), ("R",), ("Fi", "w"), ("Fi", "w"), ("R",), ("X", "a")],
)


def test_r_cubed_is_minus_identity(monkeypatch):
    """R*R*R = -I alone and after each prefix: the R atoms add entries
    whose terms cancel, one operand holding them at another shift and
    with the opposite sign."""
    r3 = _assert_oracle([("R",)] * 3)
    assert r3 == Mat2(*(LaurentPoly.const(v) for v in (-1, 0, 0, -1)))
    cancelled = []

    def spy(p, q, u, sign):
        out = _packed_sum(p, q, u, sign)
        if p[1] != q[1] + u and p[2] != q[2] and len(out[0]) < max(len(p[0]), len(q[0])):
            cancelled.append(out)
        return out

    monkeypatch.setattr(paths, "_packed_sum", spy)
    for prefix in _PREFIXES:
        before = _assert_oracle(prefix)
        cancelled.clear()
        assert _assert_oracle(prefix + [("R",)] * 3) == -before
        assert cancelled, prefix


def test_sums_with_the_smaller_operand_on_either_side():
    """After L F F L the first column's a is smaller than its c and the
    second column's b larger than its d, so L, R, F and -F^-1 next sum
    with the smaller operand first in one column and second in the
    other; after the other prefixes as well."""
    for prefix in _PREFIXES:
        m = oracle_evaluate(MatrixWord(tuple(prefix)))
        sizes = [len(e.terms) for e in (m.a, m.c, m.b, m.d)]
        assert (sizes[0] < sizes[1]) != (sizes[2] < sizes[3]), (prefix, sizes)
        for atom in (("L",), ("R",), ("F", "w"), ("Fi", "w"), ("F", "v"), ("Fi", "v")):
            _assert_oracle(prefix + [atom])
            _assert_oracle(prefix + [atom, ("X", "a"), atom])


def test_x_only_and_minus_f_inverse_runs():
    """Runs of X only move shifts and flip signs; runs of -F^-1 sum at
    one shift again and again."""
    got = _assert_oracle([("X", "a"), ("X", "b"), ("X", "a"), ("X", "a"), ("X", "c")])
    assert sum(len(e.terms) for e in (got.a, got.b, got.c, got.d)) == 2
    _assert_oracle([("X", "a")] * 8)
    _assert_oracle([("Fi", "w")] * 9)
    _assert_oracle([("Fi", "w"), ("Fi", "v")] * 4)
    _assert_oracle(([("X", "a")] * 3 + [("Fi", "w")] * 3) * 3)


def _expand(entry):
    terms, shift, sign = entry
    return {shift + k: sign * v for k, v in terms.items()}


def test_packed_sum_against_expanded_entries():
    """sign * (p + m*q) on (terms, shift, sign) entries equals the sum of
    the expanded entries, whichever operand is smaller, and terms that
    cancel across shifts and signs leave no zero coefficient."""
    unit = 1 << 8
    one_plus_2m = ({0: 1, unit: 2}, 0, 1)
    # -m * (1/m + 2) = -(1 + 2m), held at another shift with the other sign
    minus = ({-unit: 1, 0: 2}, unit, -1)
    assert _packed_sum(one_plus_2m, minus, 0, 1)[0] == {}
    assert _packed_sum(minus, one_plus_2m, 0, -1)[0] == {}
    assert _packed_sum(one_plus_2m, ({0: -1, unit: -2}, -unit, 1), unit, 1)[0] == {}
    rng = random.Random(3)
    for _ in range(500):
        p, q = [({unit * rng.randint(-3, 3) + rng.randint(-3, 3): rng.choice((-2, -1, 1, 3))
                  for _ in range(rng.randint(0, 6))}, unit * rng.randint(-2, 2), rng.choice((-1, 1)))
                for _ in range(2)]
        u, sign = rng.choice((0, unit, 1, -unit)), rng.choice((-1, 1))
        want = {}
        for k, v in _expand(p).items():
            want[k] = want.get(k, 0) + sign * v
        for k, v in _expand(q).items():
            want[k + u] = want.get(k + u, 0) + sign * v
        got = _expand(_packed_sum(p, q, u, sign))
        assert got == {k: v for k, v in want.items() if v}, (p, q, u, sign)


def _entries(m):
    return m.a, m.b, m.c, m.d


def _spy_decodes(monkeypatch):
    """Every entry the decoder decodes, as the letter it has in the
    Mat2 that _evaluate_formal returned last."""
    letters, decoded = {}, []
    formal, decode = paths._evaluate_formal, paths._Decoder.decode

    def spy_formal(atoms, a0):
        m = formal(atoms, a0)
        letters.clear()
        letters.update((id(e._source[0]), x) for x, e in zip("abcd", _entries(m)))
        assert len(letters) == 4
        return m

    def spy_decode(self, entry):
        decoded.append(letters[id(entry)])
        return decode(self, entry)

    monkeypatch.setattr(paths, "_evaluate_formal", spy_formal)
    monkeypatch.setattr(paths._Decoder, "decode", spy_decode)
    return decoded


def _lazy_words():
    """Dual arcs, random arcs and closed words of the fixtures and of
    30 random spines, with loop weights, mixed signs and cancellations."""
    rng = random.Random(20261018)
    out = []
    graphs = [load_fixture(name) for name in ALL_FIXTURES] + [random_spine(rng) for _ in range(30)]
    for graph in graphs:
        out += [(graph, dual_arc(graph, name)) for name in graph.coordinate_edges()]
        for _ in range(3):
            out += [(graph, p) for p in (random_arc(rng, graph), random_closed_word(rng, graph, max_len=16))
                    if p is not None]
    return out


def test_formal_entries_decode_on_first_read(monkeypatch):
    """evaluate decodes nothing; each entry decodes once, on the first
    read of its terms; lambda_length decodes b alone and
    geodesic_function a and d alone."""
    decoded = _spy_decodes(monkeypatch)
    closed = 0
    for graph, path in _lazy_words():
        word = compile_path(graph, path)
        m = evaluate(word)
        assert decoded == []
        for letter in "dbdcab":
            getattr(m, letter).terms
        assert decoded == ["d", "b", "c", "a"]
        decoded.clear()
        if not path.closed:
            lambda_length(graph, path)
            assert decoded == ["b"], path.token_string()
            decoded.clear()
        if path.start_cusp == path.end_cusp:
            geodesic_function(graph, path)
            assert sorted(decoded) == ["a", "d"], path.token_string()
            decoded.clear()
            closed += 1
    assert closed > 20


def _field_decode(entry, decoder):
    """The terms of a packed entry, read field by field with no memo."""
    packed, shift, sign = entry
    names = [name for chunk, _ in decoder.chunks for name in chunk]
    width = decoder.width
    terms = {}
    for key, coeff in packed.items():
        key += shift
        exps = []
        for name in names:
            e = ((key + (1 << (width - 1))) & ((1 << width) - 1)) - (1 << (width - 1))
            if e:
                exps.append((name, e))
            key = (key - e) >> width
        terms[tuple(exps)] = sign * coeff
    return terms


def test_undecoded_entries_act_as_their_values():
    """Each operation on an entry nobody has read yet agrees with the
    oracle's entry and leaves canonical form; the first read gives the
    keys in the order of the packed terms."""
    values, kinds = {}, set()
    words = [compile_path(graph, path) for graph, path in _lazy_words()]
    small = [word for word in words if max(len(e.terms) for e in _entries(evaluate(word))) <= 24]
    # the prefixes add mixed signs (w^2 - 1) and R^3 zero entries
    for word in small[::4] + [MatrixWord(tuple(p)) for p in _PREFIXES + ([("R",)] * 3,)]:
        want = oracle_evaluate(word)
        kinds.update((e.sign_definite(), any(v.startswith("w_") for key in e.terms for v, _ in key))
                     for e in _entries(want))
        for x in "abcd":
            def fresh():
                return getattr(evaluate(word), x)

            w = getattr(want, x)
            assert fresh() == w and w == fresh() and fresh() != w + 1 and not (w + 1 == fresh())
            assert fresh() == fresh() and hash(fresh()) == hash(w)
            assert str(fresh()) == str(w) and repr(fresh()) == repr(w)
            assert fresh().sign_definite() == w.sign_definite()
            for result, expected in ((-fresh(), -w), (fresh() + w, w + w), (w + fresh(), w + w),
                                     (fresh() + fresh(), w + w), (fresh() + 1, w + 1), (1 - fresh(), 1 - w),
                                     (fresh() * w, w * w), (fresh() * fresh(), w * w), (3 * fresh(), 3 * w),
                                     (copy.deepcopy(fresh()), w), (copy.copy(fresh()), w),
                                     (pickle.loads(pickle.dumps(fresh())), w)):
                assert result == expected and str(result) == str(expected)
                _assert_canonical(result)
            assert type(copy.deepcopy(fresh())) is LaurentPoly
            assert type(pickle.loads(pickle.dumps(fresh()))) is LaurentPoly
            for v in set(var for key in w.terms for var, _ in key):
                values.setdefault(v, Fraction(len(values) % 5 + 2, len(values) % 3 + 1))
            assert fresh().subs(values) == w.subs(values)
            entry = fresh()
            source = entry._source
            assert list(entry.terms) == list(_field_decode(*source)) and entry.terms == w.terms
            assert entry._source is None
            with pytest.raises(AttributeError):
                entry.shift
    assert {(1, True), (-1, True), (None, True), (0, False)} <= kinds, kinds


def test_threads_reading_one_entry_all_get_its_terms():
    """Four threads read the terms of the same undecoded entries at
    once, with the interpreter switching threads every microsecond:
    each gets the terms the entry decodes to alone."""
    import sys
    import threading

    words = [compile_path(graph, path) for graph, path in _lazy_words()]
    want = [[e.terms for e in _entries(evaluate(word))] for word in words]
    mats = [evaluate(word) for word in words for _ in range(4)]
    got = [[] for _ in range(4)]

    def read(out):
        for m in mats:
            out.append([e.terms for e in _entries(m)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for out in got:
        assert out == [w for w in want for _ in range(4)]


def test_threads_walking_one_graph_draw_what_they_draw_alone():
    """Four threads draw words on the same fresh spines at once, with
    the interpreter switching threads every microsecond, so that they
    start and fill the spines' move tables together: each draws the
    words it draws alone, on spines of its own."""
    import sys
    import threading

    def spines():
        rng = random.Random(1)
        return [random_spine(rng) for _ in range(20)]

    def draw(graphs, seed):
        rng = random.Random(seed)
        return [(random_arc(rng, g), random_closed_word(rng, g)) for g in graphs for _ in range(3)]

    want = [draw(spines(), seed) for seed in range(4)]
    shared, got = spines(), [None] * 4

    def run(seed):
        got[seed] = draw(shared, seed)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == want


@pytest.mark.parametrize("exact", [True, False])
def test_words_refuse_a_point_missing_a_value_they_read(exact):
    """lambda_length and geodesic_function refuse a point with no value
    for an edge their word reads, naming the first coordinate edge in
    file order with no value, else the first loop with no weight, as
    lambda_of_dual_arcs and flips word it; a value the word does not
    read need not be there."""
    label = "q" if exact else "y"

    def point(values, omega=None):
        return partial_point(exact, values, omega)

    g = load_fixture("sigma_0_1_4")
    arc = dual_arc(g, "p1")
    with pytest.raises(ValueError, match=r"^point has no %s value for coordinate edge e$" % label):
        lambda_length(g, arc, point({"e1": 2}))
    with pytest.raises(ValueError, match=r"^point has no %s value for coordinate edge p2$" % label):
        lambda_length(g, arc, point({"e": 2, "p1": 3}))
    whole = point({"e": 2, "p1": 3, "p2": 7, "p3": 11, "p4": 5})
    assert lambda_length(g, arc, point({"e": 2, "p1": 3, "p4": 5})) == lambda_length(g, arc, whole)
    g = load_fixture("sigma_0_3_1")
    closed = tokens(g, "pi,a1,w1-,a1,pi", closed=True)
    with pytest.raises(ValueError, match=r"^point has no weight for loop edge w1$"):
        geodesic_function(g, closed, point({"pi": 2, "a1": 3, "b1": 5}))
    with pytest.raises(ValueError, match=r"^point has no %s value for coordinate edge b1$" % label):
        geodesic_function(g, closed, point({"pi": 2, "a1": 3}))
    with pytest.raises(ValueError, match=r"^point has no %s value for coordinate edge pi$" % label):
        geodesic_function(g, closed, point({"a1": 3}, {"w1": 2}))
    partial = geodesic_function(g, closed, point({"pi": 2, "a1": 3}, {"w1": 2}))
    whole = geodesic_function(g, closed, point({"pi": 2, "a1": 3, "b1": 5}, {"w1": 2, "w2": 3}))
    assert partial.value == whole.value


def test_path_words_hold_no_dict_and_copy_equal(two_loops):
    """PathWord has slots, so a held word carries no __dict__; copies,
    pickles and dataclasses.replace give back an equal word with an
    equal hash."""
    rng = random.Random(1)
    words = [dual_arc(two_loops, n) for n in two_loops.coordinate_edges()]
    words += filter(None, (random_closed_word(rng, two_loops, 12) for _ in range(5)))
    assert any(w.closed for w in words)
    for word in words:
        assert not hasattr(word, "__dict__")
        for twin in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word)),
                     dataclasses.replace(word)):
            assert type(twin) is PathWord and twin == word and hash(twin) == hash(word)
        assert dataclasses.replace(word, closed=not word.closed) != word
