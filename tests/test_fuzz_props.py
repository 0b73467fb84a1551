"""The random-spine generator itself, plus quick runs of each suite."""

import copy
import hashlib
import pickle
import random
from fractions import Fraction
from itertools import chain

import pytest

import draw_oracle

from spineforms import fuzz, parse_graph, validate
from spineforms.fuzz import (
    SUITES,
    _below,
    _draw,
    _graph,
    _sample,
    _screen,
    _shuffle,
    _signature,
    _sign_definite_in_s,
    random_arc,
    random_closed_word,
    random_exact_point,
    random_spine,
    run_suite,
)
from spineforms import coords
from spineforms.coords import lambda_of_dual_arcs, shear_from_lambda
from spineforms.paths import PathWord, compile_path, evaluate
from spineforms.ribbon import Edge, FatGraph, GraphError, dual_arc, emit_graph
from spineforms.algebra import LaurentPoly


def test_generator_is_seed_deterministic():
    a = [random_spine(random.Random(5)).canonical_key() for _ in range(3)]
    b = [random_spine(random.Random(5)).canonical_key() for _ in range(3)]
    assert a == b


def _held_names(graph):
    """Every name string a spine holds: in its vertices, cusps, edges
    and indexes."""
    yield from graph.vertices
    yield from chain.from_iterable(graph.vertices.values())
    yield from chain.from_iterable(graph.cusps.items())
    for name, edge in graph.edges.items():
        yield from (name, edge.name, *edge.halves)
    for index in (graph._owner, graph._sigma, graph._edge_of, graph._mate):
        yield from chain.from_iterable(index.items())


def _size(graph):
    kinds = [e.kind for e in graph.edges.values()]
    return len(graph.vertices), kinds.count("loop"), kinds.count("pending"), kinds.count("inner")


def test_generated_spines_share_their_names():
    """Spines drawn apart hold one string object per name: two drawn
    from the same seed, and one from another seed, share every name
    they have in common.  Two different spines of one size also share
    their vertices' half tuples, but each has Edge objects of its own:
    a value set on one spine's edge leaves the other's, and the next
    spine's, at None."""
    spines = [random_spine(random.Random(1)), random_spine(random.Random(1)), random_spine(random.Random(2))]
    rng = random.Random(1)
    first = {}
    while True:
        other = random_spine(rng)
        twin = first.setdefault(_size(other), other)
        if twin.canonical_key() != other.canonical_key():
            break
    spines += [twin, other]
    held = {}
    for i, graph in enumerate(spines):
        for name in _held_names(graph):
            assert held.setdefault(name, name) is name, (i, name)
    assert set(_held_names(spines[0])) == set(_held_names(spines[1]))
    for v, halves in twin.vertices.items():
        assert other.vertices[v] is halves, v
    assert all(other.edges[e] is not edge for e, edge in twin.edges.items())
    name = next(iter(twin.edges))
    twin.edges[name].value = Fraction(3)
    assert other.edges[name].value is None
    rng = random.Random(1)
    again = random_spine(rng)
    while _size(again) != _size(twin):
        again = random_spine(rng)
    assert again is not twin and all(edge.value is None for edge in again.edges.values())


def test_drawn_words_share_their_steps():
    """Words drawn on one spine hold one Step object per step: across 50
    random arcs and 50 closed words, and the same words read back from
    their tokens, equal steps are the same object, loop steps too.
    The words still copy, pickle and compare as before."""
    rng = random.Random(1)
    graph = random_spine(rng)
    while not graph.loop_edges():
        graph = random_spine(rng)
    words = [random_arc(rng, graph) for _ in range(50)] + [random_closed_word(rng, graph) for _ in range(50)]
    words = [w for w in words if w is not None]
    words += [PathWord.from_tokens(graph, w.tokens, w.closed) for w in words]
    held = {}
    for i, word in enumerate(words):
        for step in word.steps:
            assert held.setdefault(step, step) is step, (i, step)
    assert len(held) < sum(len(w.steps) for w in words) and any(s.sign for s in held), held
    for word in words:
        for twin in (copy.copy(word), copy.deepcopy(word), pickle.loads(pickle.dumps(word))):
            assert type(twin) is PathWord and twin == word and hash(twin) == hash(word)
            assert twin.steps == word.steps and twin.token_string() == word.token_string()


def test_generator_output_validates_and_respects_bounds():
    rng = random.Random(99)
    for _ in range(25):
        graph = random_spine(rng)
        report = validate(graph)
        assert report.ok
        assert report.genus <= 2
        assert report.holes_with_cusps + report.monogon_holes <= 5
        assert 1 <= report.cusps <= 4


def test_generator_varies_topology():
    rng = random.Random(1)
    keys = {random_spine(rng).canonical_key() for _ in range(12)}
    assert len(keys) > 4


@pytest.mark.parametrize("seed", [1, 20261017])
def test_spine_screen_agrees_with_validate(seed):
    """The int screen accepts a draw exactly when FatGraph builds it,
    validate passes it and its signature is the one drawn for; every
    draw is built, whatever the screen says."""
    rng = random.Random(seed)
    disagree = []
    for k in range(20000):
        sig = _signature(rng)
        halves = _draw(rng, sig)
        try:
            graph = _graph(sig, halves)
        except GraphError:
            spine = False
        else:
            r = validate(graph)
            spine = r.ok and (r.genus, r.holes_with_cusps, r.monogon_holes, r.cusps) == sig
        if _screen(sig, halves) != spine:
            disagree.append((k, sig, spine))
    assert disagree == []


def test_a_screen_that_passes_every_draw_fails_loudly(monkeypatch):
    monkeypatch.setattr(fuzz, "_screen", lambda sig, halves: True)
    with pytest.raises(RuntimeError, match=r"spine screen passed a draw for g=\d+ sh=\d+ so=\d+ n=\d+"):
        random_spine(random.Random(1))


@pytest.mark.parametrize("seed,digest,next_bits", [
    (1, "ec98dda507b0b2dce861be565716f7f7b37759c799bbd3beb33ac93465fff922", 5170359680829520159),
    (20261017, "f2117b8089b0809c227ef07059a5a42bc20e6320a8ecceaac33ab03058fa23d0", 5617046677323132294),
])
def test_spine_corpus_is_pinned(seed, digest, next_bits):
    """300 spines as text, and the generator's next draw after them: the
    digest changes if any spine does, the bits if the draws consumed
    change."""
    rng = random.Random(seed)
    text = "".join(emit_graph(random_spine(rng)) for _ in range(300))
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    assert rng.getrandbits(64) == next_bits


@pytest.mark.parametrize("seed", [1, 20261017])
def test_draws_match_the_stdlib_helpers(seed):
    """20000 signatures and draws read through getrandbits equal those
    the stdlib helpers gave (draw_oracle), and leave the generator
    where they left it."""
    ours, theirs = random.Random(seed), random.Random(seed)
    for k in range(20000):
        sig = _signature(ours)
        assert sig == draw_oracle._signature(theirs), k
        assert _draw(ours, sig) == draw_oracle._draw(theirs, sig), (k, sig)
    assert ours.getrandbits(64) == theirs.getrandbits(64)


def _twins(seed):
    ours = random.Random(seed)
    theirs = random.Random()
    theirs.setstate(ours.getstate())
    return ours, theirs


@pytest.mark.parametrize("m", range(1, 71))
def test_below_and_its_loops_read_bits_as_the_stdlib_helpers(m):
    """On cloned states, _below draws as choice and randint, _shuffle as
    shuffle, and _sample as sample(range(m), k) for every k when m <= 21,
    the sizes where sample takes the pool that _sample keeps; every
    pair ends with the same state.  m runs over the powers of two up to
    64, where a bit too few or too many shows."""
    ours, theirs = _twins(m)
    bits = ours.getrandbits
    seq = list(range(100, 100 + m))
    for _ in range(50):
        assert seq[_below(bits, m)] == theirs.choice(seq)
        assert 7 + _below(bits, m) == theirs.randint(7, 6 + m)
    xs, ys = list(range(m)), list(range(m))
    _shuffle(bits, xs)
    theirs.shuffle(ys)
    assert xs == ys
    if m <= 21:
        for k in range(m + 1):
            assert _sample(bits, m, k) == theirs.sample(range(m), k), k
    assert ours.getstate() == theirs.getstate()


@pytest.mark.parametrize("n", [0, -1, -64])
def test_below_refuses_an_empty_range(n):
    """getrandbits(0) is 0, so a loop for n <= 0 would never end."""
    with pytest.raises(ValueError, match="n >= 1"):
        _below(random.Random(1).getrandbits, n)


class _Scripted:
    """A generator whose getrandbits hands out the given values in turn,
    and fails once they run out."""

    def __init__(self, values):
        self.values = iter(values)

    def getrandbits(self, k):
        r = next(self.values, None)
        if r is None:
            raise LookupError("script ran out")
        return r


def test_every_signature_leaves_sample_on_its_pool():
    """Each first pass through _signature's four draws, fed every value
    each can take, returns a signature with v3 <= 21, the sizes where
    sample(range(v3), s_o) draws from a pool as _sample does; a pass
    it rejects runs out of script."""
    returned = set()
    for g in range(7):
        for a in range(3):
            s_h = 1 + a
            for b in range(5 - s_h):
                for c in range(6 - s_h):
                    try:
                        returned.add(_signature(_Scripted([g, a, b, c])))
                    except LookupError:
                        pass
    assert max(fuzz._trivalent(sig) for sig in returned) == 18 <= 21


def _theta():
    """Two trivalent vertices joined by three inner edges: no cusp."""
    return FatGraph({"u": ("a1", "b1", "c1"), "v": ("a2", "c2", "b2")}, {}, {
        x: Edge(x, "inner", (x + "1", x + "2")) for x in "abc"})


@pytest.mark.parametrize("draw,what", [(random_arc, "arc"), (random_closed_word, "closed word")])
def test_random_words_refuse_a_graph_without_cusps(draw, what):
    """The walks start at a cusp; on a graph with none, the draw is
    refused by name before the generator is read."""
    rng = random.Random(1)
    state = rng.getstate()
    with pytest.raises(GraphError, match="random %s starts at a cusp, and this graph has none" % what):
        draw(rng, _theta())
    assert rng.getstate() == state


def test_random_point_covers_all_edges():
    rng = random.Random(3)
    graph = random_spine(rng)
    point = random_exact_point(rng, graph)
    assert set(point.q) == set(graph.coordinate_edges())
    assert set(point.omega) == set(graph.loop_edges())


def test_random_arc_compiles_to_unit_determinant():
    rng = random.Random(17)
    for _ in range(10):
        graph = random_spine(rng)
        arc = random_arc(rng, graph)
        if arc is None:
            continue
        m = evaluate(compile_path(graph, arc))
        assert m.a * m.d - m.b * m.c == LaurentPoly.const(1)
        assert not arc.closed


def test_random_closed_word_returns_to_start():
    rng = random.Random(23)
    found = 0
    for _ in range(10):
        graph = random_spine(rng)
        word = random_closed_word(rng, graph)
        if word is None:
            continue
        found += 1
        assert word.closed
        assert word.start_cusp == word.end_cusp
        compile_path(graph, word)
    assert found > 0


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_suite_passes_smoke(suite):
    trials = {"positivity": 25, "mutation": 5}.get(suite, 8)
    result = run_suite(suite, trials, seed=424)
    assert result.ok, result.summary()


def test_roundtrip_fails_a_broken_local_rule(monkeypatch):
    """The suite's check of K = 2 M^{-1} is DualView.inverse()'s exact
    K M = 2I test: one wrong entry of K fails every trial."""
    build = coords.DualView.__init__

    def broken(self, graph):
        build(self, graph)
        (j, k), *rest = self.local[0]
        self.local = (((j, k + 1), *rest),) + self.local[1:]

    monkeypatch.setattr(coords.DualView, "__init__", broken)
    result = run_suite("roundtrip", 20, 1)
    assert not result.ok
    assert len(result.failures) == 20
    assert all("not inverted by the local rule" in f for f in result.failures)


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("nope", 1, 1)


def test_suite_summary_mentions_failures():
    result = run_suite("centers", 2, 7)
    result.failures.append("synthetic")
    text = result.summary()
    assert "FAIL" in text
    assert "synthetic" in text


def test_seed_one_corpus_is_pinned():
    """Every fuzz corpus and the benchmark's inputs are drawn this way;
    the digest changes if the generator or the walk draws differently."""
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(30):
        graph = random_spine(rng)
        arc = random_arc(rng, graph)
        closed = random_closed_word(rng, graph)
        for part in (emit_graph(graph), arc and arc.token_string(), closed and closed.token_string()):
            digest.update(str(part).encode() + b"\0")
    assert digest.hexdigest() == "864df81ac2f55a95f3cff71292df42df4e68ab18ff3e5336a4f058345487b394"


def test_seed_one_formal_words_are_pinned():
    """Formal evaluation of the same corpus: every dual arc, arc and
    closed word, printed; the digest changes if any entry does."""
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(30):
        graph = random_spine(rng)
        arc = random_arc(rng, graph)
        closed = random_closed_word(rng, graph)
        paths = [dual_arc(graph, name) for name in graph.coordinate_edges()]
        for path in paths + [p for p in (arc, closed) if p is not None]:
            digest.update(str(evaluate(compile_path(graph, path))).encode() + b"\0")
    assert digest.hexdigest() == "28aabba5f49d28efebf8f6e7718ea2623921bac519b6bfda9fb628a0afec2187"


def test_seed_one_exact_words_are_pinned():
    """Exact evaluation of the same corpus at a random exact point per
    graph: every dual arc, arc and closed word, printed; the digest
    changes if any entry's value or its r*sqrt(n) form does."""
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(30):
        graph = random_spine(rng)
        arc = random_arc(rng, graph)
        closed = random_closed_word(rng, graph)
        point = random_exact_point(rng, graph)
        paths = [dual_arc(graph, name) for name in graph.coordinate_edges()]
        for path in paths + [p for p in (arc, closed) if p is not None]:
            digest.update(str(evaluate(compile_path(graph, path), point)).encode() + b"\0")
    assert digest.hexdigest() == "278c8abc61ede880d0014af8530a7013d5f9b84ded443c5a9c4fc13bbd2e14a7"


def test_seed_one_shears_are_pinned():
    """shear_from_lambda over the same corpus, each graph at a random
    exact point and its float copy: exact values by str, floats by
    repr; the digest changes if any value or its last bit does."""
    rng = random.Random(1)
    digest = hashlib.sha256()
    for _ in range(30):
        graph = random_spine(rng)
        random_arc(rng, graph)
        random_closed_word(rng, graph)
        point = random_exact_point(rng, graph)
        exact = shear_from_lambda(graph, lambda_of_dual_arcs(graph, point))
        floats = shear_from_lambda(graph, lambda_of_dual_arcs(graph, point.as_float()))
        for name in graph.coordinate_edges():
            digest.update(("%s %s %r" % (name, exact.q[name], floats.y[name])).encode() + b"\0")
    assert digest.hexdigest() == "9aaf69518527e190fe7d7e1beb4c5e13f169cc5365e58cbdde1d9dead15b5000"


WINDS_TWICE = """surface g=0 sh=2 so=1 n=3
vertex v0 ccw: h0_0 h0_1 h0_2
vertex v1 ccw: h1_0 h1_1 h1_2
vertex v2 ccw: h2_0 h2_1 h2_2
vertex v3 ccw: h3_0 h3_1 h3_2
vertex v4 ccw: h4_0 h4_1 h4_2
cusp c1 half: hc1
cusp c2 half: hc2
cusp c3 half: hc3
edge w1 loop h2_0 h2_1
edge p1 pending h4_1 hc1
edge p2 pending h0_1 hc2
edge p3 pending h3_0 hc3
edge e1 inner h1_1 h4_2
edge e2 inner h1_0 h0_0
edge e3 inner h2_2 h3_1
edge e4 inner h1_2 h0_2
edge e5 inner h3_2 h4_0
"""


def test_trace_winding_twice_round_a_loop_has_one_sign_in_s():
    """This closed word from the seed-1 positivity corpus picks up
    F(w)^2: its trace has mixed signs in w but one sign in s."""
    graph = parse_graph(WINDS_TWICE)
    word = PathWord.from_tokens(graph, "p3,e3,w1-,e3,e5,e1,e4,e2,e4,e2,e1,e5,e3,w1-,e3,p3".split(","), closed=True)
    trace = evaluate(compile_path(graph, word)).trace()
    assert trace.sign_definite() is None
    assert _sign_definite_in_s(trace)
    w = LaurentPoly.var("w_w1")
    assert not _sign_definite_in_s(w * w - LaurentPoly.const(3))
