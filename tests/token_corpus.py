"""A seeded corpus of path token lists, walkable and not.

The graphs are the five fixtures and the first 300 spines of
``random_spine(random.Random(7))``.  Each graph gives its dual arcs and
10 ``random_arc`` and 10 ``random_closed_word`` draws, taken from the
same rng as the spines; every one of these paths is a base list, and
each base list gets 6 mutants.  A mutant deletes one token, inserts or
replaces one with a token of the graph's alphabet, or truncates the
list.  The alphabet holds every edge name, both signs of each loop, and
``zz`` and ``p1+``, which no graph can walk.
"""

import functools
import hashlib
import random

from spineforms.fuzz import random_arc, random_closed_word, random_spine
from spineforms.paths import PathWord
from spineforms.ribbon import dual_arc

from conftest import ALL_FIXTURES, load_fixture

SPINES = 300
DRAWS = 10
MUTANTS = 6


def _alphabet(graph):
    out = []
    for name, edge in graph.edges.items():
        out.append(name)
        if edge.kind == "loop":
            out += [name + "+", name + "-"]
    return sorted(out) + ["zz", "p1+"]


def _mutant(rng, toks, alphabet):
    toks = list(toks)
    kind = rng.choice(("delete", "insert", "replace", "truncate"))
    if kind == "delete":
        del toks[rng.randrange(len(toks))]
    elif kind == "insert":
        toks.insert(rng.randrange(len(toks) + 1), rng.choice(alphabet))
    elif kind == "replace":
        toks[rng.randrange(len(toks))] = rng.choice(alphabet)
    else:
        del toks[rng.randrange(len(toks)):]
    return toks


def _base_paths(rng, graph):
    paths = [dual_arc(graph, n) for n in graph.coordinate_edges()]
    for _ in range(DRAWS):
        paths.append(random_arc(rng, graph))
    for _ in range(DRAWS):
        paths.append(random_closed_word(rng, graph))
    return [p for p in paths if p is not None]


@functools.lru_cache(maxsize=None)
def corpus():
    """(graph, base paths, token lists) per graph; each token list is a
    (tokens, closed) pair, a base path's own or one of its mutants."""
    rng = random.Random(7)
    graphs = [load_fixture(name) for name in ALL_FIXTURES]
    graphs += [random_spine(rng) for _ in range(SPINES)]
    out = []
    for graph in graphs:
        alphabet = _alphabet(graph)
        bases = _base_paths(rng, graph)
        lists = []
        for path in bases:
            lists.append((path.tokens, path.closed))
            lists += [(_mutant(rng, path.tokens, alphabet), path.closed) for _ in range(MUTANTS)]
        out.append((graph, bases, lists))
    return out


def read_corpus():
    """Read every token list with PathWord.from_tokens: the number of
    lists tried, the number accepted, and a sha256 over the accepted
    paths (cusps and every step's edge, sign and exit half)."""
    tried = accepted = 0
    digest = hashlib.sha256()
    for graph, _, lists in corpus():
        for toks, closed in lists:
            tried += 1
            try:
                path = PathWord.from_tokens(graph, toks, closed)
            except ValueError:
                continue
            accepted += 1
            digest.update(repr((path.start_cusp, tuple(path.steps), path.end_cusp, path.closed)).encode())
    return tried, accepted, digest.hexdigest()
