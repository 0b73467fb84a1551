"""The spine draws as the stdlib helpers made them, kept as a reference
oracle.

``fuzz._signature`` and ``fuzz._draw`` read the generator through
``getrandbits`` alone.  These are the versions they replaced, which
called ``choice``, ``randint``, ``sample`` and ``shuffle``; on a
``random.Random`` both must give the same signatures and halves and
leave the generator in the same state.
"""

import random

from spineforms.fuzz import _trivalent


def _signature(rng: random.Random) -> tuple[int, int, int, int]:
    while True:
        g = rng.choice([0, 0, 0, 0, 1, 1, 2])
        s_h = rng.randint(1, 3)
        n = rng.randint(s_h, 4)
        s_o = rng.randint(0, max(0, 5 - s_h))
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
    2s_o is even, so the pairing never runs short."""
    g, s_h, s_o, n = sig
    cut = 3 * _trivalent(sig)
    halves: list[int] = []
    for v in rng.sample(range(cut // 3), s_o):
        i, j = sorted(rng.sample(range(3), 2))
        halves += (3 * v + i, 3 * v + j)
    used = set(halves)
    free = [h for h in range(cut) if h not in used]
    rng.shuffle(free)
    for k in range(cut, cut + n):
        halves += (free.pop(), k)
    rng.shuffle(free)
    return halves + free
