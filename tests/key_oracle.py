"""The min-over-roots graph certificate, kept as a reference oracle.

The package roots its key at the least-named pending edge, which every
spine has.  This is the key it replaced: one breadth-first certificate
per trivalent vertex and rotation, the least of them kept, so it needs
no cusp.  Two graphs get equal keys from one exactly when they get
equal keys from the other.
"""


def oracle_key(graph):
    """Least certificate over every trivalent vertex and rotation, or
    None for a graph with no trivalent vertex."""
    best = None
    for v0 in graph.vertices:
        for rot in range(3):
            cert = _certificate(graph, v0, rot)
            if best is None or cert < best:
                best = cert
    return best


def _certificate(graph, v0, rot):
    order0 = graph.vertices[v0]
    queue = [(v0, order0[rot:] + order0[:rot])]
    placed = {v0}
    halfnum = {}
    entries = []
    while queue:
        vid, halves = queue.pop(0)
        row = []
        for h in halves:
            if h not in halfnum:
                halfnum[h] = len(halfnum)
            m = graph.mate(h)
            name = graph.edge_of(h)
            row.append((name, graph.edges[name].kind, halfnum.get(m, -1)))
            peer = graph.vertex_of(m)
            if peer in graph.vertices and peer not in placed:
                placed.add(peer)
                porder = graph.vertices[peer]
                i = porder.index(m)
                queue.append((peer, porder[i:] + porder[:i]))
        entries.append(tuple(row))
    return tuple(entries)
