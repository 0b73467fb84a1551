"""Turn-by-turn boundary walks, kept as reference oracles.

The package cuts windows and dual arcs out of the cached face orbits.
These are the walks it cut them from, one vertex passage at a time on
``paths.walk_turn``: a window turns '+' out of its cusp until it reaches
the next cusp, and a dual arc hugs the triangulation by '-' turns into a
cusp and is then walked back.  Each walk gives up after as many steps as
the graph could need, so an invalid graph ends in a GraphError.
``fresh_move`` derives one of walk_turn's moves again, with new steps
and without the graph's move table.
"""

from spineforms.paths import PathWord, Step, walk_turn
from spineforms.ribbon import GraphError, Window


def fresh_move(graph, arrival, sign):
    """The move of a ``sign`` turn at ``arrival`` as (steps, next
    arrival): out through sigma(arrival) for '+', sigma_inv(arrival)
    for '-', and, into a loop, the same turn again from the loop's
    other half, out through the stem."""
    def turn(h):
        return graph.sigma(h) if sign == "+" else graph.sigma_inv(h)

    x = turn(arrival)
    steps = []
    if graph.edges[graph.edge_of(x)].kind == "loop":
        steps.append(Step(graph.edge_of(x), sign, x))
        x = turn(graph.mate(x))
    steps.append(Step(graph.edge_of(x), None, x))
    return tuple(steps), graph.mate(x)


def oracle_windows(graph):
    """All windows in face order, each walked by '+' turns out of a cusp."""
    out = []
    limit = 2 * len(graph._owner)
    for fi, orbit in enumerate(graph.faces()):
        for h in filter(graph.is_cusp_half, orbit):
            steps = []
            arrival = walk_turn(graph, h, "+", steps)
            while not graph.is_cusp_half(arrival):
                if len(steps) > limit:
                    raise GraphError("window walk does not reach a cusp (invalid graph?)")
                arrival = walk_turn(graph, arrival, "+", steps)
            out.append(Window(fi, graph.vertex_of(h), graph.vertex_of(arrival), tuple(steps)))
    return out


def _hug_walk(graph, start, steps):
    """Continue ``steps``, a walk leaving ``start``, by a '-' turn at
    every vertex until a pending edge drops into a cusp."""
    steps = list(steps)
    arrival = graph.mate(steps[-1].exit_half)
    limit = len(steps) + 2 * len(graph._owner) + 2
    while True:
        if len(steps) > limit:
            raise GraphError("hugging walk does not reach a cusp (invalid graph?)")
        arrival = walk_turn(graph, arrival, "-", steps)
        if graph.is_cusp_half(arrival):
            return PathWord(start, tuple(steps), graph.vertex_of(arrival))


def oracle_dual_arc(graph, name):
    """The dual arc of a coordinate edge: a pending edge's is the hug out
    of its cusp, walked back; an inner edge's hugs out through one half,
    is walked back, and hugs on out through the other."""
    edge = graph.edges.get(name)
    if edge is None:
        raise GraphError("no edge named %s" % name)
    if edge.kind == "loop":
        raise GraphError("loop edge %s has no dual arc" % name)
    if edge.kind == "pending":
        cusp = graph.cusp_of_pending(name)
        return _hug_walk(graph, cusp, [Step(name, None, graph.cusp_half(cusp))]).reversed(graph)
    h1, h2 = edge.halves
    back = _hug_walk(graph, graph.vertex_of(h2), [Step(name, None, h2)]).reversed(graph)
    return _hug_walk(graph, back.start_cusp, back.steps)
