"""Command line front end.

Every subcommand reads the line-oriented graph format, prints
deterministic text (exact values as integers or fractions, floats with
explicit precision), and exits 0 on success and nonzero with a
diagnostic on stderr otherwise.  Every subcommand but ``validate``
refuses, with exit code 2, a graph that fails a check of ``validate``.
Output is byte-identical for identical command, input, and seed.
Each listing (``windows``, ``dual-arcs``, ``lambda-from-shear``, the tsv
of ``forms``) builds one list of rows in full and prints it in either
``--format``: as text each row fills the listing's template, as tsv its
fields join by tabs under a header.  ``fuzz`` prints each suite as it ends.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from fractions import Fraction
from typing import Callable

from .algebra import SqrtRational
from .coords import LambdaAssignment, lambda_of_dual_arcs, shear_from_lambda
from .flips import flip_edge, verify_flip_matrix_identities
from .forms import center_vectors, penner_form_matrix, poisson_matrix, verify_inverse, window_form_matrix
from .fuzz import SUITES, run_suite
from .paths import PathWord, compile_path, evaluate, geodesic_function, lambda_length
from .ribbon import FatGraph, GraphError, _exact_parts, _int_refusal, dual_arc, emit_graph, parse_graph, validate, windows

__all__ = ["main"]


def _die(msg: str) -> int:
    print("error: %s" % msg, file=sys.stderr)
    return 2


def _read_text(path: str) -> str:
    """The file's text with universal newlines, as text mode reads it;
    a file that is not UTF-8 is refused with its name."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError("%s: not UTF-8 text (byte 0x%02x at offset %d)" % (path, data[exc.start], exc.start)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read(path: str) -> FatGraph:
    return parse_graph(_read_text(path))


def _load(path: str) -> FatGraph:
    """The graph in the file, refused with the first check of validate
    that it fails: the computing subcommands take spines only."""
    graph = _read(path)
    for name, passed, detail in validate(graph).checks:
        if not passed:
            raise GraphError("not a spine: check %s failed%s" % (name, " (%s)" % detail if detail else ""))
    return graph


def _render(v) -> str:
    if isinstance(v, float):
        return "%.17g" % v
    return str(v)


def _print_rows(fmt: str, columns: str, template: str, rows: list) -> None:
    """As tsv, the columns and then each row's fields joined by tabs; as
    text, each row filling the template."""
    if fmt == "tsv":
        print("\t".join(columns.split()))
    for row in rows:
        print("\t".join(map(str, row)) if fmt == "tsv" else template % row)


def cmd_validate(args) -> int:
    graph = _read(args.graph)
    report = validate(graph)
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_windows(args) -> int:
    graph = _load(args.graph)
    rows = [(i, w.hole, w.start_cusp, w.end_cusp, ",".join(w.tokens), ",".join(w.coordinate_tokens(graph)))
            for i, w in enumerate(windows(graph))]
    _print_rows(args.format, "window hole start end tokens order",
                "window %d of hole %d: %s -> %s\n  tokens %s\n  order  %s", rows)
    return 0


def cmd_dual_arcs(args) -> int:
    graph = _load(args.graph)
    rows = []
    for name in args.edges or graph.coordinate_edges():
        arc = dual_arc(graph, name)
        rows.append((name, arc.start_cusp, arc.end_cusp, arc.token_string(),
                     compile_path(graph, arc), lambda_length(graph, arc)))
    _print_rows(args.format, "edge start end path word lambda",
                "dual %s: %s -> %s\n  path   %s\n  word   %s\n  lambda %s", rows)
    return 0


def cmd_lambda(args) -> int:
    graph = _load(args.graph)
    path = PathWord.from_tokens(graph, args.path.split(","))
    formal = lambda_length(graph, path)
    value = lambda_length(graph, path, graph.point())
    print("formal %s" % formal)
    print("value  %s" % _render(value))
    return 0


def cmd_geodesic(args) -> int:
    graph = _load(args.graph)
    path = PathWord.from_tokens(graph, args.path.split(","), closed=True)
    word = compile_path(graph, path)
    formal = evaluate(word).trace()
    gf = geodesic_function(graph, path, graph.point())
    print("word   %s" % word)
    print("formal %s" % formal)
    print("trace  %s" % _render(gf.raw_trace))
    print("value  %s" % _render(gf.value))
    return 0


def cmd_lambda_from_shear(args) -> int:
    graph = _load(args.graph)
    assignment = lambda_of_dual_arcs(graph, graph.point())
    rows = [("lambda", name, _render(value)) for name, value in assignment.items()]
    rows += [("omega", name, _render(value)) for name, value in sorted(assignment.omega.items())]
    _print_rows(args.format, "kind edge value", "%s %s = %s", rows)
    return 0


_SQRT_RE = re.compile(r"^(?:([+-]?\d+(?:/\d+)?)\*)?sqrt\((\d+)\)$")


def _parse_value(text: str):
    """r*sqrt(n) or a rational (read by ribbon._exact_parts), else a float."""
    text = text.strip()
    m = _SQRT_RE.match(text)
    if m:
        rat = Fraction(*_exact_parts(m.group(1))) if m.group(1) else Fraction(1)
        return SqrtRational(rat, int(m.group(2)))
    parts = _exact_parts(text)
    if parts is not None:
        return SqrtRational(Fraction(*parts))
    return float(text)


def _read_lambda_file(path: str) -> LambdaAssignment:
    """Each name once; exactness and the values' domains are left to the
    reader of the assignment."""
    values: dict[str, object] = {}
    omega: dict[str, object] = {}
    for lineno, raw in enumerate(_read_text(path).split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = re.match(r"^(lambda|omega)\s+(\S+)\s*=\s*(\S+)$", line)
        if not m:
            raise ValueError("line %d: expected 'lambda <edge> = <value>' or 'omega <loop> = <value>'" % lineno)
        kind, name, text = m.groups()
        try:
            value = _parse_value(text)
        except ValueError:
            refusal = _int_refusal(re.findall(r"\d+", text), "%s %s = %s is not a number" % (kind, name, text))
            raise ValueError("line %d: %s" % (lineno, refusal)) from None
        target = values if kind == "lambda" else omega
        if name in target:
            raise ValueError("line %d: %s %s is given twice" % (lineno, kind, name))
        target[name] = value
    return LambdaAssignment(values, omega)


def _named(path: str, read: Callable):
    """read(path) for a subcommand that reads two files: an error on a
    line of the file names the file, as the not-UTF-8 error does."""
    try:
        return read(path)
    except ValueError as exc:
        if not str(exc).startswith("line "):
            raise
        raise type(exc)("%s: %s" % (path, exc)) from None


def cmd_shear_from_lambda(args) -> int:
    graph = _named(args.graph, _load)
    assignment = _named(args.lambdas, _read_lambda_file)
    point = shear_from_lambda(graph, assignment)
    sys.stdout.write(emit_graph(graph, point))
    return 0


def cmd_flip(args) -> int:
    graph = _load(args.graph)
    flipped, new_point, record = flip_edge(graph, args.edge)
    text = emit_graph(flipped, new_point)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print("flipped %s (%s); slots %s" % (
            record.edge, record.kind,
            " ".join("%s=%s" % kv for kv in sorted(record.slots.items()))))
    else:
        sys.stdout.write(text)
    return 0


def cmd_verify_flip_identities(args) -> int:
    results = verify_flip_matrix_identities()
    ok = True
    for label, passed in results:
        print("%-18s %s" % (label, "ok" if passed else "FAIL"))
        ok = ok and passed
    return 0 if ok else 1


def cmd_forms(args) -> int:
    graph = _load(args.graph)
    sections = [("poisson bracket table", poisson_matrix(graph)), ("window form", window_form_matrix(graph)),
                ("vertex-sum form", penner_form_matrix(graph))]
    basis = center_vectors(graph)
    if args.format == "tsv":
        rows = [(title, u, v, x) for title, mat in sections
                for u, row in zip(mat.names, mat.data) for v, x in zip(mat.names, row) if x]
        rows += [("center", "hole %d" % face, name, c) for face, vec in basis.holes
                 for name, c in zip(basis.names, vec) if c]
        _print_rows("tsv", "matrix row col value", "", rows)
        return 0
    for title, table in sections + [("centers", basis)]:
        print("# %s" % title)
        for line in table.lines():
            print(line)
    return 0


def cmd_verify_inverse(args) -> int:
    graph = _load(args.graph)
    window = window_form_matrix(graph)
    table = poisson_matrix(graph)
    block = window.nonzero_row_names()
    if not block:
        return _die("window form is identically zero; nothing to invert")
    c, residual = verify_inverse(window.restrict(block), table.restrict(block), leaf=args.leaf)
    print("block %s" % " ".join(block))
    if c is None:
        print("product is not a scalar matrix")
        return 1
    print("c = %s" % c)
    print("residual = %s" % residual)
    return 0 if residual == 0 else 1


def cmd_fuzz(args) -> int:
    if args.trials < 1:
        return _die("--trials must be at least 1, got %d" % args.trials)
    if args.suite is None:
        names = list(SUITES)
    else:
        names = [s.strip() for s in args.suite.split(",") if s.strip()]
        if not names:
            return _die("--suite %r names no suite; choose from %s" % (args.suite, ", ".join(SUITES)))
    for name in names:
        if name not in SUITES:
            return _die("unknown suite %r; choose from %s" % (name, ", ".join(SUITES)))
    ok = True
    tsv = args.format == "tsv"
    print("suite\tstatus\ttrials\tfailures\tinfo" if tsv else "fuzz seed=%d trials=%d" % (args.seed, args.trials))
    for name in names:
        r = run_suite(name, args.trials, args.seed)
        info = " ".join("%s=%s" % kv for kv in sorted(r.info.items()))
        print("%s\t%s\t%d\t%d\t%s" % (r.name, "pass" if r.ok else "FAIL", r.trials, len(r.failures), info)
              if tsv else r.summary())
        ok = ok and r.ok
    return 0 if ok else 1


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """Built on first use, not at import, and reused: parse_args leaves
    the parser as it was."""
    parser = argparse.ArgumentParser(
        prog="spineforms",
        description="Exact fat-graph spines: windows, lambda-lengths, flips, Poisson and symplectic forms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(fn=fn)
        return p

    p = add("validate", cmd_validate, "check a graph file against the structural rules")
    p.add_argument("graph")

    p = add("windows", cmd_windows, "print each hole's boundary windows")
    p.add_argument("graph")

    p = add("dual-arcs", cmd_dual_arcs, "print the dual arc of each coordinate edge")
    p.add_argument("graph")
    p.add_argument("edges", nargs="*", metavar="edge")

    p = add("lambda", cmd_lambda, "lambda-length of a comma-separated arc, e.g. p2,e,p3")
    p.add_argument("graph")
    p.add_argument("path")

    p = add("geodesic", cmd_geodesic, "geodesic function of a closed path, e.g. pi,a1,w1+,a1,pi")
    p.add_argument("graph")
    p.add_argument("path")

    p = add("lambda-from-shear", cmd_lambda_from_shear, "lambda-lengths of all dual arcs at the file's values")
    p.add_argument("graph")

    p = add("shear-from-lambda", cmd_shear_from_lambda, "rebuild the graph file's values from a lambda listing")
    p.add_argument("graph")
    p.add_argument("lambdas", help="file of 'lambda <edge> = <value>' and 'omega <loop> = <value>' lines")

    p = add("flip", cmd_flip, "flip an edge and write the transformed graph file")
    p.add_argument("graph")
    p.add_argument("edge")
    p.add_argument("-o", "--output", help="write here instead of stdout")

    add("verify-flip-identities", cmd_verify_flip_identities, "check the flip matrix identities symbolically")

    p = add("forms", cmd_forms, "dump the bracket table, both 2-forms, and the centers")
    p.add_argument("graph")

    p = add("verify-inverse", cmd_verify_inverse, "check the window form inverts the bracket on its nonzero block")
    p.add_argument("graph")
    p.add_argument("--leaf", action="store_true", help="project onto the symplectic leaf first")

    p = add("fuzz", cmd_fuzz, "run randomized property suites")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--suite", help="comma-separated suite names (default: all)")

    for name in ("windows", "dual-arcs", "lambda-from-shear", "forms", "fuzz"):
        sub.choices[name].add_argument("--format", choices=("text", "tsv"), default="text")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (GraphError, ValueError) as exc:
        return _die(str(exc))
    except OSError as exc:
        return _die(exc.strerror if exc.filename is None else "%s: %s" % (exc.filename, exc.strerror))


if __name__ == "__main__":
    sys.exit(main())
