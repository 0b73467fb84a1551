"""Mutated graph files and lambda files: the parser and the
shear-from-lambda command fail cleanly or succeed, whatever the text.

Fixture texts and their lambda-from-shear listings are mutated by
dropping, duplicating or swapping tokens, dropping or duplicating
lines, and replacing values, one to three edits per sample, from a
seeded random.Random.
"""

import contextlib
import io
import math
import os
import random

from spineforms import cli, mutate_lambda, parse_graph, validate
from spineforms.algebra import SqrtRational
from spineforms.fuzz import _flippable
from spineforms.ribbon import GraphError, emit_graph

from conftest import ALL_FIXTURES, FIXTURES, fixture_text, load_fixture

VALUES = (
    "0", "1", "-1", "2", "3/4", "-2/3", "1/0", "0/5", "0.5", "-0.0", "1e400", "-1e400", "1e-400",
    "nan", "inf", "-inf", "sqrt(2)", "3*sqrt(5)", "-sqrt(3)", "sqrt(0)", "sqrt(-2)", "x", "", "=",
    "9" * 400,
)


def mutate(rng, text):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(rng.randint(1, 3)):
        spots = [(i, j) for i, line in enumerate(lines) for j in range(len(line))]
        if not spots:
            break
        i, j = rng.choice(spots)
        op = rng.randrange(6)
        if op == 0:
            del lines[i][j]
        elif op == 1:
            lines[i].insert(j, lines[i][j])
        elif op == 2:
            k, m = rng.choice(spots)
            lines[i][j], lines[k][m] = lines[k][m], lines[i][j]
        elif op == 3:
            # the value after '=', or the whole token
            key, eq, _ = lines[i][j].partition("=")
            lines[i][j] = key + eq + rng.choice(VALUES) if eq else rng.choice(VALUES)
        elif op == 4:
            del lines[i]
        else:
            lines.insert(i, list(lines[i]))
    return "\n".join(" ".join(line) for line in lines) + "\n"


def test_mutated_graph_files_fail_cleanly_or_round_trip():
    """Each mutated text raises GraphError or parses; a parsed graph that
    validates comes back through emit_graph and parse_graph with the
    same canonical key."""
    rng = random.Random(20261019)
    outcomes = {"refused": 0, "invalid": 0, "round trip": 0}
    for name in ALL_FIXTURES:
        text = fixture_text(name)
        for _ in range(400):
            mutated = mutate(rng, text)
            try:
                graph = parse_graph(mutated)
            except GraphError:
                outcomes["refused"] += 1
                continue
            if not validate(graph).ok:
                outcomes["invalid"] += 1
                continue
            again = parse_graph(emit_graph(graph))
            assert again.canonical_key() == graph.canonical_key(), mutated
            outcomes["round trip"] += 1
    assert outcomes["refused"] and outcomes["invalid"] and outcomes["round trip"] > 50, outcomes


def test_mutated_lambda_files_exit_cleanly(tmp_path):
    """shear-from-lambda on each fixture with a mutated copy of its
    lambda-from-shear listing returns 0, 1 or 2 without raising and
    never prints nan or inf.  mutate_lambda reads each listing that
    parses as shear-from-lambda does: on every flippable edge it raises
    nothing but ValueError, never gives a value that is not positive
    and finite, and accepts every listing shear-from-lambda accepts."""
    rng = random.Random(20261019)
    codes = {0: 0, 1: 0, 2: 0}
    mutated_ok = 0
    path = str(tmp_path / "lambdas")
    for name in ALL_FIXTURES:
        graph = os.path.join(FIXTURES, name + ".graph")
        fixture = load_fixture(name)
        edges = _flippable(fixture)
        listing = io.StringIO()
        with contextlib.redirect_stdout(listing):
            assert cli.main(["lambda-from-shear", graph]) == 0
        for _ in range(200):
            mutated = mutate(rng, listing.getvalue())
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(mutated)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(["shear-from-lambda", graph, path])
            codes[code] += 1
            printed = out.getvalue().lower()
            assert "nan" not in printed and "inf" not in printed, mutated
            try:
                assignment = cli._read_lambda_file(path)
            except ValueError:
                continue
            for edge in edges:
                try:
                    value = mutate_lambda(fixture, assignment, edge)[edge]
                except ValueError:
                    assert code != 0, (mutated, edge)
                    continue
                mutated_ok += 1
                if isinstance(value, float):
                    assert 0.0 < value < math.inf, (mutated, edge, value)
                else:
                    assert (value.rat if isinstance(value, SqrtRational) else value) > 0, (mutated, edge, value)
    assert codes[0] > 10 and codes[2] > 500, codes
    assert mutated_ok > 50, mutated_ok
