"""Drives the command line in process and pins its printed output."""

import functools
import hashlib
import os
import random
import subprocess
import sys

import pytest

from spineforms import CoordinatePoint, cli, lambda_of_dual_arcs, mutate_lambda, parse_graph, validate
from spineforms.flips import flip_edge
from spineforms.fuzz import _flippable, random_exact_point, random_spine
from spineforms.ribbon import GraphError, emit_graph

from conftest import ALL_FIXTURES, FIXTURES, fixture_text


def fx(name):
    return os.path.join(FIXTURES, name + ".graph")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


VARIED_QUAD = """surface g=0 sh=1 so=0 n=4
vertex va ccw: p1_v e_a p4_v
vertex vb ccw: p2_v p3_v e_b
cusp c1 half: p1_c
cusp c2 half: p2_c
cusp c3 half: p3_c
cusp c4 half: p4_c
edge e inner e_a e_b Z=2
edge p1 pending p1_v p1_c pi=3
edge p2 pending p2_v p2_c pi=5/2
edge p3 pending p3_v p3_c pi=7
edge p4 pending p4_v p4_c pi=1/3
"""


def test_validate_clean_graph(capsys):
    code, out, _ = run(capsys, "validate", fx("sigma_0_5_1"))
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert all(" ok " in ln for ln in lines)
    assert lines[-1].startswith("header")


def test_validate_flags_header_mismatch(capsys, tmp_path):
    text = fixture_text("t3").replace("surface g=0", "surface g=1")
    target = tmp_path / "claim.graph"
    target.write_text(text)
    code, out, _ = run(capsys, "validate", str(target))
    assert code == 1
    assert "header             FAIL" in out
    assert "computed g=0" in out


def test_validate_missing_file(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.graph")
    assert code == 2
    assert err.startswith("error: ")


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_os_errors_name_a_file_only_when_they_have_one(capsys, monkeypatch):
    code, _, err = run(capsys, "validate", "no/such/file.graph")
    assert (code, err) == (2, "error: no/such/file.graph: No such file or directory\n")
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    code = cli.main(["validate", fx("t3")])
    assert (code, capsys.readouterr().err) == (2, "error: Broken pipe\n")


def test_validate_unpaired_half(capsys, tmp_path):
    target = tmp_path / "torn.graph"
    target.write_text(
        "surface g=0 sh=1 so=0 n=1\n"
        "vertex v ccw: p_v p_v2 x_a\n"
        "cusp c half: p_c\n"
        "edge p pending p_v p_c pi=1\n"
    )
    code, _, err = run(capsys, "validate", str(target))
    assert code == 2
    assert "belongs to no edge" in err


def test_windows_text_five_holes(capsys):
    code, out, _ = run(capsys, "windows", fx("sigma_0_5_1"))
    assert code == 0
    assert "window 0 of hole 0: c0 -> c0" in out
    assert "  tokens pi,a1,w1+,a1,b1,a2,w2+,a2,b2,a3,w3+,a3,b3,w4+,b3,b2,b1,pi" in out
    assert "  order  pi,a1,a1,b1,a2,a2,b2,a3,a3,b3,b3,b2,b1,pi" in out


def test_windows_tsv_t3(capsys):
    code, out, _ = run(capsys, "windows", fx("t3"), "--format", "tsv")
    assert code == 0
    assert out.splitlines() == [
        "window\thole\tstart\tend\ttokens\torder",
        "0\t0\tc2\tc3\tp2,p3\tp2,p3",
        "1\t0\tc3\tc1\tp3,p1\tp3,p1",
        "2\t0\tc1\tc2\tp1,p2\tp1,p2",
    ]


def test_dual_arcs_two_loops(capsys):
    code, out, _ = run(capsys, "dual-arcs", fx("sigma_0_3_1"))
    assert code == 0
    assert "dual a1: c0 -> c0" in out
    assert "  path   pi,a1,w1-,a1,pi" in out
    assert "  word   X[pi]*R*X[a1]*-Finv[w1]*X[a1]*L*X[pi]" in out
    assert "  lambda t_a1^2*t_pi^2" in out
    assert "  lambda t_a1^4*t_b1^2*t_pi^2" in out


def test_dual_arcs_edge_filter(capsys):
    code, out, _ = run(capsys, "dual-arcs", fx("sigma_0_3_1"), "b1")
    assert code == 0
    assert out.count("dual ") == 1
    assert out.startswith("dual b1:")


def test_lambda_command(capsys):
    code, out, _ = run(capsys, "lambda", fx("t3"), "p2,p3")
    assert code == 0
    assert out.splitlines() == ["formal t_p2*t_p3", "value  1"]


def test_geodesic_command(capsys):
    code, out, _ = run(capsys, "geodesic", fx("sigma_0_5_1"), "pi,a1,w1+,a1,pi")
    assert code == 0
    assert out.splitlines() == [
        "word   X[pi]*R*X[a1]*F[w1]*X[a1]*L*X[pi]",
        "formal w_w1",
        "trace  2",
        "value  2",
    ]


def test_geodesic_rejects_open_path(capsys):
    code, _, err = run(capsys, "geodesic", fx("t3"), "p2,p3")
    assert code == 2
    assert err.startswith("error: ")


def test_lambda_from_shear_exact_round_trip(capsys, tmp_path):
    source = tmp_path / "varied.graph"
    source.write_text(VARIED_QUAD)
    code, out, _ = run(capsys, "lambda-from-shear", str(source))
    assert code == 0
    assert out.splitlines() == [
        "lambda e = sqrt(42)",
        "lambda p1 = 1",
        "lambda p2 = sqrt(15)",
        "lambda p3 = 1/2*sqrt(70)",
        "lambda p4 = 1/3*sqrt(42)",
    ]
    lam = tmp_path / "varied.lam"
    lam.write_text(out)
    code, back, _ = run(capsys, "shear-from-lambda", str(source), str(lam))
    assert code == 0
    assert back == VARIED_QUAD


def test_lambda_from_shear_lists_loop_weights(capsys, tmp_path):
    text = fixture_text("sigma_0_3_1").replace("omega=2", "omega=3", 1)
    source = tmp_path / "loops.graph"
    source.write_text(text)
    code, out, _ = run(capsys, "lambda-from-shear", str(source))
    assert code == 0
    assert "omega w1 = 3" in out
    assert "omega w2 = 2" in out


@pytest.mark.parametrize(
    "field, line",
    [("pi=nan", 5), ("pi=inf", 5), ("pi=1e400", 5), ("pi=3/0", 5), ("omega=nan", 6), ("omega=1/0", 6),
     ("perimeter=5000", 6), ("perimeter=-3", 6)],
)
def test_non_finite_value_is_bad_input(capsys, tmp_path, field, line):
    old = "pi=1" if field.startswith("pi=") else "omega=2"
    source = tmp_path / "bad.graph"
    source.write_text(fixture_text("sigma_0_2_1").replace(old, field))
    code, out, err = run(capsys, "lambda-from-shear", str(source))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line %d: " % line)
    assert err.count("\n") == 1


_BIG_Q = "1" + "0" * 400
_OUT_OF_RANGE = "y[pi] = %s puts t = e^(y/2) out of the float range"


@pytest.mark.parametrize("graph, fields, argv, message", [
    ("sigma_0_2_1", {"pi=1": "pi=1e300"}, ("lambda", "pi,w+,pi"), _OUT_OF_RANGE % "1e+300"),
    ("sigma_0_2_1", {"pi=1": "pi=1e300"}, ("geodesic", "pi,w+,pi"), _OUT_OF_RANGE % "1e+300"),
    ("sigma_0_2_1", {"pi=1": "pi=1e300"}, ("lambda-from-shear",), "lambda pi = inf must be positive and finite"),
    ("sigma_0_2_1", {"pi=1": "pi=-1e300"}, ("lambda", "pi,w+,pi"), _OUT_OF_RANGE % "-1e+300"),
    ("sigma_0_2_1", {"pi=1": "pi=-1e300"}, ("geodesic", "pi,w+,pi"), _OUT_OF_RANGE % "-1e+300"),
    ("sigma_0_2_1", {"pi=1": "pi=-1e300"}, ("lambda-from-shear",), "lambda pi = 0.0 must be positive and finite"),
    ("sigma_0_2_1", {"pi=1": "pi=900.0"}, ("lambda", "pi,w+,pi"), "the matrix product is out of the float range"),
    ("sigma_0_2_1", {"pi=1": "pi=900.0"}, ("geodesic", "pi,w+,pi"), "the matrix product is out of the float range"),
    ("sigma_0_2_1", {"pi=1": "pi=900.0"}, ("lambda-from-shear",), "lambda pi = inf must be positive and finite"),
    ("t3", {"p1_c pi=1": "p1_c pi=0.5", "p2_c pi=1": "p2_c pi=" + _BIG_Q}, ("lambda-from-shear",),
     "q[p2] = %s is too large for a float" % _BIG_Q),
    ("t3", {"p1_c pi=1": "p1_c pi=0.5", "p2_c pi=1": "p2_c pi=1/" + _BIG_Q}, ("lambda-from-shear",),
     "q[p2] = 1/%s is too small for a float" % _BIG_Q),
], ids=["lambda-1e300", "geodesic-1e300", "from-shear-1e300", "lambda--1e300", "geodesic--1e300",
        "from-shear--1e300", "lambda-900", "geodesic-900", "from-shear-900", "t3-big-exact-q", "t3-tiny-exact-q"])
def test_value_outside_the_float_range_is_bad_input(capsys, tmp_path, graph, fields, argv, message):
    """A float graph whose values put a t, a matrix entry or a lambda
    outside the float range is refused, not printed as inf or 0 and not
    ended in a traceback."""
    text = fixture_text(graph)
    for old, new in fields.items():
        text = text.replace(old, new)
    source = tmp_path / "big.graph"
    source.write_text(text)
    assert run(capsys, argv[0], str(source), *argv[1:]) == (2, "", "error: %s\n" % message)


@pytest.mark.parametrize("old, new", [
    ("surface g=0", "surface g=\u00b2"),
    ("omega=2", "orbifold=\u00b2"),
    ("pi=1", "pi=" + "7" * (sys.get_int_max_str_digits() + 1)),
], ids=["surface-superscript", "orbifold-superscript", "pi-too-long"])
def test_number_int_refuses_is_bad_input(capsys, tmp_path, old, new):
    """A number that passes str.isdigit or \\d but that int() refuses
    exits 2 with one error line naming its line, not a traceback."""
    source = tmp_path / "bad.graph"
    source.write_text(fixture_text("sigma_0_2_1").replace(old, new), encoding="utf-8")
    code, out, err = run(capsys, "validate", str(source))
    assert code == 2
    assert out == ""
    assert err.startswith("error: line ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("old, new, message", [
    ("surface g=0", "surface g=²", "line 2: malformed surface field 'g=²'"),
    ("omega=2", "orbifold=²", "line 6: orbifold order must be an integer >= 2"),
    (None, "lambda pi = abc\n", "LAMBDAS: line 1: lambda pi = abc is not a number"),
], ids=["surface-superscript", "orbifold-superscript", "lambda-not-a-number"])
def test_refusals_need_no_digit_limit(capsys, tmp_path, monkeypatch, old, new, message):
    """Python before 3.10.7 has no sys.get_int_max_str_digits: without
    it, numbers that int() refuses are refused with the same messages."""
    graph, lambdas = tmp_path / "bad.graph", tmp_path / "bad.lam"
    text = fixture_text("sigma_0_2_1")
    graph.write_text(text.replace(old, new) if old else text, encoding="utf-8")
    lambdas.write_text(new, encoding="utf-8")
    argv = ["validate", str(graph)] if old else ["shear-from-lambda", str(graph), str(lambdas)]
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run(capsys, *argv) == (2, "", "error: %s\n" % message.replace("LAMBDAS", str(lambdas)))


@pytest.mark.parametrize("value", ["0", "-1", "-2/3", "-0.5"])
def test_non_positive_lambda_is_bad_input(capsys, tmp_path, value):
    lam = tmp_path / "bad.lam"
    lam.write_text("lambda e = %s\nlambda p1 = 1\nlambda p2 = 1\nlambda p3 = 1\nlambda p4 = 1\n" % value)
    code, out, err = run(capsys, "shear-from-lambda", fx("sigma_0_1_4"), str(lam))
    assert code == 2
    assert out == ""
    assert err.startswith("error: lambda e = %s must be positive" % value)
    assert err.count("\n") == 1


def test_negative_loop_weight_in_lambda_file_is_bad_input(capsys, tmp_path):
    lam = tmp_path / "bad.lam"
    lam.write_text("lambda pi = 1\nomega w = -7\n")
    code, out, err = run(capsys, "shear-from-lambda", fx("sigma_0_2_1"), str(lam))
    assert code == 2
    assert out == ""
    assert err == "error: loop weight omega[w] = -7 must be >= 0\n"


FIVE_HOLES_LAMBDAS = "".join("lambda %s = 1\n" % n for n in ("pi", "a1", "a2", "a3", "b1", "b2", "b3"))
LONG = "9" * (sys.get_int_max_str_digits() + 1)
TOO_LONG = "a number of %d digits is too long; at most %d are read" % (len(LONG), sys.get_int_max_str_digits())


@pytest.mark.parametrize(
    "graph, text, message",
    [
        ("sigma_0_2_1", "lambda pi = 3/0\nomega w = 2\n", "line 1: lambda pi = 3/0 is not a number"),
        ("sigma_0_2_1", "lambda pi = 1\nomega w = 0/0\n", "line 2: omega w = 0/0 is not a number"),
        ("sigma_0_2_1", "lambda pi = 2*sqrt(0)\nomega w = 2\n", "line 1: lambda pi = 2*sqrt(0) is not a number"),
        ("sigma_0_2_1", "lambda pi = 1/0*sqrt(2)\n", "line 1: lambda pi = 1/0*sqrt(2) is not a number"),
        ("sigma_0_2_1", "lambda pi = one\n", "line 1: lambda pi = one is not a number"),
        ("sigma_0_2_1", "lambda pi = 1\nomega w = sqrt(2)\n",
         "loop weight omega[w] = sqrt(2) must be rational when exact"),
        ("sigma_0_2_1", "lambda pi = 1\nlambda pi = 2\nomega w = 2\n", "line 2: lambda pi is given twice"),
        ("sigma_0_2_1", "lambda pi = 1\nomega w = 2\nomega w = 3\n", "line 3: omega w is given twice"),
        ("sigma_0_2_1", "lambda pi = 1\nlambda zz = 1\n", "lambda given for zz, which is not a coordinate edge"),
        ("sigma_0_2_1", "lambda pi = 1\nomega w = 2\nomega zz = 2\n",
         "loop weight given for zz, which is not a loop edge"),
        ("sigma_0_2_1", "lambda pi = 1\nlambda w = 1\n", "lambda given for w, which is not a coordinate edge"),
        ("sigma_0_2_1", "lambda pi = 1.5\nomega w = inf\n", "loop weight omega[w] = inf must be finite"),
        ("sigma_0_5_1", FIVE_HOLES_LAMBDAS + "omega w1 = 2\nomega w2 = 2\nomega w3 = 2\n",
         "missing loop weights for w4"),
        # int() reads at most sys.get_int_max_str_digits() digits; the
        # reason is given once, as parse_graph gives it
        pytest.param("sigma_0_2_1", "lambda pi = %s\n" % LONG, "line 1: " + TOO_LONG, id="numerator-too-long"),
        pytest.param("sigma_0_2_1", "lambda pi = 2/%s\n" % LONG, "line 1: " + TOO_LONG, id="denominator-too-long"),
        pytest.param("sigma_0_2_1", "lambda pi = %s/3*sqrt(2)\n" % LONG, "line 1: " + TOO_LONG,
                     id="sqrt-factor-too-long"),
        pytest.param("sigma_0_2_1", "lambda pi = 3*sqrt(%s)\n" % LONG, "line 1: " + TOO_LONG,
                     id="radicand-too-long"),
        pytest.param("sigma_0_2_1", "lambda pi = 1\nomega w = %s\n" % LONG, "line 2: " + TOO_LONG,
                     id="omega-too-long"),
        ("sigma_0_1_4", "lambda e = sqrt(2)\nlambda p1 = 1\nlambda p2 = 1\nlambda p3 = 1\nlambda p4 = 1\n",
         "lambda-lengths give no rational q for p1"),
    ],
)
def test_malformed_lambda_file_is_bad_input(capsys, tmp_path, graph, text, message):
    """An error on a line of the file names the file."""
    lam = tmp_path / "bad.lam"
    lam.write_text(text)
    code, out, err = run(capsys, "shear-from-lambda", fx(graph), str(lam))
    assert code == 2
    assert out == ""
    if message.startswith("line "):
        message = "%s: %s" % (lam, message)
    assert err == "error: %s\n" % message


def test_exact_lambda_file_on_a_graph_with_decimals_reads_float(capsys, tmp_path):
    """A lambda file with no omega lines takes the graph's weights; a
    decimal in the graph file makes them floats, and with them the whole
    reading, as a decimal in the lambda file does."""
    source = tmp_path / "decimal.graph"
    source.write_text(fixture_text("sigma_0_2_1").replace("omega=2\n", "omega=2.5\n"))
    printed = []
    for value in ("2", "2.0"):
        lam = tmp_path / "pi.lam"
        lam.write_text("lambda pi = %s\n" % value)
        code, out, err = run(capsys, "shear-from-lambda", str(source), str(lam))
        assert (code, err) == (0, "")
        printed.append(out)
    assert printed[0] == printed[1]
    assert "edge pi pending pi_v pi_c pi=0.6931471805599453\n" in printed[0]


def test_float_weight_in_exact_lambda_file_reads_float(capsys, tmp_path):
    """sha256 of the stdout of shear-from-lambda on sigma_0_2_1 with
    lambda pi = 2 and omega w = 2.5, from when the lambda file decided
    its own exactness."""
    lam = tmp_path / "w.lam"
    lam.write_text("lambda pi = 2\nomega w = 2.5\n")
    code, out, _ = run(capsys, "shear-from-lambda", fx("sigma_0_2_1"), str(lam))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3fb4cd0c60afe21db098d67203ad2ced772a0192567d5d9998e45843e034f003"
    )


@pytest.mark.parametrize("text, message", [
    ("lambda pi = %s\nomega w = 2.5\n" % ("9" * 400), "lambda pi = %s is too large for a float" % ("9" * 400)),
    ("lambda pi = 1.5\nomega w = %s\n" % ("9" * 400),
     "loop weight omega[w] = %s is too large for a float" % ("9" * 400)),
], ids=["lambda", "omega"])
def test_exact_value_too_large_for_a_float_reading_is_bad_input(capsys, tmp_path, text, message):
    lam = tmp_path / "big.lam"
    lam.write_text(text)
    assert run(capsys, "shear-from-lambda", fx("sigma_0_2_1"), str(lam)) == (2, "", "error: %s\n" % message)


def test_shear_from_lambda_names_the_file_of_a_bad_line(capsys, tmp_path):
    garbage = tmp_path / "garbage.txt"
    garbage.write_text("hello world\n")
    assert run(capsys, "shear-from-lambda", str(garbage), fx("t3")) == (
        2, "", "error: %s: line 1: unknown directive 'hello'\n" % garbage)
    assert run(capsys, "shear-from-lambda", fx("t3"), str(garbage)) == (
        2, "", "error: %s: line 1: expected 'lambda <edge> = <value>' or 'omega <loop> = <value>'\n" % garbage)


def test_float_lambda_file_takes_radical_loop_weights(capsys, tmp_path):
    lam = tmp_path / "float.lam"
    lam.write_text("lambda pi = 1.5\nomega w = sqrt(2)\n")
    code, out, _ = run(capsys, "shear-from-lambda", fx("sigma_0_2_1"), str(lam))
    assert code == 0
    assert "omega=%r" % 2**0.5 in out


@pytest.mark.parametrize(
    "field, message",
    [("omega=-7", "negative"), ("omega=-1/2", "negative"), ("omega=-0.5", "negative"),
     ("orbifold=100000000000000000000", "rounds to 2")],
)
def test_loop_weight_outside_domain_is_bad_input(capsys, tmp_path, field, message):
    source = tmp_path / "bad.graph"
    source.write_text(fixture_text("sigma_0_2_1").replace("omega=2", field))
    code, out, err = run(capsys, "geodesic", str(source), "pi,w+,pi")
    assert code == 2
    assert out == ""
    assert err.startswith("error: line 6: ")
    assert message in err
    assert err.count("\n") == 1


def test_lambda_from_shear_tsv(capsys):
    code, out, _ = run(capsys, "lambda-from-shear", fx("sigma_0_2_1"), "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "kind\tedge\tvalue"
    assert "lambda\tpi\t1" in lines
    assert "omega\tw\t2" in lines


def test_flip_prints_transformed_graph(capsys, tmp_path):
    source = tmp_path / "varied.graph"
    source.write_text(VARIED_QUAD)
    code, out, _ = run(capsys, "flip", str(source), "e")
    assert code == 0
    assert "edge e inner e_a e_b Z=1/2" in out
    assert "edge p1 pending p1_v p1_c pi=2" in out
    assert "edge p2 pending p2_v p2_c pi=15/2" in out
    assert "edge p3 pending p3_v p3_c pi=14/3" in out
    assert "edge p4 pending p4_v p4_c pi=1" in out
    assert validate(parse_graph(out)).ok


def test_flip_output_file_and_summary(capsys, tmp_path):
    source = tmp_path / "varied.graph"
    source.write_text(VARIED_QUAD)
    target = tmp_path / "flipped.graph"
    code, out, _ = run(capsys, "flip", str(source), "e", "-o", str(target))
    assert code == 0
    assert out == "flipped e (inner); slots A=p4 B=p1 C=p2 D=p3\n"
    assert validate(parse_graph(target.read_text())).ok


def test_flip_loop_stem_goes_through_loop_rule(capsys, tmp_path):
    target = tmp_path / "out.graph"
    code, out, _ = run(capsys, "flip", fx("sigma_0_3_1"), "a1", "-o", str(target))
    assert code == 0
    assert out == "flipped a1 (loop-stem); slots A=b1 B=pi loop=w1\n"


@pytest.mark.parametrize("value, message", [
    ("1e308", "y[p1] = inf must be finite"),
    ("-1e308", "y[p2] = -inf must be finite"),
])
def test_flip_that_overflows_a_float_is_bad_input(capsys, tmp_path, value, message):
    source = tmp_path / "huge.graph"
    source.write_text(fixture_text("sigma_0_1_4").replace("Z=1", "Z=" + value).replace("pi=1", "pi=" + value))
    assert run(capsys, "flip", str(source), "e") == (2, "", "error: %s\n" % message)


def test_flip_refuses_pending(capsys):
    code, _, err = run(capsys, "flip", fx("sigma_0_3_1"), "pi")
    assert code == 2
    assert err == "error: only inner edges flip; pi is pending\n"


def test_flip_of_a_loop_on_a_pending_stem_refuses_as_mutation_does(capsys, one_loop):
    code, out, err = run(capsys, "flip", fx("sigma_0_2_1"), "w")
    assert (code, out) == (2, "")
    with pytest.raises(GraphError) as exc:
        mutate_lambda(one_loop, lambda_of_dual_arcs(one_loop), "w")
    assert err == "error: %s\n" % exc.value == "error: only inner edges flip; pi is pending\n"



# sha256 of `flip GRAPH EDGE` stdout, of `flip GRAPH EDGE -o FILE` stdout
# and of FILE, for every edge of the fixtures that flips, taken when the
# exchange rule ran on Fraction operators and emit_graph rewrote Z= to pi=
FLIP_SHA256 = {
    ("sigma_0_3_1", "a1"): ("bc0b28083b5a905239d5dc368b5bccede7b3daa4af59c2f277a5c1e15c9c359a",
                            "720089e3e2f7d5000b8636a5fc262b152c7b1b7481a8f791bcf20f8dd9a63617"),
    ("sigma_0_3_1", "b1"): ("ff0ef254b653c780470db3e7d5b21812950808d8733307fa4a3d7de162f222b2",
                            "57a34d998c9d6e40c9be1e31415262183f2c53bef7873edfb8694784bdc55b87"),
    ("sigma_0_1_4", "e"): ("4cf6031efda00079f0a78833ba93f220d5f8c8c543c4e9a56ce2746aa4a8d77d",
                           "295695cc0310ab8cb082ed3dac75b4c6477740bf2eb91d7d8b7b8682082cd17b"),
    ("sigma_0_5_1", "a1"): ("967b714ed36cfb34463f12f150125dc7b1e25587e19eca23775793e5a2b3d69b",
                            "720089e3e2f7d5000b8636a5fc262b152c7b1b7481a8f791bcf20f8dd9a63617"),
    ("sigma_0_5_1", "a2"): ("0cb638bc4d2af1ebc8a8ef45aac6801c9b5308d6aa649db879198ceed1ac1ebf",
                            "35a8c53f2c33a84b57564ec0334b12e81be6b44fa30b627b433f6beb4d5848e5"),
    ("sigma_0_5_1", "a3"): ("3a442713eb03278a34f8fd26dfe363428cd9c43dd1a4e1bccc103eda1e36e88b",
                            "5e38eb9cc978e43133e4d08eee5565a91a9c1eba6fddef3b7d60cea2f181369b"),
    ("sigma_0_5_1", "b1"): ("a3dc303fec710eb1116ba01b19a1540b94dac05a9fb2336f393cf7c57987c571",
                            "4c98f10158a5e73ef7716c4561f090371c71969265cf300e129e857709984af4"),
    ("sigma_0_5_1", "b2"): ("ba5ee737808e5f5245715a664191e5df1f5f46a78ef9c60bab5fdf6809fd7535",
                            "78fa20ad0cce30531f6f801bd1bf6a2c385e681cf52eae07f6e2b38cf149fca5"),
    ("sigma_0_5_1", "b3"): ("ae44117e95636805e255b2a7afc039777287e1ed60a81fbafd4c57cdd6e7d656",
                            "e48e2c4ee2e9d7866e541d1e7075cbd8d6641d9121cf100055f403cfca2b9681"),
}


def test_flip_pins_cover_every_flippable_fixture_edge():
    flippable = {(name, e) for name in ALL_FIXTURES for e in _flippable(parse_graph(fixture_text(name)))}
    assert flippable == set(FLIP_SHA256)


@pytest.mark.parametrize("graph, edge", sorted(FLIP_SHA256))
def test_flip_output_is_pinned(capsys, tmp_path, graph, edge):
    printed, summary = FLIP_SHA256[graph, edge]
    code, out, _ = run(capsys, "flip", fx(graph), edge)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == printed
    target = tmp_path / "flipped.graph"
    code, out, _ = run(capsys, "flip", fx(graph), edge, "-o", str(target))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == summary
    assert hashlib.sha256(target.read_bytes()).hexdigest() == printed


def _walk(seed, exact):
    """A seeded 24-step flip walk through graph text, carrying the
    lambda-lengths by mutate_lambda; returns the text at its end and
    the carried lambdas."""
    rng = random.Random(seed)
    g = random_spine(rng)
    while not _flippable(g):
        g = random_spine(rng)
    if exact:
        p = random_exact_point(rng, g)
    else:
        y = {n: round(rng.uniform(-1.5, 1.5), 3) for n in g.coordinate_edges()}
        p = CoordinatePoint(False, y=y, omega={n: float(rng.randint(2, 6)) for n in g.loop_edges()})
    text = emit_graph(g, p)
    lam = lambda_of_dual_arcs(g, p)
    for _ in range(24):
        g = parse_graph(text)
        edge = rng.choice(_flippable(g))
        g1, p1, _ = flip_edge(g, edge)
        lam = mutate_lambda(g, lam, edge)
        text = emit_graph(g1, p1)
    return text, lam


# sha256 of `lambda-from-shear` stdout at the end of _walk(seed, exact)
# and of the lambdas carried along it, printed `name = value` a line,
# taken when _exchange and mutate_lambda ran on Fraction and
# SqrtRational operators
WALK_SHA256 = {
    (1, True): ("2812dbb1a87ff06d8d71b434b3b0dbb03c3d0019da4cb59b043db65793967c6a",
                "57b5fce87a866949b0eaf1783fdeaf9563b3e5e3f57a8045801e4b908885d62f"),
    (1, False): ("c63f8beeaba99618c92c47615839c1e2840e2d835ab8708722cfda0184a0827a",
                 "23ded4d6a00205ea9ab4fe51b1f75d0b78b6b8926d4901ca11c927befb9f742c"),
    (2, True): ("b0fa0f2648d8bb85a312005e7fc4a480dc8d8bc811d5a3fa0d39ec3dcc603318",
                "fdf5b33b4cf08a22f3b1876f82d75d573682c30ddfd1f8fb4b11e2d2280dca68"),
    (2, False): ("d6f15eaffec9cb0c7e82a48fab9a1577378c9a7d41c48d923c76f291aa1076b5",
                 "71d954b62cc63ababde4f96a77a42c8f94748f7d2529feda7815da77e02f7920"),
    (3, True): ("786a911d716c01e5ca5f70cc0c17e9985239c037b9c95585e4b9bd5526a5eb54",
                "f89a667389c9f6d16cf55decaa340d49a8dea658316d10b46ac9205f17d0b2e7"),
    (3, False): ("368226fd27aaae0d7479b4f1c71231d791621a591d8e55f2466f90f77f96dcc9",
                 "adb7f0bc322a67fce236922b0f260bda42ebe33e944f0d00a8c43ef924ea6fb7"),
}


@pytest.mark.parametrize("seed, exact", sorted(WALK_SHA256))
def test_flip_walk_output_is_pinned(capsys, tmp_path, seed, exact):
    printed, carried = WALK_SHA256[seed, exact]
    text, lam = _walk(seed, exact)
    path = tmp_path / "walk.graph"
    path.write_text(text, encoding="utf-8")
    code, out, _ = run(capsys, "lambda-from-shear", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == printed
    lines = "".join("%s = %s\n" % (n, cli._render(v)) for n, v in lam.items())
    assert hashlib.sha256(lines.encode()).hexdigest() == carried


@pytest.mark.parametrize("command", ["dual-arcs", "flip", "lambda", "geodesic"])
def test_unknown_edge_is_bad_input(capsys, command):
    code, out, err = run(capsys, command, fx("t3"), "zz")
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: ")


def test_verify_inverse_five_holes(capsys):
    code, out, _ = run(capsys, "verify-inverse", fx("sigma_0_5_1"))
    assert code == 0
    assert out.splitlines() == [
        "block a1 a2 a3 b1 b2 b3",
        "c = -4",
        "residual = 0",
    ]


def test_verify_inverse_leaf_mode(capsys):
    code, out, _ = run(capsys, "verify-inverse", fx("t3"), "--leaf")
    assert code == 0
    assert "block p1 p2 p3" in out
    assert "c = -3" in out
    assert "residual = 0" in out


def test_verify_inverse_multi_cusp_fails(capsys):
    code, out, _ = run(capsys, "verify-inverse", fx("sigma_0_1_4"))
    assert code == 1


@pytest.mark.parametrize("graph, leaf, code, out", [
    ("t3", False, 1, "block p1 p2 p3\nc = -2\nresidual = 1\n"),
    ("t3", True, 0, "block p1 p2 p3\nc = -3\nresidual = 0\n"),
    ("sigma_0_1_4", False, 1, "block e p1 p2 p3 p4\nc = -4\nresidual = 2\n"),
    ("sigma_0_1_4", True, 1, "block e p1 p2 p3 p4\nc = -4\nresidual = 1\n"),
    ("sigma_0_2_1", False, 2, ""),
    ("sigma_0_2_1", True, 2, ""),
    ("sigma_0_3_1", False, 0, "block a1 b1\nc = -4\nresidual = 0\n"),
    ("sigma_0_3_1", True, 0, "block a1 b1\nc = -4\nresidual = 0\n"),
    ("sigma_0_5_1", False, 0, "block a1 a2 a3 b1 b2 b3\nc = -4\nresidual = 0\n"),
    ("sigma_0_5_1", True, 0, "block a1 a2 a3 b1 b2 b3\nc = -4\nresidual = 0\n"),
])
def test_verify_inverse_output_is_pinned(capsys, graph, leaf, code, out):
    """The sparse check prints what the dense projection printed."""
    argv = ["verify-inverse", fx(graph)] + (["--leaf"] if leaf else [])
    assert run(capsys, *argv)[:2] == (code, out)


def test_fuzz_output_is_pinned(capsys):
    """sha256 of the stdout of `fuzz --seed 1 --trials 50` before the
    forms and the roundtrip suite left dense Fraction linear algebra."""
    code, out, _ = run(capsys, "fuzz", "--seed", "1", "--trials", "50")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e94f9ba96f6b6f20358f1391427bc09d77b34f3f584cc4dc5d768e00b2674aab")


@pytest.mark.parametrize(
    "seed, digest",
    [
        (2, "0ce3f1261c5b15f169fd3a38f44312c6ba09dc64b88dece415ae2e87b346487e"),
        (3, "62d47f401a9bf6646f0f1292b60ca46fbbdcf8ce6f660d2dcb2a56da4759d41f"),
    ],
    ids=["seed2", "seed3"],
)
def test_fuzz_output_is_pinned_at_more_seeds(capsys, seed, digest):
    """sha256 of the stdout of `fuzz --seed S --trials 50`, taken before
    the word drawers and the one-spine-per-trial suites shared code."""
    code, out, _ = run(capsys, "fuzz", "--seed", str(seed), "--trials", "50")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_flip_identities(capsys):
    code, out, _ = run(capsys, "verify-flip-identities")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert all(ln.endswith("ok") for ln in lines)
    assert lines[0].startswith("quad-right-right")


def test_forms_sections(capsys):
    code, out, _ = run(capsys, "forms", fx("t3"))
    assert code == 0
    assert "# poisson bracket table" in out
    assert "# window form" in out
    assert "# vertex-sum form" in out
    assert "# centers" in out
    assert "hole 0  p1:2 p2:2 p3:2" in out
    assert " 1/4" in out


def test_forms_tsv(capsys):
    code, out, _ = run(capsys, "forms", fx("t3"), "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "matrix\trow\tcol\tvalue"
    assert "vertex-sum form\tp1\tp2\t1/4" in lines
    assert "center\thole 0\tp1\t2" in lines


FORMS_SHA256 = {
    ("t3", "text"): "96dd9a669e5711e9862fd1d9046b307a8f00f3020fe430f8ec16d88d1834149e",
    ("t3", "tsv"): "18775fde9e5209c821776e1e499cb5e94cd72f1cb106cb047986d2b5bd3a4abe",
    ("sigma_0_2_1", "text"): "647e53b68fdbf694d7b4f7ac14edea746dbe3ab18a4a57a3c24741b39d9348b7",
    ("sigma_0_2_1", "tsv"): "3a76f5be1c071dea027734f6eeaae09dbd4ab71dd2fac9d06f4a10c2fba6af15",
    ("sigma_0_3_1", "text"): "f95a380b96dc8d6bef403504952ab55a90f0a85079f5190bb9ab3139885400b5",
    ("sigma_0_3_1", "tsv"): "bd717ef72ed512f2fc4540384e235905459143d74ef6aad178b2f4b44ee15baa",
    ("sigma_0_1_4", "text"): "83cb2628aa394be936b56511219b2704030e3c7c043efe1df90ad8c274379a70",
    ("sigma_0_1_4", "tsv"): "efb0f90177a553b8747e0c0d46affda5bdf59d6be243d4706ade5dbc819e18af",
    ("sigma_0_5_1", "text"): "9a5f2496db259677f98a6f1c201991b13d6fa8b47b7490552373cc7453d888f5",
    ("sigma_0_5_1", "tsv"): "4736dee5b84c2b1da2183d4f5e4d835ce88b43d77e193e0bf223051ba6632767",
}


@pytest.mark.parametrize("name,fmt", sorted(FORMS_SHA256))
def test_forms_output_is_pinned(capsys, name, fmt):
    """sha256 of `forms` stdout from when every matrix entry was a
    Fraction; P and W now hold ints and print the same bytes."""
    code, out, _ = run(capsys, "forms", fx(name), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FORMS_SHA256[name, fmt]


# sha256 of `windows` and `dual-arcs` stdout, taken when both were walked
# turn by turn rather than cut from the face orbits
BOUNDARY_SHA256 = {
    ("windows", "sigma_0_1_4", "text"): "c80eb0f8481089214791056fcb155bc3dcc6ba21066fe7a2888ca034b2242013",
    ("windows", "sigma_0_1_4", "tsv"): "d53b39f1d0207a0189297aa4768c7f49d89b3ea6d6e9f518e4644351ded6bf68",
    ("windows", "sigma_0_2_1", "text"): "45ce01f85b0ff8cff7f6138baf14d471a1bd93c57103af04867aedb49c1abc9a",
    ("windows", "sigma_0_2_1", "tsv"): "b52fffd05433587385d28722d40e9a47ab194576914ba4a1f75a077980a68fc3",
    ("windows", "sigma_0_3_1", "text"): "a71c4a53a1a55b8d597ec12df3fd15791f67e054be855a6c6a4f2afe6869e570",
    ("windows", "sigma_0_3_1", "tsv"): "75952fb006ab466e32f29fd78c6820def3f95c19ea108a2fd88fe6b99871d9dd",
    ("windows", "sigma_0_5_1", "text"): "f4f705a90f79c10d5b9437064386d2786e64c781093479c9e7108d31ef2fd9f0",
    ("windows", "sigma_0_5_1", "tsv"): "2703cdf8f7ca33ff83d577d13f3d62d21e9a0c0251da7f18f1dbd702de6575a4",
    ("windows", "t3", "text"): "25ae6a8de1c97fb19046fa92869940be73c7cace3aa8ba47fb80f6160ff3dab0",
    ("windows", "t3", "tsv"): "ede51a2a77c459271bac750c23571b16122d00e7b5eaf6fe67dfec1c32b8a618",
    ("dual-arcs", "sigma_0_1_4", "text"): "82822da07cb8d4d1e8dee6efc3a384574387c3156cd5ad02bbdb7f5400661c02",
    ("dual-arcs", "sigma_0_1_4", "tsv"): "c5fb3c87e530345246c6a19869a02e0cbd799fb025a488e588744c09a210c6cd",
    ("dual-arcs", "sigma_0_2_1", "text"): "29c3d22ce34c69772b73bcec9ac36954b901f6f3b4783859af46faa6d1b20a22",
    ("dual-arcs", "sigma_0_2_1", "tsv"): "73ccff79df747a914ecb49a08579fd98f10e147fb1cf196878fbdaa85423a909",
    ("dual-arcs", "sigma_0_3_1", "text"): "488b08a4e2ff6e0ec3bc4c81fb3afa249e9826a751645cc035f0e46474337d1a",
    ("dual-arcs", "sigma_0_3_1", "tsv"): "fa77be689b3bc23cdf43468f884c85bfc3079e766d8807472923a405c11f314f",
    ("dual-arcs", "sigma_0_5_1", "text"): "4f520bb461f3d336c977c755db50074a48fc9edd52a7cd6ca85ebf0509f4fe04",
    ("dual-arcs", "sigma_0_5_1", "tsv"): "b8187c0227571fd86463cedef48fcb74d2c7d4b32c4cc2c5a1780a030bde51ab",
    ("dual-arcs", "t3", "text"): "669e6f7e012c3b55de548ab48e950926d1689a868602e88d310920c10eb7cef8",
    ("dual-arcs", "t3", "tsv"): "d720340c40f57ff38ff3c481cb8bf0667aad3b9959c208a5c06ea7cfc75b2f38",
}


@pytest.mark.parametrize("command,name,fmt", sorted(BOUNDARY_SHA256))
def test_windows_and_dual_arcs_output_is_pinned(capsys, command, name, fmt):
    code, out, _ = run(capsys, command, fx(name), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == BOUNDARY_SHA256[command, name, fmt]


@functools.lru_cache(maxsize=None)
def _drawn_spines():
    """Five spines drawn off one seeded stream, each written at an exact
    point of its own: every fixture is a genus-0 graph with one cusped
    hole, these are not."""
    rng = random.Random(20261021)
    texts = []
    for _ in range(5):
        graph = random_spine(rng)
        texts.append(emit_graph(graph, random_exact_point(rng, graph)))
    return tuple(texts)


def test_drawn_spines_reach_beyond_the_fixtures():
    assert [text.splitlines()[0] for text in _drawn_spines()] == [
        "surface g=0 sh=1 so=0 n=3", "surface g=1 sh=1 so=1 n=3", "surface g=2 sh=1 so=0 n=4",
        "surface g=0 sh=1 so=0 n=4", "surface g=0 sh=3 so=2 n=3"]


# sha256 of the listings' stdout on _drawn_spines(), taken while each
# listing still built its fields once per format
DRAWN_SHA256 = {
    ("windows", 0, "text"): "b0cfd41765a7f78a54808973cd9b3463c493bcb739742416072c13606c4f2749",
    ("windows", 0, "tsv"): "bf95d6d67d34d347ae0b6c7b12296538669bfab89e9cf28057cfb25724a15710",
    ("dual-arcs", 0, "text"): "669e6f7e012c3b55de548ab48e950926d1689a868602e88d310920c10eb7cef8",
    ("dual-arcs", 0, "tsv"): "d720340c40f57ff38ff3c481cb8bf0667aad3b9959c208a5c06ea7cfc75b2f38",
    ("lambda-from-shear", 0, "text"): "6351cf037eec287f811e108100bd96acce894af190acede89a14bc9d73ae34cf",
    ("lambda-from-shear", 0, "tsv"): "53a95ebb3c2516eef941fb321498a93ee24cb46e19c1e19124808448cc734c73",
    ("forms", 0, "text"): "96dd9a669e5711e9862fd1d9046b307a8f00f3020fe430f8ec16d88d1834149e",
    ("forms", 0, "tsv"): "18775fde9e5209c821776e1e499cb5e94cd72f1cb106cb047986d2b5bd3a4abe",
    ("windows", 1, "text"): "01c79b41bc5727cb41ee752d5c896183857c83a8ecc35373e65aa25d9a266e92",
    ("windows", 1, "tsv"): "b1202e444a6d583a110f762dadae7831575cdcb61cda26d570bec0b6d14b5f3b",
    ("dual-arcs", 1, "text"): "114e066bccedfad833fa99820b5db81b72814c16f9bd07c88c3570e6267504c3",
    ("dual-arcs", 1, "tsv"): "012a11b448203ca4a8ce0bf92b97ce5643d44946c55f9605bb04024eabaa2499",
    ("lambda-from-shear", 1, "text"): "1da8522fc7a30062bdb1fdbecb7f10832bdbd80d06baf46df986fd1293b6e778",
    ("lambda-from-shear", 1, "tsv"): "61aafea301f53b05aea2fd9f5641f990cd8011fb3f650b8992cb14c98555a338",
    ("forms", 1, "text"): "5b1dc2e2e965dab60287681848010309257662e20f67298bf9697910d0d10283",
    ("forms", 1, "tsv"): "4ab1607caf5bb9d87777a4247d3781e87101146c1b61eb59b849c956ab21745b",
    ("windows", 2, "text"): "125fc7bd8b451d031628ec344b6874d1b950f0e90367b77263090adbbfe1e21c",
    ("windows", 2, "tsv"): "c4159c2310a8f6a37c2d8cf6d815c2fe59f1ec918a0ba09ae9b068268b987c1a",
    ("dual-arcs", 2, "text"): "346d1cb7140022b5d4ea5b9b1fa73029055113efed5fce5b078cdbf9e12b5c86",
    ("dual-arcs", 2, "tsv"): "c65a33ce019eb41d7a4fbf47666c3cef96cec8af14ed609553b5e40d0d6254af",
    ("lambda-from-shear", 2, "text"): "8e43ce0fd221deba6b5f5775ba5b48d158d6764d8274ed23799fd9313f0bec9e",
    ("lambda-from-shear", 2, "tsv"): "34e180f6818b6181f612765c328a9cbafeb4658235a185ebde4dae961665df28",
    ("forms", 2, "text"): "9d10f9503160e82885dc939afa3c8ed47ec22ec44a74663ec619968e87af14c4",
    ("forms", 2, "tsv"): "99b4fb0723499f596f0adb835e816437632f0abc58d0128581de008ae1914a2b",
    ("windows", 3, "text"): "ddef34132ac937228178f9853f3fa53ab0731652f2ba55e2d63c6317efcfa7a0",
    ("windows", 3, "tsv"): "cc1d9c19d4aaba07cf62ab8ed4075af09205a361cfe51b097170ec0373b586c6",
    ("dual-arcs", 3, "text"): "30f1b589e0134ed54c900873dd2f6fd85ae945cccaf8dac4345796f6f6e7b6d6",
    ("dual-arcs", 3, "tsv"): "c2bb84e0022e36d25db302ab36178833d02ab5729ad8630385357ada2b89a657",
    ("lambda-from-shear", 3, "text"): "a48354cd433743db79467a16b83453c87bfb66022b281e22e4b050b66ffa40ed",
    ("lambda-from-shear", 3, "tsv"): "74682d906eacd339157c0c418046edf6558b6d1ec4f4d428d95d435bf0415069",
    ("forms", 3, "text"): "73fa0bf4959a65c35f282005ace3f40de8e710197887abe753eadc6ef39d5f94",
    ("forms", 3, "tsv"): "0d42714c5e71e49392a353a929bd97cd364e7cb38647e02c49b2c78961e455db",
    ("windows", 4, "text"): "bf49660461eff2d4718371b1efe6d67c8e37af9373558d1fb7cdcc2490eb8f9f",
    ("windows", 4, "tsv"): "acca49d946016e3b875907814d19d95a5a5ba78408985ef95e9ed2b10cf20840",
    ("dual-arcs", 4, "text"): "1f67175253b10f5390b382574ca7f3abf009d3c576c8423d3f05cdc67842e650",
    ("dual-arcs", 4, "tsv"): "c34a922a2a544e79c45df4db64307b682969e47bef04cc2f37ace702987f413b",
    ("lambda-from-shear", 4, "text"): "a8e1c002bfe75a6e89b27c62a701f13cf172dd1ad3bb90bc44ea22dcd4c3ef1d",
    ("lambda-from-shear", 4, "tsv"): "d54829491ab54a1694130ba2c799200b939954959d0777ec1993ae386dfd51fa",
    ("forms", 4, "text"): "3a15be76732cdcbe46847f2f62dd2c493c9b599c432873b557a23218137f2846",
    ("forms", 4, "tsv"): "ab5a44b77975eeeeefc2f1e84c23dfd4c7de7a411268cb64228b6497876f4a89",
}


@pytest.mark.parametrize("command,index,fmt", sorted(DRAWN_SHA256))
def test_listings_on_drawn_spines_are_pinned(capsys, tmp_path, command, index, fmt):
    source = tmp_path / "drawn.graph"
    source.write_text(_drawn_spines()[index])
    code, out, _ = run(capsys, command, str(source), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == DRAWN_SHA256[command, index, fmt]


@pytest.mark.parametrize("argv, header", [
    (["windows", "T3"], "window\thole\tstart\tend\ttokens\torder"),
    (["dual-arcs", "T3"], "edge\tstart\tend\tpath\tword\tlambda"),
    (["lambda-from-shear", "T3"], "kind\tedge\tvalue"),
    (["forms", "T3"], "matrix\trow\tcol\tvalue"),
    (["fuzz", "--trials", "1", "--suite", "centers"], "suite\tstatus\ttrials\tfailures\tinfo"),
    (["validate", "T3"], None),
    (["lambda", "T3", "p2,p3"], None),
    (["geodesic", "F5", "pi,a1,w1+,a1,pi"], None),
    (["flip", "Q", "e"], None),
    (["shear-from-lambda", "T3", "LAMBDAS"], None),
    (["verify-inverse", "F5"], None),
    (["verify-flip-identities"], None),
], ids=lambda v: v[0] if isinstance(v, list) else "takes" if v else "refuses")
def test_format_belongs_to_the_listings_only(capsys, tmp_path, argv, header):
    """The five listings print their tsv header under --format tsv; every
    other subcommand, run as it runs without the option, refuses it as
    a usage error."""
    lambdas = tmp_path / "t3.lam"
    lambdas.write_text(run(capsys, "lambda-from-shear", fx("t3"))[1])
    places = {"T3": fx("t3"), "F5": fx("sigma_0_5_1"), "Q": fx("sigma_0_1_4"), "LAMBDAS": str(lambdas)}
    argv = [places.get(a, a) for a in argv]
    if header is not None:
        code, out, err = run(capsys, *argv, "--format", "tsv")
        assert (code, out.split("\n", 1)[0], err) == (0, header, "")
        return
    assert run(capsys, *argv)[0] == 0
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--format", "tsv"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert captured.err.splitlines()[-1].endswith("error: unrecognized arguments: --format tsv")


def test_fuzz_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "fuzz", "--seed", "5", "--trials", "4")
    code2, out2, _ = run(capsys, "fuzz", "--seed", "5", "--trials", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    assert out1.startswith("fuzz seed=5 trials=4\n")
    assert out1.count("pass") == 8


def test_fuzz_suite_filter(capsys):
    code, out, _ = run(capsys, "fuzz", "--seed", "2", "--trials", "4",
                       "--suite", "centers,involution")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[1].startswith("centers")
    assert lines[2].startswith("involution")


def test_fuzz_unknown_suite(capsys):
    code, _, err = run(capsys, "fuzz", "--suite", "bogus")
    assert code == 2
    assert "unknown suite 'bogus'" in err


@pytest.mark.parametrize("argv", [["--suite", ","], ["--suite", ", ", "--format", "tsv"], ["--suite", ""]])
def test_fuzz_refuses_a_suite_list_naming_no_suite(capsys, argv):
    code, out, err = run(capsys, "fuzz", "--trials", "1", *argv)
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: --suite %r names no suite; choose from monomiality, " % argv[1])


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_fuzz_refuses_trials_below_one(capsys, trials):
    code, out, err = run(capsys, "fuzz", "--trials", trials)
    assert code == 2
    assert out == ""
    assert err == "error: --trials must be at least 1, got %s\n" % trials


def test_unknown_command_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2


def test_fuzz_matches_readme_block(capsys):
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    block = readme.split("$ spineforms fuzz --seed 1 --trials 20\n", 1)[1].split("```", 1)[0]
    code, out, _ = run(capsys, "fuzz", "--seed", "1", "--trials", "20")
    assert code == 0
    assert out == block


@pytest.mark.parametrize("graph, path, message", [
    ("t3", "p1,zz", "cannot walk token 'zz' after p1: the walk continues with p2 or p3"),
    ("t3", "p1,p2,p3", "the path ends at cusp c2 after p2; token 'p3' is left over"),
    ("sigma_0_2_1", "pi,w+", "cannot walk token 'w+' after pi: the walk continues with w+,pi or w-,pi"),
])
def test_unwalkable_path_names_its_token(capsys, graph, path, message):
    code, out, err = run(capsys, "lambda", fx(graph), path)
    assert (code, out, err) == (2, "", "error: %s\n" % message)


def test_unwalkable_path_matches_readme_block(capsys):
    readme = open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8").read()
    block = readme.split("$ spineforms lambda fixtures/t3.graph p1,zz\n", 1)[1].split("```", 1)[0]
    code, out, err = run(capsys, "lambda", fx("t3"), "p1,zz")
    assert (code, out, err) == (2, "", block)


def _fresh(*argv):
    """The command run in a fresh interpreter: exit code, stdout, stderr."""
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    proc = subprocess.run([sys.executable, "-m", "spineforms", *argv], env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_package_runs_as_a_module():
    code, out, err = _fresh("validate", fx("t3"))
    assert code == 0, err
    assert out.splitlines()[-1].startswith("header")


def test_reused_parser_leaks_nothing_between_subcommands(capsys, tmp_path):
    """One process runs a usage error, validate, forms --format tsv and
    flip -o, each followed by the next with the option left at its
    default; each prints what it prints in a fresh process."""
    assert cli._build_parser() is cli._build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["flip", fx("t3")])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == _fresh("flip", fx("t3"))
    target, fresh_target = tmp_path / "in.graph", tmp_path / "fresh.graph"
    for argv, fresh_argv in (
        (["validate", fx("sigma_0_5_1")],) * 2,
        (["forms", fx("t3"), "--format", "tsv"],) * 2,
        (["forms", fx("t3")],) * 2,
        (["flip", fx("sigma_0_1_4"), "e", "-o", str(target)],
         ["flip", fx("sigma_0_1_4"), "e", "-o", str(fresh_target)]),
        (["flip", fx("sigma_0_1_4"), "e"],) * 2,
    ):
        assert run(capsys, *argv) == _fresh(*fresh_argv), argv
    assert target.read_text() == fresh_target.read_text()


def _disconnected_text():
    """Two copies of t3 with the second one's ids renamed."""
    body = "".join(ln + "\n" for ln in fixture_text("t3").splitlines() if not ln.startswith(("#", "surface")))
    copy = body.replace("vertex v ", "vertex u ")
    for i in "123":
        copy = copy.replace("p" + i, "q" + i).replace("c" + i, "d" + i)
    return body + copy


@pytest.mark.parametrize("text", ["", _disconnected_text()], ids=["empty", "disconnected"])
@pytest.mark.parametrize("argv", [
    ["windows"], ["dual-arcs"], ["lambda", "p1,p2"], ["geodesic", "p1,p2,p1"], ["lambda-from-shear"],
    ["shear-from-lambda", "LAMBDAS"], ["flip", "p1"], ["forms"], ["forms", "--format", "tsv"], ["verify-inverse"],
])
def test_computing_subcommands_refuse_non_spines(capsys, tmp_path, text, argv):
    """Every subcommand but validate exits 2 with one stderr line naming
    the first check of validate that the graph fails."""
    target = tmp_path / "bad.graph"
    target.write_text(text)
    lambdas = tmp_path / "lambdas.txt"
    lambdas.write_text("lambda p1 = 1\n")
    argv = [argv[0], str(target)] + [str(lambdas) if a == "LAMBDAS" else a for a in argv[1:]]
    assert run(capsys, *argv) == (2, "", "error: not a spine: check connected failed\n")
    code, out, _ = run(capsys, "validate", str(target))
    assert code == 1
    assert [ln.split()[0] for ln in out.splitlines() if " FAIL" in ln][0] == "connected"


def test_non_spine_refusal_names_the_detail(capsys, tmp_path):
    target = tmp_path / "claim.graph"
    target.write_text(fixture_text("t3").replace("surface g=0", "surface g=1"))
    code, out, err = run(capsys, "windows", str(target))
    assert (code, out) == (2, "")
    assert err == ("error: not a spine: check header failed "
                   "(declared g=1 sh=1 so=0 n=3, computed g=0 sh=1 so=0 n=3)\n")


def test_one_token_path_is_refused(capsys):
    """A lone pending edge ends at a vertex, not at a cusp."""
    for command in ("lambda", "geodesic"):
        assert run(capsys, command, fx("t3"), "p1") == (
            2, "", "error: path must end by entering a cusp; its last step p1 does not\n")


def test_undecodable_file_is_named(capsys, tmp_path):
    target = tmp_path / "bin.graph"
    target.write_bytes(b"#\xff\xfe\x00")
    message = "error: %s: not UTF-8 text (byte 0xff at offset 1)\n" % target
    assert run(capsys, "validate", str(target)) == (2, "", message)
    assert run(capsys, "shear-from-lambda", fx("t3"), str(target)) == (2, "", message)


def test_any_newline_convention_reads_the_same(capsys, tmp_path):
    """Graph and lambda files read with universal newlines: CRLF and CR
    files give the output of the LF file."""
    _, lambdas, _ = run(capsys, "lambda-from-shear", fx("sigma_0_3_1"))
    lf = tmp_path / "lf.lam"
    lf.write_text(lambdas)
    want = [run(capsys, "windows", fx("sigma_0_3_1")), run(capsys, "validate", fx("sigma_0_3_1")),
            run(capsys, "shear-from-lambda", fx("sigma_0_3_1"), str(lf))]
    assert want[2][0] == 0
    for newline in ("\r\n", "\r"):
        graph, lam = tmp_path / "g.graph", tmp_path / "g.lam"
        graph.write_bytes(fixture_text("sigma_0_3_1").replace("\n", newline).encode())
        lam.write_bytes(lambdas.replace("\n", newline).encode())
        assert [run(capsys, "windows", str(graph)), run(capsys, "validate", str(graph)),
                run(capsys, "shear-from-lambda", str(graph), str(lam))] == want


_GARBAGE = {
    "text": b"hello world\nthis is not a graph = 3\n",
    "binary": b"\x00\xff\xfe\x01binary\x80\n",
    "nul": b"lambda x = \x00\n",
    "missing": None,
}


@pytest.mark.parametrize("kind", sorted(_GARBAGE))
@pytest.mark.parametrize("argv", [
    ["validate", "BAD"], ["windows", "BAD"], ["windows", "BAD", "--format", "tsv"], ["dual-arcs", "BAD"],
    ["lambda", "BAD", "p1,p2"], ["geodesic", "BAD", "p1,p2,p1"], ["lambda-from-shear", "BAD"],
    ["shear-from-lambda", "BAD", "T3"], ["shear-from-lambda", "T3", "BAD"], ["flip", "BAD", "e"],
    ["forms", "BAD"], ["forms", "BAD", "--format", "tsv"], ["verify-inverse", "BAD"],
    ["verify-inverse", "BAD", "--leaf"],
])
def test_garbage_input_exits_2_with_one_line(capsys, tmp_path, kind, argv):
    """Every subcommand that reads a file, given garbage text, a binary
    file or a missing path: exit 2, no stdout, one stderr line."""
    target = tmp_path / "bad.graph"
    if _GARBAGE[kind] is not None:
        target.write_bytes(_GARBAGE[kind])
    argv = [str(target) if a == "BAD" else fx("t3") if a == "T3" else a for a in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, ""), err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err


@pytest.mark.parametrize("graph, path", [
    ("t3", ""), ("t3", ","), ("t3", "p1"), ("t3", "p1,p1"), ("t3", "p1,zz"), ("t3", "p1+,p2"), ("t3", "p1,p2,p3"),
    ("sigma_0_1_4", "p1,e"), ("sigma_0_1_4", "e,p3"), ("sigma_0_1_4", "p1,p3"),
    ("sigma_0_2_1", "pi"), ("sigma_0_2_1", "pi,w,pi"), ("sigma_0_2_1", "pi,w+"), ("sigma_0_2_1", "w+,pi"),
    ("sigma_0_2_1", "pi,w+,w-"), ("sigma_0_2_1", "pi,w+,pi,pi"),
])
@pytest.mark.parametrize("command", ["lambda", "geodesic"])
def test_bad_path_tokens_exit_2_with_one_line(capsys, command, graph, path):
    code, out, err = run(capsys, command, fx(graph), path)
    assert (code, out) == (2, ""), err
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and err.endswith("\n"), err


@pytest.mark.parametrize("old, new, message", [
    ("surface g=0", "surface g=0 g=5", "line 2: duplicate surface field g"),
    ("vertex v ", "surface g=0 sh=1 so=0 n=3\nvertex v ", "line 3: duplicate surface line"),
], ids=["field-twice", "line-twice"])
def test_a_repeated_surface_declaration_is_bad_input(capsys, tmp_path, old, new, message):
    """validate used to take the last g= or surface line and compare
    its header check against that; now the file is refused."""
    source = tmp_path / "twice.graph"
    source.write_text(fixture_text("t3").replace(old, new, 1))
    assert run(capsys, "validate", str(source)) == (2, "", "error: %s\n" % message)
