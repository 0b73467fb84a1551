import os

import pytest

from spineforms import CoordinatePoint, SqrtRational, parse_graph
from spineforms.paths import t_var, w_var

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def load_fixture(name):
    with open(os.path.join(FIXTURES, name + ".graph"), encoding="utf-8") as fh:
        return parse_graph(fh.read())


def fixture_text(name):
    with open(os.path.join(FIXTURES, name + ".graph"), encoding="utf-8") as fh:
        return fh.read()


def exact_values(point):
    """LaurentPoly.subs values of an exact point: t_e = sqrt(q_e) and the
    loop weights."""
    values = {t_var(e): SqrtRational.sqrt(q) for e, q in point.q.items()}
    values.update((w_var(e), w) for e, w in point.omega.items())
    return values


def partial_point(exact, values, omega=None):
    """An exact point with q = values, or a float one with y = values as
    floats, that may lack values some graph needs."""
    if exact:
        return CoordinatePoint(True, q=values, omega=omega)
    return CoordinatePoint(False, y={n: float(v) for n, v in values.items()}, omega=omega)


ALL_FIXTURES = ("t3", "sigma_0_2_1", "sigma_0_3_1", "sigma_0_1_4", "sigma_0_5_1")


@pytest.fixture
def t3():
    return load_fixture("t3")


@pytest.fixture
def four_cusps():
    return load_fixture("sigma_0_1_4")


@pytest.fixture
def one_loop():
    return load_fixture("sigma_0_2_1")


@pytest.fixture
def two_loops():
    return load_fixture("sigma_0_3_1")


@pytest.fixture
def five_holes():
    return load_fixture("sigma_0_5_1")
