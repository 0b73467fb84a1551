"""The benchmark's workloads build at seed 1 and pass their first round.

bench/workloads.py and bench/tracing.py are read and run as modules,
with no bytecode written, and the flip walks write their scratch file
under tmp_path, so the test leaves nothing under bench/.  A change to
CoordinatePoint, LambdaAssignment or the forms tables that makes a
workload fail to run, or its checks fail, fails here.
"""

import pathlib
import types

import pytest

BENCH = pathlib.Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name):
    """bench/<name>.py run as a fresh module."""
    path = BENCH / (name + ".py")
    module = types.ModuleType(name)
    module.__file__ = str(path)
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _bench_module("workloads")


@pytest.mark.parametrize("name", ["formal-words", "exact-coords", "flip-walk"])
def test_first_round_passes(workloads, name, tmp_path):
    T = _bench_module("tracing").NullTracer()
    workload = workloads.WORKLOADS[name](1, T)
    if isinstance(workload, workloads.FlipWalk):
        workload.scratch = tmp_path / "walk.graph"
    ops = list(next(workload.round_ops(T, None)))
    assert ops
    failed = [i for i, op in enumerate(ops) if op() is not True]
    assert not failed, failed
