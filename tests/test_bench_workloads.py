"""One checked pass of the benchmark's in-process workloads, untimed.

The harness in ``bench/`` calls the library by name, some of it through
``getattr``; a name it needs that goes missing, or an answer it checks
that changes, fails here rather than in a benchmark run.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import qdes
import qdes.composition
import qdes.equivalence
import qdes.fixtures
import qdes.supervisory

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["exact", "sweep"])
def test_one_pass_checks(workloads, name):
    setup, ops = getattr(workloads, f"setup_{name}"), getattr(workloads, f"ops_{name}")
    failures = {op.label: problem for op in ops(qdes, setup(qdes, 0)) if (problem := op.check(op.run())) is not None}
    assert failures == {}
