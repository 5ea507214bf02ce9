"""Two checked passes of the benchmark's in-process workloads, one of its
ladder's base rungs through the CLI, untimed, and the ladder's documents
against the reference emitter and encoder.

The harness in ``bench/`` calls the library by name, some of it through
``getattr``; a name it needs that goes missing, or an answer it checks
that changes, fails here rather than in a benchmark run.  The second
pass runs the same operations on the same automata, as a timed run
does, so what the library keeps on an automaton between calls (linear
forms, minimal machines, evaluator trails) is checked across operations.
The ladder's documents come from ``qdes.cli.main`` in this process, so
a wrong CLI verdict fails here too, not only in the benchmark.  Each
rung's plant and target are written as the reference encoder writes
them, with each kind's layout spelled out, and read back as the
reference decoder reads them.
"""

import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import qdes
import qdes.cli
import qdes.composition
import qdes.equivalence
import qdes.fixtures
import qdes.serialize
import qdes.supervisory

from helpers import assert_decoders_agree, count_reductions, ref_canonical_json, ref_to_document

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
def test_two_passes_check(workloads, name):
    setup, ops = getattr(workloads, f"setup_{name}"), getattr(workloads, f"ops_{name}")
    run = ops(qdes, setup(qdes, 0))
    for pass_no in (1, 2):
        failures = {op.label: problem for op in run if (problem := op.check(op.run())) is not None}
        assert failures == {}, f"pass {pass_no}"


def test_restriction_ops_reduce_nothing(workloads, monkeypatch):
    """Every ``hold:`` operation of ``exact``, and every ``random:`` one whose
    target changes no uncontrollable symbol's unitary of its plant (it is
    the plant, or the spec that kills 1 under 0 uncontrollable), is
    decided with no ``minimize`` and no ``explore_span``."""
    st = workloads.setup_exact(qdes, 0)
    ops = {op.label: op for op in workloads.ops_exact(qdes, st)}
    quiet = [f"hold:{name}" for name, *_ in st["holding"]]
    for name, target, plant, spec, _ in st["random"]:
        changed = {a for a in plant.alphabet if not np.array_equal(target.unitaries[a], plant.unitaries[a])}
        if not changed & spec.uncontrollable:
            quiet.append(f"random:{name}")
    assert "hold:eg2-N2" in quiet and len(quiet) > len(st["holding"])
    calls = count_reductions(monkeypatch)
    for label in quiet:
        calls.clear()
        assert ops[label].run().holds and calls == [], label


def test_base_rungs_through_the_cli(workloads, tmp_path, capsys):
    rungs = workloads.setup_ladder(qdes, 0, tmp_path)
    for name in workloads.BASE_RUNGS:
        for kind, argv, check in workloads.cli_calls(rungs[name]):
            qdes.cli.main(argv)
            doc = json.loads(capsys.readouterr().out)
            assert check(doc) is None, f"{kind} on {name}: {doc}"


def test_ladder_documents_match_the_reference_emitter(workloads):
    for rung in workloads.RUNGS:
        for automaton in workloads.build_rung(qdes, rung, 0)[:2]:
            doc = qdes.serialize.to_document(automaton)
            assert qdes.serialize.canonical_json(doc) == ref_canonical_json(doc), rung.name
            assert doc == ref_to_document(automaton), rung.name
            assert qdes.serialize.dumps(automaton) == ref_canonical_json(ref_to_document(automaton)), rung.name


def test_ladder_documents_decode_as_the_reference_decoder(workloads):
    for rung in workloads.RUNGS:
        for automaton in workloads.build_rung(qdes, rung, 0)[:2]:
            assert_decoders_agree(qdes.serialize.to_document(automaton))
