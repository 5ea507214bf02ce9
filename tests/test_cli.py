import copy
import dataclasses
import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdes import blm
from qdes.blm import blm_eval, compile_mm_to_rblm
from qdes.cli import main
from qdes.equivalence import equiv, k_equiv_bruteforce
from qdes.fixtures import (
    build_af_modp,
    build_eg1,
    build_eg2,
    build_eg2_spec,
    build_egadd,
    build_spec_variant,
    dfa_bounded_zeros,
    is_prime,
)
from qdes.linalg import Projector
from qdes.models import MmQfa
from qdes.serialize import SerializationError, from_document, load, save, to_document
from qdes.supervisory import REDUCTION_PRECONDITIONS, ControllabilityResult

from helpers import (
    assert_decoders_agree,
    random_mo,
    random_qfac,
    random_state,
    random_unitary,
    refuse_to_compile,
    to_rblm,
)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def eg2_file(tmp_path):
    path = tmp_path / "eg2.json"
    save(build_eg2(2, 0.5), path)
    return str(path)


@pytest.fixture
def eg1_pair(tmp_path):
    plant = build_eg1(2, 0.95, seed=0)
    pp = tmp_path / "plant.json"
    tp = tmp_path / "target.json"
    save(plant, pp)
    save(build_spec_variant(plant, "s5"), tp)
    return str(pp), str(tp)


class TestValidateCommand:
    def test_clean_file(self, capsys, eg2_file):
        code, doc = run(capsys, "validate", eg2_file)
        assert code == 0 and doc["valid"] and doc["violations"] == []

    def test_violations_exit_one(self, capsys, tmp_path, eg2_file):
        doc = to_document(load(eg2_file))
        doc["initial"] = [[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
        assert_decoders_agree(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(bad))
        assert code == 1 and not out["valid"] and out["violations"]

    @pytest.mark.parametrize("field,violation", [("states", "duplicate states ['z0']"),
                                                 ("alphabet", "duplicate alphabet symbols ['0']")])
    def test_duplicate_names_exit_one(self, capsys, tmp_path, field, violation):
        doc = to_document(dfa_bounded_zeros(1))
        doc[field].append(doc[field][0])
        assert_decoders_agree(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(bad))
        assert code == 1 and out["violations"] == [violation]

    def test_missing_file_exit_two(self, capsys):
        code, out = run(capsys, "validate", "/nonexistent.json")
        assert code == 2 and "error" in out


class TestProbCommand:
    def test_decay_value(self, capsys, eg2_file):
        code, doc = run(capsys, "prob", eg2_file, "00")
        assert code == 0
        assert abs(doc["value"] - 0.56310564331420236) <= 1e-9

    def test_model_check_agreement(self, capsys, eg2_file):
        code, doc = run(capsys, "prob", eg2_file, "0101", "--model-check")
        assert code == 0 and doc["forms_agree"]

    def test_bad_symbol_exit_two(self, capsys, eg2_file):
        code, doc = run(capsys, "prob", eg2_file, "02")
        assert code == 2

    def test_empty_word(self, capsys, eg2_file):
        code, doc = run(capsys, "prob", eg2_file, "")
        assert code == 0 and doc["value"] == 1.0


class TestEquivCommand:
    def test_machine_vs_itself(self, capsys, eg2_file):
        code, doc = run(capsys, "equiv", eg2_file, eg2_file)
        assert code == 0 and doc["equivalent"]

    def test_different_machines(self, capsys, tmp_path, eg2_file):
        other = tmp_path / "other.json"
        save(build_eg2(3, 0.5), other)
        code, doc = run(capsys, "equiv", eg2_file, str(other))
        assert code == 1 and not doc["equivalent"]
        assert doc["counterexample"] == "0"

    def test_brute_force_mode(self, capsys, eg2_file):
        code, doc = run(capsys, "equiv", eg2_file, eg2_file, "--brute-k", "3")
        assert code == 0 and doc["equivalent"] and doc["word_bound"] == 3

    @pytest.mark.parametrize("kind", ["mm-qfa", "rblm"])
    def test_brute_force_over_the_empty_alphabet(self, capsys, tmp_path, kind):
        rng = np.random.default_rng(9)
        m = MmQfa((), {"$": random_unitary(rng, 3)}, random_state(rng, 3), Projector(frozenset({0}), 3),
                  Projector(frozenset({1}), 3), Projector(frozenset({2}), 3))
        automaton = m if kind == "mm-qfa" else compile_mm_to_rblm(m)
        first, second = tmp_path / "first.json", tmp_path / "second.json"
        save(automaton, first)
        save(automaton, second)
        code, doc = run(capsys, "equiv", str(first), str(second), "--brute-k", "3")
        assert code == 0 and doc["equivalent"] and doc["word_bound"] == 3

    def test_alphabet_in_another_order(self, capsys, tmp_path):
        m = build_eg1(1, 0.95, seed=0)
        first, second = tmp_path / "m.json", tmp_path / "reordered.json"
        save(m, first)
        save(dataclasses.replace(m, alphabet=("2", "1", "0")), second)
        assert load(second).alphabet == ("2", "1", "0")
        code, doc = run(capsys, "equiv", str(second), str(first))
        assert code == 0 and doc["equivalent"]
        assert doc == run(capsys, "equiv", str(first), str(first))[1]

    def test_saved_machines_load_real(self, capsys, tmp_path):
        plant = build_eg1(1, 0.95, seed=0)
        machines = {"plant": to_rblm(plant), "target": to_rblm(build_spec_variant(plant, "s3"))}
        paths = {name: tmp_path / f"{name}.json" for name in machines}
        for name, b in machines.items():
            save(b, paths[name])
            assert load(paths[name]).pi.dtype == np.float64
        for name in machines:
            expected = equiv(machines["plant"], machines[name])
            code, doc = run(capsys, "equiv", str(paths["plant"]), str(paths[name]))
            assert code == (0 if expected.equivalent else 1)
            assert (doc["equivalent"], doc["f1"], doc["f2"], doc["visited_dim"]) == (
                expected.equivalent, expected.f1, expected.f2, expected.visited_dim)
            assert doc["counterexample"] == (None if expected.counterexample is None else "".join(expected.counterexample))

    def test_mixed_kinds_via_compilation(self, capsys, tmp_path):
        rng = np.random.default_rng(5)
        mo = random_mo(rng, 2)
        mo_path = tmp_path / "mo.json"
        save(mo, mo_path)
        code, doc = run(capsys, "equiv", str(mo_path), str(mo_path))
        assert code == 0 and doc["equivalent"]


class TestComposeCommand:
    def test_hybrid_composition(self, capsys, tmp_path):
        rng = np.random.default_rng(7)
        q = random_qfac(rng, 2, 2)
        p = tmp_path / "q.json"
        save(q, p)
        code, doc = run(capsys, "compose", str(p), str(p))
        assert code == 0 and doc["kind"] == "qfac"
        # A self-composition stays on the diagonal: of the 4 pairs, the 2 of
        # reachable states (s0 moves to s1 on both symbols) remain.
        assert doc["classical_states"] == ["(s0,s0)", "(s1,s1)"]

    def test_classical_composition(self, capsys, tmp_path):
        d = dfa_bounded_zeros(1)
        p = tmp_path / "d.json"
        save(d, p)
        code, doc = run(capsys, "compose", str(p), str(p))
        assert code == 0 and doc["kind"] == "dfa"
        # Only the diagonal of the 9 pairs is reachable.
        assert doc["states"] == ["(z0,z0)", "(z1,z1)", "(dead,dead)"]

    def test_measure_once_composition(self, capsys, tmp_path):
        p = tmp_path / "mo.json"
        save(random_mo(np.random.default_rng(3), 2), p)
        code, doc = run(capsys, "compose", str(p), str(p))
        assert code == 0 and doc["kind"] == "mo-qfa" and doc["dim"] == 4

    def test_mixed_kinds_rejected(self, capsys, tmp_path, eg2_file):
        d = tmp_path / "d.json"
        save(dfa_bounded_zeros(1), d)
        code, doc = run(capsys, "compose", eg2_file, str(d))
        assert code == 2
        q = tmp_path / "q.json"
        save(random_qfac(np.random.default_rng(7), 2, 2), q)
        for pair in ((str(d), str(q)), (str(q), str(d)), (eg2_file, eg2_file)):
            code, doc = run(capsys, "compose", *pair)
            assert code == 2 and doc["error"].startswith("ValueError: ")

    def test_classical_flag_is_gone(self, capsys, tmp_path):
        p = tmp_path / "d.json"
        save(dfa_bounded_zeros(1), p)
        with pytest.raises(SystemExit) as exit_:
            main(["compose", str(p), str(p), "--classical"])
        assert exit_.value.code == 2

    def test_classical_composition_different_alphabets(self, capsys, tmp_path):
        from qdes.models import Dfa

        left = dfa_bounded_zeros(1)
        right = Dfa(
            states=("u", "v"),
            alphabet=("x",),
            transitions={("u", "x"): "v", ("v", "x"): "u"},
            initial="u",
            accepting=frozenset({"u"}),
        )
        pl, pr = tmp_path / "l.json", tmp_path / "r.json"
        save(left, pl)
        save(right, pr)
        code, doc = run(capsys, "compose", str(pl), str(pr))
        assert code == 0
        assert sorted(doc["alphabet"]) == ["0", "1", "x"]
        # private events interleave: x only moves the right component
        assert doc["transitions"]["(z0,u)"]["x"] == "(z0,v)"
        assert doc["transitions"]["(z0,u)"]["0"] == "(z1,u)"


class TestControllabilityCommands:
    def test_decide_holds(self, capsys, eg1_pair):
        plant, target = eg1_pair
        code, doc = run(
            capsys, "decide-controllability", plant, target,
            "--uncontrollable", "0,1", "--oracle-horizon", "4",
        )
        assert code == 0 and doc["holds"] and doc["oracle_agrees"]
        assert doc["lhs"] is None and doc["rhs"] is None and doc["witness_confirmed"] is None

    def test_decide_violation(self, capsys, tmp_path):
        plant = build_eg2(2, 0.5)
        pp, tp = tmp_path / "p.json", tmp_path / "t.json"
        save(plant, pp)
        save(build_eg2_spec(plant), tp)
        code, doc = run(
            capsys, "decide-controllability", str(pp), str(tp), "--uncontrollable", "1"
        )
        assert code == 1 and not doc["holds"] and doc["symbol"] == "1"
        assert doc["lhs"] > doc["rhs"] + 1e-9 and doc["witness_confirmed"] is True
        assert doc["assumes"] == list(REDUCTION_PRECONDITIONS)

    def test_restriction_at_eg1_n6_holds_and_assumes_nothing(self, capsys, tmp_path):
        plant = build_eg1(6, 0.5, seed=0)
        pp, tp = tmp_path / "p.json", tmp_path / "t.json"
        save(plant, pp)
        save(build_spec_variant(plant, plant.classical_states[-1]), tp)
        code, doc = run(capsys, "decide-controllability", str(pp), str(tp), "--uncontrollable", "0,1")
        assert code == 0 and doc["holds"] is True and doc["assumes"] == []

    def test_no_uncontrollable_event_holds_and_assumes_nothing(self, capsys, tmp_path):
        plant = build_eg2(2, 0.5)
        pp, tp = tmp_path / "p.json", tmp_path / "t.json"
        save(plant, pp)
        save(build_eg2_spec(plant), tp)
        code, doc = run(capsys, "decide-controllability", str(pp), str(tp), "--uncontrollable", "")
        assert code == 0 and doc["holds"] is True and doc["assumes"] == []

    @staticmethod
    def dead_state_variant(tmp_path, state):
        """eg1 N=2 and its spec variant with ``(state, "0")`` sent to the dead state, saved."""
        plant = build_eg1(2, 0.95, seed=0)
        target = build_spec_variant(plant, plant.classical_states[-1])
        transitions = {**target.transitions, (state, "0"): plant.classical_states[-1]}
        pp, tp = tmp_path / "p.json", tmp_path / "t.json"
        save(plant, pp)
        save(dataclasses.replace(target, transitions=transitions), tp)
        return ["decide-controllability", str(pp), str(tp), "--uncontrollable", "0,1", "--oracle-horizon"]

    def test_oracle_witness_matches_the_decision(self, capsys, tmp_path):
        code, doc = run(capsys, *self.dead_state_variant(tmp_path, "s1"), "4")
        assert code == 1 and not doc["holds"] and not doc["oracle_holds"] and doc["oracle_agrees"]
        assert (doc["oracle_counterexample"], doc["oracle_symbol"]) == (doc["counterexample"], doc["symbol"]) == ("0", "0")

    def test_dead_state_witness_confirmed(self, capsys, tmp_path):
        code, doc = run(capsys, *self.dead_state_variant(tmp_path, "s1"), "4")
        assert code == 1 and doc["witness_confirmed"] is True and doc["lhs"] > doc["rhs"]

    def test_witness_unconfirmed_when_target_exceeds_plant(self, capsys, tmp_path):
        # Roles swapped: eg1 is the target and the (s0, "0")-cut variant the
        # plant, so the target exceeds the plant at 0000 and the witness's
        # sides read lhs 0 <= rhs; the exit code is the decision's.
        argv = self.dead_state_variant(tmp_path, "s0")
        argv[1], argv[2] = argv[2], argv[1]
        code, doc = run(capsys, *argv[:-1])
        assert code == 1 and not doc["holds"] and (doc["counterexample"], doc["symbol"]) == ("000", "0")
        assert doc["lhs"] == 0.0 and doc["rhs"] > 0.9 and doc["witness_confirmed"] is False

    def test_witness_beyond_the_horizon_is_out_of_reach(self, capsys, tmp_path):
        argv = self.dead_state_variant(tmp_path, "s3")
        code, doc = run(capsys, *argv, "2")
        assert code == 1 and (doc["counterexample"], doc["symbol"]) == ("000", "0")
        assert doc["oracle_holds"] and doc["oracle_agrees"] is None
        code, doc = run(capsys, *argv, "4")
        assert code == 1 and not doc["oracle_holds"] and doc["oracle_agrees"] is True
        assert (doc["oracle_counterexample"], doc["oracle_symbol"]) == ("000", "0")

    def test_different_witnesses_disagree(self, capsys, monkeypatch, eg1_pair):
        plant, target = eg1_pair
        other = ControllabilityResult(False, ("2",), "0", 1.0, 0.0)
        monkeypatch.setattr("qdes.cli.decide_controllability", lambda *a, **kw: other)
        monkeypatch.setattr("qdes.cli.check_controllability_exhaustive",
                            lambda *a, **kw: ControllabilityResult(False, ("2",), "1", 1.0, 0.0))
        code, doc = run(capsys, "decide-controllability", plant, target, "--uncontrollable", "0,1",
                        "--oracle-horizon", "2")
        assert code == 1 and not doc["oracle_agrees"]
        assert (doc["oracle_counterexample"], doc["oracle_symbol"]) == ("2", "1")

    def test_unknown_event_exit_two(self, capsys, eg1_pair):
        plant, target = eg1_pair
        code, doc = run(capsys, "decide-controllability", plant, target, "--uncontrollable", "9")
        assert code == 2

    def test_simulate_loop(self, capsys, eg1_pair):
        plant, target = eg1_pair
        code, doc = run(
            capsys, "simulate-loop", plant, target, "--uncontrollable", "0,1", "--word", "012",
        )
        assert code == 0
        assert [s["prefix"] for s in doc["steps"]] == ["", "0", "01", "012"]
        assert doc["steps"][0]["closed_loop"] == 1.0
        assert doc["steps"][3]["closed_loop"] == 0.0  # the 2 is disabled by the target

    def test_check_marking(self, capsys, tmp_path):
        plant = build_egadd(4, 0.98, seed=0)
        target = build_spec_variant(plant, "s5")
        pp, tp = tmp_path / "p.json", tmp_path / "t.json"
        save(plant, pp)
        save(target, tp)
        code, doc = run(
            capsys, "check-marking", str(pp), str(tp),
            "--lambda", "0.13", "--rho", "0.12", "--horizon", "3",
            "--uncontrollable", "0,1",
        )
        assert code == 0 and doc["marking_holds"] and doc["nonblocking"]

    def test_isolation_violation_exit_two(self, capsys, tmp_path):
        path = tmp_path / "eg2.json"
        code, _ = run(capsys, "example", "eg2", "--N", "2", "--lambda", "0.5", "-o", str(path))
        assert code == 0
        code, doc = run(
            capsys, "check-marking", str(path), str(path),
            "--lambda", "0.5", "--rho", "0.45", "--horizon", "3", "--uncontrollable", "0",
        )
        assert code == 2 and "IsolationViolationError" in doc["error"]


class TestNoDenseHybridMachine:
    """No subcommand compiles a hybrid automaton to its dense machine: each
    one that reads a qfac document answers as usual with the compiler gone."""

    ARGV = [
        ["validate", "{plant}"],
        ["prob", "{plant}", "012"],
        ["equiv", "{plant}", "{target}"],
        ["equiv", "{plant}", "{target}", "--brute-k", "4"],
        ["equiv", "{plant}", "{plant}", "--brute-k", "3"],
        ["decide-controllability", "{plant}", "{target}", "--uncontrollable", "0,1", "--oracle-horizon", "3"],
        ["simulate-loop", "{plant}", "{target}", "--uncontrollable", "0,1", "--word", "012"],
        ["check-marking", "{plant}", "{target}", "--lambda", "0.13", "--rho", "0.12", "--horizon", "3",
         "--uncontrollable", "0,1"],
    ]

    def test_every_subcommand_without_the_compiler(self, capsys, tmp_path, monkeypatch):
        plant = build_egadd(4, 0.98, seed=0)
        target = build_spec_variant(plant, plant.classical_states[-1])
        paths = {"plant": tmp_path / "plant.json", "target": tmp_path / "target.json"}
        save(plant, paths["plant"])
        save(target, paths["target"])
        argvs = [[a.format(**paths) for a in argv] for argv in self.ARGV]
        usual = [run(capsys, *argv) for argv in argvs]
        compiled = k_equiv_bruteforce(to_rblm(plant), to_rblm(target), 4)
        monkeypatch.setattr(blm, "compile_qfac_to_rblm", refuse_to_compile)
        assert [run(capsys, *argv) for argv in argvs] == usual
        assert [code for code, _ in usual] == [0, 0, 1, 1, 0, 0, 0, 0]
        assert usual[3][1]["counterexample"] == "".join(compiled.counterexample)


#: One small automaton per document kind.
KINDS = {
    "dfa": lambda: dfa_bounded_zeros(1),
    "mo-qfa": lambda: random_mo(np.random.default_rng(3), 2),
    "mm-qfa": lambda: build_eg2(2, 0.5),
    "qfac": lambda: random_qfac(np.random.default_rng(4), 2, 2),
    "rblm": lambda: compile_mm_to_rblm(build_eg2(2, 0.5)),
}


class TestEveryKind:
    @pytest.mark.parametrize("kind", sorted(KINDS))
    def test_prob_equiv_decide(self, capsys, tmp_path, kind):
        automaton = KINDS[kind]()
        path = tmp_path / f"{kind}.json"
        save(automaton, path)
        assert to_document(automaton)["kind"] == kind
        sym = automaton.alphabet[0]

        code, doc = run(capsys, "prob", str(path), sym * 2)
        assert code == 0
        assert abs(doc["value"] - blm_eval(to_rblm(automaton), (sym, sym))) <= 1e-9

        code, doc = run(capsys, "equiv", str(path), str(path))
        assert code == 0 and doc["equivalent"]

        code, doc = run(
            capsys, "decide-controllability", str(path), str(path),
            "--uncontrollable", sym, "--oracle-horizon", "3",
        )
        assert code == 0 and doc["holds"] and doc["oracle_agrees"]


#: A mapping field of each kind's document, by its path, replaced by a JSON list.
LIST_FOR_OBJECT = [
    ("dfa", ("transitions",)),
    ("dfa", ("transitions", "z0")),
    ("mo-qfa", ("unitaries",)),
    ("mm-qfa", ("unitaries",)),
    ("qfac", ("transitions",)),
    ("qfac", ("unitaries", "s0")),
    ("qfac", ("accepting",)),
    ("rblm", ("matrices",)),
]


class TestListWhereObjectExpected:
    @pytest.mark.parametrize("kind,field", LIST_FOR_OBJECT, ids=["/".join((k, *f)) for k, f in LIST_FOR_OBJECT])
    def test_validate_and_prob_exit_two(self, capsys, tmp_path, kind, field):
        doc = to_document(KINDS[kind]())
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        assert isinstance(parent[field[-1]], dict)
        parent[field[-1]] = [1, 2]
        assert_decoders_agree(doc)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["prob", str(path), ""]):
            code, out = run(capsys, *argv)
            assert code == 2 and "expected a JSON object" in out["error"]


#: An integer field of each quantum kind's document, by its path.
INTEGER_FIELDS = [
    ("mo-qfa", ("dim",)),
    ("mo-qfa", ("rejecting", 0)),
    ("mm-qfa", ("dim",)),
    ("mm-qfa", ("accepting", 0)),
    ("qfac", ("dim",)),
    ("qfac", ("accepting", "s0", 0)),
]


class TestIntegerFields:
    """A dimension or a basis index that is not a JSON integer is refused, never rounded or parsed."""

    @pytest.mark.parametrize("value", [2.7, 2.0, "2", True], ids=["fraction", "integral-float", "string", "bool"])
    @pytest.mark.parametrize("kind,field", INTEGER_FIELDS, ids=["/".join((k, *map(str, f))) for k, f in INTEGER_FIELDS])
    def test_validate_and_prob_exit_two(self, capsys, tmp_path, kind, field, value):
        doc = to_document(KINDS[kind]())
        parent = doc
        for key in field[:-1]:
            parent = parent[key]
        assert isinstance(parent[field[-1]], int)
        parent[field[-1]] = value
        assert_decoders_agree(doc)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["prob", str(path), ""]):
            code, out = run(capsys, *argv)
            assert code == 2 and out["error"].startswith("SerializationError: ")
            assert "expected a JSON integer" in out["error"]

    def test_index_list_that_is_a_string_exit_two(self, capsys, tmp_path):
        doc = to_document(build_eg2(2, 0.5))
        doc["accepting"] = "2"
        assert_decoders_agree(doc)
        path = tmp_path / "mm.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(path))
        assert code == 2 and "expected a list of indices" in out["error"]


#: A field of each kind's document that must be a JSON list of strings.
NAME_FIELDS = [
    ("dfa", "alphabet"),
    ("dfa", "states"),
    ("dfa", "accepting"),
    ("mo-qfa", "alphabet"),
    ("mm-qfa", "alphabet"),
    ("qfac", "alphabet"),
    ("qfac", "classical_states"),
    ("rblm", "alphabet"),
]


class TestNameFields:
    """An alphabet or a state list that is not a JSON list of strings is refused,
    never split into characters or coerced: ``"alphabet": "01"`` once loaded
    as ``('0', '1')``."""

    @pytest.mark.parametrize("value", [lambda names: "".join(names), lambda names: [7, *names[1:]]],
                             ids=["string", "non-string-entry"])
    @pytest.mark.parametrize("kind,field", NAME_FIELDS, ids=["/".join(f) for f in NAME_FIELDS])
    def test_library_validate_and_prob_exit_two(self, capsys, tmp_path, kind, field, value):
        doc = to_document(KINDS[kind]())
        assert doc[field] and all(isinstance(name, str) for name in doc[field])
        doc[field] = value(doc[field])
        with pytest.raises(SerializationError, match=f"{kind} {field}: expected a list of strings"):
            from_document(doc)
        assert_decoders_agree(doc)
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["prob", str(path), ""]):
            code, out = run(capsys, *argv)
            assert code == 2 and out["error"].startswith(f"SerializationError: {kind} {field}: ")


class TestRblmShape:
    """An ``rblm`` document's ``n`` is read, and its vectors and matrices must match it."""

    @pytest.mark.parametrize("message,change", [
        ("rblm pi: expected n = 999 entries, got 10", lambda doc: doc.update(n=999)),
        ("rblm n: expected a JSON integer, got float", lambda doc: doc.update(n=10.0)),
        ("rblm matrices 1: expected 10 x 10, got 9 x 10", lambda doc: doc["matrices"]["1"].pop()),
        ("rblm matrices 0: expected 10 x 10, got 10 x 9", lambda doc: [row.pop() for row in doc["matrices"]["0"]]),
        ("rblm matrices 0: rows of unequal length", lambda doc: doc["matrices"]["0"][3].pop()),
        ("rblm matrices: expected one matrix per alphabet symbol", lambda doc: doc["matrices"].pop("1")),
        ("rblm matrices: expected one matrix per alphabet symbol", lambda doc: doc.update(alphabet=["0", "1", "0"])),
    ], ids=["n-999", "float-n", "short-matrix", "narrow-matrix", "ragged-matrix", "missing-matrix", "repeated-symbol"])
    def test_mismatch_names_the_field(self, capsys, tmp_path, message, change):
        doc = to_document(KINDS["rblm"]())
        assert doc["n"] == 10
        change(doc)
        with pytest.raises(SerializationError, match=message):
            from_document(doc)
        assert_decoders_agree(doc)
        path = tmp_path / "rblm.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["prob", str(path), ""]):
            code, out = run(capsys, *argv)
            assert code == 2 and out["error"].startswith(f"SerializationError: {message}")


#: The saved document of a stock automaton of each kind.
STOCK_DOCUMENTS = {
    "dfa": to_document(dfa_bounded_zeros(2)),
    "mo-qfa": to_document(build_af_modp(5, 0.3)),
    "mm-qfa": to_document(build_eg2(2, 0.5)),
    "qfac": to_document(build_eg1(1, 0.95, seed=0)),
    "rblm": to_document(compile_mm_to_rblm(build_eg2(1, 0.5))),
}

#: Any JSON value, NaN and the infinities included (Python's json reads them).
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=10,
)


#: The fuzzed commands, given the malformed document's path and the stock one's.
FUZZED_COMMANDS = {
    "validate": lambda path, stock: ["validate", path],
    "compose": lambda path, stock: ["compose", path, stock],
    "equiv-brute-k": lambda path, stock: ["equiv", path, stock, "--brute-k", "3"],
    "prob": lambda path, stock: ["prob", path, "01"],
}

#: The fuzzed commands that decide, simulate or count, with the malformed
#: document as the target against the stock plant; each run costs more, so
#: they draw fewer examples.
FUZZED_DECISIONS = {
    "equiv": lambda path, stock: ["equiv", path, stock],
    "decide-controllability": lambda path, stock: ["decide-controllability", stock, path, "--uncontrollable", "0"],
    "simulate-loop": lambda path, stock: ["simulate-loop", stock, path, "--uncontrollable", "0", "--word", "0"],
    "check-marking": lambda path, stock: ["check-marking", stock, path, "--lambda", "0.3", "--rho", "0.1",
                                          "--horizon", "2", "--uncontrollable", "0"],
    "minimize-dfa": lambda path, stock: ["minimize-dfa", path],
}


def malformed_document(data, kind: str) -> dict:
    """The stock document of ``kind`` with one field, or one entry of a field,
    set to any JSON value."""
    doc = copy.deepcopy(STOCK_DOCUMENTS[kind])
    parent, key = doc, data.draw(st.sampled_from(sorted(doc)), label="field")
    inner = doc[key]
    if isinstance(inner, (dict, list)) and inner and data.draw(st.booleans(), label="entry"):
        parent, key = inner, data.draw(st.sampled_from(sorted(inner) if isinstance(inner, dict) else range(len(inner))),
                                       label="entry key")
    parent[key] = data.draw(JSON_VALUES, label="value")
    return doc


def answers_in_contract(argv_of, kind: str, doc: dict) -> None:
    """``qdes`` on ``argv_of(malformed path, stock path)`` exits 0, 1 or 2 with
    one JSON document, which holds an error exactly when it exits 2."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path, stock = Path(tmp) / "doc.json", Path(tmp) / "stock.json"
        path.write_text(json.dumps(doc))
        stock.write_text(json.dumps(STOCK_DOCUMENTS[kind]))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv_of(str(path), str(stock)))
    result = json.loads(out.getvalue())
    assert code in (0, 1, 2) and err.getvalue() == ""
    assert ("error" in result) == (code == 2)


class TestValidateFuzz:
    """One field of a stock document, or one entry of a field, set to any JSON
    value: ``qdes validate``, ``qdes prob`` on the word 01, and ``qdes equiv
    --brute-k`` and ``qdes compose`` against the stock document, answer 0, 1
    or 2 with one JSON document; so do ``qdes equiv`` on the span kernel,
    ``decide-controllability``, ``simulate-loop`` and ``check-marking`` with
    the stock plant and the malformed target, and ``minimize-dfa``."""

    @pytest.mark.parametrize("command", sorted(FUZZED_COMMANDS))
    @pytest.mark.parametrize("kind", sorted(STOCK_DOCUMENTS))
    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_one_malformed_field(self, kind, command, data):
        answers_in_contract(FUZZED_COMMANDS[command], kind, malformed_document(data, kind))

    @pytest.mark.parametrize("command", sorted(FUZZED_DECISIONS))
    @pytest.mark.parametrize("kind", sorted(STOCK_DOCUMENTS))
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_malformed_target(self, kind, command, data):
        answers_in_contract(FUZZED_DECISIONS[command], kind, malformed_document(data, kind))

    def test_a_field_nested_too_deep_exit_two(self, capsys, tmp_path):
        text = json.dumps(STOCK_DOCUMENTS["dfa"]).replace('"states": [', '"states": [' + "[" * 100_000 + "]" * 100_000 + ", ", 1)
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out = run(capsys, "validate", str(path))
        assert code == 2 and out["error"].startswith("RecursionError: ")


class TestExampleCommand:
    @pytest.mark.parametrize(
        "name,args",
        [
            ("eg2", ["--N", "2", "--lambda", "0.5"]),
            ("af-modp", ["--N", "11", "--epsilon", "0.2"]),
            ("eg1", ["--N", "1", "--epsilon", "0.95"]),
            ("egadd", ["--N", "2", "--epsilon", "0.98"]),
        ],
    )
    def test_examples_round_trip(self, capsys, tmp_path, name, args):
        out = tmp_path / f"{name}.json"
        code, doc = run(capsys, "example", name, *args, "--seed", "0", "-o", str(out))
        assert code == 0 and doc["path"] == str(out)
        load(out)

    def test_seed_reproducible(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "example", "af-modp", "--N", "11", "--epsilon", "0.2", "--seed", "3", "-o", str(a))
        run(capsys, "example", "af-modp", "--N", "11", "--epsilon", "0.2", "--seed", "3", "-o", str(b))
        assert a.read_text() == b.read_text()

    def test_composite_modulus_rejected(self, capsys, tmp_path):
        code, doc = run(
            capsys, "example", "af-modp", "--N", "12", "--epsilon", "0.2",
            "-o", str(tmp_path / "x.json"),
        )
        assert code == 2 and "prime" in doc["error"]

    def test_failed_fixture_search_exit_two(self, capsys, tmp_path):
        out = tmp_path / "x.json"
        code, doc = run(capsys, "example", "af-modp", "--N", "5", "--epsilon", "0.001", "-o", str(out))
        assert code == 2 and doc["error"].startswith("FixtureSearchError: ")
        assert not out.exists()

    @pytest.mark.parametrize("args,message", [
        (["--N", "0"], "ValueError: N must be at least 1"),
        (["--N", "-2"], "ValueError: N must be at least 1"),
        (["--N", "3", "--lambda", "1e-300"], "ValueError: no decay rate separates 3 zeros from 4 at cut-point 1e-300"),
    ], ids=["N-0", "N-negative", "lambda-1e-300"])
    def test_eg2_refusals_exit_two(self, capsys, tmp_path, args, message):
        out = tmp_path / "eg2.json"
        code, doc = run(capsys, "example", "eg2", *args, "-o", str(out))
        assert code == 2 and doc == {"error": message}
        assert not out.exists()


#: The sizes each example builds at; it is fuzzed up to the largest, since
#: eg1's certificate grows with 2^N.
EXAMPLE_SIZES = {"eg1": [1, 2], "egadd": [2, 4, 6], "eg2": [1, 2, 3, 4, 5, 6],
                 "af-modp": [p for p in range(42) if is_prime(p)]}

#: Any float, nan, the infinities, 0 and 1 included, but no error bound in
#: (0, 0.1), at which a search at p <= 41 may run through every block count;
#: two of the four branches draw from [0.1, 1), where the examples build.
EXAMPLE_BOUNDS = st.one_of(
    st.floats(min_value=0.1, max_value=1.0, exclude_max=True),
    st.floats(min_value=0.1, max_value=1.0, exclude_max=True),
    st.floats().filter(lambda x: not 0.0 < x < 0.1),
    st.sampled_from([0.0, 1.0, float("nan"), float("inf"), -float("inf")]),
)


class TestExampleFuzz:
    """``qdes example`` on any name, a small size (0 and negative ones
    included), any error bound and cut-point, and any seed exits 0, 1 or 2
    with one JSON document; a file it writes passes ``qdes validate``."""

    @pytest.mark.parametrize("name", sorted(EXAMPLE_SIZES))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_answers_in_contract(self, name, data):
        sizes = EXAMPLE_SIZES[name]
        # Each value is joined to its flag, so argparse reads -inf or -1e-300 as the value.
        argv = ["example", name, f"--N={data.draw(st.sampled_from(sizes) | st.integers(-3, sizes[-1]), label='N')}",
                f"--epsilon={data.draw(EXAMPLE_BOUNDS, label='epsilon')!r}",
                f"--lambda={data.draw(EXAMPLE_BOUNDS, label='lambda')!r}",
                f"--seed={data.draw(st.integers(0, 2 ** 70) | st.integers(-2 ** 8, -1), label='seed')}"]
        with tempfile.TemporaryDirectory() as tmp:
            path = str(Path(tmp) / "example.json")
            code, doc, err = self.qdes(*argv, "-o", path)
            assert code in (0, 1, 2) and err == ""
            assert ("error" in doc) == (code == 2)
            if code == 0:
                assert doc["path"] == path
                code, doc, _ = self.qdes("validate", path)
                assert code == 0 and doc["valid"]

    @staticmethod
    def qdes(*argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(argv))
        return code, json.loads(out.getvalue()), err.getvalue()


class TestMinimizeCommand:
    def test_counter(self, capsys, tmp_path):
        p = tmp_path / "d.json"
        save(dfa_bounded_zeros(3), p)
        code, doc = run(capsys, "minimize-dfa", str(p))
        assert code == 0 and doc["minimal_states"] == 5

    def test_wrong_kind(self, capsys, eg2_file):
        code, doc = run(capsys, "minimize-dfa", eg2_file)
        assert code == 2


class TestTolOverride:
    def test_env_var_changes_default(self, capsys, eg2_file, monkeypatch):
        monkeypatch.setenv("QDES_TOL", "0.5")
        # With an absurdly loose tolerance the two machines look equivalent.
        code, doc = run(capsys, "equiv", eg2_file, eg2_file)
        assert code == 0

    @pytest.mark.parametrize("env,flags", [("abc", []), ("nan", []), (None, ["--tol", "-1"]), (None, ["--tol", "nan"])],
                             ids=["env-abc", "env-nan", "flag-negative", "flag-nan"])
    def test_bad_tolerance_is_an_input_error(self, capsys, eg1_pair, monkeypatch, env, flags):
        if env is not None:
            monkeypatch.setenv("QDES_TOL", env)
        plant, target = eg1_pair
        for argv in (["equiv", plant, plant], ["decide-controllability", plant, target, "--uncontrollable", "2"]):
            code, doc = run(capsys, *argv, *flags)
            assert code == 2 and doc["error"].startswith("ValueError: ")

    def test_commands_without_a_tolerance_ignore_the_env_var(self, capsys, eg2_file, monkeypatch):
        monkeypatch.setenv("QDES_TOL", "abc")
        code, doc = run(capsys, "validate", eg2_file)
        assert code == 0 and doc["valid"]
