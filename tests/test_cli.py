import dataclasses
import json

import numpy as np
import pytest

from qdes.blm import blm_eval, compile_mm_to_rblm, to_rblm
from qdes.cli import main
from qdes.fixtures import build_eg1, build_eg2, build_eg2_spec, build_spec_variant, dfa_bounded_zeros
from qdes.serialize import load, save, to_document

from helpers import random_mo, random_qfac


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
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out = run(capsys, "validate", str(bad))
        assert code == 1 and not out["valid"] and out["violations"]

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

    def test_alphabet_in_another_order(self, capsys, tmp_path):
        m = build_eg1(1, 0.95, seed=0)
        first, second = tmp_path / "m.json", tmp_path / "reordered.json"
        save(m, first)
        save(dataclasses.replace(m, alphabet=("2", "1", "0")), second)
        assert load(second).alphabet == ("2", "1", "0")
        code, doc = run(capsys, "equiv", str(second), str(first))
        assert code == 0 and doc["equivalent"]
        assert doc == run(capsys, "equiv", str(first), str(first))[1]

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
        assert len(doc["classical_states"]) == 4

    def test_classical_composition(self, capsys, tmp_path):
        d = dfa_bounded_zeros(1)
        p = tmp_path / "d.json"
        save(d, p)
        code, doc = run(capsys, "compose", str(p), str(p), "--classical")
        assert code == 0 and doc["kind"] == "dfa"
        assert len(doc["states"]) == 9

    def test_mixed_kinds_rejected(self, capsys, tmp_path, eg2_file):
        d = tmp_path / "d.json"
        save(dfa_bounded_zeros(1), d)
        code, doc = run(capsys, "compose", eg2_file, str(d))
        assert code == 2

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
        code, doc = run(capsys, "compose", str(pl), str(pr), "--classical")
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
        assert doc["lhs"] is None and doc["rhs"] is None

    def test_decide_violation(self, capsys, tmp_path):
        plant = build_eg2(2, 0.5)
        pp, tp = tmp_path / "p.json", tmp_path / "t.json"
        save(plant, pp)
        save(build_eg2_spec(plant), tp)
        code, doc = run(
            capsys, "decide-controllability", str(pp), str(tp), "--uncontrollable", "1"
        )
        assert code == 1 and not doc["holds"] and doc["symbol"] == "1"
        assert doc["lhs"] > doc["rhs"] + 1e-9

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
        from qdes.fixtures import build_egadd

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
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate", str(path)], ["prob", str(path), ""]):
            code, out = run(capsys, *argv)
            assert code == 2 and "expected a JSON object" in out["error"]


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
