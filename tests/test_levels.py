"""Level evaluators and the sweeps built on them, against the word-by-word references."""

import tracemalloc
from itertools import islice

import numpy as np
import pytest

from qdes.blm import Rblm, blm_eval, blm_levels, evaluator, levels
from qdes.cli import main
from qdes.equivalence import equiv_rblm, k_equiv_bruteforce
from qdes.fixtures import build_eg1, build_eg2, build_eg2_spec, build_egadd, build_spec_variant, dfa_bounded_zeros
from qdes import models
from qdes.models import (
    Dfa,
    Qfac,
    _live_states,
    mm_levels,
    prefix_maxima,
    qfac_accept_prob,
    qfac_from_dfa,
    qfac_from_mo,
    qfac_levels,
    word_at,
    words_upto,
)
from qdes.serialize import save
from qdes.supervisory import (
    LEVEL_MARGIN,
    SWEEP_TOL,
    ClosedLoop,
    ControlSpec,
    CustomSupervisor,
    IsolationViolationError,
    QuantumLanguage,
    check_admissible,
    check_approximation_preconditions,
    check_controllability_exhaustive,
    check_decision_preconditions,
    check_marking_conditions,
    check_nonblocking,
    prefix_sup,
    synthesize_supervisor,
)

from helpers import (
    hand_qfac,
    random_dfa,
    random_live_qfac,
    random_mm,
    random_mo,
    random_qfac,
    random_rblm,
    ref_admissible,
    ref_approximation_preconditions,
    ref_controllability_exhaustive,
    ref_decision_preconditions,
    ref_k_equiv,
    ref_marking_conditions,
    ref_mm_levels,
    ref_nonblocking,
    ref_prefix_maxima,
    ref_qfac_accept_prob,
    ref_qfac_levels,
    to_rblm,
    words_up_to,
)

A3 = ("0", "1", "2")
lang = QuantumLanguage.from_automaton


def spec_for(alphabet, uncontrollable, **kw):
    unc = frozenset(uncontrollable)
    return ControlSpec(alphabet, frozenset(alphabet) - unc, unc, **kw)


def five_kinds(rng):
    return {
        "dfa": dfa_bounded_zeros(2),
        "mo-qfa": random_mo(rng, 3),
        "mm-qfa": random_mm(rng, 3),
        "qfac": random_qfac(rng, 3, 2),
        "rblm": to_rblm(random_qfac(rng, 2, 2)),
    }


def retarget(target, state, symbol):
    """Copy of a hybrid automaton with one transition sent to its last (dead) state."""
    transitions = dict(target.transitions)
    transitions[(state, symbol)] = target.classical_states[-1]
    return Qfac(target.classical_states, target.alphabet, target.initial_classical, target.initial_quantum,
                transitions, target.unitaries, target.accepting)


class TestLevelValues:
    @pytest.mark.parametrize("kind", ["dfa", "mo-qfa", "mm-qfa", "qfac", "rblm"])
    def test_frontier_matches_direct_evaluator(self, kind):
        automaton = five_kinds(np.random.default_rng(11))[kind]
        f = evaluator(automaton)
        for alphabet in (tuple(automaton.alphabet), tuple(reversed(automaton.alphabet))):
            got = list(levels(automaton, alphabet, 6))
            assert [v.size for v in got] == [len(alphabet) ** n for n in range(7)]
            expected = np.array([f(w) for w in words_upto(alphabet, 6)])
            assert np.max(np.abs(np.concatenate(got) - expected)) <= 1e-12

    @pytest.mark.parametrize("kind", ["dfa", "mo-qfa", "mm-qfa", "qfac", "rblm"])
    def test_empty_sweep_alphabet(self, kind):
        automaton = five_kinds(np.random.default_rng(12))[kind]
        got = [v.tolist() for v in levels(automaton, (), 3)]
        assert got == [[evaluator(automaton)(())], [], [], []]

    def test_raw_bilinear_values(self):
        b = random_rblm(np.random.default_rng(5), 4)
        got = np.concatenate(list(blm_levels(b, b.alphabet, 6)))
        assert np.max(np.abs(got - [blm_eval(b, w) for w in words_upto(b.alphabet, 6)])) <= 1e-12

    def test_word_at_inverts_the_enumeration(self):
        for n in range(4):
            words = [w for w in words_upto(A3, n) if len(w) == n]
            assert [word_at(A3, n, i) for i in range(len(words))] == words

    @pytest.mark.parametrize("kind", ["dfa", "mo-qfa", "mm-qfa", "qfac", "rblm"])
    def test_symbol_outside_alphabet(self, kind):
        automaton = five_kinds(np.random.default_rng(2))[kind]
        alphabet = (*automaton.alphabet, "z")
        assert len(next(levels(automaton, alphabet, 0))) == 1  # the empty word reads no symbol
        with pytest.raises(ValueError):
            list(levels(automaton, alphabet, 1))

    def test_corrupt_probability_names_the_word(self):
        b = Rblm(("a",), np.array([1.0 + 0j]), {"a": np.array([[2.0 + 0j]])}, np.array([0.5 + 0j]))
        with pytest.raises(ArithmeticError, match="'aa'"):
            list(levels(b, ("a",), 3))

    def test_imaginary_value_rejected(self):
        b = Rblm(("a",), np.array([1.0 + 0j]), {"a": np.array([[1j]])}, np.array([0.5 + 0j]))
        with pytest.raises(ArithmeticError, match="real-valued"):
            list(blm_levels(b, ("a",), 1))
        # a complex word function that differs from the zero machine at the empty word
        a = Rblm(("x",), np.array([1.0 + 0j]), {"x": np.eye(1, dtype=complex)}, np.array([1j]))
        zero = Rblm(("x",), np.array([1.0 + 0j]), {"x": np.eye(1, dtype=complex)}, np.array([0j]))
        with pytest.raises(ArithmeticError, match="real-valued"):
            equiv_rblm(a, zero)
        with pytest.raises(ArithmeticError, match="real-valued"):
            k_equiv_bruteforce(a, zero, 3)

    def test_language_fallback_is_per_word(self):
        L = QuantumLanguage(lambda w: 0.5 ** len(w), ("a", "b"))
        assert [v.tolist() for v in L.levels(("b", "a"), 2)] == [[1.0], [0.5, 0.5], [0.25] * 4]

    def test_automaton_language_uses_the_frontier(self, monkeypatch):
        plant = build_eg1(2, 0.95, seed=0)
        L = lang(plant)
        monkeypatch.setattr("qdes.blm.qfac_accept_prob", lambda *a: pytest.fail("per-word evaluator called"))
        assert len(np.concatenate(list(L.levels(A3, 3)))) == 40


def controllability_cases():
    """(name, target, plant, spec) on fixture, cut, swapped and random instances; many fail."""
    spec3, spec2 = spec_for(A3, "01"), spec_for(("0", "1"), "0")
    cases = []
    for seed in (1, 2):
        for name, plant in (("eg1", build_eg1(2, 0.95, seed=seed)), ("egadd", build_egadd(4, 0.98, seed=seed))):
            target = build_spec_variant(plant, plant.classical_states[-1])
            cases += [(f"{name}-s{seed}", target, plant, spec3), (f"{name}-s{seed}-swapped", plant, target, spec3)]
            cases += [(f"{name}-s{seed}-cut{k}", retarget(target, f"s{k}", "0"), plant, spec3) for k in range(3)]
    for n_param in (1, 2):
        plant = build_eg2(n_param, 0.5)
        cases += [(f"eg2-N{n_param}", build_eg2_spec(plant), plant, spec2),
                  (f"eg2-N{n_param}-swapped", plant, build_eg2_spec(plant), spec2)]
    rng = np.random.default_rng(7)
    for i in range(6):
        t, p = random_qfac(rng, 2, 2, A3), random_qfac(rng, 3, 2, A3)
        cases.append((f"random-qfac{i}", t, p, spec_for(A3, "02" if i % 2 else "1")))
        cases.append((f"random-mm{i}", random_mm(rng, 2, A3), random_mm(rng, 3, A3), spec_for(A3, "1")))
    return cases


CASES = controllability_cases()


class TestSweepsMatchReferences:
    @pytest.mark.parametrize("name,target,plant,spec", CASES, ids=[c[0] for c in CASES])
    def test_exhaustive_same_witness(self, name, target, plant, spec):
        got = check_controllability_exhaustive(lang(target), lang(plant), spec, 5)
        assert got == ref_controllability_exhaustive(lang(target), lang(plant), spec, 5)

    @pytest.mark.parametrize("name,target,plant,spec", CASES, ids=[c[0] for c in CASES])
    def test_same_precondition_list(self, name, target, plant, spec):
        got = check_decision_preconditions(lang(target), lang(plant), spec, 4)
        assert got == ref_decision_preconditions(lang(target), lang(plant), spec, 4)

    def test_failing_cases_are_covered(self):
        verdicts = [check_controllability_exhaustive(lang(t), lang(p), s, 5) for _, t, p, s in CASES]
        assert sum(not v.holds for v in verdicts) >= 10 and sum(v.holds for v in verdicts) >= 4
        assert len({len(v.word) for v in verdicts if not v.holds}) >= 3
        assert sum(bool(check_decision_preconditions(lang(t), lang(p), s, 4)) for _, t, p, s in CASES) >= 10

    @pytest.mark.parametrize("name,target,plant,spec", CASES[::3], ids=[c[0] for c in CASES[::3]])
    def test_same_approximation_problems(self, name, target, plant, spec):
        def in_closure(s):
            return s.count("1") <= 1

        T, P = lang(target), lang(plant)
        assert check_approximation_preconditions(T, P, in_closure, 4) == ref_approximation_preconditions(
            T, P, in_closure, 4)

    def test_k_equiv_same_counterexample(self):
        rng = np.random.default_rng(3)
        b1 = to_rblm(random_qfac(rng, 2, 2))
        b2 = to_rblm(retarget(random_qfac(rng, 2, 2), "s0", "b"))
        for x, y in ((b1, b1), (b1, b2), (b2, b1)):
            assert k_equiv_bruteforce(x, y, 5) == ref_k_equiv(x, y, 5)
        assert not k_equiv_bruteforce(b1, b2, 5).equivalent

    @pytest.mark.parametrize("kind", ["dfa", "mo-qfa", "mm-qfa", "qfac", "rblm"])
    def test_k_equiv_any_kind_matches_compiled(self, kind):
        rng = np.random.default_rng(10)
        a = five_kinds(rng)[kind]
        other = dfa_bounded_zeros(3) if kind == "dfa" else five_kinds(rng)[kind]
        for x, y in ((a, a), (a, other), (other, a), (a, to_rblm(a)), (to_rblm(other), a)):
            got, compiled = k_equiv_bruteforce(x, y, 5), k_equiv_bruteforce(to_rblm(x), to_rblm(y), 5)
            assert (got.equivalent, got.counterexample) == (compiled.equivalent, compiled.counterexample)
            if not got.equivalent:
                assert abs(got.f1 - compiled.f1) <= 1e-9 and abs(got.f2 - compiled.f2) <= 1e-9
        assert not k_equiv_bruteforce(a, other, 5).equivalent


def marking_outcome(fn, *args, **kw):
    """The result, or the history named by an isolation violation."""
    try:
        return fn(*args, **kw)
    except IsolationViolationError as e:
        return ("isolation", str(e).rsplit(" at ", 1)[1])


def crisp_target(n_param):
    def member(w):
        if "2" in w:
            return 0.0
        return 1.0 if len(w) < n_param or (len(w) == n_param and w.count("0") != n_param // 2) else 0.0

    return QuantumLanguage(member, A3, "crisp imbalance target")


def marking_cases():
    """(name, K, plant, spec, pr_K) covering every outcome: holds, conditions 1 and 2, isolation."""
    plant = build_egadd(4, 0.98, seed=0)
    P = lang(plant)
    values = [qfac_accept_prob(plant, tuple("0" * z + "1" * (4 - z))) for z in range(5)]
    smallest = min(v for v in values if v > 1e-9)
    wide = spec_for(A3, "01", cutpoint=smallest / 2, isolation=0.45 * smallest)
    narrow = spec_for(A3, "01", cutpoint=0.13, isolation=0.12)
    target = lang(build_spec_variant(plant, plant.classical_states[-1]))
    dented = QuantumLanguage(lambda w: 0.0 if w == ("0",) else crisp_target(4)(w), A3)
    escape = QuantumLanguage(lambda w: 1.0 if not w or w[0] != "0" and "2" not in w else 0.0, A3)
    cases = [
        ("fractional-K", target, P, wide, None),
        ("crisp-K", crisp_target(4), P, narrow, crisp_target(4)),
        ("crisp-K-own-closure", crisp_target(4), P, narrow, None),
        ("dented", dented, P, narrow, crisp_target(4)),
        ("escape", escape, P, narrow, escape),
        ("band-on-plant", target, P, narrow, None),
    ]
    rng = np.random.default_rng(4)
    for i in range(8):
        K, plant_r = lang(random_qfac(rng, 2, 2, A3)), lang(random_qfac(rng, 2, 2, A3))
        cut = float(rng.uniform(0.1, 0.6))
        spec = spec_for(A3, "1", cutpoint=cut, isolation=float(rng.uniform(0.01, 0.3)) * min(cut, 1 - cut))
        cases.append((f"random{i}", K, plant_r, spec, None))
    return cases


MARKING = marking_cases()


class TestMarkingMatchesReference:
    @pytest.mark.parametrize("name,K,plant,spec,pr_K", MARKING, ids=[c[0] for c in MARKING])
    def test_same_condition_word_or_isolation(self, name, K, plant, spec, pr_K):
        for horizon in (0, 1, 2):
            got = marking_outcome(check_marking_conditions, K, plant, spec, horizon, pr_K=pr_K)
            assert got == marking_outcome(ref_marking_conditions, K, plant, spec, horizon, pr_K=pr_K)

    def test_every_outcome_is_covered(self):
        outcomes = set()
        for _, K, plant, spec, pr_K in MARKING:
            got = marking_outcome(check_marking_conditions, K, plant, spec, 2, pr_K=pr_K)
            outcomes.add("isolation" if isinstance(got, tuple) else got.condition)
        assert outcomes == {None, 1, 2, "isolation"}

    def test_prefix_sups_equal_prefix_sup(self):
        rng = np.random.default_rng(9)
        one_letter = lang(random_qfac(rng, 2, 2, ("0",)))
        for K in (lang(random_qfac(rng, 2, 2, A3)), crisp_target(3), lang(build_eg2(2, 0.5)), one_letter):
            alphabet = K.alphabet
            for horizon in (0, 1, 2, 3):
                sups = prefix_maxima(list(K.levels(alphabet, 2 * horizon + 1)), horizon, len(alphabet))
                assert len(sups) == horizon + 2
                expected = [prefix_sup(K, s, horizon) for s in words_up_to(alphabet, horizon + 1)]
                assert np.max(np.abs(np.concatenate(sups) - expected)) <= 1e-12

    @pytest.mark.parametrize("symbols", [1, 2, 3])
    def test_strided_lift_equals_the_row_maximum(self, symbols):
        rng = np.random.default_rng(symbols)
        for depth in range(4):
            for length in range(depth, depth + 4):
                # quarter steps give ties between a word and its children
                levels = [rng.integers(0, 5, size=symbols ** n) / 4 for n in range(length + 1)]
                for lv in (levels, [rng.random(symbols ** n) for n in range(length + 1)]):
                    got, expected = prefix_maxima(lv, depth, symbols), ref_prefix_maxima(lv, depth, symbols)
                    assert len(got) == len(expected) == length + 1 - depth
                    assert all(np.array_equal(a, b) for a, b in zip(got, expected))


def closed_loop_outcome(fn, *args):
    """The result, or the message of an isolation violation."""
    try:
        return fn(*args)
    except IsolationViolationError as e:
        return ("isolation", str(e))


def band_spec(plant, uncontrollable="01"):
    """Isolation band centred at half the plant's smallest nonzero value on N-long 0/1 words."""
    n_param = len(plant.classical_states) - 2
    values = [qfac_accept_prob(plant, tuple("0" * z + "1" * (n_param - z))) for z in range(n_param + 1)]
    smallest = min(v for v in values if v > 1e-9)
    return spec_for(A3, uncontrollable, cutpoint=smallest / 2, isolation=0.45 * smallest)


def closed_loop_cases():
    """(name, supervisor factory, cutpoint, radius) on fixtures, lambda plants and custom supervisors."""
    cases = []
    for seed in (0, 1, 2):
        plant = build_egadd(4, 0.98, seed=seed)
        target = build_spec_variant(plant, plant.classical_states[-1])
        for band, spec in (("band", band_spec(plant)), ("narrow", spec_for(A3, "01", cutpoint=0.13, isolation=0.12))):
            cases.append((f"egadd-s{seed}-{band}", lambda p=plant, t=target, s=spec: synthesize_supervisor(
                lang(p), lang(t), s), spec.cutpoint, spec.isolation))
        spec = band_spec(plant, "1")
        cases.append((f"egadd-s{seed}-custom", lambda p=plant, s=spec: CustomSupervisor(
            lang(p), s, lambda h, e: 0.0 if e == "1" and len(h) >= 2 else 1.0), spec.cutpoint, spec.isolation))
    single = ControlSpec(("a",), frozenset(), frozenset({"a"}))
    for name, fn, cut, rho in (
        ("depth-one-block", lambda w: 1.0 if not w else 0.2, 0.4, 0.1),
        ("all-marked", lambda w: 1.0, 0.4, 0.2),
        ("decay", lambda w: 0.7 ** len(w), 0.3, 0.05),
        ("band-at-depth-two", lambda w: (1.0, 0.2, 0.38, 0.1)[min(len(w), 3)], 0.4, 0.1),
    ):
        cases.append((f"lambda-{name}", lambda fn=fn: synthesize_supervisor(
            QuantumLanguage(fn, ("a",)), QuantumLanguage(fn, ("a",)), single), cut, rho))
    decay = QuantumLanguage(lambda w: 0.9 ** len(w), ("a",))
    for name, below in (("custom-near-tol", 0.95e-9), ("custom-beyond-tol", 1.05e-9)):
        cases.append((f"lambda-{name}", lambda below=below: CustomSupervisor(
            decay, single, lambda h, e: decay((*h, e)) - below), 0.5, 0.1))
    closed = ControlSpec(("a",), frozenset({"a"}), frozenset())
    cases.append(("lambda-band-behind-disabled", lambda: synthesize_supervisor(
        QuantumLanguage(lambda w: 0.4 if w else 1.0, ("a",)), QuantumLanguage(lambda w: 0.0 if w else 1.0, ("a",)),
        closed), 0.35, 0.1))
    two = spec_for(("a", "b"), "a")
    plant = QuantumLanguage(lambda w: 0.9 ** w.count("a") * (0.0 if w[-2:] == ("b", "b") else 1.0), ("a", "b"))
    cases.append(("lambda-two-symbols", lambda: synthesize_supervisor(
        plant, QuantumLanguage(lambda w: 0.5 ** len(w), ("a", "b")), two), 0.3, 0.1))
    rng = np.random.default_rng(13)
    for i in range(3):
        p, t = random_qfac(rng, 2, 2, ("b", "a")), random_qfac(rng, 2, 2, ("a", "b"))
        cases.append((f"unsorted-plant{i}", lambda p=p, t=t: CustomSupervisor(
            lang(p), two, lambda h, e, t=lang(t): t((*h, e))), 0.5, 0.05))
        cases.append((f"unsorted-policy{i}", lambda p=p, t=t: synthesize_supervisor(lang(p), lang(t), two), 0.5, 0.05))
    return cases


LOOPS = closed_loop_cases()


class TestClosedLoopMatchesReference:
    @pytest.mark.parametrize("name,make,cut,rho", LOOPS, ids=[c[0] for c in LOOPS])
    def test_levels_are_the_min_recursion(self, name, make, cut, rho):
        loop = ClosedLoop(make())
        alphabet = loop.supervisor.plant.alphabet
        got = list(loop.levels(4))
        assert [v.size for v in got] == [len(alphabet) ** n for n in range(5)]
        expected = [loop.value(w) for w in words_upto(alphabet, 4)]
        assert np.max(np.abs(np.concatenate(got) - expected)) <= 1e-12

    @pytest.mark.parametrize("name,make,cut,rho", LOOPS, ids=[c[0] for c in LOOPS])
    def test_same_nonblocking_verdict_or_isolation_error(self, name, make, cut, rho):
        for horizon in range(6 if name.startswith("egadd") else 4):
            got = closed_loop_outcome(check_nonblocking, ClosedLoop(make()), cut, rho, horizon)
            assert got == closed_loop_outcome(ref_nonblocking, ClosedLoop(make()), cut, rho, horizon)

    @pytest.mark.parametrize("name,make,cut,rho", LOOPS, ids=[c[0] for c in LOOPS])
    def test_same_violation_list(self, name, make, cut, rho):
        for horizon in range(5):
            assert check_admissible(make(), horizon) == ref_admissible(make(), horizon)

    def test_every_outcome_is_covered(self):
        outcomes = {name: closed_loop_outcome(check_nonblocking, ClosedLoop(make()), cut, rho, 3)
                    for name, make, cut, rho in LOOPS}
        assert {o if isinstance(o, bool) else o[0] for o in outcomes.values()} == {True, False, "isolation"}
        band = "plant value {} inside the isolation band at {}"
        assert outcomes["lambda-band-at-depth-two"] == ("isolation", band.format(0.38, "aa"))
        assert outcomes["lambda-band-behind-disabled"] == ("isolation", band.format(0.4, "a"))
        violations = {name: check_admissible(make(), 3) for name, make, _, _ in LOOPS}
        custom = {name for name in violations if "custom" in name or "unsorted-plant" in name}
        assert sum(bool(violations[name]) for name in custom) >= 4
        assert not any(violations[name] for name in violations.keys() - custom)
        assert not violations["lambda-custom-near-tol"] and len(violations["lambda-custom-beyond-tol"]) == 4

    def test_unsorted_plant_alphabet_order(self):
        make = {name: make for name, make, *_ in LOOPS}["unsorted-policy0"]
        loop = ClosedLoop(make())
        assert loop.supervisor.plant.alphabet == ("b", "a")
        _, first = loop.levels(1)
        assert first.tolist() == [loop.value(("b",)), loop.value(("a",))]


class TestLevelMargin:
    """A level value may sit a rounding gap below its per-word value, so a
    pair whose level value falls short of the threshold by less than
    ``LEVEL_MARGIN`` is still re-decided word by word."""

    def test_admissible_pair_just_below_the_threshold(self):
        two, tol, enabled = ("a", "b"), SWEEP_TOL, 0.5
        feasible = enabled + tol + 2e-11  # per word, a violation

        def value(w):
            return feasible if w else 1.0

        def low_levels(alphabet, horizon):  # 5e-11 below every per-word value
            return (np.full(len(alphabet) ** n, value((None,) * n) - 5e-11) for n in range(horizon + 1))

        plant = QuantumLanguage(value, two, "just above", low_levels)
        supervisor = CustomSupervisor(plant, spec_for(two, "a"), lambda s, e: enabled)
        for p in islice(plant.levels(two, 3), 1, None):
            assert (p <= enabled + tol).all() and (p > enabled + tol - LEVEL_MARGIN).all()
        got = check_admissible(supervisor, 2)
        assert got == ref_admissible(supervisor, 2, tol)
        assert [(v.word, v.symbol, v.feasible) for v in got] == [
            (s, "a", feasible) for s in words_upto(two, 2)]


NEGATIVE = {
    "words_upto": lambda: words_upto(A3, -1),
    "levels": lambda: levels(dfa_bounded_zeros(1), ("0", "1"), -1),
    "language-levels": lambda: QuantumLanguage(lambda w: 1.0, A3).levels(A3, -1),
    "prefix_sup": lambda: prefix_sup(QuantumLanguage(lambda w: 1.0, A3), (), -1),
    "exhaustive": lambda: check_controllability_exhaustive(*egadd_langs(), spec_for(A3, "01"), -1),
    "preconditions": lambda: check_decision_preconditions(*egadd_langs(), spec_for(A3, "01"), -1),
    "approximation": lambda: check_approximation_preconditions(*egadd_langs(), lambda s: True, -1),
    "marking": lambda: check_marking_conditions(*egadd_langs(), spec_for(A3, "01", cutpoint=0.1, isolation=0.05), -1),
    "nonblocking": lambda: check_nonblocking(egadd_loop(), 0.1, 0.05, -1),
    "admissible": lambda: check_admissible(egadd_loop().supervisor, -1),
    "closed-loop-levels": lambda: egadd_loop().levels(-1),
    "enablement-levels": lambda: egadd_loop().supervisor.enablement_levels(A3, -1),
    "k_equiv": lambda: k_equiv_bruteforce(*[to_rblm(build_eg2(1, 0.5))] * 2, -1),
}


def egadd_langs():
    plant = build_egadd(4, 0.98, seed=0)
    return lang(build_spec_variant(plant, plant.classical_states[-1])), lang(plant)


def egadd_loop():
    target, plant = egadd_langs()
    return ClosedLoop(synthesize_supervisor(plant, target, spec_for(A3, "01")))


class TestNegativeHorizon:
    @pytest.mark.parametrize("entry", sorted(NEGATIVE))
    def test_refused(self, entry):
        with pytest.raises(ValueError, match="non-negative"):
            NEGATIVE[entry]()

    @pytest.mark.parametrize("argv", [
        ["check-marking", "{plant}", "{target}", "--lambda", "0.13", "--rho", "0.12", "--horizon", "-1",
         "--uncontrollable", "0,1"],
        ["decide-controllability", "{plant}", "{target}", "--uncontrollable", "0,1", "--oracle-horizon", "-1"],
        ["equiv", "{plant}", "{target}", "--brute-k", "-1"],
    ], ids=["check-marking", "decide-controllability", "equiv"])
    def test_cli_exit_two(self, capsys, tmp_path, argv):
        plant = build_egadd(4, 0.98, seed=0)
        paths = {"plant": tmp_path / "plant.json", "target": tmp_path / "target.json"}
        save(plant, paths["plant"])
        save(build_spec_variant(plant, plant.classical_states[-1]), paths["target"])
        assert main([a.format(**paths) for a in argv]) == 2
        assert "non-negative" in capsys.readouterr().out


class TestControlSpecAlphabet:
    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            ControlSpec(("0", "0", "1"), frozenset({"1"}), frozenset({"0"}))

    def test_alphabet_stored_as_tuple(self):
        spec = ControlSpec(["0", "1"], frozenset({"1"}), frozenset({"0"}))
        assert spec.alphabet == ("0", "1")


# --------------------------------------------------------------------------
# The measure-many level kernel on the kept step table, against the kernel
# on the raw unitaries that it replaced.


class TestMmLevelsStepTable:
    @pytest.mark.parametrize("n,lam", [(1, 0.5), (2, 0.5), (3, 0.3), (5, 0.5), (6, 0.9)])
    def test_equal_to_the_reference_on_eg2(self, n, lam):
        m = build_eg2(n, lam)
        for alphabet in (m.alphabet, m.alphabet[::-1], m.alphabet[:1]):
            for got, want in zip(mm_levels(m, alphabet, 8), ref_mm_levels(m, alphabet, 8), strict=True):
                assert np.array_equal(got, want)

    def test_close_to_the_reference_on_random_automata(self):
        rng = np.random.default_rng(20)
        for n in (1, 2, 3, 5):
            m = random_mm(rng, n, A3)
            got = np.concatenate(list(mm_levels(m, A3, 6)))
            assert np.max(np.abs(got - np.concatenate(list(ref_mm_levels(m, A3, 6))))) <= 1e-12


# --------------------------------------------------------------------------
# The hybrid block kernel: blocks of quantum states per live classical
# state, against the column-grouped kernel it replaced and the evaluator.

#: Moves of a hybrid over A3 with a non-accepting absorbing sink; s2 accepts
#: nowhere but reaches s0, so s0, s1 and s2 are live and the sink is not.
SINK_MOVES = {"s0": ("s1", "sink", "s0"), "s1": ("s2", "s0", "sink"),
              "s2": ("s0", "s2", "s1"), "sink": ("sink", "sink", "sink")}
SINK_ACCEPTING = {"s0": {0}, "s1": {1, 2}}


def kernel_cases():
    rng = np.random.default_rng(18)
    return {
        "sink": hand_qfac(rng, 3, A3, SINK_MOVES, SINK_ACCEPTING),
        "dead-initial": hand_qfac(rng, 3, A3, SINK_MOVES, SINK_ACCEPTING, initial="sink"),
        # u is live and unreachable, v accepts and is unreachable
        "unreachable": hand_qfac(rng, 2, A3, {"s0": ("s1", "s0", "s1"), "s1": ("s0", "s1", "s0"),
                                               "u": ("s0", "u", "s1"), "v": ("v", "v", "v")},
                                 {"s1": {0}, "v": {1}}),
        "all-live": random_live_qfac(rng, 4, 3, A3),
        "mo-qfa": qfac_from_mo(random_mo(rng, 3, A3)),
        "dfa": qfac_from_dfa(random_dfa(rng, 4, A3)),
    }


def live_word_counts(m, alphabet, horizon):
    """The number of words of each length whose classical state is live."""
    live = _live_states(m)
    counts = [0] * (horizon + 1)
    for w in words_upto(alphabet, horizon):
        s = m.initial_classical
        for a in w:
            s = m.transitions[(s, a)]
        counts[len(w)] += s in live
    return counts


class TestQfacBlockKernel:
    @pytest.mark.parametrize("alphabet", [("2", "0", "1"), ("1", "0")], ids=["permuted", "subset"])
    @pytest.mark.parametrize("case", sorted(kernel_cases()))
    def test_matches_reference_and_evaluator(self, case, alphabet):
        m = kernel_cases()[case]
        got = list(qfac_levels(m, alphabet, 8))
        expected = np.array([qfac_accept_prob(m, w) for w in words_upto(alphabet, 8)])
        for ref in (np.concatenate(list(ref_qfac_levels(m, alphabet, 8))), expected):
            assert np.max(np.abs(np.concatenate(got) - ref)) <= 1e-12
        for h in range(9):
            shorter = list(qfac_levels(m, alphabet, h))
            assert len(shorter) == h + 1
            assert all(np.array_equal(a, b) for a, b in zip(shorter, got))

    def test_dead_initial_state_reads_zero(self):
        m = kernel_cases()["dead-initial"]
        assert all(not v.any() for v in qfac_levels(m, A3, 6))

    @pytest.mark.parametrize("case", ["sink", "unreachable", "all-live"])
    def test_only_live_words_are_carried(self, case, monkeypatch):
        m = kernel_cases()[case]
        reduced, original = [], models.projected_norms_sq

        def recording(p, vs):
            reduced.append(vs.shape[1])
            return original(p, vs)

        counts = []
        monkeypatch.setattr(models, "projected_norms_sq", recording)
        for _ in qfac_levels(m, A3, 6):
            counts.append(sum(reduced))
            reduced.clear()
        assert counts == live_word_counts(m, A3, 6)

    def test_peak_memory_at_most_the_reference(self):
        m = random_live_qfac(np.random.default_rng(4), 4, 8, A3)
        assert _live_states(m) == set(m.classical_states)

        def peak(kernel):
            tracemalloc.start()
            try:
                list(kernel(m, A3, 10))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(qfac_levels) <= peak(ref_qfac_levels)


class TestLiveStates:
    def test_chain_into_accepting_state(self):
        m = hand_qfac(np.random.default_rng(1), 2, ("a", "b"),
                      {"s0": ("s1", "s0"), "s1": ("s2", "s1"), "s2": ("s2", "s2")}, {"s2": {0}})
        assert _live_states(m) == {"s0", "s1", "s2"}

    def test_absorbing_sink_is_not_live(self):
        m = kernel_cases()["sink"]
        assert _live_states(m) == {"s0", "s1", "s2"}

    def test_live_through_a_symbol_outside_the_sweep(self):
        # s0 reaches the accepting state only by "b"; a sweep over ("a",) keeps it live
        m = hand_qfac(np.random.default_rng(2), 2, ("a", "b"), {"s0": ("s0", "acc"), "acc": ("acc", "acc")},
                      {"acc": {1}})
        assert _live_states(m) == {"s0", "acc"}
        got = np.concatenate(list(qfac_levels(m, ("a",), 5)))
        assert np.array_equal(got, np.zeros(6))
        assert np.array_equal(got, np.concatenate(list(ref_qfac_levels(m, ("a",), 5))))
        got = np.concatenate(list(qfac_levels(m, ("a", "b"), 5)))
        expected = [qfac_accept_prob(m, w) for w in words_upto(("a", "b"), 5)]
        assert np.max(np.abs(got - expected)) <= 1e-12 and got.any()

    def test_dfa_without_accepting_state(self, monkeypatch):
        d = Dfa(("q0", "q1"), ("a", "b"), {("q0", "a"): "q1", ("q0", "b"): "q0", ("q1", "a"): "q0",
                                           ("q1", "b"): "q1"}, "q0", frozenset())
        m = qfac_from_dfa(d)
        assert _live_states(m) == frozenset()
        monkeypatch.setattr(models, "projected_norms_sq", lambda *a: pytest.fail("a block was carried"))
        assert [v.tolist() for v in qfac_levels(m, ("a", "b"), 3)] == [[0.0] * 2 ** n for n in range(4)]

    def test_memoized_per_automaton(self):
        m = kernel_cases()["sink"]
        assert m._memo(_live_states) is m._memo(_live_states)


class TestQfacAcceptProbStopsAtDeadState:
    @pytest.mark.parametrize("plant", [build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)], ids=["eg1", "egadd"])
    def test_bit_identical_to_the_full_loop(self, plant):
        assert _live_states(plant) < set(plant.classical_states)
        for w in words_upto(plant.alphabet, 8):
            assert qfac_accept_prob(plant, w) == ref_qfac_accept_prob(plant, w)

    def test_bit_identical_on_live_hybrids_and_embeddings(self):
        rng = np.random.default_rng(19)
        cases = [random_live_qfac(rng, k, d, A3) for k, d in ((1, 2), (3, 3), (4, 5))]
        cases += [qfac_from_mo(random_mo(rng, d, A3)) for d in (1, 4)]
        cases += [qfac_from_dfa(random_dfa(rng, k, A3)) for k in (2, 5)]
        for m in cases:
            for w in words_upto(A3, 6):
                assert qfac_accept_prob(m, w) == ref_qfac_accept_prob(m, w)

    def test_unknown_symbol_after_the_dead_state_raises(self):
        m = kernel_cases()["sink"]
        assert qfac_accept_prob(m, ("1", "0")) == 0.0
        with pytest.raises(ValueError, match="not in alphabet"):
            qfac_accept_prob(m, ("1", "z"))
