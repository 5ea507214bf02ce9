import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdes import equivalence, supervisory
from qdes.blm import Rblm, to_rblm
from qdes.equivalence import minimize
from qdes.models import Qfac
from qdes.fixtures import build_eg1, build_eg2, build_eg2_spec, build_egadd, build_spec_variant
from qdes.supervisory import (
    ClosedLoop,
    ControlSpec,
    CustomSupervisor,
    CutpointAmbiguityError,
    IsolationResult,
    IsolationViolationError,
    QuantumLanguage,
    check_admissible,
    check_approximation_preconditions,
    check_controllability_exhaustive,
    check_decision_preconditions,
    check_marking_conditions,
    check_nonblocking,
    closed_loop_marked,
    cutpoint_member,
    decide_controllability,
    isolated_classify,
    marked_language,
    prefix_sup,
    synthesize_supervisor,
)

from helpers import words_up_to


ALPHABET3 = ("0", "1", "2")


def spec3(uncontrollable=("0", "1"), **kw):
    unc = frozenset(uncontrollable)
    return ControlSpec(ALPHABET3, frozenset(ALPHABET3) - unc, unc, **kw)


def spec2(uncontrollable=("0",), **kw):
    unc = frozenset(uncontrollable)
    return ControlSpec(("0", "1"), frozenset(("0", "1")) - unc, unc, **kw)


def decay_pair(n_param=2, lam=0.5):
    plant_aut = build_eg2(n_param, lam)
    target_aut = build_eg2_spec(plant_aut)
    return (
        plant_aut,
        target_aut,
        QuantumLanguage.from_automaton(plant_aut),
        QuantumLanguage.from_automaton(target_aut),
    )


def halves_pair(n_param=2, eps=0.95):
    plant_aut = build_eg1(n_param, eps, seed=0)
    target_aut = build_spec_variant(plant_aut, f"s{2 * n_param + 1}")
    return (
        plant_aut,
        target_aut,
        QuantumLanguage.from_automaton(plant_aut),
        QuantumLanguage.from_automaton(target_aut),
    )


def imbalance_pair(n_param=4, eps=0.98):
    plant_aut = build_egadd(n_param, eps, seed=0)
    target_aut = build_spec_variant(plant_aut, f"s{n_param + 1}")
    return (
        plant_aut,
        target_aut,
        QuantumLanguage.from_automaton(plant_aut),
        QuantumLanguage.from_automaton(target_aut),
    )


class TestCutpoint:
    def test_strictness_at_zero(self):
        L = QuantumLanguage(lambda w: 0.0, ("a",))
        assert not cutpoint_member(L, ("a",), 0.0)

    def test_decay_fixture_memberships(self):
        _, _, plant, _ = decay_pair()
        assert cutpoint_member(plant, tuple("00"), 0.5)
        assert not cutpoint_member(plant, tuple("000"), 0.5)

    def test_ambiguity_band_flagged(self):
        L = QuantumLanguage(lambda w: 0.5, ("a",))
        with pytest.raises(CutpointAmbiguityError):
            cutpoint_member(L, (), 0.5 - 1e-12, ambiguous_tol=1e-9)

    def test_isolated_classify(self):
        mk = lambda v: QuantumLanguage(lambda w: v, ("a",))
        assert isolated_classify(mk(1.0), (), 0.5, 0.3) is IsolationResult.IN
        assert isolated_classify(mk(0.0), (), 0.5, 0.3) is IsolationResult.OUT
        assert isolated_classify(mk(0.5), (), 0.5, 0.3) is IsolationResult.VIOLATION
        with pytest.raises(ValueError):
            isolated_classify(mk(0.5), (), 0.5, 0.0)

    @pytest.mark.parametrize("cutpoint", [-0.5, 1.0, 1.5, float("nan")])
    def test_cutpoint_outside_the_unit_interval_refused(self, cutpoint):
        # At -0.5 with radius 0.1, a zero plant value lies above the band:
        # isolated_classify would answer IN and marked_language would mark it.
        zero = QuantumLanguage(lambda w: 0.0, ("a",))
        loop = ClosedLoop(CustomSupervisor(zero, ControlSpec(("a",), {"a"}, set()), lambda s, e: 0.0))
        refusals = [
            lambda: cutpoint_member(zero, (), cutpoint),
            lambda: isolated_classify(zero, (), cutpoint, 0.1),
            lambda: marked_language(zero, cutpoint, 0.1),
            lambda: closed_loop_marked(loop, cutpoint, 0.1),
            lambda: check_nonblocking(loop, cutpoint, 0.1, 2),
            lambda: ControlSpec(("a",), {"a"}, set(), cutpoint=cutpoint),
        ]
        for refuse in refusals:
            with pytest.raises(ValueError, match="cut-point must lie in"):
                refuse()


class TestPrefixSup:
    def test_horizon_zero_is_the_value(self):
        _, _, plant, _ = decay_pair()
        assert prefix_sup(plant, tuple("00"), 0) == plant(tuple("00"))

    def test_full_value_at_the_root(self):
        _, _, plant, _ = decay_pair()
        assert prefix_sup(plant, (), 3) == 1.0

    def test_monotone_language_is_a_fixed_point(self):
        # First certify monotonicity to depth 6, then the sup equality.
        _, _, plant, _ = imbalance_pair()
        for w in words_up_to(ALPHABET3, 5):
            for sym in ALPHABET3:
                assert plant((*w, sym)) <= plant(w) + 1e-12
        for w in words_up_to(ALPHABET3, 2):
            assert abs(prefix_sup(plant, w, 3) - plant(w)) <= 1e-12


class TestSupervisorPolicy:
    def test_two_case_formula(self):
        _, _, plant, target = decay_pair()
        policy = synthesize_supervisor(plant, target, spec2(uncontrollable=("0",)))
        for s in words_up_to(("0", "1"), 3):
            assert policy.enablement(s, "0") == plant((*s, "0"))
            assert policy.enablement(s, "1") == target((*s, "1"))

    def test_fully_disabled_event(self):
        _, _, plant, target = halves_pair()
        policy = synthesize_supervisor(plant, target, spec3(uncontrollable=("0", "1")))
        for s in ((), ("0",), tuple("01")):
            assert policy.enablement(s, "2") == 0.0

    def test_unknown_event(self):
        _, _, plant, target = decay_pair()
        policy = synthesize_supervisor(plant, target, spec2())
        with pytest.raises(ValueError):
            policy.enablement((), "x")


class TestClosedLoop:
    def test_empty_history_is_one(self):
        _, _, plant, target = decay_pair()
        loop = ClosedLoop(synthesize_supervisor(plant, target, spec2()))
        assert loop.value(()) == 1.0

    def test_single_step_unrolls(self):
        _, _, plant, target = decay_pair()
        policy = synthesize_supervisor(plant, target, spec2())
        loop = ClosedLoop(policy)
        for sym in ("0", "1"):
            expected = min(1.0, plant((sym,)), policy.enablement((), sym))
            assert loop.value((sym,)) == expected

    def test_monotone_and_dominated_exactly(self):
        _, _, plant, target = imbalance_pair()
        loop = ClosedLoop(synthesize_supervisor(plant, target, spec3()))
        for s in words_up_to(ALPHABET3, 4):
            for sym in ALPHABET3:
                assert loop.value((*s, sym)) <= loop.value(s)
                assert loop.value((*s, sym)) <= plant((*s, sym))

    @pytest.mark.parametrize("pair", [decay_pair, halves_pair, imbalance_pair])
    def test_supervised_language_equals_target(self, pair):
        plant_aut, target_aut, plant, target = pair()
        if plant_aut.alphabet == ("0", "1"):
            spec = spec2()
        else:
            spec = spec3()
        loop = ClosedLoop(synthesize_supervisor(plant, target, spec))
        for s in words_up_to(plant.alphabet, 4):
            assert abs(loop.value(s) - target(s)) <= 1e-9


class TestAdmissibility:
    def test_synthesized_policy_is_admissible(self):
        _, _, plant, target = decay_pair()
        policy = synthesize_supervisor(plant, target, spec2())
        assert check_admissible(policy, horizon=4) == []

    def test_blunt_violation_at_the_root(self):
        _, _, plant, _ = decay_pair()
        sup = CustomSupervisor(plant, spec2(), lambda s, sym: 0.0)
        violations = check_admissible(sup, horizon=1)
        assert violations and violations[0].word == () and violations[0].symbol == "0"
        assert violations[0].feasible > violations[0].enabled

    def test_deep_violation_needs_the_horizon(self):
        _, _, plant, _ = decay_pair()

        def enable(s, sym):
            return 0.0 if len(s) == 3 else 1.0

        sup = CustomSupervisor(plant, spec2(), enable)
        assert check_admissible(sup, horizon=2) == []
        found = check_admissible(sup, horizon=3)
        assert found and all(len(v.word) == 3 for v in found)


class TestControllabilityExhaustive:
    def test_plant_controls_itself(self):
        _, _, plant, _ = decay_pair()
        assert check_controllability_exhaustive(plant, plant, spec2(), horizon=4).holds

    def test_decay_instance_holds(self):
        _, _, plant, target = decay_pair()
        assert check_controllability_exhaustive(target, plant, spec2(), horizon=6).holds

    def test_swapped_roles_violate_shallowly(self):
        # Making the killed symbol uncontrollable breaks the condition
        # within two steps.
        _, _, plant, target = decay_pair()
        res = check_controllability_exhaustive(target, plant, spec2(uncontrollable=("1",)), horizon=6)
        assert not res.holds
        assert len(res.word) <= 2 and res.symbol == "1"
        assert res.lhs > res.rhs + 1e-9


class TestDecideControllability:
    def test_matches_oracle_on_worked_instances(self):
        for pair, spec in (
            (halves_pair, spec3()),
            (imbalance_pair, spec3()),
            (decay_pair, spec2()),
        ):
            plant_aut, target_aut, plant, target = pair()
            assert check_decision_preconditions(target, plant, spec, horizon=4) == []
            decided = decide_controllability(target_aut, plant_aut, spec)
            oracle = check_controllability_exhaustive(target, plant, spec, horizon=6)
            assert decided.holds and oracle.holds

    def test_engineered_violation_found(self):
        plant_aut, target_aut, plant, target = decay_pair()
        spec = spec2(uncontrollable=("1",))
        decided = decide_controllability(target_aut, plant_aut, spec)
        oracle = check_controllability_exhaustive(target, plant, spec, horizon=6)
        assert not decided.holds and not oracle.holds
        assert (decided.word, decided.symbol) == (oracle.word, oracle.symbol) and decided.symbol == "1"
        # The witness is reported in the terms of the min-inequality.
        assert decided.lhs > decided.rhs + 1e-9
        assert decided.lhs == oracle.lhs and decided.rhs == oracle.rhs

    def test_zero_target_holds(self):
        plant_aut = build_eg2(2, 0.5)
        zero = to_rblm(plant_aut)
        zero = Rblm(zero.alphabet, zero.pi, zero.matrices, np.zeros_like(zero.eta))
        for unc in ("0", "1"):
            assert decide_controllability(zero, plant_aut, spec2(uncontrollable=(unc,))).holds

    def test_no_uncontrollable_event_holds_without_exploring(self, monkeypatch):
        plant_aut, target_aut, _, _ = halves_pair()

        def refuse(*args):
            raise AssertionError("explored with no uncontrollable event")

        monkeypatch.setattr(supervisory, "explore_span", refuse)
        assert decide_controllability(target_aut, plant_aut, spec3(uncontrollable=())).holds

    def test_spec_alphabet_mismatch(self):
        plant_aut, target_aut, _, _ = decay_pair()
        bad_spec = ControlSpec(("0",), frozenset(), frozenset({"0"}))
        with pytest.raises(ValueError):
            decide_controllability(target_aut, plant_aut, bad_spec)

    def test_preconditions_reported(self):
        _, _, plant, _ = decay_pair()
        growing = QuantumLanguage(lambda w: 1.0 - 0.9 ** (len(w) + 1), ("0", "1"))
        problems = check_decision_preconditions(growing, plant, spec2(), horizon=2)
        assert any("monotone" in p for p in problems)

    def test_mixed_model_kinds(self):
        # Measure-many plant against a crisp hybrid target (all-ones words).
        from qdes.fixtures import dfa_bounded_zeros
        from qdes.models import Dfa, qfac_from_dfa

        plant_aut = build_eg2(2, 0.5)
        ones_only = Dfa(
            states=("go", "dead"),
            alphabet=("0", "1"),
            transitions={
                ("go", "1"): "go",
                ("go", "0"): "dead",
                ("dead", "0"): "dead",
                ("dead", "1"): "dead",
            },
            initial="go",
            accepting=frozenset({"go"}),
        )
        target_aut = qfac_from_dfa(ones_only)
        plant = QuantumLanguage.from_automaton(plant_aut)
        target = QuantumLanguage.from_automaton(target_aut)
        good = spec2(uncontrollable=("1",))
        assert check_decision_preconditions(target, plant, good, horizon=4) == []
        assert decide_controllability(target_aut, plant_aut, good).holds
        assert check_controllability_exhaustive(target, plant, good, horizon=5).holds
        bad = spec2(uncontrollable=("0",))
        decided = decide_controllability(target_aut, plant_aut, bad)
        oracle = check_controllability_exhaustive(target, plant, bad, horizon=5)
        assert not decided.holds and not oracle.holds and decided.symbol == "0"


def large_pair(family, n_param, eps):
    build = build_eg1 if family == "eg1" else build_egadd
    plant_aut = build(n_param, eps, seed=0)
    return plant_aut, build_spec_variant(plant_aut, plant_aut.classical_states[-1])


@pytest.mark.parametrize("family,n_param,eps", [("eg1", 2, 0.5), ("egadd", 4, 0.5), ("eg1", 3, 0.5)])
class TestFormerlyInfeasibleSizes:
    """Compiled sizes n = 96, 216 and 288, whose dense products need 5 GB and more per matrix."""

    def test_holds_like_the_oracle(self, family, n_param, eps):
        plant_aut, target_aut = large_pair(family, n_param, eps)
        plant, target = QuantumLanguage.from_automaton(plant_aut), QuantumLanguage.from_automaton(target_aut)
        assert decide_controllability(target_aut, plant_aut, spec3()).holds
        assert check_controllability_exhaustive(target, plant, spec3(), horizon=4).holds

    def test_cut_transition_gives_the_oracle_witness(self, family, n_param, eps):
        plant_aut, target_aut = large_pair(family, n_param, eps)
        dead = plant_aut.classical_states[-1]
        cut = dataclasses.replace(target_aut, transitions={**target_aut.transitions, ("s1", "0"): dead})
        decided = decide_controllability(cut, plant_aut, spec3())
        oracle = check_controllability_exhaustive(
            QuantumLanguage.from_automaton(cut), QuantumLanguage.from_automaton(plant_aut), spec3(), horizon=4
        )
        assert not oracle.holds and not decided.holds
        assert (decided.word, decided.symbol) == (oracle.word, oracle.symbol)


class TestKeptOnTheAutomaton:
    """Target and plant keep their minimal machines, so a repeated decision
    only explores, and a changed copy is an automaton of its own."""

    def test_changed_copies_get_their_own_machine_and_verdict(self):
        plant_aut, target_aut = large_pair("eg1", 2, 0.5)
        assert decide_controllability(target_aut, plant_aut, spec3()).holds
        dead = plant_aut.classical_states[-1]
        transitions = {**target_aut.transitions, ("s1", "0"): dead}
        replaced = dataclasses.replace(target_aut, transitions=transitions)
        retargeted = Qfac(target_aut.classical_states, target_aut.alphabet, target_aut.initial_classical,
                          target_aut.initial_quantum, transitions, target_aut.unitaries, target_aut.accepting)
        oracle = check_controllability_exhaustive(
            QuantumLanguage.from_automaton(replaced), QuantumLanguage.from_automaton(plant_aut), spec3(), horizon=4
        )
        assert not oracle.holds
        for cut in (replaced, retargeted):
            assert minimize(cut) is not minimize(target_aut)
            decided = decide_controllability(cut, plant_aut, spec3())
            assert (decided.holds, decided.word, decided.symbol) == (False, oracle.word, oracle.symbol)
        assert decide_controllability(target_aut, plant_aut, spec3()).holds

    def test_a_second_decision_only_explores(self, monkeypatch):
        plant_aut, target_aut = large_pair("eg1", 2, 0.5)
        kernel, calls = equivalence.explore_span, []

        def counting(*args, **kwargs):
            calls.append(args)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(equivalence, "explore_span", counting)
        monkeypatch.setattr(supervisory, "explore_span", counting)
        first = decide_controllability(target_aut, plant_aut, spec3())
        assert len(calls) == 5  # forward and backward for each automaton, then the decision
        assert decide_controllability(target_aut, plant_aut, spec3()) == first
        assert len(calls) == 6


class TestWitnessOrder:
    """The witness is the oracle's: the shortlex-least failing history in
    the spec's alphabet order, then the first failing event in sorted order."""

    def cut_against_oracle(self, cuts, spec):
        plant_aut = build_eg1(2, 0.95, seed=1)
        dead = plant_aut.classical_states[-1]
        target_aut = build_spec_variant(plant_aut, dead)
        cut = dataclasses.replace(target_aut, transitions={**target_aut.transitions, **{c: dead for c in cuts}})
        decided = decide_controllability(cut, plant_aut, spec)
        oracle = check_controllability_exhaustive(
            QuantumLanguage.from_automaton(cut), QuantumLanguage.from_automaton(plant_aut), spec, horizon=5
        )
        assert not oracle.holds and decided == oracle
        return decided.word, decided.symbol

    def test_an_earlier_history_for_a_later_event(self):
        # Event "0" first fails after "00", event "1" already at the root.
        assert self.cut_against_oracle([("s2", "0"), ("s0", "1")], spec3()) == ((), "1")

    def test_both_events_at_the_root(self):
        assert self.cut_against_oracle([("s0", "0"), ("s0", "1")], spec3()) == ((), "0")

    def test_reversed_spec_alphabet(self):
        spec = ControlSpec(("2", "1", "0"), frozenset({"2"}), frozenset({"0", "1"}))
        assert self.cut_against_oracle([("s1", "0")], spec) == (("1",), "0")


def test_decision_never_materializes_a_product():
    # A dense product side of eg1 N=3 (n = 288) has 165 888 states, more
    # than 400 GB per matrix; the minimized operator form needs a few MB.
    plant_aut, target_aut = large_pair("eg1", 3, 0.5)
    tracemalloc.start()
    try:
        assert decide_controllability(target_aut, plant_aut, spec3()).holds
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


class TestApproximateControl:
    def test_cutpoint_bracketing_on_halves_instance(self):
        # Approximate-control guarantee: with the target accepted at an
        # isolated upper cut-point, the supervised language's upper
        # cut-point set sits inside the specification set, which sits
        # inside the lower cut-point set.
        _, _, plant, target = halves_pair()
        spec = spec3(cutpoint=0.95, isolation=0.03, upper_cutpoint=0.96)

        def member(s):
            return isolated_classify(target, s, spec.upper_cutpoint, spec.isolation) is IsolationResult.IN

        assert check_approximation_preconditions(target, plant, member, horizon=4) == []
        assert check_controllability_exhaustive(target, plant, spec, horizon=4).holds
        loop_lang = ClosedLoop(synthesize_supervisor(plant, target, spec)).language()
        for s in words_up_to(ALPHABET3, 4):
            if cutpoint_member(loop_lang, s, spec.upper_cutpoint):
                assert member(s)
            if member(s):
                assert cutpoint_member(loop_lang, s, spec.cutpoint)

    def test_precondition_violations_reported(self):
        _, _, plant, _ = decay_pair()
        too_big = QuantumLanguage(lambda w: 1.0, ("0", "1"))
        problems = check_approximation_preconditions(too_big, plant, lambda s: False, horizon=2)
        assert any("exceeds" in p for p in problems)
        problems = check_approximation_preconditions(
            QuantumLanguage(lambda w: 0.0, ("0", "1")), plant, lambda s: True, horizon=1
        )
        assert any("differs" in p for p in problems)


class TestMinIdentity:
    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_min_equals_half_sum_minus_gap(self, a, b):
        # The identity the algebraic controllability reduction rests on.
        # Exact over the reals; the a+b step can round by one ulp here.
        assert abs(min(a, b) - (a + b - abs(a - b)) / 2) <= 5e-16


class TestMarking:
    def test_marked_language_gates(self):
        _, _, plant, _ = imbalance_pair()
        marked = marked_language(plant, 0.13, 0.12)
        assert marked(tuple("01")) == plant(tuple("01"))
        assert marked(tuple("0011")) == 0.0

    def test_band_value_raises(self):
        L = QuantumLanguage(lambda w: 0.5, ("a",))
        with pytest.raises(IsolationViolationError):
            marked_language(L, 0.5, 0.1)(("a",))

    def test_closed_loop_marked_cases(self):
        plant_aut, target_aut, plant, target = imbalance_pair()
        loop = ClosedLoop(synthesize_supervisor(plant, target, spec3()))
        marked = closed_loop_marked(loop, 0.13, 0.12)
        assert marked(("2",)) == 0.0  # the loop kills 2, the plant keeps it in
        inside = tuple("0001")
        assert abs(marked(inside) - min(plant(inside), loop.value(inside))) <= 1e-15

    def test_nonblocking_when_everything_marked(self):
        plant = QuantumLanguage(lambda w: 1.0, ("a",))
        loop = ClosedLoop(synthesize_supervisor(plant, plant, ControlSpec(("a",), frozenset(), frozenset({"a"}))))
        assert check_nonblocking(loop, 0.4, 0.2, horizon=3)

    def test_blocking_detected_at_depth_one(self):
        plant = QuantumLanguage(lambda w: 1.0 if len(w) == 0 else 0.2, ("a",))
        spec = ControlSpec(("a",), frozenset(), frozenset({"a"}), cutpoint=0.4, isolation=0.1)
        loop = ClosedLoop(synthesize_supervisor(plant, plant, spec))
        assert loop.value(("a",)) == 0.2
        assert not check_nonblocking(loop, 0.4, 0.1, horizon=2)


def crisp_imbalance_target(n_param):
    def member(w):
        if "2" in w:
            return 0.0
        if len(w) <= n_param - 1:
            return 1.0
        if len(w) == n_param and w.count("0") != n_param // 2:
            return 1.0
        return 0.0

    return QuantumLanguage(member, ALPHABET3, "crisp imbalance target")


class TestMarkingConditions:
    def test_marked_instance_holds(self):
        _, _, plant, _ = imbalance_pair()
        K = crisp_imbalance_target(4)
        spec = spec3(cutpoint=0.13, isolation=0.12)
        result = check_marking_conditions(K, plant, spec, horizon=4, pr_K=K)
        assert result.holds

    def test_not_relatively_closed_fails_condition_two(self):
        _, _, plant, _ = imbalance_pair()
        K = crisp_imbalance_target(4)
        # Drop one marked word from K: it is still in pr(K) (a prefix of
        # nothing here, so shrink pr too) -- use the original closure to
        # break K = pr(K) /\ isolated-language.
        smaller = QuantumLanguage(
            lambda w: 0.0 if w == ("0",) else K(w), ALPHABET3, "dented target"
        )
        result = check_marking_conditions(smaller, plant, spec3(cutpoint=0.13, isolation=0.12), horizon=2, pr_K=K)
        assert not result.holds and result.condition == 2 and result.word == ("0",)

    def test_full_marking_holds(self):
        plant = QuantumLanguage(lambda w: 1.0, ("a",))
        spec = ControlSpec(("a",), frozenset(), frozenset({"a"}), cutpoint=0.4, isolation=0.2)
        K = marked_language(plant, 0.4, 0.2)
        assert check_marking_conditions(K, plant, spec, horizon=3).holds

    def test_uncontrollable_escape_fails_condition_one(self):
        _, _, plant, _ = imbalance_pair()
        # Target that forbids histories starting with 0 although the
        # plant allows them on an uncontrollable event.
        K = QuantumLanguage(
            lambda w: 1.0 if len(w) == 0 or w[0] != "0" and "2" not in w and len(w) <= 4 else 0.0,
            ALPHABET3,
        )
        result = check_marking_conditions(K, plant, spec3(cutpoint=0.13, isolation=0.12), horizon=2, pr_K=K)
        assert not result.holds and result.condition == 1

    def test_isolation_required(self):
        _, _, plant, _ = imbalance_pair()
        with pytest.raises(ValueError):
            check_marking_conditions(crisp_imbalance_target(4), plant, spec3(), horizon=2)


class TestQuantumLanguage:
    def test_table_backing(self):
        L = QuantumLanguage.from_table({(): 1.0, ("a",): 0.5}, ("a",))
        assert L(()) == 1.0 and L(("a",)) == 0.5
        with pytest.raises(KeyError):
            L(("a", "a"))

    def test_values_clamped(self):
        L = QuantumLanguage(lambda w: 1.0 + 5e-10, ("a",))
        assert L(()) == 1.0

    def test_corrupt_values_rejected(self):
        L = QuantumLanguage(lambda w: 1.5, ("a",))
        with pytest.raises(ArithmeticError):
            L(())

    def test_from_automaton_kinds(self):
        from qdes.fixtures import dfa_bounded_zeros

        d = QuantumLanguage.from_automaton(dfa_bounded_zeros(1))
        assert d(("0",)) == 1.0 and d(tuple("00")) == 0.0
        with pytest.raises(TypeError):
            QuantumLanguage.from_automaton(42)
