import dataclasses
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qdes import equivalence, supervisory
from qdes.blm import Rblm
from qdes.equivalence import minimize
from qdes.linalg import Projector
from qdes.models import Qfac
from qdes.fixtures import build_eg1, build_eg2, build_eg2_spec, build_egadd, build_spec_variant, dfa_bounded_zeros
from qdes.supervisory import (
    REDUCTION_PRECONDITIONS,
    ClosedLoop,
    ControllabilityResult,
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

from helpers import (
    count_reductions,
    random_mm_restriction,
    ref_closed_loop_value,
    ref_decide_controllability,
    ref_leaves_mm_restriction,
    to_rblm,
    words_up_to,
)


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


    def test_synthesis_refuses_a_mismatched_alphabet(self):
        _, _, plant, target = decay_pair()
        with pytest.raises(ValueError, match="share an alphabet"):
            synthesize_supervisor(plant, target, spec3())

    @pytest.mark.parametrize("alphabet", [ALPHABET3, ALPHABET3[::-1]], ids=["012", "210"])
    def test_enablement_levels_equal_per_word_enablement(self, alphabet):
        _, _, plant, target = imbalance_pair()
        policy = synthesize_supervisor(plant, target, spec3())
        levels = list(policy.enablement_levels(alphabet, 4))
        assert len(levels) == 5
        for length, level in enumerate(levels):
            want = np.array([[policy.enablement(s, a) for a in alphabet] for s in product(alphabet, repeat=length)])
            assert level.shape == want.shape and np.max(np.abs(level - want)) <= 1e-12


class TestCustomSupervisor:
    def test_an_event_outside_the_alphabet_refused(self):
        _, _, plant, _ = decay_pair()
        supervisor = CustomSupervisor(plant, spec2(), lambda s, sigma: 1.0)
        assert supervisor.enablement((), "0") == 1.0
        with pytest.raises(ValueError, match="event 'x' outside the alphabet"):
            supervisor.enablement((), "x")
        with pytest.raises(ValueError, match="event 'x' outside the alphabet"):
            supervisor.enablement_levels(("0", "x"), 1)


class TestControlSpecRefusals:
    @pytest.mark.parametrize("kw,message", [
        ({"controllable": {"0"}, "uncontrollable": {"0", "1"}}, "must be disjoint"),
        ({"controllable": {"0"}, "uncontrollable": set()}, "must cover the alphabet exactly"),
        ({"controllable": {"1"}, "uncontrollable": {"0"}, "cutpoint": 0.8, "isolation": 0.3}, "may not exceed 1"),
        ({"controllable": {"1"}, "uncontrollable": {"0"}, "cutpoint": 0.5, "upper_cutpoint": 0.4}, "must dominate"),
    ], ids=["overlapping-events", "partial-partition", "radius-past-one", "upper-below-lower"])
    def test_refused(self, kw, message):
        with pytest.raises(ValueError, match=message):
            ControlSpec(("0", "1"), **kw)


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

    def test_values_match_the_walk_from_the_empty_word(self):
        # Every prefix of a long history in order, then branches off it at
        # random lengths and random words, in random order.
        plant_aut, _, plant, target = decay_pair(3)
        policy = synthesize_supervisor(plant, target, spec2())
        loop, memo = ClosedLoop(policy), {(): 1.0}
        rng = np.random.default_rng(7)
        history = tuple(rng.choice(plant_aut.alphabet, size=400).tolist())
        words = [history[:i] for i in range(len(history) + 1)]
        for _ in range(40):
            stem = history[: rng.integers(0, 400)] if rng.random() < 0.5 else ()
            tail = rng.choice(plant_aut.alphabet, size=rng.integers(0, 400 - len(stem) + 1)).tolist()
            words.append((*stem, *tail))
        order = [*range(len(history) + 1), *rng.permutation(range(len(history) + 1, len(words)))]
        for i in order:
            assert loop.value(words[i]) == ref_closed_loop_value(policy, memo, words[i])
        assert loop._memo == memo
        assert all(w[:-1] in loop._memo for w in loop._memo if w)

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
        assert decided.lhs > decided.rhs + 1e-9 and decided.confirmed is True
        assert decided.lhs == oracle.lhs and decided.rhs == oracle.rhs
        assert oracle.confirmed is None

    def test_witness_unconfirmed_with_roles_swapped(self):
        # eg2 as the target of its own spec: the target exceeds the plant
        # at 10, a failed precondition, so the witness's sides do not
        # break the inequality.
        plant_aut, target_aut, _, _ = decay_pair()
        decided = decide_controllability(plant_aut, target_aut, spec2())
        assert not decided.holds and (decided.word, decided.symbol) == (("1",), "0")
        assert decided.lhs == 0.0 and decided.rhs > 0.7 and decided.confirmed is False

    def test_holding_decision_has_no_confirmation(self):
        plant_aut, target_aut, _, _ = decay_pair()
        assert decide_controllability(target_aut, plant_aut, spec2()).confirmed is None

    def test_zero_target_holds(self):
        plant_aut = build_eg2(2, 0.5)
        zero = zero_machine(plant_aut)
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


def eg1_cut(n_param, state):
    plant_aut, target_aut = large_pair("eg1", n_param, 0.5)
    if state is None:
        return target_aut, plant_aut
    cut = {**target_aut.transitions, (state, "0"): plant_aut.classical_states[-1]}
    return dataclasses.replace(target_aut, transitions=cut), plant_aut


def zero_machine(automaton):
    b = to_rblm(automaton)
    return Rblm(b.alphabet, b.pi, b.matrices, np.zeros_like(b.eta))


def eg2_case(n_param, swapped, zero=""):
    plant_aut, target_aut, _, _ = decay_pair(n_param)
    if "target" in zero:
        target_aut = zero_machine(plant_aut)
    if "plant" in zero:
        plant_aut = zero_machine(plant_aut)
    return (plant_aut, target_aut) if swapped else (target_aut, plant_aut)


REFERENCE_CASES = {
    **{f"eg1-N{n}-{cut or 'holds'}": (lambda n=n, cut=cut: eg1_cut(n, cut), spec3())
       for n in (2, 3, 4) for cut in (None, "s0", "s1", "s2")},
    **{f"egadd-N{n}": (lambda n=n: large_pair("egadd", n, 0.5)[::-1], spec3()) for n in (4, 6, 8)},
    **{f"eg2-N{n}-{e}{'-swapped' if swapped else ''}": (lambda n=n, swapped=swapped: eg2_case(n, swapped),
                                                          spec2(uncontrollable=(e,)))
       for n in (1, 2, 3) for e in ("0", "1") for swapped in (False, True)},
    **{f"eg2-zero-{zero}-{e}": (lambda zero=zero: eg2_case(2, False, zero), spec2(uncontrollable=(e,)))
       for zero in ("target", "plant", "target-plant") for e in ("0", "1")},
}


class TestTwoStateReference:
    """The one-state product route against the two-state one it replaced:
    the same verdict, witness, confirmation and visited dimension.  The
    holding cases are restrictions that ``decide_controllability`` settles
    without exploring, so the route is called directly."""

    @pytest.mark.parametrize("case", REFERENCE_CASES)
    def test_same_decision(self, case, monkeypatch):
        make, spec = REFERENCE_CASES[case]
        target_aut, plant_aut = make()
        kernel, dims = equivalence.explore_span, []

        def recording(*args, **kwargs):
            basis, hit = kernel(*args, **kwargs)
            dims.append(len(basis))
            return basis, hit

        monkeypatch.setattr(equivalence, "explore_span", recording)
        monkeypatch.setattr(supervisory, "explore_span", recording)
        got = supervisory._decide_on_product(target_aut, plant_aut, spec)
        got_dim = dims[-1]
        want = ref_decide_controllability(target_aut, plant_aut, spec)
        assert (got.holds, got.word, got.symbol, got.confirmed) == (want.holds, want.word, want.symbol, want.confirmed)
        assert (got.lhs, got.rhs) == (want.lhs, want.rhs)
        assert got_dim == dims[-1]
        assert got_dim <= minimize(target_aut).n * (minimize(target_aut).n + minimize(plant_aut).n)
        assert decide_controllability(target_aut, plant_aut, spec) == got


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
        # The (s1, "0") cut leaves the restriction, so the decision explores.
        target_aut, plant_aut = eg1_cut(2, "s1")
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


def restriction_cases():
    for family, sizes, epsilons in (("eg1", (2, 3), (0.95, 0.5)), ("egadd", (4, 6), (0.95, 0.5))):
        for n_param in sizes:
            for eps in epsilons:
                yield family, n_param, eps


class TestRestrictionShortcut:
    """A target that is its plant restricted to a language holds, with no
    reduction, when no uncontrollable event leaves the language; every
    other target takes the product route, as before."""

    @pytest.mark.parametrize("family,n_param,eps", list(restriction_cases()))
    def test_both_routes_against_the_oracle(self, family, n_param, eps, monkeypatch):
        plant_aut, target_aut = large_pair(family, n_param, eps)
        lang = QuantumLanguage.from_automaton
        assert check_controllability_exhaustive(lang(target_aut), lang(plant_aut), spec3(), horizon=6).holds
        assert supervisory._decide_on_product(target_aut, plant_aut, spec3()) == ControllabilityResult(True)
        calls = count_reductions(monkeypatch)
        decided = decide_controllability(target_aut, plant_aut, spec3())
        assert decided.holds and decided.assumes == () and calls == []
        dead = plant_aut.classical_states[-1]
        for state in ("s0", "s1", "s2"):
            for event in ("0", "1"):
                cut = dataclasses.replace(target_aut, transitions={**target_aut.transitions, (state, event): dead})
                oracle = check_controllability_exhaustive(lang(cut), lang(plant_aut), spec3(), horizon=6)
                calls.clear()
                decided = decide_controllability(cut, plant_aut, spec3())
                assert not oracle.holds and decided == oracle and decided.assumes == ()
                assert "explore_span" in calls

    @staticmethod
    def near_misses():
        """Pairs one step away from a restriction, each with its control spec."""
        plant = build_eg1(2, 0.95, seed=0)
        target = build_spec_variant(plant, "s5")
        into_dead = {(s, "2"): "s5" for s in plant.classical_states}
        # s5 absorbs but accepts, in the plant and the target alike.
        accepting = {**plant.accepting, "s5": Projector.full(plant.dim)}
        accepting_plant = dataclasses.replace(plant, accepting=accepting)
        accepting_sink = dataclasses.replace(accepting_plant, transitions={**plant.transitions, **into_dead})
        # s5 rejects, but 0 leads out of it, in the plant and the target alike.
        leaky = {**plant.transitions, ("s5", "0"): "s0"}
        leaky_plant = dataclasses.replace(plant, transitions=leaky)
        leaky_sink = dataclasses.replace(plant, transitions={**leaky, **into_dead})
        # A global phase changes neither word function, only the automaton.
        phased_unitary = {**target.unitaries, ("s0", "0"): 1j * target.unitaries[("s0", "0")]}
        phased_start = -np.asarray(target.initial_quantum)
        eg2 = build_eg2(2, 0.5)
        eg2_spec = build_eg2_spec(eg2)
        # The kill of 1 sends 1e-3 of amplitude from the going state into the accepting one.
        amp = 1e-3
        leak = np.array([[0, 1, 0], [np.sqrt(1 - amp**2), 0, -amp], [amp, 0, np.sqrt(1 - amp**2)]], dtype=complex)
        # The target's accepting state swapped with its rejecting one.
        flipped = {"accepting": eg2.rejecting, "rejecting": eg2.accepting}
        # Killed b clears the going columns only; the initial state reaches
        # outside them, and the oracle fails at (b, a).
        full_plant, full_target, _ = random_mm_restriction(35, full_support=True)
        return {
            "redirect-accepts": (accepting_sink, accepting_plant, spec3()),
            "redirect-leaks": (leaky_sink, leaky_plant, spec3()),
            "one-unitary": (dataclasses.replace(target, unitaries=phased_unitary), plant, spec3()),
            "initial-state": (dataclasses.replace(target, initial_quantum=phased_start), plant, spec3()),
            "mm-leaky-kill": (dataclasses.replace(eg2_spec, unitaries={**eg2.unitaries, "1": leak}), eg2, spec2()),
            "mm-kill-misses-the-initial-support": (full_target, full_plant, ControlSpec(("a", "b"), {"b"}, {"a"})),
            "mm-end-marker": (dataclasses.replace(eg2_spec, unitaries={**eg2_spec.unitaries, "$": -eg2.unitaries["$"]}),
                              eg2, spec2()),
            "mm-initial-state": (dataclasses.replace(eg2_spec, initial=-eg2.initial), eg2, spec2()),
            "mm-accepting-set": (dataclasses.replace(eg2_spec, **flipped), eg2, spec2()),
        }

    @pytest.mark.parametrize("case", ["redirect-accepts", "redirect-leaks", "one-unitary", "initial-state",
                                      "mm-leaky-kill", "mm-kill-misses-the-initial-support", "mm-end-marker",
                                      "mm-initial-state", "mm-accepting-set"])
    def test_near_misses_take_the_product_route(self, case, monkeypatch):
        target_aut, plant_aut, spec = self.near_misses()[case]
        assert supervisory._leaves_restriction(target_aut, plant_aut, spec.uncontrollable) is None
        if case.startswith("mm-"):
            assert ref_leaves_mm_restriction(target_aut, plant_aut, spec.uncontrollable) is None
        want = supervisory._decide_on_product(target_aut, plant_aut, spec)
        calls = count_reductions(monkeypatch)
        got = decide_controllability(target_aut, plant_aut, spec)
        assert "explore_span" in calls
        assert got == want and (got.confirmed, got.assumes) == (want.confirmed, REDUCTION_PRECONDITIONS)
        assert got == ref_decide_controllability(target_aut, plant_aut, spec)

    def test_a_measure_many_restriction(self, monkeypatch):
        """``build_eg2_spec`` kills 1: with 0 uncontrollable it holds with no
        reduction, with 1 uncontrollable the product route finds the
        violation; both assume nothing."""
        eg2 = build_eg2(2, 0.5)
        target_aut = build_eg2_spec(eg2)
        calls = count_reductions(monkeypatch)
        for unc, leaves in (("0", False), ("1", True)):
            spec = spec2(uncontrollable=(unc,))
            assert supervisory._leaves_restriction(target_aut, eg2, spec.uncontrollable) is leaves
            want = supervisory._decide_on_product(target_aut, eg2, spec)
            calls.clear()
            got = decide_controllability(target_aut, eg2, spec)
            assert ("explore_span" in calls) is leaves and (calls == []) is not leaves
            assert got == want == ref_decide_controllability(target_aut, eg2, spec)
            assert got.holds is not leaves and (got.confirmed, got.assumes) == (want.confirmed, ())

    @pytest.mark.parametrize("n_param", [1, 2, 3, 4, 5])
    def test_eg2_against_the_oracle(self, n_param, monkeypatch):
        """eg2's spec and eg2 itself as targets of eg2, at three cut-points
        and under every nonempty uncontrollable set, decided as the oracle
        sweeps them to horizon 7; a holding restriction reduces nothing."""
        lang = QuantumLanguage.from_automaton
        calls = count_reductions(monkeypatch)
        for lam in (0.3, 0.5, 0.7):
            plant = build_eg2(n_param, lam)
            for target in (build_eg2_spec(plant), plant):
                for unc in (("0",), ("1",), ("0", "1")):
                    spec = spec2(uncontrollable=unc)
                    leaves = supervisory._leaves_restriction(target, plant, spec.uncontrollable)
                    assert leaves is ref_leaves_mm_restriction(target, plant, spec.uncontrollable)
                    assert leaves is (target is not plant and "1" in unc)
                    calls.clear()
                    decided = decide_controllability(target, plant, spec)
                    assert (calls == []) is not leaves, (lam, unc)
                    oracle = check_controllability_exhaustive(lang(target), lang(plant), spec, horizon=7)
                    assert decided == oracle and decided.assumes == (), (lam, unc)
                    assert decided.confirmed is (None if decided.holds else True)

    def test_random_measure_many_restrictions_against_the_oracle(self, monkeypatch):
        """Random plants whose initial state lies in the going subspace, each
        with one symbol killed, under every nonempty uncontrollable set."""
        lang = QuantumLanguage.from_automaton
        calls = count_reductions(monkeypatch)
        seen = set()
        for seed in range(60):
            plant, target, killed = random_mm_restriction(seed)
            for unc in ({"a"}, {"b"}, {"a", "b"}):
                spec = ControlSpec(("a", "b"), {"a", "b"} - unc, unc)
                leaves = supervisory._leaves_restriction(target, plant, spec.uncontrollable)
                assert leaves is ref_leaves_mm_restriction(target, plant, spec.uncontrollable) is (killed in unc)
                calls.clear()
                decided = decide_controllability(target, plant, spec)
                assert (calls == []) is not leaves, (seed, unc)
                oracle = check_controllability_exhaustive(lang(target), lang(plant), spec, horizon=7)
                assert decided == oracle and decided.assumes == (), (seed, unc)
                assert decided.confirmed is (None if decided.holds else True)
                seen.add((leaves, decided.holds))
        assert seen == {(False, True), (True, True), (True, False)}

    def test_a_kill_that_misses_the_initial_support_takes_the_product_route(self):
        """The same plants and kills with a full-support initial state: the
        first symbol acts on the whole initial vector, so the target is no
        restriction and keeps the product route and its preconditions."""
        lang = QuantumLanguage.from_automaton
        unsound = 0
        for seed in range(60):
            plant, target, killed = random_mm_restriction(seed, full_support=True)
            for unc in ({"a"}, {"b"}, {"a", "b"}):
                spec = ControlSpec(("a", "b"), {"a", "b"} - unc, unc)
                assert supervisory._leaves_restriction(target, plant, spec.uncontrollable) is None
                assert ref_leaves_mm_restriction(target, plant, spec.uncontrollable) is None
                decided = decide_controllability(target, plant, spec)
                assert decided == supervisory._decide_on_product(target, plant, spec)
                assert decided.assumes == REDUCTION_PRECONDITIONS
                if killed not in unc and seed < 40:
                    unsound += not check_controllability_exhaustive(lang(target), lang(plant), spec, 7).holds
        # Clearing only the going columns would have answered "holds" here.
        assert unsound == 4

    def test_a_restriction_of_a_dfa(self):
        plant = dfa_bounded_zeros(2)
        cut = dataclasses.replace(plant, transitions={**plant.transitions, ("z0", "1"): "dead"})
        lang = QuantumLanguage.from_automaton
        for unc, leaves in (("0", False), ("1", True)):
            spec = spec2(uncontrollable=(unc,))
            assert supervisory._leaves_restriction(cut, plant, spec.uncontrollable) is leaves
            decided = decide_controllability(cut, plant, spec)
            assert decided == check_controllability_exhaustive(lang(cut), lang(plant), spec, horizon=6)
            assert decided.holds is not leaves and decided.assumes == ()

    @pytest.mark.parametrize("n_param", [6, 7, 8])
    def test_holding_decision_at_the_size_wall_reduces_nothing(self, n_param, monkeypatch):
        plant_aut, target_aut = large_pair("eg1", n_param, 0.5)
        calls = count_reductions(monkeypatch)
        decided = decide_controllability(target_aut, plant_aut, spec3())
        assert decided == ControllabilityResult(True) and decided.assumes == () and calls == []

    def test_no_uncontrollable_event_reduces_nothing(self, monkeypatch):
        eg2 = build_eg2(2, 0.5)
        eg1 = build_eg1(2, 0.95, seed=0)
        pairs = [(build_eg2_spec(eg2), eg2), (to_rblm(build_spec_variant(eg1, "s5")), to_rblm(eg1)),
                 (dfa_bounded_zeros(2), eg2)]
        calls = count_reductions(monkeypatch)
        for target_aut, plant_aut in pairs:
            alphabet = plant_aut.alphabet
            spec = ControlSpec(alphabet, frozenset(alphabet), frozenset())
            decided = decide_controllability(target_aut, plant_aut, spec)
            assert decided == ControllabilityResult(True) and decided.assumes == ()
        assert calls == []

    def test_alphabets_refused_before_reducing(self, monkeypatch):
        plant_aut, target_aut = large_pair("eg1", 5, 0.5)
        calls = count_reductions(monkeypatch)
        with pytest.raises(ValueError, match="control spec alphabet"):
            decide_controllability(target_aut, plant_aut, spec2())
        with pytest.raises(ValueError, match="share an alphabet"):
            decide_controllability(build_eg2(2, 0.5), plant_aut, spec3())
        assert calls == []


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
