import dataclasses
import tracemalloc

import numpy as np
import pytest

from qdes import blm
from qdes.blm import Rblm, blm_direct_sum, blm_eval, compile_mm_to_rblm, compile_qfac_to_rblm, negate_final, to_rblm
from qdes.composition import parallel_qfac
from qdes.equivalence import (
    EquivalenceVerdict,
    equiv_mm_qfa,
    equiv_qfac,
    equiv_rblm,
    k_equiv_bruteforce,
    minimize,
)
from qdes.fixtures import build_eg1, build_eg2, build_egadd, build_spec_variant
from qdes.linalg import Projector
from qdes.models import MmQfa, qfac_from_mo
from qdes.supervisory import ControlSpec, QuantumLanguage, check_controllability_exhaustive, decide_controllability

from helpers import (
    padded_with_dead_block,
    random_mm,
    random_mo,
    random_rblm,
    similarity_transformed,
    words_up_to,
)


def shift_register(length):
    """Word function 1 exactly on a^length, 0 elsewhere."""
    n = length + 1
    m = np.zeros((n, n), dtype=complex)
    for i in range(length):
        m[i + 1, i] = 1.0
    pi = np.zeros(n, dtype=complex)
    pi[0] = 1.0
    eta = np.zeros(n, dtype=complex)
    eta[length] = 1.0
    return Rblm(("a",), pi, {"a": m}, eta)


def zero_machine(alphabet=("a",)):
    return Rblm(
        tuple(alphabet),
        np.array([1.0], dtype=complex),
        {s: np.zeros((1, 1), dtype=complex) for s in alphabet},
        np.zeros(1, dtype=complex),
    )


class TestSpanProcedure:
    def test_machine_equals_itself(self):
        rng = np.random.default_rng(1)
        b = random_rblm(rng, 3)
        v = equiv_rblm(b, b)
        assert v.equivalent and v.counterexample is None

    def test_perturbed_final_functional(self):
        rng = np.random.default_rng(3)
        b = random_rblm(rng, 3)
        eta = b.eta.copy()
        eta[0] += 0.1
        b2 = Rblm(b.alphabet, b.pi, b.matrices, eta)
        v = equiv_rblm(b, b2)
        assert not v.equivalent
        # Brute force confirms the counterexample and the verdict.
        brute = k_equiv_bruteforce(b, b2, b.n + b2.n - 1)
        assert not brute.equivalent
        assert abs(blm_eval(b, v.counterexample) - blm_eval(b2, v.counterexample)) > 1e-7

    def test_distinct_decay_rates_caught_at_one_letter(self):
        b1 = compile_mm_to_rblm(build_eg2(2, 0.4))  # r ~ 0.32
        b2 = compile_mm_to_rblm(build_eg2(2, 0.6))  # r ~ 0.19
        v = equiv_rblm(b1, b2)
        assert not v.equivalent
        assert v.counterexample == ("0",)

    def test_visited_dimension_bounded(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            b1 = random_rblm(rng, int(rng.integers(1, 4)))
            b2 = random_rblm(rng, int(rng.integers(1, 4)))
            v = equiv_rblm(b1, b2)
            assert v.visited_dim <= b1.n + b2.n
            assert v.word_bound == b1.n + b2.n - 1

    def test_counterexample_is_shortest(self):
        # Machines agreeing up to length 2 and differing at length 3.
        b1 = shift_register(3)
        b2 = zero_machine()
        v = equiv_rblm(b1, b2)
        assert not v.equivalent
        assert v.counterexample == ("a", "a", "a")

    def test_scaling_does_not_flip_verdict(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            b1 = random_rblm(rng, 2)
            b2 = similarity_transformed(rng, b1)
            b3 = random_rblm(rng, 2)
            for c in (0.5, 2.0):
                scaled = lambda b: Rblm(b.alphabet, b.pi, b.matrices, c * b.eta)
                assert equiv_rblm(scaled(b1), scaled(b2)).equivalent
                assert not equiv_rblm(scaled(b1), scaled(b3)).equivalent

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            equiv_rblm(zero_machine(("a",)), zero_machine(("b",)))

    def test_verdict_invariant(self):
        with pytest.raises(ValueError):
            EquivalenceVerdict(equivalent=True, counterexample=("a",))


FIXTURE_MACHINES = {
    "eg1-N2": lambda: to_rblm(build_eg1(2, 0.5, seed=0)),
    "eg1-N2-variant": lambda: to_rblm(build_spec_variant(build_eg1(2, 0.95, seed=0), "s5")),
    "egadd-N4": lambda: to_rblm(build_egadd(4, 0.5, seed=0)),
    "eg2-N2": lambda: to_rblm(build_eg2(2, 0.5)),
}


class TestMinimize:
    @pytest.mark.parametrize("name", sorted(FIXTURE_MACHINES))
    def test_same_word_function_smaller_and_idempotent(self, name):
        b = FIXTURE_MACHINES[name]()
        small = minimize(b)
        assert k_equiv_bruteforce(b, small, 5).equivalent
        assert small.n <= b.n
        assert minimize(small).n == small.n

    def test_random_machines_keep_their_word_function(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            b = padded_with_dead_block(rng, random_rblm(rng, int(rng.integers(1, 4))), 2)
            small = minimize(b)
            assert small.n < b.n
            assert k_equiv_bruteforce(b, small, 6).equivalent

    def test_difference_with_self_reduces_to_nothing(self):
        for name in sorted(FIXTURE_MACHINES):
            b = FIXTURE_MACHINES[name]()
            assert minimize(blm_direct_sum(b, negate_final(b))).n == 0

    def test_shift_register_is_already_minimal(self):
        assert minimize(shift_register(4)).n == 5


class TestBruteForce:
    def test_k_zero_compares_initial_values(self):
        b1 = scalar = Rblm(
            ("a",),
            np.array([1.0], dtype=complex),
            {"a": np.array([[0.5]], dtype=complex)},
            np.array([1.0], dtype=complex),
        )
        b2 = Rblm(scalar.alphabet, 2 * scalar.pi, scalar.matrices, scalar.eta)
        v = k_equiv_bruteforce(b1, b2, 0)
        assert not v.equivalent and v.counterexample == ()

    def test_horizon_sensitivity(self):
        b1, b2 = shift_register(3), zero_machine()
        assert k_equiv_bruteforce(b1, b2, 2).equivalent
        assert not k_equiv_bruteforce(b1, b2, 3).equivalent

    def test_cap_guard(self):
        rng = np.random.default_rng(9)
        b = random_rblm(rng, 2)
        with pytest.raises(ValueError):
            k_equiv_bruteforce(b, b, 40, max_words=1000)

    def test_agreement_with_span_procedure(self):
        rng = np.random.default_rng(11)
        for trial in range(30):
            n1 = int(rng.integers(1, 4))
            b1 = random_rblm(rng, n1)
            kind = trial % 3
            if kind == 0:
                b2 = random_rblm(rng, int(rng.integers(1, 4)))
            elif kind == 1:
                b2 = similarity_transformed(rng, b1)
            else:
                b2 = padded_with_dead_block(rng, b1, int(rng.integers(1, 3)))
            fast = equiv_rblm(b1, b2)
            slow = k_equiv_bruteforce(b1, b2, b1.n + b2.n - 1)
            assert fast.equivalent == slow.equivalent


class TestAutomatonEquivalence:
    def test_measure_many_self(self):
        m = build_eg2(2, 0.5)
        v = equiv_mm_qfa(m, m)
        assert v.equivalent
        assert v.word_bound == 2 * (m.dim**2 + 1) - 1

    def test_measure_many_distinct_rates(self):
        v = equiv_mm_qfa(build_eg2(2, 0.5), build_eg2(3, 0.5))
        assert not v.equivalent
        assert v.counterexample == ("0",)
        assert abs(v.f1 - v.f2) > 1e-7

    def test_unreachable_role_swap_is_equivalent(self):
        # Two extra states never reached from the initial state; swapping
        # their accept/reject roles cannot change the word function.
        base = build_eg2(2, 0.5)
        unitaries = {}
        for sym, u in base.unitaries.items():
            big = np.eye(5, dtype=complex)
            big[:3, :3] = u
            unitaries[sym] = big
        init = np.zeros(5, dtype=complex)
        init[:3] = base.initial

        def machine(acc, rej):
            return MmQfa(
                alphabet=base.alphabet,
                unitaries=unitaries,
                initial=init,
                accepting=Projector(frozenset(acc), 5),
                rejecting=Projector(frozenset(rej), 5),
                going=Projector(frozenset({0}), 5),
            )

        m1 = machine({2, 3}, {1, 4})
        m2 = machine({2, 4}, {1, 3})
        assert equiv_mm_qfa(m1, m2).equivalent
        brute = k_equiv_bruteforce(
            compile_mm_to_rblm(m1), compile_mm_to_rblm(m2), 5, max_words=200
        )
        assert brute.equivalent

    def test_hybrid_self(self):
        m = build_eg1(1, 0.95, seed=0)
        assert equiv_qfac(m, m).equivalent

    def test_hybrid_against_symbol_killing_variant(self):
        m = build_eg1(2, 0.95, seed=0)
        variant = build_spec_variant(m, "s5")
        v = equiv_qfac(m, variant)
        assert not v.equivalent
        assert "2" in v.counterexample

    def test_global_phase_is_invisible(self):
        rng = np.random.default_rng(13)
        mo = random_mo(rng, 2)
        phased = mo.__class__(
            alphabet=mo.alphabet,
            unitaries={a: np.exp(1j * 0.7) * u for a, u in mo.unitaries.items()},
            initial=mo.initial,
            accepting=mo.accepting,
            rejecting=mo.rejecting,
        )
        v = equiv_qfac(qfac_from_mo(mo), qfac_from_mo(phased))
        assert v.equivalent
        brute = k_equiv_bruteforce(
            compile_qfac_to_rblm(qfac_from_mo(mo)),
            compile_qfac_to_rblm(qfac_from_mo(phased)),
            4,
            max_words=100,
        )
        assert brute.equivalent

    def test_alphabet_mismatch(self):
        m1 = build_eg2(2, 0.5)
        m2 = MmQfa(
            alphabet=("0",),
            unitaries={k: v for k, v in m1.unitaries.items() if k != "1"},
            initial=m1.initial,
            accepting=m1.accepting,
            rejecting=m1.rejecting,
            going=m1.going,
        )
        with pytest.raises(ValueError):
            equiv_mm_qfa(m1, m2)


class TestCompiledPairsAgainstBruteForce:
    def test_random_measure_many_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            m1, m2 = random_mm(rng, 2), random_mm(rng, 2)
            fast = equiv_mm_qfa(m1, m2)
            slow_equal = all(
                abs(
                    blm_eval(compile_mm_to_rblm(m1), w) - blm_eval(compile_mm_to_rblm(m2), w)
                )
                <= 1e-7
                for w in words_up_to(m1.alphabet, 6)
            )
            assert fast.equivalent == slow_equal


def reordered(a, alphabet):
    """The same automaton with its alphabet listed in another order."""
    assert sorted(alphabet) == sorted(a.alphabet)
    return dataclasses.replace(a, alphabet=tuple(alphabet))


class TestAlphabetOrder:
    """An alphabet listed in another order is the same alphabet; the
    exploration order stays sorted, so verdicts and witnesses do not move."""

    def test_rblm(self):
        b = to_rblm(build_eg1(1, 0.95, seed=0))
        v = equiv_rblm(b, reordered(b, ("2", "1", "0")))
        assert v == equiv_rblm(b, b)

    def test_qfac(self):
        m = build_eg1(1, 0.95, seed=0)
        assert equiv_qfac(m, reordered(m, ("2", "1", "0"))) == equiv_qfac(m, m)
        variant = build_spec_variant(m, m.classical_states[-1])
        got = equiv_qfac(reordered(m, ("2", "1", "0")), variant)
        expected = equiv_qfac(m, variant)
        assert not got.equivalent
        assert (got.counterexample, got.visited_dim, got.word_bound) == (
            expected.counterexample, expected.visited_dim, expected.word_bound)

    def test_mm_qfa(self):
        m = build_eg2(2, 0.5)
        assert equiv_mm_qfa(reordered(m, ("1", "0")), m) == equiv_mm_qfa(m, m)
        other = build_eg2(3, 0.5)
        assert equiv_mm_qfa(reordered(m, ("1", "0")), other) == equiv_mm_qfa(m, other)

    def test_bruteforce(self):
        b = to_rblm(build_eg1(1, 0.95, seed=0))
        assert k_equiv_bruteforce(reordered(b, ("1", "2", "0")), b, 3) == k_equiv_bruteforce(b, b, 3)

    def test_decision(self):
        plant = build_eg1(1, 0.95, seed=0)
        target = reordered(plant, ("2", "1", "0"))
        spec = ControlSpec(("0", "1", "2"), frozenset({"2"}), frozenset({"0", "1"}))
        oracle = check_controllability_exhaustive(
            QuantumLanguage.from_automaton(target), QuantumLanguage.from_automaton(plant), spec, 5)
        assert oracle.holds and decide_controllability(target, plant, spec).holds
        cut = reordered(build_spec_variant(plant, plant.classical_states[-1]), ("1", "0", "2"))
        spec2 = ControlSpec(("0", "1", "2"), frozenset({"0", "1"}), frozenset({"2"}))
        assert decide_controllability(cut, plant, spec2) == decide_controllability(
            build_spec_variant(plant, plant.classical_states[-1]), plant, spec2)


def refuse_to_compile(*args):
    raise AssertionError("the dense compiler was called")


class TestOperatorForm:
    """The decisions on hybrid automata never form the dense compiled machine."""

    def test_no_compile_on_the_decision_paths(self, monkeypatch):
        plant = build_eg1(2, 0.5, seed=0)
        target = build_spec_variant(plant, plant.classical_states[-1])
        expected = (minimize(plant).n, equiv_qfac(plant, target), equiv_qfac(plant, plant))
        spec = ControlSpec(("0", "1", "2"), frozenset({"2"}), frozenset({"0", "1"}))
        decided = decide_controllability(target, plant, spec)
        monkeypatch.setattr(blm, "compile_qfac_to_rblm", refuse_to_compile)
        assert minimize(plant).n == expected[0] == 10
        assert (equiv_qfac(plant, target), equiv_qfac(plant, plant)) == expected[1:]
        assert decide_controllability(target, plant, spec) == decided and decided.holds

    def test_minimal_sizes(self):
        sizes = [minimize(build_eg1(n, 0.5, seed=0)).n for n in (1, 2, 3)]
        sizes += [minimize(build_egadd(n, 0.5, seed=0)).n for n in (4, 6)]
        assert sizes == [4, 10, 22, 9, 16]

    def test_composition_pair_peak_below_one_dense_matrix(self):
        eg1, egadd = build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)
        left, right = parallel_qfac(eg1, egadd), parallel_qfac(egadd, eg1)
        n = len(left.classical_states) * left.dim ** 2
        assert n == 576
        tracemalloc.start()
        try:
            verdict = equiv_qfac(left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.equivalent
        assert peak < n * n * np.dtype(complex).itemsize
