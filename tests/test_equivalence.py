import dataclasses
import tracemalloc

import numpy as np
import pytest

from qdes import blm, equivalence, models, supervisory
from qdes.blm import Rblm, blm_eval, compile_mm_to_rblm, compile_qfac_to_rblm
from qdes.composition import parallel_qfac
from qdes.equivalence import (
    BRUTEFORCE_MAX_WORDS,
    EquivalenceVerdict,
    equiv,
    equiv_mm_qfa,
    equiv_qfac,
    equiv_rblm,
    explore_span,
    k_equiv_bruteforce,
    minimize,
)
from qdes.fixtures import (
    build_af_modp,
    build_eg1,
    build_eg2,
    build_eg2_spec,
    build_egadd,
    build_spec_variant,
    dfa_bounded_zeros,
)
from qdes.linalg import Projector
from qdes.models import MmQfa, qfac_from_mo
from qdes.supervisory import (
    ControllabilityResult,
    ControlSpec,
    QuantumLanguage,
    check_controllability_exhaustive,
    decide_controllability,
)

from helpers import (
    difference_machine,
    padded_with_dead_block,
    random_mm,
    random_mo,
    random_qfac,
    random_rblm,
    ref_explore_span,
    ref_kernel,
    ref_vec_rblm,
    refuse_to_compile,
    similarity_transformed,
    to_rblm,
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

    def test_difference_machine_reads_the_difference(self):
        rng = np.random.default_rng(17)
        b1, b2 = random_rblm(rng, 3), random_rblm(rng, 2)
        diff = difference_machine(b1, b2)
        assert diff.n == 5
        for w in words_up_to(b1.alphabet, 5):
            assert abs(blm_eval(diff, w) - (blm_eval(b1, w) - blm_eval(b2, w))) <= 1e-10

    def test_difference_with_self_reduces_to_nothing(self):
        for name in sorted(FIXTURE_MACHINES):
            b = FIXTURE_MACHINES[name]()
            diff = difference_machine(b, b)
            assert diff.n == 2 * b.n
            assert minimize(diff).n == 0

    def test_zero_word_function_bound_is_not_negative(self):
        for name in sorted(FIXTURE_MACHINES):
            zero = minimize(difference_machine(*[FIXTURE_MACHINES[name]()] * 2))
            v = equiv(zero, zero)
            assert v.equivalent and (v.visited_dim, v.word_bound) == (0, 0)

    def test_shift_register_is_already_minimal(self):
        assert minimize(shift_register(4)).n == 5

    def test_complex_steps_from_real_vectors(self):
        # f(a^2j) = (-1)^j and f(a^(2j+1)) = 0; x(a) = (0, i) is new only as a
        # complex vector, so a basis kept real would drop it.
        b = Rblm(("a",), np.array([1.0, 0.0]), {"a": np.array([[0, 1j], [1j, 0]])}, np.array([1.0, 0.0]))
        assert minimize(b).n == 2
        one = Rblm(("a",), np.array([1.0]), {"a": np.eye(1)}, np.array([1.0]))
        verdict, brute = equiv_rblm(b, one), k_equiv_bruteforce(b, one, 4)
        assert (verdict.equivalent, verdict.counterexample, verdict.f1, verdict.f2) == (
            brute.equivalent, brute.counterexample, brute.f1, brute.f2) == (False, ("a",), 0.0, 1.0)


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
        # 2^41 - 1 words, far above the cap.
        with pytest.raises(ValueError, match=f"above the cap {BRUTEFORCE_MAX_WORDS}"):
            k_equiv_bruteforce(b, b, 40)

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


def stock_pairs():
    """Each stock plant with its spec variant: eg1 N = 1, 2 and egadd N = 4 at
    seeds 0-2, and eg2 N = 2."""
    plants = [build_eg1(n, 0.5, seed=seed) for n in (1, 2) for seed in range(3)]
    plants += [build_egadd(4, 0.5, seed=seed) for seed in range(3)]
    pairs = [(plant, build_spec_variant(plant, plant.classical_states[-1])) for plant in plants]
    return pairs + [(build_eg2(2, 0.5), build_eg2_spec(build_eg2(2, 0.5)))]


class TestBruteForceOnAutomata:
    """The oracle reads automata through their direct evaluators, mixed freely
    with bilinear machines, and answers as on the compiled machines."""

    @pytest.mark.parametrize("index", range(10))
    def test_stock_pairs_match_compiled_and_span(self, index):
        plant, target = stock_pairs()[index]
        for x, y in ((plant, target), (target, plant), (plant, plant), (plant, to_rblm(target)),
                     (to_rblm(plant), target)):
            got = k_equiv_bruteforce(x, y, 5)
            compiled = k_equiv_bruteforce(to_rblm(x), to_rblm(y), 5)
            span = equiv(x, y)
            assert (got.equivalent, got.counterexample) == (compiled.equivalent, compiled.counterexample)
            assert (got.equivalent, got.counterexample) == (span.equivalent, span.counterexample)
            if not got.equivalent:
                assert abs(got.f1 - compiled.f1) <= 1e-9 and abs(got.f2 - compiled.f2) <= 1e-9
        assert not k_equiv_bruteforce(plant, target, 5).equivalent


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
        brute = k_equiv_bruteforce(compile_mm_to_rblm(m1), compile_mm_to_rblm(m2), 5)
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


class TestOperatorForm:
    """The decisions and the oracle on hybrid automata never form the dense compiled machine."""

    def test_no_compile_on_the_decision_paths(self, monkeypatch):
        def pair():
            plant = build_eg1(2, 0.5, seed=0)
            return plant, build_spec_variant(plant, plant.classical_states[-1])

        plant, target = pair()
        expected = (minimize(plant).n, equiv_qfac(plant, target), equiv_qfac(plant, plant))
        brute = k_equiv_bruteforce(to_rblm(plant), to_rblm(target), 5)
        spec = ControlSpec(("0", "1", "2"), frozenset({"2"}), frozenset({"0", "1"}))
        decided = decide_controllability(target, plant, spec)
        # A fresh pair, so that nothing is read from what the first one keeps.
        plant, target = pair()
        monkeypatch.setattr(blm, "compile_qfac_to_rblm", refuse_to_compile)
        assert minimize(plant).n == expected[0] == 10
        assert (equiv_qfac(plant, target), equiv_qfac(plant, plant)) == expected[1:]
        got = k_equiv_bruteforce(plant, target, 5)
        assert (got.equivalent, got.counterexample) == (brute.equivalent, brute.counterexample)
        assert decide_controllability(target, plant, spec) == decided and decided.holds

    def test_minimal_sizes(self):
        sizes = [minimize(build_eg1(n, 0.5, seed=0)).n for n in (1, 2, 3)]
        sizes += [minimize(build_egadd(n, 0.5, seed=0)).n for n in (4, 6)]
        assert sizes == [4, 10, 22, 9, 16]

    def test_composition_pair_peak_below_one_dense_matrix(self):
        eg1, egadd = build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)
        left, right = parallel_qfac(eg1, egadd), parallel_qfac(egadd, eg1)
        # The bound is one dense matrix of the all-pairs product; the
        # composites keep only the 6 reachable of its 36 classical pairs.
        n = len(eg1.classical_states) * len(egadd.classical_states) * (eg1.dim * egadd.dim) ** 2
        assert n == 576
        assert len(left.classical_states) == len(right.classical_states) == 6
        tracemalloc.start()
        try:
            verdict = equiv_qfac(left, right)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.equivalent
        assert peak < n * n * np.dtype(complex).itemsize

    def test_decision_peak_holds_the_basis_once(self, monkeypatch):
        plant = build_eg1(4, 0.5, seed=0)
        target = build_spec_variant(plant, plant.classical_states[-1])
        spec = ControlSpec(("0", "1", "2"), frozenset({"2"}), frozenset({"0", "1"}))
        assert minimize(target).n == minimize(plant).n == 46
        shapes = []

        def counted(*args):
            basis, hit = explore_span(*args)
            shapes.append(basis.shape)
            return basis, hit

        monkeypatch.setattr(supervisory, "explore_span", counted)
        tracemalloc.start()
        try:
            # The product route: the decision settles this restriction without it.
            decided = supervisory._decide_on_product(target, plant, spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decided.holds and shapes == [(75, 2 * 46 * 46)]
        # One k x n buffer of basis rows, doubling as it grows, and the
        # returned basis: about 4 k n floats.  A second, conjugated copy of
        # the basis rows, with its own doubling, read 6.5 k n.
        k, n = shapes[0]
        assert peak < 5 * k * n * np.dtype(float).itemsize


def graded_machine():
    """Reading s_i moves e0 to a_i e_i, and e_i on to a_i e_f, which eta reads,
    so f(s_i s_i) = a_i^2 and every kept direction adds one to the minimal
    size.  a_1 = 1e-3; a_2 ... a_7 lie between consecutive tolerances of
    MINIMIZE_TOLS, and so do the residuals of the words s_i."""
    n = 9
    scales = [1e-3, *(10.0 ** (-7.5 - j) for j in range(6))]
    matrices = {}
    for i, scale in enumerate(scales, start=1):
        m = np.zeros((n, n), dtype=complex)
        m[i, 0] = m[n - 1, i] = scale
        matrices[f"s{i}"] = m
    return Rblm(tuple(matrices), np.eye(n, dtype=complex)[0], matrices, np.eye(n, dtype=complex)[n - 1])


def random_automata():
    rng = np.random.default_rng(61)
    return [
        padded_with_dead_block(rng, random_rblm(rng, 3), 2),
        random_qfac(rng, 3, 3),
        random_mm(rng, 3),
        qfac_from_mo(random_mo(rng, 3)),
    ]


STOCK_AUTOMATA = {
    **{f"eg1-N{n}-{eps}": (lambda n=n, eps=eps: build_eg1(n, eps, seed=0)) for n in (1, 2, 3) for eps in (0.95, 0.5)},
    **{f"egadd-N{n}-{eps}": (lambda n=n, eps=eps: build_egadd(n, eps, seed=0)) for n in (4, 6) for eps in (0.98, 0.5)},
    "eg2-N2": lambda: build_eg2(2, 0.5),
    "eg1-N2-variant": lambda: build_spec_variant(build_eg1(2, 0.95, seed=0), "s5"),
    "eg1xegadd": lambda: parallel_qfac(build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)),
}

MINIMIZE_TOLS = (1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13)


class TestKernelAgainstReference:
    """The span kernel prunes after one Gram-Schmidt pass and tests several
    functional rows in one product; the reference runs both passes on
    every pop, in complex arithmetic, and tests one functional.  Sizes,
    verdicts and witnesses agree."""

    @pytest.mark.parametrize("name", [*STOCK_AUTOMATA, "random"])
    def test_visited_dimensions_and_minimal_sizes(self, name, monkeypatch):
        automata = random_automata() if name == "random" else [STOCK_AUTOMATA[name]()]
        for a in automata:
            form = blm.linear_form(a)
            start, alphabet = form.pi, tuple(sorted(form.alphabet))
            for tol in MINIMIZE_TOLS:
                visited = [len(kernel(start, lambda x, s: form.apply(s, x), alphabet, tol)[0])
                           for kernel in (explore_span, ref_explore_span)]
                assert visited[0] == visited[1]
                self.assert_same_minimal_size(a, tol, monkeypatch)

    def test_residuals_between_the_tolerances(self, monkeypatch):
        b = graded_machine()
        sizes = []
        for tol in MINIMIZE_TOLS:
            visited = [len(kernel(b.pi, lambda x, s: b.apply(s, x), b.alphabet, tol)[0])
                       for kernel in (explore_span, ref_explore_span)]
            assert visited[0] == visited[1]
            sizes.append(self.assert_same_minimal_size(b, tol, monkeypatch))
        assert sizes == [4, 5, 6, 7, 8, 9]

    @staticmethod
    def assert_same_minimal_size(a, tol, monkeypatch):
        """The minimal size of ``a`` at ``tol``, equal under both kernels.  An
        automaton keeps its minimal machine, so each call minimizes a freshly
        built copy of ``a``: the kept machine would be compared with itself."""
        monkeypatch.setattr(equivalence, "MINIMIZE_TOL", tol)
        size = minimize(dataclasses.replace(a)).n
        with monkeypatch.context() as patched:
            patched.setattr(equivalence, "explore_span", ref_kernel)
            assert minimize(dataclasses.replace(a)).n == size
        return size

    def test_equivalence_verdicts(self, monkeypatch):
        eg1, egadd = build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)
        rng = np.random.default_rng(67)
        pairs = [
            (equiv_qfac, eg1, eg1),
            (equiv_qfac, eg1, build_spec_variant(eg1, "s5")),
            (equiv_qfac, egadd, build_spec_variant(egadd, "s5")),
            (equiv_qfac, parallel_qfac(eg1, egadd), parallel_qfac(egadd, eg1)),
            (equiv_mm_qfa, build_eg2(2, 0.5), build_eg2(2, 0.5)),
            (equiv_mm_qfa, build_eg2(2, 0.5), build_eg2(3, 0.5)),
        ]
        for _ in range(10):
            b = random_rblm(rng, 3)
            pairs += [(equiv_rblm, b, similarity_transformed(rng, b)), (equiv_rblm, b, random_rblm(rng, 2)),
                      (equiv_rblm, b, padded_with_dead_block(rng, b, 2))]
        verdicts = [fn(a, b) for fn, a, b in pairs]
        assert {v.equivalent for v in verdicts} == {True, False}
        monkeypatch.setattr(equivalence, "explore_span", ref_kernel)
        assert [fn(a, b) for fn, a, b in pairs] == verdicts


class TestComplexReference:
    """An automaton's real machine against its complex vec(rho) machine
    (``ref_vec_rblm``), whose decisions run in complex arithmetic."""

    def test_eg1_n4_sizes_verdict_and_visited_dimension(self, monkeypatch):
        plant = build_eg1(4, 0.5, seed=0)
        target = build_spec_variant(plant, plant.classical_states[-1])
        ref_plant, ref_target = ref_vec_rblm(plant), ref_vec_rblm(target)
        spec = ControlSpec(("0", "1", "2"), frozenset({"2"}), frozenset({"0", "1"}))
        visited = []

        def counted(*args):
            basis, hit = explore_span(*args)
            visited.append(len(basis))
            return basis, hit

        monkeypatch.setattr(supervisory, "explore_span", counted)
        # The product route: the decision settles this restriction without it.
        real = [minimize(target), minimize(plant), supervisory._decide_on_product(target, plant, spec)]
        ref = [minimize(ref_target), minimize(ref_plant), decide_controllability(ref_target, ref_plant, spec)]
        assert real[0].pi.dtype == np.float64 and ref[0].pi.dtype == np.complex128
        assert [real[0].n, real[1].n, real[2]] == [ref[0].n, ref[1].n, ref[2]] == [46, 46, ControllabilityResult(True)]
        assert visited[0] == visited[1]
        v, w = equiv(plant, target), equiv_rblm(ref_plant, ref_target)
        assert (v.equivalent, v.counterexample, v.visited_dim) == (w.equivalent, w.counterexample, w.visited_dim)
        assert abs(v.f1 - w.f1) <= 1e-12 and abs(v.f2 - w.f2) <= 1e-12


def cut_variant():
    """eg1 N=1 at epsilon 0.5 and its variant with every 0 sent to the dead state,
    which is not controllable for the uncontrollable events 0 and 1."""
    plant = build_eg1(1, 0.5, seed=0)
    variant = build_spec_variant(plant, plant.classical_states[-1], symbol="0")
    return plant, variant, ControlSpec(("0", "1", "2"), {"2"}, {"0", "1"})


class TestToleranceRefused:
    """A NaN tolerance passes every test, an infinite one hides every gap,
    and zero or below counts an exact 0 as a gap: each gave wrong verdicts."""

    def test_default_tolerance_tells_the_variant_apart(self):
        plant, variant, spec = cut_variant()
        assert not decide_controllability(variant, plant, spec).holds
        assert not equiv_qfac(plant, variant).equivalent

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0], ids=["nan", "inf", "zero", "negative"])
    def test_every_decision_refuses(self, tol):
        plant, variant, spec = cut_variant()
        b = to_rblm(plant)
        no_events = ControlSpec(spec.alphabet, set(spec.alphabet), set())
        decisions = [
            lambda: decide_controllability(variant, plant, spec, tol=tol),
            lambda: decide_controllability(variant, plant, no_events, tol=tol),
            lambda: equiv_qfac(plant, variant, tol=tol),
            lambda: equiv_rblm(b, b, tol),
            lambda: k_equiv_bruteforce(b, b, 2, tol),
            lambda: explore_span(b.pi, lambda x, a: b.apply(a, x), b.alphabet, tol),
        ]
        for decide in decisions:
            with pytest.raises(ValueError, match="tolerance must be finite and positive"):
                decide()


KINDS = ("dfa", "mo-qfa", "mm-qfa", "qfac", "random-qfac")


def one_of_each_kind():
    rng = np.random.default_rng(71)
    return dict(zip(KINDS, (dfa_bounded_zeros(3), build_af_modp(11, 0.2), build_eg2(2, 0.5), build_eg1(1, 0.5, seed=0),
                            random_qfac(rng, 3, 2))))


class TestKeptOnTheAutomaton:
    """An automaton keeps its linear form and minimal machine, read-only; a
    bilinear machine, which its caller owns, is reduced anew every time."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_computed_once(self, kind):
        a = one_of_each_kind()[kind]
        assert blm.linear_form(a) is blm.linear_form(a)
        assert minimize(a) is minimize(a)

    @pytest.mark.parametrize("kind", KINDS)
    def test_kept_forms_refuse_writes(self, kind):
        a = one_of_each_kind()[kind]
        small, form = minimize(a), blm.linear_form(a)
        for x in (small.pi, small.eta, *small.matrices.values(), form.pi, form.eta):
            with pytest.raises(ValueError, match="read-only"):
                x[...] = 0
        with pytest.raises(TypeError):
            small.matrices[small.alphabet[0]] = np.eye(small.n)
        assert minimize(a).n == small.n > 0

    def test_a_machine_is_reduced_anew(self):
        rng = np.random.default_rng(73)
        b = padded_with_dead_block(rng, random_rblm(rng, 3), 2)
        assert blm.linear_form(b) is b
        assert minimize(b) is not minimize(b) and minimize(b).n == 3
        b.eta[:] = 0
        assert minimize(b).n == 0

    @pytest.mark.parametrize("kind", ["mo-qfa", "dfa"])
    def test_one_hybrid_embedding(self, kind, monkeypatch):
        a = one_of_each_kind()[kind]
        calls = []
        check = models.validate
        monkeypatch.setattr(models, "validate", lambda x: calls.append(type(x).__name__) or check(x))
        minimize(a)
        blm.linear_form(a)
        list(blm.levels(a, a.alphabet, 3))
        to_rblm(a)
        assert calls == ["Qfac"]


class TestCheckedOnlyWhenBuilt:
    def test_decisions_and_compilers_never_recheck(self, monkeypatch):
        plant, variant, spec = cut_variant()
        m1, m2 = build_eg2(2, 0.5), build_eg2(3, 0.5)
        calls = []
        check = models.validate
        monkeypatch.setattr(models, "validate", lambda a: calls.append(a) or check(a))
        decide_controllability(variant, plant, spec)
        equiv_qfac(plant, variant)
        equiv_mm_qfa(m1, m2)
        minimize(plant)
        minimize(m1)
        compile_qfac_to_rblm(plant)
        compile_mm_to_rblm(m1)
        assert calls == []
        build_eg2(2, 0.5)
        assert len(calls) == 1
