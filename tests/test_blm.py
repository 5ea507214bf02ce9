import numpy as np
import pytest

from qdes.blm import (
    LinearForm,
    Rblm,
    _as_hybrid,
    absorb_symbol,
    blm_eval,
    compile_mm_to_rblm,
    compile_qfac_to_rblm,
    hermitian_basis,
    linear_form,
    to_rblm,
)
from qdes.composition import parallel_qfac
from qdes.equivalence import minimize
from qdes.fixtures import build_af_modp, build_eg1, build_eg2, build_egadd, dfa_bounded_zeros, eg2_rate
from qdes.linalg import dagger, projected_norm_sq
from qdes.models import MmQfa, ValidationFailedError, mm_accept_prob, mo_accept_prob, qfac_accept_prob, qfac_from_mo

from helpers import random_mm, random_mo, random_qfac, random_rblm, ref_vec_rblm, words_up_to


def scalar_machine(value, alphabet=("a",)):
    return Rblm(
        alphabet=tuple(alphabet),
        pi=np.array([1.0], dtype=complex),
        matrices={s: np.array([[value]], dtype=complex) for s in alphabet},
        eta=np.array([1.0], dtype=complex),
    )


class TestEval:
    def test_empty_word_is_eta_pi(self):
        rng = np.random.default_rng(2)
        b = random_rblm(rng, 4)
        assert abs(blm_eval(b, ()) - float(np.real(b.eta @ b.pi))) <= 1e-15

    def test_scalar_power(self):
        assert blm_eval(scalar_machine(0.5), ("a", "a")) == 0.25

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            blm_eval(scalar_machine(0.5), ("b",))

    def test_imaginary_violation_raises(self):
        b = Rblm(
            alphabet=("a",),
            pi=np.array([1.0], dtype=complex),
            matrices={"a": np.array([[1j]], dtype=complex)},
            eta=np.array([1.0], dtype=complex),
        )
        with pytest.raises(ArithmeticError):
            blm_eval(b, ("a",))


class TestAbsorb:
    def test_absorb_identity_symbol(self):
        rng = np.random.default_rng(19)
        b = random_rblm(rng, 3, alphabet=("a", "t"))
        with_id = Rblm(b.alphabet, b.pi, {**b.matrices, "t": np.eye(3, dtype=complex)}, b.eta)
        hat = absorb_symbol(with_id, "t")
        assert hat.alphabet == ("a",)
        for w in words_up_to(("a",), 4):
            assert abs(blm_eval(hat, w) - blm_eval(with_id, w)) <= 1e-12

    def test_absorb_scalar(self):
        b = scalar_machine(0.5, alphabet=("a", "t"))
        assert blm_eval(absorb_symbol(b, "t"), ()) == 0.5

    def test_absorb_matches_suffix_eval(self):
        rng = np.random.default_rng(23)
        b = random_rblm(rng, 3)
        hat = absorb_symbol(b, "b")
        assert hat.alphabet == ("a",)
        for w in words_up_to(hat.alphabet, 4):
            assert abs(blm_eval(hat, w) - blm_eval(b, (*w, "b"))) <= 1e-12

    def test_absorb_unknown_symbol(self):
        with pytest.raises(ValueError):
            absorb_symbol(scalar_machine(0.5), "z")


class TestCompileMeasureMany:
    def test_decay_fixture_closed_form(self):
        m = build_eg2(2, 0.5)
        r = eg2_rate(2, 0.5)
        b = compile_mm_to_rblm(m)
        assert b.n == m.dim**2 + 1
        for w in words_up_to(("0", "1"), 6):
            zeros = sum(1 for c in w if c == "0")
            assert abs(blm_eval(b, w) - (1 - r) ** zeros) <= 1e-10

    def test_empty_word_is_end_marker_step(self):
        rng = np.random.default_rng(29)
        m = random_mm(rng, 3)
        b = compile_mm_to_rblm(m)
        expected = projected_norm_sq(m.accepting, m.unitaries["$"] @ m.initial)
        assert abs(blm_eval(b, ()) - expected) <= 1e-12

    def test_matches_direct_evaluator(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            m = random_mm(rng, int(rng.integers(2, 5)))
            b = compile_mm_to_rblm(m)
            for w in words_up_to(m.alphabet, 5):
                assert abs(blm_eval(b, w) - mm_accept_prob(m, w)) <= 1e-9

    def test_invalid_automaton_rejected(self):
        m = build_eg2(2, 0.5)
        with pytest.raises(ValidationFailedError) as err:
            m.__class__(
                alphabet=m.alphabet,
                unitaries={**m.unitaries, "0": np.diag([1.0, 2.0, 1.0]).astype(complex)},
                initial=m.initial,
                accepting=m.accepting,
                rejecting=m.rejecting,
                going=m.going,
            )
        assert err.value.violations == ["unitary 0: non-unitary (max deviation 3.000e+00)"]


class TestCompileHybrid:
    def test_one_classical_state_equals_measure_once(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            mo = random_mo(rng, 3)
            b = compile_qfac_to_rblm(qfac_from_mo(mo))
            assert b.n == 1 * 3**2
            for w in words_up_to(mo.alphabet, 5):
                assert abs(blm_eval(b, w) - mo_accept_prob(mo, w)) <= 1e-9

    def test_halves_sum_instance(self):
        m = build_eg1(2, 0.95, seed=0)
        b = compile_qfac_to_rblm(m)
        assert b.n == len(m.classical_states) * m.dim**2
        assert abs(blm_eval(b, tuple("0110")) - 1.0) <= 1e-9

    def test_empty_word_measures_initial(self):
        rng = np.random.default_rng(41)
        m = random_qfac(rng, 2, 2)
        b = compile_qfac_to_rblm(m)
        expected = projected_norm_sq(m.accepting[m.initial_classical], m.initial_quantum)
        assert abs(blm_eval(b, ()) - expected) <= 1e-12

    def test_matches_direct_evaluator(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            m = random_qfac(rng, int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            b = compile_qfac_to_rblm(m)
            for w in words_up_to(m.alphabet, 5):
                assert abs(blm_eval(b, w) - qfac_accept_prob(m, w)) <= 1e-9


HYBRIDS = {
    **{f"eg1-N{n}": (lambda n=n: build_eg1(n, 0.5, seed=0)) for n in (1, 2, 3)},
    **{f"egadd-N{n}": (lambda n=n: build_egadd(n, 0.5, seed=0)) for n in (4, 6)},
    "eg1xegadd": lambda: parallel_qfac(build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)),
    "mo-qfa": lambda: random_mo(np.random.default_rng(47), 3),
    "dfa": lambda: dfa_bounded_zeros(2),
}


class TestLinearForm:
    @pytest.mark.parametrize("name", HYBRIDS)
    def test_operator_step_is_the_compiled_matrix(self, name):
        a = HYBRIDS[name]()
        form, b = linear_form(a), to_rblm(a)
        assert isinstance(form, LinearForm) and form.n == b.n
        assert np.array_equal(form.pi, b.pi) and np.array_equal(form.eta, b.eta)
        for sym in b.alphabet:
            assert np.array_equal(form.apply(sym, np.eye(b.n)), b.matrices[sym])

    @pytest.mark.parametrize("name", ["eg1-N2", "egadd-N4", "eg1xegadd"])
    def test_blocks_are_the_kronecker_conjugation_maps(self, name):
        m = HYBRIDS[name]()
        b, nn, w = to_rblm(m), m.dim * m.dim, hermitian_basis(m.dim)
        for sym in m.alphabet:
            expected = np.zeros((b.n, b.n), dtype=complex)
            for i, s in enumerate(m.classical_states):
                j = m.classical_states.index(m.transitions[(s, sym)])
                u = np.asarray(m.unitaries[(s, sym)], dtype=complex)
                expected[j * nn:(j + 1) * nn, i * nn:(i + 1) * nn] += w @ np.kron(u, np.conj(u)) @ dagger(w)
            assert np.abs(expected.imag).max() <= 1e-15
            assert np.array_equal(b.matrices[sym], expected.real)

    @pytest.mark.parametrize("name", ["eg1-N2", "mo-qfa", "dfa"])
    def test_one_vector_and_a_block(self, name):
        a = HYBRIDS[name]()
        form, b = linear_form(a), to_rblm(a)
        rng = np.random.default_rng(53)
        x = rng.normal(size=b.n) + 1j * rng.normal(size=b.n)
        block = rng.normal(size=(b.n, 3)) + 1j * rng.normal(size=(b.n, 3))
        for sym in b.alphabet:
            assert form.apply(sym, x).shape == (b.n,)
            assert np.allclose(form.apply(sym, x), b.matrices[sym] @ x, atol=1e-12)
            assert np.allclose(form.apply(sym, block), b.matrices[sym] @ block, atol=1e-12)
        for w in words_up_to(b.alphabet, 3):
            assert abs(blm_eval(form, w) - blm_eval(b, w)) <= 1e-12

    def test_machines_are_their_own_form(self):
        b = random_rblm(np.random.default_rng(59), 3)
        assert linear_form(b) is b
        m = build_eg2(2, 0.5)
        dense = linear_form(m)
        assert isinstance(dense, Rblm)
        assert all(np.array_equal(dense.matrices[a], compile_mm_to_rblm(m).matrices[a]) for a in m.alphabet)

    def test_invalid_automaton_refused_as_by_the_compiler(self):
        m = build_eg1(1, 0.95, seed=0)
        unitaries = {**m.unitaries, ("s0", "0"): np.diag([1.0, 2.0, 1.0, 1.0]).astype(complex)}
        with pytest.raises(ValidationFailedError) as err:
            m.__class__(m.classical_states, m.alphabet, m.initial_classical, m.initial_quantum, m.transitions,
                        unitaries, m.accepting)
        assert err.value.violations == ["unitary (s0,0): shape (4, 4) does not match dimension 2"]
        assert str(err.value) == "invalid automaton: unitary (s0,0): shape (4, 4) does not match dimension 2"

    def test_unknown_kind(self):
        with pytest.raises(TypeError):
            linear_form("not an automaton")


STOCK_KINDS = {
    "eg1": lambda: build_eg1(2, 0.5, seed=0),
    "egadd": lambda: build_egadd(4, 0.98, seed=0),
    "eg2-mm": lambda: build_eg2(2, 0.5),
    "af-modp-mo": lambda: build_af_modp(7, 0.9),
    "dfa": lambda: dfa_bounded_zeros(2),
    "eg1xegadd": lambda: parallel_qfac(build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)),
}


def to_real_coordinates(a) -> np.ndarray:
    """The unitary taking ``ref_vec_rblm(a)``'s coordinates to the compilers':
    ``hermitian_basis`` on each vec(rho) block, and 1 on the accumulator."""
    if isinstance(a, MmQfa):
        nn = a.dim * a.dim
        w = np.eye(nn + 1, dtype=complex)
        w[:nn, :nn] = hermitian_basis(a.dim)
        return w
    hybrid = _as_hybrid(a)
    return np.kron(np.eye(len(hybrid.classical_states)), hermitian_basis(hybrid.dim))


class TestRealCoordinates:
    """Every form, compiled machine and minimal machine of an automaton is
    float64: the Hermitian-basis image of the complex vec(rho) machine,
    whose imaginary part is rounding only."""

    @pytest.mark.parametrize("name", STOCK_KINDS)
    def test_forms_machines_and_minimal_machines_are_float64(self, name):
        a = STOCK_KINDS[name]()
        form, machines = linear_form(a), (to_rblm(a), minimize(a))
        assert form.pi.dtype == form.eta.dtype == np.float64
        assert all(form.apply(sym, form.pi).dtype == np.float64 for sym in form.alphabet)
        for b in machines:
            assert {b.pi.dtype, b.eta.dtype, *(m.dtype for m in b.matrices.values())} == {np.dtype(np.float64)}

    @pytest.mark.parametrize("name", STOCK_KINDS)
    def test_the_dropped_imaginary_part_is_rounding(self, name):
        # Each entry is a sum of at most four products of entries of modulus
        # at most 1, over a handful of steps: a few eps, far below 1e-14.
        a = STOCK_KINDS[name]()
        ref, b, w = ref_vec_rblm(a), to_rblm(a), to_real_coordinates(a)
        pairs = [(b.pi, w @ ref.pi), (b.eta, ref.eta @ dagger(w))]
        pairs += [(b.matrices[sym], w @ ref.matrices[sym] @ dagger(w)) for sym in b.alphabet]
        for real, exact in pairs:
            assert np.abs(exact.imag).max() <= 1e-14
            assert np.abs(real - exact.real).max() <= 1e-14
