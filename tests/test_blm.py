import numpy as np
import pytest

from qdes.blm import (
    LinearForm,
    Rblm,
    absorb_symbol,
    blm_eval,
    compile_mm_to_rblm,
    compile_qfac_to_rblm,
    linear_form,
    to_rblm,
)
from qdes.composition import parallel_qfac
from qdes.fixtures import build_eg1, build_eg2, build_egadd, dfa_bounded_zeros, eg2_rate
from qdes.linalg import projected_norm_sq
from qdes.models import ValidationFailedError, mm_accept_prob, mo_accept_prob, qfac_accept_prob, qfac_from_mo

from helpers import random_mm, random_mo, random_qfac, random_rblm, words_up_to


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
            assert np.array_equal(form.apply(sym, np.eye(b.n, dtype=complex)), b.matrices[sym])

    @pytest.mark.parametrize("name", ["eg1-N2", "egadd-N4", "eg1xegadd"])
    def test_blocks_are_the_kronecker_conjugation_maps(self, name):
        m = HYBRIDS[name]()
        b, nn = to_rblm(m), m.dim * m.dim
        for sym in m.alphabet:
            expected = np.zeros((b.n, b.n), dtype=complex)
            for i, s in enumerate(m.classical_states):
                j = m.classical_states.index(m.transitions[(s, sym)])
                u = np.asarray(m.unitaries[(s, sym)], dtype=complex)
                expected[j * nn:(j + 1) * nn, i * nn:(i + 1) * nn] += np.kron(u, np.conj(u))
            assert np.array_equal(b.matrices[sym], expected)

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
