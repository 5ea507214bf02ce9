import math

import numpy as np
import pytest

from qdes.fixtures import build_eg1, build_eg2, dfa_bounded_zeros, eg2_rate
from qdes.linalg import Projector, projected_norm_sq
from qdes.models import (
    Dfa,
    MmQfa,
    MoQfa,
    dfa_accepts,
    mm_accept_prob,
    mo_accept_prob,
    qfac_accept_prob,
    qfac_from_dfa,
    qfac_from_mo,
    validate,
)
from qdes.models import _mm_accept_prob_products

from helpers import random_mm, random_mo, random_qfac, ref_mm_accept_prob, words_up_to


def rotation_mo(theta):
    u = np.array(
        [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]],
        dtype=complex,
    )
    return MoQfa(
        alphabet=("0",),
        unitaries={"0": u},
        initial=np.array([1.0, 0.0], dtype=complex),
        accepting=Projector(frozenset({0}), 2),
        rejecting=Projector(frozenset({1}), 2),
    )


class TestDfa:
    def test_counter_automaton(self):
        d = dfa_bounded_zeros(2)
        assert dfa_accepts(d, tuple("010"))
        assert not dfa_accepts(d, tuple("000"))

    def test_empty_word_depends_on_initial(self):
        d = dfa_bounded_zeros(1)
        assert dfa_accepts(d, ())

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            dfa_accepts(dfa_bounded_zeros(1), ("0", "x"))


class TestMeasureOnce:
    def test_rotation_probabilities(self):
        # 2x2 product oracle: after k rotations by pi/4 the amplitude on
        # the accepting state is cos(k*pi/4).
        m = rotation_mo(math.pi / 4)
        assert abs(mo_accept_prob(m, ("0",)) - 0.5) <= 1e-12
        assert mo_accept_prob(m, ("0", "0")) <= 1e-15

    def test_empty_word_inside_accepting_subspace(self):
        m = rotation_mo(0.7)
        assert mo_accept_prob(m, ()) == 1.0

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            mo_accept_prob(rotation_mo(0.1), ("1",))

    def test_probabilities_in_range(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_mo(rng, 3)
            for w in words_up_to(m.alphabet, 4):
                assert 0.0 <= mo_accept_prob(m, w) <= 1.0

    def test_degenerate_empty_alphabet(self):
        m = MoQfa(
            alphabet=(),
            unitaries={},
            initial=np.array([1.0, 0.0], dtype=complex),
            accepting=Projector(frozenset({0}), 2),
            rejecting=Projector(frozenset({1}), 2),
        )
        assert validate(m) == []
        assert mo_accept_prob(m, ()) == 1.0


class TestMeasureMany:
    def test_decay_fixture_values(self):
        m = build_eg2(2, 0.5)
        r = eg2_rate(2, 0.5)
        assert mm_accept_prob(m, ()) == 1.0
        assert abs(mm_accept_prob(m, tuple("00")) - (1 - r) ** 2) <= 1e-12
        assert abs(mm_accept_prob(m, tuple("11")) - 1.0) <= 1e-12

    def test_end_marker_rejected_inside_word(self):
        with pytest.raises(ValueError):
            mm_accept_prob(build_eg2(2, 0.5), ("0", "$"))

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            mm_accept_prob(build_eg2(2, 0.5), ("2",))

    def test_both_index_forms_agree(self):
        rng = np.random.default_rng(23)
        for _ in range(8):
            m = random_mm(rng, int(rng.integers(2, 5)))
            for w in words_up_to(m.alphabet, 6):
                a = mm_accept_prob(m, w)
                b = _mm_accept_prob_products(m, w)
                assert abs(a - min(1.0, max(0.0, b))) <= 1e-12

    def test_cross_check_flag(self):
        m = build_eg2(3, 0.5)
        assert mm_accept_prob(m, tuple("0101"), cross_check=True) == pytest.approx(
            (1 - eg2_rate(3, 0.5)) ** 2, abs=1e-12
        )

    @pytest.mark.parametrize("n_param", [1, 2, 3, 4, 5])
    def test_equals_the_projector_loop_on_fixtures(self, n_param):
        m = build_eg2(n_param, 0.5)
        assert all(mm_accept_prob(m, w) == ref_mm_accept_prob(m, w) for w in words_up_to(m.alphabet, 10))

    def test_equals_the_projector_loop_on_random_machines(self):
        rng = np.random.default_rng(31)
        for _ in range(6):
            m = random_mm(rng, int(rng.integers(2, 6)))
            assert all(mm_accept_prob(m, w) == ref_mm_accept_prob(m, w) for w in words_up_to(m.alphabet, 6))

    @pytest.mark.parametrize("shape", [(4, 4), (4, 3), (2, 3)], ids=["square", "tall", "short"])
    def test_wrong_unitary_size_unvalidated(self, shape):
        m = build_eg2(2, 0.5)
        bad = MmQfa(m.alphabet, {**m.unitaries, "1": np.eye(*shape, dtype=complex)}, m.initial, m.accepting,
                    m.rejecting, m.going)
        assert mm_accept_prob(bad, ("0",)) == ref_mm_accept_prob(bad, ("0",))
        for evaluate in (mm_accept_prob, ref_mm_accept_prob):
            with pytest.raises(ValueError):
                evaluate(bad, ("0", "1"))

    def test_projector_dimension_mismatch(self):
        m = build_eg2(2, 0.5)
        bad = MmQfa(m.alphabet, m.unitaries, m.initial, Projector(m.accepting.subset, 4), m.rejecting, m.going)
        for evaluate in (mm_accept_prob, ref_mm_accept_prob):
            with pytest.raises(ValueError, match="dimension mismatch"):
                evaluate(bad, ())

    def test_cumulative_halting_mass_bounded(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            m = random_mm(rng, 4)
            for w in words_up_to(m.alphabet, 3):
                halted = 0.0
                going = np.asarray(m.initial)
                for sym in (*w, "$"):
                    v = m.unitaries[sym] @ going
                    halted += projected_norm_sq(m.accepting, v)
                    halted += projected_norm_sq(m.rejecting, v)
                    going = m.going.apply(v)
                    assert halted <= 1.0 + 1e-9


class TestHybrid:
    def test_empty_word_full_measurement(self):
        rng = np.random.default_rng(31)
        m = random_qfac(rng, 2, 2)
        m.accepting[m.initial_classical] = Projector.full(2)
        assert qfac_accept_prob(m, ()) == 1.0

    def test_halves_sum_fixture(self):
        m = build_eg1(2, 0.95, seed=0)
        assert abs(qfac_accept_prob(m, tuple("0110")) - 1.0) <= 1e-9
        assert qfac_accept_prob(m, tuple("00000")) == 0.0

    def test_unknown_symbol(self):
        with pytest.raises(ValueError):
            qfac_accept_prob(build_eg1(1, 0.95), ("3",))

    def test_one_classical_state_reduces_to_measure_once(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            mo = random_mo(rng, 3)
            hybrid = qfac_from_mo(mo)
            for w in words_up_to(mo.alphabet, 6):
                assert abs(qfac_accept_prob(hybrid, w) - mo_accept_prob(mo, w)) <= 1e-12

    def test_dfa_embedding_is_crisp(self):
        d = dfa_bounded_zeros(2)
        hybrid = qfac_from_dfa(d)
        assert validate(hybrid) == []
        for w in words_up_to(("0", "1"), 5):
            expected = 1.0 if dfa_accepts(d, w) else 0.0
            assert qfac_accept_prob(hybrid, w) == expected


class TestValidate:
    def test_fixtures_are_clean(self):
        assert validate(build_eg2(2, 0.5)) == []
        assert validate(build_eg1(1, 0.95)) == []
        assert validate(dfa_bounded_zeros(2)) == []

    def test_non_unitary_named(self):
        m = rotation_mo(0.3)
        bad = MoQfa(
            alphabet=m.alphabet,
            unitaries={"0": np.diag([1.0, 2.0]).astype(complex)},
            initial=m.initial,
            accepting=m.accepting,
            rejecting=m.rejecting,
        )
        problems = validate(bad)
        assert len(problems) == 1
        assert "non-unitary" in problems[0] and "0" in problems[0]

    def test_overlapping_measure_many_partition(self):
        m = build_eg2(2, 0.5)
        bad = MmQfa(
            alphabet=m.alphabet,
            unitaries=m.unitaries,
            initial=m.initial,
            accepting=Projector(frozenset({0, 2}), 3),
            rejecting=m.rejecting,
            going=m.going,
        )
        assert any("partition" in p for p in validate(bad))

    def test_unnormalized_initial(self):
        m = rotation_mo(0.3)
        bad = MoQfa(
            alphabet=m.alphabet,
            unitaries=m.unitaries,
            initial=np.array([1.0, 1.0], dtype=complex),
            accepting=m.accepting,
            rejecting=m.rejecting,
        )
        assert any("norm" in p for p in validate(bad))

    def test_missing_classical_transition(self):
        rng = np.random.default_rng(41)
        m = random_qfac(rng, 2, 2)
        broken = dict(m.transitions)
        del broken[("s1", "a")]
        bad = m.__class__(
            classical_states=m.classical_states,
            alphabet=m.alphabet,
            initial_classical=m.initial_classical,
            initial_quantum=m.initial_quantum,
            transitions=broken,
            unitaries=m.unitaries,
            accepting=m.accepting,
        )
        assert any("transition missing" in p for p in validate(bad))

    def test_dfa_missing_transition(self):
        d = Dfa(("a", "b"), ("x",), {("a", "x"): "b"}, "a", frozenset({"a"}))
        assert any("missing" in p for p in validate(d))
