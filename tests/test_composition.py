import dataclasses

import numpy as np
import pytest

from qdes.composition import ClassicalMatrixAutomaton, parallel_classical, parallel_mo, parallel_qfac
from qdes.equivalence import equiv_qfac
from qdes.fixtures import build_eg1, build_egadd, dfa_bounded_zeros
from qdes.linalg import Projector
from qdes.models import Dfa, MoQfa, dfa_accepts, mo_accept_prob, qfac_accept_prob, qfac_from_mo, validate
from qdes.serialize import dumps

from helpers import random_mo, random_qfac, ref_parallel_qfac, words_up_to


def cyclic_dfa(n, event="a"):
    states = tuple(f"q{i}" for i in range(n))
    return ClassicalMatrixAutomaton.from_dfa(
        Dfa(
            states=states,
            alphabet=(event,),
            transitions={(f"q{i}", event): f"q{(i + 1) % n}" for i in range(n)},
            initial="q0",
            accepting=frozenset({"q0"}),
        )
    )


def always_accept_mo(alphabet):
    return MoQfa(
        alphabet=tuple(alphabet),
        unitaries={a: np.eye(1, dtype=complex) for a in alphabet},
        initial=np.array([1.0], dtype=complex),
        accepting=Projector.full(1),
        rejecting=Projector.empty(1),
    )


class TestClassical:
    def test_shared_event_is_tensor(self):
        g = cyclic_dfa(2)
        comp = parallel_classical(g, g)
        np.testing.assert_array_equal(comp.matrices["a"], np.kron(g.matrices["a"], g.matrices["a"]))

    def test_equal_alphabets_degenerate_to_plain_tensor(self):
        g1 = ClassicalMatrixAutomaton.from_dfa(dfa_bounded_zeros(1))
        g2 = ClassicalMatrixAutomaton.from_dfa(dfa_bounded_zeros(2))
        comp = parallel_classical(g1, g2)
        for sym in ("0", "1"):
            np.testing.assert_array_equal(comp.matrices[sym], np.kron(g1.matrices[sym], g2.matrices[sym]))
        np.testing.assert_array_equal(comp.initial, np.kron(g1.initial, g2.initial))
        np.testing.assert_array_equal(comp.marked, np.kron(g1.marked, g2.marked))

    def test_private_events_get_identity_factor(self):
        g1 = cyclic_dfa(2, "a")
        g2 = cyclic_dfa(3, "b")
        comp = parallel_classical(g1, g2)
        np.testing.assert_array_equal(comp.matrices["a"], np.kron(g1.matrices["a"], np.eye(3, dtype=int)))
        np.testing.assert_array_equal(comp.matrices["b"], np.kron(np.eye(2, dtype=int), g2.matrices["b"]))

    def test_composite_tracks_componentwise_simulation(self):
        rng = np.random.default_rng(3)
        g1, g2 = cyclic_dfa(2), cyclic_dfa(3)
        comp = parallel_classical(g1, g2)
        for _ in range(20):
            w = ["a"] * int(rng.integers(0, 8))
            v1 = g1.run_indicator(w)
            v2 = g2.run_indicator(w)
            np.testing.assert_array_equal(comp.run_indicator(w), np.kron(v1, v2))

    def test_marked_set_is_product(self):
        d = dfa_bounded_zeros(1)
        g = ClassicalMatrixAutomaton.from_dfa(d)
        comp = parallel_classical(g, g)
        for w in words_up_to(("0", "1"), 4):
            assert comp.marks(w) == (dfa_accepts(d, w) and dfa_accepts(d, w))

    def test_entries_stay_binary(self):
        g1, g2 = cyclic_dfa(2), cyclic_dfa(2, "b")
        comp = parallel_classical(g1, g2)
        for m in comp.matrices.values():
            assert set(np.unique(m)) <= {0, 1}


class TestMeasureOnceComposition:
    def test_always_accept_is_identity(self):
        rng = np.random.default_rng(5)
        m = random_mo(rng, 2)
        comp = parallel_mo(m, always_accept_mo(m.alphabet))
        for w in words_up_to(m.alphabet, 5):
            assert abs(mo_accept_prob(comp, w) - mo_accept_prob(m, w)) <= 1e-12

    def test_two_rotations(self):
        import math

        u = np.array(
            [
                [math.cos(math.pi / 4), -math.sin(math.pi / 4)],
                [math.sin(math.pi / 4), math.cos(math.pi / 4)],
            ],
            dtype=complex,
        )
        m = MoQfa(
            alphabet=("0",),
            unitaries={"0": u},
            initial=np.array([1.0, 0.0], dtype=complex),
            accepting=Projector(frozenset({0}), 2),
            rejecting=Projector(frozenset({1}), 2),
        )
        comp = parallel_mo(m, m)
        assert abs(mo_accept_prob(comp, ("0",)) - 0.25) <= 1e-12

    def test_product_law_random(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            m1, m2 = random_mo(rng, 2), random_mo(rng, 3)
            comp = parallel_mo(m1, m2)
            for w in words_up_to(m1.alphabet, 5):
                assert abs(
                    mo_accept_prob(comp, w) - mo_accept_prob(m1, w) * mo_accept_prob(m2, w)
                ) <= 1e-10

    def test_alphabet_mismatch(self):
        with pytest.raises(ValueError):
            parallel_mo(always_accept_mo(("a",)), always_accept_mo(("b",)))

    def test_alphabet_in_another_order(self):
        m = random_mo(np.random.default_rng(19), 2)
        comp = parallel_mo(m, dataclasses.replace(m, alphabet=m.alphabet[::-1]))
        assert comp.alphabet == m.alphabet
        for w in words_up_to(m.alphabet, 4):
            assert abs(mo_accept_prob(comp, w) - mo_accept_prob(m, w) ** 2) <= 1e-12


class TestHybridComposition:
    def test_trivial_factor_is_identity(self):
        rng = np.random.default_rng(11)
        m = random_qfac(rng, 2, 2)
        trivial = qfac_from_mo(always_accept_mo(m.alphabet))
        comp = parallel_qfac(m, trivial)
        for w in words_up_to(m.alphabet, 5):
            assert abs(qfac_accept_prob(comp, w) - qfac_accept_prob(m, w)) <= 1e-12

    def test_halves_sum_squared(self):
        m = build_eg1(2, 0.95, seed=0)
        comp = parallel_qfac(m, m)
        assert abs(qfac_accept_prob(comp, tuple("0110")) - 1.0) <= 1e-9

    def test_product_law_random(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            m1 = random_qfac(rng, 2, 2)
            m2 = random_qfac(rng, 2, 2)
            comp = parallel_qfac(m1, m2)
            for w in words_up_to(m1.alphabet, 4):
                assert abs(
                    qfac_accept_prob(comp, w) - qfac_accept_prob(m1, w) * qfac_accept_prob(m2, w)
                ) <= 1e-10

    def test_composite_validates(self):
        rng = np.random.default_rng(17)
        comp = parallel_qfac(random_qfac(rng, 2, 2), random_qfac(rng, 2, 2))
        assert validate(comp) == []

    def test_alphabet_in_another_order(self):
        m = build_eg1(2, 0.95, seed=0)
        reversed_m = dataclasses.replace(m, alphabet=m.alphabet[::-1])
        assert equiv_qfac(m, reversed_m).equivalent
        comp = parallel_qfac(m, reversed_m)
        assert comp.alphabet == m.alphabet
        for w in words_up_to(m.alphabet, 4):
            assert abs(qfac_accept_prob(comp, w) - qfac_accept_prob(m, w) ** 2) <= 1e-12

    def test_alphabet_mismatch(self):
        m = random_qfac(np.random.default_rng(23), 2, 2)
        with pytest.raises(ValueError):
            parallel_qfac(m, random_qfac(np.random.default_rng(23), 2, 2, alphabet=("a", "c")))


def reachable_pairs(m1, m2):
    """Fixpoint of the pair image under every symbol, from the initial pair."""
    reached, grown = set(), {(m1.initial_classical, m2.initial_classical)}
    while grown - reached:
        reached |= grown
        grown = reached | {(m1.transitions[(s1, a)], m2.transitions[(s2, a)]) for s1, s2 in reached for a in m1.alphabet}
    return {f"({s1},{s2})" for s1, s2 in reached}


def product_pairs():
    rng = np.random.default_rng(29)
    pairs = [(random_qfac(rng, int(rng.integers(1, 4)), 2), random_qfac(rng, int(rng.integers(2, 4)), 2))
             for _ in range(10)]
    return [*pairs, (build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0))]


class TestAccessibleProduct:
    """The composite keeps the classical pairs reachable from the initial
    pair, in the all-pairs reference's order, and the reference's word function."""

    def test_states_are_the_reachable_pairs_in_reference_order(self):
        trimmed = 0
        for m1, m2 in product_pairs():
            comp, ref = parallel_qfac(m1, m2), ref_parallel_qfac(m1, m2)
            reached = reachable_pairs(m1, m2)
            assert comp.classical_states == tuple(s for s in ref.classical_states if s in reached)
            assert comp.initial_classical == ref.initial_classical
            trimmed += len(comp.classical_states) < len(ref.classical_states)
        assert trimmed >= 4

    def test_acceptance_and_equivalence_match_reference(self):
        for m1, m2 in product_pairs():
            comp, ref = parallel_qfac(m1, m2), ref_parallel_qfac(m1, m2)
            for w in words_up_to(m1.alphabet, 5):
                assert qfac_accept_prob(comp, w) == qfac_accept_prob(ref, w)
            assert equiv_qfac(comp, ref).equivalent

    def test_document_byte_identical_when_every_pair_is_reachable(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            m = random_qfac(rng, int(rng.integers(1, 4)), 2)
            trivial = qfac_from_mo(always_accept_mo(m.alphabet))
            for m1, m2 in ((m, trivial), (trivial, m)):
                ref = ref_parallel_qfac(m1, m2)
                if set(ref.classical_states) == reachable_pairs(m1, m2):
                    assert dumps(parallel_qfac(m1, m2)) == dumps(ref)
        eg1 = build_eg1(2, 0.95, seed=0)
        trivial = qfac_from_mo(always_accept_mo(eg1.alphabet))
        assert dumps(parallel_qfac(eg1, trivial)) == dumps(ref_parallel_qfac(eg1, trivial))
