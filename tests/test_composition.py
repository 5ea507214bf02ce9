import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdes.composition import parallel_dfa, parallel_mo, parallel_qfac
from qdes.equivalence import equiv_qfac
from qdes.fixtures import build_eg1, build_egadd, dfa_bounded_zeros
from qdes.linalg import Projector
from qdes.models import Dfa, MoQfa, dfa_accepts, mo_accept_prob, qfac_accept_prob, qfac_from_dfa, qfac_from_mo, validate
from qdes.serialize import dumps

from helpers import random_dfa, random_mo, random_qfac, ref_parallel_dfa, ref_parallel_qfac, words_up_to


def always_accept_mo(alphabet):
    return MoQfa(
        alphabet=tuple(alphabet),
        unitaries={a: np.eye(1, dtype=complex) for a in alphabet},
        initial=np.array([1.0], dtype=complex),
        accepting=Projector.full(1),
        rejecting=Projector.empty(1),
    )


def dfa_pairs():
    """Random DFA pairs that share one or two events; most have private events too."""
    rng = np.random.default_rng(37)
    pairs = []
    for i in range(24):
        shared = ("a", "b")[: 1 + i % 2]
        own1, own2 = ("x",)[: (i // 2) % 2], ("y", "z")[: (i // 4) % 3]
        pairs.append((random_dfa(rng, int(rng.integers(1, 5)), (*shared, *own1)),
                      random_dfa(rng, int(rng.integers(1, 5)), (*own2, *shared))))
    return pairs


def pair_of(d1, d2):
    """The component states of each composite state name (no name here holds a comma)."""
    return {f"({p},{q})": (p, q) for p in d1.states for q in d2.states}


def reached(d):
    """The states of ``d`` reachable from its initial state (fixpoint of the image)."""
    states, grown = set(), {d.initial}
    while grown - states:
        states |= grown
        grown = states | {d.transitions[(q, a)] for q in states for a in d.alphabet}
    return states


class TestClassical:
    def test_shared_event_moves_both_components(self):
        for d1, d2 in dfa_pairs():
            comp, pair = parallel_dfa(d1, d2), pair_of(d1, d2)
            for s in comp.states:
                p, q = pair[s]
                for a in set(d1.alphabet) & set(d2.alphabet):
                    assert pair[comp.transitions[(s, a)]] == (d1.transitions[(p, a)], d2.transitions[(q, a)])

    def test_private_event_moves_one_component(self):
        moved = 0
        for d1, d2 in dfa_pairs():
            comp, pair = parallel_dfa(d1, d2), pair_of(d1, d2)
            for s in comp.states:
                p, q = pair[s]
                for a in set(d1.alphabet) - set(d2.alphabet):
                    assert pair[comp.transitions[(s, a)]] == (d1.transitions[(p, a)], q)
                    moved += 1
                for a in set(d2.alphabet) - set(d1.alphabet):
                    assert pair[comp.transitions[(s, a)]] == (p, d2.transitions[(q, a)])
                    moved += 1
        assert moved >= 20

    def test_accepts_exactly_when_each_factor_accepts_its_restriction(self):
        for d1, d2 in dfa_pairs():
            comp = parallel_dfa(d1, d2)
            assert comp.alphabet == tuple(dict.fromkeys((*d1.alphabet, *d2.alphabet)))
            for w in words_up_to(comp.alphabet, 4):
                own1 = [a for a in w if a in d1.alphabet]
                own2 = [a for a in w if a in d2.alphabet]
                assert dfa_accepts(comp, w) == (dfa_accepts(d1, own1) and dfa_accepts(d2, own2))

    def test_states_are_the_reachable_pairs_in_reference_order(self):
        trimmed = 0
        for d1, d2 in dfa_pairs():
            comp, ref = parallel_dfa(d1, d2), ref_parallel_dfa(d1, d2)
            keep = reached(ref)
            assert comp.states == tuple(s for s in ref.states if s in keep)
            assert comp.initial == ref.initial
            assert comp.accepting == ref.accepting & keep
            assert dict(comp.transitions) == {(s, a): t for (s, a), t in ref.transitions.items() if s in keep}
            trimmed += len(comp.states) < len(ref.states)
        assert trimmed >= 4

    def test_counter_with_itself_stays_on_the_diagonal(self):
        d = dfa_bounded_zeros(1)
        comp = parallel_dfa(d, d)
        assert comp.states == ("(z0,z0)", "(z1,z1)", "(dead,dead)")
        for w in words_up_to(("0", "1"), 4):
            assert dfa_accepts(comp, w) == dfa_accepts(d, w)


def comma_named_pair():
    """States ("a,b", "a") and ("c", "b,c"), each alternating on one symbol:
    written plainly as "(p,q)", both reachable pairs would read "(a,b,c)"."""
    def alternating(first, second):
        return Dfa((first, second), ("0",), {(first, "0"): second, (second, "0"): first}, first, frozenset({first}))
    return alternating("a,b", "a"), alternating("c", "b,c")


class TestPairNames:
    def test_comma_names_do_not_collide(self):
        d1, d2 = comma_named_pair()
        for comp, states, evaluate in (
            (parallel_dfa(d1, d2), "states", dfa_accepts),
            (parallel_qfac(qfac_from_dfa(d1), qfac_from_dfa(d2)), "classical_states", qfac_accept_prob),
        ):
            assert getattr(comp, states) == ("(a\\,b,c)", "(a,b\\,c)")
            assert [evaluate(comp, w) for w in ((), ("0",), ("0", "0"))] == [1.0, 0.0, 1.0]

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_escaped_names_stay_distinct(self, data):
        names = st.lists(st.text(alphabet="ab,\\()", max_size=4), min_size=4, max_size=4, unique=True)
        plain = [random_dfa(np.random.default_rng(data.draw(st.integers(0, 99), label=f"seed{i}")), 4, ("0", "1"))
                 for i in (1, 2)]
        named = [renamed(d, data.draw(names, label=f"names{i}")) for i, d in zip((1, 2), plain)]
        for compose, wrap, states in ((parallel_dfa, lambda d: d, "states"),
                                      (parallel_qfac, qfac_from_dfa, "classical_states")):
            comp = compose(*map(wrap, named))
            out = getattr(comp, states)
            assert len(set(out)) == len(out) == len(getattr(compose(*map(wrap, plain)), states))
            assert validate(comp) == []


def renamed(d, names):
    """``d`` with its i-th state called ``names[i]``."""
    new = dict(zip(d.states, names))
    return Dfa(tuple(new[q] for q in d.states), d.alphabet,
               {(new[q], a): new[t] for (q, a), t in d.transitions.items()},
               new[d.initial], frozenset(new[q] for q in d.accepting))


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
