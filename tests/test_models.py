import copy
import dataclasses
import math
import pickle
import sys
import threading
from collections.abc import Mapping
from types import MappingProxyType

import numpy as np
import pytest

from qdes.blm import evaluator
from qdes import composition, models, supervisory
from qdes.composition import parallel_dfa, parallel_qfac
from qdes.fixtures import (
    build_af_modp,
    build_eg1,
    build_eg2,
    build_eg2_spec,
    build_egadd,
    build_spec_variant,
    dfa_bounded_zeros,
    dfa_halves_sum_tracking,
    dfa_zero_imbalance_tracking,
    eg2_rate,
    minimal_dfa_size,
)
from qdes.linalg import Projector, projected_norm_sq
from qdes.models import (
    Dfa,
    MmQfa,
    MoQfa,
    Qfac,
    ValidationFailedError,
    dfa_accepts,
    mm_accept_prob,
    mo_accept_prob,
    qfac_accept_prob,
    qfac_from_dfa,
    qfac_from_mo,
    validate,
)
from qdes.models import _live_states, _mm_accept_prob_products, _mm_steps, _qfac_steps, _validate_unitaries
from qdes.serialize import to_document

from helpers import (
    random_dfa,
    random_mm,
    random_mo,
    random_qfac,
    ref_accessible_pairs,
    ref_leaves_mm_restriction,
    ref_leaves_restriction,
    ref_live_states,
    ref_minimal_dfa_size,
    ref_mm_accept_prob,
    ref_mo_accept_prob,
    ref_qfac_accept_prob,
    ref_validate_unitaries,
    words_up_to,
)


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


class TestMeasureOnceThroughEmbedding:
    """``mo_accept_prob`` runs the hybrid evaluator on the kept embedding,
    with the floats of the measure-once loop on the automaton itself."""

    @pytest.mark.parametrize("p,eps", [(5, 0.3), (7, 0.2), (11, 0.2)])
    def test_equal_to_the_loop_on_af_modp(self, p, eps):
        m = build_af_modp(p, eps)
        for w in words_up_to(m.alphabet, 2 * p):
            assert mo_accept_prob(m, w) == ref_mo_accept_prob(m, w)

    def test_equal_to_the_loop_on_random_automata(self):
        rng = np.random.default_rng(23)
        for n in (1, 2, 3, 5):
            m = random_mo(rng, n, ("a", "b", "c"))
            for w in words_up_to(m.alphabet, 6):
                assert mo_accept_prob(m, w) == ref_mo_accept_prob(m, w)

    def test_embedding_built_once_and_kept(self):
        m = random_mo(np.random.default_rng(24), 3)
        assert qfac_from_mo not in m.__dict__.get("_derived", {})
        mo_accept_prob(m, ("a",))
        hybrid = m._derived[qfac_from_mo]
        mo_accept_prob(m, ("b", "a"))
        assert m._memo(qfac_from_mo) is hybrid


class TestDfaEvaluator:
    """``blm.evaluator`` reads a DFA through its kept hybrid embedding."""

    CASES = {
        "bounded-zeros-1": lambda: dfa_bounded_zeros(1),
        "bounded-zeros-3": lambda: dfa_bounded_zeros(3),
        "random-2": lambda: random_dfa(np.random.default_rng(2), 2),
        "random-5": lambda: random_dfa(np.random.default_rng(5), 5, ("a", "b", "c")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_equal_to_dfa_accepts(self, case):
        d = self.CASES[case]()
        f = evaluator(d)
        for w in words_up_to(d.alphabet, 6):
            assert f(w) == float(dfa_accepts(d, w))
        assert qfac_from_dfa in d._derived

    def test_unknown_symbol(self):
        with pytest.raises(ValueError, match="not in alphabet"):
            evaluator(dfa_bounded_zeros(1))(("0", "x"))


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

    def test_cross_check_with_the_product_form(self):
        m = build_eg2(3, 0.5)
        value = mm_accept_prob(m, tuple("0101"))
        assert abs(value - _mm_accept_prob_products(m, tuple("0101"))) <= 1e-12
        assert value == pytest.approx((1 - eg2_rate(3, 0.5)) ** 2, abs=1e-12)

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
    def test_wrong_unitary_size_refused(self, shape):
        m = build_eg2(2, 0.5)
        with pytest.raises(ValidationFailedError) as err:
            MmQfa(m.alphabet, {**m.unitaries, "1": np.eye(*shape, dtype=complex)}, m.initial, m.accepting,
                  m.rejecting, m.going)
        assert err.value.violations == [f"unitary 1: shape {shape} does not match dimension 3"]

    def test_projector_dimension_mismatch(self):
        m = build_eg2(2, 0.5)
        with pytest.raises(ValidationFailedError) as err:
            MmQfa(m.alphabet, m.unitaries, m.initial, Projector(m.accepting.subset, 4), m.rejecting, m.going)
        assert err.value.violations == ["projector accepting: dimension 4 does not match 3"]

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
        full = dataclasses.replace(m, accepting={**m.accepting, m.initial_classical: Projector.full(2)})
        assert qfac_accept_prob(full, ()) == 1.0

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


def one_of_each_kind():
    rng = np.random.default_rng(41)
    return {"dfa": dfa_bounded_zeros(2), "mo-qfa": random_mo(rng, 2), "mm-qfa": random_mm(rng, 2),
            "qfac": random_qfac(rng, 2, 2)}


MAPPINGS = {"dfa": ("transitions",), "mo-qfa": ("unitaries",), "mm-qfa": ("unitaries",),
            "qfac": ("transitions", "unitaries", "accepting")}


def assert_arrays_read_only(a):
    """Every array of a quantum automaton, its projectors' index arrays included, refuses a write."""
    values = [getattr(a, f.name) for f in dataclasses.fields(a)]
    values += [v for m in values if isinstance(m, Mapping) for v in m.values()]
    arrays = [v._idx if isinstance(v, Projector) else v for v in values if isinstance(v, (np.ndarray, Projector))]
    assert any(isinstance(v, Projector) for v in values) and any(x.size for x in arrays)
    for x in arrays:
        if x.size:
            with pytest.raises(ValueError, match="read-only"):
                x[0] = x[0]


class TestImmutable:
    """A built automaton cannot change, so nothing can bypass its construction check."""

    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    def test_assigning_to_a_mapping_raises(self, kind):
        a = one_of_each_kind()[kind]
        for name in MAPPINGS[kind]:
            mapping = getattr(a, name)
            key = next(iter(mapping))
            with pytest.raises(TypeError):
                mapping[key] = mapping[key]
            with pytest.raises(TypeError):
                del mapping[key]
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.alphabet = ()

    @pytest.mark.parametrize("kind", ["mo-qfa", "mm-qfa", "qfac"])
    def test_writing_into_an_array_raises(self, kind):
        assert_arrays_read_only(one_of_each_kind()[kind])

    @pytest.mark.parametrize("kind", sorted(MAPPINGS))
    def test_pickle_and_deepcopy_rebuild(self, kind):
        a = one_of_each_kind()[kind]
        for b in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert type(b) is type(a) and to_document(b) == to_document(a)
            assert all(isinstance(getattr(b, name), MappingProxyType) for name in MAPPINGS[kind])
            if kind != "dfa":
                assert_arrays_read_only(b)

    def test_the_callers_objects_are_copied(self):
        u, initial = np.eye(2, dtype=complex), np.array([1.0, 0.0], dtype=complex)
        unitaries = {"0": u}
        m = MoQfa(("0",), unitaries, initial, Projector(frozenset({0}), 2), Projector(frozenset({1}), 2))
        u[:] = np.diag([1.0, 3.0])
        unitaries["1"] = u
        initial[:] = [0.0, 5.0]
        assert set(m.unitaries) == {"0"}
        assert validate(m) == [] and mo_accept_prob(m, ("0", "0")) == 1.0


STEP_TABLE_CASES = {
    "eg1": lambda: build_eg1(2, 0.95),
    "egadd": lambda: build_egadd(4, 0.98),
    "eg2": lambda: build_eg2(3, 0.5),
    "mo-embedding": lambda: qfac_from_mo(random_mo(np.random.default_rng(5), 3)),
    "dfa-embedding": lambda: qfac_from_dfa(dfa_bounded_zeros(2)),
}


def assert_table_read_only(table):
    """No entry of a step table can be replaced, and none of its matrices written."""
    key = next(iter(table))
    with pytest.raises(TypeError):
        table[key] = table[key]
    for entry in table.values():
        if isinstance(entry, Mapping):
            assert_table_read_only(entry)
            continue
        u = entry[0] if isinstance(entry, tuple) else entry
        with pytest.raises(ValueError, match="read-only"):
            u[0, 0] = u[0, 0]


class TestStepTables:
    """The evaluators' step tables are built on first evaluation, never with the automaton."""

    @pytest.mark.parametrize("case", sorted(STEP_TABLE_CASES))
    def test_built_on_first_evaluation_only(self, case):
        m = STEP_TABLE_CASES[case]()
        assert not {_mm_steps, _qfac_steps} & set(m.__dict__.get("_derived", {}))
        mm = isinstance(m, MmQfa)
        build, evaluate = (_mm_steps, mm_accept_prob) if mm else (_qfac_steps, qfac_accept_prob)
        word = m.alphabet[:1] * 3
        value = evaluate(m, word)
        table = m._derived[build]
        assert evaluate(m, word) == value and m._memo(build) is table
        assert set(table) == (set(m.unitaries) if mm else set(_live_states(m)))
        assert_table_read_only(table)


def trailed(kind):
    """An automaton of ``kind``, its evaluator, the reference loop, and the
    automaton that carries the evaluator's trail."""
    rng = np.random.default_rng(43)
    if kind == "eg1":
        m = build_eg1(2, 0.95, seed=0)
        return m, lambda w: qfac_accept_prob(m, w), lambda w: ref_qfac_accept_prob(m, w), m
    if kind == "eg1-spec":
        m = build_spec_variant(build_eg1(2, 0.95, seed=1), "s5")
        return m, lambda w: qfac_accept_prob(m, w), lambda w: ref_qfac_accept_prob(m, w), m
    if kind == "qfac":
        m = random_qfac(rng, 3, 3)
        return m, lambda w: qfac_accept_prob(m, w), lambda w: ref_qfac_accept_prob(m, w), m
    if kind == "eg2":
        m = build_eg2(3, 0.5)
        return m, lambda w: mm_accept_prob(m, w), lambda w: ref_mm_accept_prob(m, w), m
    if kind == "mm":
        m = random_mm(rng, 4)
        return m, lambda w: mm_accept_prob(m, w), lambda w: ref_mm_accept_prob(m, w), m
    if kind == "mo":
        m = random_mo(rng, 3)
        return m, lambda w: mo_accept_prob(m, w), lambda w: ref_mo_accept_prob(m, w), qfac_from_mo
    d = dfa_bounded_zeros(2)
    return d, evaluator(d), lambda w: float(dfa_accepts(d, w)), qfac_from_dfa


def trail_of(m, holder):
    """The trail on ``m``, or on its kept hybrid embedding when ``holder`` is the function that builds it."""
    carrier = m._memo(holder) if callable(holder) else holder
    return carrier.__dict__.get("_trail")


TRAIL_KINDS = ["eg1", "eg1-spec", "qfac", "eg2", "mm", "mo", "dfa"]


def word_orders(alphabet, horizon, seed=0):
    rng = np.random.default_rng(seed)
    words = list(words_up_to(alphabet, horizon))
    mixed = []
    for _ in range(150):
        w, other = (words[i] for i in rng.integers(len(words), size=2))
        mixed += [w, w, w[:rng.integers(len(w) + 1)], (*w, *other), w]
    return {"shortlex": words, "reversed": words[::-1], "mixed": mixed}


class TestTrail:
    """The evaluators resume from the last word's shared prefix and give the
    floats of a run from the empty word, whatever the order of the words."""

    @pytest.mark.parametrize("order", ["shortlex", "reversed", "mixed"])
    @pytest.mark.parametrize("kind", TRAIL_KINDS)
    def test_equal_to_the_reference_loop(self, kind, order):
        m, f, ref, _ = trailed(kind)
        for w in word_orders(m.alphabet, 6 if len(m.alphabet) == 2 else 5)[order]:
            assert f(w) == ref(w), w

    def test_two_automata_called_alternately(self):
        runs = [trailed(kind) for kind in ("eg1", "eg1-spec", "eg2", "mo", "mm")]
        orders = [word_orders(m.alphabet, 5, seed)["mixed"] for seed, (m, *_) in enumerate(runs)]
        for i in range(len(orders[0])):
            for (m, f, ref, _), words in zip(runs, orders):
                w = words[i % len(words)]
                assert f(w) == ref(w), (type(m).__name__, w)

    @pytest.mark.parametrize("kind", TRAIL_KINDS)
    def test_bad_symbol_raises_and_keeps_values_right(self, kind):
        m, f, ref, holder = trailed(kind)
        w = m.alphabet * 3
        assert f(w) == ref(w)
        before = trail_of(m, holder)
        for bad in ((*w[:4], "x"), ("x", *w), (*w, "x", *w)):
            with pytest.raises(ValueError, match="not in alphabet"):
                f(bad)
        assert trail_of(m, holder) is before
        for v in (w, w[:5], (*w[:4], *reversed(w)), ()):
            assert f(v) == ref(v)

    def test_end_marker_inside_a_word_raises(self):
        m, f, ref, _ = trailed("eg2")
        assert f(("0", "1")) == ref(("0", "1"))
        with pytest.raises(ValueError, match="may not appear"):
            f(("0", "$", "1"))
        assert f(("0", "1", "1")) == ref(("0", "1", "1"))

    def test_words_through_the_dead_state(self):
        m, f, ref, _ = trailed("eg1")
        dead = m.classical_states[-1]
        assert dead not in _live_states(m)
        for w in (tuple("00000"), tuple("0000012"), tuple("000"), tuple("00000111"), tuple("0101"), tuple("01011")):
            assert f(w) == ref(w)
        # The run stops in the dead state and records nothing after it.
        assert f(tuple("1111100000")) == 0.0
        word, states = m._trail
        assert word == tuple("1111100000") and len(states) == 6 and states[-1][0] == dead
        assert f(tuple("11111000")) == 0.0 and f(tuple("1111")) == ref(tuple("1111"))

    @pytest.mark.parametrize("kind", TRAIL_KINDS)
    def test_words_longer_than_the_cap(self, kind, monkeypatch):
        m, f, ref, holder = trailed(kind)
        carrier = m._memo(holder) if callable(holder) else m
        monkeypatch.setattr(models, "TRAIL_ENTRIES", 4 * (carrier.dim + 16) + 3)
        words = word_orders(m.alphabet, 9, seed=5)["mixed"][:200]
        for w in words:
            assert f(w) == ref(w)
            assert len(trail_of(m, holder)[1]) <= 4

    def test_real_cap_on_a_long_word(self):
        d, f, ref, holder = trailed("dfa")
        w = ("1",) * 5000
        assert f(w) == ref(w) == 1.0
        word, states = trail_of(d, holder)
        assert word == w and len(states) == models.TRAIL_ENTRIES // (1 + 16)
        assert f((*w[:-1], "0")) == ref((*w[:-1], "0")) and f((*w, "0", "0", "0")) == 0.0

    @pytest.mark.parametrize("kind", TRAIL_KINDS)
    def test_no_trail_after_build_or_copy(self, kind):
        m, f, _, holder = trailed(kind)
        carrier = m._memo(holder) if callable(holder) else m
        assert "_trail" not in carrier.__dict__ and "_trail" not in m.__dict__
        f(m.alphabet * 2)
        assert trail_of(m, holder) is not None
        for other in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), dataclasses.replace(m)):
            assert "_trail" not in other.__dict__ and "_derived" not in other.__dict__
        if callable(holder):
            assert "_trail" not in m.__dict__

    @pytest.mark.parametrize("kind", ["eg1", "eg2", "mo"])
    def test_two_threads_interleaved(self, kind):
        m, f, ref, _ = trailed(kind)
        orders = word_orders(m.alphabet, 5, seed=7)
        sequences = [orders["shortlex"], orders["reversed"], orders["mixed"]]
        expected = [[ref(w) for w in seq] for seq in sequences]
        got = [None] * len(sequences)
        start = threading.Barrier(len(sequences))

        def work(i):
            start.wait()
            got[i] = [f(w) for w in sequences[i]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sequences))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert got == expected


class TestValidate:
    def test_fixtures_are_clean(self):
        assert validate(build_eg2(2, 0.5)) == []
        assert validate(build_eg1(1, 0.95)) == []
        assert validate(dfa_bounded_zeros(2)) == []

    def test_non_unitary_named(self):
        m = rotation_mo(0.3)
        with pytest.raises(ValidationFailedError) as err:
            MoQfa(
                alphabet=m.alphabet,
                unitaries={"0": np.diag([1.0, 2.0]).astype(complex)},
                initial=m.initial,
                accepting=m.accepting,
                rejecting=m.rejecting,
            )
        problems = err.value.violations
        assert len(problems) == 1
        assert "non-unitary" in problems[0] and "0" in problems[0]

    def test_overlapping_measure_many_partition(self):
        m = build_eg2(2, 0.5)
        with pytest.raises(ValidationFailedError) as err:
            MmQfa(
                alphabet=m.alphabet,
                unitaries=m.unitaries,
                initial=m.initial,
                accepting=Projector(frozenset({0, 2}), 3),
                rejecting=m.rejecting,
                going=m.going,
            )
        assert any("partition" in p for p in err.value.violations)

    def test_unnormalized_initial(self):
        m = rotation_mo(0.3)
        with pytest.raises(ValidationFailedError) as err:
            MoQfa(
                alphabet=m.alphabet,
                unitaries=m.unitaries,
                initial=np.array([1.0, 1.0], dtype=complex),
                accepting=m.accepting,
                rejecting=m.rejecting,
            )
        assert any("norm" in p for p in err.value.violations)

    def test_missing_classical_transition(self):
        rng = np.random.default_rng(41)
        m = random_qfac(rng, 2, 2)
        broken = dict(m.transitions)
        del broken[("s1", "a")]
        with pytest.raises(ValidationFailedError) as err:
            m.__class__(
                classical_states=m.classical_states,
                alphabet=m.alphabet,
                initial_classical=m.initial_classical,
                initial_quantum=m.initial_quantum,
                transitions=broken,
                unitaries=m.unitaries,
                accepting=m.accepting,
            )
        assert any("transition missing" in p for p in err.value.violations)

    @pytest.mark.parametrize("initial,violation", [
        (np.array([[1.0], [0.0]]), "initial state: shape (2, 1) does not match dimension 2"),
        (np.array([np.nan, 0.0]), "initial state: non-finite entries"),
    ], ids=["column", "nan"])
    def test_initial_state_shape_and_finiteness(self, initial, violation):
        with pytest.raises(ValidationFailedError) as err:
            dataclasses.replace(rotation_mo(0.3), initial=initial)
        assert err.value.violations == [violation]

    def test_transition_into_an_unknown_state(self):
        with pytest.raises(ValidationFailedError) as err:
            Dfa(("a",), ("x",), {("a", "x"): "b"}, "a", frozenset())
        assert err.value.violations == ["transition ('a', 'x') targets unknown state"]
        m = random_qfac(np.random.default_rng(41), 2, 2)
        with pytest.raises(ValidationFailedError) as err:
            dataclasses.replace(m, transitions={**m.transitions, ("s1", "a"): "s9"})
        assert err.value.violations == ["classical transition ('s1', 'a') targets unknown state"]

    def test_end_marker_inside_a_measure_many_alphabet(self):
        m = build_eg2(1, 0.5)
        with pytest.raises(ValidationFailedError) as err:
            dataclasses.replace(m, alphabet=(*m.alphabet, "$"))
        assert err.value.violations == ["end marker $ may not be part of the input alphabet"]

    def test_not_an_automaton(self):
        with pytest.raises(TypeError, match="not an automaton: dict"):
            validate({"alphabet": ("0",)})

    def test_dfa_missing_transition(self):
        with pytest.raises(ValidationFailedError) as err:
            Dfa(("a", "b"), ("x",), {("a", "x"): "b"}, "a", frozenset({"a"}))
        assert any("missing" in p for p in err.value.violations)


    @pytest.mark.parametrize("kind", ["dfa", "mo-qfa", "mm-qfa", "qfac"])
    def test_duplicate_alphabet_symbol(self, kind):
        m = {"dfa": dfa_bounded_zeros(1), "mo-qfa": rotation_mo(0.3), "mm-qfa": build_eg2(1, 0.5),
             "qfac": build_eg1(1, 0.95)}[kind]
        with pytest.raises(ValidationFailedError) as err:
            dataclasses.replace(m, alphabet=(*m.alphabet, m.alphabet[0]))
        assert err.value.violations == ["duplicate alphabet symbols ['0']"]

    def test_duplicate_state_names(self):
        with pytest.raises(ValidationFailedError) as err:
            Dfa(("x", "x"), ("a",), {("x", "a"): "x"}, "x", frozenset())
        assert err.value.violations == ["duplicate states ['x']"]
        m = random_qfac(np.random.default_rng(41), 2, 2)
        with pytest.raises(ValidationFailedError) as err:
            dataclasses.replace(m, classical_states=("s0", "s1", "s0"))
        assert err.value.violations == ["duplicate classical states ['s0']"]


class TestBatchedUnitaryCheck:
    """``_validate_unitaries`` checks the well-shaped unitaries in one batch;
    it gives the messages, in the order, of the one-at-a-time loop."""

    GOOD = np.array([[0.6, 0.8], [-0.8, 0.6]], dtype=complex)

    CASES = {
        "wrong-shape": [("a", np.eye(3)), ("b", np.eye(2, 3)), ("c", np.ones(2))],
        "nan": [("a", [[np.nan, 0.0], [0.0, 1.0]]), ("b", [[1.0, 0.0], [0.0, complex(0.0, np.nan)]])],
        "inf": [("a", [[np.inf, 0.0], [0.0, 1.0]]), ("b", [[1.0, -np.inf], [0.0, 1.0]]),
                ("c", [[1.0, 0.0], [complex(0.0, np.inf), 1.0]])],
        "non-unitary": [("a", np.diag([1.0, 2.0])), ("b", [[1.0, 1e-6], [0.0, 1.0]])],
        "mix": [("a", GOOD), ("b", np.eye(3)), ("c", [[np.nan, 0.0], [0.0, 1.0]]), ("d", np.diag([1.0, 2.0])),
                ("e", GOOD.T), ("f", [[-np.inf, 0.0], [0.0, 1.0]]), ("g", np.ones((2, 1))), ("h", 3 * GOOD)],
        "clean": [("a", GOOD), ("b", np.eye(2))],
        "none": [],
    }

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", CASES)
    def test_same_violations_as_the_loop(self, case):
        got = []
        _validate_unitaries(self.CASES[case], 2, 1e-9, got, "unitary")
        assert got == ref_validate_unitaries(self.CASES[case], 2, 1e-9)
        assert bool(got) == (case not in ("clean", "none"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_hybrid_with_every_fault(self):
        rng = np.random.default_rng(3)
        m = random_qfac(rng, 3, 2)
        unitaries = dict(m.unitaries)
        unitaries[("s0", "a")] = np.full((2, 2), np.nan)
        unitaries[("s1", "b")] = np.diag([1.0, 3.0])
        unitaries[("s2", "a")] = np.eye(4)
        with pytest.raises(ValidationFailedError) as err:
            m.__class__(m.classical_states, m.alphabet, m.initial_classical, m.initial_quantum, m.transitions,
                        unitaries, m.accepting)
        expected = ref_validate_unitaries(sorted((f"({s},{a})", u) for (s, a), u in unitaries.items()), 2,
                                          1e-9 * 2)
        assert [p for p in err.value.violations if p.startswith("unitary")] == expected
        assert len(expected) == 3


def with_sink(m: Qfac) -> Qfac:
    """``m`` with one more classical state ``sink`` that absorbs every event
    under the identity and accepts nothing."""
    eye = np.eye(m.dim, dtype=complex)
    return dataclasses.replace(
        m,
        classical_states=(*m.classical_states, "sink"),
        transitions={**m.transitions, **{("sink", a): "sink" for a in m.alphabet}},
        unitaries={**m.unitaries, **{("sink", a): eye for a in m.alphabet}},
        accepting={**m.accepting, "sink": Projector.empty(m.dim)},
    )


def redirected(m: Qfac, pairs, sink: str) -> Qfac:
    return dataclasses.replace(m, transitions={**m.transitions, **{pair: sink for pair in pairs}})


def stock_hybrids() -> dict[str, Qfac]:
    """eg1 N 1-3, egadd N 4-6 and af-modp's embedding, each with its spec
    variant and its (s_k, "0") cut variants."""
    plants = {f"eg1-N{n}": build_eg1(n, 0.95, seed=0) for n in (1, 2, 3)}
    plants |= {f"egadd-N{n}": build_egadd(n, 0.98, seed=0) for n in (4, 6)}
    plants["egadd-N5"] = build_egadd(6, 0.98, seed=1)
    out = {}
    for name, plant in plants.items():
        dead = plant.classical_states[-1]
        spec = build_spec_variant(plant, dead)
        out[name], out[f"{name}-spec"] = plant, spec
        for k in range(len(plant.classical_states) - 1):
            out[f"{name}-cut-s{k}"] = redirected(spec, [(f"s{k}", "0")], dead)
    out["af-modp"] = qfac_from_mo(build_af_modp(11, 0.2))
    return out


def random_restrictions(seeds=range(8)):
    """``random_qfac`` plants with a sink, each with a target that sends
    random transitions to the sink."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        plant = with_sink(random_qfac(rng, int(rng.integers(2, 7)), 2, alphabet=("a", "b", "c")))
        pairs = [pair for pair in plant.transitions if pair[0] != "sink" and rng.random() < 0.3]
        yield seed, plant, redirected(plant, pairs, "sink")


def pair_walk(walk, m1, m2):
    """``walk`` (``composition._accessible_pairs`` or its reference) over the
    classical pairs of two hybrid automata."""
    def step(pair, a):
        return m1.transitions[(pair[0], a)], m2.transitions[(pair[1], a)]

    return walk(m1.classical_states, m2.classical_states, (m1.initial_classical, m2.initial_classical),
                m1.alphabet, step)


class TestReachable:
    """``models._reachable`` answers every classical-state question as the
    hand-written walk it replaced (kept in ``helpers``) did."""

    def test_starts_included_and_unreached_left_out(self):
        graph = {1: [2], 2: [1, 3], 3: [], 4: [1], 5: [5]}
        assert models._reachable([1], graph.__getitem__) == {1, 2, 3}
        assert models._reachable([3, 5], graph.__getitem__) == {3, 5}
        assert models._reachable([], graph.__getitem__) == set()

    def test_live_states(self):
        hybrids = stock_hybrids()
        hybrids |= {f"random-{seed}-{role}": m for seed, plant, target in random_restrictions()
                    for role, m in (("plant", plant), ("target", target))}
        for name, m in hybrids.items():
            assert _live_states(m) == ref_live_states(m), name

    def test_accessible_pairs_both_orders(self):
        hybrids = stock_hybrids()
        names = ["eg1-N1", "eg1-N2", "eg1-N2-spec", "eg1-N2-cut-s1", "egadd-N4", "egadd-N4-cut-s2", "egadd-N6-spec"]
        for first, second in ((a, b) for a in names for b in names):
            m1, m2 = hybrids[first], hybrids[second]
            for x, y in ((m1, m2), (m2, m1)):
                got = pair_walk(composition._accessible_pairs, x, y)
                assert got == pair_walk(ref_accessible_pairs, x, y), (first, second)
                assert parallel_qfac(x, y).classical_states == tuple(got[1][p] for p in got[0])
        for seed, plant, target in random_restrictions():
            for x, y in ((plant, target), (target, plant)):
                assert pair_walk(composition._accessible_pairs, x, y) == pair_walk(ref_accessible_pairs, x, y), seed

    def test_accessible_pairs_of_dfas(self):
        d1 = dfa_bounded_zeros(2)
        flip = Dfa(("u", "v"), ("x", "0"), {("u", "x"): "v", ("v", "x"): "u", ("u", "0"): "u", ("v", "0"): "v"},
                   "u", frozenset({"u"}))
        for x, y in ((d1, flip), (flip, d1), (d1, d1)):
            alphabet = tuple(dict.fromkeys((*x.alphabet, *y.alphabet)))

            def step(pair, a, x=x, y=y):
                return (x.transitions[(pair[0], a)] if a in x.alphabet else pair[0],
                        y.transitions[(pair[1], a)] if a in y.alphabet else pair[1])

            args = (x.states, y.states, (x.initial, y.initial), alphabet, step)
            assert composition._accessible_pairs(*args) == ref_accessible_pairs(*args)

    def test_minimal_dfa_size(self):
        dfas = {f"bounded-zeros-{n}": dfa_bounded_zeros(n) for n in range(5)}
        dfas |= {f"halves-sum-{n}": dfa_halves_sum_tracking(n) for n in (1, 2, 3)}
        dfas |= {f"zero-imbalance-{n}": dfa_zero_imbalance_tracking(n) for n in (2, 4, 6)}
        dfas["unreachable-and-dead"] = Dfa(
            ("a", "b", "u", "dead"), ("0", "1"),
            {("a", "0"): "b", ("a", "1"): "dead", ("b", "0"): "a", ("b", "1"): "dead",
             ("u", "0"): "a", ("u", "1"): "u", ("dead", "0"): "dead", ("dead", "1"): "dead"},
            "a", frozenset({"a", "u"}))
        dfas["empty-alphabet"] = Dfa(("q", "r"), (), {}, "q", frozenset({"r"}))
        dfas["composite"] = parallel_dfa(dfa_bounded_zeros(2), dfa_bounded_zeros(3))
        dfas |= {f"random-{seed}": random_dfa(np.random.default_rng(seed), 6) for seed in range(8)}
        for name, d in dfas.items():
            assert minimal_dfa_size(d) == ref_minimal_dfa_size(d), name
        assert minimal_dfa_size(dfas["unreachable-and-dead"]) == 3
        assert minimal_dfa_size(dfas["empty-alphabet"]) == 1

    @pytest.mark.parametrize("events", [(), ("0",), ("1",), ("2",), ("0", "1"), ("0", "1", "2")])
    def test_leaves_restriction_on_the_stock_fixtures(self, events):
        hybrids = stock_hybrids()
        unc = frozenset(events)
        seen = set()
        for name, target in hybrids.items():
            plant = hybrids[name.split("-cut")[0].removesuffix("-spec")]
            for t, p in ((target, plant), (plant, target), (target, hybrids["eg1-N2"])):
                got = supervisory._leaves_restriction(t, p, unc)
                assert got is ref_leaves_restriction(t, p, unc), name
                seen.add(got)
        eg2 = build_eg2(2, 0.5)
        leaves = "1" in unc
        assert supervisory._leaves_restriction(build_eg2_spec(eg2), eg2, unc) is leaves
        assert ref_leaves_mm_restriction(build_eg2_spec(eg2), eg2, unc) is leaves
        assert supervisory._leaves_restriction(eg2, build_eg2_spec(eg2), unc) is None
        assert ref_leaves_mm_restriction(eg2, build_eg2_spec(eg2), unc) is None
        assert None in seen and False in seen and (True in seen) == bool(unc & {"0", "2"})

    def test_leaves_restriction_on_random_restrictions(self):
        seen = set()
        for seed, plant, target in random_restrictions():
            for events in ((), ("a",), ("b",), ("a", "c"), ("a", "b", "c")):
                unc = frozenset(events)
                got = supervisory._leaves_restriction(target, plant, unc)
                assert got is ref_leaves_restriction(target, plant, unc), (seed, events)
                seen.add(got)
        assert seen == {True, False}

    def test_leaves_restriction_of_dfas(self):
        plant = dfa_bounded_zeros(2)
        for pairs in ([("z0", "1")], [("z1", "0")], [("z2", "1"), ("z0", "0")], []):
            cut = dataclasses.replace(plant, transitions={**plant.transitions, **{pair: "dead" for pair in pairs}})
            for events in ((), ("0",), ("1",), ("0", "1")):
                unc = frozenset(events)
                assert supervisory._leaves_restriction(cut, plant, unc) is ref_leaves_restriction(cut, plant, unc)
