import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdes.blm import Rblm, blm_eval, compile_mm_to_rblm
from qdes.composition import parallel_dfa, parallel_qfac
from qdes.cli import main
from qdes.equivalence import minimize
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
)
from qdes.models import Dfa, mm_accept_prob
from qdes.serialize import (
    SerializationError,
    ValidationFailedError,
    canonical_json,
    dumps,
    from_document,
    load,
    loads,
    parse_word,
    save,
    to_document,
)

from helpers import (
    random_dfa,
    random_mm,
    random_mo,
    random_qfac,
    random_rblm,
    random_unitary,
    assert_decoders_agree,
    ref_canonical_json,
    ref_to_document,
    to_rblm,
    words_up_to,
)
from test_cli import KINDS as CLI_KINDS
from test_cli import STOCK_DOCUMENTS, malformed_document


def all_kinds(rng):
    return [
        dfa_bounded_zeros(2),
        random_mo(rng, 3),
        random_mm(rng, 3),
        random_qfac(rng, 2, 2),
        compile_mm_to_rblm(build_eg2(2, 0.5)),
    ]


class TestRoundTrip:
    def test_save_load_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        for i, automaton in enumerate(all_kinds(rng)):
            path = tmp_path / f"a{i}.json"
            save(automaton, path)
            first = path.read_text()
            save(load(path), path)
            assert path.read_text() == first

    def test_seventeen_digits_round_trip_doubles(self):
        values = [0.1, 1 / 3, 0.2062994740159002, 1.0, 2**-40]
        for v in values:
            assert float(format(v, ".17g")) == v

    def test_reload_evaluates_identically(self, tmp_path):
        m = build_eg2(2, 0.5)
        path = tmp_path / "eg2.json"
        save(m, path)
        again = load(path)
        for w in words_up_to(("0", "1"), 6):
            assert abs(mm_accept_prob(again, w) - mm_accept_prob(m, w)) <= 1e-15

    def test_hybrid_reload(self, tmp_path):
        m = build_eg1(2, 0.95, seed=0)
        path = tmp_path / "eg1.json"
        save(m, path)
        again = load(path)
        assert again.classical_states == m.classical_states
        assert again.dim == m.dim

    def test_rblm_reload_preserves_word_function(self, tmp_path):
        b = compile_mm_to_rblm(build_eg2(2, 0.5))
        path = tmp_path / "b.json"
        save(b, path)
        again = load(path)
        for w in words_up_to(b.alphabet, 4):
            assert blm_eval(again, w) == blm_eval(b, w)


class TestDocumentErrors:
    def test_unknown_kind(self):
        with pytest.raises(SerializationError):
            from_document({"kind": "pushdown"})
        assert_decoders_agree({"kind": "pushdown"})

    def test_missing_field_reports_location(self):
        doc = to_document(dfa_bounded_zeros(1))
        del doc["initial"]
        with pytest.raises(SerializationError, match="initial"):
            from_document(doc)
        assert_decoders_agree(doc)

    def test_bad_complex_pair(self):
        doc = to_document(build_eg2(2, 0.5))
        doc["initial"] = [[0.0], [0.0, 1.0], [0.0, 0.0]]
        with pytest.raises(SerializationError, match="initial"):
            from_document(doc)
        assert_decoders_agree(doc)

    @pytest.mark.parametrize("field,value", [("dim", 3.9), ("dim", "3"), ("dim", False), ("accepting", [2.7]),
                                             ("accepting", ["2"]), ("going", [True]), ("rejecting", "1")])
    def test_integer_fields_not_coerced(self, field, value):
        doc = to_document(build_eg2(2, 0.5))
        doc[field] = value
        with pytest.raises(SerializationError, match=f"mm-qfa {field}"):
            from_document(doc)
        assert_decoders_agree(doc)

    def test_validation_failure_names_symbol(self):
        doc = to_document(build_eg2(2, 0.5))
        doc["unitaries"]["0"] = [[[2.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]],
                                 [[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]]
        with pytest.raises(ValidationFailedError) as err:
            loads(json.dumps(doc))
        assert any("0" in v and "non-unitary" in v for v in err.value.violations)
        assert_decoders_agree(doc)

    def test_rblm_real_valued_true_loads(self):
        b = compile_mm_to_rblm(build_eg2(1, 0.5))
        doc = to_document(b)
        assert "real_valued" not in doc
        again = from_document({**doc, "real_valued": True})
        assert_decoders_agree({**doc, "real_valued": True})
        assert blm_eval(again, ("0",)) == blm_eval(b, ("0",))

    def test_rblm_real_valued_false_refused(self, tmp_path, capsys):
        doc = {**to_document(compile_mm_to_rblm(build_eg2(1, 0.5))), "real_valued": False}
        with pytest.raises(SerializationError, match="real-valued"):
            from_document(doc)
        assert_decoders_agree(doc)
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(doc))
        assert main(["prob", str(path), "0"]) == 2
        assert "real-valued" in json.loads(capsys.readouterr().out)["error"]

    def test_real_rblm_loads_float64(self):
        b = to_rblm(build_eg1(1, 0.95, seed=0))
        again = loads(dumps(b))
        for got, want in ((again.pi, b.pi), (again.eta, b.eta), *((again.matrices[a], b.matrices[a]) for a in b.alphabet)):
            assert want.dtype == got.dtype == np.float64
            assert np.array_equal(got, want)
        assert dumps(again) == dumps(b)

    def test_zero_state_rblm_round_trips(self, tmp_path, capsys):
        zero = Rblm(("0",), np.zeros(0), {"0": np.zeros((0, 0))}, np.zeros(0))
        again = loads(dumps(zero))
        assert again.n == 0 and again.matrices["0"].shape == (0, 0) and dumps(again) == dumps(zero)
        assert blm_eval(again, ("0", "0")) == 0.0
        path = tmp_path / "zero.json"
        save(zero, path)
        assert main(["prob", str(path), "00"]) == 0
        assert json.loads(capsys.readouterr().out)["value"] == 0.0

    def test_empty_matrix_refused_unless_zero_states(self):
        rblm = to_document(compile_mm_to_rblm(build_eg2(1, 0.5)))
        mo = to_document(random_mo(np.random.default_rng(3), 2))
        for doc in ({**rblm, "matrices": {**rblm["matrices"], "0": []}}, {**mo, "unitaries": {**mo["unitaries"], "a": []}}):
            with pytest.raises(SerializationError, match="non-empty list of rows"):
                from_document(doc)
            assert_decoders_agree(doc)

    def test_complex_rblm_loads_complex(self):
        b = to_rblm(build_eg1(1, 0.95, seed=0))
        t = random_unitary(np.random.default_rng(37), b.n)
        rotated = Rblm(b.alphabet, t @ b.pi, {a: t @ m @ t.conj().T for a, m in b.matrices.items()}, b.eta @ t.conj().T)
        again = loads(dumps(rotated))
        assert again.pi.dtype == again.eta.dtype == np.complex128
        assert all(m.dtype == np.complex128 for m in again.matrices.values())
        assert np.array_equal(again.matrices["0"], rotated.matrices["0"])
        for w in words_up_to(b.alphabet, 3):
            assert abs(blm_eval(again, w) - blm_eval(b, w)) <= 1e-12

    def test_parse_error_carries_position(self):
        with pytest.raises(json.JSONDecodeError) as err:
            loads("{ not json")
        assert err.value.lineno == 1


class TestCanonicalForm:
    def test_keys_sorted_and_deterministic(self):
        text = canonical_json({"b": 1, "a": [1.5, 2], "c": {"y": True, "x": None}})
        assert text.index('"a"') < text.index('"b"') < text.index('"c"')
        assert canonical_json({"a": [1.5, 2], "c": {"x": None, "y": True}, "b": 1}) == text

    def test_numeric_rows_inline(self):
        text = dumps(build_eg2(2, 0.5))
        # complex pairs share a line with their row
        assert "[[" in text.replace(" ", "")

    def test_float_formatting(self):
        assert canonical_json(0.1).strip() == "0.10000000000000001"
        assert canonical_json(1.0).strip() == "1"
        assert canonical_json(True).strip() == "true"

    def test_non_finite_rejected(self):
        with pytest.raises(SerializationError):
            canonical_json(float("nan"))
        with pytest.raises(SerializationError):
            canonical_json({"x": float("inf")})

    def test_composed_automaton_round_trips(self, tmp_path):
        rng = np.random.default_rng(11)
        comp = parallel_qfac(random_qfac(rng, 2, 2), random_qfac(rng, 2, 2))
        path = tmp_path / "comp.json"
        save(comp, path)
        first = path.read_text()
        save(load(path), path)
        assert path.read_text() == first


STOCK_KINDS = {
    "eg1": lambda: build_eg1(2, 0.5, seed=0),
    "eg1-spec": lambda: build_spec_variant(build_eg1(2, 0.95, seed=1), "s5"),
    "egadd": lambda: build_egadd(4, 0.98, seed=0),
    "eg2": lambda: build_eg2(3, 0.5),
    "eg2-spec": lambda: build_eg2_spec(build_eg2(2, 0.5)),
    "af-modp": lambda: build_af_modp(7, 0.9),
    "dfa-bounded-zeros": lambda: dfa_bounded_zeros(3),
    "dfa-halves-sum": lambda: dfa_halves_sum_tracking(2),
    "dfa-zero-imbalance": lambda: dfa_zero_imbalance_tracking(3),
    "rblm-compiled": lambda: compile_mm_to_rblm(build_eg2(2, 0.5)),
    "rblm-minimal": lambda: minimize(build_eg1(1, 0.95, seed=0)),
    "rblm-zero-state": lambda: Rblm(("0",), np.zeros(0), {"0": np.zeros((0, 0))}, np.zeros(0)),
    "composed": lambda: parallel_qfac(build_eg1(1, 0.95, seed=0), build_egadd(2, 0.98, seed=0)),
}


def random_automata(seed):
    rng = np.random.default_rng(seed)
    return [random_dfa(rng, 3), random_mo(rng, 2), random_mm(rng, 3), random_qfac(rng, 3, 2),
            random_rblm(rng, 4)]


class TestEmitterAgainstReference:
    """``canonical_json`` walks each list once; its text is the reference
    emitter's, which measures every nested list's depth anew at each level."""

    @pytest.mark.parametrize("name", STOCK_KINDS)
    def test_stock_kinds(self, name):
        doc = to_document(STOCK_KINDS[name]())
        assert canonical_json(doc) == ref_canonical_json(doc)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_automata(self, seed):
        for a in random_automata(seed):
            doc = to_document(a)
            assert canonical_json(doc) == ref_canonical_json(doc)

    @pytest.mark.parametrize("doc", [
        [], [[]], [[[]]], [[], [1]], [[[], []]], [1, [2, [3]]], [[1, 2], [3, [4]]], [[[1.5, -0.0]]],
        [True, 1], [[True]], [[1, None]], [np.int64(3), np.float64(0.25)], (1, (2.0, 3)), [{"a": [1]}],
        {"k": [[1, 2], []], "j": [[[0.1, 2]], "x"], "e": {}}, [["a", "b"], []], [[[1], [2]], [[3], [4]]],
    ])
    def test_edge_documents(self, doc):
        assert canonical_json(doc) == ref_canonical_json(doc)


class TestDocumentAgainstReference:
    """``to_document`` writes an automaton's fields; its documents are the
    reference encoder's, which spells out each kind's layout."""

    @staticmethod
    def assert_reference(a):
        doc = to_document(a)
        assert doc == ref_to_document(a)
        assert dumps(a) == canonical_json(ref_to_document(a))

    @pytest.mark.parametrize("name", STOCK_KINDS)
    def test_stock_kinds(self, name):
        self.assert_reference(STOCK_KINDS[name]())

    @pytest.mark.parametrize("seed", range(8))
    def test_random_automata(self, seed):
        for a in random_automata(seed):
            self.assert_reference(a)

    def test_composites(self):
        self.assert_reference(parallel_qfac(build_eg1(1, 0.5, seed=2), build_egadd(2, 0.5, seed=3)))
        self.assert_reference(parallel_dfa(dfa_bounded_zeros(2), dfa_halves_sum_tracking(1)))

    def test_zero_state_rblm_and_empty_alphabets(self):
        self.assert_reference(Rblm(("0",), np.zeros(0), {"0": np.zeros((0, 0))}, np.zeros(0)))
        self.assert_reference(Rblm((), np.ones(1), {}, np.ones(1)))
        self.assert_reference(Dfa(("x", "y"), (), {}, "x", frozenset({"y"})))

    def test_transposed_and_complex_arrays(self):
        rng = np.random.default_rng(5)
        b = random_rblm(rng, 3)
        self.assert_reference(Rblm(b.alphabet, b.pi, {a: m.T for a, m in b.matrices.items()}, b.eta[::-1]))
        self.assert_reference(Rblm(("a",), np.array([1.0, -0.0]), {"a": np.array([[0.5, 1j], [-0.0, 2]])},
                                   np.array([0.25, -1.5j])))

    def test_unknown_type_refused(self):
        with pytest.raises(SerializationError, match="cannot serialize objects of type dict"):
            to_document({"kind": "dfa"})



class TestDecoderAgainstReference:
    """``from_document`` reads every field through its type; on every
    document it builds what the reference decoder, one hand-written branch
    per kind, builds, and refuses what it refuses with the same exception
    type."""

    @pytest.mark.parametrize("kind", sorted(CLI_KINDS))
    def test_cli_kinds_and_stock_documents(self, kind):
        assert_decoders_agree(to_document(CLI_KINDS[kind]()))
        assert_decoders_agree(STOCK_DOCUMENTS[kind])

    @pytest.mark.parametrize("name", STOCK_KINDS)
    def test_stock_kinds(self, name):
        assert_decoders_agree(to_document(STOCK_KINDS[name]()))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_automata(self, seed):
        for a in random_automata(seed):
            assert_decoders_agree(to_document(a))

    def test_composites(self):
        assert_decoders_agree(to_document(parallel_qfac(build_eg1(1, 0.5, seed=2), build_egadd(2, 0.5, seed=3))))
        assert_decoders_agree(to_document(parallel_dfa(dfa_bounded_zeros(2), dfa_halves_sum_tracking(1))))

    @pytest.mark.parametrize("doc", [None, [], "dfa", {}, {"kind": ["dfa"]}, {"kind": {"dfa": 1}}, {"kind": 1},
                                     {"kind": "rblm"}, {"kind": "qfac", "dim": 2}])
    def test_documents_that_are_not_automata(self, doc):
        assert_decoders_agree(doc)

    @pytest.mark.parametrize("kind", sorted(STOCK_DOCUMENTS))
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_one_malformed_field(self, kind, data):
        assert_decoders_agree(malformed_document(data, kind))

class TestParseWord:
    def test_single_characters(self):
        assert parse_word("010", ("0", "1")) == ("0", "1", "0")

    def test_empty(self):
        assert parse_word("", ("0",)) == ()

    def test_commas(self):
        assert parse_word("up,down", ("up", "down")) == ("up", "down")

    def test_multichar_requires_commas(self):
        with pytest.raises(ValueError):
            parse_word("updown", ("up", "down"))
