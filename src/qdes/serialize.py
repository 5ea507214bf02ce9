"""JSON interchange format for every automaton kind.

One document per automaton: its ``kind``, each of its fields under the
field's name, and ``dim`` (the quantum kinds) or ``n`` (``rblm``).  Names
and index sets are lists, projectors their basis indices, vectors and
matrices [re, im] pairs, and a table keyed by (state, symbol) one object
per state.  One encoder writes, and one decoder reads, every kind
through its dataclass fields; the decoder reads each field by its
annotated type.  Saving always emits the canonical form:
sorted keys, two-space indentation, floats printed with 17 significant
digits (which round-trips doubles exactly), numeric leaf lists inlined.
Loading builds the automaton, which checks its invariants, so a
document that violates them raises ``models.ValidationFailedError``.
A dimension or a projector index must be a JSON integer; a float, a
string or a bool there raises ``SerializationError``.  An alphabet, a
state list and a DFA's accepting states must be JSON lists of strings;
a string there is refused, never split into its characters.
Bilinear machines are real-valued: an ``rblm`` document may omit the old
``real_valued`` field or set it true, and any other value is refused.
Its ``n`` must be the length of ``pi`` and ``eta`` and the size of every
n x n matrix, one per alphabet symbol.  A machine whose entries all have
imaginary part exactly 0 loads as float64, as the compilers build it;
any other loads as complex128.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import fields
from functools import cache
from typing import Any, get_args, get_origin, get_type_hints

import numpy as np

from .blm import Rblm
from .linalg import Projector
from .models import Dfa, MmQfa, MoQfa, Qfac, ValidationFailedError

_KIND_OF = {Dfa: "dfa", MoQfa: "mo-qfa", MmQfa: "mm-qfa", Qfac: "qfac", Rblm: "rblm"}
_CLASS_OF = {kind: cls for cls, kind in _KIND_OF.items()}
KINDS = tuple(_KIND_OF.values())
#: The key of each kind's size: ``dim`` for the quantum kinds, ``n`` for ``rblm``.
_SIZE_KEY = {"mo-qfa": "dim", "mm-qfa": "dim", "qfac": "dim", "rblm": "n"}


class SerializationError(ValueError):
    """Malformed document: missing or ill-typed fields."""


_NUMBER = (int, float, np.integer, np.floating)
_BOOL = (bool, np.bool_)


def _fmt_number(x) -> str:
    if isinstance(x, _BOOL):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not math.isfinite(x):
        raise SerializationError(f"non-finite number {x!r} has no canonical form")
    if x == 0.0:
        return "0"  # normalize away negative zero
    return format(x, ".17g")


def _emit(v: Any, indent: int) -> str:
    if v is None:
        return "null"
    if isinstance(v, _BOOL):
        return "true" if v else "false"
    if isinstance(v, _NUMBER):
        return _fmt_number(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        inner = "  " * (indent + 1)
        parts = [f"{inner}{json.dumps(str(k))}: {_emit(v[k], indent + 1)}" for k in sorted(v)]
        return "{\n" + ",\n".join(parts) + f"\n{'  ' * indent}}}"
    if isinstance(v, (list, tuple)):
        return _emit_list(v, indent)[0]
    raise SerializationError(f"cannot serialize value of type {type(v).__name__}")


def _emit_list(v, indent: int) -> tuple[str, int | None]:
    """The text of a list and its numeric depth, from one walk of its items.

    The depth is 0 for ``[]`` and one more than the deepest item otherwise,
    a number counting 0; it is None when some leaf is not a number.  A
    numeric list of depth <= 2 is inlined on one line: its items are
    numbers or numeric lists of depth <= 1, whose texts are already
    inline.  Any other list puts each item on a line of its own.
    """
    if not v:
        return "[]", 0
    texts, depth = [], 0
    for item in v:
        if isinstance(item, _NUMBER) and not isinstance(item, _BOOL):
            texts.append(_fmt_number(item))
        elif isinstance(item, (list, tuple)):
            text, d = _emit_list(item, indent + 1)
            texts.append(text)
            depth = None if depth is None or d is None else max(depth, d)
        else:
            texts.append(_emit(item, indent + 1))
            depth = None
    if depth is not None and depth < 2:
        return "[" + ", ".join(texts) + "]", depth + 1
    inner = "  " * (indent + 1)
    text = "[\n" + ",\n".join(inner + t for t in texts) + f"\n{'  ' * indent}]"
    return text, None if depth is None else depth + 1


def canonical_json(doc: Any) -> str:
    """Deterministic JSON text for a document (trailing newline included)."""
    return _emit(doc, 0) + "\n"


def _parse_cvec(data, where: str) -> np.ndarray:
    try:
        return np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as e:
        raise SerializationError(f"{where}: expected a list of [re, im] pairs ({e})")


def _parse_cmat(data, where: str, empty: bool = False) -> np.ndarray:
    """A complex matrix from its rows; ``[]`` reads as the 0 x 0 matrix only if ``empty``."""
    if empty and data == []:
        return np.zeros((0, 0), dtype=complex)
    if not isinstance(data, list) or not data:
        raise SerializationError(f"{where}: expected a non-empty list of rows")
    rows = [_parse_cvec(row, where) for row in data]
    if any(len(row) != len(rows[0]) for row in rows):
        raise SerializationError(f"{where}: rows of unequal length")
    return np.array(rows, dtype=complex)


def to_document(automaton) -> dict:
    """Kind-discriminated plain-JSON representation of an automaton."""
    kind = _KIND_OF.get(type(automaton))
    if kind is None:
        raise SerializationError(f"cannot serialize objects of type {type(automaton).__name__}")
    rows = getattr(automaton, "states", getattr(automaton, "classical_states", ()))
    doc = {f.name: _encode(getattr(automaton, f.name), rows) for f in fields(automaton)}
    size = _SIZE_KEY.get(kind)
    return {"kind": kind, **doc, **({size: getattr(automaton, size)} if size else {})}


def _encode(v, rows: tuple[str, ...]):
    """A field's JSON value: a tuple of names as a list and a frozenset as a
    sorted list, a ``Projector`` as its indices, a vector or a matrix as
    [re, im] pairs, and a table keyed by (state, symbol) as one object per
    state of ``rows``."""
    if isinstance(v, Projector):
        return list(v.indices)
    if isinstance(v, np.ndarray):
        z = np.ascontiguousarray(v, dtype=complex)
        return z.view(np.float64).reshape(*z.shape, 2).tolist()
    if isinstance(v, (tuple, frozenset)):
        return sorted(v) if isinstance(v, frozenset) else list(v)
    if isinstance(v, Mapping) and not all(isinstance(key, tuple) for key in v):
        return {key: _encode(x, rows) for key, x in v.items()}
    if isinstance(v, Mapping):
        table: dict[str, dict] = {s: {} for s in rows}
        for (s, a), x in v.items():
            table[s][a] = _encode(x, rows)
        return table
    return v


def _need(doc: dict, key: str, where: str):
    if key not in doc:
        raise SerializationError(f"{where}: missing field {key!r}")
    return doc[key]


def _items(value, where: str):
    """The items of a field that must be a JSON object."""
    if not isinstance(value, dict):
        raise SerializationError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value.items()


def _table(value, where: str) -> dict:
    """A JSON object of JSON objects as one dict keyed by (outer key, inner key)."""
    return {(s, a): v for s, row in _items(value, where) for a, v in _items(row, f"{where} {s}")}


def _int(value, where: str) -> int:
    """A JSON integer; a float, a string or a bool is refused, never coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SerializationError(f"{where}: expected a JSON integer, got {type(value).__name__}")
    return value


def _names(value, where: str) -> tuple[str, ...]:
    """A JSON list of strings; a string, or a list holding anything else, is refused."""
    if not isinstance(value, list):
        raise SerializationError(f"{where}: expected a list of strings, got {type(value).__name__}")
    for item in value:
        if not isinstance(item, str):
            raise SerializationError(f"{where}: expected a list of strings, got an entry of type {type(item).__name__}")
    return tuple(value)


def _projector(indices, dim: int, where: str) -> Projector:
    """The projector onto a JSON list of integer basis indices."""
    if not isinstance(indices, list):
        raise SerializationError(f"{where}: expected a list of indices, got {type(indices).__name__}")
    return Projector(frozenset(_int(i, f"{where} index") for i in indices), dim)


def _decode(value, hint, where: str, dim: int | None, empty: bool):
    """A field's value from its JSON by the field's type, ``_encode`` read
    backwards: a mapping entry by entry, its arrays as matrices (``[]`` the
    0 x 0 one only if ``empty``); a type not named here is taken as given."""
    origin = get_origin(hint)
    if origin in (tuple, frozenset):
        names = _names(value, where)
        return frozenset(names) if origin is frozenset else names
    if hint is np.ndarray:
        return _parse_cvec(value, where)
    if hint is Projector:
        return _projector(value, dim, where)
    if origin is Mapping:
        key, entry = get_args(hint)
        pairs = _table(value, where).items() if get_origin(key) is tuple else _items(value, where)
        if entry is np.ndarray:
            return {k: _parse_cmat(v, f"{where} {k}", empty) for k, v in pairs}
        return {k: _decode(v, entry, f"{where} {k}", dim, empty) for k, v in pairs}
    return value


@cache
def _field_types(cls) -> tuple[tuple[str, Any], ...]:
    """Each field of ``cls`` with its annotated type, resolved once."""
    hints = get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _checked_rblm(n: int, alphabet, pi, matrices, eta) -> dict:
    """An ``rblm``'s fields, once ``pi`` and ``eta`` have ``n`` entries and
    there is one n x n matrix per symbol; float64 when every entry is real."""
    for name, v in (("pi", pi), ("eta", eta)):
        if len(v) != n:
            raise SerializationError(f"rblm {name}: expected n = {n} entries, got {len(v)}")
    if sorted(matrices) != sorted(alphabet):
        raise SerializationError(
            f"rblm matrices: expected one matrix per alphabet symbol {list(alphabet)}, got {sorted(matrices)}")
    for a, m in matrices.items():
        if m.shape != (n, n):
            raise SerializationError(f"rblm matrices {a}: expected {n} x {n}, got {m.shape[0]} x {m.shape[1]}")
    if not any(np.any(x.imag) for x in (pi, eta, *matrices.values())):
        pi, eta = pi.real.copy(), eta.real.copy()
        matrices = {a: m.real.copy() for a, m in matrices.items()}
    return {"alphabet": alphabet, "pi": pi, "matrices": matrices, "eta": eta}


def from_document(doc: dict):
    """Reconstruct an automaton from its document; building it checks its invariants."""
    if not isinstance(doc, dict):
        raise SerializationError("document must be a JSON object")
    kind = _need(doc, "kind", "document")
    cls = _CLASS_OF.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SerializationError(f"unknown kind {kind!r}; expected one of {KINDS}")
    if kind == "rblm" and doc.get("real_valued", True) is not True:
        raise SerializationError("rblm: only real-valued machines are supported")
    key = _SIZE_KEY.get(kind)
    size = _int(_need(doc, key, kind), f"{kind} {key}") if key else None
    values = {name: _decode(_need(doc, name, kind), hint, f"{kind} {name}", size, kind == "rblm" and size == 0)
              for name, hint in _field_types(cls)}
    return cls(**(_checked_rblm(size, **values) if kind == "rblm" else values))


def dumps(automaton) -> str:
    return canonical_json(to_document(automaton))


def loads(text: str):
    return from_document(json.loads(text))


def save(automaton, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(automaton))


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def parse_word(text: str, alphabet) -> tuple[str, ...]:
    """Parse a word from CLI text.

    Comma-separated when a comma is present; otherwise one symbol per
    character, which requires every alphabet symbol to be a single
    character.  The empty string is the empty word.
    """
    if text == "":
        return ()
    if "," in text:
        return tuple(part for part in text.split(",") if part != "")
    if any(len(a) != 1 for a in alphabet):
        raise ValueError("alphabet has multi-character symbols; separate the word with commas")
    return tuple(text)
