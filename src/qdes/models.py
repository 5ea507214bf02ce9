"""The four automaton models and their acceptance-probability evaluators.

``Dfa`` is the classical baseline.  ``MoQfa`` applies one unitary per
symbol and measures once at the end.  ``MmQfa`` measures
accept/reject/go after every symbol and reads an implicit end marker
``$`` after the input.  ``Qfac`` pairs a classical automaton with a
quantum part: the classical state selects which unitary and which final
measurement apply.

Words are sequences of symbol strings; alphabets are explicit.  Every
automaton is checked by ``validate`` when it is built and cannot change
afterwards, so evaluators and compilers never re-check it, concurrent
evaluation is safe, and what is derived from it is computed once.

The per-word hybrid and measure-many evaluators keep a *trail* on the
automaton: the last word evaluated and the evaluator's state after each
of its prefixes (see ``_resume``).  A call resumes from its longest
common prefix with that word, so a run of words that share prefixes,
like a shortlex scan or the histories of a closed loop, costs about one
step per word, and every value is the same float as a run from the
empty word.

Each step of those evaluators is one ``ndarray.dot`` of a 2-D matrix and
a vector.  For such a pair ``a.dot(x)`` reaches the same BLAS ``gemv`` as
``a @ x`` and gives the same floats, at about half of ``@``'s dispatch
cost, which is most of a step on states of a few entries.  The level
evaluators keep ``@``: one of their products serves a whole level of
words, so its dispatch cost does not count, and on the 3-D stack that
``mm_levels`` multiplies ``.dot`` is not ``@``'s batched BLAS product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, fields
from itertools import chain, product
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Projector,
    all_finite,
    is_unit_vector,
    projected_norm_sq,
    projected_norms_sq,
    read_only,
)

#: End-of-input marker used internally by measure-many automata.
END_MARKER = "$"

Word = tuple[str, ...]

#: Slack allowed before a computed probability is considered corrupt.
PROB_SANITY_TOL = 1e-9

#: One value array per word length, in ``words_upto`` order.
Levels = Iterator[np.ndarray]

#: Most complex entries an evaluator trail keeps per automaton (about 1 MiB):
#: each recorded state counts its vector's entries plus 16 for its Python
#: objects, and a word's prefixes past the cap are not recorded.
TRAIL_ENTRIES = 1 << 16


def check_horizon(horizon: int) -> None:
    """Refuse a negative horizon, over which every sweep would hold vacuously."""
    if horizon < 0:
        raise ValueError(f"horizon must be non-negative, got {horizon}")


def words_upto(alphabet: Sequence[str], horizon: int) -> Iterator[Word]:
    """Every word of length <= horizon, shortest first, then in the order of ``alphabet``.

    Among the words of one length, the word at index i extends by the
    j-th symbol of ``alphabet`` to the word at index i * len(alphabet) + j
    of the next length; the level evaluators keep the same order.
    """
    check_horizon(horizon)
    return chain.from_iterable(product(alphabet, repeat=n) for n in range(horizon + 1))


def word_at(alphabet: Sequence[str], length: int, index: int) -> Word:
    """The word at ``index`` among the words of one length, in ``words_upto`` order."""
    out = []
    for _ in range(length):
        index, j = divmod(index, len(alphabet))
        out.append(alphabet[j])
    return tuple(reversed(out))


def prefix_maxima(levels: list[np.ndarray], depth: int, symbols: int) -> list[np.ndarray]:
    """Max of the values over each word's extensions of length <= depth.

    ``levels`` holds values up to length L, in ``words_upto`` order over
    ``symbols`` symbols; the result holds lengths 0 .. L - depth.  With
    sup_0 = f, sup_j(s) = max(f(s), max_a sup_{j-1}(s a)); each of the
    ``depth`` rounds lifts every level one step and drops the longest.
    """
    sups = levels
    for _ in range(depth):
        sups = [_lift(f, s, symbols) for f, s in zip(levels, sups[1:])]
    return sups


def _lift(f: np.ndarray, s: np.ndarray, symbols: int) -> np.ndarray:
    """max(f[i], s[i * symbols + j] over j): a running ``np.maximum`` over
    the ``symbols`` strided columns of the longer level ``s``."""
    out = np.maximum(f, s[::symbols])
    for j in range(1, symbols):
        np.maximum(out, s[j::symbols], out=out)
    return out


def clamp_probability(raw: float, context: str = "") -> float:
    """Clamp to [0, 1] after checking the raw value is sane.

    Values outside [-1e-9, 1 + 1e-9] indicate a broken automaton rather
    than rounding noise and are reported instead of clamped.
    """
    if not (-PROB_SANITY_TOL <= raw <= 1.0 + PROB_SANITY_TOL):
        raise ArithmeticError(f"probability {raw!r} outside [0,1] sanity band {context}")
    return min(1.0, max(0.0, raw))


def _clamp_word(raw: float, what: str, w: Sequence[str]) -> float:
    """``clamp_probability`` on the value of the word ``w``; the context naming
    the word is formatted only for a value outside the sanity band."""
    if -PROB_SANITY_TOL <= raw <= 1.0 + PROB_SANITY_TOL:
        return min(1.0, max(0.0, raw))
    return clamp_probability(raw, f"({what}, word {''.join(w)!r})")


def clamp_level(raw: np.ndarray, alphabet: Sequence[str], length: int, what: str) -> np.ndarray:
    """``clamp_probability`` on the values of one level; the first corrupt word is named."""
    bad = np.flatnonzero(~((raw >= -PROB_SANITY_TOL) & (raw <= 1.0 + PROB_SANITY_TOL)))
    if bad.size:
        w = word_at(alphabet, length, int(bad[0]))
        clamp_probability(float(raw[bad[0]]), f"({what}, word {''.join(w)!r})")
    return np.clip(raw, 0.0, 1.0)


class ValidationFailedError(ValueError):
    """The automaton being built violates its invariants; ``violations`` lists them."""

    def __init__(self, violations: list[str]):
        super().__init__("invalid automaton: " + "; ".join(violations))
        self.violations = violations


def freeze(obj, copy: bool = True):
    """Make every field of the frozen dataclass ``obj`` ``read_only``, copying
    arrays unless ``copy`` is false (for objects no caller holds); returns ``obj``."""
    for f in fields(obj):
        object.__setattr__(obj, f.name, read_only(getattr(obj, f.name), copy))
    return obj


class _Checked:
    """Base of the four automaton kinds: building one freezes it, then runs
    ``validate`` and raises ``ValidationFailedError`` on a violation;
    ``_memo`` keeps what is derived from it, computed once, and
    ``_symbols`` is its alphabet as a frozenset, for ``_check_symbols``."""

    def __post_init__(self):
        freeze(self)
        problems = validate(self)
        if problems:
            raise ValidationFailedError(problems)
        self.__dict__["_symbols"] = frozenset(self.alphabet)

    def __reduce__(self):
        """Pickle and deep-copy as a rebuild from the fields, with plain dicts."""
        values = (getattr(self, f.name) for f in fields(self))
        return type(self), tuple(dict(v) if isinstance(v, Mapping) else v for v in values)

    def _memo(self, build):
        """``build(self)``, computed on first use and kept; it must be read-only."""
        memo = self.__dict__.setdefault("_derived", {})
        return memo[build] if build in memo else memo.setdefault(build, build(self))


def _resume(m: _Checked, w: Sequence[str], start, step, table, width: int):
    """The evaluator state after ``w``, or None where ``step`` stops early.

    ``m``'s trail holds the last word evaluated on it and the state after
    each of that word's prefixes.  The run starts from the state after
    the longest common prefix of ``w`` with that word (``start`` when
    there is none) and applies ``step(table, state, symbol)`` to the
    rest, so it makes the same products in the same order as a run from
    the empty word.  The trail is then replaced whole, never changed in
    place, so a concurrent caller reads a consistent snapshot; it records
    at most ``TRAIL_ENTRIES // (width + 16)`` states, for states of
    ``width`` entries, and none after a stop.
    It lives in ``m.__dict__``, outside the fields, so a pickle, a deep
    copy or ``dataclasses.replace`` starts without one.
    """
    word, states = m.__dict__.get("_trail", ((), ()))
    k, limit = 0, min(len(word), len(w), len(states) - 1)
    while k < limit and word[k] == w[k]:
        k += 1
    kept = list(states[:k + 1]) if states else [start]
    state, cap = kept[-1], max(1, TRAIL_ENTRIES // (width + 16))
    for sym in w[k:]:
        state = step(table, state, sym)
        if state is None:
            break
        if len(kept) < cap:
            kept.append(state)
    m.__dict__["_trail"] = (tuple(w), tuple(kept))
    return state


def _check_symbols(w: Sequence[str], allowed: frozenset[str], forbid: str | None = None):
    """Refuse a word with a symbol outside ``allowed``, or equal to ``forbid``
    (which ``allowed`` never holds), naming the first such symbol."""
    if allowed.issuperset(w):
        return
    for sym in w:
        if forbid is not None and sym == forbid:
            raise ValueError(f"symbol {forbid!r} may not appear inside an input word")
        if sym not in allowed:
            raise ValueError(f"symbol {sym!r} not in alphabet {sorted(allowed)}")


@dataclass(frozen=True, eq=False)
class Dfa(_Checked):
    """Deterministic finite automaton with a total transition function."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: Mapping[tuple[str, str], str]
    initial: str
    accepting: frozenset[str]


def dfa_accepts(d: Dfa, w: Sequence[str]) -> bool:
    """True iff the extended transition function lands in an accepting state."""
    _check_symbols(w, d._symbols)
    state = d.initial
    for sym in w:
        state = d.transitions[(state, sym)]
    return state in d.accepting


@dataclass(frozen=True, eq=False)
class MoQfa(_Checked):
    """Measure-once quantum automaton: unitaries per symbol, one final measurement."""

    alphabet: tuple[str, ...]
    unitaries: Mapping[str, np.ndarray]
    initial: np.ndarray
    accepting: Projector
    rejecting: Projector

    @property
    def dim(self) -> int:
        return int(self.initial.shape[0])


def mo_accept_prob(m: MoQfa, w: Sequence[str]) -> float:
    """Probability of accepting ``w``: ``qfac_accept_prob`` on the one-classical-state
    hybrid embedding (``_as_hybrid``), which is built once and kept on ``m``."""
    return qfac_accept_prob(_as_hybrid(m), w)


@dataclass(frozen=True, eq=False)
class MmQfa(_Checked):
    """Measure-many quantum automaton over the working alphabet ``alphabet + ($,)``.

    ``unitaries`` must contain one entry per input symbol plus the end
    marker.  ``accepting``, ``rejecting`` and ``going`` partition the
    basis states.  Callers never pass ``$``; it is appended internally.
    """

    alphabet: tuple[str, ...]
    unitaries: Mapping[str, np.ndarray]
    initial: np.ndarray
    accepting: Projector
    rejecting: Projector
    going: Projector

    @property
    def dim(self) -> int:
        return int(self.initial.shape[0])


def _mm_steps(m: MmQfa) -> Mapping[str, np.ndarray]:
    """Per symbol, ``$`` included, the matrix ``[U(a)[acc]; P_go U(a)]``: one
    product gives a step's accept chunk over its first ``len(acc)`` rows and
    the surviving go state over the rest."""
    go = np.zeros((m.dim, 1))
    go[m.going._idx] = 1.0
    return read_only({a: np.vstack([u[m.accepting._idx], go * u]) for a, u in m.unitaries.items()}, copy=False)


def _mm_step(table, state, sym):
    """One measure-many step on ``(going, total)``: the symbol's product from
    ``_mm_steps`` splits into the accept chunk, whose mass joins the total,
    and the surviving go state."""
    steps, acc = table
    going, total = state
    v = steps[sym].dot(going)
    c = v[:acc]
    total += np.vdot(c, c).real
    return v[acc:], total


def mm_accept_prob(m: MmQfa, w: Sequence[str]) -> float:
    """Measure-many acceptance probability of ``w``.

    Runs the single forward pass that carries the surviving "go" state
    and accumulates accept mass after every symbol and after the end
    marker, resumed from the trail (see ``_resume``) before the marker.
    Each step is one product with the symbol's matrix from ``_mm_steps``
    (kept on the automaton): the same floats as ``projected_norm_sq`` and
    ``Projector.apply`` on ``U(a) @ going`` without their per-step
    indexing, coercion and checks.
    """
    _check_symbols(w, m._symbols, forbid=END_MARKER)
    acc = m.accepting._idx.size
    table = (m._memo(_mm_steps), acc)
    state = _resume(m, w, (np.asarray(m.initial, dtype=complex), 0.0), _mm_step, table, m.dim + acc)
    _, total = _mm_step(table, state, END_MARKER)
    return _clamp_word(float(total), "measure-many", w)


def mm_levels(m: MmQfa, alphabet: Sequence[str], horizon: int) -> Levels:
    """``mm_accept_prob`` of every word up to the horizon, one array per length.

    Carries one surviving "go" column per word of the current length and
    the accept mass each word has gathered.  Each level is one batched
    product with the symbols' matrices from ``_mm_steps``: its first
    ``len(acc)`` rows are the accept chunks and the rest the go states of
    the children.  Only two lengths of columns are held at a time.
    """
    check_horizon(horizon)
    steps, acc, k = m._memo(_mm_steps), m.accepting._idx.size, len(alphabet)
    if horizon:
        _check_symbols(alphabet, m._symbols, forbid=END_MARKER)
        table = np.array([steps[a] for a in alphabet]).reshape(k, acc + m.dim, m.dim)
    going = np.asarray(m.initial, dtype=complex)[:, None]
    mass = np.zeros(1)
    for length in range(horizon + 1):
        if length:
            moved = (table @ going).transpose(1, 2, 0).reshape(acc + m.dim, -1)
            c, going = moved[:acc], moved[acc:]
            mass = np.repeat(mass, k) + np.einsum("ij,ij->j", c.conj(), c).real
        c = (steps[END_MARKER] @ going)[:acc]
        yield clamp_level(mass + np.einsum("ij,ij->j", c.conj(), c).real, alphabet, length, "measure-many")


def _mm_accept_prob_products(m: MmQfa, w: Sequence[str]) -> float:
    """Sum over halting steps, each term rebuilt as an explicit operator product."""
    syms = (*w, END_MARKER)
    n = len(w)
    total = 0.0
    for k in range(1, n + 2):
        v = np.asarray(m.initial, dtype=complex)
        for i in range(k - 1):
            v = m.going.apply(m.unitaries[syms[i]] @ v)
        v = m.unitaries[syms[k - 1]] @ v
        total += projected_norm_sq(m.accepting, v)
    return total


@dataclass(frozen=True, eq=False)
class Qfac(_Checked):
    """Quantum automaton with classical states.

    The classical component is a DFA over ``classical_states``; reading
    symbol ``sigma`` in classical state ``s`` applies the unitary
    ``unitaries[(s, sigma)]`` to the quantum part and moves the
    classical state along ``transitions``.  Acceptance is measured by
    the projector attached to the final classical state; the rejecting
    projector is its complement.
    """

    classical_states: tuple[str, ...]
    alphabet: tuple[str, ...]
    initial_classical: str
    initial_quantum: np.ndarray
    transitions: Mapping[tuple[str, str], str]
    unitaries: Mapping[tuple[str, str], np.ndarray]
    accepting: Mapping[str, Projector]

    @property
    def dim(self) -> int:
        return int(self.initial_quantum.shape[0])


def _reachable(starts: Iterable[Hashable], successors: Callable[[Hashable], Iterable[Hashable]]) -> set:
    """Every node reachable from ``starts`` along ``successors``, the starts
    included: the one search behind each classical-state question, the
    accessible pairs of a composition, the live states of a hybrid
    automaton, a DFA's reachable part and the run of a restriction."""
    seen = set(starts)
    stack = list(seen)
    while stack:
        for t in successors(stack.pop()):
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def _live_states(m: Qfac) -> frozenset[str]:
    """The classical states from which some state with a nonempty accepting
    projector is reachable over ``m.alphabet``: the coaccessible part that
    ``Trim`` keeps.  A word in any other state reads 0 and so does every
    extension of it."""
    preds: dict[str, set[str]] = {}
    for (s, _), t in m.transitions.items():
        preds.setdefault(t, set()).add(s)
    accepting = (s for s in m.classical_states if m.accepting[s].subset)
    return frozenset(_reachable(accepting, lambda s: preds.get(s, ())))


def _qfac_steps(m: Qfac) -> Mapping[str, Mapping[str, tuple[np.ndarray, str]]]:
    """Per live classical state (see ``_live_states``), symbol -> ``(U(s, a), δ(s, a))``."""
    live = m._memo(_live_states)
    return read_only({s: read_only({a: (m.unitaries[(s, a)], m.transitions[(s, a)]) for a in m.alphabet})
                      for s in m.classical_states if s in live})


def _qfac_step(steps, state, sym):
    """One hybrid step on ``(s, v)`` through ``_qfac_steps``; None from a state that is not live."""
    s, v = state
    if s not in steps:
        return None
    u, t = steps[s][sym]
    return t, u.dot(v)


def qfac_accept_prob(m: Qfac, x: Sequence[str]) -> float:
    """Thread the classical state and quantum product, then measure; each step
    is one lookup in ``_qfac_steps`` (kept on the automaton) and one product,
    resumed from the trail (see ``_resume``), and a word that enters a
    state that is not live reads 0.0 from there on."""
    _check_symbols(x, m._symbols)
    start = (m.initial_classical, np.asarray(m.initial_quantum, dtype=complex))
    state = _resume(m, x, start, _qfac_step, m._memo(_qfac_steps), m.dim)
    if state is None:
        return 0.0
    s, v = state
    c = v[m.accepting[s]._idx]
    return _clamp_word(float(np.vdot(c, c).real), "classical-hybrid", x)


def qfac_levels(m: Qfac, alphabet: Sequence[str], horizon: int) -> Levels:
    """``qfac_accept_prob`` of every word up to the horizon, one array per length.

    A level holds, for each live classical state (see ``_live_states``),
    one ``(rows, dim)`` block of quantum states and each row's index in
    ``words_upto`` order.  A level's values are one projected-norm
    reduction per block; the children of block ``s`` under the j-th
    symbol ``a`` are ``rows @ U[(s, a)].T``, written straight into the
    preallocated block of ``transitions[(s, a)]`` at indices
    ``index * len(alphabet) + j``.  Words in a state that is not live
    are never carried and read exactly 0; only two lengths of blocks are
    held at a time.
    """
    check_horizon(horizon)
    steps, k = m._memo(_qfac_steps), len(alphabet)
    moves = []  # (s, j, U[(s, a)].T, target) between live states; the empty word reads no symbol
    if horizon:
        _check_symbols(alphabet, m._symbols)
        moves = [(s, j, row[a][0].T, t) for s, row in steps.items()
                 for j, a in enumerate(alphabet) if (t := row[a][1]) in steps]
    blocks = {}
    if m.initial_classical in steps:
        start = np.asarray(m.initial_quantum, dtype=complex)[None, :]
        blocks[m.initial_classical] = (start, np.zeros(1, dtype=np.intp))
    for length in range(horizon + 1):
        values = np.zeros(k ** length)
        for s, (rows, index) in blocks.items():
            values[index] = projected_norms_sq(m.accepting[s], rows.T)
        yield clamp_level(values, alphabet, length, "classical-hybrid")
        if length == horizon:
            return
        sizes = Counter()
        for s, _, _, t in moves:
            if s in blocks:
                sizes[t] += blocks[s][1].size
        children = {t: (np.empty((n, m.dim), dtype=complex), np.empty(n, dtype=np.intp)) for t, n in sizes.items()}
        filled = Counter()
        for s, j, u, t in moves:
            if s in blocks:
                (rows, index), (child_rows, child_index) = blocks[s], children[t]
                lo, hi = filled[t], filled[t] + index.size
                np.matmul(rows, u, out=child_rows[lo:hi])
                child_index[lo:hi] = index * k + j
                filled[t] = hi
        blocks = children


def qfac_from_mo(m: MoQfa) -> Qfac:
    """Wrap a measure-once automaton as the equivalent one-classical-state hybrid, state ``s0``."""
    return Qfac(
        classical_states=("s0",),
        alphabet=m.alphabet,
        initial_classical="s0",
        initial_quantum=np.asarray(m.initial, dtype=complex),
        transitions={("s0", a): "s0" for a in m.alphabet},
        unitaries={("s0", a): m.unitaries[a] for a in m.alphabet},
        accepting={"s0": m.accepting},
    )


def qfac_from_dfa(d: Dfa) -> Qfac:
    """Embed a DFA as a hybrid automaton with a trivial quantum part.

    The quantum dimension is 1 and every unitary is the identity, so
    acceptance probabilities are exactly 0 or 1 and match ``dfa_accepts``.
    """
    one = np.eye(1, dtype=complex)
    return Qfac(
        classical_states=d.states,
        alphabet=d.alphabet,
        initial_classical=d.initial,
        initial_quantum=np.array([1.0 + 0.0j]),
        transitions=d.transitions,
        unitaries={(s, a): one for s in d.states for a in d.alphabet},
        accepting={
            s: (Projector.full(1) if s in d.accepting else Projector.empty(1))
            for s in d.states
        },
    )


def _as_hybrid(a):
    """Measure-once automata and DFAs as their hybrid embeddings, kept on them; other kinds as they are."""
    if isinstance(a, (MoQfa, Dfa)):
        return a._memo(qfac_from_mo if isinstance(a, MoQfa) else qfac_from_dfa)
    return a


def _validate_unitaries(pairs, dim, tol, violations, what):
    """One message per bad unitary, in the order of ``pairs``: a wrong shape,
    else non-finite entries, else max|U U^dagger - I| above ``tol``.

    The well-shaped unitaries are checked in one batched pass, and the
    deviation is computed for the finite ones only.
    """
    pairs = [(name, np.asarray(u)) for name, u in pairs]
    shaped = [u.shape == (dim, dim) for _, u in pairs]
    stack = np.array([u for (_, u), ok in zip(pairs, shaped) if ok], dtype=complex).reshape(sum(shaped), dim, dim)
    finite = np.isfinite(stack).all(axis=(1, 2))
    good = stack[finite]
    dev = np.full(len(stack), np.nan)
    dev[finite] = np.abs(good @ np.conj(good).transpose(0, 2, 1) - np.eye(dim)).max(axis=(1, 2), initial=0.0)
    checked = iter(zip(finite, dev))
    for (name, u), ok in zip(pairs, shaped):
        if not ok:
            violations.append(f"{what} {name}: shape {u.shape} does not match dimension {dim}")
            continue
        is_finite, d = next(checked)
        if not is_finite:
            violations.append(f"{what} {name}: non-finite entries")
        elif not d <= tol:
            violations.append(f"{what} {name}: non-unitary (max deviation {d:.3e})")


def _validate_initial(v, dim, tol, violations):
    v = np.asarray(v)
    if v.shape != (dim,):
        violations.append(f"initial state: shape {v.shape} does not match dimension {dim}")
        return
    if not all_finite(v):
        violations.append("initial state: non-finite entries")
        return
    if not is_unit_vector(v, tol):
        violations.append(f"initial state: norm {np.linalg.norm(v):.12f} is not 1")


def _validate_partition(parts: dict[str, Projector], dim: int, violations: list[str]):
    seen: dict[int, str] = {}
    for name, p in parts.items():
        if p.dim != dim:
            violations.append(f"projector {name}: dimension {p.dim} does not match {dim}")
            return
        for i in p.subset:
            if i in seen:
                violations.append(f"partition: index {i} in both {seen[i]} and {name}")
            seen[i] = name
    missing = set(range(dim)) - set(seen)
    if missing:
        violations.append(f"partition: indices {sorted(missing)} not covered")


def _validate_distinct(names: Sequence[str], what: str, violations: list[str]):
    if len(set(names)) < len(names):
        violations.append(f"duplicate {what} {[name for name, count in Counter(names).items() if count > 1]}")


def validate(automaton) -> list[str]:
    """Check every type invariant; return one message per violation.

    An empty list means the automaton is well formed at tolerance
    ``linalg.DEFAULT_TOL`` scaled by the dimension.  Every automaton
    runs this check when it is built, and one that fails is never built:

    >>> from qdes.linalg import Projector
    >>> MoQfa(("a",), {"a": np.diag([1.0, 2.0])}, np.array([1.0, 0.0]),
    ...       Projector(frozenset({0}), 2), Projector(frozenset({1}), 2))
    Traceback (most recent call last):
    ...
    qdes.models.ValidationFailedError: invalid automaton: unitary a: non-unitary (max deviation 3.000e+00)
    """
    if not isinstance(automaton, (Dfa, MoQfa, MmQfa, Qfac)):
        raise TypeError(f"not an automaton: {type(automaton).__name__}")
    violations: list[str] = []
    _validate_distinct(automaton.alphabet, "alphabet symbols", violations)
    if isinstance(automaton, Dfa):
        d = automaton
        _validate_distinct(d.states, "states", violations)
        if d.initial not in d.states:
            violations.append(f"initial state {d.initial!r} not among states")
        for q in d.accepting:
            if q not in d.states:
                violations.append(f"accepting state {q!r} not among states")
        for q in d.states:
            for a in d.alphabet:
                if (q, a) not in d.transitions:
                    violations.append(f"transition missing for ({q!r}, {a!r})")
                elif d.transitions[(q, a)] not in d.states:
                    violations.append(f"transition ({q!r}, {a!r}) targets unknown state")
        return violations

    m = automaton
    t = DEFAULT_TOL * max(1.0, float(m.dim))
    if isinstance(m, MoQfa):
        _validate_unitaries(sorted(m.unitaries.items()), m.dim, t, violations, "unitary")
        missing = set(m.alphabet) - set(m.unitaries)
        if missing:
            violations.append(f"unitaries missing for symbols {sorted(missing)}")
        _validate_initial(m.initial, m.dim, t, violations)
        _validate_partition({"accepting": m.accepting, "rejecting": m.rejecting}, m.dim, violations)
        return violations

    if isinstance(m, MmQfa):
        if END_MARKER in m.alphabet:
            violations.append("end marker $ may not be part of the input alphabet")
        missing = (set(m.alphabet) | {END_MARKER}) - set(m.unitaries)
        if missing:
            violations.append(f"unitaries missing for symbols {sorted(missing)}")
        _validate_unitaries(sorted(m.unitaries.items()), m.dim, t, violations, "unitary")
        _validate_initial(m.initial, m.dim, t, violations)
        parts = {"accepting": m.accepting, "rejecting": m.rejecting, "going": m.going}
        _validate_partition(parts, m.dim, violations)
        return violations

    _validate_distinct(m.classical_states, "classical states", violations)
    if m.initial_classical not in m.classical_states:
        violations.append(f"initial classical state {m.initial_classical!r} unknown")
    for s in m.classical_states:
        for a in m.alphabet:
            if (s, a) not in m.transitions:
                violations.append(f"classical transition missing for ({s!r}, {a!r})")
            elif m.transitions[(s, a)] not in m.classical_states:
                violations.append(f"classical transition ({s!r}, {a!r}) targets unknown state")
            if (s, a) not in m.unitaries:
                violations.append(f"unitary missing for ({s!r}, {a!r})")
    named = sorted((f"({s},{a})", u) for (s, a), u in m.unitaries.items())
    _validate_unitaries(named, m.dim, t, violations, "unitary")
    _validate_initial(m.initial_quantum, m.dim, t, violations)
    for s in m.classical_states:
        if s not in m.accepting:
            violations.append(f"measurement missing for classical state {s!r}")
        elif m.accepting[s].dim != m.dim:
            violations.append(f"measurement at {s!r}: dimension mismatch")
    return violations
