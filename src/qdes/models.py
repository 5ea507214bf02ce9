"""The four automaton models and their acceptance-probability evaluators.

``Dfa`` is the classical baseline.  ``MoQfa`` applies one unitary per
symbol and measures once at the end.  ``MmQfa`` measures
accept/reject/go after every symbol and reads an implicit end marker
``$`` after the input.  ``Qfac`` pairs a classical automaton with a
quantum part: the classical state selects which unitary and which final
measurement apply.

Words are sequences of symbol strings; alphabets are explicit.  All
evaluators are pure and automata are treated as immutable after
validation, so concurrent evaluation is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    Projector,
    all_finite,
    is_unit_vector,
    projected_norm_sq,
    projected_norms_sq,
)

#: End-of-input marker used internally by measure-many automata.
END_MARKER = "$"

Word = tuple[str, ...]

#: Slack allowed before a computed probability is considered corrupt.
PROB_SANITY_TOL = 1e-9

#: One value array per word length, in ``words_upto`` order.
Levels = Iterator[np.ndarray]


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
        sups = [np.maximum(f, s.reshape(f.size, symbols).max(axis=1, initial=-np.inf))
                for f, s in zip(levels, sups[1:])]
    return sups


def clamp_probability(raw: float, context: str = "") -> float:
    """Clamp to [0, 1] after checking the raw value is sane.

    Values outside [-1e-9, 1 + 1e-9] indicate a broken automaton rather
    than rounding noise and are reported instead of clamped.
    """
    if not (-PROB_SANITY_TOL <= raw <= 1.0 + PROB_SANITY_TOL):
        raise ArithmeticError(f"probability {raw!r} outside [0,1] sanity band {context}")
    return min(1.0, max(0.0, raw))


def clamp_level(raw: np.ndarray, alphabet: Sequence[str], length: int, what: str) -> np.ndarray:
    """``clamp_probability`` on the values of one level; the first corrupt word is named."""
    bad = np.flatnonzero(~((raw >= -PROB_SANITY_TOL) & (raw <= 1.0 + PROB_SANITY_TOL)))
    if bad.size:
        w = word_at(alphabet, length, int(bad[0]))
        clamp_probability(float(raw[bad[0]]), f"({what}, word {''.join(w)!r})")
    return np.clip(raw, 0.0, 1.0)


def _check_symbols(w: Sequence[str], alphabet: Iterable[str], forbid: str | None = None):
    allowed = set(alphabet)
    for sym in w:
        if forbid is not None and sym == forbid:
            raise ValueError(f"symbol {forbid!r} may not appear inside an input word")
        if sym not in allowed:
            raise ValueError(f"symbol {sym!r} not in alphabet {sorted(allowed)}")


@dataclass(frozen=True, eq=False)
class Dfa:
    """Deterministic finite automaton with a total transition function."""

    states: tuple[str, ...]
    alphabet: tuple[str, ...]
    transitions: Mapping[tuple[str, str], str]
    initial: str
    accepting: frozenset[str]


def dfa_accepts(d: Dfa, w: Sequence[str]) -> bool:
    """True iff the extended transition function lands in an accepting state."""
    _check_symbols(w, d.alphabet)
    state = d.initial
    for sym in w:
        state = d.transitions[(state, sym)]
    return state in d.accepting


@dataclass(frozen=True, eq=False)
class MoQfa:
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
    """Probability of accepting ``w``: project the final state onto the accepting set."""
    _check_symbols(w, m.alphabet)
    v = np.asarray(m.initial, dtype=complex)
    for sym in w:
        v = m.unitaries[sym] @ v
    return clamp_probability(projected_norm_sq(m.accepting, v), f"(measure-once, word {''.join(w)!r})")


@dataclass(frozen=True, eq=False)
class MmQfa:
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


def mm_accept_prob(m: MmQfa, w: Sequence[str], cross_check: bool = False) -> float:
    """Measure-many acceptance probability of ``w``.

    Runs the single forward pass that carries the surviving "go" state
    and accumulates accept mass after every symbol and after the end
    marker.  With ``cross_check`` the per-step product form is evaluated
    as well and both strategies must agree to 1e-12.

    Each step reads the accept mass off the accepting indices and keeps
    the go part by a 0/1 mask, both built once per call: the same floats
    as ``projected_norm_sq`` and ``Projector.apply`` without their
    per-step coercion and checks.
    """
    _check_symbols(w, m.alphabet, forbid=END_MARKER)
    dim = m.going.dim
    if m.accepting.dim != dim:
        raise ValueError(f"dimension mismatch: projector dim {m.accepting.dim}, vector dim {dim}")
    acc, go = m.accepting._idx, np.zeros(dim, dtype=complex)
    go[m.going._idx] = 1.0
    total = 0.0
    going = np.asarray(m.initial, dtype=complex)
    for sym in (*w, END_MARKER):
        v = m.unitaries[sym] @ going
        if v.shape != (dim,):
            raise ValueError(f"dimension mismatch: projector dim {dim}, vector shape {v.shape}")
        c = v[acc]
        total += np.vdot(c, c).real
        going = v * go
    if cross_check:
        alt = _mm_accept_prob_products(m, w)
        if abs(total - alt) > 1e-12:
            raise ArithmeticError(
                f"measure-many evaluation strategies disagree: {total!r} vs {alt!r}"
            )
    return clamp_probability(float(total), f"(measure-many, word {''.join(w)!r})")


def mm_levels(m: MmQfa, alphabet: Sequence[str], horizon: int) -> Levels:
    """``mm_accept_prob`` of every word up to the horizon, one array per length.

    Carries one surviving "go" column per word of the current length and
    the accept mass each word has gathered; only two lengths of columns
    are held at a time.
    """
    check_horizon(horizon)
    if horizon:
        _check_symbols(alphabet, m.alphabet, forbid=END_MARKER)
    go_mask = np.zeros((m.dim, 1))
    go_mask[list(m.going.indices)] = 1.0
    going = np.asarray(m.initial, dtype=complex)[:, None]
    mass = np.zeros(1)
    for length in range(horizon + 1):
        if length:
            steps = [m.unitaries[a] @ going for a in alphabet]
            mass = np.stack([mass + projected_norms_sq(m.accepting, v) for v in steps], axis=1).ravel()
            going = np.stack([go_mask * v for v in steps], axis=2).reshape(m.dim, -1)
        final = projected_norms_sq(m.accepting, m.unitaries[END_MARKER] @ going)
        yield clamp_level(mass + final, alphabet, length, "measure-many")


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
class Qfac:
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

    @property
    def classical_count(self) -> int:
        return len(self.classical_states)


def qfac_accept_prob(m: Qfac, x: Sequence[str]) -> float:
    """Thread the classical state and quantum product, then measure."""
    _check_symbols(x, m.alphabet)
    s = m.initial_classical
    v = np.asarray(m.initial_quantum, dtype=complex)
    for sym in x:
        v = m.unitaries[(s, sym)] @ v
        s = m.transitions[(s, sym)]
    return clamp_probability(
        projected_norm_sq(m.accepting[s], v), f"(classical-hybrid, word {''.join(x)!r})"
    )


def qfac_levels(m: Qfac, alphabet: Sequence[str], horizon: int) -> Levels:
    """``qfac_accept_prob`` of every word up to the horizon, one array per length.

    Carries one quantum column per word of the current length, grouped by
    classical state, so a level costs one ``U[(s, a)] @ V[:, cols_s]``
    per classical state and symbol; only two lengths of columns are held
    at a time.
    """
    check_horizon(horizon)
    if horizon:
        _check_symbols(alphabet, m.alphabet)
    index = {s: i for i, s in enumerate(m.classical_states)}
    v = np.asarray(m.initial_quantum, dtype=complex)[:, None]
    cls = np.array([index[m.initial_classical]])
    for length in range(horizon + 1):
        groups = [(s, np.flatnonzero(cls == i)) for s, i in index.items()]
        groups = [(s, cols) for s, cols in groups if cols.size]
        values = np.empty(cls.size)
        for s, cols in groups:
            values[cols] = projected_norms_sq(m.accepting[s], v[:, cols])
        yield clamp_level(values, alphabet, length, "classical-hybrid")
        if length == horizon:
            return
        nv = np.empty((m.dim, cls.size, len(alphabet)), dtype=complex)
        ncls = np.empty((cls.size, len(alphabet)), dtype=cls.dtype)
        for s, cols in groups:
            block = v[:, cols]
            for j, a in enumerate(alphabet):
                nv[:, cols, j] = m.unitaries[(s, a)] @ block
                ncls[cols, j] = index[m.transitions[(s, a)]]
        v, cls = nv.reshape(m.dim, -1), ncls.ravel()


def qfac_from_mo(m: MoQfa, state_name: str = "s0") -> Qfac:
    """Wrap a measure-once automaton as the equivalent one-classical-state hybrid."""
    return Qfac(
        classical_states=(state_name,),
        alphabet=m.alphabet,
        initial_classical=state_name,
        initial_quantum=np.asarray(m.initial, dtype=complex),
        transitions={(state_name, a): state_name for a in m.alphabet},
        unitaries={(state_name, a): m.unitaries[a] for a in m.alphabet},
        accepting={state_name: m.accepting},
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
        transitions=dict(d.transitions),
        unitaries={(s, a): one for s in d.states for a in d.alphabet},
        accepting={
            s: (Projector.full(1) if s in d.accepting else Projector.empty(1))
            for s in d.states
        },
    )


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


def validate(automaton, tol: float | None = None) -> list[str]:
    """Check every type invariant; return one message per violation.

    An empty list means the automaton is well formed at the given
    tolerance (default: 1e-9 scaled by the dimension).
    """
    violations: list[str] = []
    if isinstance(automaton, Dfa):
        d = automaton
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

    if isinstance(automaton, MoQfa):
        m = automaton
        t = (tol if tol is not None else DEFAULT_TOL) * max(1.0, float(m.dim))
        _validate_unitaries(sorted(m.unitaries.items()), m.dim, t, violations, "unitary")
        missing = set(m.alphabet) - set(m.unitaries)
        if missing:
            violations.append(f"unitaries missing for symbols {sorted(missing)}")
        _validate_initial(m.initial, m.dim, t, violations)
        _validate_partition({"accepting": m.accepting, "rejecting": m.rejecting}, m.dim, violations)
        return violations

    if isinstance(automaton, MmQfa):
        m = automaton
        t = (tol if tol is not None else DEFAULT_TOL) * max(1.0, float(m.dim))
        if END_MARKER in m.alphabet:
            violations.append("end marker $ may not be part of the input alphabet")
        missing = (set(m.alphabet) | {END_MARKER}) - set(m.unitaries)
        if missing:
            violations.append(f"unitaries missing for symbols {sorted(missing)}")
        _validate_unitaries(sorted(m.unitaries.items()), m.dim, t, violations, "unitary")
        _validate_initial(m.initial, m.dim, t, violations)
        _validate_partition(
            {"accepting": m.accepting, "rejecting": m.rejecting, "going": m.going},
            m.dim,
            violations,
        )
        return violations

    if isinstance(automaton, Qfac):
        m = automaton
        t = (tol if tol is not None else DEFAULT_TOL) * max(1.0, float(m.dim))
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
        _validate_unitaries(
            sorted((f"({s},{a})", u) for (s, a), u in m.unitaries.items()),
            m.dim,
            t,
            violations,
            "unitary",
        )
        _validate_initial(m.initial_quantum, m.dim, t, violations)
        for s in m.classical_states:
            if s not in m.accepting:
                violations.append(f"measurement missing for classical state {s!r}")
            elif m.accepting[s].dim != m.dim:
                violations.append(f"measurement at {s!r}: dimension mismatch")
        return violations

    raise TypeError(f"not an automaton: {type(automaton).__name__}")
