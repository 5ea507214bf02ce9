"""Bilinear machines: word functions, algebra, and compilers from QFA.

A bilinear machine carries an initial column vector ``pi``, one square
matrix per symbol, and a final row functional ``eta``; its word function
is ``f(w) = eta @ M(w_m) @ ... @ M(w_1) @ pi``.  Every machine is
real-valued: evaluation refuses a word whose value has an imaginary part.

The compilers turn quantum automata into real-valued bilinear machines
by tracking the vectorized unnormalized density matrix of the surviving
state, which makes the otherwise quadratic acceptance probability linear
in the machine state.  Both compilers are exact: the compiled word
function equals the direct evaluator on every word.

``linear_form`` gives every automaton kind the same word function as a
step ``apply(a, X)`` instead of matrices; for a hybrid automaton the step
conjugates each classical block by its own unitary, so the decisions run
without the dense k * d^2 square compiled matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import dagger, tensor
from .models import (
    END_MARKER,
    Dfa,
    Levels,
    MmQfa,
    MoQfa,
    Qfac,
    Word,
    _Checked,
    _check_symbols,
    check_horizon,
    clamp_level,
    clamp_probability,
    dfa_accepts,
    freeze,
    mm_accept_prob,
    mm_levels,
    mo_accept_prob,
    qfac_accept_prob,
    qfac_from_dfa,
    qfac_from_mo,
    qfac_levels,
    word_at,
)

#: Imaginary mass above this is an error: every machine is real-valued.
REAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Rblm:
    """Bilinear machine with a real-valued word function.

    ``pi`` is a column vector and ``eta`` a row functional, so words
    apply right-to-left: the first symbol read multiplies ``pi`` first.
    Entries may be complex even when the word function is real.
    """

    alphabet: tuple[str, ...]
    pi: np.ndarray
    matrices: Mapping[str, np.ndarray]
    eta: np.ndarray

    @property
    def n(self) -> int:
        return int(self.pi.shape[0])

    def apply(self, a: str, x: np.ndarray) -> np.ndarray:
        """``M(a) @ x``, for one state vector or an (n, r) block of columns."""
        return self.matrices[a] @ x


@dataclass(frozen=True, eq=False)
class LinearForm:
    """A word function ``eta @ apply(w_m, ... apply(w_1, pi))`` given by its step.

    ``apply(a, X)`` acts on one state vector or on an (n, r) block of
    columns, linearly, as a matrix ``M(a)`` would; the matrix itself is
    never formed.  An ``Rblm`` has the same fields and is its own form.
    """

    alphabet: tuple[str, ...]
    pi: np.ndarray
    apply: Callable[[str, np.ndarray], np.ndarray]
    eta: np.ndarray

    @property
    def n(self) -> int:
        return int(self.pi.shape[0])


def blm_eval(b: Rblm | LinearForm, w: Sequence[str]) -> float:
    """Word function value ``eta @ M(w_m) ... M(w_1) @ pi``, of a machine or a linear form."""
    allowed = set(b.alphabet)
    v = np.asarray(b.pi, dtype=complex)
    for sym in w:
        if sym not in allowed:
            raise ValueError(f"symbol {sym!r} not in alphabet {sorted(allowed)}")
        v = b.apply(sym, v)
    val = complex(np.asarray(b.eta, dtype=complex) @ v)
    if abs(val.imag) > REAL_TOL:
        raise ArithmeticError(f"machine not real-valued: f({''.join(w)!r}) = {val!r}")
    return float(val.real)


def blm_levels(b: Rblm, alphabet: Sequence[str], horizon: int) -> Levels:
    """``blm_eval`` of every word up to the horizon, one array per length.

    Advances one state column per word, ``V <- M(a) V`` for every symbol
    ``a``, and holds only two lengths of columns at a time.
    """
    check_horizon(horizon)
    if horizon:
        _check_symbols(alphabet, b.alphabet)
    v = np.asarray(b.pi, dtype=complex)[:, None]
    eta = np.asarray(b.eta, dtype=complex)
    for length in range(horizon + 1):
        if length:
            v = np.stack([b.matrices[a] @ v for a in alphabet], axis=2).reshape(b.n, -1)
        vals = eta @ v
        bad = np.flatnonzero(np.abs(vals.imag) > REAL_TOL)
        if len(bad):
            w = "".join(word_at(alphabet, length, int(bad[0])))
            raise ArithmeticError(f"machine not real-valued: f({w!r}) = {complex(vals[bad[0]])!r}")
        yield vals.real


def absorb_symbol(b: Rblm, tau: str) -> Rblm:
    """Fold one trailing symbol into the final functional.

    The result satisfies ``f'(w) = f(w tau)`` over the alphabet without
    ``tau``, with the same state count; ``eta`` becomes ``eta @ M(tau)``.
    """
    if tau not in b.alphabet:
        raise ValueError(f"symbol {tau!r} not in alphabet")
    alphabet = tuple(a for a in b.alphabet if a != tau)
    matrices = {a: b.matrices[a] for a in alphabet}
    return Rblm(alphabet, b.pi, matrices, np.asarray(b.eta) @ b.matrices[tau])


def _conjugation_map(g: np.ndarray) -> np.ndarray:
    """Matrix sending vec(rho) to vec(G rho G†), with vec row-major, so
    vec(A X B) = (A kron B^T) vec(X); a stack of them for a stack of G."""
    return tensor(g, np.conj(g))


def _trace_functional(a: np.ndarray) -> np.ndarray:
    """Row vector t with t @ vec(rho) = tr(A rho)."""
    return a.T.ravel()


def compile_mm_to_rblm(m: MmQfa) -> Rblm:
    """Compile a measure-many automaton to a bilinear machine over its input alphabet.

    The machine state is vec(rho) of the surviving (going) component
    plus one accumulator coordinate for accept mass already gathered, so
    the state count is n^2 + 1.  Reading a symbol conjugates rho by
    P(go) U(sigma) and adds tr(P(acc) U rho U†) to the accumulator; the
    end marker is folded into the final functional.  The automaton was
    checked when it was built, so its shapes and partition are trusted.
    """
    n = m.dim
    dim = n * n + 1
    p_go = m.going.as_matrix()
    p_acc = m.accepting.as_matrix()

    matrices: dict[str, np.ndarray] = {}
    for sym in (*m.alphabet, END_MARKER):
        u = np.asarray(m.unitaries[sym], dtype=complex)
        t = np.zeros((dim, dim), dtype=complex)
        t[: n * n, : n * n] = _conjugation_map(p_go @ u)
        t[n * n, : n * n] = _trace_functional(dagger(u) @ p_acc @ u)
        t[n * n, n * n] = 1.0
        matrices[sym] = t

    psi = np.asarray(m.initial, dtype=complex)
    pi = np.zeros(dim, dtype=complex)
    pi[: n * n] = np.outer(psi, np.conj(psi)).ravel()

    eta = np.zeros(dim, dtype=complex)
    eta[n * n] = 1.0

    working = Rblm((*m.alphabet, END_MARKER), pi, matrices, eta)
    return absorb_symbol(working, END_MARKER)


def _qfac_parts(m: Qfac) -> tuple[np.ndarray, np.ndarray, dict[str, tuple[np.ndarray, np.ndarray]]]:
    """A hybrid automaton's machine ``pi`` and ``eta``, one vec(rho) block per
    classical state, and per symbol a the (k, d^2, d^2) stack of
    U(s, a) kron conj U(s, a) with the 0/1 routing matrix that has a 1 at
    (delta(s, a), s).  The automaton was checked when it was built."""
    states, k = m.classical_states, len(m.classical_states)
    psi = np.asarray(m.initial_quantum, dtype=complex)
    pi = np.zeros((k, m.dim * m.dim), dtype=complex)
    pi[states.index(m.initial_classical)] = np.outer(psi, np.conj(psi)).ravel()
    eta = np.array([_trace_functional(m.accepting[s].as_matrix()) for s in states]).ravel()
    steps = {}
    for a in m.alphabet:
        route = np.zeros((k, k), dtype=complex)
        route[[states.index(m.transitions[(s, a)]) for s in states], range(k)] = 1.0
        steps[a] = _conjugation_map(np.array([m.unitaries[(s, a)] for s in states], dtype=complex)), route
    return pi.ravel(), eta, steps


def _qfac_form(m: Qfac) -> LinearForm:
    """The operator form of ``compile_qfac_to_rblm``: the same vectors, and a
    step that conjugates each classical block by its own unitary.

    A block of r columns is read as k stacked d^2 x r blocks; reading a
    symbol maps each by its state's superoperator, in one batched
    product, and sums the results into the blocks of the successor states
    with the routing matrix.  A step costs O(k d^4 + k^2 d^2) per column
    instead of the compiled O(k^2 d^4), and the blocks take 1/k of the
    compiled storage.
    """
    pi, eta, steps = _qfac_parts(m)

    def apply(a: str, x: np.ndarray) -> np.ndarray:
        blocks, route = steps[a]
        moved = blocks @ x.reshape(*blocks.shape[:2], -1)
        return (route @ moved.reshape(len(route), -1)).reshape(x.shape)

    return LinearForm(m.alphabet, pi, apply, eta)


def compile_qfac_to_rblm(m: Qfac) -> Rblm:
    """Compile a classical-hybrid automaton to a bilinear machine.

    One vec(rho) block per classical state (k * n^2 coordinates); the
    block of the current classical state holds the quantum density and
    all others are zero.  Reading a symbol routes each block through the
    conjugation by its state's unitary into the successor state's block.
    The final functional sums tr(P(s, acc) rho_s) over classical states.
    The matrices scatter ``_qfac_form``'s blocks into zeros: form and machine
    agree bit for bit, and pages no transition reaches stay untouched.
    """
    pi, eta, steps = _qfac_parts(m)
    matrices = {}
    for a, (blocks, route) in steps.items():
        (k, nn, _), (dst, src) = blocks.shape, np.nonzero(route)
        t = np.zeros((k, nn, k, nn), dtype=complex)
        t[dst, :, src, :] = blocks[src]
        matrices[a] = t.reshape(pi.size, pi.size)
    return Rblm(m.alphabet, pi, matrices, eta)


def rblm_probability(b: Rblm, w: Sequence[str]) -> float:
    """Evaluate a compiled machine and clamp to [0, 1] like the direct evaluators."""
    return clamp_probability(blm_eval(b, w), f"(bilinear, word {''.join(w)!r})")


def _as_hybrid(a):
    """Measure-once automata and DFAs as their hybrid embeddings, kept on them; other kinds as they are."""
    if isinstance(a, (MoQfa, Dfa)):
        return a._memo(qfac_from_mo if isinstance(a, MoQfa) else qfac_from_dfa)
    return a


def to_rblm(a) -> Rblm:
    """The dense bilinear machine of any automaton kind; the one kind-to-machine map.

    Measure-once automata and DFAs go through their one-classical-state
    and trivial-quantum-part hybrid embeddings.
    """
    if isinstance(a, Rblm):
        return a
    if isinstance(a, MmQfa):
        return compile_mm_to_rblm(a)
    a = _as_hybrid(a)
    if isinstance(a, Qfac):
        return compile_qfac_to_rblm(a)
    raise TypeError(f"no bilinear form for {type(a).__name__}")


def linear_form(a) -> Rblm | LinearForm:
    """The word function of any automaton kind as a step, for the decisions.

    A bilinear machine is its own form, and a measure-many automaton the
    machine ``compile_mm_to_rblm`` gives (its n^2 + 1 states carry no
    classical blow-up); a hybrid automaton, and measure-once automata
    and DFAs through their hybrid embeddings, step in operator form and
    never form a compiled matrix.  ``pi`` and ``eta`` are those of the
    compilers, and no automaton is checked again here: each one was
    checked when it was built.  An automaton's form is built once, kept
    on it and read-only.
    """
    if isinstance(a, Rblm):
        return a
    if isinstance(a, _Checked):
        return a._memo(_form)
    raise TypeError(f"no bilinear form for {type(a).__name__}")


def _form(a) -> Rblm | LinearForm:
    return freeze(compile_mm_to_rblm(a) if isinstance(a, MmQfa) else _qfac_form(_as_hybrid(a)), copy=False)


def levels(a, alphabet: Sequence[str], horizon: int) -> Levels:
    """The acceptance probability of every word up to the horizon, one
    array per word length: the batched counterpart of ``evaluator``.

    The words of each length come in ``models.words_upto(alphabet,
    horizon)`` order, so the children of the word at index i sit at
    indices i * len(alphabet) ... i * len(alphabet) + len(alphabet) - 1
    of the next length.  A DFA accepting the words that end in 1:

    >>> from qdes.models import Dfa
    >>> ends_in_1 = Dfa(("x", "y"), ("0", "1"), {(q, a): "y" if a == "1" else "x"
    ...                 for q in ("x", "y") for a in ("0", "1")}, "x", frozenset({"y"}))
    >>> [v.tolist() for v in levels(ends_in_1, ("0", "1"), 2)]  # 0 1 | 00 01 10 11
    [[0.0], [0.0, 1.0], [0.0, 1.0, 0.0, 1.0]]

    Measure-once automata and DFAs go through their hybrid embeddings.
    """
    check_horizon(horizon)
    if isinstance(a, MmQfa):
        return mm_levels(a, alphabet, horizon)
    if isinstance(a, Rblm):
        return (clamp_level(v, alphabet, n, "bilinear") for n, v in enumerate(blm_levels(a, alphabet, horizon)))
    a = _as_hybrid(a)
    if isinstance(a, Qfac):
        return qfac_levels(a, alphabet, horizon)
    raise TypeError(f"no level evaluator for {type(a).__name__}")


def evaluator(a) -> Callable[[Word], float]:
    """The direct acceptance-probability evaluator of any automaton kind.

    The closures look the evaluators up by module name at call time, so
    a rebinding of those names (a tracer, a test double) still sees
    every call.
    """
    if isinstance(a, MmQfa):
        return lambda w: mm_accept_prob(a, w)
    if isinstance(a, Qfac):
        return lambda w: qfac_accept_prob(a, w)
    if isinstance(a, MoQfa):
        return lambda w: mo_accept_prob(a, w)
    if isinstance(a, Rblm):
        return lambda w: rblm_probability(a, w)
    if isinstance(a, Dfa):
        return lambda w: 1.0 if dfa_accepts(a, w) else 0.0
    raise TypeError(f"no evaluator for {type(a).__name__}")
