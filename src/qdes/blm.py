"""Bilinear machines: word functions, algebra, and compilers from QFA.

A bilinear machine carries an initial column vector ``pi``, one square
matrix per symbol, and a final row functional ``eta``; its word function
is ``f(w) = eta @ M(w_m) @ ... @ M(w_1) @ pi``.  Every machine is
real-valued: evaluation refuses a word whose value has an imaginary part.

The compilers turn quantum automata into real-valued bilinear machines
by tracking the vectorized unnormalized density matrix of the surviving
state, which makes the otherwise quadratic acceptance probability linear
in the machine state.  The density matrix is Hermitian, and every map
the automata apply keeps it so; in the orthonormal Hermitian basis of
``hermitian_basis`` its coordinates, every step, ``pi`` and ``eta`` are
therefore real, and an automaton's machines, forms and minimal machines
are float64.  Both compilers are exact: the compiled word function
equals the direct evaluator on every word.

``linear_form`` gives every automaton kind the same word function as a
step ``apply(a, X)`` instead of matrices; for a hybrid automaton the step
conjugates each classical block by its own unitary, so the decisions run
without the dense k * d^2 square compiled matrices.

``Rblm.apply`` and ``blm_eval`` multiply with ``ndarray.dot``: on a 2-D
matrix and a vector, an (n, r) block or a second vector it makes the
same BLAS call as ``@`` (transposed, F-ordered views included), so the
values are ``@``'s floats at about half the dispatch cost of a small
step.  ``@`` stays in ``_qfac_form``'s step, which multiplies 3-D stacks
(``.dot`` is a different product there), and in ``blm_levels``, where one
product serves a whole level of words.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import dagger, tensor
from .models import (
    END_MARKER,
    Levels,
    MmQfa,
    Qfac,
    Word,
    _as_hybrid,
    _Checked,
    _check_symbols,
    _clamp_word,
    check_horizon,
    clamp_level,
    freeze,
    mm_accept_prob,
    mm_levels,
    qfac_accept_prob,
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
    The machines of automata are real; a caller's entries may be complex
    even when the word function is real, and the decisions then run in
    complex arithmetic.
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
        return self.matrices[a].dot(x)


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
    v = np.asarray(b.pi)
    for sym in w:
        if sym not in b.alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet {sorted(set(b.alphabet))}")
        v = b.apply(sym, v)
    val = complex(np.asarray(b.eta).dot(v))
    if abs(val.imag) > REAL_TOL:
        raise ArithmeticError(f"machine not real-valued: f({''.join(w)!r}) = {val!r}")
    return float(val.real)


def blm_levels(b: Rblm, alphabet: Sequence[str], horizon: int) -> Levels:
    """``blm_eval`` of every word up to the horizon, one array per length.

    Advances one state column per word, ``V <- M(a) V`` for every symbol
    ``a``, and holds only two lengths of columns at a time; over an empty
    alphabet every level past the empty word is empty.
    """
    check_horizon(horizon)
    if horizon:
        _check_symbols(alphabet, frozenset(b.alphabet))
    v = np.asarray(b.pi)[:, None]
    eta = np.asarray(b.eta)
    for length in range(horizon + 1):
        if length:
            moved = [b.matrices[a] @ v for a in alphabet]
            v = np.stack(moved, axis=2).reshape(b.n, -1) if moved else v[:, :0]
        vals = eta @ v
        bad = np.flatnonzero(np.abs(vals.imag) > REAL_TOL)
        if len(bad):
            w = "".join(word_at(alphabet, length, int(bad[0])))
            raise ArithmeticError(f"machine not real-valued: f({w!r}) = {complex(vals[bad[0]])!r}")
        yield vals.real


def hermitian_basis(d: int) -> np.ndarray:
    """The unitary W whose rows are vec(E_aa), then (vec E_ab + vec E_ba)/sqrt 2,
    then -i (vec E_ab - vec E_ba)/sqrt 2, for a < b in row-major order.

    W vec(rho) lists the diagonal of rho and sqrt 2 times the real and the
    imaginary parts of its upper triangle, so it is real for every
    Hermitian rho, and W T W† is real for every map T that keeps
    Hermitian matrices Hermitian (the generalized Gell-Mann coordinates
    of Bertlmann and Krammer, "Bloch vectors for qudits", 2008).  Being
    unitary, W keeps every inner product, and so every residual of the
    span exploration.

    >>> rho = np.array([[0.5, 0.25 - 0.5j], [0.25 + 0.5j, 0.5]])
    >>> x = hermitian_basis(2) @ rho.ravel()
    >>> bool(np.allclose(x.imag, 0)), x.real.round(6).tolist()
    (True, [0.5, 0.5, 0.353553, -0.707107])
    """
    a, b = np.triu_indices(d, 1)
    up, down, sym = a * d + b, b * d + a, d + np.arange(a.size)
    w = np.zeros((d * d, d * d), dtype=complex)
    w[range(d), np.arange(d) * (d + 1)] = 1.0
    w[sym, up] = w[sym, down] = np.sqrt(0.5)
    w[sym + a.size, up], w[sym + a.size, down] = -1j * np.sqrt(0.5), 1j * np.sqrt(0.5)
    return w


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
    final functional reads the accumulator plus the accept mass of the
    end marker's step.  vec(rho) is written in the real coordinates of
    ``hermitian_basis``.  The automaton was checked when it was built, so
    its shapes and partition are trusted.
    """
    n = m.dim
    w = hermitian_basis(n)
    wh = dagger(w)
    p_go = m.going.as_matrix()
    p_acc = m.accepting.as_matrix()

    def accept_row(sym: str) -> np.ndarray:
        u = m.unitaries[sym]
        return (_trace_functional(dagger(u) @ p_acc @ u) @ wh).real

    matrices: dict[str, np.ndarray] = {}
    for sym in m.alphabet:
        t = np.zeros((n * n + 1, n * n + 1))
        t[: n * n, : n * n] = (w @ _conjugation_map(p_go @ m.unitaries[sym]) @ wh).real
        t[n * n, : n * n] = accept_row(sym)
        t[n * n, n * n] = 1.0
        matrices[sym] = t

    psi = np.asarray(m.initial, dtype=complex)
    pi = np.zeros(n * n + 1)
    pi[: n * n] = (w @ np.outer(psi, np.conj(psi)).ravel()).real
    return Rblm(m.alphabet, pi, matrices, np.append(accept_row(END_MARKER), 1.0))


def _qfac_form(m: Qfac) -> LinearForm:
    """A hybrid automaton's word function in operator form: one vec(rho)
    block per classical state, in the real coordinates of
    ``hermitian_basis``, and a step that conjugates each block by its own
    state's unitary; all float64.  The automaton was checked when it was
    built.

    Per symbol a, the step keeps the (k, d^2, d^2) stack of
    W (U(s, a) kron conj U(s, a)) W† and the 0/1 routing matrix with a 1
    at (delta(s, a), s).  A block of r columns is read as k stacked
    d^2 x r blocks; reading a symbol maps each by its state's
    superoperator, in one batched product, and sums the results into the
    blocks of the successor states with the routing matrix.  A step costs
    O(k d^4 + k^2 d^2) per column instead of the compiled O(k^2 d^4), and
    the blocks take 1/k of the compiled storage.
    """
    states, k = m.classical_states, len(m.classical_states)
    w = hermitian_basis(m.dim)
    wh = dagger(w)
    psi = np.asarray(m.initial_quantum, dtype=complex)
    pi = np.zeros((k, m.dim * m.dim))
    pi[states.index(m.initial_classical)] = (w @ np.outer(psi, np.conj(psi)).ravel()).real
    eta = (np.array([_trace_functional(m.accepting[s].as_matrix()) for s in states]) @ wh).real.ravel()
    steps = {}
    for a in m.alphabet:
        route = np.zeros((k, k))
        route[[states.index(m.transitions[(s, a)]) for s in states], range(k)] = 1.0
        blocks = _conjugation_map(np.array([m.unitaries[(s, a)] for s in states], dtype=complex))
        steps[a] = (w @ blocks @ wh).real, route

    def apply(a: str, x: np.ndarray) -> np.ndarray:
        blocks, route = steps[a]
        moved = blocks @ x.reshape(*blocks.shape[:2], -1)
        return (route @ moved.reshape(len(route), -1)).reshape(x.shape)

    return LinearForm(m.alphabet, pi.ravel(), apply, eta)


def compile_qfac_to_rblm(m: Qfac) -> Rblm:
    """Compile a classical-hybrid automaton to a bilinear machine.

    One vec(rho) block per classical state (k * n^2 coordinates); the
    block of the current classical state holds the quantum density and
    all others are zero.  Reading a symbol routes each block through the
    conjugation by its state's unitary into the successor state's block.
    The final functional sums tr(P(s, acc) rho_s) over classical states.
    Each matrix is the kept operator form's step applied to the identity,
    so form and machine agree bit for bit; ``pi`` and ``eta`` are copies
    of the form's, for the machine belongs to its caller.  Both are real,
    in the coordinates of ``hermitian_basis``.
    """
    form = linear_form(m)
    eye = np.eye(form.n)
    return Rblm(m.alphabet, form.pi.copy(), {a: form.apply(a, eye) for a in m.alphabet}, form.eta.copy())


def rblm_probability(b: Rblm, w: Sequence[str]) -> float:
    """Evaluate a compiled machine and clamp to [0, 1] like the direct evaluators."""
    return _clamp_word(blm_eval(b, w), "bilinear", w)


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

    Measure-once automata and DFAs go through their hybrid embeddings,
    so a DFA's values are exactly 0.0 and 1.0, as ``dfa_accepts`` says.
    The closures look the evaluators up by module name at call time, so
    a rebinding of those names (a tracer, a test double) still sees
    every call.
    """
    if isinstance(a, MmQfa):
        return lambda w: mm_accept_prob(a, w)
    if isinstance(a, Rblm):
        return lambda w: rblm_probability(a, w)
    a = _as_hybrid(a)
    if isinstance(a, Qfac):
        return lambda w: qfac_accept_prob(a, w)
    raise TypeError(f"no evaluator for {type(a).__name__}")
