"""Bilinear machines: word functions, algebra, and compilers from QFA.

A bilinear machine carries an initial column vector ``pi``, one square
matrix per symbol, and a final row functional ``eta``; its word function
is ``f(w) = eta @ M(w_m) @ ... @ M(w_1) @ pi``.  Machines whose word
function is real on every word are flagged ``real_valued`` and the flag
is enforced at evaluation time.

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

from .linalg import dagger, direct_sum, tensor
from .models import (
    END_MARKER,
    Dfa,
    Levels,
    MmQfa,
    MoQfa,
    Qfac,
    Word,
    _check_symbols,
    check_horizon,
    clamp_level,
    clamp_probability,
    dfa_accepts,
    mm_accept_prob,
    mm_levels,
    mo_accept_prob,
    qfac_accept_prob,
    qfac_from_dfa,
    qfac_from_mo,
    qfac_levels,
    validate,
    word_at,
)

#: Imaginary mass above this is an error for real-valued machines.
REAL_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class Rblm:
    """Bilinear machine with (optionally) real-valued word function.

    ``pi`` is a column vector and ``eta`` a row functional, so words
    apply right-to-left: the first symbol read multiplies ``pi`` first.
    Entries may be complex even when the word function is real.
    """

    alphabet: tuple[str, ...]
    pi: np.ndarray
    matrices: Mapping[str, np.ndarray]
    eta: np.ndarray
    real_valued: bool = True

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
    real_valued: bool = True

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
    if b.real_valued and abs(val.imag) > REAL_TOL:
        raise ArithmeticError(f"machine marked real-valued but f({''.join(w)!r}) = {val!r}")
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
        bad = np.flatnonzero(np.abs(vals.imag) > REAL_TOL) if b.real_valued else ()
        if len(bad):
            w = "".join(word_at(alphabet, length, int(bad[0])))
            raise ArithmeticError(f"machine marked real-valued but f({w!r}) = {complex(vals[bad[0]])!r}")
        yield vals.real


def blm_tensor(b1: Rblm, b2: Rblm) -> Rblm:
    """Product machine: f(w) = f1(w) * f2(w), state count n1*n2."""
    if b1.alphabet != b2.alphabet:
        raise ValueError("tensor requires identical alphabets")
    return Rblm(
        alphabet=b1.alphabet,
        pi=tensor(b1.pi, b2.pi),
        matrices={a: tensor(b1.matrices[a], b2.matrices[a]) for a in b1.alphabet},
        eta=tensor(b1.eta, b2.eta),
        real_valued=b1.real_valued and b2.real_valued,
    )


def blm_direct_sum(b1: Rblm, b2: Rblm) -> Rblm:
    """Sum machine: f(w) = f1(w) + f2(w), state count n1+n2."""
    if b1.alphabet != b2.alphabet:
        raise ValueError("direct sum requires identical alphabets")
    return Rblm(
        alphabet=b1.alphabet,
        pi=direct_sum(b1.pi, b2.pi),
        matrices={a: direct_sum(b1.matrices[a], b2.matrices[a]) for a in b1.alphabet},
        eta=direct_sum(b1.eta, b2.eta),
        real_valued=b1.real_valued and b2.real_valued,
    )


def negate_final(b: Rblm) -> Rblm:
    """Flip the sign of the final functional, negating the word function."""
    return Rblm(b.alphabet, b.pi, dict(b.matrices), -np.asarray(b.eta), b.real_valued)


def absorb_symbol(b: Rblm, tau: str, keep_symbol: bool = False) -> Rblm:
    """Fold one trailing symbol into the final functional.

    The result satisfies ``f'(w) = f(w tau)`` with the same state count;
    ``eta`` becomes ``eta @ M(tau)``.  By default ``tau`` is removed
    from the result's alphabet; with ``keep_symbol`` it stays readable,
    which the controllability reduction needs when ``tau`` is an
    ordinary event rather than a dedicated end marker.
    """
    if tau not in b.alphabet:
        raise ValueError(f"symbol {tau!r} not in alphabet")
    alphabet = b.alphabet if keep_symbol else tuple(a for a in b.alphabet if a != tau)
    matrices = {a: b.matrices[a] for a in alphabet}
    return Rblm(alphabet, b.pi, matrices, np.asarray(b.eta) @ b.matrices[tau], b.real_valued)


def _vec(rho: np.ndarray) -> np.ndarray:
    """Row-major vectorization; vec(A X B) = (A kron B^T) vec(X)."""
    return rho.reshape(-1)


def _conjugation_map(g: np.ndarray) -> np.ndarray:
    """Matrix sending vec(rho) to vec(G rho G†)."""
    return np.kron(g, np.conj(g))


def _trace_functional(a: np.ndarray) -> np.ndarray:
    """Row vector t with t @ vec(rho) = tr(A rho)."""
    return _vec(a.T)


def compile_mm_to_rblm(m: MmQfa) -> Rblm:
    """Compile a measure-many automaton to a bilinear machine over its input alphabet.

    The machine state is vec(rho) of the surviving (going) component
    plus one accumulator coordinate for accept mass already gathered, so
    the state count is n^2 + 1.  Reading a symbol conjugates rho by
    P(go) U(sigma) and adds tr(P(acc) U rho U†) to the accumulator; the
    end marker is folded into the final functional.
    """
    problems = validate(m)
    if problems:
        raise ValueError("invalid automaton: " + "; ".join(problems))
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
    pi[: n * n] = _vec(np.outer(psi, np.conj(psi)))

    eta = np.zeros(dim, dtype=complex)
    eta[n * n] = 1.0

    working = Rblm((*m.alphabet, END_MARKER), pi, matrices, eta)
    return absorb_symbol(working, END_MARKER)


def _qfac_vectors(m: Qfac) -> tuple[np.ndarray, np.ndarray]:
    """Validate a hybrid automaton and give its machine's ``pi`` and ``eta``,
    one vec(rho) block per classical state."""
    problems = validate(m)
    if problems:
        raise ValueError("invalid automaton: " + "; ".join(problems))
    psi = np.asarray(m.initial_quantum, dtype=complex)
    pi = np.zeros((len(m.classical_states), m.dim * m.dim), dtype=complex)
    pi[m.classical_states.index(m.initial_classical)] = _vec(np.outer(psi, np.conj(psi)))
    eta = np.array([_trace_functional(m.accepting[s].as_matrix()) for s in m.classical_states]).ravel()
    return pi.ravel(), eta


def _qfac_form(m: Qfac) -> LinearForm:
    """The operator form of ``compile_qfac_to_rblm``: the same vectors, and a
    step that conjugates each classical block by its own unitary.

    A block of r columns is read as k x r density matrices; reading a
    symbol maps rho_s to U(s, a) rho_s U(s, a)^dagger, in one batched
    product per side, and sums the results into the blocks of their
    successor states with a k x k 0/1 routing matrix.  A step costs
    O(k d^3 + k^2 d^2) per column instead of the compiled O(k^2 d^4).
    """
    pi, eta = _qfac_vectors(m)
    d, states = m.dim, m.classical_states
    k = len(states)
    index = {s: i for i, s in enumerate(states)}
    steps = {}
    for a in m.alphabet:
        u = np.array([m.unitaries[(s, a)] for s in states], dtype=complex)
        route = np.zeros((k, k), dtype=complex)
        route[[index[m.transitions[(s, a)]] for s in states], range(k)] = 1.0
        steps[a] = u[:, None], np.conj(u).transpose(0, 2, 1)[:, None], route

    def apply(a: str, x: np.ndarray) -> np.ndarray:
        u, uh, route = steps[a]
        rho = x.reshape(k, d, d, -1).transpose(0, 3, 1, 2)
        moved = (u @ rho @ uh).transpose(0, 2, 3, 1).reshape(k, -1)
        return (route @ moved).reshape(x.shape)

    return LinearForm(m.alphabet, pi, apply, eta)


def compile_qfac_to_rblm(m: Qfac) -> Rblm:
    """Compile a classical-hybrid automaton to a bilinear machine.

    One vec(rho) block per classical state (k * n^2 coordinates); the
    block of the current classical state holds the quantum density and
    all others are zero.  Reading a symbol routes each block through the
    conjugation by its state's unitary into the successor state's block.
    The final functional sums tr(P(s, acc) rho_s) over classical states.
    Assembled from Kronecker blocks rather than from ``_qfac_form``'s
    step on the identity, which takes several times longer.
    """
    pi, eta = _qfac_vectors(m)
    nn = m.dim * m.dim
    pos = {s: i * nn for i, s in enumerate(m.classical_states)}
    matrices: dict[str, np.ndarray] = {}
    for sym in m.alphabet:
        t = np.zeros((pi.size, pi.size), dtype=complex)
        for s in m.classical_states:
            src = pos[s]
            dst = pos[m.transitions[(s, sym)]]
            t[dst: dst + nn, src: src + nn] += _conjugation_map(
                np.asarray(m.unitaries[(s, sym)], dtype=complex)
            )
        matrices[sym] = t
    return Rblm(m.alphabet, pi, matrices, eta)


def rblm_probability(b: Rblm, w: Sequence[str]) -> float:
    """Evaluate a compiled machine and clamp to [0, 1] like the direct evaluators."""
    return clamp_probability(blm_eval(b, w), f"(bilinear, word {''.join(w)!r})")


def _as_hybrid(a):
    """Measure-once automata and DFAs as their hybrid embeddings; other kinds as they are."""
    if isinstance(a, MoQfa):
        return qfac_from_mo(a)
    if isinstance(a, Dfa):
        return qfac_from_dfa(a)
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
    never form a compiled matrix.  Validation, ``pi`` and ``eta`` are
    those of the compilers.
    """
    if isinstance(a, (Rblm, MmQfa)):
        return to_rblm(a)
    a = _as_hybrid(a)
    if isinstance(a, Qfac):
        return _qfac_form(a)
    raise TypeError(f"no bilinear form for {type(a).__name__}")


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
