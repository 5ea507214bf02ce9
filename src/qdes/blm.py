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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .linalg import dagger, direct_sum, tensor
from .models import (
    END_MARKER,
    Dfa,
    MmQfa,
    MoQfa,
    Qfac,
    Word,
    clamp_probability,
    dfa_accepts,
    mm_accept_prob,
    mo_accept_prob,
    qfac_accept_prob,
    qfac_from_dfa,
    qfac_from_mo,
    validate,
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


def blm_eval(b: Rblm, w: Sequence[str]) -> float:
    """Word function value ``eta @ M(w_m) ... M(w_1) @ pi``."""
    allowed = set(b.alphabet)
    v = np.asarray(b.pi, dtype=complex)
    for sym in w:
        if sym not in allowed:
            raise ValueError(f"symbol {sym!r} not in alphabet {sorted(allowed)}")
        v = b.matrices[sym] @ v
    val = complex(np.asarray(b.eta, dtype=complex) @ v)
    if b.real_valued and abs(val.imag) > REAL_TOL:
        raise ArithmeticError(f"machine marked real-valued but f({''.join(w)!r}) = {val!r}")
    return float(val.real)


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


def compile_qfac_to_rblm(m: Qfac) -> Rblm:
    """Compile a classical-hybrid automaton to a bilinear machine.

    One vec(rho) block per classical state (k * n^2 coordinates); the
    block of the current classical state holds the quantum density and
    all others are zero.  Reading a symbol routes each block through the
    conjugation by its state's unitary into the successor state's block.
    The final functional sums tr(P(s, acc) rho_s) over classical states.
    """
    problems = validate(m)
    if problems:
        raise ValueError("invalid automaton: " + "; ".join(problems))
    n = m.dim
    nn = n * n
    states = m.classical_states
    pos = {s: i * nn for i, s in enumerate(states)}
    dim = len(states) * nn

    matrices: dict[str, np.ndarray] = {}
    for sym in m.alphabet:
        t = np.zeros((dim, dim), dtype=complex)
        for s in states:
            src = pos[s]
            dst = pos[m.transitions[(s, sym)]]
            t[dst: dst + nn, src: src + nn] += _conjugation_map(
                np.asarray(m.unitaries[(s, sym)], dtype=complex)
            )
        matrices[sym] = t

    psi = np.asarray(m.initial_quantum, dtype=complex)
    pi = np.zeros(dim, dtype=complex)
    start = pos[m.initial_classical]
    pi[start: start + nn] = _vec(np.outer(psi, np.conj(psi)))

    eta = np.zeros(dim, dtype=complex)
    for s in states:
        eta[pos[s]: pos[s] + nn] = _trace_functional(m.accepting[s].as_matrix())

    return Rblm(m.alphabet, pi, matrices, eta)


def rblm_probability(b: Rblm, w: Sequence[str]) -> float:
    """Evaluate a compiled machine and clamp to [0, 1] like the direct evaluators."""
    return clamp_probability(blm_eval(b, w), f"(bilinear, word {''.join(w)!r})")


def to_rblm(a) -> Rblm:
    """The bilinear machine of any automaton kind; the one kind-to-machine map.

    Measure-once automata and DFAs go through their one-classical-state
    and trivial-quantum-part hybrid embeddings.
    """
    if isinstance(a, Rblm):
        return a
    if isinstance(a, MmQfa):
        return compile_mm_to_rblm(a)
    if isinstance(a, MoQfa):
        a = qfac_from_mo(a)
    elif isinstance(a, Dfa):
        a = qfac_from_dfa(a)
    if isinstance(a, Qfac):
        return compile_qfac_to_rblm(a)
    raise TypeError(f"no bilinear form for {type(a).__name__}")


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
