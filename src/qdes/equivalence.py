"""Span exploration: equivalence decisions and minimization of bilinear machines.

``explore_span`` is the one kernel.  It explores words breadth-first
and keeps an orthonormal basis of the vectors they reach; a word is
expanded only if its vector leaves the span of the vectors seen so far,
so at most ``dim`` expansions happen and termination is guaranteed.

Two machines are equivalent when their word functions agree on every
word.  ``equiv_rblm`` runs the kernel on the joint vectors
``(M1(x) pi1) ⊕ (M2(x) pi2)``; a pair fails the moment some reached
vector has a nonzero image under the difference functional
``eta1 ⊕ -eta2``, and the offending word is returned as a counterexample
(shortest first, lexicographically least among equals, because the
queue is strict FIFO over length-then-lex order).  ``minimize`` runs it
forward from ``pi`` and backward from ``eta`` and projects the machine
onto the two spans; the controllability decision in ``supervisory``
runs it on a product state of the minimized machines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blm import Rblm, blm_eval, blm_levels, to_rblm
from .models import MmQfa, Qfac, Word, word_at

#: Default decision tolerance; looser than evaluation tolerance because
#: spanned vectors accumulate error over up to n1+n2 insertions.
DEFAULT_EQUIV_TOL = 1e-7

#: Residual, relative to max(1, |v|), above which ``minimize`` keeps a
#: reached vector as a new direction.  Far below DEFAULT_EQUIV_TOL, so a
#: dropped direction moves no word function value by a decidable amount.
MINIMIZE_TOL = 1e-10


@dataclass(frozen=True)
class EquivalenceVerdict:
    """Outcome of an equivalence query.

    ``counterexample`` is present exactly when ``equivalent`` is false;
    ``f1``/``f2`` are the two word-function values there.  ``visited_dim``
    is the dimension of the explored vector space and ``word_bound`` the
    word-length bound sufficient for the decision, computed from actual
    state counts.
    """

    equivalent: bool
    counterexample: Word | None = None
    f1: float | None = None
    f2: float | None = None
    visited_dim: int = 0
    word_bound: int | None = None

    def __post_init__(self):
        if self.equivalent == (self.counterexample is not None):
            raise ValueError("counterexample must be present iff not equivalent")


def explore_span(
    start: np.ndarray,
    step: Callable[[np.ndarray, str], np.ndarray],
    alphabet: Sequence[str],
    tol: float,
    functional: np.ndarray | None = None,
) -> tuple[np.ndarray, Word | None]:
    """Breadth-first exploration of span{x(w)}: the one span kernel.

    ``x(()) = start`` and ``x(w a) = step(x(w), a)``.  Words are popped in
    shortlex order (``alphabet`` gives the order of the symbols); a
    popped vector whose residual against the orthonormal basis exceeds
    ``tol * max(1, |x|)`` joins the basis and only then are its children
    queued, so at most ``len(start)`` words are expanded.  With a
    ``functional``, the exploration stops at the first popped word where
    ``|functional @ x(w)| > tol`` and returns it: that word is the
    shortlex-least one with a nonzero value, because every pruned vector
    is a combination of shortlex-smaller ones and the functional is
    linear.

    Returns the basis as orthonormal rows (``k x len(start)``) and the
    word found, or None.  The basis storage doubles as ``k`` grows
    instead of being allocated for ``len(start)`` rows up front, which
    would be square in the state dimension.
    """
    n = start.shape[0]
    basis = np.empty((min(n, 8), n), dtype=complex)
    k = 0
    # A queued word holds its parent's vector and its last symbol; the
    # child is computed when popped, so the queue keeps no extra vectors.
    queue: deque[tuple[Word, np.ndarray, str | None]] = deque([((), start, None)])
    while queue:
        word, parent, sym = queue.popleft()
        x = parent if sym is None else step(parent, sym)
        if functional is not None and abs(complex(functional @ x)) > tol:
            return basis[:k], word
        # Block classical Gram-Schmidt, applied twice to restore the
        # orthogonality lost to cancellation.
        q = basis[:k]
        residual = x - np.conj(q @ np.conj(x)) @ q
        residual = residual - np.conj(q @ np.conj(residual)) @ q
        rnorm = float(np.linalg.norm(residual))
        if rnorm > tol * max(1.0, float(np.linalg.norm(x))):
            if k == basis.shape[0]:
                grown = np.empty((min(n, 2 * k), n), dtype=complex)
                grown[:k] = basis
                basis = grown
            basis[k] = residual / rnorm
            k += 1
            queue.extend(((*word, a), x, a) for a in alphabet)
    return basis[:k], None


def equiv_rblm(b1: Rblm, b2: Rblm, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Decide equivalence by span exploration of the joint vectors.

    Counterexamples are certified: re-evaluating both machines on the
    returned word reproduces a gap above ``tol``.
    """
    if b1.alphabet != b2.alphabet:
        raise ValueError("equivalence requires identical alphabets")
    alphabet = tuple(sorted(b1.alphabet))  # expansion order fixes the tie-break
    n1, n2 = b1.n, b2.n
    bound = n1 + n2 - 1

    eta_diff = np.concatenate([np.asarray(b1.eta, dtype=complex), -np.asarray(b2.eta, dtype=complex)])
    start = np.concatenate([np.asarray(b1.pi, dtype=complex), np.asarray(b2.pi, dtype=complex)])

    def step(x: np.ndarray, a: str) -> np.ndarray:
        return np.concatenate([b1.matrices[a] @ x[:n1], b2.matrices[a] @ x[n1:]])

    basis, word = explore_span(start, step, alphabet, tol, eta_diff)
    if word is None:
        return EquivalenceVerdict(equivalent=True, visited_dim=len(basis), word_bound=bound)
    return EquivalenceVerdict(
        equivalent=False,
        counterexample=word,
        f1=blm_eval(b1, word) if b1.real_valued else None,
        f2=blm_eval(b2, word) if b2.real_valued else None,
        visited_dim=len(basis),
        word_bound=bound,
    )


def _reachable_part(b: Rblm) -> Rblm:
    """Forward reduction: restrict the machine to span{M(w) pi}.

    With Q the orthonormal basis of that span as columns, the machine
    (Q^H pi, Q^H M(a) Q, eta Q) has the same word function, because the
    span is invariant under every M(a) and Q Q^H fixes it.
    """
    rows, _ = explore_span(
        np.asarray(b.pi, dtype=complex), lambda x, a: b.matrices[a] @ x, tuple(sorted(b.alphabet)), MINIMIZE_TOL
    )
    q, qh = rows.T, np.conj(rows)
    return Rblm(
        b.alphabet, qh @ b.pi, {a: qh @ m @ q for a, m in b.matrices.items()}, np.asarray(b.eta) @ q, b.real_valued
    )


def _transpose(b: Rblm) -> Rblm:
    """The machine with pi and eta swapped and every matrix transposed: f(w) read backwards."""
    return Rblm(b.alphabet, np.asarray(b.eta), {a: m.T for a, m in b.matrices.items()}, np.asarray(b.pi), b.real_valued)


def minimize(b: Rblm) -> Rblm:
    """A minimal bilinear machine with the same word function.

    Schützenberger's reduction (Berstel and Reutenauer, *Noncommutative
    Rational Series*), in Tzeng's polynomial-time form: restrict to the
    forward-reachable span{M(w) pi}, then to the backward-reachable
    span{eta M(w)}, the latter as the forward reduction of the
    transposed machine.  Both restrictions are isometric projections,
    which keeps the result numerically tame (Kiefer, Murawski, Ouaknine,
    Wachter and Worrell, CAV 2011).  A machine whose word function is
    identically zero reduces to ``n = 0``.
    """
    return _transpose(_reachable_part(_transpose(_reachable_part(b))))


def k_equiv_bruteforce(
    b1: Rblm,
    b2: Rblm,
    k: int,
    tol: float = DEFAULT_EQUIV_TOL,
    max_words: int = 2_000_000,
) -> EquivalenceVerdict:
    """Exhaustively compare the word functions on every word of length <= k.

    This is the independent oracle for the span procedure; it guards
    against combinatorial blowup with a configurable cap on the number
    of enumerated words.  Both machines advance one frontier of state
    columns per word length (``blm_levels``); the counterexample is the
    shortlex-least word whose values differ by more than ``tol``, and
    ``f1``/``f2`` are ``blm_eval`` at it.
    """
    if b1.alphabet != b2.alphabet:
        raise ValueError("equivalence requires identical alphabets")
    alphabet = tuple(sorted(b1.alphabet))
    total = sum(len(alphabet) ** i for i in range(k + 1))
    if total > max_words:
        raise ValueError(f"would enumerate {total} words, above the cap {max_words}")
    for length, (f1, f2) in enumerate(zip(blm_levels(b1, alphabet, k), blm_levels(b2, alphabet, k))):
        far = np.flatnonzero(np.abs(f1 - f2) > tol)
        if far.size:
            word = word_at(alphabet, length, int(far[0]))
            return EquivalenceVerdict(False, word, blm_eval(b1, word), blm_eval(b2, word), word_bound=k)
    return EquivalenceVerdict(equivalent=True, word_bound=k)


def equiv_mm_qfa(m1: MmQfa, m2: MmQfa, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Equivalence of two measure-many automata via compilation."""
    return equiv_rblm(to_rblm(m1), to_rblm(m2), tol)


def equiv_qfac(m1: Qfac, m2: Qfac, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Equivalence of two classical-hybrid automata via compilation."""
    return equiv_rblm(to_rblm(m1), to_rblm(m2), tol)
