"""Equivalence decisions for bilinear machines and the automata they compile.

Two machines are equivalent when their word functions agree on every
word.  The decision procedure explores words breadth-first and keeps
the reached joint vectors ``(M1(x) pi1) ⊕ (M2(x) pi2)``; a word is
expanded only if its vector leaves the span of the vectors seen so far,
so at most ``n1 + n2`` expansions happen and termination is guaranteed.
A pair fails the moment some reached vector has a nonzero image under
the difference functional ``eta1 ⊕ -eta2``, and the offending word is
returned as a counterexample (shortest first, lexicographically least
among equals, because the queue is strict FIFO over length-then-lex
order).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .blm import Rblm, blm_eval, to_rblm
from .models import MmQfa, Qfac, Word, words_upto

#: Default decision tolerance; looser than evaluation tolerance because
#: spanned vectors accumulate error over up to n1+n2 insertions.
DEFAULT_EQUIV_TOL = 1e-7


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


def equiv_rblm(b1: Rblm, b2: Rblm, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Decide equivalence by the span-exploration procedure.

    Counterexamples are certified: re-evaluating both machines on the
    returned word reproduces a gap above ``tol``.
    """
    if b1.alphabet != b2.alphabet:
        raise ValueError("equivalence requires identical alphabets")
    alphabet = tuple(sorted(b1.alphabet))  # expansion order fixes the tie-break
    n1, n2 = b1.n, b2.n
    bound = n1 + n2 - 1

    eta_diff = np.concatenate([np.asarray(b1.eta, dtype=complex), -np.asarray(b2.eta, dtype=complex)])
    start = (np.asarray(b1.pi, dtype=complex).copy(), np.asarray(b2.pi, dtype=complex).copy())

    basis: list[np.ndarray] = []
    queue: deque[tuple[Word, tuple[np.ndarray, np.ndarray]]] = deque([((), start)])
    while queue:
        word, (v1, v2) = queue.popleft()
        joint = np.concatenate([v1, v2])

        gap = complex(eta_diff @ joint)
        if abs(gap) > tol:
            return EquivalenceVerdict(
                equivalent=False,
                counterexample=word,
                f1=blm_eval(b1, word) if b1.real_valued else None,
                f2=blm_eval(b2, word) if b2.real_valued else None,
                visited_dim=len(basis),
                word_bound=bound,
            )

        # Modified Gram-Schmidt residual decides span membership; the
        # second pass restores orthogonality lost to cancellation.
        residual = joint
        for _ in range(2):
            for q in basis:
                residual = residual - np.vdot(q, residual) * q
        rnorm = float(np.linalg.norm(residual))
        if rnorm > tol * max(1.0, float(np.linalg.norm(joint))):
            basis.append(residual / rnorm)
            for sym in alphabet:
                queue.append(
                    ((*word, sym), (b1.matrices[sym] @ v1, b2.matrices[sym] @ v2))
                )

    return EquivalenceVerdict(equivalent=True, visited_dim=len(basis), word_bound=bound)


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
    of enumerated words.
    """
    if b1.alphabet != b2.alphabet:
        raise ValueError("equivalence requires identical alphabets")
    alphabet = tuple(sorted(b1.alphabet))
    total = sum(len(alphabet) ** i for i in range(k + 1))
    if total > max_words:
        raise ValueError(f"would enumerate {total} words, above the cap {max_words}")
    for word in words_upto(alphabet, k):
        f1 = blm_eval(b1, word)
        f2 = blm_eval(b2, word)
        if abs(f1 - f2) > tol:
            return EquivalenceVerdict(
                equivalent=False,
                counterexample=word,
                f1=f1,
                f2=f2,
                word_bound=k,
            )
    return EquivalenceVerdict(equivalent=True, word_bound=k)


def equiv_mm_qfa(m1: MmQfa, m2: MmQfa, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Equivalence of two measure-many automata via compilation."""
    return equiv_rblm(to_rblm(m1), to_rblm(m2), tol)


def equiv_qfac(m1: Qfac, m2: Qfac, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Equivalence of two classical-hybrid automata via compilation."""
    return equiv_rblm(to_rblm(m1), to_rblm(m2), tol)
