"""Span exploration: equivalence decisions and minimization of automata.

``explore_span`` is the one kernel.  It explores words breadth-first
and keeps an orthonormal basis of the vectors they reach; a word is
expanded only if its vector leaves the span of the vectors seen so far,
so at most ``dim`` expansions happen and termination is guaranteed.

Every decision runs on the linear forms of ``blm.linear_form``: an
initial vector, a final functional and a step ``apply(a, X)``, so a
hybrid automaton is explored in operator form and never compiled to
dense matrices.  Two automata are equivalent when their word functions
agree on every word.  The equivalence kernel explores the joint vectors
``x1(w) ⊕ x2(w)``; a pair fails the moment some reached vector has a
nonzero image under the difference functional ``eta1 ⊕ -eta2``, and the
offending word is returned as a counterexample (shortest first,
lexicographically least among equals, because the queue is strict FIFO
over length-then-lex order).  ``minimize`` explores forward from ``pi``
with the step, projects onto that span, and reduces the small dense
machine backward from ``eta``; the controllability decision in
``supervisory`` explores a product state of two minimized machines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blm import LinearForm, Rblm, blm_eval, blm_levels, linear_form
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
    # The basis rows and their conjugates, which project a vector onto the
    # span with one product: conj(q @ conj(x)) == conj(q) @ x.
    basis = np.empty((min(n, 8), n), dtype=complex)
    conj = np.empty_like(basis)
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
        q, qc = basis[:k], conj[:k]
        residual = x - (qc @ x) @ q
        residual = residual - (qc @ residual) @ q
        rnorm = np.sqrt(np.vdot(residual, residual).real)
        if rnorm > tol * max(1.0, np.sqrt(np.vdot(x, x).real)):
            if k == basis.shape[0]:
                grow = np.empty((min(n, 2 * k) - k, n), dtype=complex)
                basis, conj = np.concatenate([basis, grow]), np.concatenate([conj, grow])
            basis[k] = residual / rnorm
            conj[k] = np.conj(basis[k])
            k += 1
            queue.extend(((*word, a), x, a) for a in alphabet)
    return basis[:k], None


def equiv_rblm(b1: Rblm | LinearForm, b2: Rblm | LinearForm, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Decide equivalence of two bilinear machines, or linear forms, by span
    exploration of the joint vectors.

    Counterexamples are certified: re-evaluating both forms on the
    returned word reproduces a gap above ``tol``.
    """
    if set(b1.alphabet) != set(b2.alphabet):
        raise ValueError("equivalence requires identical alphabets")
    alphabet = tuple(sorted(b1.alphabet))  # expansion order fixes the tie-break
    n1, n2 = b1.n, b2.n
    eta_diff = np.concatenate([np.asarray(b1.eta, dtype=complex), -np.asarray(b2.eta, dtype=complex)])
    start = np.concatenate([np.asarray(b1.pi, dtype=complex), np.asarray(b2.pi, dtype=complex)])

    def step(x: np.ndarray, a: str) -> np.ndarray:
        return np.concatenate([b1.apply(a, x[:n1]), b2.apply(a, x[n1:])])

    basis, word = explore_span(start, step, alphabet, tol, eta_diff)
    return EquivalenceVerdict(
        equivalent=word is None,
        counterexample=word,
        f1=blm_eval(b1, word) if word is not None and b1.real_valued else None,
        f2=blm_eval(b2, word) if word is not None and b2.real_valued else None,
        visited_dim=len(basis),
        word_bound=n1 + n2 - 1,
    )


def _reachable_part(f: Rblm | LinearForm) -> Rblm:
    """Forward reduction: restrict the form to span{x(w)}.

    With Q the orthonormal basis of that span as columns, the machine
    (Q^H pi, Q^H apply(a, Q), eta Q) has the same word function, because
    the span is invariant under every step and Q Q^H fixes it.
    """
    rows, _ = explore_span(
        np.asarray(f.pi, dtype=complex), lambda x, a: f.apply(a, x), tuple(sorted(f.alphabet)), MINIMIZE_TOL
    )
    q, qh = rows.T, np.conj(rows)
    return Rblm(
        f.alphabet, qh @ f.pi, {a: qh @ f.apply(a, q) for a in f.alphabet}, np.asarray(f.eta) @ q, f.real_valued
    )


def _transpose(b: Rblm) -> Rblm:
    """The machine with pi and eta swapped and every matrix transposed: f(w) read backwards."""
    return Rblm(b.alphabet, np.asarray(b.eta), {a: m.T for a, m in b.matrices.items()}, np.asarray(b.pi), b.real_valued)


def minimize(a) -> Rblm:
    """A minimal bilinear machine with the word function of any automaton kind.

    Schützenberger's reduction (Berstel and Reutenauer, *Noncommutative
    Rational Series*), in Tzeng's polynomial-time form: restrict the
    linear form of ``blm.linear_form`` to the forward-reachable
    span{x(w)}, with one block step per symbol, then the small dense
    machine to its backward-reachable span{eta M(w)}, the latter as the
    forward reduction of the transposed machine.  Both restrictions are
    isometric projections, which keeps the result numerically tame
    (Kiefer, Murawski, Ouaknine, Wachter and Worrell, CAV 2011).  A
    word function that is identically zero reduces to ``n = 0``.
    """
    return _transpose(_reachable_part(_transpose(_reachable_part(linear_form(a)))))


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
    if set(b1.alphabet) != set(b2.alphabet):
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
    """Equivalence of two measure-many automata on their compiled machines."""
    return equiv_rblm(linear_form(m1), linear_form(m2), tol)


def equiv_qfac(m1: Qfac, m2: Qfac, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """Equivalence of two classical-hybrid automata, in operator form."""
    return equiv_rblm(linear_form(m1), linear_form(m2), tol)
