"""Span exploration: equivalence decisions and minimization of automata.

``explore_span`` is the one kernel, and every decision runs it on the
linear forms of ``blm.linear_form``: an initial vector, a final
functional and a step ``apply(a, X)``, so a hybrid automaton is explored
in operator form and never compiled to dense matrices.  Two automata are
equivalent when their word functions agree on every word: the kernel
explores the joint vectors ``x1(w) ⊕ x2(w)`` and stops at the
shortlex-least word with a nonzero value of ``eta1 ⊕ -eta2``, the
counterexample.  ``minimize`` explores forward from ``pi`` with the
step, projects onto that span, and reduces the small dense machine
backward from ``eta``; the controllability decision in ``supervisory``
explores a product state of two minimized machines.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blm import LinearForm, Rblm, blm_eval, blm_levels, evaluator, levels, linear_form
from .models import Levels, Word, _Checked, freeze, word_at

#: Default decision tolerance; looser than evaluation tolerance because
#: spanned vectors accumulate error over up to n1+n2 insertions.
DEFAULT_EQUIV_TOL = 1e-7

#: Residual, relative to max(1, |v|), above which ``minimize`` keeps a
#: reached vector as a new direction.  Far below DEFAULT_EQUIV_TOL, so a
#: dropped direction moves no word function value by a decidable amount.
MINIMIZE_TOL = 1e-10


def check_tol(tol: float) -> None:
    """Refuse a tolerance under which a decision is wrong: NaN passes every
    test, inf hides every gap, and zero or below counts an exact 0 as one."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"tolerance must be finite and positive, got {tol!r}")


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
    functionals: np.ndarray | None = None,
) -> tuple[np.ndarray, tuple[Word, int] | None]:
    """Breadth-first exploration of span{x(w)}: the one span kernel.

    ``x(()) = start`` and ``x(w a) = step(x(w), a)``.  Words are popped in
    shortlex order (``alphabet`` gives the order of the symbols); a
    popped vector whose residual against the orthonormal basis exceeds
    ``tol * max(1, |x|)`` joins the basis and only then are its children
    queued, so at most ``len(start)`` words are expanded.  With an
    (m, len(start)) array of ``functionals``, the exploration stops at
    the first popped word where some ``|row @ x(w)| > tol``, which is the
    shortlex-least word with a nonzero row value (every pruned vector is
    a combination of shortlex-smaller ones), and returns it with the
    lowest such row.  Here ``a`` and ``b`` move e0 to e1 and e2, and the
    rows read x[2] and x[1] + x[2]:

    >>> e = np.eye(3)
    >>> moves = {"a": np.outer(e[1], e[0]), "b": np.outer(e[2], e[0])}
    >>> rows = np.array([e[2], e[1] + e[2]])
    >>> explore_span(e[0], lambda x, a: moves[a] @ x, ("a", "b"), 1e-9, rows)[1]
    (('a',), 1)
    >>> explore_span(e[0], lambda x, a: moves[a] @ x, ("b", "a"), 1e-9, rows)[1]
    (('b',), 0)

    Returns the basis as orthonormal rows (``k x len(start)``) and the
    ``(word, row)`` found, or None.  The buffers double as ``k`` grows,
    rather than holding ``len(start)`` rows, square in the dimension.
    Their dtype follows the whole form: that of ``start`` and the rows,
    widened to complex by the first complex step inserted, so the real
    forms of automata run in float64 and nothing complex is cast to real.
    A tolerance that is not finite and positive is refused.
    """
    check_tol(tol)
    n = start.shape[0]
    rows = np.empty((0, n)) if functionals is None else np.asarray(functionals)
    m = rows.shape[0]
    # The rows above the conjugated basis rows, so one product gives the row
    # values and the projection coefficients: conj(q @ conj(x)) == conj(q) @ x.
    basis = np.empty((min(n, 8), n), dtype=np.result_type(start, rows, float))
    lead = np.concatenate([rows, np.empty_like(basis)])
    k = 0
    # A queued word holds its parent's vector and its last symbol; the
    # child is computed when popped, so the queue keeps no extra vectors.
    queue: deque[tuple[Word, np.ndarray, str | None]] = deque([((), start, None)])
    while queue:
        word, parent, sym = queue.popleft()
        x = parent if sym is None else step(parent, sym)
        p = lead[: m + k] @ x
        # A handful of rows: Python scalars test them faster than numpy calls.
        for row, value in enumerate(p[:m].tolist()):
            if abs(value) > tol:
                return basis[:k], (word, row)
        q = basis[:k]
        residual = x - p[m:] @ q
        bound = tol * max(1.0, math.sqrt(np.vdot(x, x).real))
        if math.sqrt(np.vdot(residual, residual).real) <= bound:
            continue
        # A second pass restores the orthogonality lost to cancellation; it
        # can only shrink the residual, so a pruned vector skips it.
        residual = residual - (lead[m: m + k] @ residual) @ q
        rnorm = math.sqrt(np.vdot(residual, residual).real)
        if rnorm > bound:
            if residual.dtype != basis.dtype:
                basis, lead = basis.astype(residual.dtype), lead.astype(residual.dtype)
            if k == basis.shape[0]:
                grow = np.empty((min(n, 2 * k) - k, n), dtype=basis.dtype)
                basis, lead = np.concatenate([basis, grow]), np.concatenate([lead, grow])
            basis[k] = residual / rnorm
            lead[m + k] = np.conj(basis[k])
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
    eta_diff = np.concatenate([b1.eta, -np.asarray(b2.eta)])
    start = np.concatenate([b1.pi, b2.pi])

    def step(x: np.ndarray, a: str) -> np.ndarray:
        return np.concatenate([b1.apply(a, x[:n1]), b2.apply(a, x[n1:])])

    basis, hit = explore_span(start, step, alphabet, tol, eta_diff[None])
    word = hit[0] if hit else None
    return EquivalenceVerdict(
        equivalent=word is None,
        counterexample=word,
        f1=None if word is None else blm_eval(b1, word),
        f2=None if word is None else blm_eval(b2, word),
        visited_dim=len(basis),
        word_bound=max(n1 + n2 - 1, 0),
    )


def _reachable_part(f: Rblm | LinearForm) -> Rblm:
    """Forward reduction: restrict the form to span{x(w)}.

    With Q the orthonormal basis of that span as columns, the machine
    (Q^H pi, Q^H apply(a, Q), eta Q) has the same word function, because
    the span is invariant under every step and Q Q^H fixes it.
    """
    rows, _ = explore_span(np.asarray(f.pi), lambda x, a: f.apply(a, x), tuple(sorted(f.alphabet)), MINIMIZE_TOL)
    q, qh = rows.T, np.conj(rows)
    return Rblm(f.alphabet, qh @ f.pi, {a: qh @ f.apply(a, q) for a in f.alphabet}, np.asarray(f.eta) @ q)


def _transpose(b: Rblm) -> Rblm:
    """The machine with pi and eta swapped and every matrix transposed: f(w) read backwards."""
    return Rblm(b.alphabet, np.asarray(b.eta), {a: m.T for a, m in b.matrices.items()}, np.asarray(b.pi))


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
    word function that is identically zero reduces to ``n = 0``.  An
    automaton keeps its minimal machine, computed once and read-only; a
    bilinear machine, which its caller may change, is reduced anew.
    """
    return a._memo(_minimal) if isinstance(a, _Checked) else _minimal(a)


def _minimal(a) -> Rblm:
    return freeze(_transpose(_reachable_part(_transpose(_reachable_part(linear_form(a))))), copy=False)


def k_equiv_bruteforce(
    a1,
    a2,
    k: int,
    tol: float = DEFAULT_EQUIV_TOL,
    max_words: int = 2_000_000,
) -> EquivalenceVerdict:
    """Exhaustively compare the word functions on every word of length <= k.

    This is the independent oracle for the span procedure; it guards
    against combinatorial blowup with a configurable cap on the number
    of enumerated words.  It takes two automata of any kind, or bilinear
    machines, mixed freely: an automaton's values come from the direct
    level evaluator ``blm.levels`` and its counterexample value from
    ``blm.evaluator``, so no compiled machine is formed; a bilinear
    machine keeps its raw, unclamped ``blm_levels`` and ``blm_eval``.
    The counterexample is the shortlex-least word whose values differ by
    more than ``tol``, and ``f1``/``f2`` are the values there.
    """
    check_tol(tol)
    if set(a1.alphabet) != set(a2.alphabet):
        raise ValueError("equivalence requires identical alphabets")
    alphabet = tuple(sorted(a1.alphabet))
    total = sum(len(alphabet) ** i for i in range(k + 1))
    if total > max_words:
        raise ValueError(f"would enumerate {total} words, above the cap {max_words}")
    (levels1, value1), (levels2, value2) = (_direct(a, alphabet, k) for a in (a1, a2))
    for length, (f1, f2) in enumerate(zip(levels1, levels2)):
        far = np.flatnonzero(np.abs(f1 - f2) > tol)
        if far.size:
            word = word_at(alphabet, length, int(far[0]))
            return EquivalenceVerdict(False, word, value1(word), value2(word), word_bound=k)
    return EquivalenceVerdict(equivalent=True, word_bound=k)


def _direct(a, alphabet: Sequence[str], horizon: int) -> tuple[Levels, Callable[[Word], float]]:
    """The oracle's level values and word value of ``a``: raw for a bilinear
    machine, the direct evaluators' for an automaton."""
    if isinstance(a, Rblm):
        return blm_levels(a, alphabet, horizon), lambda w: blm_eval(a, w)
    return levels(a, alphabet, horizon), evaluator(a)


def equiv(a1, a2, tol: float = DEFAULT_EQUIV_TOL) -> EquivalenceVerdict:
    """``equiv_rblm`` on the linear forms of two automata of any kind, or bilinear machines."""
    return equiv_rblm(linear_form(a1), linear_form(a2), tol)


#: The per-kind names of ``equiv``.
equiv_qfac = equiv_mm_qfa = equiv
