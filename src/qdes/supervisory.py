"""Quantum languages, supervisors, closed loops, and controllability.

A quantum language maps words to probabilities in [0, 1].  A supervisor
assigns every history an enablement degree per event; the controlled
(closed-loop) language follows the min-recursion

    L(empty) = 1,   L(s sigma) = min(L(s), plant(s sigma), S(s)(sigma))

which makes the closed loop monotone non-increasing along prefixes and
pointwise dominated by the plant, both exactly (min of floats).

Controllability of a target against a plant -- min(target(s), ...) never
exceeding the target one step later on uncontrollable events -- is
checked two ways: an exhaustive horizon-bounded sweep (the oracle) and
an exact decision over all words.  A target that is its plant
restricted to a regular language, the usual shape of a specification,
is decided from the classical transitions alone (Ramadge and Wonham's
condition: no uncontrollable event leaves the language).  Any other
target, and a restriction that an uncontrollable event does leave, goes
through the algebraic route, which turns the min-inequality into one
product of word functions of the minimized target and plant that must
vanish, and decides it with the span-exploration kernel.

The horizon sweeps read ``QuantumLanguage.levels``, one value array per
word length: a few matrix products per length for an automaton, one call
per word otherwise.  To horizon h they read |Sigma|^(h+1) values per
length-(h+1) level; the marking conditions read K to length 2h+1 and
take pr(K) from its levels by a row-max recursion.  A supervisor's
``enablement_levels`` and ``ClosedLoop.levels`` put the closed loop on
the same frontier, so ``check_admissible`` and ``check_nonblocking``
compare whole levels too, and fall back to per-word evaluation only at
the few histories the levels do not settle with a margin.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate, islice, pairwise, product, tee
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

from .blm import evaluator, levels
from .equivalence import DEFAULT_EQUIV_TOL, check_tol, explore_span, minimize
from .models import (
    Levels,
    Qfac,
    Word,
    _as_hybrid,
    _reachable,
    check_horizon,
    clamp_probability,
    prefix_maxima,
    word_at,
    words_upto,
)


#: Margin by which a level comparison must clear its threshold before the
#: closed-loop sweeps accept it without the per-word evaluators; far above
#: the rounding gap between level and per-word values.
LEVEL_MARGIN = 1e-10

#: Slack by which a horizon sweep's comparison must fail before it counts
#: as a violation, far above the rounding error of the values it compares.
SWEEP_TOL = 1e-9


class QuantumLanguage:
    """Total map from words to [0, 1], memoized, clamped at the boundary.

    ``level_fn``, if given, is a batched evaluator with the contract of
    ``blm.levels``; without it ``levels`` calls the language per word.
    """

    def __init__(self, fn: Callable[[Word], float], alphabet: Sequence[str], description: str = "",
                 level_fn: Callable[[Sequence[str], int], Levels] | None = None):
        self._fn = fn
        self.alphabet = tuple(alphabet)
        self.description = description
        self._cache: dict[Word, float] = {}
        self._level_fn = level_fn

    def __call__(self, w: Sequence[str]) -> float:
        key = tuple(w)
        if key not in self._cache:
            self._cache[key] = clamp_probability(float(self._fn(key)), self.description)
        return self._cache[key]

    def levels(self, alphabet: Sequence[str], horizon: int) -> Levels:
        """Every word's value up to the horizon, one array per length, in ``words_upto`` order."""
        check_horizon(horizon)
        if self._level_fn is not None:
            return self._level_fn(alphabet, horizon)
        return (np.array([self(w) for w in product(alphabet, repeat=n)]) for n in range(horizon + 1))

    def __repr__(self):
        return f"QuantumLanguage({self.description or 'anonymous'})"

    @classmethod
    def from_automaton(cls, automaton) -> "QuantumLanguage":
        return cls(evaluator(automaton), automaton.alphabet, type(automaton).__name__, partial(levels, automaton))

    @classmethod
    def from_table(cls, table: Mapping[Word, float], alphabet: Sequence[str]) -> "QuantumLanguage":
        data = {tuple(k): float(v) for k, v in table.items()}

        def fn(w: Word) -> float:
            if w not in data:
                raise KeyError(f"word {w!r} beyond the table horizon")
            return data[w]

        return cls(fn, alphabet, "table")


def check_cutpoint(cutpoint: float, radius: float | None = None) -> None:
    """Refuse a cut-point outside [0, 1), and an isolation radius, if given,
    that is not positive: a negative cut-point counts a zero value as a
    member, and no probability lies above a cut-point of 1 or more."""
    if not (0.0 <= cutpoint < 1.0):
        raise ValueError("cut-point must lie in [0, 1)")
    if radius is not None and not radius > 0.0:
        raise ValueError("isolation radius must be positive")


@dataclass(frozen=True)
class ControlSpec:
    """Event partition plus the cut-point parameters of the control problem.

    ``cutpoint`` is the lower cut-point (lambda), ``isolation`` the
    optional isolation radius (rho), ``upper_cutpoint`` the optional
    upper cut-point (mu) used by the approximate-control guarantee.
    """

    alphabet: tuple[str, ...]
    controllable: frozenset[str]
    uncontrollable: frozenset[str]
    cutpoint: float = 0.0
    isolation: float | None = None
    upper_cutpoint: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "alphabet", tuple(self.alphabet))
        if len(set(self.alphabet)) != len(self.alphabet):
            raise ValueError(f"alphabet symbols must be distinct, got {self.alphabet}")
        object.__setattr__(self, "controllable", frozenset(self.controllable))
        object.__setattr__(self, "uncontrollable", frozenset(self.uncontrollable))
        if self.controllable & self.uncontrollable:
            raise ValueError("controllable and uncontrollable events must be disjoint")
        if self.controllable | self.uncontrollable != set(self.alphabet):
            raise ValueError("event partition must cover the alphabet exactly")
        check_cutpoint(self.cutpoint, self.isolation)
        if self.isolation is not None and self.cutpoint + self.isolation > 1.0:
            raise ValueError("cut-point plus isolation radius may not exceed 1")
        if self.upper_cutpoint is not None and self.upper_cutpoint < self.cutpoint:
            raise ValueError("upper cut-point must dominate the cut-point")


@dataclass
class SupervisorPolicy:
    """The constructive feedback policy: pass the plant through on
    uncontrollable events, the target on controllable ones.

    ``enablement(s, sigma)`` is the degree to which sigma stays enabled
    after history s.  Admissibility on uncontrollable events holds by
    construction (equality with the plant)."""

    plant: QuantumLanguage
    target: QuantumLanguage
    spec: ControlSpec

    def enablement(self, s: Sequence[str], sigma: str) -> float:
        w = (*tuple(s), sigma)
        if sigma in self.spec.uncontrollable:
            return self.plant(w)
        if sigma in self.spec.controllable:
            return self.target(w)
        raise ValueError(f"event {sigma!r} outside the alphabet")

    def enablement_levels(self, alphabet: Sequence[str], horizon: int) -> Levels:
        """``enablement`` after every history up to the horizon: per length L an
        |Sigma|^L x |Sigma| array whose column j holds ``alphabet[j]``'s
        enablement after each history, in ``words_upto`` order."""
        check_horizon(horizon)
        _check_events(alphabet, self.spec)
        return self._enablement_levels(alphabet, horizon, self.plant.levels(alphabet, horizon + 1))

    def _enablement_levels(self, alphabet: Sequence[str], horizon: int, plant: Levels) -> Levels:
        """``enablement_levels`` reading ``plant``, a pass of the plant's levels
        over ``alphabet`` from length 0 to horizon + 1."""
        k = len(alphabet)
        plant_side = np.array([a in self.spec.uncontrollable for a in alphabet])
        target = self.target.levels(alphabet, horizon + 1)
        next(plant), next(target)
        return (np.where(plant_side, p.reshape(-1, k), t.reshape(-1, k)) for p, t in zip(plant, target))


@dataclass
class CustomSupervisor:
    """Free-form supervisor for experiments: any enablement function."""

    plant: QuantumLanguage
    spec: ControlSpec
    fn: Callable[[Word, str], float]

    def enablement(self, s: Sequence[str], sigma: str) -> float:
        if sigma not in self.spec.alphabet:
            raise ValueError(f"event {sigma!r} outside the alphabet")
        return float(self.fn(tuple(s), sigma))

    def enablement_levels(self, alphabet: Sequence[str], horizon: int) -> Levels:
        """As ``SupervisorPolicy.enablement_levels``, one ``enablement`` call per entry."""
        check_horizon(horizon)
        _check_events(alphabet, self.spec)
        return (np.array([[self.enablement(s, a) for a in alphabet] for s in product(alphabet, repeat=n)])
                for n in range(horizon + 1))


def _check_events(alphabet: Sequence[str], spec: ControlSpec) -> None:
    for a in alphabet:
        if a not in spec.alphabet:
            raise ValueError(f"event {a!r} outside the alphabet")


def _plant_steps(supervisor, alphabet: Sequence[str], horizon: int, plant: Levels) -> Iterator[tuple]:
    """(plant level L + 1, enablement level L) for L = 0 ... horizon, from
    ``plant``, one pass of the plant's levels over ``alphabet``.  A
    ``SupervisorPolicy`` takes its enablement's plant side from the same
    pass; other supervisors do not read the plant's levels."""
    if isinstance(supervisor, SupervisorPolicy):
        _check_events(alphabet, supervisor.spec)
        plant, shared = tee(plant)
        enablement = supervisor._enablement_levels(alphabet, horizon, shared)
    else:
        enablement = supervisor.enablement_levels(alphabet, horizon)
    return zip(islice(plant, 1, None), enablement)


def synthesize_supervisor(
    plant: QuantumLanguage, target: QuantumLanguage, spec: ControlSpec
) -> SupervisorPolicy:
    """Build the two-case feedback policy; conditions are checked separately."""
    if set(plant.alphabet) != set(spec.alphabet) or set(target.alphabet) != set(spec.alphabet):
        raise ValueError("plant, target, and control spec must share an alphabet")
    return SupervisorPolicy(plant=plant, target=target, spec=spec)


class ClosedLoop:
    """Controlled system: memoized min-recursion over histories.

    The memo is the only mutable state; use one instance per thread or
    guard it externally.  It is prefix-closed: ``value`` memoizes every
    prefix of a history, shortest first.
    """

    def __init__(self, supervisor):
        self.supervisor = supervisor
        self._memo: dict[Word, float] = {(): 1.0}

    def value(self, s: Sequence[str]) -> float:
        """The min-recursion at ``s``, resumed from its longest memoized prefix."""
        s = tuple(s)
        if s in self._memo:
            return self._memo[s]
        start = len(s) - 1
        while s[:start] not in self._memo:
            start -= 1
        acc = self._memo[s[:start]]
        for i in range(start, len(s)):
            prefix = s[: i + 1]
            acc = min(
                acc,
                self.supervisor.plant(prefix),
                self.supervisor.enablement(s[:i], s[i]),
            )
            self._memo[prefix] = acc
        return acc

    def levels(self, horizon: int) -> Levels:
        """``value`` of every history up to the horizon, one array per length,
        in ``words_upto`` order over the plant's alphabet.

        The min-recursion on whole levels: cl_0 = [1] and cl_(L+1) =
        min(cl_L(s), plant(s a), enablement(s, a)) for every history s and
        event a, row s and column a of a |Sigma|^L x |Sigma| array.

        >>> plant = QuantumLanguage.from_table(
        ...     {(): 1.0, ("a",): 0.9, ("b",): 0.6, ("a", "a"): 0.8, ("a", "b"): 0.2,
        ...      ("b", "a"): 0.5, ("b", "b"): 0.6}, ("a", "b"))
        >>> spec = ControlSpec(("a", "b"), frozenset({"b"}), frozenset({"a"}))
        >>> loop = ClosedLoop(CustomSupervisor(plant, spec, lambda s, e: 0.7 if e == "a" else 0.4))
        >>> [level.tolist() for level in loop.levels(2)]
        [[1.0], [0.7, 0.4], [0.7, 0.2, 0.4, 0.4]]
        """
        check_horizon(horizon)
        return self._levels(horizon, self.supervisor.plant.levels(self.supervisor.plant.alphabet, horizon))

    def _levels(self, horizon: int, plant: Levels) -> Levels:
        """``levels`` reading ``plant``, a pass of the plant's levels over its
        alphabet from length 0 to the horizon."""
        steps = _plant_steps(self.supervisor, self.supervisor.plant.alphabet, max(horizon - 1, 0), plant)

        def step(cl: np.ndarray, pe: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
            p, en = pe
            return np.minimum(np.minimum(cl[:, None], p.reshape(cl.size, -1)), en).ravel()

        return accumulate(steps, step, initial=np.ones(1))

    def language(self) -> QuantumLanguage:
        return QuantumLanguage(self.value, self.supervisor.plant.alphabet, "closed-loop")


class CutpointAmbiguityError(ArithmeticError):
    """A value fell inside the numerical ambiguity band around the cut-point."""


def cutpoint_member(
    L: QuantumLanguage, w: Sequence[str], cutpoint: float, ambiguous_tol: float | None = None
) -> bool:
    """Strict cut-point membership: value strictly above the cut-point.

    With ``ambiguous_tol`` set, values within that distance of the
    cut-point raise instead of being silently classified.
    """
    check_cutpoint(cutpoint)
    v = L(w)
    if ambiguous_tol is not None and abs(v - cutpoint) <= ambiguous_tol:
        raise CutpointAmbiguityError(f"value {v} within {ambiguous_tol} of cut-point {cutpoint}")
    return v > cutpoint


class IsolationResult(enum.Enum):
    IN = "in"
    OUT = "out"
    VIOLATION = "violation"


def isolated_classify(L: QuantumLanguage, w: Sequence[str], cutpoint: float, radius: float) -> IsolationResult:
    """Classify against an isolated cut-point; the open band in between is a violation."""
    check_cutpoint(cutpoint, radius)
    v = L(w)
    if v >= cutpoint + radius:
        return IsolationResult.IN
    if v <= cutpoint - radius:
        return IsolationResult.OUT
    return IsolationResult.VIOLATION


def prefix_sup(K: QuantumLanguage, s: Sequence[str], horizon: int) -> float:
    """Max of K over all extensions of s up to the horizon.

    A lower bound on the true prefix-closure value, which ranges over
    unboundedly long extensions; exact whenever K is monotone
    non-increasing (every stock fixture is).
    """
    s = tuple(s)
    return max(K(s + t) for t in words_upto(K.alphabet, horizon))


@dataclass(frozen=True)
class AdmissibilityViolation:
    word: Word
    symbol: str
    feasible: float
    enabled: float


def check_admissible(supervisor, horizon: int) -> list[AdmissibilityViolation]:
    """List the (history, event) pairs where an uncontrollable event is
    enabled below the plant's feasibility, in history order, then in
    sorted event order, with slack ``SWEEP_TOL``.

    Compares plant level L+1 with the supervisor's enablement level L,
    both from one pass of the plant's levels.  Pairs within
    ``LEVEL_MARGIN`` of failing are re-decided, and every violation's
    ``feasible`` and ``enabled`` recomputed, with the per-word calls.
    """
    check_horizon(horizon)
    plant, spec = supervisor.plant, supervisor.spec
    alphabet, k = spec.alphabet, len(spec.alphabet)
    events = sorted(spec.uncontrollable)
    cols = [alphabet.index(e) for e in events]
    out = []
    frontier = _plant_steps(supervisor, alphabet, horizon, plant.levels(alphabet, horizon + 1))
    for length, (p, en) in enumerate(frontier):
        near = p.reshape(-1, k)[:, cols] > en[:, cols] + SWEEP_TOL - LEVEL_MARGIN
        for i, e in np.argwhere(near):
            s = word_at(alphabet, length, int(i))
            f, g = plant((*s, events[e])), supervisor.enablement(s, events[e])
            if f > g + SWEEP_TOL:
                out.append(AdmissibilityViolation(s, events[e], f, g))
    return out


#: What a verdict of the algebraic route rests on, for a target that is
#: not its plant restricted to a language: the reduction's preconditions.
REDUCTION_PRECONDITIONS = (
    "target monotone along uncontrollable events",
    "target at most the plant after uncontrollable events",
)


@dataclass(frozen=True)
class ControllabilityResult:
    """Outcome of a controllability check; the witness fields are set on failure.

    ``confirmed`` is set by ``decide_controllability`` on a failure:
    whether the direct evaluators find ``lhs - rhs > tol``, so that the
    witness breaks the inequality as stated.  It is None when the check
    holds and on the oracle's results.  ``assumes`` lists what the
    verdict rests on: empty for a target that restricts its plant to a
    language, the ``REDUCTION_PRECONDITIONS`` for any other target of
    the decision, and empty on the oracle's results.  Results compare
    without either, so a decision equals the oracle's result on the
    same witness.
    """

    holds: bool
    word: Word | None = None
    symbol: str | None = None
    lhs: float | None = None
    rhs: float | None = None
    confirmed: bool | None = field(default=None, compare=False)
    assumes: tuple[str, ...] = field(default=(), compare=False)


def check_controllability_exhaustive(target: QuantumLanguage, plant: QuantumLanguage, spec: ControlSpec,
                                     horizon: int) -> ControllabilityResult:
    """Sweep min(target(s), plant(s sigma)) <= target(s sigma) + SWEEP_TOL over the horizon.

    The bounded-horizon oracle for the algebraic decision; shortest
    counterexamples are found first.  The witness's ``lhs`` and ``rhs``
    come from the per-word evaluators.
    """
    check_horizon(horizon)
    hit = _first_gap(target.levels(spec.alphabet, horizon + 1), plant.levels(spec.alphabet, horizon + 1), spec)
    if hit is None:
        return ControllabilityResult(True)
    s, sigma = hit
    ext = (*s, sigma)
    return ControllabilityResult(False, s, sigma, min(target(s), plant(ext)), target(ext))


def _extensions(upper: Levels, plant: Levels, spec: ControlSpec) -> Iterator[tuple]:
    """``(L, upper(s), upper(s sigma), plant(s sigma))`` per history length L
    while ``upper`` has a next level; ``upper(s)`` as a column, the others
    as (history x uncontrollable event, sorted) arrays."""
    k = len(spec.alphabet)
    cols = [spec.alphabet.index(e) for e in sorted(spec.uncontrollable)]
    next(plant)
    for length, ((u, u_next), p_next) in enumerate(zip(pairwise(upper), plant)):
        yield length, u[:, None], u_next.reshape(u.size, k)[:, cols], p_next.reshape(u.size, k)[:, cols]


def _first_gap(upper: Levels, plant: Levels, spec: ControlSpec) -> tuple[Word, str] | None:
    """First (s, sigma) in sweep order with min(upper(s), plant(s sigma)) > upper(s sigma) + SWEEP_TOL."""
    events = sorted(spec.uncontrollable)
    for length, u, u_ext, p_ext in _extensions(upper, plant, spec):
        gap = np.minimum(u, p_ext) > u_ext + SWEEP_TOL
        if gap.any():
            i, e = divmod(int(np.argmax(gap)), len(events))
            return word_at(spec.alphabet, length, i), events[e]
    return None


def decide_controllability(
    target, plant, spec: ControlSpec, tol: float = DEFAULT_EQUIV_TOL
) -> ControllabilityResult:
    """Exact controllability decision over all of Sigma*.

    Target, plant and control spec must share one alphabet (compared as
    sets); a mismatch is refused before any work.  A target whose hybrid
    embedding (``models._as_hybrid``) has its plant's classical states,
    alphabet, initial states, accepting projectors and unitaries, and
    differs from it only in transitions that send the target to a state
    that absorbs every event and accepts nothing, is the plant restricted
    to a regular language K: H = M 1_K, with K the words whose run never
    takes such a transition.  For it the min-inequality fails exactly
    where s is in K, s sigma is not, and min(M(s), M(s sigma)) > 0
    (Ramadge and Wonham, SIAM J. Control Optim., 1987).  So when no
    redirected (state, event) pair has an uncontrollable event, among
    the states reachable over the transitions target and plant share,
    the decision holds, without minimizing or exploring anything.  With
    no uncontrollable event the inequality ranges over nothing, and the
    decision holds for any target, assuming nothing.

    Every other input takes the algebraic route (``_decide_on_product``):
    a restriction that an uncontrollable event leaves, measure-many
    automata, bilinear machines, and targets of any other shape, DFA
    targets against quantum plants among them.  ``assumes`` is empty
    for a restriction, on either route, because for it the product of
    the algebraic route vanishes exactly where the inequality holds.
    For any other target it lists the ``REDUCTION_PRECONDITIONS``, on
    which the algebraic route's verdict rests.  A tolerance that is not
    finite and positive is refused.
    """
    check_tol(tol)
    if set(target.alphabet) != set(plant.alphabet):
        raise ValueError("target and plant must share an alphabet")
    if set(spec.alphabet) != set(target.alphabet):
        raise ValueError("control spec alphabet does not match the automata")
    if not spec.uncontrollable:
        return ControllabilityResult(True)
    leaves = _leaves_restriction(target, plant, spec.uncontrollable)
    if leaves is False:
        return ControllabilityResult(True)
    return _decide_on_product(target, plant, spec, tol, () if leaves else REDUCTION_PRECONDITIONS)


class _Shape(NamedTuple):
    """A hybrid automaton's tables for ``_leaves_restriction``, kept on it:
    ``fixed`` holds everything a restriction shares with its plant
    (states, alphabet, initial states, and the unitaries and accepting
    projectors in state-then-symbol order, the arrays as bytes); ``succ``
    the successor index of every (state, symbol) pair in that order;
    ``sink`` whether each state absorbs every event and accepts nothing."""

    fixed: tuple
    initial: int
    succ: tuple[int, ...]
    sink: tuple[bool, ...]


def _shape(m: Qfac) -> _Shape:
    states, alphabet = m.classical_states, m.alphabet
    index = {s: i for i, s in enumerate(states)}
    succ = tuple(index[m.transitions[(s, a)]] for s in states for a in alphabet)
    unitaries = np.array([m.unitaries[(s, a)] for s in states for a in alphabet], dtype=complex)
    accepting = tuple(m.accepting[s].subset for s in states)
    fixed = (states, alphabet, m.initial_classical, np.asarray(m.initial_quantum, dtype=complex).tobytes(),
             unitaries.tobytes(), accepting)
    k = len(alphabet)
    sink = tuple(not accepting[i] and succ[i * k: (i + 1) * k] == (i,) * k for i in range(len(states)))
    return _Shape(fixed, index[m.initial_classical], succ, sink)


def _leaves_restriction(target, plant, uncontrollable: frozenset[str]) -> bool | None:
    """Whether an uncontrollable event leaves the language that ``target``
    restricts ``plant`` to, or None when the target is no such restriction
    (see ``decide_controllability``).

    Compares the ``_Shape`` tables of the two hybrid embeddings: one
    comparison for everything they must share, bit for bit, then their
    successors pair by pair.  A pair whose successors differ is
    redirected; the language is left where an uncontrollable event is
    redirected at a state reachable from the initial one over the pairs
    that are not.
    """
    target, plant = _as_hybrid(target), _as_hybrid(plant)
    if not (isinstance(target, Qfac) and isinstance(plant, Qfac)):
        return None
    t, p = target._memo(_shape), plant._memo(_shape)
    if t.fixed != p.fixed:
        return None
    redirected = {i for i, (q_t, q_p) in enumerate(zip(t.succ, p.succ)) if q_t != q_p}
    if not all(t.sink[t.succ[i]] for i in redirected):
        return None
    unc = [a in uncontrollable for a in target.alphabet]
    k = len(unc)
    seen = _reachable([t.initial], lambda s: (t.succ[i] for i in range(s * k, s * k + k) if i not in redirected))
    return any(unc[i % k] for i in redirected if i // k in seen)


def _decide_on_product(target, plant, spec: ControlSpec, tol: float = DEFAULT_EQUIV_TOL,
                       assumes: tuple[str, ...] = REDUCTION_PRECONDITIONS) -> ControllabilityResult:
    """The algebraic route of ``decide_controllability``, on alphabets it has
    checked and with at least one uncontrollable event.

    Under the reduction preconditions (target monotone along
    uncontrollable extensions and dominated by the plant there; see
    ``check_decision_preconditions``), for each uncontrollable event
    sigma the min-inequality is equivalent to the word function

        (H(s) - H(s sigma)) * (M(s sigma) - H(s sigma))

    vanishing on every word s: a Hadamard product of two rational series
    (Berstel and Reutenauer, *Noncommutative Rational Series*).  For a
    restriction H = M 1_K the product needs no precondition: it is 0
    unless s is in K and s sigma is not, and there it is M(s) M(s sigma).
    It is read on one product state ``X = h g^T``, with ``h = H(w) pi_H``
    and ``g = (h, m)`` stacked over ``m = M(w) pi_M``.  The state advances
    as ``X <- H_a X diag(H_a, M_a)^T``: ``H_a X``, then its first ``r_H``
    columns times ``H_a^T`` and the rest times ``M_a^T`` (Van Loan's
    ``(A x B) vec X = vec(A X B^T)``).  Event sigma reads it with the one
    row ``vec((eta_H - eta_H H_sigma)^T (-eta_H H_sigma, eta_M M_sigma))``,
    and the span kernel tests every event's row in one exploration, which
    inserts at most ``r_H (r_H + r_M)`` basis vectors.
    Target and plant, of any kind ``blm.linear_form`` maps and with
    alphabets in any order, are first minimized in operator form, and no
    Kronecker product of machine matrices is ever formed.  The witness
    is the oracle's: the shortlex-least word in ``spec.alphabet`` order
    with a nonzero product, and the first failing event in sorted order
    at that word.

    On failure ``lhs = min(target(s), plant(s sigma))`` and
    ``rhs = target(s sigma)`` come from the direct evaluators, and
    ``confirmed`` says whether ``lhs - rhs > tol``.  The product is
    nonzero also where a factor has the wrong sign, so an unconfirmed
    witness means a reduction precondition fails at that word.  The
    result carries ``assumes``.
    """
    h, m = minimize(target), minimize(plant)
    r, shape = h.n, (h.n, h.n + m.n)

    def step(x: np.ndarray, a: str) -> np.ndarray:
        y = h.matrices[a] @ x.reshape(shape)
        return np.concatenate([y[:, :r] @ h.matrices[a].T, y[:, r:] @ m.matrices[a].T], axis=1).ravel()

    events = sorted(spec.uncontrollable)
    rows = []
    for e in events:
        h_e = h.eta @ h.matrices[e]
        rows.append(np.outer(h.eta - h_e, np.concatenate([-h_e, m.eta @ m.matrices[e]])).ravel())
    start = np.outer(h.pi, np.concatenate([h.pi, m.pi])).ravel()
    _, hit = explore_span(start, step, spec.alphabet, tol, np.array(rows))
    if hit is None:
        return ControllabilityResult(True, assumes=assumes)
    word, sigma = hit[0], events[hit[1]]
    f_target, f_plant = evaluator(target), evaluator(plant)
    ext = (*word, sigma)
    lhs, rhs = min(f_target(word), f_plant(ext)), f_target(ext)
    return ControllabilityResult(False, word, sigma, lhs, rhs, lhs - rhs > tol, assumes)


def check_decision_preconditions(target: QuantumLanguage, plant: QuantumLanguage, spec: ControlSpec,
                                 horizon: int) -> list[str]:
    """Horizon-bounded check of the two inequalities the algebraic
    reduction silently uses: target(s) >= target(s sigma) and
    plant(s sigma) >= target(s sigma) on uncontrollable events, each
    with slack ``SWEEP_TOL``."""
    check_horizon(horizon)
    events = sorted(spec.uncontrollable)
    problems = []
    sweep = _extensions(target.levels(spec.alphabet, horizon + 1), plant.levels(spec.alphabet, horizon + 1), spec)
    for length, t, t_ext, p_ext in sweep:
        rising, above = t_ext > t + SWEEP_TOL, t_ext > p_ext + SWEEP_TOL
        for i, e in np.argwhere(rising | above):
            at = "".join((*word_at(spec.alphabet, length, int(i)), events[e]))
            if rising[i, e]:
                problems.append(f"target not monotone at {at}")
            if above[i, e]:
                problems.append(f"target exceeds plant at {at}")
    return problems


def check_approximation_preconditions(target: QuantumLanguage, plant: QuantumLanguage,
                                      in_closure: Callable[[Word], bool], horizon: int) -> list[str]:
    """Horizon-bounded hypotheses of the approximate-control guarantee:
    the target never exceeds the plant, and matches it exactly on
    histories inside the prefix closure of the specification, both up
    to ``SWEEP_TOL``."""
    alphabet = target.alphabet
    problems = []
    for length, (t, p) in enumerate(zip(target.levels(alphabet, horizon), plant.levels(alphabet, horizon))):
        above, differ = t > p + SWEEP_TOL, np.abs(t - p) > SWEEP_TOL
        for i in np.flatnonzero(above | differ):
            s = word_at(alphabet, length, int(i))
            if above[i]:
                problems.append(f"target exceeds plant at {''.join(s) or 'empty'}")
            if differ[i] and in_closure(s):
                problems.append(f"target differs from plant inside the closure at {''.join(s) or 'empty'}")
    return problems


class IsolationViolationError(ArithmeticError):
    """A plant value fell inside the isolation band during marking."""


def _isolation_gate(plant_value: float, cutpoint: float, radius: float, where: str) -> bool:
    if plant_value >= cutpoint + radius:
        return True
    if plant_value <= cutpoint - radius:
        return False
    raise IsolationViolationError(
        f"plant value {plant_value} inside the isolation band at {where}"
    )


def marked_language(plant: QuantumLanguage, cutpoint: float, radius: float) -> QuantumLanguage:
    """Marked sublanguage: the plant's value where isolation holds, else 0."""
    check_cutpoint(cutpoint, radius)

    def fn(s: Word) -> float:
        v = plant(s)
        return v if _isolation_gate(v, cutpoint, radius, "".join(s) or "empty") else 0.0

    return QuantumLanguage(fn, plant.alphabet, "marked")


def closed_loop_marked(cl: ClosedLoop, cutpoint: float, radius: float) -> QuantumLanguage:
    """Marked closed-loop language: min of plant and loop where isolation holds,
    which is where the marked plant value (the plant's there, else 0) is nonzero."""
    marked = marked_language(cl.supervisor.plant, cutpoint, radius)

    def fn(s: Word) -> float:
        v = marked(s)
        return min(v, cl.value(s)) if v else 0.0

    return QuantumLanguage(fn, marked.alphabet, "marked closed-loop")


def check_nonblocking(cl: ClosedLoop, cutpoint: float, radius: float, horizon: int) -> bool:
    """Closed loop equals the prefix closure of its marked part, over the horizon.

    The marked value of any extension never exceeds the closed-loop
    value of the history (both facts are exact consequences of the
    min-recursion), so the two-sided comparison collapses to finding one
    extension whose marked value comes within ``SWEEP_TOL`` of the history's
    closed-loop value.

    The closed-loop and plant levels, from one pass of the plant's
    levels, settle at the empty extension every history whose plant
    value lies outside the isolation band and whose marked value clears
    the test, both by ``LEVEL_MARGIN``.  Only the other histories are
    searched word by word over their extensions, in ``words_upto``
    order, so the verdict and the first ``IsolationViolationError`` are
    those of the full word-by-word search.
    """
    marked = closed_loop_marked(cl, cutpoint, radius)
    check_horizon(horizon)
    alphabet = marked.alphabet
    lo, hi = cutpoint - radius, cutpoint + radius

    def reached(s: Word) -> bool:
        lhs = cl.value(s)
        return any(marked((*s, *t)) >= lhs - SWEEP_TOL for t in words_upto(alphabet, horizon))

    def unsettled(length: int, c: np.ndarray, p: np.ndarray) -> Iterator[Word]:
        outside = (p >= hi + LEVEL_MARGIN) | (p <= lo - LEVEL_MARGIN)
        settled = outside & (np.where(p >= hi, np.minimum(p, c), 0.0) >= c - SWEEP_TOL + LEVEL_MARGIN)
        return (word_at(alphabet, length, int(i)) for i in np.flatnonzero(~settled))

    loop_pass, band_pass = tee(cl.supervisor.plant.levels(alphabet, horizon))
    frontier = enumerate(zip(cl._levels(horizon, loop_pass), band_pass))
    return all(reached(s) for length, (c, p) in frontier for s in unsettled(length, c, p))


@dataclass(frozen=True)
class MarkingResult:
    """Outcome of the marked-control conditions; ``condition`` is 1 or 2 on failure."""

    holds: bool
    condition: int | None = None
    word: Word | None = None
    symbol: str | None = None


def check_marking_conditions(K: QuantumLanguage, plant: QuantumLanguage, spec: ControlSpec, horizon: int,
                             pr_K: QuantumLanguage | None = None) -> MarkingResult:
    """Check the two marked-control conditions over the horizon.

    Condition 1 is the controllability inequality for the prefix closure
    of K; condition 2 ties K to the marked plant.  When K is 0/1-valued
    over the horizon, condition 2 is checked in its crisp set form
    (K = pr(K) intersected with the isolated language); otherwise the
    quantum form K(s) = min(pr(K)(s), marked(s)) is used.  ``pr_K``
    defaults to ``prefix_sup`` at every history, which reads K up to
    length 2 * horizon + 1.  The first history whose plant value falls
    inside the isolation band raises ``IsolationViolationError``; the
    crisp form reads the band only where pr(K) > 0.5.
    """
    if spec.isolation is None:
        raise ValueError("marking conditions need an isolation radius in the control spec")
    check_horizon(horizon)
    alphabet, lo, hi = spec.alphabet, spec.cutpoint - spec.isolation, spec.cutpoint + spec.isolation
    if pr_K is None:
        k_levels = list(K.levels(alphabet, 2 * horizon + 1))
        prk = prefix_maxima(k_levels, horizon, len(alphabet))
        k_levels = k_levels[: horizon + 1]
    else:
        k_levels = list(K.levels(alphabet, horizon))
        prk = list(pr_K.levels(alphabet, horizon + 1))
    p_levels = list(plant.levels(alphabet, horizon + 1))

    hit = _first_gap(iter(prk), iter(p_levels), spec)
    if hit is not None:
        return MarkingResult(False, 1, *hit)

    crisp = all((np.minimum(k, np.abs(k - 1.0)) <= SWEEP_TOL).all() for k in k_levels)
    for length, (k, pr, p) in enumerate(zip(k_levels, prk, p_levels)):
        marked = np.where(p >= hi, p, 0.0)
        band = (p < hi) & (p > lo)
        if crisp:
            band &= pr > 0.5
            wrong = (k > 0.5) != ((pr > 0.5) & (marked > SWEEP_TOL))
        else:
            wrong = np.abs(k - np.minimum(pr, marked)) > SWEEP_TOL
        stop = np.flatnonzero(band | wrong)
        if stop.size:
            i = int(stop[0])
            s = word_at(alphabet, length, i)
            if band[i]:
                _isolation_gate(float(p[i]), spec.cutpoint, spec.isolation, "".join(s) or "empty")
            return MarkingResult(False, 2, s)
    return MarkingResult(True)
