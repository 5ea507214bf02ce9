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
an exact algebraic decision that turns the min-inequality into a
polynomial identity between two product machines over the minimized
target and plant, and decides it with the span-exploration kernel.

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
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, islice, pairwise, product, tee
from typing import Callable, Iterator, Mapping, Sequence

import numpy as np

from .blm import evaluator, levels
from .equivalence import DEFAULT_EQUIV_TOL, check_tol, explore_span, minimize
from .models import Levels, Word, check_horizon, clamp_probability, prefix_maxima, word_at, words_upto


#: Margin by which a level comparison must clear its threshold before the
#: closed-loop sweeps accept it without the per-word evaluators; far above
#: the rounding gap between level and per-word values.
LEVEL_MARGIN = 1e-10


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
    guard it externally.
    """

    def __init__(self, supervisor):
        self.supervisor = supervisor
        self._memo: dict[Word, float] = {(): 1.0}

    def value(self, s: Sequence[str]) -> float:
        s = tuple(s)
        if s in self._memo:
            return self._memo[s]
        acc = self._memo[()]
        for i in range(len(s)):
            prefix = s[: i + 1]
            if prefix in self._memo:
                acc = self._memo[prefix]
                continue
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


def check_admissible(supervisor, horizon: int, tol: float = 1e-9) -> list[AdmissibilityViolation]:
    """List the (history, event) pairs where an uncontrollable event is
    enabled below the plant's feasibility, in history order, then in
    sorted event order.

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
        near = p.reshape(-1, k)[:, cols] > en[:, cols] + tol - LEVEL_MARGIN
        for i, e in np.argwhere(near):
            s = word_at(alphabet, length, int(i))
            f, g = plant((*s, events[e])), supervisor.enablement(s, events[e])
            if f > g + tol:
                out.append(AdmissibilityViolation(s, events[e], f, g))
    return out


@dataclass(frozen=True)
class ControllabilityResult:
    """Outcome of a controllability check; the witness fields are set on failure."""

    holds: bool
    word: Word | None = None
    symbol: str | None = None
    lhs: float | None = None
    rhs: float | None = None


def check_controllability_exhaustive(target: QuantumLanguage, plant: QuantumLanguage, spec: ControlSpec,
                                     horizon: int, tol: float = 1e-9) -> ControllabilityResult:
    """Sweep min(target(s), plant(s sigma)) <= target(s sigma) over the horizon.

    The bounded-horizon oracle for the algebraic decision; shortest
    counterexamples are found first.  The witness's ``lhs`` and ``rhs``
    come from the per-word evaluators.
    """
    check_horizon(horizon)
    hit = _first_gap(target.levels(spec.alphabet, horizon + 1), plant.levels(spec.alphabet, horizon + 1), spec, tol)
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


def _first_gap(upper: Levels, plant: Levels, spec: ControlSpec, tol: float) -> tuple[Word, str] | None:
    """First (s, sigma) in sweep order with min(upper(s), plant(s sigma)) > upper(s sigma) + tol."""
    events = sorted(spec.uncontrollable)
    for length, u, u_ext, p_ext in _extensions(upper, plant, spec):
        gap = np.minimum(u, p_ext) > u_ext + tol
        if gap.any():
            i, e = divmod(int(np.argmax(gap)), len(events))
            return word_at(spec.alphabet, length, i), events[e]
    return None


def decide_controllability(
    target, plant, spec: ControlSpec, tol: float = DEFAULT_EQUIV_TOL
) -> ControllabilityResult:
    """Exact controllability decision over all of Sigma*.

    Requires the reduction preconditions (target monotone along
    uncontrollable extensions and dominated by the plant there); see
    ``check_decision_preconditions``.  Under them, for each
    uncontrollable event the min-inequality is equivalent to the word
    functions of two product-sum machines agreeing everywhere:

        (H  x M_s) + (H_s x H_s)   versus   (H_s x M_s) + (H_s x H)

    where X_s folds one trailing occurrence of the event into X's final
    functional.  Both sides share their initial vector and matrices, so
    one state ``(X1, X2) = (h m^T, h h^T)``, with ``h = H(w) pi_H`` and
    ``m = M(w) pi_M``, serves both; it advances as ``X1 <- H_a X1 M_a^T``
    and ``X2 <- H_a X2 H_a^T`` (Van Loan's ``(A x B) vec X = vec(A X B^T)``),
    and the span kernel tests the difference of the two final
    functionals on it, one row per event, in one exploration.  Target
    and plant, of any kind ``blm.linear_form`` maps and with alphabets in
    any order, are first minimized in operator form, and no Kronecker
    product of machine matrices is ever formed.  The witness is the
    oracle's: the shortlex-least word in ``spec.alphabet`` order with a
    nonzero gap, and the first failing event in sorted order at that word.

    On failure ``lhs = min(target(s), plant(s sigma))`` and
    ``rhs = target(s sigma)`` come from the direct evaluators.  The two
    sides differ by ``(H(s) - H(s sigma)) * (M(s sigma) - H(s sigma))``,
    so a witness with ``lhs <= rhs`` means a reduction precondition
    fails at that word.  A tolerance that is not finite and positive is refused.
    """
    check_tol(tol)
    h, m = minimize(target), minimize(plant)
    if set(h.alphabet) != set(m.alphabet):
        raise ValueError("target and plant must share an alphabet")
    if set(spec.alphabet) != set(h.alphabet):
        raise ValueError("control spec alphabet does not match the automata")
    split = h.n * m.n

    def step(x: np.ndarray, a: str) -> np.ndarray:
        ha = h.matrices[a]
        x1 = ha @ x[:split].reshape(h.n, m.n) @ m.matrices[a].T
        x2 = ha @ x[split:].reshape(h.n, h.n) @ ha.T
        return np.concatenate([x1.ravel(), x2.ravel()])

    events = sorted(spec.uncontrollable)
    eta_hs = [h.eta @ h.matrices[e] for e in events]
    # eta_lhs - eta_rhs on (X1, X2) per event, as row-major vec functionals.
    gaps = [np.concatenate([np.outer(h.eta - hs, m.eta @ m.matrices[e]).ravel(), np.outer(hs, hs - h.eta).ravel()])
            for e, hs in zip(events, eta_hs)]
    start = np.concatenate([np.outer(h.pi, m.pi).ravel(), np.outer(h.pi, h.pi).ravel()])
    _, hit = explore_span(start, step, spec.alphabet, tol, np.array(gaps)) if events else (None, None)
    if hit is None:
        return ControllabilityResult(True)
    word, sigma = hit[0], events[hit[1]]
    f_target, f_plant = evaluator(target), evaluator(plant)
    ext = (*word, sigma)
    return ControllabilityResult(False, word, sigma, min(f_target(word), f_plant(ext)), f_target(ext))


def check_decision_preconditions(target: QuantumLanguage, plant: QuantumLanguage, spec: ControlSpec,
                                 horizon: int, tol: float = 1e-9) -> list[str]:
    """Horizon-bounded check of the two inequalities the algebraic
    reduction silently uses: target(s) >= target(s sigma) and
    plant(s sigma) >= target(s sigma) on uncontrollable events."""
    check_horizon(horizon)
    events = sorted(spec.uncontrollable)
    problems = []
    sweep = _extensions(target.levels(spec.alphabet, horizon + 1), plant.levels(spec.alphabet, horizon + 1), spec)
    for length, t, t_ext, p_ext in sweep:
        rising, above = t_ext > t + tol, t_ext > p_ext + tol
        for i, e in np.argwhere(rising | above):
            at = "".join((*word_at(spec.alphabet, length, int(i)), events[e]))
            if rising[i, e]:
                problems.append(f"target not monotone at {at}")
            if above[i, e]:
                problems.append(f"target exceeds plant at {at}")
    return problems


def check_approximation_preconditions(target: QuantumLanguage, plant: QuantumLanguage,
                                      in_closure: Callable[[Word], bool], horizon: int, tol: float = 1e-9) -> list[str]:
    """Horizon-bounded hypotheses of the approximate-control guarantee:
    the target never exceeds the plant, and matches it exactly on
    histories inside the prefix closure of the specification."""
    alphabet = target.alphabet
    problems = []
    for length, (t, p) in enumerate(zip(target.levels(alphabet, horizon), plant.levels(alphabet, horizon))):
        above, differ = t > p + tol, np.abs(t - p) > tol
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


def check_nonblocking(
    cl: ClosedLoop, cutpoint: float, radius: float, horizon: int, tol: float = 1e-9
) -> bool:
    """Closed loop equals the prefix closure of its marked part, over the horizon.

    The marked value of any extension never exceeds the closed-loop
    value of the history (both facts are exact consequences of the
    min-recursion), so the two-sided comparison collapses to finding one
    extension whose marked value comes within tol of the history's
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
        return any(marked((*s, *t)) >= lhs - tol for t in words_upto(alphabet, horizon))

    def unsettled(length: int, c: np.ndarray, p: np.ndarray) -> Iterator[Word]:
        outside = (p >= hi + LEVEL_MARGIN) | (p <= lo - LEVEL_MARGIN)
        settled = outside & (np.where(p >= hi, np.minimum(p, c), 0.0) >= c - tol + LEVEL_MARGIN)
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
                             tol: float = 1e-9, pr_K: QuantumLanguage | None = None) -> MarkingResult:
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

    hit = _first_gap(iter(prk), iter(p_levels), spec, tol)
    if hit is not None:
        return MarkingResult(False, 1, *hit)

    crisp = all((np.minimum(k, np.abs(k - 1.0)) <= tol).all() for k in k_levels)
    for length, (k, pr, p) in enumerate(zip(k_levels, prk, p_levels)):
        marked = np.where(p >= hi, p, 0.0)
        band = (p < hi) & (p > lo)
        if crisp:
            band &= pr > 0.5
            wrong = (k > 0.5) != ((pr > 0.5) & (marked > tol))
        else:
            wrong = np.abs(k - np.minimum(pr, marked)) > tol
        stop = np.flatnonzero(band | wrong)
        if stop.size:
            i = int(stop[0])
            s = word_at(alphabet, length, i)
            if band[i]:
                _isolation_gate(float(p[i]), spec.cutpoint, spec.isolation, "".join(s) or "empty")
            return MarkingResult(False, 2, s)
    return MarkingResult(True)
