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
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .blm import evaluator, to_rblm
from .equivalence import DEFAULT_EQUIV_TOL, explore_span, minimize
from .models import Word, clamp_probability, words_upto


class QuantumLanguage:
    """Total map from words to [0, 1], memoized, clamped at the boundary."""

    def __init__(self, fn: Callable[[Word], float], alphabet: Sequence[str], description: str = ""):
        self._fn = fn
        self.alphabet = tuple(alphabet)
        self.description = description
        self._cache: dict[Word, float] = {}

    def __call__(self, w: Sequence[str]) -> float:
        key = tuple(w)
        if key not in self._cache:
            self._cache[key] = clamp_probability(float(self._fn(key)), self.description)
        return self._cache[key]

    def __repr__(self):
        return f"QuantumLanguage({self.description or 'anonymous'})"

    @classmethod
    def from_automaton(cls, automaton) -> "QuantumLanguage":
        return cls(evaluator(automaton), automaton.alphabet, type(automaton).__name__)

    @classmethod
    def from_table(cls, table: Mapping[Word, float], alphabet: Sequence[str]) -> "QuantumLanguage":
        data = {tuple(k): float(v) for k, v in table.items()}

        def fn(w: Word) -> float:
            if w not in data:
                raise KeyError(f"word {w!r} beyond the table horizon")
            return data[w]

        return cls(fn, alphabet, "table")


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
        object.__setattr__(self, "controllable", frozenset(self.controllable))
        object.__setattr__(self, "uncontrollable", frozenset(self.uncontrollable))
        if self.controllable & self.uncontrollable:
            raise ValueError("controllable and uncontrollable events must be disjoint")
        if self.controllable | self.uncontrollable != set(self.alphabet):
            raise ValueError("event partition must cover the alphabet exactly")
        if not (0.0 <= self.cutpoint < 1.0):
            raise ValueError("cut-point must lie in [0, 1)")
        if self.isolation is not None:
            if self.isolation <= 0.0:
                raise ValueError("isolation radius must be positive")
            if self.cutpoint + self.isolation > 1.0:
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
    if not (0.0 <= cutpoint < 1.0):
        raise ValueError("cut-point must lie in [0, 1)")
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
    if radius <= 0.0:
        raise ValueError("isolation radius must be positive")
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
    if horizon < 0:
        raise ValueError("horizon must be non-negative")
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
    enabled below the plant's feasibility."""
    plant = supervisor.plant
    spec = supervisor.spec
    out = []
    for s in words_upto(spec.alphabet, horizon):
        for sigma in sorted(spec.uncontrollable):
            feasible = plant((*s, sigma))
            enabled = supervisor.enablement(s, sigma)
            if feasible > enabled + tol:
                out.append(AdmissibilityViolation(s, sigma, feasible, enabled))
    return out


@dataclass(frozen=True)
class ControllabilityResult:
    """Outcome of a controllability check; the witness fields are set on failure."""

    holds: bool
    word: Word | None = None
    symbol: str | None = None
    lhs: float | None = None
    rhs: float | None = None


def check_controllability_exhaustive(
    target: QuantumLanguage,
    plant: QuantumLanguage,
    spec: ControlSpec,
    horizon: int,
    tol: float = 1e-9,
) -> ControllabilityResult:
    """Sweep min(target(s), plant(s sigma)) <= target(s sigma) over the horizon.

    The bounded-horizon oracle for the algebraic decision; shortest
    counterexamples are found first.
    """
    for s in words_upto(spec.alphabet, horizon):
        for sigma in sorted(spec.uncontrollable):
            lhs = min(target(s), plant((*s, sigma)))
            rhs = target((*s, sigma))
            if lhs > rhs + tol:
                return ControllabilityResult(False, s, sigma, lhs, rhs)
    return ControllabilityResult(True)


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
    functionals on it.  Target and plant are first reduced to minimal
    machines (``equivalence.minimize``), once per decision, and no
    Kronecker product of machine matrices is ever formed.  The witness
    is the shortlex-least word with a nonzero gap, for the first failing
    event in sorted order, whatever the representation.

    On failure ``lhs = min(target(s), plant(s sigma))`` and
    ``rhs = target(s sigma)`` come from the direct evaluators.  The two
    sides differ by ``(H(s) - H(s sigma)) * (M(s sigma) - H(s sigma))``,
    so a witness with ``lhs <= rhs`` means a reduction precondition
    fails at that word.  Target and plant may be of any automaton kind
    ``blm.to_rblm`` maps.
    """
    h = to_rblm(target)
    m = to_rblm(plant)
    if h.alphabet != m.alphabet:
        raise ValueError("target and plant must share an alphabet")
    if tuple(sorted(spec.alphabet)) != tuple(sorted(h.alphabet)):
        raise ValueError("control spec alphabet does not match the automata")
    h, m = minimize(h), minimize(m)
    split = h.n * m.n

    def step(x: np.ndarray, a: str) -> np.ndarray:
        ha = h.matrices[a]
        x1 = ha @ x[:split].reshape(h.n, m.n) @ m.matrices[a].T
        x2 = ha @ x[split:].reshape(h.n, h.n) @ ha.T
        return np.concatenate([x1.ravel(), x2.ravel()])

    start = np.concatenate([np.outer(h.pi, m.pi).ravel(), np.outer(h.pi, h.pi).ravel()])
    alphabet = tuple(sorted(h.alphabet))
    for sigma in sorted(spec.uncontrollable):
        eta_h, eta_hs, eta_ms = h.eta, h.eta @ h.matrices[sigma], m.eta @ m.matrices[sigma]
        # eta_lhs - eta_rhs on (X1, X2), as row-major vec functionals.
        gap = np.concatenate([np.outer(eta_h - eta_hs, eta_ms).ravel(), np.outer(eta_hs, eta_hs - eta_h).ravel()])
        _, word = explore_span(start, step, alphabet, tol, gap)
        if word is not None:
            f_target, f_plant = evaluator(target), evaluator(plant)
            ext = (*word, sigma)
            return ControllabilityResult(False, word, sigma, min(f_target(word), f_plant(ext)), f_target(ext))
    return ControllabilityResult(True)


def check_decision_preconditions(
    target: QuantumLanguage,
    plant: QuantumLanguage,
    spec: ControlSpec,
    horizon: int,
    tol: float = 1e-9,
) -> list[str]:
    """Horizon-bounded check of the two inequalities the algebraic
    reduction silently uses: target(s) >= target(s sigma) and
    plant(s sigma) >= target(s sigma) on uncontrollable events."""
    problems = []
    for s in words_upto(spec.alphabet, horizon):
        for sigma in sorted(spec.uncontrollable):
            ext = (*s, sigma)
            if target(ext) > target(s) + tol:
                problems.append(f"target not monotone at {''.join(ext) or 'empty'}")
            if target(ext) > plant(ext) + tol:
                problems.append(f"target exceeds plant at {''.join(ext) or 'empty'}")
    return problems


def check_approximation_preconditions(
    target: QuantumLanguage,
    plant: QuantumLanguage,
    in_closure: Callable[[Word], bool],
    horizon: int,
    tol: float = 1e-9,
) -> list[str]:
    """Horizon-bounded hypotheses of the approximate-control guarantee:
    the target never exceeds the plant, and matches it exactly on
    histories inside the prefix closure of the specification."""
    problems = []
    for s in words_upto(target.alphabet, horizon):
        if target(s) > plant(s) + tol:
            problems.append(f"target exceeds plant at {''.join(s) or 'empty'}")
        if in_closure(s) and abs(target(s) - plant(s)) > tol:
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
    if radius <= 0.0:
        raise ValueError("isolation radius must be positive")

    def fn(s: Word) -> float:
        v = plant(s)
        return v if _isolation_gate(v, cutpoint, radius, "".join(s) or "empty") else 0.0

    return QuantumLanguage(fn, plant.alphabet, "marked")


def closed_loop_marked(cl: ClosedLoop, cutpoint: float, radius: float) -> QuantumLanguage:
    """Marked closed-loop language: min of plant and loop where isolation holds."""
    if radius <= 0.0:
        raise ValueError("isolation radius must be positive")
    plant = cl.supervisor.plant

    def fn(s: Word) -> float:
        v = plant(s)
        if _isolation_gate(v, cutpoint, radius, "".join(s) or "empty"):
            return min(v, cl.value(s))
        return 0.0

    return QuantumLanguage(fn, plant.alphabet, "marked closed-loop")


def check_nonblocking(
    cl: ClosedLoop, cutpoint: float, radius: float, horizon: int, tol: float = 1e-9
) -> bool:
    """Closed loop equals the prefix closure of its marked part, over the horizon.

    The marked value of any extension never exceeds the closed-loop
    value of the history (both facts are exact consequences of the
    min-recursion), so the two-sided comparison collapses to finding one
    extension whose marked value comes within tol of the history's
    closed-loop value.
    """
    marked = closed_loop_marked(cl, cutpoint, radius)
    alphabet = marked.alphabet

    def reached(s: Word) -> bool:
        lhs = cl.value(s)
        return any(marked((*s, *t)) >= lhs - tol for t in words_upto(alphabet, horizon))

    return all(reached(s) for s in words_upto(alphabet, horizon))


@dataclass(frozen=True)
class MarkingResult:
    """Outcome of the marked-control conditions; ``condition`` is 1 or 2 on failure."""

    holds: bool
    condition: int | None = None
    word: Word | None = None
    symbol: str | None = None


def check_marking_conditions(
    K: QuantumLanguage,
    plant: QuantumLanguage,
    spec: ControlSpec,
    horizon: int,
    tol: float = 1e-9,
    pr_K: QuantumLanguage | None = None,
) -> MarkingResult:
    """Check the two marked-control conditions over the horizon.

    Condition 1 is the controllability inequality for the prefix closure
    of K; condition 2 ties K to the marked plant.  When K is 0/1-valued
    over the horizon, condition 2 is checked in its crisp set form
    (K = pr(K) intersected with the isolated language); otherwise the
    quantum form K(s) = min(pr(K)(s), marked(s)) is used.  ``pr_K``
    defaults to the horizon-bounded prefix supremum of K.
    """
    if spec.isolation is None:
        raise ValueError("marking conditions need an isolation radius in the control spec")
    prk = pr_K if pr_K is not None else QuantumLanguage(
        lambda s: prefix_sup(K, s, horizon), K.alphabet, "prefix-sup"
    )
    marked = marked_language(plant, spec.cutpoint, spec.isolation)

    words = list(words_upto(spec.alphabet, horizon))
    crisp = all(min(K(s), abs(K(s) - 1.0)) <= tol for s in words)

    for s in words:
        for sigma in sorted(spec.uncontrollable):
            ext = (*s, sigma)
            if min(prk(s), plant(ext)) > prk(ext) + tol:
                return MarkingResult(False, 1, s, sigma)

    for s in words:
        if crisp:
            member = K(s) > 0.5
            relative = prk(s) > 0.5 and marked(s) > tol
            if member != relative:
                return MarkingResult(False, 2, s)
        else:
            if abs(K(s) - min(prk(s), marked(s))) > tol:
                return MarkingResult(False, 2, s)
    return MarkingResult(True)
