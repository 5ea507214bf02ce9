"""Shared generators and independent oracles for the test-suite.

Everything randomized takes an explicit numpy Generator so tests stay
reproducible; machines come out valid by construction.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from qdes.blm import Rblm, blm_eval
from qdes.equivalence import EquivalenceVerdict
from qdes.linalg import Projector, all_finite, is_unitary, projected_norm_sq
from qdes.models import END_MARKER, MmQfa, MoQfa, Qfac, _check_symbols, clamp_probability
from qdes.supervisory import (
    AdmissibilityViolation,
    ControllabilityResult,
    MarkingResult,
    QuantumLanguage,
    closed_loop_marked,
    marked_language,
    prefix_sup,
)


def words_up_to(alphabet, max_len):
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_state(rng, n):
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_partition(rng, n, parts):
    """Split indices 0..n-1 into ``parts`` (possibly empty) random sets."""
    assignment = rng.integers(0, parts, size=n)
    return [frozenset(int(i) for i in np.flatnonzero(assignment == p)) for p in range(parts)]


def random_mo(rng, n, alphabet=("a", "b")):
    acc, _ = random_partition(rng, n, 2)
    accepting = Projector(acc, n)
    return MoQfa(
        alphabet=tuple(alphabet),
        unitaries={s: random_unitary(rng, n) for s in alphabet},
        initial=random_state(rng, n),
        accepting=accepting,
        rejecting=accepting.complement(),
    )


def random_mm(rng, n, alphabet=("a", "b")):
    acc, rej, go = random_partition(rng, n, 3)
    return MmQfa(
        alphabet=tuple(alphabet),
        unitaries={s: random_unitary(rng, n) for s in (*alphabet, "$")},
        initial=random_state(rng, n),
        accepting=Projector(acc, n),
        rejecting=Projector(rej, n),
        going=Projector(go, n),
    )


def random_qfac(rng, k, n, alphabet=("a", "b")):
    states = tuple(f"s{i}" for i in range(k))
    transitions = {
        (s, a): states[rng.integers(0, k)] for s in states for a in alphabet
    }
    unitaries = {(s, a): random_unitary(rng, n) for s in states for a in alphabet}
    accepting = {}
    for s in states:
        acc, _ = random_partition(rng, n, 2)
        accepting[s] = Projector(acc, n)
    return Qfac(
        classical_states=states,
        alphabet=tuple(alphabet),
        initial_classical=states[0],
        initial_quantum=random_state(rng, n),
        transitions=transitions,
        unitaries=unitaries,
        accepting=accepting,
    )


def random_rblm(rng, n, alphabet=("a", "b")):
    """Real-entried bilinear machine; real entries keep the word function real."""
    scale = 1.0 / np.sqrt(n)
    return Rblm(
        alphabet=tuple(alphabet),
        pi=rng.normal(size=n).astype(complex),
        matrices={a: (scale * rng.normal(size=(n, n))).astype(complex) for a in alphabet},
        eta=rng.normal(size=n).astype(complex),
    )


def similarity_transformed(rng, b: Rblm) -> Rblm:
    """Same word function, different coordinates (orthogonal change of basis)."""
    t, _ = np.linalg.qr(rng.normal(size=(b.n, b.n)))
    return Rblm(
        alphabet=b.alphabet,
        pi=t @ b.pi,
        matrices={a: t @ m @ t.T for a, m in b.matrices.items()},
        eta=b.eta @ t.T,
    )


def padded_with_dead_block(rng, b: Rblm, extra: int) -> Rblm:
    """Add states that can never contribute: their final functional is zero."""
    n = b.n + extra
    pi = np.concatenate([b.pi, rng.normal(size=extra)])
    eta = np.concatenate([b.eta, np.zeros(extra)])
    matrices = {}
    for a, m in b.matrices.items():
        big = np.zeros((n, n), dtype=complex)
        big[: b.n, : b.n] = m
        big[b.n:, b.n:] = rng.normal(size=(extra, extra)) / max(1.0, extra)
        matrices[a] = big
    return Rblm(b.alphabet, pi, matrices, eta)


def naive_kron(a, b):
    """Quadruple-loop tensor product, the hand oracle for block structure."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]), dtype=complex)
    for i in range(a.shape[0]):
        for j in range(a.shape[1]):
            for k in range(b.shape[0]):
                for l in range(b.shape[1]):
                    out[i * b.shape[0] + k, j * b.shape[1] + l] = a[i, j] * b[k, l]
    return out


# --------------------------------------------------------------------------
# Word-by-word references for the level sweeps: the loops the sweeps
# replaced, one language evaluation per word.


def ref_controllability_exhaustive(target, plant, spec, horizon, tol=1e-9):
    for s in words_up_to(spec.alphabet, horizon):
        for sigma in sorted(spec.uncontrollable):
            lhs = min(target(s), plant((*s, sigma)))
            rhs = target((*s, sigma))
            if lhs > rhs + tol:
                return ControllabilityResult(False, s, sigma, lhs, rhs)
    return ControllabilityResult(True)


def ref_decision_preconditions(target, plant, spec, horizon, tol=1e-9):
    problems = []
    for s in words_up_to(spec.alphabet, horizon):
        for sigma in sorted(spec.uncontrollable):
            ext = (*s, sigma)
            if target(ext) > target(s) + tol:
                problems.append(f"target not monotone at {''.join(ext) or 'empty'}")
            if target(ext) > plant(ext) + tol:
                problems.append(f"target exceeds plant at {''.join(ext) or 'empty'}")
    return problems


def ref_approximation_preconditions(target, plant, in_closure, horizon, tol=1e-9):
    problems = []
    for s in words_up_to(target.alphabet, horizon):
        if target(s) > plant(s) + tol:
            problems.append(f"target exceeds plant at {''.join(s) or 'empty'}")
        if in_closure(s) and abs(target(s) - plant(s)) > tol:
            problems.append(f"target differs from plant inside the closure at {''.join(s) or 'empty'}")
    return problems


def ref_marking_conditions(K, plant, spec, horizon, tol=1e-9, pr_K=None):
    prk = pr_K if pr_K is not None else QuantumLanguage(
        lambda s: prefix_sup(K, s, horizon), K.alphabet, "prefix-sup"
    )
    marked = marked_language(plant, spec.cutpoint, spec.isolation)
    words = list(words_up_to(spec.alphabet, horizon))
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
        elif abs(K(s) - min(prk(s), marked(s))) > tol:
            return MarkingResult(False, 2, s)
    return MarkingResult(True)


def ref_k_equiv(b1, b2, k, tol=1e-7):
    for word in words_up_to(tuple(sorted(b1.alphabet)), k):
        f1, f2 = blm_eval(b1, word), blm_eval(b2, word)
        if abs(f1 - f2) > tol:
            return EquivalenceVerdict(False, word, f1, f2, word_bound=k)
    return EquivalenceVerdict(True, word_bound=k)


def ref_admissible(supervisor, horizon, tol=1e-9):
    out = []
    for s in words_up_to(supervisor.spec.alphabet, horizon):
        for sigma in sorted(supervisor.spec.uncontrollable):
            feasible = supervisor.plant((*s, sigma))
            enabled = supervisor.enablement(s, sigma)
            if feasible > enabled + tol:
                out.append(AdmissibilityViolation(s, sigma, feasible, enabled))
    return out


def ref_nonblocking(cl, cutpoint, radius, horizon, tol=1e-9):
    marked = closed_loop_marked(cl, cutpoint, radius)

    def reached(s):
        lhs = cl.value(s)
        return any(marked((*s, *t)) >= lhs - tol for t in words_up_to(marked.alphabet, horizon))

    return all(reached(s) for s in words_up_to(marked.alphabet, horizon))


def ref_mm_accept_prob(m, w):
    """The measure-many forward pass through ``Projector.apply`` and ``projected_norm_sq``."""
    _check_symbols(w, m.alphabet, forbid=END_MARKER)
    total = 0.0
    going = np.asarray(m.initial, dtype=complex)
    for sym in (*w, END_MARKER):
        v = m.unitaries[sym] @ going
        total += projected_norm_sq(m.accepting, v)
        going = m.going.apply(v)
    return clamp_probability(total)


def ref_validate_unitaries(pairs, dim, tol, what="unitary"):
    """The one-unitary-at-a-time check that ``models._validate_unitaries`` batches."""
    violations = []
    for name, u in pairs:
        u = np.asarray(u)
        if u.shape != (dim, dim):
            violations.append(f"{what} {name}: shape {u.shape} does not match dimension {dim}")
            continue
        if not all_finite(u):
            violations.append(f"{what} {name}: non-finite entries")
            continue
        if not is_unitary(u, tol):
            dev = float(np.max(np.abs(u @ np.conj(u).T - np.eye(dim))))
            violations.append(f"{what} {name}: non-unitary (max deviation {dev:.3e})")
    return violations
