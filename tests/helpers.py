"""Shared generators and independent oracles for the test-suite.

Everything randomized takes an explicit numpy Generator so tests stay
reproducible; machines come out valid by construction.
"""

from __future__ import annotations

import math
from collections import deque
from itertools import product

import numpy as np

from qdes.blm import Rblm, absorb_symbol, blm_eval
from qdes.equivalence import EquivalenceVerdict
from qdes.linalg import Projector, all_finite, is_unitary, projected_norm_sq
from qdes.models import (
    END_MARKER,
    Dfa,
    MmQfa,
    MoQfa,
    Qfac,
    _check_symbols,
    clamp_probability,
    qfac_from_dfa,
    qfac_from_mo,
)
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


def difference_machine(b1: Rblm, b2: Rblm) -> Rblm:
    """The direct sum b1 ⊕ -b2, whose word function is f1(w) - f2(w)."""
    n = b1.n + b2.n
    matrices = {}
    for a in b1.alphabet:
        block = np.zeros((n, n), dtype=complex)
        block[: b1.n, : b1.n], block[b1.n:, b1.n:] = b1.matrices[a], b2.matrices[a]
        matrices[a] = block
    return Rblm(b1.alphabet, np.concatenate([b1.pi, b2.pi]), matrices, np.concatenate([b1.eta, -np.asarray(b2.eta)]))


def refuse_to_compile(*args):
    """A stand-in for a dense compiler, for tests that show it is never called."""
    raise AssertionError("the dense compiler was called")


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


def ref_af_modp_worst(p, ks):
    """The mod-p certificate's worst squared residue amplitude, one np.mean per residue t."""
    worst = 0.0
    for t in range(1, p):
        amp = float(np.mean(np.cos(2.0 * math.pi * ks * t / p)))
        worst = max(worst, amp * amp)
    return worst


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


def ref_explore_span(start, step, alphabet, tol, functional=None):
    """The span kernel with one functional and both Gram-Schmidt passes on
    every pop; returns the basis rows and the first word with
    ``|functional @ x(w)| > tol``, or None."""
    n = start.shape[0]
    basis = np.empty((min(n, 8), n), dtype=complex)
    conj = np.empty_like(basis)
    k = 0
    queue = deque([((), start, None)])
    while queue:
        word, parent, sym = queue.popleft()
        x = parent if sym is None else step(parent, sym)
        if functional is not None and abs(complex(functional @ x)) > tol:
            return basis[:k], word
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


def ref_kernel(start, step, alphabet, tol, functionals=None):
    """``ref_explore_span`` behind ``explore_span``'s signature, for at most one row."""
    assert functionals is None or len(functionals) == 1
    basis, word = ref_explore_span(start, step, alphabet, tol, None if functionals is None else functionals[0])
    return basis, None if word is None else (word, 0)


def ref_vec_rblm(a) -> Rblm:
    """The complex128 machine of an automaton in the plain row-major vec(rho)
    coordinates, with each map as U kron conj U: for a hybrid automaton
    (measure-once automata and DFAs through their embeddings) one vec(rho)
    block per classical state, for a measure-many automaton vec(rho) and
    the accept-mass accumulator, with the end marker folded into eta."""
    if isinstance(a, (MoQfa, Dfa)):
        a = qfac_from_mo(a) if isinstance(a, MoQfa) else qfac_from_dfa(a)
    if isinstance(a, MmQfa):
        nn = a.dim * a.dim
        p_go, p_acc = a.going.as_matrix(), a.accepting.as_matrix()
        matrices = {}
        for sym in (*a.alphabet, END_MARKER):
            u = np.asarray(a.unitaries[sym], dtype=complex)
            t = np.zeros((nn + 1, nn + 1), dtype=complex)
            t[:nn, :nn] = np.kron(p_go @ u, np.conj(p_go @ u))
            t[nn, :nn] = (np.conj(u).T @ p_acc @ u).T.ravel()
            t[nn, nn] = 1.0
            matrices[sym] = t
        pi = np.zeros(nn + 1, dtype=complex)
        pi[:nn] = np.outer(a.initial, np.conj(a.initial)).ravel()
        eta = np.zeros(nn + 1, dtype=complex)
        eta[nn] = 1.0
        return absorb_symbol(Rblm((*a.alphabet, END_MARKER), pi, matrices, eta), END_MARKER)
    states, nn = a.classical_states, a.dim * a.dim
    n = len(states) * nn
    start = states.index(a.initial_classical) * nn
    pi = np.zeros(n, dtype=complex)
    pi[start:start + nn] = np.outer(a.initial_quantum, np.conj(a.initial_quantum)).ravel()
    eta = np.concatenate([a.accepting[s].as_matrix().T.ravel() for s in states])
    matrices = {}
    for sym in a.alphabet:
        t = np.zeros((n, n), dtype=complex)
        for i, s in enumerate(states):
            j = states.index(a.transitions[(s, sym)])
            u = np.asarray(a.unitaries[(s, sym)], dtype=complex)
            t[j * nn:(j + 1) * nn, i * nn:(i + 1) * nn] += np.kron(u, np.conj(u))
        matrices[sym] = t
    return Rblm(a.alphabet, pi, matrices, eta)
