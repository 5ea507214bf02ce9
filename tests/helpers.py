"""Shared generators and independent oracles for the test-suite.

Everything randomized takes an explicit numpy Generator so tests stay
reproducible; machines come out valid by construction.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import product

import numpy as np

from qdes import composition, equivalence, fixtures, supervisory
from qdes.blm import (
    REAL_TOL,
    Rblm,
    blm_eval,
    compile_mm_to_rblm,
    compile_qfac_to_rblm,
    evaluator,
    hermitian_basis,
)
from qdes.equivalence import EquivalenceVerdict, check_tol, minimize
from qdes.linalg import (
    Projector,
    all_finite,
    dagger,
    is_unitary,
    projected_norm_sq,
    projected_norms_sq,
    tensor,
    unitary_power,
)
from qdes.models import (
    END_MARKER,
    Dfa,
    MmQfa,
    MoQfa,
    Qfac,
    _as_hybrid,
    _check_symbols,
    check_horizon,
    clamp_level,
    clamp_probability,
    qfac_from_dfa,
    qfac_from_mo,
)
from qdes.serialize import KINDS, SerializationError, dumps, from_document
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


def hand_qfac(rng, d, alphabet, moves, accepting, initial="s0"):
    """A hybrid automaton on hand-given classical moves, ``{state: targets in
    alphabet order}``, with random unitaries and initial state of dimension
    ``d``; ``accepting`` maps a state to its accepting indices (default none)."""
    return Qfac(
        classical_states=tuple(moves),
        alphabet=tuple(alphabet),
        initial_classical=initial,
        initial_quantum=random_state(rng, d),
        transitions={(s, a): t for s, targets in moves.items() for a, t in zip(alphabet, targets, strict=True)},
        unitaries={(s, a): random_unitary(rng, d) for s in moves for a in alphabet},
        accepting={s: Projector(frozenset(accepting.get(s, ())), d) for s in moves},
    )


def random_live_qfac(rng, k, d, alphabet):
    """A random hybrid automaton whose every classical state accepts on a nonempty projector."""
    states = [f"s{i}" for i in range(k)]
    moves = {s: [states[i] for i in rng.integers(0, k, size=len(alphabet))] for s in states}
    accepting = {s: {int(i) for i in rng.choice(d, size=rng.integers(1, d + 1), replace=False)} for s in states}
    return hand_qfac(rng, d, alphabet, moves, accepting)


def random_dfa(rng, k, alphabet=("a", "b")):
    states = tuple(f"q{i}" for i in range(k))
    return Dfa(
        states=states,
        alphabet=tuple(alphabet),
        transitions={(q, a): states[rng.integers(0, k)] for q in states for a in alphabet},
        initial=states[0],
        accepting=frozenset(q for q in states if rng.random() < 0.5),
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


def ref_parallel_qfac(m1: Qfac, m2: Qfac) -> Qfac:
    """The all-pairs hybrid composition: every classical pair is a state,
    reachable or not, in the order of ``m1``'s states, then ``m2``'s."""
    name = {(s1, s2): f"({s1},{s2})" for s1 in m1.classical_states for s2 in m2.classical_states}
    transitions, unitaries, accepting = {}, {}, {}
    for (s1, s2), s in name.items():
        p1, p2 = m1.accepting[s1], m2.accepting[s2]
        accepting[s] = Projector(frozenset(i * p2.dim + j for i in p1.subset for j in p2.subset), p1.dim * p2.dim)
        for a in m1.alphabet:
            transitions[(s, a)] = name[(m1.transitions[(s1, a)], m2.transitions[(s2, a)])]
            unitaries[(s, a)] = tensor(m1.unitaries[(s1, a)], m2.unitaries[(s2, a)])
    return Qfac(
        classical_states=tuple(name.values()),
        alphabet=m1.alphabet,
        initial_classical=name[(m1.initial_classical, m2.initial_classical)],
        initial_quantum=tensor(m1.initial_quantum, m2.initial_quantum),
        transitions=transitions,
        unitaries=unitaries,
        accepting=accepting,
    )


def ref_parallel_dfa(d1: Dfa, d2: Dfa) -> Dfa:
    """The all-pairs DFA composition over the union alphabet: every pair is
    a state, reachable or not, in the order of ``d1``'s states, then ``d2``'s;
    an event outside a component's alphabet leaves that component where it is."""
    alphabet = tuple(dict.fromkeys((*d1.alphabet, *d2.alphabet)))
    name = {(p, q): f"({p},{q})" for p in d1.states for q in d2.states}

    def move(d, state, a):
        return d.transitions[(state, a)] if a in d.alphabet else state

    return Dfa(
        states=tuple(name.values()),
        alphabet=alphabet,
        transitions={(s, a): name[(move(d1, p, a), move(d2, q, a))] for (p, q), s in name.items() for a in alphabet},
        initial=name[(d1.initial, d2.initial)],
        accepting=frozenset(s for (p, q), s in name.items() if p in d1.accepting and q in d2.accepting),
    )


# --------------------------------------------------------------------------
# The hand-written graph walks that ``models._reachable`` replaced, one per
# classical-state question.


def ref_accessible_pairs(states1, states2, start, alphabet, step):
    """``composition._accessible_pairs`` as a breadth-first search of its own."""
    seen, queue = {start}, deque([start])
    while queue:
        pair = queue.popleft()
        for a in alphabet:
            nxt = step(pair, a)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    order1 = {s: i for i, s in enumerate(states1)}
    order2 = {s: i for i, s in enumerate(states2)}
    pairs = sorted(seen, key=lambda p: (order1[p[0]], order2[p[1]]))
    return pairs, {p: composition._pair_name(*p) for p in pairs}


def ref_live_states(m: Qfac) -> frozenset[str]:
    """``models._live_states`` as a backward search of its own from the
    states with a nonempty accepting projector."""
    preds: dict[str, set[str]] = {}
    for (s, _), t in m.transitions.items():
        preds.setdefault(t, set()).add(s)
    live = {s for s in m.classical_states if m.accepting[s].subset}
    frontier = list(live)
    while frontier:
        for s in preds.get(frontier.pop(), ()):
            if s not in live:
                live.add(s)
                frontier.append(s)
    return frozenset(live)


def ref_minimal_dfa_size(d: Dfa) -> int:
    """``fixtures.minimal_dfa_size`` with its reachable part taken by a
    depth-first search of its own."""
    reachable = {d.initial}
    stack = [d.initial]
    while stack:
        q = stack.pop()
        for a in d.alphabet:
            nxt = d.transitions[(q, a)]
            if nxt not in reachable:
                reachable.add(nxt)
                stack.append(nxt)

    accepting = frozenset(q for q in reachable if q in d.accepting)
    others = frozenset(reachable - accepting)
    partition = {p for p in (accepting, others) if p}
    worklist = set(partition)
    while worklist:
        splitter = worklist.pop()
        for a in d.alphabet:
            into = {q for q in reachable if d.transitions[(q, a)] in splitter}
            for block in list(partition):
                inside = block & into
                outside = block - into
                if inside and outside:
                    partition.remove(block)
                    partition.add(frozenset(inside))
                    partition.add(frozenset(outside))
                    if block in worklist:
                        worklist.remove(block)
                        worklist.add(frozenset(inside))
                        worklist.add(frozenset(outside))
                    else:
                        worklist.add(min(frozenset(inside), frozenset(outside), key=len))
    return len(partition)


def ref_leaves_restriction(target, plant, uncontrollable):
    """``supervisory._leaves_restriction`` with a depth-first search of its
    own that returns True at the first redirected uncontrollable pair."""
    target, plant = _as_hybrid(target), _as_hybrid(plant)
    if not (isinstance(target, Qfac) and isinstance(plant, Qfac)):
        return None
    t, p = supervisory._shape(target), supervisory._shape(plant)
    if t.fixed != p.fixed:
        return None
    redirected = {i for i, (q_t, q_p) in enumerate(zip(t.succ, p.succ)) if q_t != q_p}
    if not all(t.sink[t.succ[i]] for i in redirected):
        return None
    unc = [a in uncontrollable for a in target.alphabet]
    k = len(unc)
    seen, stack = {t.initial}, [t.initial]
    while stack:
        s = stack.pop()
        for a in range(k):
            i = s * k + a
            if i in redirected:
                if unc[a]:
                    return True
            elif t.succ[i] not in seen:
                seen.add(t.succ[i])
                stack.append(t.succ[i])
    return False


def ref_leaves_mm_restriction(target, plant, uncontrollable):
    """For two measure-many automata: None unless ``target`` is ``plant``
    restricted to the words with none of the symbols whose unitaries
    differ, else whether one of those symbols is uncontrollable.

    Written from the definition, one part and one matrix entry at a
    time: every part but some input unitaries equal bit for bit, and
    each differing unitary of the target exactly 0 from every basis
    state a run can occupy before a symbol (a going state, or one in the
    initial state's support) into every state that is not rejecting."""
    def same(a, b):
        a, b = np.asarray(a, dtype=complex), np.asarray(b, dtype=complex)
        return a.shape == b.shape and a.tobytes() == b.tobytes()

    if target.alphabet != plant.alphabet or not same(target.initial, plant.initial):
        return None
    if not same(target.unitaries[END_MARKER], plant.unitaries[END_MARKER]):
        return None
    for part in ("accepting", "rejecting", "going"):
        if getattr(target, part).subset != getattr(plant, part).subset:
            return None
    occupied = set(target.going.subset) | {j for j, x in enumerate(target.initial) if x != 0}
    outside = [i for i in range(target.dim) if i not in target.rejecting.subset]
    leaves = False
    for a in target.alphabet:
        u = target.unitaries[a]
        if same(u, plant.unitaries[a]):
            continue
        if any(u[i, j] != 0 for i in outside for j in occupied):
            return None
        leaves = leaves or a in uncontrollable
    return leaves


def killing_unitary(rng, rejecting, columns, n):
    """A random unitary that sends every basis state in ``columns`` into the
    span of the ``rejecting`` ones, which must be at least as many."""
    rows = [*sorted(rejecting), *(i for i in range(n) if i not in rejecting)]
    cols = [*sorted(columns), *(j for j in range(n) if j not in columns)]
    r = len(rejecting)
    block = np.zeros((n, n), dtype=complex)
    block[:r, :r] = random_unitary(rng, r)
    block[r:, r:] = random_unitary(rng, n - r)
    u = np.zeros((n, n), dtype=complex)
    u[np.ix_(rows, cols)] = block
    return u


def random_mm_restriction(seed, n=4, full_support=False):
    """A ``random_mm`` plant over {a, b} with at least as many rejecting as
    going states (drawn again until so), its initial state inside the
    going subspace, or of full support with ``full_support``; and the
    target that swaps one symbol's unitary (b at even seeds, a at odd
    ones) for ``killing_unitary`` on the going states.  With the initial
    state inside the going subspace the target restricts the plant to
    the words without that symbol; with full support it does not."""
    rng = np.random.default_rng(seed)
    plant = random_mm(rng, n)
    while not 1 <= len(plant.going.subset) <= len(plant.rejecting.subset):
        plant = random_mm(rng, n)
    going = sorted(plant.going.subset)
    if full_support:
        initial = random_state(rng, n)
    else:
        initial = np.zeros(n, dtype=complex)
        initial[going] = random_state(rng, len(going))
    plant = MmQfa(plant.alphabet, dict(plant.unitaries), initial, plant.accepting, plant.rejecting, plant.going)
    killed = "ab"[seed % 2]
    kill = killing_unitary(rng, plant.rejecting.subset, plant.going.subset, n)
    target = MmQfa(plant.alphabet, {**plant.unitaries, killed: kill}, initial, plant.accepting, plant.rejecting,
                   plant.going)
    return plant, target, killed


def count_reductions(monkeypatch) -> list[str]:
    """Record every ``minimize`` and ``explore_span`` call the decision makes, by name."""
    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(supervisory, "minimize", counted("minimize", supervisory.minimize))
    for module in (equivalence, supervisory):
        monkeypatch.setattr(module, "explore_span", counted("explore_span", equivalence.explore_span))
    return calls


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


def ref_decide_controllability(target, plant, spec, tol=1e-7):
    """The decision on two Kronecker states, ``(X1, X2) = (h m^T, h h^T)``,
    advanced as ``X1 <- H_a X1 M_a^T`` and ``X2 <- H_a X2 H_a^T`` and read
    per event with the two-term row of the difference between
    ``(H x M_s) + (H_s x H_s)`` and ``(H_s x M_s) + (H_s x H)``.  The
    kernel is looked up on ``equivalence`` at call time, so a test that
    wraps ``explore_span`` sees this exploration too."""
    check_tol(tol)
    h, m = minimize(target), minimize(plant)
    split = h.n * m.n

    def step(x, a):
        ha = h.matrices[a]
        x1 = ha @ x[:split].reshape(h.n, m.n) @ m.matrices[a].T
        x2 = ha @ x[split:].reshape(h.n, h.n) @ ha.T
        return np.concatenate([x1.ravel(), x2.ravel()])

    events = sorted(spec.uncontrollable)
    eta_hs = [h.eta @ h.matrices[e] for e in events]
    gaps = [np.concatenate([np.outer(h.eta - hs, m.eta @ m.matrices[e]).ravel(), np.outer(hs, hs - h.eta).ravel()])
            for e, hs in zip(events, eta_hs)]
    start = np.concatenate([np.outer(h.pi, m.pi).ravel(), np.outer(h.pi, h.pi).ravel()])
    _, hit = equivalence.explore_span(start, step, spec.alphabet, tol, np.array(gaps)) if events else (None, None)
    if hit is None:
        return ControllabilityResult(True)
    word, sigma = hit[0], events[hit[1]]
    f_target, f_plant = evaluator(target), evaluator(plant)
    ext = (*word, sigma)
    lhs, rhs = min(f_target(word), f_plant(ext)), f_target(ext)
    return ControllabilityResult(False, word, sigma, lhs, rhs, lhs - rhs > tol)


def ref_closed_loop_value(supervisor, memo, s):
    """The closed loop's min-recursion at ``s``, walking every prefix from the
    empty word: a prefix ``memo`` holds is read from it, any other is computed
    and memoized.  ``memo`` starts as ``{(): 1.0}``."""
    s = tuple(s)
    if s in memo:
        return memo[s]
    acc = memo[()]
    for i in range(len(s)):
        prefix = s[: i + 1]
        if prefix in memo:
            acc = memo[prefix]
            continue
        acc = min(acc, supervisor.plant(prefix), supervisor.enablement(s[:i], s[i]))
        memo[prefix] = acc
    return acc


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


def ref_qfac_accept_prob(m, x):
    """The hybrid evaluator's loop that reads every symbol, whatever the classical state."""
    _check_symbols(x, frozenset(m.alphabet))
    s = m.initial_classical
    v = np.asarray(m.initial_quantum, dtype=complex)
    for sym in x:
        v = m.unitaries[(s, sym)] @ v
        s = m.transitions[(s, sym)]
    return clamp_probability(projected_norm_sq(m.accepting[s], v), f"(classical-hybrid, word {''.join(x)!r})")


def ref_qfac_levels(m, alphabet, horizon):
    """The column-grouped hybrid level kernel: one quantum column per word of
    every classical state, gathered and scattered by state at each level."""
    check_horizon(horizon)
    if horizon:
        _check_symbols(alphabet, frozenset(m.alphabet))
    index = {s: i for i, s in enumerate(m.classical_states)}
    v = np.asarray(m.initial_quantum, dtype=complex)[:, None]
    cls = np.array([index[m.initial_classical]])
    for length in range(horizon + 1):
        groups = [(s, np.flatnonzero(cls == i)) for s, i in index.items()]
        groups = [(s, cols) for s, cols in groups if cols.size]
        values = np.empty(cls.size)
        for s, cols in groups:
            values[cols] = projected_norms_sq(m.accepting[s], v[:, cols])
        yield clamp_level(values, alphabet, length, "classical-hybrid")
        if length == horizon:
            return
        nv = np.empty((m.dim, cls.size, len(alphabet)), dtype=complex)
        ncls = np.empty((cls.size, len(alphabet)), dtype=cls.dtype)
        for s, cols in groups:
            block = v[:, cols]
            for j, a in enumerate(alphabet):
                nv[:, cols, j] = m.unitaries[(s, a)] @ block
                ncls[cols, j] = index[m.transitions[(s, a)]]
        v, cls = nv.reshape(m.dim, -1), ncls.ravel()


def ref_prefix_maxima(levels, depth, symbols):
    """The reshape-and-reduce lift: each round takes a row maximum over the
    ``symbols`` children of every word of the longer level."""
    sups = levels
    for _ in range(depth):
        sups = [np.maximum(f, s.reshape(f.size, symbols).max(axis=1, initial=-np.inf))
                for f, s in zip(levels, sups[1:])]
    return sups


def ref_mm_accept_prob(m, w):
    """The measure-many forward pass through ``Projector.apply`` and ``projected_norm_sq``."""
    _check_symbols(w, frozenset(m.alphabet), forbid=END_MARKER)
    total = 0.0
    going = np.asarray(m.initial, dtype=complex)
    for sym in (*w, END_MARKER):
        v = m.unitaries[sym] @ going
        total += projected_norm_sq(m.accepting, v)
        going = m.going.apply(v)
    return clamp_probability(total)


def ref_mo_accept_prob(m, w):
    """The measure-once loop on the automaton itself, without its hybrid embedding."""
    _check_symbols(w, frozenset(m.alphabet))
    v = np.asarray(m.initial, dtype=complex)
    for sym in w:
        v = m.unitaries[sym] @ v
    return clamp_probability(projected_norm_sq(m.accepting, v), f"(measure-once, word {''.join(w)!r})")


def ref_mm_levels(m, alphabet, horizon):
    """The measure-many level kernel on the raw unitaries: one product per
    symbol, then a projected-norm reduction and a go mask on its columns."""
    check_horizon(horizon)
    if horizon:
        _check_symbols(alphabet, frozenset(m.alphabet), forbid=END_MARKER)
    go_mask = np.zeros((m.dim, 1))
    go_mask[list(m.going.indices)] = 1.0
    going = np.asarray(m.initial, dtype=complex)[:, None]
    mass = np.zeros(1)
    for length in range(horizon + 1):
        if length:
            steps = [m.unitaries[a] @ going for a in alphabet]
            mass = np.stack([mass + projected_norms_sq(m.accepting, v) for v in steps], axis=1).ravel()
            going = np.stack([go_mask * v for v in steps], axis=2).reshape(m.dim, -1)
        final = projected_norms_sq(m.accepting, m.unitaries[END_MARKER] @ going)
        yield clamp_level(mass + final, alphabet, length, "measure-many")


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


def to_rblm(a) -> Rblm:
    """The dense bilinear machine of any automaton kind, the reference for
    the decisions' operator forms: the compilers' matrices, with
    measure-once automata and DFAs through their hybrid embeddings."""
    if isinstance(a, Rblm):
        return a
    if isinstance(a, MmQfa):
        return compile_mm_to_rblm(a)
    a = _as_hybrid(a)
    if isinstance(a, Qfac):
        return compile_qfac_to_rblm(a)
    raise TypeError(f"no bilinear form for {type(a).__name__}")


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
        end = matrices.pop(END_MARKER)
        return Rblm(a.alphabet, pi, matrices, eta @ end)
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


def ref_blm_eval(b, w):
    """The bilinear evaluation loop with ``@`` products: ``M(a) @ v`` per
    symbol, through the machine's own matrices, then ``eta @ v``."""
    v = np.asarray(b.pi)
    for sym in w:
        if sym not in b.alphabet:
            raise ValueError(f"symbol {sym!r} not in alphabet {sorted(set(b.alphabet))}")
        v = b.matrices[sym] @ v
    val = complex(np.asarray(b.eta) @ v)
    if abs(val.imag) > REAL_TOL:
        raise ArithmeticError(f"machine not real-valued: f({''.join(w)!r}) = {val!r}")
    return float(val.real)


def _ref_fmt_number(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if not np.isfinite(x):
        raise SerializationError(f"non-finite number {x!r} has no canonical form")
    if x == 0.0:
        return "0"
    return format(x, ".17g")


def _ref_numeric_depth(v, depth=0):
    if isinstance(v, (bool, np.bool_)):
        return None
    if isinstance(v, (int, float, np.integer, np.floating)):
        return depth
    if isinstance(v, (list, tuple)):
        worst = depth
        for item in v:
            d = _ref_numeric_depth(item, depth + 1)
            if d is None:
                return None
            worst = max(worst, d)
        return worst
    return None


def _ref_emit(v, indent):
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if v is None:
        return "null"
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (int, float, np.integer, np.floating)):
        return _ref_fmt_number(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        if not v:
            return "{}"
        parts = [f"{inner}{json.dumps(str(k))}: {_ref_emit(v[k], indent + 1)}" for k in sorted(v)]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}"
    if isinstance(v, (list, tuple)):
        if not v:
            return "[]"
        depth = _ref_numeric_depth(v)
        if depth is not None and depth <= 2:
            return "[" + ", ".join(_ref_emit(item, 0) for item in v) + "]"
        parts = [f"{inner}{_ref_emit(item, indent + 1)}" for item in v]
        return "[\n" + ",\n".join(parts) + f"\n{pad}]"
    raise SerializationError(f"cannot serialize value of type {type(v).__name__}")


def ref_canonical_json(doc):
    """The canonical emitter that measures the numeric depth of every list
    anew at each level: each nested numeric list is re-walked once per
    enclosing list."""
    return _ref_emit(doc, 0) + "\n"


def _ref_cvec(v) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(v, dtype=complex)]


def _ref_cmat(m) -> list:
    return [_ref_cvec(row) for row in np.asarray(m, dtype=complex)]


def _ref_rows(states, table, encode=lambda x: x) -> dict:
    rows: dict[str, dict] = {s: {} for s in states}
    for (s, a), x in table.items():
        rows[s][a] = encode(x)
    return rows


def ref_to_document(automaton) -> dict:
    """The document of an automaton, with each kind's layout spelled out."""
    if isinstance(automaton, Dfa):
        d = automaton
        return {"kind": "dfa", "alphabet": list(d.alphabet), "states": list(d.states), "initial": d.initial,
                "accepting": sorted(d.accepting), "transitions": _ref_rows(d.states, d.transitions)}
    if isinstance(automaton, (MoQfa, MmQfa)):
        m = automaton
        doc = {"kind": "mm-qfa" if isinstance(m, MmQfa) else "mo-qfa", "alphabet": list(m.alphabet), "dim": m.dim,
               "initial": _ref_cvec(m.initial), "unitaries": {a: _ref_cmat(u) for a, u in m.unitaries.items()},
               "accepting": list(m.accepting.indices), "rejecting": list(m.rejecting.indices)}
        if isinstance(m, MmQfa):
            doc["going"] = list(m.going.indices)
        return doc
    if isinstance(automaton, Qfac):
        m = automaton
        return {"kind": "qfac", "alphabet": list(m.alphabet), "classical_states": list(m.classical_states),
                "initial_classical": m.initial_classical, "dim": m.dim, "initial_quantum": _ref_cvec(m.initial_quantum),
                "transitions": _ref_rows(m.classical_states, m.transitions),
                "unitaries": _ref_rows(m.classical_states, m.unitaries, _ref_cmat),
                "accepting": {s: list(p.indices) for s, p in m.accepting.items()}}
    if isinstance(automaton, Rblm):
        b = automaton
        return {"kind": "rblm", "alphabet": list(b.alphabet), "n": b.n, "pi": _ref_cvec(b.pi),
                "matrices": {a: _ref_cmat(mat) for a, mat in b.matrices.items()}, "eta": _ref_cvec(b.eta)}
    raise SerializationError(f"cannot serialize objects of type {type(automaton).__name__}")



def _ref_need(doc, key, where):
    if key not in doc:
        raise SerializationError(f"{where}: missing field {key!r}")
    return doc[key]


def _ref_items(value, where):
    if not isinstance(value, dict):
        raise SerializationError(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value.items()


def _ref_table(value, where):
    return {(s, a): v for s, row in _ref_items(value, where) for a, v in _ref_items(row, f"{where} {s}")}


def _ref_int(value, where):
    if isinstance(value, bool) or not isinstance(value, int):
        raise SerializationError(f"{where}: expected a JSON integer, got {type(value).__name__}")
    return value


def _ref_names(value, where):
    if not isinstance(value, list):
        raise SerializationError(f"{where}: expected a list of strings, got {type(value).__name__}")
    for item in value:
        if not isinstance(item, str):
            raise SerializationError(f"{where}: expected a list of strings, got an entry of type {type(item).__name__}")
    return tuple(value)


def _ref_projector(indices, dim, where):
    if not isinstance(indices, list):
        raise SerializationError(f"{where}: expected a list of indices, got {type(indices).__name__}")
    return Projector(frozenset(_ref_int(i, f"{where} index") for i in indices), dim)


def _ref_parse_cvec(data, where):
    try:
        return np.array([complex(re, im) for re, im in data], dtype=complex)
    except (TypeError, ValueError) as e:
        raise SerializationError(f"{where}: expected a list of [re, im] pairs ({e})")


def _ref_parse_cmat(data, where, empty=False):
    if empty and data == []:
        return np.zeros((0, 0), dtype=complex)
    if not isinstance(data, list) or not data:
        raise SerializationError(f"{where}: expected a non-empty list of rows")
    rows = [_ref_parse_cvec(row, where) for row in data]
    if any(len(row) != len(rows[0]) for row in rows):
        raise SerializationError(f"{where}: rows of unequal length")
    return np.array(rows, dtype=complex)


def ref_from_document(doc):
    """The automaton of a document, with each kind's layout read by a
    hand-written branch of its own."""
    if not isinstance(doc, dict):
        raise SerializationError("document must be a JSON object")
    kind = _ref_need(doc, "kind", "document")
    if kind == "dfa":
        return Dfa(
            states=_ref_names(_ref_need(doc, "states", "dfa"), "dfa states"),
            alphabet=_ref_names(_ref_need(doc, "alphabet", "dfa"), "dfa alphabet"),
            transitions=_ref_table(_ref_need(doc, "transitions", "dfa"), "dfa transitions"),
            initial=_ref_need(doc, "initial", "dfa"),
            accepting=frozenset(_ref_names(_ref_need(doc, "accepting", "dfa"), "dfa accepting")),
        )
    if kind in ("mo-qfa", "mm-qfa"):
        dim = _ref_int(_ref_need(doc, "dim", kind), f"{kind} dim")
        parts = ("accepting", "rejecting", "going") if kind == "mm-qfa" else ("accepting", "rejecting")
        return (MmQfa if kind == "mm-qfa" else MoQfa)(
            alphabet=_ref_names(_ref_need(doc, "alphabet", kind), f"{kind} alphabet"),
            unitaries={a: _ref_parse_cmat(u, f"unitary {a}")
                       for a, u in _ref_items(_ref_need(doc, "unitaries", kind), f"{kind} unitaries")},
            initial=_ref_parse_cvec(_ref_need(doc, "initial", kind), "initial"),
            **{part: _ref_projector(_ref_need(doc, part, kind), dim, f"{kind} {part}") for part in parts},
        )
    if kind == "qfac":
        dim = _ref_int(_ref_need(doc, "dim", "qfac"), "qfac dim")
        transitions = _ref_table(_ref_need(doc, "transitions", "qfac"), "qfac transitions")
        unitaries = {(s, a): _ref_parse_cmat(u, f"unitary ({s},{a})")
                     for (s, a), u in _ref_table(_ref_need(doc, "unitaries", "qfac"), "qfac unitaries").items()}
        return Qfac(
            classical_states=_ref_names(_ref_need(doc, "classical_states", "qfac"), "qfac classical_states"),
            alphabet=_ref_names(_ref_need(doc, "alphabet", "qfac"), "qfac alphabet"),
            initial_classical=_ref_need(doc, "initial_classical", "qfac"),
            initial_quantum=_ref_parse_cvec(_ref_need(doc, "initial_quantum", "qfac"), "initial_quantum"),
            transitions=transitions,
            unitaries=unitaries,
            accepting={s: _ref_projector(idx, dim, f"qfac accepting {s}")
                       for s, idx in _ref_items(_ref_need(doc, "accepting", "qfac"), "qfac accepting")},
        )
    if kind == "rblm":
        if doc.get("real_valued", True) is not True:
            raise SerializationError("rblm: only real-valued machines are supported")
        alphabet = _ref_names(_ref_need(doc, "alphabet", "rblm"), "rblm alphabet")
        n = _ref_int(_ref_need(doc, "n", "rblm"), "rblm n")
        pi = _ref_parse_cvec(_ref_need(doc, "pi", "rblm"), "pi")
        matrices = {a: _ref_parse_cmat(m, f"rblm matrix {a}", empty=n == 0)
                    for a, m in _ref_items(_ref_need(doc, "matrices", "rblm"), "rblm matrices")}
        eta = _ref_parse_cvec(_ref_need(doc, "eta", "rblm"), "eta")
        for field, v in (("pi", pi), ("eta", eta)):
            if len(v) != n:
                raise SerializationError(f"rblm {field}: expected n = {n} entries, got {len(v)}")
        if sorted(matrices) != sorted(alphabet):
            raise SerializationError(
                f"rblm matrices: expected one matrix per alphabet symbol {list(alphabet)}, got {sorted(matrices)}")
        for a, m in matrices.items():
            if m.shape != (n, n):
                raise SerializationError(f"rblm matrix {a}: expected {n} x {n}, got {m.shape[0]} x {m.shape[1]}")
        if not any(np.any(x.imag) for x in (pi, eta, *matrices.values())):
            pi, eta = pi.real.copy(), eta.real.copy()
            matrices = {a: m.real.copy() for a, m in matrices.items()}
        return Rblm(alphabet, pi, matrices, eta)
    raise SerializationError(f"unknown kind {kind!r}; expected one of {KINDS}")


def assert_decoders_agree(doc):
    """``from_document`` and ``ref_from_document`` build automata whose
    ``dumps`` are byte-identical, or both refuse ``doc`` with the same
    exception type."""
    results = []
    for decode in (from_document, ref_from_document):
        try:
            results.append(dumps(decode(doc)))
        except Exception as e:
            results.append(type(e))
    assert results[0] == results[1], results

def ref_compile_mm_to_rblm(m: MmQfa) -> Rblm:
    """The measure-many machine through its working alphabet: the compiled
    step of every symbol and of the end marker, whose step is then folded
    into the final functional: ``eta @ M($)``."""
    n = m.dim
    dim = n * n + 1
    w = hermitian_basis(n)
    wh = dagger(w)
    p_go = m.going.as_matrix()
    p_acc = m.accepting.as_matrix()
    matrices = {}
    for sym in (*m.alphabet, END_MARKER):
        u = np.asarray(m.unitaries[sym], dtype=complex)
        t = np.zeros((dim, dim))
        t[: n * n, : n * n] = (w @ tensor(p_go @ u, np.conj(p_go @ u)) @ wh).real
        t[n * n, : n * n] = ((dagger(u) @ p_acc @ u).T.ravel() @ wh).real
        t[n * n, n * n] = 1.0
        matrices[sym] = t
    psi = np.asarray(m.initial, dtype=complex)
    pi = np.zeros(dim)
    pi[: n * n] = (w @ np.outer(psi, np.conj(psi)).ravel()).real
    eta = np.zeros(dim)
    eta[n * n] = 1.0
    end = matrices.pop(END_MARKER)
    return Rblm(m.alphabet, pi, matrices, eta @ end)


def ref_build_af_modp(p: int, eps: float, seed: int = 0, accept_multiples: bool = True) -> MoQfa:
    """``fixtures.build_af_modp`` as one loop: per block count, draw and
    certify one multiplier set per try, and re-certify the first that
    passes on its built matrices.  It reads the search limits from
    ``fixtures`` at call time."""
    rng = np.random.default_rng(seed)
    for d in range(1, fixtures.AF_MODP_MAX_BLOCKS + 1):
        for _ in range(fixtures.AF_MODP_TRIES_PER_BLOCK):
            if d <= p - 1:
                ks = rng.choice(np.arange(1, p), size=d, replace=False)
            else:
                ks = rng.integers(1, p, size=d)
            if fixtures._worst_residue(p, ks) >= eps:
                continue
            m = fixtures._block_rotation_automaton(p, ks, accept_multiples)
            sweep = fixtures.residue_sweep(m, p)
            ok = max(sweep) < eps if accept_multiples else min(sweep) > 1.0 - eps
            period = unitary_power(m.unitaries["0"], p)
            if ok and float(np.max(np.abs(period - np.eye(2 * d)))) <= 1e-9:
                return m
    raise fixtures.FixtureSearchError(
        f"no multiplier set certified eps={eps} for p={p} within {fixtures.AF_MODP_MAX_BLOCKS} blocks"
    )
