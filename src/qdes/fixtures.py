"""Reference automata used across the test-suite and the CLI.

The quantum fixtures all derive from one primitive: a measure-once
automaton over the single-letter alphabet {0} whose acceptance
probability on 0^t is exactly 1 when a prime p divides t and certified
below a chosen bound otherwise.  It is built from d two-dimensional
rotation blocks with angles 2*pi*k_j/p, rotated so the initial state is
the first basis vector; the multipliers k_j come from a seeded random
search and the error bound is certified by an exhaustive sweep over all
residues, never assumed.

On top of it sit the three plant families:

* ``build_eg1``    -- hybrid acceptor of words whose 0/1-substring is
  shorter than 2N, or has length exactly 2N with the two binary halves
  summing to 2^N - 1 (exponential classical state blow-up for DFA).
* ``build_egadd``  -- hybrid acceptor of words whose 0/1-substring is
  shorter than N, or has length N with the number of zeros different
  from N/2 (quadratic DFA blow-up).
* ``build_eg2``    -- three-state measure-many acceptor of words with at
  most N zeros, acceptance (1-r)^{#zeros} (linear DFA blow-up).

eg1 and egadd are one construction, a classical counter over the 0/1
symbols that measures the mod-p core at one length; their tracking DFAs
are one layered (length, value) counter.  These and a minimal-DFA size
oracle provide the state-complexity baselines.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import cache, partial

import numpy as np

from .linalg import Projector, dagger, projected_norm_sq, unitary_power
from .models import Dfa, MmQfa, MoQfa, Qfac, _reachable, mo_accept_prob


class FixtureSearchError(RuntimeError):
    """A randomized fixture search exhausted its retry budget."""


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def first_prime_in(lo: int, hi: int) -> int:
    """Smallest prime strictly between lo and hi."""
    for n in range(lo + 1, hi):
        if is_prime(n):
            return n
    raise ValueError(f"no prime in the open interval ({lo}, {hi})")


def eg1_prime(n_param: int) -> int:
    return first_prime_in(2 ** (n_param + 1), 2 ** (n_param + 2))


def egadd_prime(n_param: int) -> int:
    return first_prime_in(n_param * n_param, 2 * n_param * n_param)


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _householder_from_e0(target: np.ndarray) -> np.ndarray:
    """Real orthogonal matrix mapping e0 to ``target`` (a real unit vector)."""
    e0 = np.zeros_like(target)
    e0[0] = 1.0
    u = target - e0
    nrm = np.linalg.norm(u)
    if nrm < 1e-14:
        return np.eye(target.shape[0])
    u = u / nrm
    return np.eye(target.shape[0]) - 2.0 * np.outer(u, u)


def _block_rotation_automaton(p: int, ks: np.ndarray, accept_multiples: bool) -> MoQfa:
    d = len(ks)
    dim = 2 * d
    blocks = np.zeros((dim, dim), dtype=complex)
    for j, k in enumerate(ks):
        blocks[2 * j: 2 * j + 2, 2 * j: 2 * j + 2] = _rotation(2.0 * math.pi * k / p)
    psi = np.zeros(dim)
    psi[0::2] = 1.0 / math.sqrt(d)
    v = _householder_from_e0(psi)
    # Conjugating moves the uniform start state onto e0, so the
    # accepting set can stay a plain basis-index set.
    u0 = v.T @ blocks @ v
    initial = np.zeros(dim, dtype=complex)
    initial[0] = 1.0
    accepting = Projector(frozenset({0}), dim)
    if not accept_multiples:
        accepting = accepting.complement()
    return MoQfa(
        alphabet=("0",),
        unitaries={"0": u0.astype(complex)},
        initial=initial,
        accepting=accepting,
        rejecting=accepting.complement(),
    )


def residue_sweep(m: MoQfa, p: int) -> list[float]:
    """Acceptance probability of 0^t for every residue t in 1..p-1."""
    probs = []
    v = np.asarray(m.initial, dtype=complex)
    u = m.unitaries["0"]
    for _ in range(1, p):
        v = u @ v
        probs.append(projected_norm_sq(m.accepting, v))
    return probs


#: The search limits of ``build_af_modp``: blocks, and seeded draws per block count.
AF_MODP_MAX_BLOCKS = 64
AF_MODP_TRIES_PER_BLOCK = 500


def _worst_residue(p: int, ks: np.ndarray):
    """The certificate on the candidate multipliers ``ks``: the largest squared
    mean of cos(2 pi k t / p) over the residues t = 1 .. p-1, one row per t.
    ``ks`` is one candidate (d,), or a stack (tries, d) of them with one
    value each; every candidate goes through the same expression."""
    amp = np.cos(2.0 * math.pi * ks[..., None, :] * np.arange(1, p)[:, None] / p).mean(axis=-1)
    return (amp * amp).max(axis=-1)


#: Bytes of the certificate's (tries, p - 1, d) cosine table per chunk of tries.
_AF_MODP_CHUNK_BYTES = 64 << 20


def _af_modp_candidates(rng: np.random.Generator, p: int, d: int, eps: float):
    """The tries of ``d`` multipliers that pass the certificate, in draw order:
    the first alone, then, only if the caller asks for more, the rest in
    consecutive chunks whose cosine tables take about
    ``_AF_MODP_CHUNK_BYTES`` each.  Each try is one draw, so the generator's
    stream is one try at a time's."""
    def draw() -> np.ndarray:
        if d <= p - 1:
            return rng.choice(np.arange(1, p), size=d, replace=False)
        return rng.integers(1, p, size=d)

    first = draw()
    if _worst_residue(p, first) < eps:
        yield first
    chunk = max(1, _AF_MODP_CHUNK_BYTES // (8 * (p - 1) * d))
    for done in range(1, AF_MODP_TRIES_PER_BLOCK, chunk):
        rest = np.array([draw() for _ in range(min(chunk, AF_MODP_TRIES_PER_BLOCK - done))])
        yield from rest[_worst_residue(p, rest) < eps]


def build_af_modp(p: int, eps: float, seed: int = 0, accept_multiples: bool = True) -> MoQfa:
    """Mod-p rotation automaton over {0} with a certified error bound.

    With ``accept_multiples`` the automaton accepts 0^t with probability
    exactly 1 when p | t and strictly below ``eps`` otherwise; with the
    flag off the roles flip (probability 0 at multiples, above 1 - eps
    elsewhere).  The block count grows from 1 until a seeded random draw
    of multipliers passes the exhaustive residue sweep; the sweep is the
    certificate.  U(0)^p = I holds structurally since every block's
    order divides p.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if not (0.0 < eps < 1.0):
        raise ValueError("error bound must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    for d in range(1, AF_MODP_MAX_BLOCKS + 1):
        for ks in _af_modp_candidates(rng, p, d, eps):
            m = _block_rotation_automaton(p, ks, accept_multiples)
            # Re-certify on the built matrices, not just the formula.
            sweep = residue_sweep(m, p)
            if accept_multiples:
                ok = max(sweep) < eps
            else:
                ok = min(sweep) > 1.0 - eps
            period = unitary_power(m.unitaries["0"], p)
            ok = ok and float(np.max(np.abs(period - np.eye(2 * d)))) <= 1e-9
            if ok:
                return m
    raise FixtureSearchError(
        f"no multiplier set certified eps={eps} for p={p} within {AF_MODP_MAX_BLOCKS} blocks"
    )


def _counter_qfac(core: MoQfa, counted: int, unitary, initial: np.ndarray) -> Qfac:
    """Hybrid counter over {0, 1, 2} that measures the mod-p ``core`` after ``counted`` 0/1 symbols.

    States ``s0 .. s(counted+1)``: on 0 and 1 state i moves one state on
    (the last, dead state absorbs) and applies ``unitary(i, sym)``; 2 is
    a self-loop under the identity.  The first ``counted`` states accept
    fully, ``s(counted)`` measures with ``core.accepting``, dead rejects.
    """
    dim = core.dim
    states = tuple(f"s{i}" for i in range(counted + 2))
    identity = np.eye(dim, dtype=complex)
    transitions, unitaries = {}, {}
    for i, s in enumerate(states):
        transitions[(s, "2")] = s
        unitaries[(s, "2")] = identity
        for sym in ("0", "1"):
            transitions[(s, sym)] = states[min(i + 1, counted + 1)]
            unitaries[(s, sym)] = unitary(i, sym)
    accepting = {s: Projector.full(dim) for s in states[:counted]}
    accepting[states[counted]] = core.accepting
    accepting[states[-1]] = Projector.empty(dim)
    return Qfac(
        classical_states=states,
        alphabet=("0", "1", "2"),
        initial_classical=states[0],
        initial_quantum=initial,
        transitions=transitions,
        unitaries=unitaries,
        accepting=accepting,
    )


def build_eg1(n_param: int, eps: float, seed: int = 0) -> Qfac:
    """Hybrid acceptor of the halves-sum language over {0, 1, 2}.

    Words whose 0/1-substring is shorter than 2N are accepted exactly;
    longer ones are rejected exactly; at length exactly 2N the two
    binary halves x, y are accepted with probability 1 when
    x + y = 2^N - 1 and below ``eps`` otherwise.  Symbol 2 is neutral.
    2N+2 classical states; the quantum dimension is whatever the mod-p
    certificate needed.
    """
    if n_param < 1:
        raise ValueError("N must be at least 1")
    p = eg1_prime(n_param)
    core = build_af_modp(p, eps, seed)
    power = cache(partial(unitary_power, core.unitaries["0"]))

    def bit(i: int, sym: str) -> np.ndarray:
        # bit i of the two halves, weighted by its place value; past 2N the identity
        return power(int(sym) * 2 ** (n_param - 1 - i % n_param) if i < 2 * n_param else 0)

    return _counter_qfac(core, 2 * n_param, bit, power(p - 2 ** n_param + 1) @ core.initial)


def build_egadd(n_param: int, eps: float, seed: int = 0) -> Qfac:
    """Hybrid acceptor of the zero-imbalance language over {0, 1, 2}.

    Words whose 0/1-substring is shorter than N are accepted exactly;
    longer ones rejected exactly; at length exactly N the probability is
    exactly 0 when the zero count is N/2 and above 1 - eps otherwise.
    N+2 classical states; reading 0 advances the rotation by N/2 steps,
    reading 1 undoes N/2 steps, so the final rotation count is
    (zeros - N/2) * N, divisible by p only when it is zero.
    """
    if n_param < 2 or n_param % 2 != 0:
        raise ValueError("N must be even and at least 2")
    p = egadd_prime(n_param)
    core = build_af_modp(p, eps, seed, accept_multiples=False)
    forward = unitary_power(core.unitaries["0"], n_param // 2)
    step = {"0": forward, "1": dagger(forward)}
    return _counter_qfac(core, n_param, lambda i, sym: step[sym], np.asarray(core.initial, dtype=complex))


def eg2_rate(n_param: int, cutpoint: float) -> float:
    """Decay rate for the bounded-zeros acceptor: midpoint of the valid interval.

    The interval [1 - cutpoint^(1/(N+1)), 1 - cutpoint^(1/N)) makes
    (1-r)^N exceed the cut-point while (1-r)^(N+1) stays at or below it.
    The midpoint is checked against both, so a cut-point at which the two
    ends round together is refused rather than given a rate that breaks them.
    """
    if n_param < 1:
        raise ValueError("N must be at least 1")
    if not (0.0 < cutpoint < 1.0):
        raise ValueError("cut-point must lie strictly between 0 and 1")
    lo = 1.0 - cutpoint ** (1.0 / (n_param + 1))
    hi = 1.0 - cutpoint ** (1.0 / n_param)
    r = 0.5 * (lo + hi)
    if not ((1.0 - r) ** n_param > cutpoint >= (1.0 - r) ** (n_param + 1)):
        raise ValueError(f"no decay rate separates {n_param} zeros from {n_param + 1} at cut-point {cutpoint!r}")
    return r


def build_eg2(n_param: int, cutpoint: float) -> MmQfa:
    """Three-state measure-many acceptor of words with at most N zeros.

    Acceptance is (1-r)^m for a word with m zeros: each 0 leaks mass r
    from the going state into the rejecting state, 1 leaves the state
    untouched, and the end marker moves the surviving mass into the
    accepting state.
    """
    r = eg2_rate(n_param, cutpoint)
    u0 = np.array(
        [
            [math.sqrt(1.0 - r), -math.sqrt(r), 0.0],
            [math.sqrt(r), math.sqrt(1.0 - r), 0.0],
            [0.0, 0.0, 1.0],
        ],
        dtype=complex,
    )
    u_end = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)
    return MmQfa(
        alphabet=("0", "1"),
        unitaries={"0": u0, "1": np.eye(3, dtype=complex), "$": u_end},
        initial=np.array([1.0, 0.0, 0.0], dtype=complex),
        accepting=Projector(frozenset({2}), 3),
        rejecting=Projector(frozenset({1}), 3),
        going=Projector(frozenset({0}), 3),
    )


def build_eg2_spec(m: MmQfa) -> MmQfa:
    """Restriction of the bounded-zeros acceptor that kills words containing 1.

    Replaces U(1) = I by the swap of the going and rejecting states, so
    any 1 moves the surviving mass into the rejecting state and the word
    function vanishes on every word with a 1 in it.
    """
    swap = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
    return replace(m, unitaries={**m.unitaries, "1": swap})


def build_spec_variant(fixture: Qfac, dead_state: str, symbol: str = "2") -> Qfac:
    """Retarget every ``symbol`` transition to an identically-rejecting state.

    The result generates the same word function on symbol-free words and
    0 on any word containing the symbol, so it is the fixture restricted
    to the symbol-free words.  That needs a dead state that rejects
    identically and absorbs every event in the result; any other is
    refused.  The stock fixtures' last state is one.
    """
    if dead_state not in fixture.classical_states:
        raise ValueError(f"unknown classical state {dead_state!r}")
    if fixture.accepting[dead_state].subset != frozenset():
        raise ValueError(f"state {dead_state!r} does not reject identically")
    if any(fixture.transitions[(dead_state, a)] != dead_state for a in fixture.alphabet if a != symbol):
        raise ValueError(f"state {dead_state!r} does not absorb")
    retargeted = {(s, symbol): dead_state for s in fixture.classical_states}
    return replace(fixture, transitions={**fixture.transitions, **retargeted})


def dfa_bounded_zeros(n_param: int) -> Dfa:
    """Counting DFA for words over {0, 1} with at most N zeros (N+2 states)."""
    states = tuple(f"z{i}" for i in range(n_param + 1)) + ("dead",)
    transitions = {("dead", a): "dead" for a in ("0", "1")}
    for i in range(n_param + 1):
        transitions[(f"z{i}", "1")] = f"z{i}"
        transitions[(f"z{i}", "0")] = f"z{i + 1}" if i < n_param else "dead"
    return Dfa(
        states=states,
        alphabet=("0", "1"),
        transitions=transitions,
        initial="z0",
        accepting=frozenset(states[:-1]),
    )


def _layered_dfa(depth: int, step, accept_last, letter: str) -> Dfa:
    """Unminimized DFA over {0, 1} that tracks (length, value) for ``depth`` symbols.

    States ``l<i><letter><v>``, each level in increasing value order, then
    ``dead``.  Level 0 holds value 0; symbol a at level i moves value v to
    ``step(i, v, a)`` one level up, and the last level moves to ``dead``.
    Every state below the last level accepts; a last-level state accepts
    when ``accept_last(v)``.
    """
    levels = [[0]]
    for i in range(depth):
        levels.append(sorted({step(i, v, a) for v in levels[i] for a in ("0", "1")}))
    names = {(i, v): f"l{i}{letter}{v}" for i, values in enumerate(levels) for v in values}
    transitions = {("dead", a): "dead" for a in ("0", "1")}
    for (i, v), s in names.items():
        for a in ("0", "1"):
            transitions[(s, a)] = names[i + 1, step(i, v, a)] if i < depth else "dead"
    return Dfa(
        states=(*names.values(), "dead"),
        alphabet=("0", "1"),
        transitions=transitions,
        initial=names[0, 0],
        accepting=frozenset(s for (i, v), s in names.items() if i < depth or accept_last(v)),
    )


def dfa_halves_sum_tracking(n_param: int) -> Dfa:
    """Prefix-sum tracking DFA for the halves-sum language restricted to {0, 1}.

    States record (length so far, weighted bit sum so far); words longer
    than 2N fall into a dead state.  Deliberately unminimized; feed it
    to ``minimal_dfa_size`` for the lower-bound counts.
    """
    return _layered_dfa(
        2 * n_param,
        lambda i, v, a: v + int(a) * 2 ** (n_param - 1 - i % n_param),
        lambda v: v == 2 ** n_param - 1,
        "v",
    )


def dfa_zero_imbalance_tracking(n_param: int) -> Dfa:
    """Prefix tracking DFA for the zero-imbalance language restricted to {0, 1}:
    states record (length so far, zeros so far)."""
    return _layered_dfa(n_param, lambda i, z, a: z + (a == "0"), lambda z: z != n_param // 2, "z")


def minimal_dfa_size(d: Dfa) -> int:
    """Number of states of the minimal DFA: reachable trim, then partition refinement."""
    reachable = _reachable([d.initial], lambda q: (d.transitions[(q, a)] for a in d.alphabet))
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


def fact2_witness(m: MoQfa, s, sigma: str, tol: float = 1e-9, cap: int = 100_000) -> int:
    """Smallest k >= 1 with |prob(s sigma^k) - prob(s)| <= tol.

    For measure-once automata such a k always exists because unitary
    powers return arbitrarily close to the identity; it is what makes
    prefix-closed languages out of reach for this model.  Rational
    rotations return exactly (k = rotation order); irrational ones at
    tight tolerances may exceed ``cap``, which is reported, not hidden.
    """
    if sigma not in m.alphabet:
        raise ValueError(f"symbol {sigma!r} not in alphabet")
    base = mo_accept_prob(m, s)
    v = np.asarray(m.initial, dtype=complex)
    for sym in s:
        v = m.unitaries[sym] @ v
    u = m.unitaries[sigma]
    for k in range(1, cap + 1):
        v = u @ v
        if abs(projected_norm_sq(m.accepting, v) - base) <= tol:
            return k
    raise FixtureSearchError(f"no probability return within {cap} repetitions at tol {tol}")
