"""Parallel composition of plants.

Quantum plants over a shared alphabet compose by tensoring every
component; the composite acceptance probability is the product of the
component probabilities.  Alphabets are compared as sets, and the
composite reads the first plant's symbol order.  Hybrid plants compose
to the accessible part of their product, as in classical DES
(G1 || G2 = Ac(G1 x G2)): only the classical pairs reachable from the
initial pair become states.  Classical automata compose in matrix form
over possibly different alphabets: shared events tensor both transition
matrices, private events tensor with an identity factor; that product
keeps every pair.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .linalg import Projector, tensor
from .models import Dfa, MoQfa, Qfac


@dataclass(frozen=True, eq=False)
class ClassicalMatrixAutomaton:
    """Finite automaton in 0/1 matrix form.

    States are basis vectors; entry (i, j) of an event matrix is 1 iff
    the event moves state i to state j.  Indicator vectors are rows and
    multiply from the left, so nondeterministic automata fit too.
    """

    n: int
    alphabet: tuple[str, ...]
    matrices: Mapping[str, np.ndarray]
    initial: np.ndarray
    marked: np.ndarray

    @classmethod
    def from_dfa(cls, d: Dfa) -> "ClassicalMatrixAutomaton":
        index = {q: i for i, q in enumerate(d.states)}
        n = len(d.states)
        matrices = {}
        for a in d.alphabet:
            m = np.zeros((n, n), dtype=int)
            for q in d.states:
                m[index[q], index[d.transitions[(q, a)]]] = 1
            matrices[a] = m
        initial = np.zeros(n, dtype=int)
        initial[index[d.initial]] = 1
        marked = np.zeros(n, dtype=int)
        for q in d.accepting:
            marked[index[q]] = 1
        return cls(n, d.alphabet, matrices, initial, marked)

    def run_indicator(self, w: Sequence[str]) -> np.ndarray:
        """0/1 indicator of the states reachable on ``w`` (boolean semiring)."""
        v = self.initial.copy()
        for sym in w:
            if sym not in self.matrices:
                raise ValueError(f"event {sym!r} not in alphabet")
            v = (v @ self.matrices[sym] > 0).astype(int)
        return v

    def marks(self, w: Sequence[str]) -> bool:
        return bool(np.any(self.run_indicator(w) & self.marked))


def parallel_classical(
    g1: ClassicalMatrixAutomaton, g2: ClassicalMatrixAutomaton
) -> ClassicalMatrixAutomaton:
    """Matrix-form parallel composition over the union alphabet.

    Shared events synchronize (tensor of both matrices); events private
    to one component interleave (tensor with the identity of the other).
    """
    shared = set(g1.alphabet) & set(g2.alphabet)
    union = tuple(dict.fromkeys((*g1.alphabet, *g2.alphabet)))
    i1 = np.eye(g1.n, dtype=int)
    i2 = np.eye(g2.n, dtype=int)
    matrices = {}
    for a in union:
        if a in shared:
            matrices[a] = np.kron(g1.matrices[a], g2.matrices[a])
        elif a in g1.matrices:
            matrices[a] = np.kron(g1.matrices[a], i2)
        else:
            matrices[a] = np.kron(i1, g2.matrices[a])
    return ClassicalMatrixAutomaton(
        n=g1.n * g2.n,
        alphabet=union,
        matrices=matrices,
        initial=np.kron(g1.initial, g2.initial),
        marked=np.kron(g1.marked, g2.marked),
    )


def _product_projector(p1: Projector, p2: Projector) -> Projector:
    idx = {i * p2.dim + j for i in p1.subset for j in p2.subset}
    return Projector(frozenset(idx), p1.dim * p2.dim)


def _shared_alphabet(m1, m2) -> tuple[str, ...]:
    """``m1``'s alphabet, when ``m2`` reads the same symbols in any order."""
    if set(m1.alphabet) != set(m2.alphabet):
        raise ValueError("parallel composition requires a shared alphabet")
    return m1.alphabet


def parallel_mo(m1: MoQfa, m2: MoQfa) -> MoQfa:
    """Tensor composition of measure-once automata; probabilities multiply."""
    alphabet = _shared_alphabet(m1, m2)
    accepting = _product_projector(m1.accepting, m2.accepting)
    return MoQfa(
        alphabet=alphabet,
        unitaries={a: tensor(m1.unitaries[a], m2.unitaries[a]) for a in alphabet},
        initial=tensor(m1.initial, m2.initial),
        accepting=accepting,
        rejecting=accepting.complement(),
    )


def parallel_qfac(m1: Qfac, m2: Qfac) -> Qfac:
    """Tensor composition of classical-hybrid automata, on the accessible part.

    Classical states pair up, unitaries and measurements tensor, and the
    composite accepts exactly when both components accept, which makes
    the acceptance probability the product of the components'.  Only
    the pairs reachable from the initial pair are kept (a breadth-first
    search over the transition pairs), in the all-pairs order of
    ``m1``'s states, then ``m2``'s; no word reaches the others, so no
    acceptance probability changes.  The two counters below read the
    same 0/1 symbols and stay in step, so 6 of their 36 pairs remain:

    >>> from qdes.fixtures import build_eg1, build_egadd
    >>> eg1, egadd = build_eg1(2, 0.95, seed=0), build_egadd(4, 0.98, seed=0)
    >>> len(eg1.classical_states) * len(egadd.classical_states)
    36
    >>> parallel_qfac(eg1, egadd).classical_states
    ('(s0,s0)', '(s1,s1)', '(s2,s2)', '(s3,s3)', '(s4,s4)', '(s5,s5)')
    """
    alphabet = _shared_alphabet(m1, m2)
    start = (m1.initial_classical, m2.initial_classical)
    seen, queue = {start}, deque([start])
    while queue:
        s1, s2 = queue.popleft()
        for a in alphabet:
            nxt = (m1.transitions[(s1, a)], m2.transitions[(s2, a)])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    order1 = {s: i for i, s in enumerate(m1.classical_states)}
    order2 = {s: i for i, s in enumerate(m2.classical_states)}
    pairs = sorted(seen, key=lambda p: (order1[p[0]], order2[p[1]]))
    name = {p: f"({p[0]},{p[1]})" for p in pairs}
    states = tuple(name[p] for p in pairs)
    stacks = {
        a: tensor([m1.unitaries[(s1, a)] for s1, _ in pairs], [m2.unitaries[(s2, a)] for _, s2 in pairs])
        for a in alphabet
    }
    transitions, unitaries = {}, {}
    for i, (s1, s2) in enumerate(pairs):
        for a in alphabet:
            transitions[(states[i], a)] = name[(m1.transitions[(s1, a)], m2.transitions[(s2, a)])]
            unitaries[(states[i], a)] = stacks[a][i]
    return Qfac(
        classical_states=states,
        alphabet=alphabet,
        initial_classical=name[start],
        initial_quantum=tensor(m1.initial_quantum, m2.initial_quantum),
        transitions=transitions,
        unitaries=unitaries,
        accepting={name[p]: _product_projector(m1.accepting[p[0]], m2.accepting[p[1]]) for p in pairs},
    )
