"""Parallel composition of plants.

Quantum plants over a shared alphabet compose by tensoring every
component; the composite acceptance probability is the product of the
component probabilities.  Alphabets are compared as sets, and the
composite reads the first plant's symbol order.  Plants with classical
states, hybrid automata and DFAs, compose to the accessible part of
their product, as in classical DES (G1 || G2 = Ac(G1 x G2)): one search
keeps the pairs reachable from the initial pair, in the order of the
first plant's states, then the second's, and one namer writes each pair
as ``(p,q)``.  DFAs may have different alphabets: a shared event moves
both components, a private event only its own.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Sequence

from .linalg import Projector, tensor
from .models import Dfa, MoQfa, Qfac

Pair = tuple[str, str]


def _pair_name(p: str, q: str) -> str:
    r"""``(p,q)``, with ``\`` and ``,`` backslash-escaped inside each name,
    so no two pairs share a name; names without them stay as they are.

    >>> print(_pair_name("a,b", "a"), _pair_name("a", "b,a"), _pair_name("a", "b"))
    (a\,b,a) (a,b\,a) (a,b)
    """
    p, q = (s.replace("\\", "\\\\").replace(",", "\\,") for s in (p, q))
    return f"({p},{q})"


def _accessible_pairs(states1: Sequence[str], states2: Sequence[str], start: Pair, alphabet: Sequence[str],
                      step: Callable[[Pair, str], Pair]) -> tuple[list[Pair], dict[Pair, str]]:
    """The pairs reachable from ``start`` under ``step``, and their names.

    A breadth-first search over ``step(pair, symbol)``; the pairs come
    out in the all-pairs order of ``states1``, then ``states2``.
    """
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
    return pairs, {p: _pair_name(*p) for p in pairs}


def parallel_dfa(d1: Dfa, d2: Dfa) -> Dfa:
    """Parallel composition of DFAs over the union of their alphabets.

    A shared event moves both components and a private event moves only
    its own, so the composite accepts a word exactly when each component
    accepts the word's restriction to its own alphabet.  Only the pairs
    reachable from the initial pair become states; a counter composed
    with itself stays on the diagonal, and a private event interleaves:

    >>> from qdes.fixtures import dfa_bounded_zeros
    >>> d = dfa_bounded_zeros(1)
    >>> parallel_dfa(d, d).states
    ('(z0,z0)', '(z1,z1)', '(dead,dead)')
    >>> flip = Dfa(("u", "v"), ("x",), {("u", "x"): "v", ("v", "x"): "u"}, "u", frozenset({"u"}))
    >>> both = parallel_dfa(d, flip)
    >>> both.alphabet, both.transitions[("(z0,u)", "x")], both.transitions[("(z0,u)", "0")]
    (('0', '1', 'x'), '(z0,v)', '(z1,u)')
    """
    alphabet = tuple(dict.fromkeys((*d1.alphabet, *d2.alphabet)))
    own1, own2 = set(d1.alphabet), set(d2.alphabet)

    def step(pair: Pair, a: str) -> Pair:
        p, q = pair
        return (d1.transitions[(p, a)] if a in own1 else p, d2.transitions[(q, a)] if a in own2 else q)

    pairs, name = _accessible_pairs(d1.states, d2.states, (d1.initial, d2.initial), alphabet, step)
    return Dfa(
        states=tuple(name[p] for p in pairs),
        alphabet=alphabet,
        transitions={(name[p], a): name[step(p, a)] for p in pairs for a in alphabet},
        initial=name[(d1.initial, d2.initial)],
        accepting=frozenset(name[(p, q)] for p, q in pairs if p in d1.accepting and q in d2.accepting),
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
    the classical pairs reachable from the initial pair are kept, in the
    all-pairs order of ``m1``'s states, then ``m2``'s; no word reaches
    the others, so no acceptance probability changes.  The two counters below read the
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

    def step(pair: Pair, a: str) -> Pair:
        return m1.transitions[(pair[0], a)], m2.transitions[(pair[1], a)]

    pairs, name = _accessible_pairs(m1.classical_states, m2.classical_states, start, alphabet, step)
    stacks = {
        a: tensor([m1.unitaries[(s1, a)] for s1, _ in pairs], [m2.unitaries[(s2, a)] for _, s2 in pairs])
        for a in alphabet
    }
    return Qfac(
        classical_states=tuple(name[p] for p in pairs),
        alphabet=alphabet,
        initial_classical=name[start],
        initial_quantum=tensor(m1.initial_quantum, m2.initial_quantum),
        transitions={(name[p], a): name[step(p, a)] for p in pairs for a in alphabet},
        unitaries={(name[p], a): stacks[a][i] for i, p in enumerate(pairs) for a in alphabet},
        accepting={name[p]: _product_projector(m1.accepting[p[0]], m2.accepting[p[1]]) for p in pairs},
    )
