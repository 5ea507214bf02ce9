"""Command-line interface: one decision or computation per invocation.

Every subcommand reads automaton files, writes one canonical JSON result
document to standard output, and exits 0 when the query was decided or
computed, 1 when a checked property fails or a counterexample was found,
and 2 on input errors and on computations it cannot finish (out of
memory, a value inside an isolation band, a probability outside [0, 1],
a fixture search that certifies no automaton).  A usage error, such as
a missing argument, an unknown flag or an option value that starts with
``-`` and is not a plain decimal (write ``--lambda=-1e-3``), is an input
error too: one ``{"error": ...}`` document, and exit 2.
``QDES_TOL`` overrides the default tolerance of commands that take one;
a tolerance that is not finite and positive is an input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures, serialize
from .blm import evaluator
from .composition import parallel_dfa, parallel_mo, parallel_qfac
from .equivalence import DEFAULT_EQUIV_TOL, check_tol, equiv, k_equiv_bruteforce
from .models import Dfa, MmQfa, MoQfa, Qfac, _mm_accept_prob_products
from .supervisory import (
    ClosedLoop,
    ControlSpec,
    QuantumLanguage,
    check_controllability_exhaustive,
    check_marking_conditions,
    check_nonblocking,
    decide_controllability,
    synthesize_supervisor,
)


def _tolerance(text: str | None) -> float:
    """``--tol``, else ``QDES_TOL``, else the default; refused unless finite and positive."""
    if text is None:
        text = os.environ.get("QDES_TOL") or None
    tol = DEFAULT_EQUIV_TOL if text is None else float(text)
    check_tol(tol)
    return tol


def _emit(doc) -> None:
    sys.stdout.write(serialize.canonical_json(doc))


def _word_str(w) -> str | None:
    if w is None:
        return None
    return ",".join(w) if any(len(s) != 1 for s in w) else "".join(w)


def cmd_validate(args) -> int:
    problems = []
    try:
        serialize.load(args.file)
    except serialize.ValidationFailedError as e:
        problems = e.violations
    _emit({"file": args.file, "valid": not problems, "violations": problems})
    return 0 if not problems else 1


def cmd_prob(args) -> int:
    automaton = serialize.load(args.file)
    word = serialize.parse_word(args.word, automaton.alphabet)
    doc = {"file": args.file, "word": args.word, "value": evaluator(automaton)(word)}
    if args.model_check and isinstance(automaton, MmQfa):
        alt = _mm_accept_prob_products(automaton, word)
        doc["value_product_form"] = alt
        doc["forms_agree"] = bool(abs(doc["value"] - alt) <= 1e-12)
        if not doc["forms_agree"]:
            _emit(doc)
            return 1
    _emit(doc)
    return 0


def cmd_equiv(args) -> int:
    a1, a2 = serialize.load(args.file1), serialize.load(args.file2)
    if args.brute_k is not None:
        verdict = k_equiv_bruteforce(a1, a2, args.brute_k, args.tol)
    else:
        verdict = equiv(a1, a2, args.tol)
    doc = {
        "equivalent": verdict.equivalent,
        "counterexample": _word_str(verdict.counterexample),
        "f1": verdict.f1,
        "f2": verdict.f2,
        "visited_dim": verdict.visited_dim,
        "word_bound": verdict.word_bound,
    }
    _emit(doc)
    return 0 if verdict.equivalent else 1


def cmd_compose(args) -> int:
    a = serialize.load(args.file1)
    b = serialize.load(args.file2)
    compose = {Dfa: parallel_dfa, MoQfa: parallel_mo, Qfac: parallel_qfac}.get(type(a))
    if compose is None or type(b) is not type(a):
        raise ValueError("compose supports two dfa, two mo-qfa or two qfac documents")
    _emit(serialize.to_document(compose(a, b)))
    return 0


def _load_spec(plant, uncontrollable_text: str, cutpoint=0.0, isolation=None) -> ControlSpec:
    alphabet = tuple(plant.alphabet)
    unc = frozenset(s for s in uncontrollable_text.split(",") if s)
    unknown = unc - set(alphabet)
    if unknown:
        raise ValueError(f"uncontrollable events {sorted(unknown)} not in alphabet")
    return ControlSpec(
        alphabet=alphabet,
        controllable=frozenset(alphabet) - unc,
        uncontrollable=unc,
        cutpoint=cutpoint,
        isolation=isolation,
    )


def cmd_decide_controllability(args) -> int:
    plant = serialize.load(args.plant)
    target = serialize.load(args.target)
    spec = _load_spec(plant, args.uncontrollable)
    result = decide_controllability(target, plant, spec, tol=args.tol)
    doc = {
        "holds": result.holds,
        "symbol": result.symbol,
        "counterexample": _word_str(result.word),
        "lhs": result.lhs,
        "rhs": result.rhs,
        "witness_confirmed": result.confirmed,
        "assumes": list(result.assumes),
    }
    if args.oracle_horizon is not None:
        oracle = check_controllability_exhaustive(
            QuantumLanguage.from_automaton(target),
            QuantumLanguage.from_automaton(plant),
            spec,
            args.oracle_horizon,
        )
        doc["oracle_holds"] = oracle.holds
        doc["oracle_symbol"] = oracle.symbol
        doc["oracle_counterexample"] = _word_str(oracle.word)
        if oracle.holds and not result.holds and len(result.word) > args.oracle_horizon:
            doc["oracle_agrees"] = None  # the oracle sweeps no history longer than its horizon
        else:
            # two failures agree only on the same witness: the decision promises the oracle's
            doc["oracle_agrees"] = ((oracle.holds, oracle.word, oracle.symbol)
                                    == (result.holds, result.word, result.symbol))
    _emit(doc)
    return 0 if result.holds and doc.get("oracle_agrees") is not False else 1


def cmd_simulate_loop(args) -> int:
    plant_aut = serialize.load(args.plant)
    target_aut = serialize.load(args.target)
    plant = QuantumLanguage.from_automaton(plant_aut)
    target = QuantumLanguage.from_automaton(target_aut)
    spec = _load_spec(plant_aut, args.uncontrollable)
    word = serialize.parse_word(args.word, plant.alphabet)
    loop = ClosedLoop(synthesize_supervisor(plant, target, spec))
    steps = []
    for i in range(len(word) + 1):
        prefix = word[:i]
        steps.append(
            {
                "prefix": _word_str(prefix) or "",
                "closed_loop": loop.value(prefix),
                "plant": plant(prefix),
                "enablement": {
                    sym: loop.supervisor.enablement(prefix, sym) for sym in plant.alphabet
                },
            }
        )
    _emit({"word": args.word, "steps": steps})
    return 0


def cmd_check_marking(args) -> int:
    plant_aut = serialize.load(args.plant)
    target_aut = serialize.load(args.spec_file)
    plant = QuantumLanguage.from_automaton(plant_aut)
    target = QuantumLanguage.from_automaton(target_aut)
    spec = _load_spec(
        plant_aut, args.uncontrollable, cutpoint=args.cut_lambda, isolation=args.rho
    )
    marking = check_marking_conditions(target, plant, spec, args.horizon)
    loop = ClosedLoop(synthesize_supervisor(plant, target, spec))
    nonblocking = check_nonblocking(loop, args.cut_lambda, args.rho, args.horizon)
    doc = {
        "marking_holds": marking.holds,
        "failed_condition": marking.condition,
        "failure_word": _word_str(marking.word),
        "nonblocking": nonblocking,
    }
    _emit(doc)
    return 0 if marking.holds and nonblocking else 1


def cmd_example(args) -> int:
    name = args.name
    doc_extra = {}
    if name == "eg1":
        automaton = fixtures.build_eg1(args.N, args.epsilon, seed=args.seed)
        doc_extra["prime"] = fixtures.eg1_prime(args.N)
    elif name == "egadd":
        automaton = fixtures.build_egadd(args.N, args.epsilon, seed=args.seed)
        doc_extra["prime"] = fixtures.egadd_prime(args.N)
    elif name == "eg2":
        automaton = fixtures.build_eg2(args.N, args.cut_lambda)
        doc_extra["rate"] = fixtures.eg2_rate(args.N, args.cut_lambda)
    elif name == "af-modp":
        automaton = fixtures.build_af_modp(args.N, args.epsilon, seed=args.seed)
        doc_extra["prime"] = args.N
    else:
        raise ValueError(f"unknown example {name!r}")
    serialize.save(automaton, args.output)
    doc = {"example": name, "path": args.output, "kind": serialize.to_document(automaton)["kind"]}
    if hasattr(automaton, "dim"):
        doc["dim"] = automaton.dim
    if isinstance(automaton, Qfac):
        doc["classical_states"] = len(automaton.classical_states)
    doc.update(doc_extra)
    _emit(doc)
    return 0


def cmd_minimize_dfa(args) -> int:
    automaton = serialize.load(args.file)
    if not isinstance(automaton, Dfa):
        raise ValueError("minimize-dfa expects a dfa document")
    _emit({"file": args.file, "minimal_states": fixtures.minimal_dfa_size(automaton)})
    return 0


class _Parser(argparse.ArgumentParser):
    """An argument parser that reports a usage error as the other input
    errors are reported, one ``{"error": ...}`` document on standard
    output, with the usage line on standard error, and exits 2.
    Subcommand parsers are of the same class, so they report the same way."""

    def error(self, message):
        _emit({"error": f"ArgumentError: {self.prog}: {message}"})
        self.print_usage(sys.stderr)
        self.exit(2)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qdes", description="Quantum discrete event systems toolbox"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an automaton document's invariants")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("prob", help="acceptance probability of a word")
    p.add_argument("file")
    p.add_argument("word")
    p.add_argument("--model-check", action="store_true", help="cross-check both measure-many forms")
    p.set_defaults(fn=cmd_prob)

    p = sub.add_parser("equiv", help="decide word-function equivalence")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--tol")
    p.add_argument("--brute-k", type=int, default=None,
                   help="exhaustive comparison of direct evaluator values up to length K")
    p.set_defaults(fn=cmd_equiv)

    p = sub.add_parser("compose", help="parallel composition of two plants")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("decide-controllability", help="exact controllability decision")
    p.add_argument("plant")
    p.add_argument("target")
    p.add_argument("--uncontrollable", required=True, help="comma-separated events")
    p.add_argument("--tol")
    p.add_argument("--oracle-horizon", type=int, default=None,
                   help="also sweep exhaustively to this depth and compare verdicts and witnesses "
                        "(agreement is null when the decision's witness is longer)")
    p.set_defaults(fn=cmd_decide_controllability)

    p = sub.add_parser("simulate-loop", help="closed-loop values along a word")
    p.add_argument("plant")
    p.add_argument("target")
    p.add_argument("--uncontrollable", required=True)
    p.add_argument("--word", required=True)
    p.set_defaults(fn=cmd_simulate_loop)

    p = sub.add_parser("check-marking", help="marked-control conditions and nonblocking")
    p.add_argument("plant")
    p.add_argument("spec_file")
    p.add_argument("--lambda", dest="cut_lambda", type=float, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--uncontrollable", required=True)
    p.set_defaults(fn=cmd_check_marking)

    p = sub.add_parser("example", help="write a stock fixture to a file")
    p.add_argument("name", choices=["eg1", "egadd", "eg2", "af-modp"])
    p.add_argument("--N", type=int, required=True, help="size parameter (the prime itself for af-modp)")
    p.add_argument("--epsilon", type=float, default=0.3)
    p.add_argument("--lambda", dest="cut_lambda", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("minimize-dfa", help="minimal state count of a dfa")
    p.add_argument("file")
    p.set_defaults(fn=cmd_minimize_dfa)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if "tol" in vars(args):
            args.tol = _tolerance(args.tol)
        return args.fn(args)
    except (FileNotFoundError, json.JSONDecodeError, serialize.SerializationError,
            serialize.ValidationFailedError, ValueError, TypeError, KeyError,
            ArithmeticError, MemoryError, RecursionError, fixtures.FixtureSearchError) as e:
        _emit({"error": f"{type(e).__name__}: {e}"})
        return 2


if __name__ == "__main__":
    sys.exit(main())
