"""The three workloads: inputs made from the seed, the operations of one
pass, and the expected output of every operation.

Every operation builds its own ``QuantumLanguage``, supervisor and
closed loop, so no memo survives from one operation to the next.  Layer
functions are looked up on their module at call time, so the span
recorder's wrappers see every call.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

A3 = ("0", "1", "2")


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    #: Compiled size of the instance whose verdict this operation checks,
    #: when it counts towards ``rungs_decided``.
    n: int | None = None


def _expect_holds(result) -> str | None:
    return None if result.holds else f"expected holds, got counterexample {result.word!r} on {result.symbol!r}"


def _expect_witness(word, symbol):
    def check(result) -> str | None:
        if result.holds:
            return f"expected counterexample {word!r} on {symbol!r}, got holds"
        if tuple(result.word) != tuple(word) or result.symbol != symbol:
            return f"expected counterexample {word!r} on {symbol!r}, got {result.word!r} on {result.symbol!r}"
        return None

    return check


def _expect_verdict(expected):
    def check(verdict) -> str | None:
        if verdict.equivalent != expected.equivalent:
            return f"expected equivalent={expected.equivalent}, got {verdict.equivalent}"
        if not verdict.equivalent and tuple(verdict.counterexample) != tuple(expected.counterexample):
            return f"expected counterexample {expected.counterexample!r}, got {verdict.counterexample!r}"
        return None

    return check


def _expect_equal(expected, what: str):
    def check(result) -> str | None:
        return None if result == expected else f"expected {what} {expected!r}, got {result!r}"

    return check


def retarget(q, target, state: str, symbol: str, dead: str):
    """Copy of a hybrid automaton with one transition redirected to the dead state."""
    transitions = dict(target.transitions)
    transitions[(state, symbol)] = dead
    return q.models.Qfac(
        classical_states=target.classical_states,
        alphabet=target.alphabet,
        initial_classical=target.initial_classical,
        initial_quantum=target.initial_quantum,
        transitions=transitions,
        unitaries=target.unitaries,
        accepting=target.accepting,
    )


def words_upto(alphabet, length: int) -> list[tuple[str, ...]]:
    return [w for n in range(length + 1) for w in itertools.product(alphabet, repeat=n)]


# --------------------------------------------------------------------------
# exact: in-process exact decisions


def setup_exact(q, seed: int) -> dict:
    fx, sup, eqv, comp = q.fixtures, q.supervisory, q.equivalence, q.composition
    lang = sup.QuantumLanguage.from_automaton
    spec3 = sup.ControlSpec(A3, frozenset({"2"}), frozenset({"0", "1"}))
    spec2 = sup.ControlSpec(("0", "1"), frozenset({"1"}), frozenset({"0"}))

    eg1 = [fx.build_eg1(2, 0.95, seed=seed + k) for k in range(3)]
    egadd = fx.build_egadd(4, 0.98, seed=seed)
    eg2 = fx.build_eg2(2, 0.5)
    eg1_t = [fx.build_spec_variant(p, p.classical_states[-1]) for p in eg1]
    egadd_t = fx.build_spec_variant(egadd, egadd.classical_states[-1])
    eg2_t = fx.build_eg2_spec(eg2)

    # Three eg1 holding instances (fixture seeds seed..seed+2) make the
    # slowest operation class 3 of 40 per pass, so p95 sits inside it.
    holding = [(f"eg1-N2-s{seed + k}", eg1_t[k], eg1[k], spec3) for k in range(3)]
    holding += [(f"egadd-N4-s{seed}", egadd_t, egadd, spec3), ("eg2-N2", eg2_t, eg2, spec2)]
    holding = [(name, t, p, spec, max(compile_n(q, t), compile_n(q, p))) for name, t, p, spec in holding]

    violations = []
    for name, plant, target in ((f"eg1-N2-s{seed}", eg1[0], eg1_t[0]), (f"egadd-N4-s{seed}", egadd, egadd_t)):
        dead = plant.classical_states[-1]
        for k in range(4):
            v = retarget(q, target, f"s{k}", "0", dead)
            oracle = sup.check_controllability_exhaustive(lang(v), lang(plant), spec3, 6)
            if oracle.holds or len(oracle.word) != k:
                raise RuntimeError(f"violating target {name}/s{k} has oracle answer {oracle}")
            violations.append((f"{name}-cut-s{k}", v, plant, spec3, oracle.word, oracle.symbol))

    # Seeded random eg2 cases in the style of acceptance criterion 07.
    rng = np.random.default_rng(seed)
    random_cases = []
    for i in range(20):
        n_param = int(rng.integers(1, 4))
        plant = fx.build_eg2(n_param, float(rng.uniform(0.3, 0.7)))
        if i % 5 == 4:
            target, unc = fx.build_eg2_spec(plant), "1"
        elif i % 2 == 0:
            target, unc = fx.build_eg2_spec(plant), "0"
        else:
            target, unc = plant, "0"
        spec = sup.ControlSpec(("0", "1"), frozenset({"0", "1"}) - {unc}, frozenset({unc}))
        oracle = sup.check_controllability_exhaustive(lang(target), lang(plant), spec, 6)
        random_cases.append((f"eg2-rand{i}-N{n_param}", target, plant, spec, oracle))

    def brute(a, b):
        compile_ = compiler(q, a)
        return eqv.k_equiv_bruteforce(compile_(a), compile_(b), 3)

    equiv_pairs = [
        ("qfac-eg1-self", "equiv_qfac", eg1[0], eg1[0]),
        ("qfac-eg1-variant", "equiv_qfac", eg1[0], eg1_t[0]),
        ("qfac-egadd-self", "equiv_qfac", egadd, egadd),
        ("qfac-egadd-variant", "equiv_qfac", egadd, egadd_t),
        ("mm-eg2-self", "equiv_mm_qfa", eg2, eg2),
        ("mm-eg2-variant", "equiv_mm_qfa", eg2, eg2_t),
    ]
    equiv_pairs = [(label, fn, a, b, brute(a, b)) for label, fn, a, b in equiv_pairs]

    # Composition is commutative up to state naming: compose one way in
    # the operation, compare against the other order built here.
    swapped = comp.parallel_qfac(egadd, eg1[0])
    composed_expected = brute(comp.parallel_qfac(eg1[0], egadd), swapped)
    return {
        "holding": holding, "violations": violations, "random": random_cases,
        "equiv": equiv_pairs, "compose": (eg1[0], egadd, swapped, composed_expected),
    }


def ops_exact(q, st: dict) -> list[Op]:
    sup, eqv, comp = q.supervisory, q.equivalence, q.composition
    ops = []
    for name, target, plant, spec, n in st["holding"]:
        ops.append(Op("hold", f"hold:{name}", lambda t=target, p=plant, s=spec: sup.decide_controllability(t, p, s),
                      _expect_holds, n))
    for name, target, plant, spec, word, symbol in st["violations"]:
        ops.append(Op("violation", f"violation:{name}", lambda t=target, p=plant, s=spec: sup.decide_controllability(t, p, s),
                      _expect_witness(word, symbol)))
    for name, target, plant, spec, oracle in st["random"]:
        check = _expect_holds if oracle.holds else _expect_witness(oracle.word, oracle.symbol)
        ops.append(Op("random", f"random:{name}", lambda t=target, p=plant, s=spec: sup.decide_controllability(t, p, s), check))
    for label, fn, a, b, expected in st["equiv"]:
        ops.append(Op("equiv", f"equiv:{label}", lambda f=fn, a=a, b=b: getattr(eqv, f)(a, b), _expect_verdict(expected)))
    left, right, swapped, expected = st["compose"]
    ops.append(Op("compose", "compose:eg1xegadd",
                  lambda: eqv.equiv_qfac(comp.parallel_qfac(left, right), swapped), _expect_verdict(expected)))
    return ops


# --------------------------------------------------------------------------
# sweep: horizon-bounded oracles and direct evaluator scans

EG1_EPS = 0.95


def isolation_spec(q, egadd):
    """Control spec for the marking checks with an isolation band no plant value falls in.

    Off 0 and 1, the zero-imbalance plant takes values only on words
    whose 0/1-substring has length exactly N, one value per zero count,
    and which values depends on the fixture seed.  The band is centred
    at half the smallest of them, so 0 is outside and every other value
    inside for every seed.
    """
    n_param = len(egadd.classical_states) - 2
    values = [q.models.qfac_accept_prob(egadd, tuple("0" * z + "1" * (n_param - z))) for z in range(n_param + 1)]
    smallest = min(v for v in values if v > 1e-9)
    return q.supervisory.ControlSpec(A3, frozenset({"2"}), frozenset({"0", "1"}),
                                     cutpoint=smallest / 2, isolation=0.45 * smallest)


def eg1_expected(word, n_param: int = 2):
    """Halves-sum language: exact value, or the certified bound it stays under."""
    x = [c for c in word if c != "2"]
    if len(x) != 2 * n_param:
        return 1.0 if len(x) < 2 * n_param else 0.0
    a, b = int("".join(x[:n_param]), 2), int("".join(x[n_param:]), 2)
    return 1.0 if a + b == 2 ** n_param - 1 else None


def _check_eg1_scan(words):
    def check(values) -> str | None:
        for w, v in zip(words, values):
            exact = eg1_expected(w)
            if exact is None:
                if not (-1e-9 <= v < EG1_EPS):
                    return f"value {v} on {''.join(w)!r} outside [0, {EG1_EPS})"
            elif abs(v - exact) > 1e-9:
                return f"value {v} on {''.join(w)!r}, expected {exact}"
        return None

    return check


def _check_decay_scan(words, rate: float):
    def check(values) -> str | None:
        for w, v in zip(words, values):
            exact = (1.0 - rate) ** w.count("0")
            if abs(v - exact) > 1e-9:
                return f"value {v} on {''.join(w)!r}, expected {exact}"
        return None

    return check


def setup_sweep(q, seed: int) -> dict:
    fx, sup, blm = q.fixtures, q.supervisory, q.blm
    # Two eg1 fixture seeds give four ~0.3 s oracle operations per pass,
    # the block the p75 tail falls in.
    eg1 = [fx.build_eg1(2, EG1_EPS, seed=seed + k) for k in range(2)]
    egadd = fx.build_egadd(4, 0.98, seed=seed)
    decay = fx.build_eg2(5, 0.5)
    words_mm = words_upto(("0", "1"), 12)
    return {
        "n": {"eg1": compile_n(q, eg1[0]), "egadd": compile_n(q, egadd), "decay": compile_n(q, decay)},
        "eg1": [(f"eg1-s{seed + k}", p, fx.build_spec_variant(p, p.classical_states[-1])) for k, p in enumerate(eg1)],
        "egadd": egadd, "egadd_t": fx.build_spec_variant(egadd, egadd.classical_states[-1]),
        "spec3": sup.ControlSpec(A3, frozenset({"2"}), frozenset({"0", "1"})),
        "speci": isolation_spec(q, egadd),
        "decay": decay, "decay_rate": fx.eg2_rate(5, 0.5),
        # Interleaved, so every chunk has the same mix of word lengths.
        "mm_chunks": [words_mm[i::6] for i in range(6)],
        "words_q": words_upto(A3, 8),
        "b1": blm.compile_qfac_to_rblm(eg1[0]), "b1_again": blm.compile_qfac_to_rblm(eg1[0]),
    }


def ops_sweep(q, st: dict) -> list[Op]:
    sup, eqv, models, blm = q.supervisory, q.equivalence, q.models, q.blm

    def lang(a):
        return sup.QuantumLanguage.from_automaton(a)

    egadd, egadd_t = st["egadd"], st["egadd_t"]
    spec3, speci, n = st["spec3"], st["speci"], st["n"]
    ops = []
    for name, p, t in st["eg1"]:
        ops.append(Op("exhaustive", f"exhaustive:{name}-h7",
                      lambda p=p, t=t: sup.check_controllability_exhaustive(lang(t), lang(p), spec3, 7),
                      _expect_holds, n["eg1"]))
        ops.append(Op("preconditions", f"preconditions:{name}-h7",
                      lambda p=p, t=t: sup.check_decision_preconditions(lang(t), lang(p), spec3, 7),
                      _expect_equal([], "problems"), n["eg1"]))
    for h in (4, 5):
        ops.append(Op("marking", f"marking:egadd-h{h}",
                      lambda h=h: sup.check_marking_conditions(lang(egadd_t), lang(egadd), speci, h), _expect_holds,
                      n["egadd"]))
    ops.append(Op("nonblocking", "nonblocking:egadd-h8",
                  lambda: sup.check_nonblocking(sup.ClosedLoop(sup.synthesize_supervisor(lang(egadd), lang(egadd_t), speci)),
                                                speci.cutpoint, speci.isolation, 8),
                  _expect_equal(True, "nonblocking"), n["egadd"]))
    ops.append(Op("admissible", "admissible:egadd-h7",
                  lambda: sup.check_admissible(sup.synthesize_supervisor(lang(egadd), lang(egadd_t), speci), 7),
                  _expect_equal([], "violations"), n["egadd"]))
    ops.append(Op("kequiv", "kequiv:eg1-k7", lambda: eqv.k_equiv_bruteforce(st["b1"], st["b1_again"], 7),
                  lambda v: None if v.equivalent else f"expected equivalent, got {v.counterexample!r}", n["eg1"]))
    decay, rate = st["decay"], st["decay_rate"]
    for i, chunk in enumerate(st["mm_chunks"]):
        ops.append(Op("mm-scan", f"mm-scan:eg2-N5-part{i}", lambda c=chunk: [models.mm_accept_prob(decay, w) for w in c],
                      _check_decay_scan(chunk, rate), n["decay"]))
    words, eg1 = st["words_q"], st["eg1"][0][1]
    ops.append(Op("qfac-scan", "qfac-scan:eg1-len8", lambda: [models.qfac_accept_prob(eg1, w) for w in words],
                  _check_eg1_scan(words), n["eg1"]))
    b1 = st["b1"]
    ops.append(Op("blm-scan", "blm-scan:eg1-len8", lambda: [blm.blm_eval(b1, w) for w in words],
                  _check_eg1_scan(words), n["eg1"]))
    return ops


# --------------------------------------------------------------------------
# ladder: the qdes CLI end to end, one capped child at a time


@dataclass
class Rung:
    family: str
    n_param: int
    param: float  # epsilon for eg1/egadd, the cut-point for eg2

    @property
    def name(self) -> str:
        return f"{self.family}-N{self.n_param}-{self.param:g}"


RUNGS = (
    Rung("eg1", 1, 0.95), Rung("eg1", 1, 0.5), Rung("eg1", 2, 0.95), Rung("eg1", 2, 0.5),
    Rung("eg1", 3, 0.95), Rung("eg1", 3, 0.5), Rung("egadd", 4, 0.98), Rung("egadd", 4, 0.5),
    Rung("egadd", 6, 0.98), Rung("egadd", 6, 0.5), Rung("eg2", 2, 0.5),
)

#: The rungs the seed code decides.  CLI latency is timed on these only,
#: so deciding a new, larger rung cannot read as a slowdown.
BASE_RUNGS = ("eg1-N1-0.95", "eg1-N2-0.95", "egadd-N4-0.98", "eg2-N2-0.5")


def build_rung(q, rung: Rung, seed: int):
    fx = q.fixtures
    if rung.family == "eg2":
        plant = fx.build_eg2(rung.n_param, rung.param)
        return plant, fx.build_eg2_spec(plant), "0"
    build = fx.build_eg1 if rung.family == "eg1" else fx.build_egadd
    plant = build(rung.n_param, rung.param, seed=seed)
    return plant, fx.build_spec_variant(plant, plant.classical_states[-1]), "0,1"


def compiler(q, automaton):
    """The qdes compiler for a hybrid or a measure-many automaton."""
    return q.blm.compile_qfac_to_rblm if isinstance(automaton, q.models.Qfac) else q.blm.compile_mm_to_rblm


def compile_n(q, automaton) -> int:
    return compiler(q, automaton)(automaton).n


def setup_ladder(q, seed: int, work: Path) -> dict:
    rng = np.random.default_rng(seed)
    rungs = {}
    for rung in RUNGS:
        plant, target, unc = build_rung(q, rung, seed)
        plant_path, target_path = work / f"{rung.name}.plant.json", work / f"{rung.name}.target.json"
        q.serialize.save(plant, plant_path)
        q.serialize.save(target, target_path)
        word = "".join(rng.choice(plant.alphabet, size=4))
        if isinstance(plant, q.models.Qfac):
            value = q.models.qfac_accept_prob(plant, tuple(word))
        else:
            value = q.models.mm_accept_prob(plant, tuple(word))
        n = compile_n(q, plant)
        rungs[rung.name] = {
            "n": n, "plant": str(plant_path), "target": str(target_path), "unc": unc,
            "word": word, "value": value,
            # The target kills the controllable event, so the first word they differ on is that event.
            "counterexample": "1" if rung.family == "eg2" else "2",
            "dense_states_per_side": 2 * n * n,
            "dense_gib_per_matrix": (2 * n * n) ** 2 * 16 / 1024 ** 3,
        }
    return rungs


def cli_calls(info: dict) -> list[tuple[str, list[str], Callable[[dict], str | None]]]:
    """The four CLI calls of one rung, each with the check of its JSON document."""

    def check_decide(doc):
        if "holds" not in doc or "counterexample" not in doc or "symbol" not in doc:
            return f"decision document lacks holds/counterexample/symbol: {sorted(doc)}"
        return None if doc["holds"] is True else f"expected holds, got {doc.get('counterexample')!r} on {doc.get('symbol')!r}"

    def check_validate(doc):
        return None if doc.get("valid") is True and doc.get("violations") == [] else f"expected a valid document, got {doc}"

    def check_prob(doc):
        value = doc.get("value")
        if not isinstance(value, (int, float)) or abs(value - info["value"]) > 1e-12:
            return f"expected value {info['value']!r}, got {value!r}"
        return None

    def check_equiv(doc):
        if doc.get("equivalent") is not False or doc.get("counterexample") != info["counterexample"]:
            return f"expected counterexample {info['counterexample']!r}, got {doc}"
        return None

    return [
        ("decide", ["decide-controllability", info["plant"], info["target"], "--uncontrollable", info["unc"]], check_decide),
        ("validate", ["validate", info["plant"]], check_validate),
        ("prob", ["prob", info["plant"], info["word"]], check_prob),
        ("equiv", ["equiv", info["plant"], info["target"]], check_equiv),
    ]
