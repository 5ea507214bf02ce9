"""Per-layer probe: each layer timed on its own, on fixed instances.

Every traced run reports the same per-layer metrics, whichever workload
it ran, so a later change can be traced to the layer it moved.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
from common import Tally
from workloads import A3, RUNGS, build_rung, compiler, isolation_spec, words_upto

#: Ladder outcome of a decision, as a number.
OUTCOME_CODES = {"decided": 0, "refused": 1, "memory-cap": 2, "time-cap": 3, "crash": 4, "wrong-verdict": 5}

#: Holding instances whose decision is split per uncontrollable event.
EVENT_INSTANCES = (("eg1-N2", "eg1", 2, 0.95), ("egadd-N4", "egadd", 4, 0.98))


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _median_time(fn, repeats: int) -> float:
    return statistics.median(_timed(fn)[0] for _ in range(repeats))


class Probe:
    """Collects per-layer metrics; a probe step that raises is a failed operation."""

    def __init__(self, tally: Tally):
        self.metrics: dict[str, dict] = {}
        self.tally = tally

    def put(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def step(self, label: str, fn) -> None:
        try:
            problem = fn()
        except Exception as exc:  # a layer that broke is reported, and the probe goes on
            problem = f"{type(exc).__name__}: {exc}"
        self.tally.record(f"probe:{label}", problem)


def run_probe(q, root: Path, work: Path, seed: int, tally: Tally, rung_decisions: dict) -> dict[str, dict]:
    """Measure every per-layer metric.  ``rung_decisions`` maps a rung name
    to (outcome, seconds, rss_mb) of its capped CLI decision."""
    fx, models, blm, eqv, sup, comp, ser = (q.fixtures, q.models, q.blm, q.equivalence, q.supervisory,
                                            q.composition, q.serialize)
    probe = Probe(tally)
    lang = sup.QuantumLanguage.from_automaton

    def rungs():
        for rung in RUNGS:
            dt, (plant, _, _) = _timed(lambda: build_rung(q, rung, seed))
            probe.put(f"fixtures.build_s.{rung.name}", dt, "s")
            dt, machine = _timed(lambda: compiler(q, plant)(plant))
            probe.put(f"blm.compile_s.{rung.name}", dt, "s")
            probe.put(f"blm.compile_n.{rung.name}", machine.n, "count")

    probe.step("fixtures+compile", rungs)

    eg1 = fx.build_eg1(2, 0.95, seed=seed)
    egadd = fx.build_egadd(4, 0.98, seed=seed)
    egadd_t = fx.build_spec_variant(egadd, egadd.classical_states[-1])

    def evaluators():
        probe.put("models.validate_s", _median_time(lambda: models.validate(eg1), 5), "s")
        decay = fx.build_eg2(5, 0.5)
        words = words_upto(("0", "1"), 10)
        dt, _ = _timed(lambda: [models.mm_accept_prob(decay, w) for w in words])
        probe.put("models.mm_eval_us", dt / len(words) * 1e6, "us")
        words = words_upto(A3, 6)
        dt, _ = _timed(lambda: [models.qfac_accept_prob(eg1, w) for w in words])
        probe.put("models.qfac_eval_us", dt / len(words) * 1e6, "us")
        core = fx.build_af_modp(11, 0.95, seed=seed)
        words = words_upto(("0",), 12) * 100
        dt, _ = _timed(lambda: [models.mo_accept_prob(core, w) for w in words])
        probe.put("models.mo_eval_us", dt / len(words) * 1e6, "us")

    probe.step("evaluators", evaluators)

    def events():
        tracer = spans.Tracer()
        tracer.install()
        try:
            for label, family, n_param, eps in EVENT_INSTANCES:
                build = fx.build_eg1 if family == "eg1" else fx.build_egadd
                plant = build(n_param, eps, seed=seed)
                target = fx.build_spec_variant(plant, plant.classical_states[-1])
                for sigma in ("0", "1"):
                    spec = sup.ControlSpec(A3, frozenset(A3) - {sigma}, frozenset({sigma}))
                    tracer.clear()
                    result = sup.decide_controllability(target, plant, spec)
                    if not result.holds:
                        return f"{label} event {sigma}: expected holds, got {result.word!r}"
                    _event_metrics(probe, tracer.spans, f"{label}.{sigma}", label)
        finally:
            tracer.uninstall()
        return None

    probe.step("events", events)

    def sweeps():
        b1, b2 = blm.compile_qfac_to_rblm(eg1), blm.compile_qfac_to_rblm(eg1)
        dt, _ = _timed(lambda: eqv.k_equiv_bruteforce(b1, b2, 6))
        probe.put("blm.eval_us", dt / (2 * len(words_upto(A3, 6))) * 1e6, "us")
        eg1_t = fx.build_spec_variant(eg1, eg1.classical_states[-1])
        spec3 = sup.ControlSpec(A3, frozenset({"2"}), frozenset({"0", "1"}))
        speci = isolation_spec(q, egadd)
        histories = len(words_upto(A3, 6))
        dt, r = _timed(lambda: sup.check_controllability_exhaustive(lang(eg1_t), lang(eg1), spec3, 6))
        probe.put("supervisory.exhaustive_words_per_s", histories / dt, "1/s")
        dt, _ = _timed(lambda: sup.check_decision_preconditions(lang(eg1_t), lang(eg1), spec3, 6))
        probe.put("supervisory.preconditions_words_per_s", histories / dt, "1/s")
        dt, _ = _timed(lambda: sup.check_admissible(sup.synthesize_supervisor(lang(egadd), lang(egadd_t), speci), 6))
        probe.put("supervisory.admissible_words_per_s", histories / dt, "1/s")
        dt, m = _timed(lambda: sup.check_marking_conditions(lang(egadd_t), lang(egadd), speci, 4))
        probe.put("supervisory.marking_s", dt, "s")
        loop = lambda: sup.ClosedLoop(sup.synthesize_supervisor(lang(egadd), lang(egadd_t), speci))
        dt, nb = _timed(lambda: sup.check_nonblocking(loop(), speci.cutpoint, speci.isolation, 7))
        probe.put("supervisory.nonblocking_s", dt, "s")
        if not (r.holds and m.holds and nb):
            return f"sweep verdicts changed: exhaustive {r.holds}, marking {m.holds}, nonblocking {nb}"
        return None

    probe.step("sweeps", sweeps)

    def composition():
        probe.put("composition.compose_s", _median_time(lambda: comp.parallel_qfac(eg1, egadd), 5), "s")
        probe.put("composition.compose_n", blm.compile_qfac_to_rblm(comp.parallel_qfac(eg1, egadd)).n, "count")

    probe.step("composition", composition)

    def serialize():
        path = work / "probe.plant.json"
        probe.put("serialize.save_s", _median_time(lambda: ser.save(eg1, path), 5), "s")
        probe.put("serialize.doc_bytes", path.stat().st_size, "B")
        probe.put("serialize.load_s", _median_time(lambda: ser.load(path), 5), "s")

    probe.step("serialize", serialize)

    def cli_import():
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        cmd = [sys.executable, "-c", "import qdes.cli"]
        probe.put("cli.import_s", _median_time(lambda: subprocess.run(cmd, env=env, cwd=root, check=True), 3), "s")

    probe.step("cli-import", cli_import)

    for rung in RUNGS:
        outcome, seconds, rss = rung_decisions[rung.name]
        probe.put(f"cli.rung_s.{rung.name}", seconds, "s")
        probe.put(f"cli.rung_rss_mb.{rung.name}", rss, "MB")
        probe.put(f"cli.rung_outcome.{rung.name}", OUTCOME_CODES[outcome], "code")
    return probe.metrics


def _event_metrics(probe: Probe, recs: list[list], key: str, instance: str) -> None:
    """Split one single-event decision into product construction and span exploration."""
    decide = next(i for i, r in enumerate(recs) if r[0] == "supervisory.decide_controllability")
    product = sum(r[2] - r[1] for r in recs
                  if r[3] == decide and r[0] in ("blm.blm_tensor", "blm.blm_direct_sum", "blm.absorb_symbol"))
    probe.put(f"supervisory.decide_event_s.{key}", recs[decide][2] - recs[decide][1], "s")
    probe.put(f"blm.product_s.{key}", product, "s")
    probe.put(f"linalg.tensor_s.{key}", sum(r[2] - r[1] for r in recs if r[0] == "linalg.tensor"), "s")
    probe.put(f"linalg.direct_sum_s.{key}", sum(r[2] - r[1] for r in recs if r[0] == "linalg.direct_sum"), "s")

    units = {"equiv_s": "s", "visited_dim": "count", "matvecs": "count", "bytes": "B", "insertions_per_pop": "ratio"}
    equiv = next((r for r in recs if r[0] == "equivalence.equiv_rblm"), None)
    if equiv is None:  # equiv_rblm is absent: not measurable, reported as -1
        n_side, values = -1, dict.fromkeys(units, -1)
    else:
        n_side, visited, symbols = equiv[4]["n1"], equiv[4]["visited_dim"], equiv[4]["symbols"]
        matvecs = 2 * symbols * visited
        values = {
            "equiv_s": equiv[2] - equiv[1], "visited_dim": visited, "matvecs": matvecs,
            "bytes": matvecs * n_side * n_side * 16,
            # A holding verdict pops the root and every child of an insertion.
            "insertions_per_pop": visited / (1 + symbols * visited),
        }
    for name, unit in units.items():
        probe.put(f"equivalence.{name}.{key}", values[name], unit)
    probe.put(f"blm.product_n.{instance}", n_side, "count")
