"""In-memory span recorder around the public functions of the qdes layers.

Each wrapped call records one span: name, start, end and the index of
the enclosing span.  A layer's self time is the time its spans cover
minus the time covered by their child spans.  Installing the recorder
rebinds every qdes module attribute that refers to a wrapped function,
so names a module imported from another layer (``supervisory`` calling
``equiv_rblm``, ``blm`` calling ``linalg.tensor``) are timed as well.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

#: Layer boundaries, by defining module.  Names missing from their
#: module are reported as absent instead of failing the run.
WRAPPED = {
    "fixtures": ("build_af_modp", "build_eg1", "build_egadd", "build_eg2", "build_eg2_spec", "build_spec_variant"),
    "models": ("validate", "mm_accept_prob", "qfac_accept_prob", "mo_accept_prob"),
    "linalg": ("tensor", "direct_sum"),
    "blm": (
        "blm_eval", "blm_tensor", "blm_direct_sum", "absorb_symbol",
        "compile_mm_to_rblm", "compile_qfac_to_rblm", "rblm_probability",
    ),
    "equivalence": ("equiv_rblm", "k_equiv_bruteforce", "equiv_qfac", "equiv_mm_qfa"),
    "supervisory": (
        "decide_controllability", "check_controllability_exhaustive", "check_decision_preconditions",
        "check_admissible", "check_marking_conditions", "check_nonblocking", "prefix_sup",
        "synthesize_supervisor",
    ),
    "composition": ("parallel_qfac",),
    "serialize": ("load", "save", "to_document", "from_document"),
}

#: Program layers whose self time is reported, in report order.
LAYERS = ("models", "linalg", "blm", "equivalence", "supervisory", "composition", "serialize")


def _equiv_attrs(args, kwargs, result):
    b1, b2 = args[0], args[1]
    return {
        "n1": int(b1.n), "n2": int(b2.n), "symbols": len(b1.alphabet),
        "visited_dim": int(result.visited_dim), "equivalent": bool(result.equivalent),
    }


#: Span attributes read from the arguments and the result of a call.
ATTRS = {"equivalence.equiv_rblm": _equiv_attrs}


class Tracer:
    """Span recorder; ``install`` wraps the layer functions, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _enter(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _exit(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._enter(name)
        try:
            yield rec
        finally:
            self._exit(rec)

    def _wrap(self, name: str, fn):
        enter, leave, attrs = self._enter, self._exit, ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(rec)
            if attrs is not None:
                rec[4] = attrs(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items()) if m is not None and (key == "qdes" or key.startswith("qdes."))]
        self.absent = absent_names()
        for layer, names in WRAPPED.items():
            home = sys.modules.get(f"qdes.{layer}")
            for fname in names:
                if f"{layer}.{fname}" in self.absent:
                    continue
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def clear(self) -> None:
        self.spans.clear()

    def self_times(self, roots=None) -> dict[str, float]:
        """Self time per span name, over the spans under ``roots`` (all spans if None)."""
        spans = self.spans
        keep = None
        if roots is not None:
            keep = set(roots)
            for i, rec in enumerate(spans):
                if rec[3] in keep:
                    keep.add(i)
        child = defaultdict(float)
        for i, rec in enumerate(spans):
            if rec[3] >= 0 and (keep is None or i in keep):
                child[rec[3]] += rec[2] - rec[1]
        out = defaultdict(float)
        for i, rec in enumerate(spans):
            if keep is None or i in keep:
                out[rec[0]] += (rec[2] - rec[1]) - child[i]
        return dict(out)

    def dump(self, path) -> None:
        """Write the spans as JSON lines: name, start, end, parent, attributes."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def absent_names() -> list[str]:
    """Wrapped names that the imported qdes modules no longer define."""
    return [f"{layer}.{fname}" for layer, names in WRAPPED.items() for fname in names
            if not callable(getattr(sys.modules.get(f"qdes.{layer}"), fname, None))]


def load_spans(path) -> list[list]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def by_layer(self_times: dict[str, float]) -> dict[str, float]:
    out = defaultdict(float)
    for name, t in self_times.items():
        out[layer_of(name)] += t
    return dict(out)
