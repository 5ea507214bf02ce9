"""Shared pieces of the benchmark: locating the program, the run
environment, latency statistics and the capped CLI child."""

from __future__ import annotations

import ctypes
import json
import math
import os
import platform
import resource
import select
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent

#: A tail percentile must have at least this many samples beyond it.
TAIL_BEYOND = 10

#: Caps for every CLI child: address space (set with setrlimit inside
#: the child only) and wall clock.
AS_CAP_BYTES = 2 * 1024 ** 3
WALL_CAP_S = 15.0


class ProgramMissing(RuntimeError):
    """The checkout holds no qdes sources to benchmark."""


def import_program(root: Path):
    """Import qdes from ``root/src`` and nowhere else."""
    src = root / "src"
    if not (src / "qdes" / "__init__.py").is_file():
        raise ProgramMissing(f"no qdes package under {src}")
    sys.path.insert(0, str(src))
    import qdes

    if Path(qdes.__file__).resolve().parent != (src / "qdes").resolve():
        raise ProgramMissing(f"qdes imported from {qdes.__file__}, not from {src}")
    return qdes


def blas_threads() -> str:
    """Thread count the loaded OpenBLAS reports, or the environment setting."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return f"openblas:{fn()}"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        if os.environ.get(var):
            return f"{var}={os.environ[var]}"
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "seed": seed,
        "child_as_cap_bytes": AS_CAP_BYTES,
        "child_wall_cap_s": WALL_CAP_S,
        "processes": "one benchmark process, at most one CLI child alive at a time",
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def min_samples(tail_pct: float) -> int:
    """Samples needed for ``TAIL_BEYOND`` of them to lie beyond the tail percentile."""
    return math.ceil(round(TAIL_BEYOND / (1.0 - tail_pct / 100.0), 6))


def percentile(samples, p: float) -> float:
    import numpy

    return float(numpy.percentile(numpy.asarray(samples, dtype=float), p))


@dataclass
class Tally:
    """Attempted and failed operations, with the reason of each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def record(self, label: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{label}: {problem}")


def latency_summary(samples: list[float], tail_pct: float) -> dict:
    tail = percentile(samples, tail_pct)
    return {
        "count": len(samples),
        "p50_s": percentile(samples, 50.0),
        "tail_percentile": tail_pct,
        "beyond_tail": sum(t > tail for t in samples),
        "tail_s": tail,
    }


@dataclass
class ChildResult:
    seconds: float
    rss_mb: float
    exit_code: int | None
    doc: dict | None
    outcome: str  # "document", "memory-cap", "time-cap" or "crash"
    stderr_tail: str


def run_cli(root: Path, work: Path, cli_args: list[str], trace_out: Path | None = None) -> ChildResult:
    """Run ``qdes <cli_args>`` as one capped child; time spawn to parsed JSON.

    The child sets its own address-space limit before importing qdes,
    so the cap applies to the child only.  A child that leaves no JSON
    document is classified from its stderr and the wall-clock cap, not
    from its exit code.
    """
    peak_path = work / "child.peak"
    peak_path.unlink(missing_ok=True)
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(AS_CAP_BYTES), str(peak_path), str(trace_out or "-"), *cli_args]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    out_path, err_path = work / "child.out", work / "child.err"
    start = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err, stdin=subprocess.DEVNULL, env=env, cwd=root)
    pidfd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], WALL_CAP_S)
        timed_out = not ready
        if timed_out:
            peak_path.write_text(_vm_hwm(proc.pid))
            proc.kill()
        _, status = os.waitpid(proc.pid, 0)
    finally:
        os.close(pidfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    doc = None
    text = out_path.read_text(errors="replace")
    try:
        parsed = json.loads(text)
        doc = parsed if isinstance(parsed, dict) else None
    except json.JSONDecodeError:
        pass
    seconds = time.perf_counter() - start
    err_lines = [ln for ln in err_path.read_text(errors="replace").splitlines() if ln.strip()]
    stderr_tail = err_lines[-1] if err_lines else ""
    if doc is not None:
        outcome = "document"
    elif timed_out:
        outcome = "time-cap"
    elif "MemoryError" in stderr_tail:
        outcome = "memory-cap"
    else:
        outcome = "crash"
    peak = peak_path.read_text().strip() if peak_path.exists() else ""
    rss_mb = int(peak) / 1024.0 if peak.isdigit() else -1.0  # -1: the child left no reading
    return ChildResult(seconds, rss_mb, proc.returncode, doc, outcome, stderr_tail)


def _vm_hwm(pid: int) -> str:
    """Peak resident memory (KiB) of a live process, or "" if it has gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            return next((line.split()[1] for line in fh if line.startswith("VmHWM:")), "")
    except OSError:
        return ""
