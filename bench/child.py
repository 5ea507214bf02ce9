"""Run the qdes CLI in this process under an address-space cap.

Usage: child.py CAP_BYTES PEAK_OUT TRACE_OUT|- CLI_ARGS...

The cap is set before qdes (and numpy) are imported, so it applies to
everything the CLI does.  On exit, also by an exception, the child
writes its own peak resident memory (VmHWM, in KiB) to PEAK_OUT: the
parent's rusage of a child also counts the parent's memory at spawn.
With a trace path the layer functions are wrapped by the span recorder
and the spans are written there on exit.  Exit status and output are
the CLI's own.
"""

import resource
import sys


def write_peak(path: str) -> None:
    with open("/proc/self/status") as fh:
        peak = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    with open(path, "w") as out:
        out.write(peak)


def run_cli(trace_out: str, cli_args: list[str]) -> int:
    from qdes import cli

    if trace_out == "-":
        return cli.main(cli_args)

    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(trace_out)


def main() -> int:
    cap, peak_out, trace_out, cli_args = int(sys.argv[1]), sys.argv[2], sys.argv[3], sys.argv[4:]
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        return run_cli(trace_out, cli_args)
    finally:
        write_peak(peak_out)


if __name__ == "__main__":
    sys.exit(main())
