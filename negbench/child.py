"""One workload repetition in a fresh interpreter.

Reads a job from standard input ({"ops": [[op_id, argv], ...], "trace":
bool, "spans_path": str or null}), runs each op through
``negdim.cli.main(argv)`` with its output captured, and prints one JSON
line: per-op exit code, timing, output digest and sweep summary, the
process's peak resident memory, and, when traced, the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import io
import json
import platform
import resource
import sys
import time

perf = time.perf_counter


def install_check_clock():
    """Stamp the time of every check result negdim makes; returns the list
    the stamps go to.  They split a sweep's time into one stretch per check,
    at one clock read per check."""
    from negdim.reporting import CheckResult

    marks = []
    init = CheckResult.__init__

    def stamped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        marks.append(perf())

    CheckResult.__init__ = stamped
    return marks


def run_ops(ops, tracer=None, marks=None):
    """Run (op_id, argv) pairs through the CLI; returns one record per op
    with the captured stdout and stderr, in order, and the check-result
    stamps that fell inside it when ``marks`` is the clock's list."""
    import negdim.cli

    records = []
    for op_id, argv in ops:
        first = len(marks) if marks is not None else 0
        if tracer is not None:
            tracer.trace_id = op_id
        out, err = io.StringIO(), io.StringIO()
        rc, error = None, None
        start = perf()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = negdim.cli.main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            except Exception as exc:  # a raising op is a failed op
                error = f"{type(exc).__name__}: {exc}"
        end = perf()
        records.append({"id": op_id, "rc": rc, "error": error, "start": start,
                        "end": end, "stdout": out.getvalue(),
                        "stderr": err.getvalue(),
                        "marks": marks[first:] if marks is not None else []})
    return records


def summarize(records):
    """Replace captured output by its digest, size and sweep summary."""
    from gate import digest, sweep_facts

    for rec in records:
        stdout = rec.pop("stdout")
        rec["bytes"] = len(stdout.encode())
        rec["digest"] = digest(stdout)
        rec["sweep"] = sweep_facts(stdout) if stdout.startswith("{") else None
    return records


def main() -> int:
    job = json.load(sys.stdin)
    import negdim.cli  # noqa: F401  (set-up is measured separately)
    import negdim.kernels

    marks = install_check_clock()
    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    records = run_ops(job["ops"], tracer, marks)
    if tracer is not None:
        tracer.uninstall()
    verdict_s = records[-1]["end"] - records[0]["start"]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    summarize(records)
    result = {
        "verdict_s": verdict_s,
        "peak_rss_mb": peak_rss_mb,
        "ops": records,
        "env": {"python": platform.python_version(),
                "kernel_backend": negdim.kernels.active_backend(),
                "available_backends": negdim.kernels.available_backends()},
        "trace": None,
    }
    if tracer is not None:
        result["trace"] = tracer.metrics(
            verdict_s, sum(r["bytes"] for r in records))
        if job.get("spans_path"):
            tracer.write_spans(job["spans_path"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
