"""negdim benchmark: time to verdict on two workloads.

Usage, from the repository root:

    python3 negbench/run.py --workload verify-all --seed 1 --seconds 55 --trace 0
    python3 negbench/run.py --all [--seconds 55]

A run precompiles negdim's bytecode, then repeats the workload, each
repetition in a fresh single-threaded interpreter (child.py) with negdim's
own caches cold, until the next repetition would overrun ``--seconds``.
Set-up (interpreter start to ``import negdim.cli``) is measured in further
fresh interpreters between the repetitions, and setup_s is the fastest of
them, for the reason op_seconds gives.  An op's time (a query's latency)
is the sum, over its stretches between check results, of each stretch's
fastest time across the repetitions, and the time to verdict is the sum of
the ops' times.  Every op's output goes through the correctness gate
(gate.py).  With ``--trace 1`` the run makes one untraced and one traced
repetition instead and reports the per-layer metrics (tracer.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds sample
counts, the tail percentile used, the failures and environment facts.

``--all`` runs every workload untraced and traced (seed 1), prints a table
of the end-to-end metrics with units and sample counts, writes everything
to .bench_out/summary.json and rewrites the workload reasons in
BENCHMARK.json with the layer shares just measured.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_SAMPLES = 3  # set-ups before the first repetition and after each
RUN_BUDGET_S = 170  # a run must exit within 180 s

E2E_UNITS = {"setup_s": "s", "verdict_s": "s", "peak_rss_mb": "MB",
             "query_p50_ms": "ms", "query_tail_ms": "ms"}


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH)])
    return env


def measure_setup(samples: int) -> list:
    """Seconds from spawning an interpreter until negdim.cli is imported,
    once per sample."""
    probe = "import negdim.cli, time; print(time.monotonic())"
    times = []
    for _ in range(samples):
        start = time.monotonic()
        out = subprocess.run([sys.executable, "-c", probe], env=_env(),
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout) - start)
    return times


def run_child(ops, trace: bool, timeout: float, spans_path=None):
    """One repetition in a fresh interpreter; None if it did not finish."""
    job = {"ops": [[op.op_id, list(op.argv)] for op in ops], "trace": trace,
           "spans_path": str(spans_path) if spans_path else None}
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "child.py")],
                              input=json.dumps(job), env=_env(),
                              capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def machine_facts() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "commit": _commit()}


def _commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from gate import judge, load_pins
    from stats import percentile, tail
    from workloads import ops_for, repeat_share

    began = time.monotonic()
    ops = ops_for(name, seed)
    pins = load_pins()

    # set-up samples are taken between repetitions, so that they see the
    # machine in the same states the repetitions do
    setup = measure_setup(SETUP_SAMPLES)
    reps, longest = [], 0.0
    loop_start = time.monotonic()
    while True:
        traced = trace and len(reps) == 1
        spans = OUT / f"spans-{name}.jsonl" if traced else None
        if spans:
            OUT.mkdir(exist_ok=True)
        rep_start = time.monotonic()
        rep = run_child(ops, traced, RUN_BUDGET_S - (rep_start - began), spans)
        reps.append(rep)
        longest = max(longest, time.monotonic() - rep_start)
        setup += measure_setup(SETUP_SAMPLES)
        if rep is None or (trace and len(reps) == 2):
            break
        if not trace and time.monotonic() - loop_start + longest > seconds:
            break

    attempted = failed = 0
    reasons = []
    for rep in reps:
        if rep is None:
            n = sum(op.cases or 1 for op in ops)
            attempted, failed = attempted + n, failed + n
            reasons.append("a repetition crashed or overran the run budget")
            continue
        for op, rec in zip(ops, rep["ops"]):
            a, f, why = judge(op, rec, pins)
            attempted, failed = attempted + a, failed + f
            reasons += why
    done = [rep for rep in reps if rep is not None]

    # On a sweep workload the one op is the sweep, so query_p50_ms and
    # query_tail_ms there read the sweep's time again.
    latencies = [op_seconds([rep["ops"][i] for rep in done]) * 1e3
                 for i in range(len(ops))] if done else []
    detail = {"workload": name, "seed": seed, "trace": int(trace),
              "repetitions": len(reps), "fail_ratio": failed / attempted,
              "failures": reasons[:20],
              "samples": {"setup_s": len(setup)},
              "query_repeat_share": repeat_share(ops),
              "env": dict(machine_facts(), **(done[0]["env"] if done else {}))}
    metrics = {}
    if done and not trace:
        tail_label, tail_ms = tail(latencies)
        values = {"setup_s": min(setup),
                  "verdict_s": sum(latencies) / 1e3,
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"]
                                                   for r in done),
                  "query_p50_ms": percentile(latencies, 50),
                  "query_tail_ms": tail_ms}
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in values.items()}
        detail["samples"].update(verdict_s=len(done), peak_rss_mb=len(done),
                                 query_p50_ms=len(latencies),
                                 query_tail_ms=len(latencies))
        detail["query_tail_percentile"] = tail_label
    elif len(done) == 2:
        base, traced_rep = done
        layer = dict(traced_rep["trace"])
        layer["trace.verdict_s"] = traced_rep["verdict_s"]
        layer["trace.overhead_ratio"] = (traced_rep["verdict_s"]
                                         / base["verdict_s"])
        metrics = {k: {"value": v, "unit": per_layer_unit(k)}
                   for k, v in layer.items()}
    return {"correct": failed == 0 and bool(metrics), "attempted": attempted,
            "failed": failed, "metrics": metrics, "detail": detail}


def segments(rec: dict) -> list:
    """Durations of one op's stretches between its start, each check result
    it made and its end."""
    stamps = [rec["start"], *rec["marks"], rec["end"]]
    return [b - a for a, b in zip(stamps, stamps[1:])]


def op_seconds(recs: list) -> float:
    """One op's time from its records in every repetition: the sum over its
    stretches of each stretch's fastest time.

    On a shared machine, other work slows a run by up to a third for
    seconds at a time, but seldom a given check or query in every
    repetition.
    A repetition's total, or its median, reads that interference; the
    fastest reading of each short stretch leaves it out.
    """
    split = [segments(rec) for rec in recs]
    if len({len(parts) for parts in split}) != 1:  # stretches do not align
        return min(rec["end"] - rec["start"] for rec in recs)
    return sum(min(column) for column in zip(*split))


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("bits"):
        return "bits"
    if "share" in name or "ratio" in name:
        return "ratio"
    return "count"


def print_result(result: dict) -> None:
    detail = result.pop("detail")
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))


def run_all(seconds: float) -> int:
    from workloads import WORKLOADS

    rows, shares = [], {}
    for name in WORKLOADS:
        plain = run_workload(name, 1, seconds, trace=False)
        traced = run_workload(name, 1, seconds, trace=True)
        d = plain["detail"]
        for metric, m in plain["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"],
                         d["samples"][metric]))
        rows.append((name, "fail_ratio", d["fail_ratio"], "ratio",
                     plain["attempted"]))
        shares[name] = {k: v["value"] for k, v in traced["metrics"].items()}
        shares[name]["repeat_share"] = d["query_repeat_share"]
        print(f"{name}: tail percentile {d['query_tail_percentile']}, "
              f"traced fail_ratio {traced['detail']['fail_ratio']}",
              file=sys.stderr)
    print(f"{'workload':12s} {'metric':14s} {'value':>12s} {'unit':6s} samples")
    for name, metric, value, unit, n in rows:
        print(f"{name:12s} {metric:14s} {value:12.4f} {unit:6s} {n}")
    OUT.mkdir(exist_ok=True)
    with open(OUT / "summary.json", "w") as fh:
        json.dump({"end_to_end": rows, "per_layer": shares}, fh, indent=1)
    record_reasons(shares)
    return 0


REASONS = {
    "verify-all": "all 12 suites, 153 checks at maxWeight 2, maxDegree 3, "
                  "maxN 2: touches every module",
    "query-mix": "300 queries, closed loop, 1 client: 46 uniform draws per "
                 "form + assumed fixed c/d core to weight 3",
}


def record_reasons(shares: dict) -> None:
    """Rewrite each workload's reason with its measured traced-time shares."""
    path = ROOT / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    for entry in spec["workloads"]:
        s = shares[entry["name"]]
        gcd = s["exact_algebra.poly_gcd.busy_s"] / s["trace.verdict_s"]
        facts = (f"gcd busy {gcd:.0%}, normal-form self {s['share.gcd']:.0%}"
                 f", kernels {s['share.kernels']:.0%}, arith "
                 f"{s['share.multipoly_arith']:.0%}")
        if entry["name"] == "verify-all":
            facts += f", max check {s['casimir.check.max_share']:.1%}"
        reason = REASONS[entry["name"]]
        if entry["name"] == "query-mix":
            reason += f", {s['repeat_share']:.0%} repeats by draw"
        entry["why"] = f"{reason}; traced: {facts}"
        if len(entry["why"]) > 200:  # BENCHMARK.json's limit
            raise ValueError(f"reason too long: {entry['why']}")
    path.write_text(json.dumps(spec, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "negdim" / "cli.py").is_file():
        print(f"error: no negdim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    from workloads import WORKLOADS

    if not args.all and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    # bytecode is compiled before timing; negdim's own caches stay cold
    if not (compileall.compile_dir(str(SRC / "negdim"), quiet=1)
            and compileall.compile_dir(str(BENCH), quiet=1)):
        print("error: negdim does not compile", file=sys.stderr)
        return 2
    if args.all:
        return run_all(args.seconds)
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    print_result(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
