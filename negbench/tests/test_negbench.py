"""Tests of the benchmark itself: tracing is transparent, the tail rule
keeps ten samples beyond, and the correctness gate catches a changed output.

Run from the repository root:  python3 -m pytest -q negbench/tests
"""

import json

import pytest

from child import run_ops, summarize
from gate import digest, judge, load_pins, query_key
from run import op_seconds, run_child
from stats import TAIL_PERCENTILES, MIN_BEYOND, percentile, samples_beyond, tail
from tracer import Tracer
from workloads import Op, query_mix, query_universe, repeat_share

SMALL_OPS = [
    ("gf", ("casimir", "gf", "--group", "c", "--lambda", "2,1")),
    ("coeffs", ("casimir", "coeffs", "--group", "d", "--lambda", "2",
                "--order", "3")),
    ("jack", ("jack", "compute", "--lambda", "2,1", "--k=-1/2")),
    ("dims", ("dims", "poly", "--family", "b", "--lambda", "2,1")),
    ("spaces", ("spaces", "dual", "--label", "AIII", "--m", "2", "--n", "3")),
    ("sweep", ("jack", "verify-duality", "--max-weight", "3", "--json")),
    ("casimir-sweep", ("casimir", "verify-duality", "--max-weight", "2",
                       "--json")),
]


def _digests(tracer=None):
    return [(r["rc"], r["digest"]) for r in summarize(run_ops(SMALL_OPS, tracer))]


def test_tracing_leaves_outputs_unchanged():
    plain = _digests()
    tracer = Tracer()
    tracer.install()
    try:
        traced = _digests(tracer)
    finally:
        tracer.uninstall()
    assert traced == plain
    assert all(rc == 0 for rc, _ in plain)
    assert _digests() == plain  # uninstall restored the originals
    metrics = tracer.metrics(1.0, 0)
    assert metrics["exact_algebra.poly_gcd.calls"] > 0
    assert metrics["kernels.poly_mul.term_pairs"] > 0
    assert metrics["casimir.check.calls"] > 0
    assert all(span is not None for span in tracer.spans)


def test_traced_counts_repeat_exactly():
    # two traced repetitions, each in a fresh interpreter with its own hash
    # seed and cold negdim caches, as the benchmark runs them
    ops = [Op(op_id, argv) for op_id, argv in SMALL_OPS]
    counts = []
    for _ in range(2):
        rep = run_child(ops, trace=True, timeout=120)
        assert rep is not None
        counts.append({k: v for k, v in rep["trace"].items()
                       if k.endswith((".calls", "term_pairs", "useful_ratio"))
                       or "peak_" in k})
    assert counts[0] == counts[1]
    assert counts[0]["exact_algebra.poly_gcd.calls"] > 0


def test_op_time_sums_each_stretchs_fastest_reading():
    # a sweep with two check results: each stretch is slow in one repetition
    recs = [{"start": 0.0, "marks": [1.0, 3.0], "end": 3.5},
            {"start": 10.0, "marks": [12.0, 13.5], "end": 14.0},
            {"start": 20.0, "marks": [21.5, 23.0], "end": 24.0}]
    assert op_seconds(recs) == 1.0 + 1.5 + 0.5
    # a query: its fastest answer
    assert op_seconds([{"start": 0.0, "marks": [], "end": t}
                       for t in (0.3, 0.2, 0.4)]) == 0.2


@pytest.mark.parametrize("n", list(range(1, 40)) + [299, 300, 604, 999, 1000,
                                                     1010, 9999, 10000])
def test_tail_keeps_ten_samples_beyond(n):
    values = [float(i) for i in range(n)]
    label, value = tail(values)
    if label == "max":
        assert all(samples_beyond(n, p) < MIN_BEYOND for p in TAIL_PERCENTILES)
        assert value == max(values)
        return
    p = float(label[1:])
    assert sum(v > value for v in values) >= MIN_BEYOND
    assert value == percentile(values, p)
    higher = [q for q in TAIL_PERCENTILES if q > p]
    assert all(samples_beyond(n, q) < MIN_BEYOND for q in higher)


def _record(text, rc=0):
    return {"rc": rc, "error": None, "stderr": "", "digest": digest(text),
            "sweep": None}


def test_perturbed_query_output_fails_the_gate():
    pins = load_pins()
    argv = ("dims", "poly", "--family", "b", "--lambda", "2,1")
    (rec,) = summarize(run_ops([("q0", argv)]))
    op = Op("q0", argv)
    assert judge(op, rec, pins) == (1, 0, [])
    (raw,) = run_ops([("q0", argv)])
    perturbed = _record(raw["stdout"].replace("N", "n", 1))
    attempted, failed, reasons = judge(op, perturbed, pins)
    assert (attempted, failed) == (1, 1)
    assert "digest" in reasons[0]


def test_perturbed_sweep_output_fails_every_check():
    cases = [{"id": f"x/{i}", "holds": True} for i in range(3)]
    text = json.dumps({"cases": cases, "summary": {"total": 3, "failed": 0}})
    op = Op("sweep", ("unused",), cases=3)
    pins = {"sweeps": {"sweep": digest(text)}, "queries": {}}
    good = _record(text)
    good["sweep"] = {"total": 3, "failed": 0, "expected": []}
    assert judge(op, good, pins) == (3, 0, [])

    bad = _record(text.replace("x/2", "x/9"))
    bad["sweep"] = good["sweep"]
    assert judge(op, bad, pins)[:2] == (3, 3)

    short = dict(good, sweep={"total": 2, "failed": 0, "expected": []})
    assert judge(op, short, pins)[:2] == (3, 3)

    crashed = dict(good, rc=1)
    assert judge(op, crashed, pins)[:2] == (3, 3)


def test_every_possible_query_is_pinned():
    pins = load_pins()["queries"]
    assert {query_key(q) for q in query_universe()} <= set(pins)


def test_query_mix_is_seeded_and_keeps_its_expensive_core():
    a, b, c = query_mix(1), query_mix(1), query_mix(2)
    assert a == b and a != c
    assert len(a) == len(c) == 300

    def core(mix):
        return sorted(op.argv[:6] for op in mix
                      if op.argv[0] == "casimir" and op.argv[3] in ("c", "d")
                      and "--mode" not in op.argv)

    assert core(a) == core(c) and len(core(a)) == 24
    assert 0 < repeat_share(a) < 1
