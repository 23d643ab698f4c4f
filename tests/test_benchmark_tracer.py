"""The benchmark's per-layer tracer still installs on the program as it is.

negbench/tracer.py wraps negdim's public functions and a few methods by
name; a renamed or deleted target would break only the traced benchmark
run.  This installs it from outside negbench/ and checks that the traced
output is byte-identical to the untraced one.  The benchmark's child also
wraps ``CheckResult.__init__`` to stamp each check, which works only while
CheckResult is a class whose own ``__init__`` sets its fields.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

import pytest

from negdim import cli
from negdim.exact_algebra import RatFunc
from negdim.reporting import CheckResult

BENCH = Path(__file__).resolve().parents[1] / "negbench"
ARGV = ["verify-all", "--max-weight", "2", "--max-degree", "3", "--max-n", "2",
        "--json"]


@pytest.fixture
def tracer_class(monkeypatch):
    if not (BENCH / "tracer.py").is_file():
        pytest.skip("the benchmark is not in this checkout")
    monkeypatch.syspath_prepend(str(BENCH))
    saved = {name: sys.modules.pop(name, None) for name in ("tracer", "stats")}
    try:
        from tracer import Tracer
        yield Tracer
    finally:
        for name, module in saved.items():
            sys.modules.pop(name, None)
            if module is not None:
                sys.modules[name] = module


def _run(capsys):
    code = cli.main(list(ARGV))
    out = capsys.readouterr().out
    assert code == 0
    return out


def test_traced_output_is_byte_identical(capsys, tracer_class):
    plain = _run(capsys)
    init, main = RatFunc.__dict__["__init__"], cli.main
    tracer = tracer_class()
    tracer.install()
    try:
        traced = _run(capsys)
    finally:
        tracer.uninstall()
    assert (RatFunc.__dict__["__init__"], cli.main) == (init, main)
    assert traced == plain
    assert tracer.calls["cli.main"] == 1 and tracer.check_ms["casimir"]
    metrics = tracer.metrics(1.0, len(traced.encode()))
    assert metrics["cli.output_bytes"] == len(plain.encode())
    assert _run(capsys) == plain


def test_check_clock_stamps_every_case(capsys):
    # the wrapper negbench/child.py installs: one clock read per check result
    plain = _run(capsys)
    init = CheckResult.__init__
    marks = []

    def stamped(self, *args, **kwargs):
        init(self, *args, **kwargs)
        marks.append(perf_counter())

    CheckResult.__init__ = stamped
    try:
        stamped_out = _run(capsys)
    finally:
        CheckResult.__init__ = init
    assert stamped_out == plain
    assert len(marks) == json.loads(plain)["summary"]["total"] == 153
