"""The benchmark's pinned `casimir coeffs` and `spaces dual` outputs.

negbench/pins.json holds the sha256[:16] digest of the standard output of
every query the benchmark can draw.  These two query forms are computed by
their own routes (coefficients read off the ladders, sizes evaluated as
rationals), so every pinned key of both is run through the CLI here and its
digest compared with the pin: output drift fails the tests, not only the
benchmark's gate.  The pins are read, never written.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from negdim import cli

PINS = Path(__file__).resolve().parents[1] / "negbench" / "pins.json"
FORMS = ("casimir coeffs ", "spaces dual ")


@pytest.fixture(scope="module")
def pinned():
    if not PINS.is_file():
        pytest.skip("the benchmark is not in this checkout")
    with open(PINS) as fh:
        queries = json.load(fh)["queries"]
    return {key: pin for key, pin in queries.items() if key.startswith(FORMS)}


def _digest(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]


def test_pinned_queries_reproduce(pinned):
    assert {key.split()[1] for key in pinned} == {"coeffs", "dual"}
    drifted = [key for key, pin in sorted(pinned.items())
               if _digest(key.split()) != (0, pin)]
    assert drifted == []
