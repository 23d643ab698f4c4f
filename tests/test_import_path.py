"""The CLI's import path stays free of the standard library's heavy modules.

Every negdim answer starts a fresh interpreter, so whatever ``import
negdim.cli`` and a query pull in is paid on every call.  ``dataclasses``
alone brings ``inspect``, ``ast``, ``dis`` and ``tokenize``, and each
``@dataclass`` then builds its methods from source text.  This runs one
query of each form the CLI answers, then a small sweep, in a fresh
interpreter and checks that none of them was loaded on the way.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import negdim

HEAVY = ("dataclasses", "inspect", "ast", "dis", "argparse", "gettext")

QUERIES = (
    ("casimir", "gf", "--group", "u", "--lambda", "2,1"),
    ("casimir", "coeffs", "--group", "su", "--lambda", "2,1", "--order", "3"),
    ("casimir", "coeffs", "--group", "b", "--lambda", "2,1", "--order", "3",
     "--mode", "rows", "--n", "3"),
    ("jack", "compute", "--lambda", "2,1", "--k=-1/2"),
    ("dims", "poly", "--family", "c", "--lambda", "2,1"),
    ("spaces", "dual", "--label", "BDI", "--m", "2", "--n", "3"),
    ("verify-all", "--max-weight", "2", "--max-degree", "3", "--max-n", "2",
     "--json"),
)

PROBE = """
import contextlib, io, json, sys
heavy, queries = json.loads(sys.argv[1])
at_start = [m for m in heavy if m in sys.modules]
import negdim.cli
codes = []
for argv in queries:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(negdim.cli.main(argv))
print(json.dumps({"at_start": at_start, "codes": codes,
                  "loaded": [m for m in heavy if m in sys.modules]}))
"""


def test_cli_never_loads_dataclasses_or_inspect():
    env = dict(os.environ, PYTHONPATH=str(Path(negdim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, json.dumps([HEAVY, QUERIES])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["codes"] == [0] * len(QUERIES)
    # what the interpreter itself loaded before negdim does not count
    assert set(got["loaded"]) <= set(got["at_start"])
