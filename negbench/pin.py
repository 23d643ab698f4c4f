"""Regenerate pins.json: the output digest of every sweep op and of every
query the query mix can ask, at the current commit.

Run from the repository root:  python3 negbench/pin.py

Only re-pin when a change is meant to alter negdim's output; the pins are
what the correctness gate compares every benchmark run against.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from child import run_ops, summarize  # noqa: E402
from gate import PINS, query_key  # noqa: E402
from workloads import SWEEPS, query_universe  # noqa: E402


def main() -> int:
    sweeps = [op for ops in SWEEPS.values() for op in ops]
    records = summarize(run_ops([(op.op_id, op.argv) for op in sweeps]))
    pins = {"sweeps": {}, "queries": {}}
    bad = []
    for op, rec in zip(sweeps, records):
        pins["sweeps"][op.op_id] = rec["digest"]
        if rec["rc"] != 0 or rec["error"] or rec["stderr"]:
            bad.append((op.op_id, rec))
    universe = query_universe()
    records = summarize(run_ops([(query_key(q), q) for q in universe]))
    for rec in records:
        pins["queries"][rec["id"]] = rec["digest"]
        if rec["rc"] != 0 or rec["error"] or rec["stderr"]:
            bad.append((rec["id"], rec))
    for op_id, rec in bad:
        print(f"not pinnable: {op_id}: rc={rec['rc']} {rec['error'] or ''} "
              f"{rec['stderr'].strip()}", file=sys.stderr)
    if bad:
        return 1
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=0, sort_keys=True)
        fh.write("\n")
    print(f"pinned {len(pins['sweeps'])} sweeps and {len(pins['queries'])} "
          f"queries in {PINS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
