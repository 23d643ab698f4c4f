"""Correctness gate: every op's output against the digests pinned in
pins.json, plus the sweep summaries' own verdicts and case counts.

An operation is a check (inside a sweep op) or a query.  A sweep op whose
exit code, digest, case count or discrepancy list is wrong fails all of its
checks; a query fails alone.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import Op

PINS = Path(__file__).resolve().parent / "pins.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def query_key(argv) -> str:
    return " ".join(argv)


def load_pins() -> Dict[str, Dict[str, str]]:
    with open(PINS) as fh:
        return json.load(fh)


def sweep_facts(stdout: str) -> Optional[dict]:
    """Summary and discrepancy ids of a sweep's --json output."""
    try:
        report = json.loads(stdout)
        summary = report["summary"]
        cases = report["cases"]
    except (ValueError, KeyError, TypeError):
        return None
    return {
        "total": summary["total"],
        "failed": summary["failed"],
        "expected": sorted(c["id"] for c in cases
                           if not c["holds"] and c.get("expected_discrepancy")),
    }


def judge(op: Op, record: dict, pins) -> Tuple[int, int, List[str]]:
    """(attempted, failed, reasons) for one op's record from child.py."""
    attempted = op.cases if op.cases is not None else 1
    if op.cases is None:
        pinned = pins["queries"].get(query_key(op.argv))
    else:
        pinned = pins["sweeps"].get(op.op_id)
    reasons = []
    if record["error"]:
        reasons.append(f"raised {record['error']}")
    elif record["rc"] != 0:
        reasons.append(f"exit code {record['rc']}")
    if record["stderr"]:
        reasons.append("wrote to stderr")
    if record["digest"] != pinned:
        reasons.append(f"digest {record['digest']} != pinned {pinned}")
    if op.cases is not None:
        facts = record["sweep"]
        if facts is None:
            reasons.append("no JSON summary")
        else:
            if facts["total"] != op.cases:
                reasons.append(f"{facts['total']} cases, expected {op.cases}")
            if facts["failed"]:
                reasons.append(f"{facts['failed']} checks failed")
            if facts["expected"] != sorted(op.expected_discrepancies):
                reasons.append(f"expected discrepancies {facts['expected']}")
    failed = attempted if reasons else 0
    return attempted, failed, [f"{op.op_id}: {r}" for r in reasons]
