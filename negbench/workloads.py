"""The benchmark workloads, as lists of negdim CLI invocations.

An operation ("op") is one call of ``negdim.cli.main(argv)``.  A sweep op
runs many checks and reports them in its ``--json`` summary; a query op
prints one answer.  Only ``query-mix`` depends on the seed.

The query mix draws the same number of queries (QUERIES_PER_FORM) of each
of the six query forms of negdim's CLI (``casimir gf``, ``casimir coeffs``
symbolic and in rows mode, ``jack compute`` at a negative coupling, ``dims
poly``, ``spaces dual``) on diagrams of weight at most 5.  Each query is
drawn uniformly, with replacement, from its form's universe, so queries
repeat only as often as those draws make them (about 15% of a loop).  The loop
size and two further choices are assumptions of the benchmark rather than
facts about users:

* The symbolic Casimir queries of the symplectic and even orthogonal
  families (groups c and d) cost 50-650 ms each, against 10-30 ms for any
  other query, so a seeded draw of them would make a loop's total work, and
  with it the time to verdict, differ from seed to seed.  They are not
  drawn but asked as a fixed core, in addition to the draws: every c and d
  diagram once per loop, with the series order drawn.
* That core stops at weight 3, because at weight 4 and 5 these queries cost
  0.4-0.7 s each and the full core would take about 20 s a loop, too long
  for a run to hold the many repetitions its timing needs (see
  run.op_seconds).

The queries are shuffled into a seeded order.  A loop holds 300 queries
and takes about four seconds on two cores.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from negdim.partitions import format_partition, partitions_up_to_weight
from negdim.spaces import catalogue


@dataclass(frozen=True)
class Op:
    op_id: str
    argv: Tuple[str, ...]
    # sweeps only: the number of checks the summary must report and the
    # check ids allowed to be expected discrepancies
    cases: Optional[int] = None
    expected_discrepancies: Tuple[str, ...] = ()


# Every repetition runs in a fresh interpreter and is kept short (two to
# four seconds), so that a run holds many of them: on a shared machine one
# repetition's time varies by up to a third, and only the fastest reading
# of each check or query across many repetitions is steady (see
# run.op_seconds).  That is why verify-all runs far below its defaults
# (which take about a minute on two cores).
SWEEPS: Dict[str, Tuple[Op, ...]] = {
    "verify-all": (
        Op("verify-all",
           ("verify-all", "--max-weight", "2", "--max-degree", "3",
            "--max-n", "2", "--json"),
           cases=153,
           expected_discrepancies=("spaces/tabulated-vs-derived/BDI/p",)),
    ),
}

WORKLOADS = ("verify-all", "query-mix")


def ops_for(workload: str, seed: int) -> List[Op]:
    if workload == "query-mix":
        return query_mix(seed)
    return list(SWEEPS[workload])


# -- query universe -----------------------------------------------------------

_DIAGRAMS = [format_partition(lam) for lam in partitions_up_to_weight(5) if lam]
_CORE_DIAGRAMS = [format_partition(lam)
                  for lam in partitions_up_to_weight(3) if lam]
_NEGATIVE_K = [str(-Fraction(p, q))
               for p, q in ((1, 2), (2, 1), (3, 2), (2, 3), (1, 3), (3, 1),
                            (1, 1))]
_ORDERS = ("2", "3", "4")
QUERIES_PER_FORM = 46


def _rows(lam: str) -> int:
    return len(lam.split(","))


def _forms() -> Dict[str, List[Tuple[str, ...]]]:
    """Every query the mix draws from, by form; the c and d symbolic
    Casimir queries are the core (see _core) and not drawn."""
    gf = [("casimir", "gf", "--group", g, "--lambda", lam)
          for g in ("u", "su") for lam in _DIAGRAMS]
    gf += [("casimir", "gf", "--group", "b", "--lambda", lam,
            "--n", str(_rows(lam) + extra))
           for lam in _DIAGRAMS for extra in (0, 1, 2)]
    coeffs = [("casimir", "coeffs", "--group", g, "--lambda", lam,
               "--order", order)
              for g in ("u", "su") for lam in _DIAGRAMS for order in _ORDERS]
    coeffs_rows = [("casimir", "coeffs", "--group", g, "--lambda", lam,
                    "--order", order, "--mode", "rows",
                    "--n", str(_rows(lam) + extra))
                   for g in ("u", "su", "b", "c", "d") for lam in _DIAGRAMS
                   for extra in (1, 2) for order in _ORDERS[1:]]
    jack_q = [("jack", "compute", "--lambda", lam, f"--k={k}")
              for lam in _DIAGRAMS for k in _NEGATIVE_K]
    dims_q = [("dims", "poly", "--family", f, "--lambda", lam)
              for f in "abcd" for lam in _DIAGRAMS]
    spaces_q = []
    for s in catalogue():
        for n in range(1, 7):
            if len(s.size_params) == 2:
                spaces_q += [("spaces", "dual", "--label", s.key,
                              "--m", str(m), "--n", str(n))
                             for m in range(1, 7)]
            else:
                spaces_q.append(("spaces", "dual", "--label", s.key,
                                 "--n", str(n)))
    return {"gf": gf, "coeffs": coeffs, "coeffs_rows": coeffs_rows,
            "jack": jack_q, "dims": dims_q, "spaces": spaces_q}


def _core() -> List[List[Tuple[str, ...]]]:
    """The c and d symbolic Casimir queries, one list per (form, group,
    diagram); a loop asks one query of each list, drawing the series order."""
    core = []
    for g in ("c", "d"):
        for lam in _CORE_DIAGRAMS:
            core.append([("casimir", "gf", "--group", g, "--lambda", lam)])
            core.append([("casimir", "coeffs", "--group", g, "--lambda", lam,
                          "--order", order) for order in _ORDERS])
    return core


def query_universe() -> List[Tuple[str, ...]]:
    """Every query the mix can ask, core included."""
    return ([q for qs in _core() for q in qs]
            + [q for qs in _forms().values() for q in qs])


def query_mix(seed: int) -> List[Op]:
    """One closed loop of seeded queries: the core, then QUERIES_PER_FORM
    draws from each form, in a seeded order."""
    rng = random.Random(seed)
    queries = [rng.choice(qs) for qs in _core()]
    for universe in _forms().values():
        queries += rng.choices(universe, k=QUERIES_PER_FORM)
    rng.shuffle(queries)
    return [Op(f"q{i}", q) for i, q in enumerate(queries)]


def repeat_share(ops: List[Op]) -> float:
    """Share of ops whose argv was already asked earlier in the loop."""
    seen = set()
    repeats = 0
    for op in ops:
        if op.argv in seen:
            repeats += 1
        seen.add(op.argv)
    return repeats / len(ops)
