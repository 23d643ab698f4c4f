"""Command-line front end.

Grammar: negdim <module> <verb> [flags], plus the aggregate `negdim
verify-all`.  All output is exact: rationals render as a/b and no floating
point appears anywhere.  Every command takes --json for machine-readable
output; text and JSON are byte-stable for a fixed config and version.

Exit codes: 0 when everything asked for holds (expected discrepancies do
not fail a run), 1 on an unexpected failure or computational error, or
when the reader of the output goes away early, 2 on usage errors.

Every command is one entry of the table COMMANDS: its words, its help line,
its flags and its handler.  Each flag is declared once, as a Flag (name,
dest, type, choices, required, default, help), and that declaration feeds
two readers.  The table parse (_table_parse) answers a well-formed command
line, one that spells every flag in full, gives each once, and whose values
all pass, with a plain namespace and no argparse at all.  Any other line, and
every request for help, goes to argparse: the command's own parser, built on
first use from the same flags, and the full argparse tree (build_parser) for
help above a command, an unknown command and the top-level "unrecognized
arguments" error.  So every help, usage and error text reads as it would from
the tree alone, and argparse is imported only when one of them is built.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from negdim import casimir, dims, jack, spaces
from negdim.partitions import format_partition, parse_partition
from negdim.reporting import VerificationReport

if TYPE_CHECKING:
    import argparse


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _casimir_payload(group=None, lam=None, gf=None, coeffs=(),
                     checks=()) -> Dict[str, object]:
    return {
        "group": group,
        "lambda": lam,
        "gf": gf,
        "coeffs": list(coeffs),
        "checks": [{"name": c.check_id, "holds": c.ok} for c in checks],
    }


def _report_exit(report: VerificationReport, as_json: bool,
                 casimir_shape: bool = False) -> int:
    if as_json:
        if casimir_shape:
            _emit_json(_casimir_payload(checks=report.cases))
        else:
            _emit_json(report.as_dict())
    else:
        print(report.render_text())
    return 0 if report.all_ok else 1


def _resolve_mode(group: str, mode: Optional[str], n: Optional[int]) -> str:
    if mode is None:
        if n is not None:
            mode = "rows"
        else:
            mode = "blocks" if group in casimir.BLOCK_FAMILIES else "rows"
    if mode == "rows" and n is None:
        raise ValueError("rows mode needs --n (an integer rank)")
    if mode == "blocks" and group not in casimir.BLOCK_FAMILIES:
        raise ValueError(
            f"group {group!r} has no block form; use --mode rows --n <rank>")
    return mode


def _cmd_casimir_gf(args) -> int:
    lam = parse_partition(args.lam)
    mode = _resolve_mode(args.group, args.mode, args.n)
    result = casimir.generating_function(args.group, lam, mode=mode, n=args.n)
    if args.json:
        _emit_json(_casimir_payload(group=args.group,
                                    lam=format_partition(lam),
                                    gf=str(result.gf)))
    else:
        print(f"group: {args.group}")
        print(f"lambda: {format_partition(lam)}")
        print(f"mode: {result.mode}" + (f" (n = {result.n})" if result.n is not None else ""))
        print(f"gf: {result.gf}")
    return 0


def _cmd_casimir_coeffs(args) -> int:
    lam = parse_partition(args.lam)
    if args.order < 0:
        raise ValueError("--order must be nonnegative")
    mode = _resolve_mode(args.group, args.mode, args.n)
    coeffs = casimir.spectrum_coefficients(args.group, lam, args.order,
                                           mode=mode, n=args.n)
    rendered = [str(c) for c in coeffs]
    if args.json:
        _emit_json(_casimir_payload(group=args.group,
                                    lam=format_partition(lam),
                                    coeffs=rendered))
    else:
        print(f"group: {args.group}")
        print(f"lambda: {format_partition(lam)}")
        for p, c in enumerate(rendered):
            print(f"C[{p}]: {c}")
    return 0


def _cmd_casimir_verify(args) -> int:
    report = casimir.verify_duality(args.max_weight)
    return _report_exit(report, args.json, casimir_shape=args.json)


def _parse_coupling(text: Optional[str]):
    if text is None or text == "symbolic":
        return None
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--k expects a rational like -1/2, or 'symbolic' "
                         f"(got {text!r})") from None


def _cmd_jack_compute(args) -> int:
    lam = parse_partition(args.lam)
    jf = jack.jack(lam, _parse_coupling(args.k))
    payload = {
        "lambda": format_partition(lam),
        "k": str(jf.coupling),
        "m_expansion": str(jf.m_expansion),
        "p_expansion": str(jf.p_expansion),
        "eigenvalue": str(jf.eigenvalue),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"lambda: {payload['lambda']}")
        print(f"k: {payload['k']}")
        print(f"m-expansion: {payload['m_expansion']}")
        print(f"p-expansion: {payload['p_expansion']}")
        print(f"eigenvalue: {payload['eigenvalue']}")
    return 0


def _cmd_jack_duality(args) -> int:
    return _report_exit(jack.verify_duality(args.max_weight), args.json)


def _cmd_jack_diagram(args) -> int:
    return _report_exit(jack.verify_diagram(args.max_weight, args.max_n),
                        args.json)


def _space_row(s: spaces.SpaceSpec) -> Dict[str, object]:
    derived = spaces.to_kpq(s)
    shown = spaces.tabulated_kpq(s)
    return {
        "key": s.key,
        "label": s.label,
        "space": s.description,
        "root_system": s.root_system,
        "rank": s.rank,
        "mults": [str(m) for m in s.mults],
        "kpq": derived.as_dict(),
        "tabulated_kpq": shown.as_dict() if shown else None,
        "in_matching": s.in_matching,
    }


def _cmd_spaces_table(args) -> int:
    rows = [_space_row(s) for s in spaces.catalogue()]
    pairs = [spaces.dual_space(src).as_dict()
             for src, _ in spaces.EXPECTED_PAIRS]
    if args.json:
        _emit_json({"spaces": rows, "pairs": pairs})
        return 0
    print("catalogue (multiplicities and coupling triples):")
    for r in rows:
        shown = ""
        if r["tabulated_kpq"] and r["tabulated_kpq"] != r["kpq"]:
            p = r["tabulated_kpq"]
            shown = f"  [tabulated: k={p['k']} p={p['p']} q={p['q']}]"
        kpq = r["kpq"]
        print(f"  {r['key']:10s} {r['space']:24s} {r['root_system']}_{r['rank']:5s}"
              f" mults=({', '.join(r['mults'])})"
              f" k={kpq['k']} p={kpq['p']} q={kpq['q']}{shown}")
    print()
    print("dual pairs:")
    for row in pairs:
        mark = "ok" if row["matched"] else "NO MATCH"
        relabel = " (m<->n relabeled)" if row["relabeled"] else ""
        print(f"  {row['space']} -> {row['partner']}: {mark}{relabel}")
        for disc in row["discrepancies"]:
            print(f"    expected discrepancy {disc['id']}: derived "
                  f"{disc['field']} = {disc['derived']}, tabulated {disc['tabulated']}")
    return 0


def _cmd_spaces_dual(args) -> int:
    match = spaces.dual_space(args.label, m=args.m, n=args.n)
    if args.json:
        _emit_json(match.as_dict())
        return 0
    print(f"space: {match.source.description}  ({match.source.key})")
    print(f"kpq: {match.kpq}")
    if match.kpq[:3] != match.derived[:3]:
        print(f"kpq (from multiplicities): {match.derived}")
    print(f"dual_kpq: {match.image}")
    if match.matched:
        relabel = " after m<->n relabeling" if match.relabeled else ""
        print(f"matched: {match.partner_description} ({match.partner}){relabel}")
    else:
        print("matched: nothing in the catalogue")
    for disc in match.discrepancies:
        print(f"expected discrepancy {disc['id']}: derived {disc['field']} = "
              f"{disc['derived']}, tabulated {disc['tabulated']}")
    return 0


def _cmd_dims_king(args) -> int:
    return _report_exit(dims.verify_king(args.max_weight), args.json)


def _cmd_dims_poly(args) -> int:
    lam = parse_partition(args.lam)
    poly = dims.dim_poly(args.family, lam)
    payload = {
        "family": args.family,
        "lambda": format_partition(lam),
        "poly": str(poly),
    }
    if args.json:
        _emit_json(payload)
    else:
        print(f"family: {args.family}")
        print(f"lambda: {payload['lambda']}")
        print(f"dim(N) = {payload['poly']}")
    return 0


def _cmd_dims_vogel(args) -> int:
    if args.family:
        triple = dims.vogel_classical(args.family)
        value = dims.vogel_dim(triple)
        payload = {
            "family": args.family,
            "triple": [str(t) for t in triple],
            "dim": str(value),
        }
        if args.json:
            _emit_json(payload)
        else:
            print(f"family: {args.family}")
            print(f"triple: ({', '.join(payload['triple'])})")
            print(f"dim: {value}")
        return 0
    return _report_exit(dims.verify_vogel(), args.json)


def _cmd_dims_vogel_sp_so(args) -> int:
    report = VerificationReport(suite="dims-vogel-sp-so", config={})
    report.add(dims.check_vogel_sp_so())
    return _report_exit(report, args.json)


def run_verify_all(max_weight: int = 6, max_degree: int = 6,
                   max_n: int = 4) -> VerificationReport:
    """Every verification sweep in one deterministic report."""
    if min(max_weight, max_degree, max_n) < 1:
        raise ValueError("config values must be at least 1")
    report = VerificationReport(
        suite="verify-all",
        config={"maxWeight": max_weight, "maxDegree": max_degree,
                "maxN": max_n})
    report.extend(casimir.verify_consistency(max_weight).cases)
    report.extend(casimir.verify_sp_so(max_weight).cases)
    report.extend(casimir.verify_u_self(max_weight).cases)
    report.extend(dims.verify_fundamental_constants().cases)
    report.extend(dims.verify_king(max_weight).cases)
    report.extend(dims.verify_vogel().cases)
    report.extend(jack.verify_structure(max_degree).cases)
    report.extend(jack.verify_schur(max_degree).cases)
    report.extend(jack.verify_conjugation(max_degree).cases)
    report.extend(jack.verify_duality(max_degree).cases)
    report.extend(jack.verify_diagram(min(max_weight, 5), max_n).cases)
    report.extend(spaces.verify_table().cases)
    report.sort()
    return report


def _cmd_verify_all(args) -> int:
    report = run_verify_all(args.max_weight, args.max_degree, args.max_n)
    return _report_exit(report, args.json)


def _nonnegative_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is not None and value >= 0:
        return value
    import argparse  # only the error needs it, and argparse reports it
    raise argparse.ArgumentTypeError(
        "expected a nonnegative integer, got "
        f"{repr(text) if value is None else value}")


class Flag:
    """One flag of a command, with the fields argparse's add_argument takes.
    type converts the value (None keeps the string); type bool marks a
    switch, argparse's store_true."""

    __slots__ = ("name", "dest", "type", "choices", "required", "default",
                 "help")

    def __init__(self, name: str, dest: str,
                 type: Optional[Callable[[str], object]] = None,
                 choices: Optional[Tuple[str, ...]] = None,
                 required: bool = False, default: object = None,
                 help: Optional[str] = None) -> None:
        self.name, self.dest, self.type, self.choices = name, dest, type, choices
        self.required, self.default, self.help = required, default, help


_JSON = Flag("--json", "json", bool, default=False,
             help="emit machine-readable JSON")


def _sizes(*flags) -> Tuple[Flag, ...]:
    """Flags of a sweep: each (flag, default) is a nonnegative size."""
    return tuple(Flag(flag, flag[2:].replace("-", "_"), _nonnegative_int,
                      default=default)
                 for flag, default in flags)


_GROUP = Flag("--group", "group", choices=("u", "su", "b", "c", "d"),
              required=True)
_LAMBDA = Flag("--lambda", "lam", required=True)
_MODE = Flag("--mode", "mode", choices=("blocks", "rows"))

_MODULES = {
    "casimir": "Casimir spectrum generating functions",
    "jack": "Jack symmetric functions",
    "spaces": "symmetric-space coupling triples",
    "dims": "dimension polynomials",
}

# every command: its words on the command line -> (help, its flags before
# --json, handler), in the order help lists them
COMMANDS = {
    ("casimir", "gf"): (
        "print C(lambda, z)",
        (_GROUP,
         Flag("--lambda", "lam", required=True,
              help='partition, e.g. "3,2,1" ("0" for empty)'),
         Flag("--n", "n", int, help="integer rank; selects rows mode unless "
                                    "--mode says otherwise"),
         _MODE),
        _cmd_casimir_gf),
    ("casimir", "coeffs"): (
        "spectrum coefficients C_0..C_order",
        (_GROUP, _LAMBDA, Flag("--order", "order", int, required=True),
         Flag("--n", "n", int), _MODE),
        _cmd_casimir_coeffs),
    ("casimir", "verify-duality"): ("rank-negation duality sweeps",
                                    _sizes(("--max-weight", 6)),
                                    _cmd_casimir_verify),
    ("jack", "compute"): (
        "eigenfunction of one partition",
        (_LAMBDA,
         Flag("--k", "k", default="symbolic",
              help="coupling: a rational, or 'symbolic'; write negative "
                   "values as --k=-1/2")),
        _cmd_jack_compute),
    ("jack", "verify-duality"): ("transpose duality sweep",
                                 _sizes(("--max-weight", 6)), _cmd_jack_duality),
    ("jack", "verify-diagram"): ("finite-variable projection square",
                                 _sizes(("--max-weight", 5), ("--max-n", 4)),
                                 _cmd_jack_diagram),
    ("spaces", "table"): ("catalogue and dual pairs", _sizes(),
                          _cmd_spaces_table),
    ("spaces", "dual"): (
        "dualize one space",
        (Flag("--label", "label", required=True,
              help="catalogue key, e.g. BDI or group-C"),
         Flag("--m", "m", int), Flag("--n", "n", int)),
        _cmd_spaces_dual),
    ("dims", "king"): ("transposition duality sweep",
                       _sizes(("--max-weight", 6)), _cmd_dims_king),
    ("dims", "poly"): (
        "dimension as a polynomial in N",
        (Flag("--family", "family", choices=("a", "b", "c", "d"),
              required=True),
         _LAMBDA),
        _cmd_dims_poly),
    ("dims", "vogel"): ("universal dimension formula",
                        (Flag("--family", "family",
                              choices=("sp2n", "sln", "son")),),
                        _cmd_dims_vogel),
    ("dims", "vogel-sp-so"): ("scaled symplectic triple vs orthogonal at -2n",
                              _sizes(), _cmd_dims_vogel_sp_so),
    ("verify-all",): ("run every verification sweep",
                      _sizes(("--max-weight", 6), ("--max-degree", 6),
                             ("--max-n", 4)), _cmd_verify_all),
}


def _flags(key) -> Tuple[Flag, ...]:
    return COMMANDS[key][1] + (_JSON,)


def _table_parse(key, tokens: List[str]) -> Optional[SimpleNamespace]:
    """The namespace argparse gives a well-formed command line, or None.

    Well formed: every token is one of the command's flags, spelled in full
    and given once; a value is --flag=value, or the next token when that does
    not start with '-', and is never '--' (which argparse strips, so that
    --lambda=-- reads as an empty list); a switch takes no value; every
    required flag is given, and every value passes its type and choices.  On
    any other line, -h and abbreviations included, the caller asks argparse,
    so help, usage and error text are argparse's alone.
    """
    flags = {flag.name: flag for flag in _flags(key)}
    values: Dict[str, object] = {}
    i = 0
    while i < len(tokens):
        name, eq, value = tokens[i].partition("=")
        i += 1
        flag = flags.get(name)
        if flag is None or flag.dest in values:
            return None
        if flag.type is bool:
            if eq:
                return None
            values[flag.dest] = True
            continue
        if not eq:
            if i == len(tokens) or tokens[i].startswith("-"):
                return None
            value = tokens[i]
            i += 1
        if value == "--":
            return None
        if flag.type is not None:
            try:
                value = flag.type(value)
            except Exception:
                # argparse calls the same type on the same text, and reports
                # or raises what it raised, as it did before this parse
                return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    for flag in flags.values():
        if flag.dest not in values:
            if flag.required:
                return None
            values[flag.dest] = flag.default
    return SimpleNamespace(func=COMMANDS[key][2], **values)


def _add_command(p: argparse.ArgumentParser, key) -> argparse.ArgumentParser:
    for flag in _flags(key):
        if flag.type is bool:
            p.add_argument(flag.name, action="store_true", help=flag.help)
        else:
            p.add_argument(flag.name, dest=flag.dest, type=flag.type,
                           choices=flag.choices, required=flag.required,
                           default=flag.default, help=flag.help)
    p.set_defaults(func=COMMANDS[key][2])
    return p


@functools.lru_cache(maxsize=None)
def _command_parser(key) -> argparse.ArgumentParser:
    """One command's own parser, with the prog and arguments it has in the
    full tree; built on first use, and callers must not modify it."""
    import argparse

    return _add_command(argparse.ArgumentParser(prog=" ".join(("negdim",) + key)),
                        key)


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The CLI's full argument parser, built once per process from COMMANDS
    and used for help, unknown commands and the top-level error; parsing does
    not modify it, and callers must not either."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="negdim",
        description="Exact verification of rank-negation dualities for "
                    "classical groups, symmetric functions and symmetric spaces.")
    sub = parser.add_subparsers(dest="command", required=True)
    verbs = {name: sub.add_parser(name, help=help_text).add_subparsers(
                 dest="verb", required=True)
             for name, help_text in _MODULES.items()}
    for key, (help_text, _, _) in COMMANDS.items():
        _add_command(verbs.get(key[0], sub).add_parser(key[-1], help=help_text),
                     key)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    key = next((tuple(argv[:n]) for n in (2, 1) if tuple(argv[:n]) in COMMANDS),
               None)
    if key is None:
        args = build_parser().parse_args(argv)
    else:
        rest = argv[len(key):]
        args = _table_parse(key, rest)
        if args is None:
            args, extra = _command_parser(key).parse_known_args(rest)
            if extra:
                build_parser().error("unrecognized arguments: " + " ".join(extra))
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed early (`| head`): as the Python docs advise for
        # SIGPIPE, send the rest of the output to devnull, so that the flush
        # at exit cannot fail again, and report the failed write
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, KeyError) as exc:
        # str() of a KeyError is the repr of its argument; print the message
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
