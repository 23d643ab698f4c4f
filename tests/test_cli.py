"""CLI surface: exit codes, JSON shape, byte stability."""

import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import negdim
from negdim.cli import (COMMANDS, _command_parser, _flags, _table_parse,
                        build_parser, main, run_verify_all)
from negdim.reporting import VerificationReport


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gf_text(capsys):
    code, out, err = run(capsys, "casimir", "gf", "--group", "u", "--lambda", "0")
    assert code == 0 and not err
    assert "gf: n" in out


def test_gf_json(capsys):
    code, out, _ = run(capsys, "casimir", "gf", "--group", "c", "--lambda", "0",
                       "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"group", "lambda", "gf", "coeffs", "checks"}
    assert payload["group"] == "c"
    assert payload["lambda"] == "0"
    assert payload["gf"] == "2*n"
    assert payload["coeffs"] == [] and payload["checks"] == []


def test_coeffs_json(capsys):
    code, out, _ = run(capsys, "casimir", "coeffs", "--group", "u",
                       "--lambda", "1", "--order", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coeffs"] == ["n", "1", "n"]


def test_rows_mode_requires_rank(capsys):
    code, _, err = run(capsys, "casimir", "gf", "--group", "b", "--lambda", "1")
    assert code == 2
    assert "--n" in err


def test_rows_mode_with_rank(capsys):
    code, out, _ = run(capsys, "casimir", "gf", "--group", "b", "--lambda", "1",
                       "--n", "3")
    assert code == 0 and "mode: rows" in out


def test_rank_alone_selects_rows_mode(capsys):
    code, out, _ = run(capsys, "casimir", "gf", "--group", "u", "--lambda", "1",
                       "--n", "3")
    assert code == 0 and "mode: rows (n = 3)" in out


def test_blocks_mode_with_rank_evaluates(capsys):
    code, out, _ = run(capsys, "casimir", "coeffs", "--group", "u",
                       "--lambda", "1", "--order", "2", "--mode", "blocks",
                       "--n", "3", "--json")
    assert code == 0
    assert json.loads(out)["coeffs"] == ["3", "1", "3"]


@pytest.mark.parametrize("argv", [
    ("--group", "su", "--lambda", "", "--n", "0"),
    ("--group", "c", "--lambda", "", "--n", "-2"),
], ids=["su-n0", "c-n-2"])
def test_blocks_mode_rank_below_one_is_usage_error(capsys, argv):
    # the same message as rows mode, before the parts check
    code, out, err = run(capsys, "casimir", "gf", *argv, "--mode", "blocks")
    assert code == 2 and not out
    assert "rank must be a positive integer" in err


def test_unknown_group_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["casimir", "gf", "--group", "e8", "--lambda", "1"])
    assert exc.value.code == 2


def test_negative_order_is_usage_error(capsys):
    code, _, err = run(capsys, "casimir", "coeffs", "--group", "u",
                       "--lambda", "1", "--order", "-1")
    assert code == 2 and "order" in err


def test_bad_partition_is_usage_error(capsys):
    code, _, err = run(capsys, "casimir", "gf", "--group", "u",
                       "--lambda", "1,2")
    assert code == 2 and err


def test_jack_compute_json(capsys):
    code, out, _ = run(capsys, "jack", "compute", "--lambda", "1,1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m_expansion"] == "m[1,1]"
    assert payload["k"] == "k"


def test_jack_singular_coupling_exits_one(capsys):
    code, _, err = run(capsys, "jack", "compute", "--lambda", "2", "--k", "1")
    assert code == 1
    assert "singular" in err.lower() or "k = 1" in err


def test_jack_collision_below_a_zero_row_exits_one(capsys):
    # e(5) = e(2,1,1,1) at k = 3/2, where that row's sum vanishes as well
    code, out, err = run(capsys, "jack", "compute", "--lambda", "5", "--k=3/2")
    assert code == 1 and out == ""
    assert err == ("error: eigenvalue collision at coupling k = 3/2: "
                   "partitions 5 and 2,1,1,1 share an eigenvalue, so the "
                   "eigenfunction is not determined\n")


def test_jack_bad_coupling_is_usage_error(capsys):
    code, _, err = run(capsys, "jack", "compute", "--lambda", "2", "--k", "w")
    assert code == 2 and "--k" in err


def test_spaces_dual_json(capsys):
    code, out, _ = run(capsys, "spaces", "dual", "--label", "CI", "--json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"space", "kpq", "dual_kpq", "matched", "partner",
                            "relabeled", "discrepancies"}
    assert payload["matched"] is True
    assert payload["kpq"] == {"k": "-1/2", "p": "0", "q": "-1/2", "N": "N"}
    assert payload["dual_kpq"]["k"] == "-2"


def test_spaces_unknown_label(capsys):
    code, out, err = run(capsys, "spaces", "dual", "--label", "XYZ")
    assert code == 2 and not out
    # the KeyError's message, not its repr in quotes
    assert err.startswith("error: unknown space 'XYZ' (known: ")
    assert not err.startswith('error: "')


@pytest.mark.parametrize("argv", [
    ("casimir", "verify-duality", "--max-weight", "-2"),
    ("jack", "verify-duality", "--max-weight", "-1"),
    ("jack", "verify-diagram", "--max-weight", "-1"),
    ("jack", "verify-diagram", "--max-n", "-3"),
    ("dims", "king", "--max-weight", "-2"),
    ("verify-all", "--max-degree", "-1"),
])
def test_negative_sweep_size_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert "usage:" in captured.err and "nonnegative integer" in captured.err


@pytest.mark.parametrize("argv, code, summary", [
    (("casimir", "verify-duality", "--max-weight", "0"), 0, "2 checks"),
    (("dims", "king", "--max-weight", "0"), 0, "1 checks"),
    (("jack", "verify-diagram", "--max-n", "0"), 1, "0 checks"),
])
def test_zero_sweep_size_is_accepted(capsys, argv, code, summary):
    # weight 0 still checks the empty partition; an empty sweep is no pass
    got, out, err = run(capsys, *argv)
    assert got == code and not err
    assert f"summary: {summary}," in out


def test_spaces_dual_m_without_n_is_usage_error(capsys):
    code, out, err = run(capsys, "spaces", "dual", "--label", "BDI", "--m", "3")
    assert code == 2 and not out
    assert "--n" in err and "'n'" not in err


def test_spaces_dual_n_without_m_is_usage_error(capsys):
    code, out, err = run(capsys, "spaces", "dual", "--label", "BDI", "--n", "3")
    assert code == 2 and not out
    assert "BDI has size parameters m and n: --n needs --m as well" in err


def test_empty_sweep_is_not_a_pass(capsys):
    code, out, _ = run(capsys, "jack", "verify-duality", "--max-weight", "0")
    assert code == 1
    assert "summary: 0 checks" in out
    assert not VerificationReport(suite="empty", config={}).all_ok


def test_spaces_table_json(capsys):
    code, out, _ = run(capsys, "spaces", "table", "--json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["spaces"]) == 12
    assert len(payload["pairs"]) == 6


def test_dims_poly_text(capsys):
    code, out, _ = run(capsys, "dims", "poly", "--family", "c", "--lambda", "2")
    assert code == 0 and "2*N^2 + N" in out


def test_dims_vogel_family_json(capsys):
    code, out, _ = run(capsys, "dims", "vogel", "--family", "sln", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["triple"] == ["-2", "2", "n"]
    assert payload["dim"] == "n^2 - 1"


def test_verify_all_smoke(capsys):
    code, out, _ = run(capsys, "verify-all", "--max-weight", "2",
                       "--max-degree", "2", "--max-n", "2")
    assert code == 0
    assert "failed" in out and " 0 failed" in out


def test_verify_all_json_stable(capsys):
    args = ["verify-all", "--max-weight", "2", "--max-degree", "2",
            "--max-n", "2", "--json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["suite"] == "verify-all"
    assert payload["config"] == {"maxWeight": 2, "maxDegree": 2, "maxN": 2}
    assert payload["summary"]["failed"] == 0
    ids = [case["id"] for case in payload["cases"]]
    assert ids == sorted(ids)


def test_verify_all_rejects_bad_config(capsys):
    code, _, err = run(capsys, "verify-all", "--max-weight", "0")
    assert code == 2 and err


def test_run_verify_all_report_object():
    report = run_verify_all(2, 2, 2)
    assert report.all_ok
    suites = {case.check_id.split("/")[0] for case in report.cases}
    assert suites == {"casimir", "dims", "jack", "spaces"}


def test_no_floats_anywhere(capsys):
    # negative rationals go through the --k=value form
    code, out, _ = run(capsys, "jack", "compute", "--lambda", "2", "--k=-1/2",
                       "--json")
    assert code == 0
    assert "." not in json.loads(out)["m_expansion"]


def test_parser_builds():
    parser = build_parser()
    assert parser.prog == "negdim"


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return f"{code}\n{captured.out}\n{captured.err}"


@pytest.mark.parametrize("argv, digest", [
    (("-h",), "37b4f03c4f76ada0b1211e08af76d7302c6ddf2f"),
    (("casimir", "-h"), "81b5d922168cc3905683c763e74e44dde82ff051"),
    (("jack", "-h"), "6741633143715038366dab983fc52cb1be930ef2"),
    (("spaces", "-h"), "5fb450e1bc323a4d36d13833c07042620043ad5e"),
    (("dims", "-h"), "3a1d911e5ec77f617fddb69e6552df7dc677f88c"),
    (("casimir", "gf", "-h"), "31ae3d37b05f6546591aaccb335b33ff7fea8eb3"),
    (("casimir", "coeffs", "-h"), "9beee90ebaac394012f294e2f74f6a943fe87ac8"),
    (("casimir", "verify-duality", "-h"),
     "b5acb7c4dbc364e2c3d17c3eebb6aa988516a147"),
    (("jack", "compute", "-h"), "158e6c50e02e319d54b11e063441802c7cce08a0"),
    (("jack", "verify-duality", "-h"),
     "ebd895269499247e0a2af5304a240fdbe713fcb2"),
    (("jack", "verify-diagram", "-h"),
     "59ad368f88f426a017c79e3889595d2e71ae4b24"),
    (("spaces", "table", "-h"), "352dbf62d0c57fff86995a4a6cc67ea1a145d3a0"),
    (("spaces", "dual", "-h"), "3c7ee43a55e045fb93018c3964b66ebb2c79acfd"),
    (("dims", "king", "-h"), "249b78a01f8200e02ec6e8bd34e03a3e6874a952"),
    (("dims", "poly", "-h"), "fa0c286917376401acecd19ad33a9e85ee2de9ba"),
    (("dims", "vogel", "-h"), "d439a2e27570c0ba693c641874d5f81d04336454"),
    (("dims", "vogel-sp-so", "-h"), "73e662245def4b88594bb11511db16971abe5857"),
    (("verify-all", "-h"), "954269ca5fd68c8efc47529c9219c239a45f89db"),
    (("casimir", "gf", "--group", "x", "--lambda", "1"),
     "5341912b34d2e08812ead39f60b4144bd009dc00"),
    (("dims", "poly", "--family", "e", "--lambda", "1"),
     "5f6429b44cef1192e2879310a133f159d76ac074"),
    (("casimir", "gf", "--group", "u"),
     "3f83159cd1d3b219e28c7e5adc8bbf03384277bc"),
    (("casimir", "coeffs", "--group", "u", "--lambda", "1", "--order", "x"),
     "85cf4d5a095fd55c1d2ece29705094573143dba5"),
    (("verify-all", "--max-weight", "-1"),
     "6b18b6b9651c740004556e96cf2308f3ed352875"),
    (("casimir", "gf", "--group", "u", "--lambda", "1", "junk"),
     "76118c07d854166996ea48c4b83cf4ebb5935879"),
    (("spaces", "table", "--bogus"), "f4fdcc59ea6ab0b9bc649fde8bd73b96234c14a6"),
    (("algebra",), "e8c891a0ca8e6443942b435068e179c59b5caab0"),
    (("casimir", "bogus"), "38015b89a3d37311a3e2cd16935b372a262ba677"),
    (("casimir", "--json", "gf", "--group", "u", "--lambda", "1"),
     "e6b175bc6bd6af2195682882714651f15b4470b7"),
])
def test_help_and_usage_errors_match_golden_digest(capsys, monkeypatch, argv,
                                                   digest):
    # argparse wraps help and usage lines to COLUMNS; the digests pin the
    # exit code, stdout and stderr of the full parser tree in one piece
    monkeypatch.setenv("COLUMNS", "80")
    outcome = _outcome(capsys, argv)
    assert hashlib.sha1(outcome.encode()).hexdigest() == digest, outcome


@pytest.mark.parametrize("argv, digest", [
    # an abbreviated flag, accepted
    (("casimir", "gf", "--group", "u", "--lam", "2,1"),
     "fccd8366b48fbe91f0566b25efc9262d1c259e70"),
    # a repeated flag: the last value wins
    (("casimir", "gf", "--group", "u", "--group", "su", "--lambda", "2,1"),
     "01f9864515b6aedd638002251ab745840ae9bbf1"),
    # a negative number as its own token is a value, and the rank check
    # refuses it
    (("casimir", "coeffs", "--group", "b", "--lambda", "2,1", "--order", "3",
      "--mode", "rows", "--n", "-1"),
     "75aafaea06e9ad6853598db1ca0e3a5c5e285f65"),
    # a negative rational as its own token reads as a flag
    (("jack", "compute", "--lambda", "2,1", "--k", "-1/2"),
     "1dd31ecf14054474779427b4bcadc4e87edac7ff"),
    # a switch given a value
    (("verify-all", "--json=1"), "5dc0f32e92620c0d288fb47db246a15dce67799c"),
])
def test_lines_only_argparse_reads_match_golden_digest(capsys, monkeypatch,
                                                       argv, digest):
    # lines outside the strict form every query takes keep argparse's
    # reading: its value, or its usage and error text, byte for byte
    monkeypatch.setenv("COLUMNS", "80")
    outcome = _outcome(capsys, argv)
    assert hashlib.sha1(outcome.encode()).hexdigest() == digest, outcome


def test_query_builds_no_full_parser(capsys):
    # one query of each query form, and a sweep, is answered from the
    # command table with no parser built; a usage error builds the
    # command's own parser, and the full tree is built only for help and
    # errors above a command
    build_parser.cache_clear()
    _command_parser.cache_clear()
    for argv in (("casimir", "gf", "--group", "u", "--lambda", "2,1"),
                 ("casimir", "coeffs", "--group", "su", "--lambda", "2",
                  "--order", "3"),
                 ("casimir", "coeffs", "--group", "b", "--lambda", "1",
                  "--order", "2", "--mode", "rows", "--n", "2"),
                 ("jack", "compute", "--lambda", "2,1", "--k=-1/2"),
                 ("dims", "poly", "--family", "c", "--lambda", "2,1"),
                 ("spaces", "dual", "--label", "BDI", "--m", "2", "--n", "3"),
                 ("verify-all", "--max-weight", "2", "--max-degree", "3",
                  "--max-n", "2", "--json")):
        assert main(list(argv)) == 0
    assert _command_parser.cache_info().currsize == 0
    assert build_parser.cache_info().currsize == 0
    outcome = _outcome(capsys, ("dims", "poly", "--family", "e", "--lambda",
                                "1"))
    assert outcome.startswith("2\n")
    assert "negdim dims poly: error: argument --family: invalid choice" in outcome
    assert _command_parser.cache_info().currsize == 1
    assert build_parser.cache_info().currsize == 0
    outcome = _outcome(capsys, ("dims", "poly", "--family", "a", "--lambda",
                                "1", "junk"))
    assert outcome.startswith("2\n")
    assert "negdim: error: unrecognized arguments: junk" in outcome
    assert build_parser.cache_info().currsize == 1


# tokens argparse reads differently from a plain reading: '--', help, an
# abbreviation, an unknown flag or word, values that start with '-'
_NOISE = ("--", "-h", "--lam", "--bogus", "junk", "", "-1", "-1/2", "--json",
          "u=v", "2,1")


def _values(flag):
    """(values that pass, values that fail or that argparse reads
    differently) for a flag."""
    if flag.choices is not None:
        return flag.choices, ("x", "u=v", "")
    if flag.type is not None:
        return ("0", "3", " 2"), ("-1", "x", "")
    return ("2,1", "0", "symbolic", "BDI", "a b", "=", ""), ("-1/2", "--", "-")


@st.composite
def _command_lines(draw):
    """(command, argv): most of the command's flags, each as --flag value,
    --flag=value or a bare --flag, mostly with values that pass, and at
    most one noise token, in any order."""
    key = draw(st.sampled_from(sorted(COMMANDS)))
    pieces = []
    for flag in _flags(key):
        if not draw(st.integers(0, 4)):
            continue
        form = draw(st.sampled_from(("next", "=", "next", "=", "bare")))
        if flag.type is bool:
            pieces.append([flag.name + "=" + draw(st.sampled_from(("", "1")))]
                          if form == "=" else [flag.name])
            continue
        good, bad = _values(flag)
        value = draw(st.sampled_from(good if draw(st.integers(0, 3)) else bad))
        pieces.append({"next": [flag.name, value],
                       "=": [flag.name + "=" + value],
                       "bare": [flag.name]}[form])
    pieces += draw(st.lists(st.sampled_from(_NOISE).map(lambda t: [t]),
                            max_size=1))
    pieces = draw(st.permutations(pieces))
    return key, [token for piece in pieces for token in piece]


@given(_command_lines())
@example((("jack", "compute"), ["--lambda=--"]))
@example((("casimir", "gf"), ["--group", "u", "--lam", "2,1"]))
@example((("casimir", "gf"), ["--group", "u", "--group", "su", "--lambda", "1"]))
@example((("casimir", "coeffs"), ["--group", "b", "--lambda", "1", "--order",
                                  "2", "--n", "-1"]))
@example((("jack", "compute"), ["--lambda", "2", "--k=-1/2"]))
@example((("jack", "compute"), ["--lambda", "2", "--k="]))
@example((("spaces", "table"), ["--json="]))
@example((("casimir", "gf"), ["--group=u=v", "--lambda", "1"]))
@example((("dims", "poly"), ["--family", "a", "--lambda", "1", "-h"]))
@example((("dims", "poly"), ["--family", "a", "--", "--lambda", "1"]))
@settings(max_examples=500, deadline=None)
def test_table_parse_reads_as_argparse_reads(line):
    # whatever the table parse accepts, the command's argparse parser reads
    # the same way, with nothing left over
    key, argv = line
    args = _table_parse(key, argv)
    if args is not None:
        namespace, extra = _command_parser(key).parse_known_args(argv)
        assert (vars(args), extra) == (vars(namespace), [])


@pytest.mark.parametrize("argv, digest", [
    (("verify-all", "--max-weight", "2", "--max-degree", "3", "--max-n", "2",
      "--json"), "d021a268da4047643012b282cf13573a28a84778"),
    (("spaces", "table", "--json"), "eda4cd5197c5bcdccbecc9946dcc909cf255e8dc"),
    (("verify-all", "--json"), "00b9edda2c5a7738b2454bc463e9165918e5c206"),
    (("jack", "compute", "--lambda", "3,2", "--k=-1/2", "--json"),
     "3a75b6492a5bc95de410066b456ed6e83ecad479"),
    (("jack", "compute", "--lambda", "2,2,1,1", "--json"),
     "ae1145c51875b21e0b05251d7bc4e87287fb1125"),
    (("jack", "compute", "--lambda", "3,1,1", "--json"),
     "d94c0730aa234585fee6d4716b58746dfe747121"),
    (("jack", "verify-duality", "--max-weight", "8", "--json"),
     "9ed23b674476baea42d9a225584543aa652623c5"),
    # beyond the defaults: the su rows against blocks and the sp-so and
    # u-self dualities at weight 8
    (("verify-all", "--max-weight", "8", "--max-degree", "8", "--max-n", "5",
      "--json"), "ea02a47a5df079706115ac4baf62e45ef13f872f"),
    # the larger sweeps the Jack duality on lists made cheap
    (("jack", "verify-duality", "--max-weight", "10", "--json"),
     "d43e1454c9f3963b22bd0dda3a7c956a6c28541a"),
    (("verify-all", "--max-weight", "10", "--max-degree", "10", "--max-n", "5",
      "--json"), "2fb3cac2854ec23adee6601f86b3a2a1ea8ca8c7"),
    # the dual at integer sizes, answered on rationals: a relabeled match
    # with the BDI discrepancy, a one-parameter row, a self-dual pair
    (("spaces", "dual", "--label", "BDI", "--m", "4", "--n", "6", "--json"),
     "2226213cc85f677f2625101c31fdecbd94581582"),
    (("spaces", "dual", "--label", "CI", "--n", "3", "--json"),
     "c9f76e377160ee7e296b66d5a700e0e499299882"),
    (("spaces", "dual", "--label", "AIII", "--m", "2", "--n", "2", "--json"),
     "5b66254603a57e321d00c7eff7400b4166d55208"),
    (("verify-all", "--max-weight", "12", "--max-degree", "12", "--max-n", "5",
      "--json"), "68da971ebd08e508818db4b7d92c169be78c433f"),
    # numeric couplings: zero, positive, negative non-integral, and weights
    # 6 and 7
    (("jack", "compute", "--lambda", "3,2,1", "--k=0", "--json"),
     "9260dd6c36eaa0d7d3dd4e9f1513ecb88b7ef0f8"),
    (("jack", "compute", "--lambda", "4,2", "--k=11/5", "--json"),
     "816ec949f2245ddde604071d066df67cc9152fd8"),
    (("jack", "compute", "--lambda", "3,3,1", "--k=-7/3", "--json"),
     "38904add0709f8adb21f1c6e907210ec9d63e23d"),
    (("jack", "compute", "--lambda", "4,2,1", "--k=2", "--json"),
     "29a78c3146579e8eb53ccbe9a74b11231b940823"),
    (("jack", "compute", "--lambda", "4,1,1,1", "--k=1/3", "--json"),
     "0a00ca1bc4e4ed435a81035650e8af8f6bfdf8c5"),
])
def test_output_matches_golden_digest(capsys, argv, digest):
    # byte identity of the default output, pinned by its SHA-1
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha1(out.encode()).hexdigest() == digest


def test_closed_reader_ends_quietly():
    # the reader closes after the first line, as `| head -1` does; a pipe
    # of one page makes the writer block long before the 54 kB are out
    read_end, write_end = os.pipe()
    fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096)
    env = dict(os.environ, PYTHONPATH=str(Path(negdim.__file__).parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "negdim.cli", "verify-all", "--max-weight", "2",
         "--max-degree", "3", "--max-n", "2", "--json"],
        stdout=write_end, stderr=subprocess.PIPE, env=env)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as reader:
        assert reader.readline() == b"{\n"
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert err == b""


# Every command the CLI answers with a verdict or a value, with the SHA-1 of
# its output: the default sweep, one query of each of the six query-mix
# forms and a symplectic generating function, whose prefactor factor the
# trial division takes out, the spaces table and every form of the two
# Vogel commands.  None takes a gcd or the general exact division.
GCD_FREE_COMMANDS = (
    (("verify-all", "--json"), "00b9edda2c5a7738b2454bc463e9165918e5c206"),
    (("casimir", "gf", "--group", "u", "--lambda", "2,1"),
     "156f9a840b4bf47d0d71445cc16a4ca335474be9"),
    (("casimir", "gf", "--group", "c", "--lambda", "2,1"),
     "fa08d4e24254d9687d90d8517f4cb1c1bc252d19"),
    (("casimir", "coeffs", "--group", "su", "--lambda", "2,1", "--order", "3"),
     "79aa1e0e0004467c23f632f4dbbb9697efbefa89"),
    (("casimir", "coeffs", "--group", "b", "--lambda", "2,1", "--order", "3",
      "--mode", "rows", "--n", "3"), "80397f5bf093b4d109d536b436efaa4c606829a6"),
    (("jack", "compute", "--lambda", "2,1", "--k=-1/2"),
     "ece63bb55fc9b0902b656c8d69331aee70fb5da6"),
    (("dims", "poly", "--family", "c", "--lambda", "2,1"),
     "cb7b697d62c8ad438685cef740a6e5dc9422ea5c"),
    (("spaces", "dual", "--label", "BDI", "--m", "2", "--n", "3"),
     "a83b7eb28aad49174d5ea218f33ff1514141dbb1"),
    (("spaces", "table"), "b92bab02a32f14abb7378eb661371868c4dfff79"),
    (("dims", "vogel"), "7460a8206a0e0eb4807dc634f09916478a05ade2"),
    (("dims", "vogel", "--family", "sp2n"), "cb474a5174f5c98ed961bf78ac3f3c94eedf4d7e"),
    (("dims", "vogel", "--family", "sln"), "ed60555eb59cc36c6e945b0eea262c5c2e628302"),
    (("dims", "vogel", "--family", "son"), "1505794fbcb8561aab2e19dba5b10a448e9cfa92"),
    (("dims", "vogel-sp-so"), "2401173d54471e0bfb5e40b9328b4591f2bca9ad"),
)

GCD_REFUSING_PROBE = """
import contextlib, hashlib, io, json, sys
from negdim import cli, exact_algebra

def refuse(a, b):
    raise AssertionError("a command took a polynomial gcd or exact division")

exact_algebra.poly_gcd = exact_algebra.poly_exact_div = refuse
out = []
for argv in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    out.append([code, hashlib.sha1(buf.getvalue().encode()).hexdigest()])
print(json.dumps(out))
"""


def test_no_command_takes_a_gcd():
    # a fresh interpreter, so no cache warmed by another test hides a gcd or
    # an exact division
    env = dict(os.environ, PYTHONPATH=str(Path(negdim.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", GCD_REFUSING_PROBE,
         json.dumps([argv for argv, _ in GCD_FREE_COMMANDS])],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0, digest] for _, digest in GCD_FREE_COMMANDS]


KERNEL_REFUSING_PROBE = """
import contextlib, hashlib, io, json
from negdim import cli, exact_algebra, jack, kernels

def refuse(*args):
    raise AssertionError("the duality sweep called a polynomial kernel")

for name in ("poly_add", "poly_sub", "poly_mul", "poly_scale"):
    setattr(kernels, name, refuse)
exact_algebra.poly_exact_div = refuse
assert jack.verify_duality(6).all_ok
buf = io.StringIO()
with contextlib.redirect_stdout(buf):
    code = cli.main(["jack", "verify-duality"])
print(json.dumps([code, hashlib.sha1(buf.getvalue().encode()).hexdigest()]))
"""


def test_duality_sweep_calls_no_kernel():
    # the symbolic solve, the cross-multiplication and c run on dense int
    # lists, so with every term kernel and the exact division refusing,
    # the sweep still holds and prints the same report; a fresh
    # interpreter, so no cache warmed by another test hides a call
    env = dict(os.environ, PYTHONPATH=str(Path(negdim.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", KERNEL_REFUSING_PROBE],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, "de007f8dc6366ba61f5b830c3bd9bd74fbe8181f"]
