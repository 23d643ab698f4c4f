"""CLI surface: exit codes, JSON shape, byte stability."""

import json

import pytest

from negdim.cli import build_parser, main, run_verify_all
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
    code, _, err = run(capsys, "spaces", "dual", "--label", "G2")
    assert code == 2 and err


def test_spaces_dual_m_without_n_is_usage_error(capsys):
    code, out, err = run(capsys, "spaces", "dual", "--label", "BDI", "--m", "3")
    assert code == 2 and not out
    assert "--n" in err and "'n'" not in err


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
