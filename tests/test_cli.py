import json
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hochcalc.cli import InputDocument, emit_document, main, parse_input
from hochcalc.errors import InputError
from test_package import CHILD_ENV

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(args, tmp_path):
    out = tmp_path / "report.json"
    code = main(["--out", str(out)] + list(args))
    return code, json.loads(out.read_text())


def test_parse_minimal_document():
    doc = parse_input(json.dumps({
        "field": {"type": "Q"},
        "algebra": {"basis": [{"name": "1", "degree": 0}], "unit": "1"},
    }))
    assert doc.algebra.dim == 1


def test_parse_rejects_non_prime():
    with pytest.raises(InputError) as err:
        parse_input(json.dumps({"field": {"type": "F", "p": 4},
                                "algebra": {"basis": [{"name": "1", "degree": 0}], "unit": "1"}}))
    assert "field.p" in str(err.value)


def test_parse_rejects_duplicate_names():
    with pytest.raises(InputError):
        parse_input(json.dumps({
            "field": {"type": "Q"},
            "algebra": {"basis": [{"name": "1", "degree": 0}, {"name": "1", "degree": 1}],
                         "unit": "1"},
        }))


def test_parse_rejects_degree_mismatch_in_maps():
    base = {
        "field": {"type": "F", "p": 2},
        "algebra": {"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1}],
                     "unit": "1", "products": {"u": {"u": {}}}},
        "structure": {"k": 4, "maps": {"m3": [
            {"args": ["u", "u", "u"], "out": {"u": 1}},
        ]}},
    }
    with pytest.raises(InputError) as err:
        parse_input(json.dumps(base))
    assert "structure.maps.m3" in str(err.value)


def test_parse_rejects_non_normalized_maps():
    base = {
        "field": {"type": "F", "p": 2},
        "algebra": {"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1}],
                     "unit": "1", "products": {"u": {"u": {}}}},
        "structure": {"k": 4, "maps": {"m3": [
            {"args": ["1", "1", "1"], "out": {"u": 1}},
        ]}},
    }
    with pytest.raises(InputError):
        parse_input(json.dumps(base))


# two products in the row of "a"
TWO_PRODUCTS_IN_A_ROW = json.dumps({
    "field": {"type": "F", "p": 3},
    "algebra": {
        "basis": [{"name": "1", "degree": 0}, {"name": "a", "degree": 0},
                  {"name": "b", "degree": 0}],
        "unit": "1",
        "products": {"a": {"a": {"a": 1}, "b": {"b": 1}}, "b": {"a": {"b": 1}}},
    },
})


def test_roundtrip_fixture_documents():
    texts = [TWO_PRODUCTS_IN_A_ROW]
    for fx in sorted(FIXTURES.glob("*.json")):
        if fx.name == "section8_generators.json":
            continue  # reference tables, not an input document
        texts.append(fx.read_text())
    for text in texts:
        doc = parse_input(text)
        emitted = emit_document(doc)
        again = parse_input(json.dumps(emitted))
        assert again.algebra.products == doc.algebra.products
        assert emit_document(again) == emitted


def test_validate_exit_codes(tmp_path):
    code, report = run_cli(["--in", str(FIXTURES / "dual_numbers_q.json"), "validate"], tmp_path)
    assert code == 0
    assert report["results"]["algebra_violations"] == []
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "field": {"type": "Q"},
        "algebra": {"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1}],
                     "unit": "1", "products": {"u": {"u": {"u": "1"}}}},
    }))
    code, report = run_cli(["--in", str(bad), "validate"], tmp_path)
    assert code == 1
    assert report["results"]["algebra_violations"]


def test_validate_runs_the_algebra_axioms_once(monkeypatch, tmp_path):
    """``validate`` reports the verdict that the structure's construction
    reads back: one ``validate_algebra`` run per algebra."""
    import hochcalc.algebra as algebra
    import hochcalc.cli as cli

    calls = []
    real = algebra.validate_algebra

    def spy(a):
        calls.append(a)
        return real(a)

    # also where the command module might hold a name of its own
    monkeypatch.setattr(algebra, "validate_algebra", spy)
    monkeypatch.setattr(cli, "validate_algebra", spy, raising=False)
    code, report = run_cli(["--in", str(FIXTURES / "tower_f2_a5_valid.json"), "validate"], tmp_path)
    assert code == 0 and len(calls) == 1
    assert report["results"] == {"algebra_violations": [], "structure_violations": []}


def test_input_error_exit_code(tmp_path):
    f = tmp_path / "x.json"
    f.write_text("{\"field\": {\"type\": \"F\", \"p\": 4}}")
    code, report = run_cli(["--in", str(f), "validate"], tmp_path)
    assert code == 1
    assert report["error"]["kind"] == "input"
    assert report["error"]["path"] == "field.p"


def test_missing_input_file_is_an_input_error(tmp_path):
    code, report = run_cli(["--in", str(tmp_path / "absent.json"), "validate"], tmp_path)
    assert code == 1
    assert report["error"]["kind"] == "input" and report["error"]["path"] == "--in"
    assert "No such file" in report["error"]["message"]


def test_non_utf8_input_file_is_an_input_error(tmp_path):
    f = tmp_path / "x.json"
    f.write_bytes(b'{"field": {"type": "\xff"}}')
    code, report = run_cli(["--in", str(f), "validate"], tmp_path)
    assert code == 1
    assert report["error"]["kind"] == "input" and report["error"]["path"] == "--in"
    assert "utf-8" in report["error"]["message"]


@pytest.mark.parametrize("args, flag", [
    (["--in", str(FIXTURES / "dual_numbers_q.json"), "--out", "{out}", "validate"], "--out"),
    (["section8", "--char", "2", "--max-poly-degree", "1", "--report", "{out}"], "--report"),
], ids=["out", "report"])
def test_unwritable_report_file_is_an_input_error(capsys, tmp_path, args, flag):
    """A report file that cannot be opened exits 1 with the report, carrying
    an input error at the flag that named it, on standard output."""
    out = str(tmp_path / "no" / "such" / "dir" / "r.json")
    code = main([out if a == "{out}" else a for a in args])
    printed, err = capsys.readouterr()
    report = json.loads(printed)
    assert code == 1 and err == ""
    assert report["error"]["kind"] == "input" and report["error"]["path"] == flag
    assert "No such file" in report["error"]["message"]
    assert report["results"]


@pytest.mark.parametrize("args, words", [
    (["obstruct", "--page", "4"], "invalid choice"),
    (["--no-such-option", "validate"], "unrecognized arguments"),
    (["hh", "--p-max", "x"], "invalid int value"),
    ([], "required"),
], ids=["bad-choice", "unknown-option", "bad-int", "no-command"])
def test_usage_errors_are_json_input_errors(capsys, args, words):
    """A malformed command line exits 1 with a JSON input error on standard
    output, not with argparse's exit code 2 (a certified obstruction)."""
    code = main(["--in", str(FIXTURES / "dual_numbers_q.json")] + args)
    out, err = capsys.readouterr()
    report = json.loads(out)
    assert code == 1
    assert report["error"]["kind"] == "input" and report["error"]["path"] == "argv"
    assert words in report["error"]["message"]
    assert err.startswith("usage:")


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as info:
        main(["obstruct", "--help"])
    assert info.value.code == 0
    assert "--page" in capsys.readouterr().out


def _tower_doc(maps):
    return {
        "field": {"type": "F", "p": 2},
        "algebra": {"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 1}],
                     "unit": "1", "products": {"u": {"u": {}}}},
        "structure": {"k": 4, "maps": maps},
    }


@pytest.mark.parametrize("doc, path", [
    (_tower_doc({"m3": [{"args": ["u", "u", "u"], "out": 1}]}), "structure.maps.m3[0].out"),
    (_tower_doc([{"args": ["u", "u", "u"], "out": {"u": 1}}]), "structure.maps"),
    (_tower_doc({"m3": [{"args": [["u"], "u", "u"], "out": {"u": 1}}]}),
     "structure.maps.m3[0].args"),
    (_tower_doc({"m\u00b3": []}), "structure.maps.m\u00b3"),
    # only m<n> names m_n: another spelling of it would replace its table
    (_tower_doc({"m3": [], "m03": []}), "structure.maps.m03"),
    (_tower_doc({"m3": [], "m\u0663": []}), "structure.maps.m\u0663"),
    (_tower_doc({"m" + "9" * 5000: []}), "structure.maps.m" + "9" * 5000),
    ({"field": {"type": "Q"}, "algebra": {"basis": 5, "unit": "1"}}, "algebra.basis"),
], ids=["out-not-object", "maps-is-list", "arg-not-a-string", "superscript-index",
        "leading-zero-index", "arabic-indic-index", "5000-digit-index", "basis-not-a-list"])
def test_malformed_structure_is_an_input_error(tmp_path, doc, path):
    f = tmp_path / "x.json"
    f.write_text(json.dumps(doc))
    code, report = run_cli(["--in", str(f), "validate"], tmp_path)
    assert code == 1
    assert report["error"]["kind"] == "input"
    assert report["error"]["path"] == path


def test_unparsable_numbers_are_input_errors():
    for text in ('{"field": ' + "9" * 5000 + "}", "[" * 100000 + "]" * 100000):
        with pytest.raises(InputError):
            parse_input(text)


def test_large_composite_modulus_rejected_fast(tmp_path):
    f = tmp_path / "x.json"
    f.write_text(json.dumps({
        "field": {"type": "F", "p": (10**9 + 7) * (10**9 + 9)},
        "algebra": {"basis": [{"name": "1", "degree": 0}], "unit": "1"},
    }))
    start = time.perf_counter()
    code, report = run_cli(["--in", str(f), "validate"], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["error"]["path"] == "field.p"


def test_huge_decimal_exponent_rejected_fast(tmp_path):
    f = tmp_path / "x.json"
    f.write_text(json.dumps({
        "field": {"type": "Q"},
        "algebra": {"basis": [{"name": "1", "degree": 0}, {"name": "e", "degree": 0}],
                    "unit": "1", "products": {"e": {"e": {"e": "1e999999999"}}}},
    }))
    start = time.perf_counter()
    code, report = run_cli(["--in", str(f), "validate"], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 1
    assert report["error"]["kind"] == "input"
    assert report["error"]["path"] == "algebra.products.e.e.e"


def test_hh_at_arity_1500(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "exterior_line_q.json"), "hh", "--p", "1500", "--q", "1500"],
        tmp_path,
    )
    assert code == 0
    assert rep["results"]["spaces"]["1500,1500"]["dim"] == 1


def test_hh_command(tmp_path):
    code, report = run_cli(
        ["--in", str(FIXTURES / "dual_numbers_f3.json"), "hh", "--p-max", "3"], tmp_path
    )
    assert code == 0
    spaces = report["results"]["spaces"]
    assert spaces["0,0"]["dim"] == 2
    assert spaces["2,0"]["dim"] == 1
    assert spaces["2,0"]["dim_cocycles"] - spaces["2,0"]["dim_coboundaries"] == 1


def test_props_command_deterministic(tmp_path):
    args = ["--in", str(FIXTURES / "exterior_line_q.json"), "--seed", "42",
            "props", "--trials", "10"]
    code1, rep1 = run_cli(args, tmp_path)
    code2, rep2 = run_cli(args, tmp_path)
    assert code1 == code2 == 0
    assert rep1 == rep2
    assert rep1["seed"] == 42
    assert rep1["timing_ms"] is None


def test_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["--in", str(FIXTURES / "tower_f2_a4_extendable.json"), "obstruct", "--page", "2"]
    main(["--out", str(out1)] + argv)
    main(["--out", str(out2)] + argv)
    assert out1.read_bytes() == out2.read_bytes()


def test_obstruct_exit_codes(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a4_extendable.json"), "obstruct", "--page", "2"],
        tmp_path,
    )
    assert code == 0 and rep["results"]["class"]["coords"] == {}
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a4_obstructed.json"), "obstruct", "--page", "2"],
        tmp_path,
    )
    assert code == 2
    assert rep["results"]["class"]["coords"]
    assert rep["results"]["certificate"]["kind"] == "rank"
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a4_obstructed.json"), "obstruct", "--page", "1"],
        tmp_path,
    )
    assert code == 2


def test_extend_command(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a4_extendable.json"), "extend", "--to", "6"],
        tmp_path,
    )
    assert code == 0
    assert rep["results"]["revalidated"] is True
    assert [s["k"] for s in rep["results"]["steps"]] == [4, 5]


def test_e_page_command(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a5_valid.json"), "e-page", "--page", "2",
         "--window", "0:3,0:3", "--grid"],
        tmp_path,
    )
    assert code == 0
    cells = rep["results"]["cells"]
    assert cells["0,0"]["kind"] == "predicate"
    assert cells["1,1"]["kind"] == "vector"
    assert any("P*" in line for line in rep["results"]["grid"])


def test_collapse_check_command(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a5_valid.json"), "collapse-check",
         "--window", "2:4,6:8"],
        tmp_path,
    )
    assert code == 0
    assert rep["results"]["sq_vanishes"] is True
    assert rep["results"]["e3_vanishes_on_window"] is True


def test_collapse_check_without_a_bijective_cup(tmp_path):
    """Where cup with the Massey class is not bijective on the window, the
    E3 question is not asked: exit 0, no E3 verdict and no E3 dimensions."""
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a5_valid.json"), "collapse-check",
         "--window", "0:2,0:2"],
        tmp_path,
    )
    assert code == 0
    assert rep["results"]["cup_bijective_on_window"] is False
    assert rep["results"]["e3_vanishes_on_window"] is None
    assert "e3_dims" not in rep["results"]


def test_section8_cli_char2(tmp_path):
    code, rep = run_cli(["section8", "--char", "2", "--max-poly-degree", "2"], tmp_path)
    assert code == 0
    assert rep["results"]["all_passed"] is True


def test_console_entry_point(tmp_path):
    out = tmp_path / "r.json"
    proc = subprocess.run(
        [sys.executable, "-m", "hochcalc.cli", "--in",
         str(FIXTURES / "dual_numbers_q.json"), "--out", str(out), "validate"],
        capture_output=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0


def test_obstruct_page3_undecided_over_q(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_q_a4_undecided.json"), "obstruct", "--page", "3"],
        tmp_path,
    )
    assert code == 3
    assert rep["results"]["status"] == "undecided"
    assert "kernel" in rep["results"]["reason"]


@pytest.mark.parametrize("command", [["obstruct", "--page", "3"], ["extend", "--to", "6"]],
                         ids=["obstruct", "extend"])
def test_page3_nonzero_writes_the_rank_certificate(tmp_path, monkeypatch, command):
    """A k >= 5 page-3 solve that finds nothing is reported as "nonzero"
    with exit 2 and a rank certificate.  No fixture reaches that branch, so
    the solve of the A_5 page-3 fixture is made to find nothing."""
    import hochcalc.obstruction as obstruction

    monkeypatch.setattr(obstruction, "solve_columns_many",
                        lambda field, columns, rhss: [None] * len(rhss))
    code, rep = run_cli(["--in", str(FIXTURES / "tsl_f3_a5_page3.json")] + command, tmp_path)
    assert code == 2
    results = rep["results"]
    assert results["status" if command[0] == "obstruct" else "page3_status"] == "nonzero"
    cert = results["certificate"]
    assert cert["kind"] == "rank"
    assert cert["rank_with_target"] == cert["rank_image"] + 1


def test_threads_flag_is_scheduling_independent(tmp_path):
    base = ["--in", str(FIXTURES / "dual_numbers_f3.json")]
    _, rep1 = run_cli(base + ["hh", "--p-max", "4"], tmp_path)
    _, rep4 = run_cli(["--threads", "4"] + base + ["hh", "--p-max", "4"], tmp_path)
    assert rep1["results"] == rep4["results"]


def test_e_page_differentials(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a5_valid.json"), "e-page", "--page", "2",
         "--window", "0:3,0:3", "--differentials"],
        tmp_path,
    )
    assert code == 0
    diffs = rep["results"]["differentials"]
    assert diffs["0,1"] == {"kind": "quadratic"}
    assert diffs["1,1"]["undefined"] == "NotProvidedError"
    assert "rank" in diffs["2,2"]


def test_e_page_1_command(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "exterior_line_q.json"), "e-page", "--page", "1",
         "--window", "0:2,0:2", "--differentials"],
        tmp_path,
    )
    assert code == 0
    assert rep["results"]["cells"]["0,0"]["kind"] == "vector"
    assert "rank" in rep["results"]["differentials"]["1,1"]


def test_hh_single_cell_and_full_pipeline(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "exterior_line_q.json"), "hh", "--p", "1", "--q", "0",
         "--bases", "--full"],
        tmp_path,
    )
    assert code == 0
    space = rep["results"]["spaces"]["1,0"]
    assert space["dim"] == 1 and rep["results"]["pipeline"] == "full"
    assert space["representatives"]


def test_section8_byte_determinism(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    argv = ["section8", "--char", "2", "--max-poly-degree", "2"]
    main(["--out", str(out1)] + argv)
    main(["--out", str(out2)] + argv)
    assert out1.read_bytes() == out2.read_bytes()


def test_props_seed_after_subcommand(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "exterior_line_q.json"), "props", "--trials", "5",
         "--seed", "42"],
        tmp_path,
    )
    assert code == 0 and rep["seed"] == 42


def test_e_page_3_command(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a5_valid.json"), "e-page", "--page", "3",
         "--window", "0:3,0:3"],
        tmp_path,
    )
    assert code == 0
    cells = rep["results"]["cells"]
    assert cells["1,1"]["kind"] == "predicate"
    assert cells["3,2"]["kind"] == "undefined"
    assert cells["2,2"]["kind"] == "vector"


def test_negative_hochschild_degree_is_a_json_error(tmp_path):
    for cell in (["--p", "-1"], ["--p", "-1", "--q", "0"]):
        code, rep = run_cli(
            ["--in", str(FIXTURES / "dual_numbers_q.json"), "hh"] + cell, tmp_path
        )
        assert code == 1 and rep["results"] == {}
        assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "--p"


FAR = "99999999999999999999"


@pytest.mark.parametrize("fixture", ["dual_numbers_f3", "tower_f2_a5_valid"])
@pytest.mark.parametrize("q", [FAR, "-" + FAR])
def test_far_bidegree_is_an_empty_cell(tmp_path, fixture, q):
    """A cell far outside the degrees an algebra reaches has no cochains:
    it reports dimension 0 and exits 0, however far away it is."""
    doc = str(FIXTURES / f"{fixture}.json")
    code, rep = run_cli(["--in", doc, "hh", "--p", "2", "--q", q], tmp_path)
    assert code == 0
    assert rep["results"]["spaces"] == {f"2,{q}": {
        "dim": 0, "dim_coboundaries": 0, "dim_cochains": 0, "dim_cocycles": 0}}
    t = q[1:] if q.startswith("-") else "-" + q
    code, rep = run_cli(["--in", doc, "e-page", "--page", "2", f"--window=2:2,{t}:{t}"], tmp_path)
    assert code == 0
    assert rep["results"]["cells"][f"2,{t}"]["dim"] == 0


def test_negative_arity_max_is_an_input_error(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "dual_numbers_q.json"), "props", "--arity-max", "-1"], tmp_path
    )
    assert code == 1
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "arity-max"
    code, rep = run_cli(
        ["--in", str(FIXTURES / "dual_numbers_q.json"), "props", "--trials", "-1"], tmp_path
    )
    assert code == 1 and rep["results"] == {}
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "trials"


@pytest.mark.parametrize("args, path", [
    (["hh", "--p", FAR], "--p"),
    (["hh", "--p", "1501", "--q", "0"], "--p"),
    (["hh", "--p-max", FAR], "--p-max"),
    (["hh", "--p-max", "1501"], "--p-max"),
    (["e-page", "--page", "1", "--window", f"0:{FAR},0:0"], "window"),
    (["e-page", "--page", "1", "--window", f"{FAR}:{FAR},0:0"], "window"),
    (["e-page", "--page", "1", "--window", f"0:0,-{FAR}:{FAR}"], "window"),
    (["e-page", "--page", "1", "--window", "0:100,0:100"], "window"),
    (["collapse-check", f"--window=-{FAR}:0,0:0"], "window"),
    (["extend", "--to", FAR], "--to"),
    (["props", "--arity-max", FAR], "arity-max"),
], ids=["p", "p-with-q", "p-max", "p-max-1501", "window-s-range", "window-far-s",
        "window-t-range", "window-cells", "collapse-window", "extend-to", "props-arity-max"])
def test_unbounded_arity_is_an_input_error(tmp_path, args, path):
    """An arity past MAX_ARITY, or a window past it or with more than
    MAX_WINDOW_CELLS cells, is an input error at its own path, at once."""
    start = time.perf_counter()
    code, rep = run_cli(["--in", str(FIXTURES / "tower_f2_a5_valid.json")] + args, tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and rep["results"] == {}
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == path


def test_negative_p_max_is_an_input_error(tmp_path):
    code, rep = run_cli(
        ["--in", str(FIXTURES / "dual_numbers_q.json"), "hh", "--p-max", "-1"], tmp_path
    )
    assert code == 1 and rep["results"] == {}
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "--p-max"


@pytest.mark.parametrize("command", [["e-page", "--page", "2"], ["collapse-check"]],
                         ids=["e-page", "collapse-check"])
@pytest.mark.parametrize("window", ["0:3,3:0", "3:0,0:3"])
def test_reversed_window_is_an_input_error(tmp_path, command, window):
    """A reversed window is empty: it would give no cells, and a vacuous
    collapse certificate."""
    code, rep = run_cli(
        ["--in", str(FIXTURES / "tower_f2_a5_valid.json")] + command + ["--window", window],
        tmp_path,
    )
    assert code == 1 and rep["results"] == {}
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "window"



@pytest.mark.parametrize("degree", ["-1", "-7"])
def test_negative_max_poly_degree_is_an_input_error(tmp_path, degree):
    """A negative degree bound is an input error, not a report of checks
    that fail for want of a search space."""
    code, rep = run_cli(["section8", "--char", "3", "--max-poly-degree", degree], tmp_path)
    assert code == 1 and rep["results"] == {}
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "--max-poly-degree"


@pytest.mark.parametrize("char, degree", [("0", "7"), ("0", str(10**30)), ("5", "7")],
                         ids=["q-7", "q-1e30", "f5-7"])
def test_max_poly_degree_past_the_bound_is_an_input_error(tmp_path, char, degree):
    """Over Q and F_p with p >= 5 a degree past MAX_POLY_DEGREE is an input
    error at once; the witness search there grows without limit."""
    start = time.perf_counter()
    code, rep = run_cli(["section8", "--char", char, "--max-poly-degree", degree], tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 1 and rep["results"] == {}
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "--max-poly-degree"


@pytest.mark.parametrize("char", ["4", "-3", "1", str(10**28)])
def test_bad_char_is_an_input_error_at_its_path(tmp_path, char):
    """A characteristic that is neither 0 nor a prime PrimeField accepts is an
    input error at --char, checked before the degree bound."""
    code, rep = run_cli(["section8", "--char", char, "--max-poly-degree", "0"], tmp_path)
    assert code == 1 and rep["results"] == {}
    assert rep["error"]["kind"] == "input" and rep["error"]["path"] == "--char"


def test_max_poly_degree_is_unbounded_in_char_2(tmp_path):
    """Over F_2 every exponent is at most 1, so a large degree stays cheap
    and accepted."""
    code, rep = run_cli(["section8", "--char", "2", "--max-poly-degree", "40"], tmp_path)
    assert code == 0 and rep["results"]["all_passed"]


FUZZ_DOCUMENTS = [
    json.loads(fx.read_text())
    for fx in sorted(FIXTURES.glob("*.json"))
    if fx.name != "section8_generators.json"
]

JUNK = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=10**40)
    | st.integers(max_value=-(10**40)) | st.text(max_size=4)
    | st.sampled_from(["1", "u", "e", "x1", "m3", "3/0", "F", "Q"]),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


def _slots(node, out):
    """Every (container, key) pair of a JSON tree, in document order."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in list(items):
        out.append((node, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_parse_input_fuzz(data):
    """Mutated fixture documents parse or raise InputError, nothing else."""
    doc = json.loads(json.dumps(data.draw(st.sampled_from(FUZZ_DOCUMENTS))))
    for _ in range(data.draw(st.integers(1, 3))):
        slots = _slots(doc, [])
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(["drop", "replace", "rename"]))
        if action == "drop":
            del node[key]
        elif action == "replace" or isinstance(node, list):
            node[key] = data.draw(JUNK)
        else:
            node[data.draw(st.text(max_size=3))] = node.pop(key)
    try:
        assert isinstance(parse_input(json.dumps(doc)), InputDocument)
    except InputError:
        pass
