"""Pinned report digests: every CLI run below must keep its exit code and
the sha256 of its ``results`` and ``error`` blocks.

The digests live in ``report_digests.json``.  To record them afresh (only
when a report change is intended), run from the repository root::

    PYTHONPATH=src python tests/test_report_digests.py > tests/report_digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

from hochcalc.algebra import truncated_skew_laurent
from hochcalc.cli import InputDocument, emit_document, main
from hochcalc.exactla import PrimeField, Rationals

HERE = Path(__file__).resolve().parent
FIXTURES = HERE.parent / "fixtures"
DIGESTS = HERE / "report_digests.json"

DOCUMENTS = [
    "dual_numbers_f3.json",
    "dual_numbers_q.json",
    "exterior_line_q.json",
    "tower_f2_a4_extendable.json",
    "tower_f2_a4_obstructed.json",
    "tower_f2_a5_valid.json",
    "tower_q_a4_undecided.json",
    "tsl_f3_a5_page3.json",
    "tsl_f3_a6.json",
    "tsl_q_a5_page3.json",
]

COMMANDS = [
    ["hh", "--p-max", "3", "--bases"],
    ["hh", "--p-max", "3", "--bases", "--full"],
    ["validate"],
    ["obstruct", "--page", "1"],
    ["obstruct", "--page", "2"],
    ["obstruct", "--page", "3"],
    ["extend", "--to", "6"],
    ["e-page", "--page", "1", "--window", "0:3,0:3", "--differentials", "--grid"],
    ["e-page", "--page", "2", "--window", "0:3,0:3", "--differentials", "--grid"],
    ["e-page", "--page", "3", "--window", "0:3,0:3", "--differentials", "--grid"],
    ["collapse-check", "--window", "2:4,6:8"],
    ["props", "--trials", "20"],
]

RUNS = [[doc] + cmd for doc in DOCUMENTS for cmd in COMMANDS]


def _sha(value) -> str:
    return hashlib.sha256(json.dumps(value, indent=2, sort_keys=True).encode()).hexdigest()


def run_digest(run, out: Path) -> dict:
    doc, *cmd = run
    code = main(["--in", str(FIXTURES / doc), "--out", str(out)] + cmd)
    report = json.loads(out.read_text())
    return {
        "code": code,
        "results": _sha(report.get("results")),
        "error": _sha(report.get("error")),
    }


def _load():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("run", RUNS, ids=[" ".join(r) for r in RUNS])
def test_report_digest(run, tmp_path):
    assert run_digest(run, tmp_path / "report.json") == _load()[" ".join(run)]


# hh reports on two of the benchmark's algebras, written with emit_document;
# the same pin as above, kept here so that report_digests.json stays the
# record of the fixture runs
BENCH_ALGEBRAS = {"tsl_f3_4": (PrimeField(3), 4), "tsl_q_3": (Rationals(), 3)}
BENCH_DIGESTS = {
    "tsl_f3_4 hh --p-max 3 --bases": "ee365ff63589e6e70ea8b504e09430a90084f4b60f29cdd6860ce66c3519ab91",
    "tsl_f3_4 hh --p-max 3 --bases --full": "0508654f2c1d3b1dce26e033f471320647ee19e41a8d797a6ee7a04436a4145a",
    "tsl_q_3 hh --p-max 3 --bases": "e036bcbeb696cf2021271f2e337004b40b11fc89de3b728965f515fd8aa782e7",
    "tsl_q_3 hh --p-max 3 --bases --full": "8d3f12126689d48a37c45191a520142458f046490e801e549c3c445aa501dfdc",
}


@pytest.mark.parametrize("run", list(BENCH_DIGESTS))
def test_bench_algebra_hh_digest(run, tmp_path):
    name, *cmd = run.split()
    field, n = BENCH_ALGEBRAS[name]
    doc = tmp_path / f"{name}.json"
    a = truncated_skew_laurent(field, n)
    doc.write_text(json.dumps(emit_document(InputDocument(field, a))))
    assert run_digest([str(doc)] + cmd, tmp_path / "report.json") == {
        "code": 0,
        "results": BENCH_DIGESTS[run],
        "error": _sha(None),
    }


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        table = {" ".join(r): run_digest(r, out) for r in RUNS}
    sys.stdout.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
