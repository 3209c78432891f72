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

from hochcalc.cli import main

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


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        table = {" ".join(r): run_digest(r, out) for r in RUNS}
    sys.stdout.write(json.dumps(table, indent=1, sort_keys=True) + "\n")
