"""Self-tests of the benchmark.  Run with ``python3 -m pytest bench/tests``
from the root of the repository; the last test runs every workload once
and takes one to two minutes."""

import json
import subprocess
import sys

import pytest

import gen
import jobs
import run
from layers import LayerTotals

ROOT = run.ROOT


def test_same_seed_same_documents():
    for workload in ("hh-elim", "ak-tower"):
        first = gen.documents(workload, gen.variant_of(7))
        again = gen.documents(workload, gen.variant_of(7))
        assert first == again
        assert first != gen.documents(workload, gen.variant_of(8))


def test_roundtrip_check_catches_a_dropped_product():
    a = gen.hh_algebras(0)["tsl_f3_4"]
    doc = gen.document(a)
    row = next(r for r in doc["algebra"]["products"].values() if len(r) > 1)
    row.pop(sorted(row)[0])
    with pytest.raises(gen.GenerationError):
        gen.check_roundtrip(gen.encode(doc), a)


@pytest.fixture()
def tiny_workload(monkeypatch):
    """A one-job workload on a fixture, cheap enough for the gate tests."""
    monkeypatch.setitem(
        jobs.WORKLOADS,
        "tiny",
        [("props.ext_q", ["--in", jobs.EXT_Q, "--seed", "{seed}", "props", "--trials", "5"])],
    )
    setup = run.Setup("tiny", 0)
    res = jobs.run_child(ROOT, ["-m", "hochcalc.cli", *setup.argv(jobs.WORKLOADS["tiny"][0][1])],
                         setup.work)
    golden = jobs.summarize(res)
    golden.pop("report")
    setup.golden = {"props.ext_q": golden}
    return setup, res


def test_gate_passes_on_golden(tiny_workload):
    setup, _ = tiny_workload
    result = run.run_pass(setup)
    assert result.attempted == 1 and result.failures == []


def test_wrong_golden_digest_fails(tiny_workload):
    setup, _ = tiny_workload
    setup.golden["props.ext_q"]["digest"] = "0" * 64
    result = run.run_pass(setup)
    assert len(result.failures) / result.attempted > 0


def test_undecided_may_become_verified_only(tiny_workload):
    setup, res = tiny_workload
    golden = dict(setup.golden["props.ext_q"], exit=3)
    assert jobs.check_job(res, golden, lambda report: True) == ""
    assert jobs.check_job(res, golden, lambda report: False) != ""
    assert jobs.check_job(res, golden) != ""


def test_self_times_and_gaps_add_up_to_traced_wall(tmp_path):
    doc = tmp_path / "q3.json"
    doc.write_bytes(gen.documents("hh-elim", 0)["tsl_q_3"])
    record = tmp_path / "spans.json"
    argv = [str(run.BENCH / "tracer.py"), "--mode", "time", "--record", str(record), "--",
            "--in", str(doc), "hh", "--p-max", "3", "--bases"]
    res = jobs.run_child(ROOT, argv, tmp_path)
    assert res.code == 0
    totals = LayerTotals()
    totals.add_spans(str(record), res.wall_s)
    accounted = sum(totals.self_s.values()) + totals.gap_s
    assert abs(accounted - res.wall_s) <= 0.02 * res.wall_s
    assert totals.self_s["exactla.rref"] > 0 and totals.calls["cli.main"] == 1


def test_held_out_seed_passes_every_workload():
    for workload in jobs.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
             "--seed", "982451653", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0, out.stdout
