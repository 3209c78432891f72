"""Workloads, the child-process runner and the correctness gate.

Every job is one ``python -m hochcalc.cli`` process, started fresh, with the
checkout's ``src`` on ``PYTHONPATH``.  Jobs run one at a time in a fixed
order (a closed loop with one client).
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

JOB_TIMEOUT_S = 120

F3_4, F3_4B, Q_3 = "{tsl_f3_4}", "{tsl_f3_4_b}", "{tsl_q_3}"
F3_5, F2_5, Q_4 = "{tsl_f3_5}", "{tsl_f2_5}", "{tsl_q_4}"
A5 = "fixtures/tower_f2_a5_valid.json"
Q_A4 = "fixtures/tower_q_a4_undecided.json"
EXT_Q = "fixtures/exterior_line_q.json"

# workload -> [(job id, CLI arguments)]; "{name}" is a generated document,
# "{seed}" the variant seed.
WORKLOADS = {
    "hh-elim": [
        ("hh.f3_4.t1", ["--in", F3_4, "--threads", "1", "hh", "--p-max", "3", "--bases"]),
        ("hh.f3_4.t2", ["--in", F3_4B, "--threads", "2", "hh", "--p-max", "3", "--bases"]),
        ("hh.q_3", ["--in", Q_3, "hh", "--p-max", "3", "--bases"]),
        ("hh.q_3.full", ["--in", Q_3, "hh", "--p-max", "3", "--bases", "--full"]),
    ],
    "section8-witness": [
        ("section8.char0", ["section8", "--char", "0", "--max-poly-degree", "2"]),
        ("section8.char3", ["section8", "--char", "3", "--max-poly-degree", "2"]),
    ],
    "ak-tower": [
        ("obstruct2.f3_5", ["--in", F3_5, "obstruct", "--page", "2"]),
        ("extend6.f3_5", ["--in", F3_5, "extend", "--to", "6"]),
        ("obstruct2.f2_5", ["--in", F2_5, "obstruct", "--page", "2"]),
        ("obstruct3.f2_5", ["--in", F2_5, "obstruct", "--page", "3"]),
        ("obstruct3.q_4", ["--in", Q_4, "obstruct", "--page", "3"]),
        ("extend6.q_4", ["--in", Q_4, "extend", "--to", "6"]),
        ("epage2.a5", ["--in", A5, "e-page", "--page", "2", "--window", "0:3,0:3", "--differentials"]),
        ("epage3.a5", ["--in", A5, "e-page", "--page", "3", "--window", "0:3,0:3"]),
        ("collapse.a5", ["--in", A5, "collapse-check", "--window", "2:4,6:8"]),
        ("obstruct3.q_a4", ["--in", Q_A4, "obstruct", "--page", "3"]),
        ("props.ext_q", ["--in", EXT_Q, "--seed", "{seed}", "props", "--trials", "100"]),
    ],
}

# The jobs whose time per field operation is compared between one and two
# threads (they run on different basis orders of the same algebra).
THREADS_PAIR = ("hh.f3_4.t1", "hh.f3_4.t2")


def job_argv(args, docs: dict, seed: int):
    subst = {f"{{{name}}}": str(path) for name, path in docs.items()}
    subst["{seed}"] = str(seed)
    return [subst.get(a, a) for a in args]


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class ChildResult:
    def __init__(self, code, wall_s, cpu_s, maxrss_kb, stdout, stderr, timed_out):
        self.code = code
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.maxrss_kb = maxrss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.timed_out = timed_out


def run_child(root: Path, argv, work: Path, timeout=JOB_TIMEOUT_S) -> ChildResult:
    """Run ``python <argv>`` in ``root``, waiting for it with ``wait4`` to
    get its own CPU time and peak RSS.  Output goes through files in
    ``work``."""
    out_path, err_path = work / "stdout", work / "stderr"
    killed = threading.Event()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], cwd=root, env=child_env(root), stdout=out, stderr=err
        )

        def kill():
            killed.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss,
        out_path.read_bytes(),
        err_path.read_bytes(),
        killed.is_set(),
    )


def import_probe(root: Path, work: Path) -> float:
    """Seconds a fresh interpreter spends in ``import hochcalc.cli``."""
    code = (
        "import time; t = time.perf_counter(); import hochcalc.cli; "
        "print(repr(time.perf_counter() - t))"
    )
    res = run_child(root, ["-c", code], work)
    if res.code != 0:
        raise RuntimeError("import probe failed: " + res.stderr.decode(errors="replace"))
    return float(res.stdout)


# -- correctness gate ------------------------------------------------------------


def digest(report: dict) -> str:
    """sha256 of the ``results`` and ``error`` blocks; the echoed ``input``
    and ``timing_ms`` are left out."""
    body = {"results": report.get("results"), "error": report.get("error")}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def hh_dims(report: dict) -> dict:
    spaces = report.get("results", {}).get("spaces", {})
    return {pq: item["dim"] for pq, item in spaces.items()}


def summarize(res: ChildResult) -> dict:
    """What the gate compares: exit code, digest, HH dimensions."""
    out = {"exit": res.code}
    try:
        report = json.loads(res.stdout)
    except ValueError:
        return out
    out["digest"] = digest(report)
    if report.get("command") == "hh":
        out["dims"] = hh_dims(report)
    out["report"] = report
    return out


def check_job(res: ChildResult, golden: dict, reverify=None) -> str:
    """Empty string if the job's output matches its golden record, else the
    reason it failed.  ``reverify(report)`` is tried when a job recorded as
    undecided (exit 3) now reports a decided answer."""
    if res.timed_out:
        return "timed out"
    if b"Traceback" in res.stderr:
        return "raised a traceback"
    got = summarize(res)
    if "digest" not in got:
        return "no JSON report"
    if "dims" in golden and got.get("dims") != golden["dims"]:
        return "HH dimensions changed"
    if got["exit"] == golden["exit"] and got["digest"] == golden["digest"]:
        return ""
    if golden["exit"] == 3 and got["exit"] == 0 and reverify is not None:
        return "" if reverify(got["report"]) else "decided answer failed re-verification"
    return f"exit {got['exit']} (golden {golden['exit']}) or results digest changed"
