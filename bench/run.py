"""hochcalc benchmark driver (stdlib only).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --record-golden [--workload NAME]

Runs from the root of a checkout, whose ``src`` it puts on ``PYTHONPATH``;
nothing is installed.  Inputs are generated from the seed, every report is
checked against ``golden.json``, and the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer ones
(from a separate traced run) with ``--trace 1``.  The full per-layer
report is printed above it and written to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
GOLDEN = BENCH / "golden.json"
WORK = ROOT / ".bench_work"
PROBES_PER_PASS = 12
CALIBRATIONS_PER_PASS = 24


def fail(message: str):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


if not (ROOT / "src" / "hochcalc" / "__init__.py").is_file():
    fail(f"no hochcalc sources under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))

import calib  # noqa: E402
import gen  # noqa: E402
import jobs  # noqa: E402
import verify  # noqa: E402
from layers import LayerTotals, layer_metrics  # noqa: E402

# Workloads whose inputs depend on the seed; the others have one golden record.
SEEDED = {"hh-elim", "ak-tower"}


class Setup:
    """A workload's generated documents for one seed, written to its work
    directory, and the golden records they are checked against."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.variant = gen.variant_of(seed)
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        self.sha256 = {}
        for name, data in gen.documents(workload, self.variant).items():
            path = self.work / f"{name}.json"
            path.write_bytes(data)
            self.paths[name] = path.relative_to(ROOT)
            self.sha256[name] = gen.sha256(data)
        self.golden = None

    def load_golden(self):
        """Golden records for these inputs; a changed input stops the run."""
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        key = str(self.variant) if self.workload in SEEDED else "0"
        entry = golden["workloads"][self.workload][key]
        print(f"# {self.workload} variant {key} inputs (sha256): "
              f"{json.dumps(self.sha256, sort_keys=True)}")
        if entry["inputs"] != self.sha256:
            fail(f"generated inputs differ from the golden record of variant {key}: "
                 f"{self.sha256} != {entry['inputs']}")
        self.golden = entry["jobs"]
        return self

    def argv(self, args):
        return jobs.job_argv(args, self.paths, self.variant)

    def document(self, args) -> bytes:
        argv = self.argv(args)
        return (ROOT / argv[argv.index("--in") + 1]).read_bytes()

    def reverify(self, job_id, args):
        """Exact check of a decided answer where the golden one is exit 3."""
        kind = job_id.split(".")[0]
        if kind == "obstruct3":
            return lambda report: verify.page3_witnesses(self.document(args), report)
        if kind == "extend6":
            return lambda report: verify.extended_structure(self.document(args), report, 6)
        return None


class Pass:
    def __init__(self):
        self.walls = {}
        self.cpu_s = 0.0
        self.peak_kb = 0
        self.attempted = 0
        self.failures = []

    @property
    def wall_s(self):
        return sum(self.walls.values())


def run_pass(setup: Setup, wrap=None, probes=None, speed=None) -> Pass:
    """One pass over the workload's jobs.  ``wrap(job_id, argv)`` returns
    the interpreter arguments (default: the plain CLI).  With ``probes``
    and ``speed`` lists, import probes and calibration samples are taken
    before, between and after the jobs, and appended to them."""
    result = Pass()
    workload = jobs.WORKLOADS[setup.workload]
    gaps = len(workload) + 1

    def between_jobs():
        if probes is not None:
            probes.extend(jobs.import_probe(ROOT, setup.work) for _ in range(-(-PROBES_PER_PASS // gaps)))
        if speed is not None:
            speed.extend(calib.sample() for _ in range(-(-CALIBRATIONS_PER_PASS // gaps)))

    for job_id, args in workload:
        between_jobs()
        cli_args = setup.argv(args)
        argv = wrap(job_id, cli_args) if wrap else ["-m", "hochcalc.cli", *cli_args]
        res = jobs.run_child(ROOT, argv, setup.work)
        result.walls[job_id] = res.wall_s
        result.cpu_s += res.cpu_s
        result.peak_kb = max(result.peak_kb, res.maxrss_kb)
        result.attempted += 1
        why = jobs.check_job(res, setup.golden[job_id], setup.reverify(job_id, args))
        if why:
            result.failures.append(f"{job_id}: {why}")
    between_jobs()
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def print_table(title, rows):
    """rows: (name, value, unit, samples)."""
    print(f"# {title}")
    for name, value, unit, samples in rows:
        print(f"  {name:44s} {value:>16.6g} {unit:8s} n={samples}")


def end_to_end(workload: str, seed: int, seconds: float):
    """Passes until the budget is spent.  Pass k of a seeded workload runs
    on the inputs of seed + k, so that a run's figure does not rest on the
    cost of one basis order or one structure."""
    passes, probes, speed, durations = [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        if not passes or workload in SEEDED:
            setup = Setup(workload, seed + len(passes)).load_golden()
        if not passes:
            jobs.import_probe(ROOT, setup.work)  # compiles the byte code once
        passes.append(run_pass(setup, probes=probes, speed=speed))
        durations.append(time.perf_counter() - t0)
        # start another pass only if it is expected to end within the budget
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            break
    # seconds at the reference host speed (see calib.py)
    scale = calib.REFERENCE_S / statistics.median(speed)
    metrics = {
        "wall_ref_s": ([p.wall_s * scale for p in passes], "s"),
        "cpu_ref_s": ([p.cpu_s * scale for p in passes], "s"),
        "peak_rss_mb": ([p.peak_kb / 1024 for p in passes], "MB"),
        "setup_s": ([p * scale for p in probes], "s"),
        "wall_s": ([p.wall_s for p in passes], "s"),
        "cpu_s": ([p.cpu_s for p in passes], "s"),
        "setup_raw_s": (probes, "s"),
        "host.calib_s": (speed, "s"),
    }
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    rows = []
    for name, (values, unit) in metrics.items():
        q1, q3 = quartiles(values)
        rows.append((name, statistics.median(values), unit, len(values)))
        rows.append((f"{name}.q1", q1, unit, len(values)))
        rows.append((f"{name}.q3", q3, unit, len(values)))
    rows.append(("fail_ratio", len(failures) / attempted, "fraction", attempted))
    for job_id in passes[0].walls:
        walls = [p.walls[job_id] for p in passes]
        rows.append((f"job.{job_id}.wall_s", statistics.median(walls), "s", len(walls)))
    print_table(f"{workload} seed {seed}, untraced", rows)
    values = {name: statistics.median(v) for name, (v, _) in metrics.items()}
    units = {name: unit for name, (_, unit) in metrics.items()}
    return values, units, attempted, failures


def traced(workload: str, seed: int):
    """An untraced pass, a timed trace pass and a count pass."""
    setup = Setup(workload, seed).load_golden()
    plain = run_pass(setup)
    totals = LayerTotals()
    records = {}

    def tracer(mode):
        def wrap(job_id, cli_args):
            records[job_id] = setup.work / f"trace.{mode}.{job_id}.json"
            return [str(BENCH / "tracer.py"), "--mode", mode,
                    "--record", str(records[job_id]), "--", *cli_args]
        return wrap

    timed = run_pass(setup, tracer("time"))
    for job_id, wall in timed.walls.items():
        totals.add_spans(str(records[job_id]), wall)
    counted = run_pass(setup, tracer("count"))
    for job_id in counted.walls:
        totals.add_counts(job_id, json.loads(records[job_id].read_text(encoding="utf-8"))["counts"])
    metrics = layer_metrics(totals, plain.wall_s, plain.walls, jobs.THREADS_PAIR, ROOT)
    failures = plain.failures + timed.failures + counted.failures
    if not totals.counts_repeat():
        failures.append("call counts differ between the timed and the counted pass")
    rows = [(name, value, unit, 1) for name, (value, unit) in metrics.items()]
    top = sorted(totals.self_s.items(), key=lambda kv: -kv[1])[:12]
    rows += [(f"top self {name}", value, "s", 1) for name, value in top]
    print_table(f"{workload} seed {seed} (variant {setup.variant}), traced", rows)
    (setup.work / "layers.json").write_text(
        json.dumps({k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, indent=1),
        encoding="utf-8",
    )
    attempted = plain.attempted + timed.attempted + counted.attempted
    return metrics, attempted, failures


def record_golden(workloads):
    """Run every job once on every input variant and store exit codes,
    result digests and input hashes in ``golden.json``."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden["variants"] = gen.VARIANTS
    golden.setdefault("workloads", {})
    for workload in workloads:
        entries = {}
        seeds = range(gen.VARIANTS) if workload in SEEDED else [0]
        for seed in seeds:
            setup = Setup(workload, seed)
            recorded = {}
            for job_id, args in jobs.WORKLOADS[workload]:
                res = jobs.run_child(ROOT, ["-m", "hochcalc.cli", *setup.argv(args)], setup.work)
                if res.timed_out or b"Traceback" in res.stderr:
                    fail(f"{workload} variant {seed} {job_id} crashed")
                got = jobs.summarize(res)
                got.pop("report")
                recorded[job_id] = got
                print(f"{workload} {seed} {job_id} exit {res.code} {res.wall_s:.2f}s",
                      file=sys.stderr)
            entries[str(seed)] = {"inputs": setup.sha256, "jobs": recorded}
        dims = {json.dumps({j: r.get("dims") for j, r in e["jobs"].items()}) for e in entries.values()}
        if len(dims) != 1:
            fail(f"{workload}: HH dimensions differ between variants")
        golden["workloads"][workload] = entries
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(jobs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.record_golden:
        record_golden([args.workload] if args.workload else list(jobs.WORKLOADS))
        return 0
    if not args.workload:
        parser.error("--workload is required")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        layer, attempted, failures = traced(args.workload, args.seed)
        metrics = {m["name"]: {"value": layer[m["name"]][0], "unit": layer[m["name"]][1]}
                   for m in spec["per_layer"]}
    else:
        values, units, attempted, failures = end_to_end(args.workload, args.seed, args.seconds)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": units[m["name"]]}
                   for m in spec["end_to_end"]}
    for f in failures:
        print(f"# FAILED {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
