"""Per-layer metrics from the traced and counted passes of a workload."""

from __future__ import annotations

from pathlib import Path

from tracer import read_spans


def span_totals(path: str):
    """Per span name: calls, self seconds, and total seconds counting only
    the outermost span of each name (recursion is not counted twice).
    Also returns the summed durations of the top-level spans of the main
    thread (the first buffer: it holds ``cli.main``) and of the worker
    threads.  A worker span's wall time includes waits for the
    interpreter lock, and the main thread's ``parallel_map`` self time is
    its wait for the workers."""
    header, threads = read_spans(path)
    names = header["names"]
    calls, self_s, total_s = {}, {}, {}
    top_s = worker_s = 0.0
    for thread, (nid, parent, outer, start, end) in enumerate(threads):
        n = len(nid)
        child = [0.0] * n
        for i in range(n - 1, -1, -1):
            dur = end[i] - start[i]
            p = parent[i]
            if p >= 0:
                child[p] += dur
            elif thread == 0:
                top_s += dur
            else:
                worker_s += dur
            name = names[nid[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if outer[i]:
                total_s[name] = total_s.get(name, 0.0) + dur
    return calls, self_s, total_s, top_s, worker_s


class LayerTotals:
    """Span and counter totals summed over a workload's jobs."""

    def __init__(self):
        self.calls: dict = {}
        self.count_calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.counts: dict = {}
        self.job_field_ops: dict = {}
        self.traced_wall_s = 0.0
        self.gap_s = 0.0
        self.worker_s = 0.0

    def add_spans(self, path: str, child_wall_s: float):
        calls, self_s, total_s, top_s, worker_s = span_totals(path)
        for src, dst in ((calls, self.calls), (self_s, self.self_s), (total_s, self.total_s)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        self.traced_wall_s += child_wall_s
        self.gap_s += child_wall_s - top_s
        self.worker_s += worker_s

    def add_counts(self, job_id: str, counts: dict):
        self.job_field_ops[job_id] = sum(
            v for k, v in counts.items() if k.startswith("exactla.field_ops.")
        )
        for k, v in counts.items():
            if k.endswith(".calls"):
                self.count_calls[k[: -len(".calls")]] = self.count_calls.get(k[: -len(".calls")], 0) + v
            elif k.endswith(".max_cells"):
                self.counts[k] = max(self.counts.get(k, 0), v)
            else:
                self.counts[k] = self.counts.get(k, 0) + v

    def counts_repeat(self) -> bool:
        """Both passes ran the same code: their call counts must agree."""
        return self.calls == self.count_calls


def _ratio(num, den):
    return num / den if den else 0.0


def src_loc(root: Path) -> int:
    return sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted((root / "src").rglob("*.py"))
    )


def layer_metrics(t: LayerTotals, untraced_wall_s: float, job_walls: dict, threads_pair, root: Path):
    """Every per-layer metric: name -> (value, unit)."""
    c, n = t.counts, t.count_calls
    s, tot = t.self_s, t.total_s
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    field_ops = sum(v for k, v in c.items() if k.startswith("exactla.field_ops."))
    put("exactla.rref.calls", n.get("exactla.rref", 0), "count")
    put("exactla.rref.self_s", s.get("exactla.rref", 0.0), "s")
    put("exactla.rref.nnz_in", c.get("exactla.rref.nnz_in", 0), "count")
    put("exactla.rref.rank_sum", c.get("exactla.rref.rank_sum", 0), "count")
    put("exactla.rref.max_cells", c.get("exactla.rref.max_cells", 0), "count")
    put("exactla.solve.calls", n.get("exactla.solve", 0), "count")
    put("exactla.solve.distinct_ratio",
        _ratio(c.get("exactla.solve.distinct", 0), n.get("exactla.solve", 0)), "ratio")
    put("exactla.kernel_basis.total_s", tot.get("exactla.kernel_basis", 0.0), "s")
    put("exactla.solve_columns.calls", n.get("exactla.solve_columns", 0), "count")
    put("exactla.solve_columns.self_s", s.get("exactla.solve_columns", 0.0), "s")
    put("exactla.solve_columns.cols", c.get("exactla.solve_columns.cols", 0), "count")
    put("exactla.solve_columns.nnz_in", c.get("exactla.solve_columns.nnz_in", 0), "count")
    put("exactla.field_ops", field_ops, "count")
    put("cochain.compose_at.calls", n.get("cochain.compose_at", 0), "count")
    put("cochain.compose_at.self_s", s.get("cochain.compose_at", 0.0), "s")
    put("cochain.brace.self_s", s.get("cochain.brace", 0.0), "s")
    put("cochain.hoch_d.calls", n.get("cochain.hoch_d", 0), "count")
    put("cochain.hoch_d.total_s", tot.get("cochain.hoch_d", 0.0), "s")
    put("cochain.cochain_basis.self_s", s.get("cochain.cochain_basis", 0.0), "s")
    put("cochain.cochain_basis.tuples", c.get("cochain.cochain_basis.tuples", 0), "count")
    put("cochain.cochain_basis.yield_ratio",
        _ratio(c.get("cochain.cochain_basis.size", 0), c.get("cochain.cochain_basis.tuples", 0)),
        "ratio")
    put("laurent.poly_compose.self_s", s.get("laurent.poly_compose", 0.0), "s")
    put("laurent.subst_affine.self_s", s.get("laurent.subst_affine", 0.0), "s")
    put("laurent.poly_mul.self_s", s.get("laurent.poly_mul", 0.0), "s")
    put("laurent.find_combination.calls", n.get("laurent.find_combination", 0), "count")
    put("laurent.find_combination.unknowns", c.get("laurent.find_combination.unknowns", 0), "count")
    put("laurent.find_combination.found_ratio",
        _ratio(c.get("laurent.find_combination.found", 0), n.get("laurent.find_combination", 0)),
        "ratio")
    put("laurent.witness_assembly_s",
        tot.get("laurent.find_combination", 0.0) - tot.get("exactla.solve_columns", 0.0), "s")
    put("cohomology.hhspace.builds", n.get("cohomology.hhspace", 0), "count")
    put("cohomology.hhspace.total_s", tot.get("cohomology.hhspace", 0.0), "s")
    put("cohomology.hhspace.self_s", s.get("cohomology.hhspace", 0.0), "s")
    put("cohomology.class_of.calls", n.get("cohomology.class_of", 0), "count")
    put("cohomology.is_coboundary.calls", n.get("cohomology.is_coboundary", 0), "count")
    put("cohomology.is_coboundary.total_s", tot.get("cohomology.is_coboundary", 0.0), "s")
    for name in (
        "ainf.stasheff_residual",
        "ainf.is_valid",
        "obstruction.theta_page2",
        "obstruction.theta_page3_check",
        "obstruction.extend_to",
        "spectral.e3_term",
        "spectral.collapse_check",
        "identities.run_identity_suite",
        "parallel.parallel_map",
        "cli.parse_input",
        "cli.emit_document",
    ):
        put(name + ".total_s", tot.get(name, 0.0), "s")
    one, two = threads_pair
    ops = t.job_field_ops
    speedup = _ratio(
        _ratio(job_walls.get(one, 0.0), ops.get(one, 0)), _ratio(job_walls.get(two, 0.0), ops.get(two, 0))
    )
    put("parallel.threads2_speedup", speedup, "ratio")
    put("cli.main.self_s", s.get("cli.main", 0.0), "s")
    for job, wall in job_walls.items():
        put(f"job.{job}.wall_s", wall, "s")
    put("trace.overhead_ratio", _ratio(t.traced_wall_s, untraced_wall_s), "ratio")
    put("trace.self_plus_gaps_s", sum(s.values()) + t.gap_s, "s")
    put("trace.worker_threads_s", t.worker_s, "s")
    put("trace.traced_wall_s", t.traced_wall_s, "s")
    put("trace.counts_repeat", int(t.counts_repeat()), "bool")
    put("repo.src_loc", src_loc(root), "count")
    return out
