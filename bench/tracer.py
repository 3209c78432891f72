"""External tracer for one hochcalc CLI job.

Run as ``python bench/tracer.py --mode time|count --record FILE -- <cli args>``
with the checkout's ``src`` on ``PYTHONPATH``.  It wraps the public
functions of every ``hochcalc`` module, rebinding each module attribute
that is one of them (so a function imported by name into another module is
traced too), and a fixed list of methods.  Then it runs
``hochcalc.cli.main`` and writes its record to FILE as JSON.

``--mode time`` records one span (name, start, end, parent, thread) per
call, in memory.  ``--mode count`` records no time: it counts calls, field
operations and the matrix shapes seen at the elimination boundaries.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import pkgutil
import sys
import threading
import time
import types
from array import array

# Small helpers called millions of times; wrapping them would make the
# tracer the main cost of the traced run.
UNTRACED = {
    "exactla.vec_add",
    "exactla.vec_scale",
    "exactla.vec_sub",
    "exactla.vec_eq",
    "exactla.vec_is_zero",
    "cli.scalar_json",
    "cli.parse_scalar",
}

# (module, class, attribute, span name)
METHODS = [
    ("cochain", "Cochain", "compose_at", "cochain.compose_at"),
    ("laurent", "PolyCochain", "compose_at", "laurent.poly_compose"),
    ("laurent", "Poly", "__mul__", "laurent.poly_mul"),
    ("laurent", "Poly", "subst_affine", "laurent.subst_affine"),
    ("cohomology", "HHSpace", "__init__", "cohomology.hhspace"),
    ("cohomology", "HHSpace", "class_of", "cohomology.class_of"),
    ("cohomology", "HHSpace", "is_coboundary", "cohomology.is_coboundary"),
]

FIELD_OPS = ("add", "sub", "mul", "inv")


def hochcalc_modules():
    import hochcalc

    mods = [hochcalc]
    for info in pkgutil.iter_modules(hochcalc.__path__):
        mods.append(importlib.import_module(f"hochcalc.{info.name}"))
    return mods


def short_module(name: str) -> str:
    return name.rsplit(".", 1)[-1]


def traced_targets(mods):
    """Public functions defined in hochcalc, keyed by span name."""
    found = {}
    for mod in mods:
        for attr, obj in vars(mod).items():
            if not isinstance(obj, types.FunctionType) or attr.startswith("_"):
                continue
            if not obj.__module__.startswith("hochcalc") or obj.__name__ != attr:
                continue
            name = f"{short_module(obj.__module__)}.{attr}"
            if name not in UNTRACED:
                found[name] = obj
    return found


class SpanBuffer:
    """Spans of one thread, in parallel arrays; ``parent`` is an index into
    the same buffer, -1 at the top."""

    def __init__(self, n_names: int):
        self.nid = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.top = -1
        self.depth = [0] * n_names


class Recorder:
    """Spans in time mode, counters in count mode."""

    def __init__(self, mode: str):
        self.mode = mode
        self.names: list = []
        self.name_ids: dict = {}
        self.buffers: list = []
        self.lock = threading.Lock()
        self.local = threading.local()
        self.thread_counts: list = []
        self.matrices: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, name: str, fn):
        if self.mode == "time":
            return self._timed(name, fn)
        return self._counted(name, fn)

    def _buffer(self) -> SpanBuffer:
        buf = SpanBuffer(len(self.names))
        self.local.buf = buf
        with self.lock:
            self.buffers.append(buf)
        return buf

    def _timed(self, name, fn):
        nid = self.name_id(name)
        local = self.local
        new_buffer = self._buffer
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = getattr(local, "buf", None) or new_buffer()
            idx = len(buf.nid)
            parent = buf.top
            depth = buf.depth[nid]
            buf.nid.append(nid)
            buf.parent.append(parent)
            buf.outer.append(depth == 0)
            buf.start.append(0.0)
            buf.end.append(0.0)
            buf.top = idx
            buf.depth[nid] = depth + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                buf.top = parent
                buf.depth[nid] = depth
                buf.start[idx] = start
                buf.end[idx] = end

        return wrapper

    def counts(self) -> dict:
        """This thread's counters; threads never update a shared dict."""
        counts = getattr(self.local, "counts", None)
        if counts is None:
            counts = self.local.counts = {}
            with self.lock:
                self.thread_counts.append(counts)
        return counts

    def _counted(self, name, fn):
        thread_counts = self.counts
        inspect = INSPECTORS.get(name)
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = thread_counts()
            counts[key] = counts.get(key, 0) + 1
            result = fn(*args, **kwargs)
            if inspect is not None:
                inspect(self, args, result)
            return result

        return wrapper

    def add(self, key, n):
        counts = self.counts()
        counts[key] = counts.get(key, 0) + n

    def maximum(self, key, n):
        counts = self.counts()
        counts[key] = max(counts.get(key, 0), n)

    def see_matrix(self, key, m):
        """Count distinct coefficient matrices by content."""
        digest = hashlib.sha256(
            repr((m.rows, m.cols, sorted(m.entries.items()))).encode()
        ).hexdigest()
        self.matrices.setdefault(key, set()).add(digest)

    def write(self, path: str, main_s: float):
        """Counters, or span names, as JSON at ``path``; spans in binary
        at ``path + ".bin"``."""
        header = {"mode": self.mode, "main_s": main_s}
        if self.mode == "time":
            header["names"] = self.names
            header["buffers"] = [len(b.nid) for b in self.buffers]
            with open(path + ".bin", "wb") as fh:
                for b in self.buffers:
                    for arr in (b.nid, b.parent, b.outer, b.start, b.end):
                        arr.tofile(fh)
        else:
            counts: dict = {}
            for part in self.thread_counts:
                for key, n in part.items():
                    merge = max if key.endswith(".max_cells") else int.__add__
                    counts[key] = merge(counts.get(key, 0), n)
            for key, seen in self.matrices.items():
                counts[key] = len(seen)
            header["counts"] = counts
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def read_spans(path: str):
    """Spans written by ``Recorder.write``: the header, and per thread the
    arrays (name id, parent, outer, start, end) in call order."""
    with open(path, encoding="utf-8") as fh:
        header = json.load(fh)
    threads = []
    with open(path + ".bin", "rb") as fh:
        for n in header["buffers"]:
            cols = []
            for code in ("i", "i", "b", "d", "d"):
                arr = array(code)
                arr.fromfile(fh, n)
                cols.append(arr)
            threads.append(cols)
    return header, threads


# -- argument and result inspectors for count mode ----------------------------


def _rref(rec, args, result):
    m = args[0]
    rec.add("exactla.rref.rows", m.rows)
    rec.add("exactla.rref.cols", m.cols)
    rec.add("exactla.rref.nnz_in", len(m.entries))
    rec.add("exactla.rref.rank_sum", result[0])
    rec.maximum("exactla.rref.max_cells", m.rows * m.cols)


def _solve(rec, args, result):
    m = args[0]
    rec.add("exactla.solve.rows", m.rows)
    rec.add("exactla.solve.cols", m.cols)
    rec.add("exactla.solve.nnz_in", len(m.entries))
    rec.add("exactla.solve.found", result is not None)
    rec.see_matrix("exactla.solve.distinct", m)


def _kernel_basis(rec, args, result):
    m = args[0]
    rec.add("exactla.kernel_basis.nnz_in", len(m.entries))
    rec.add("exactla.kernel_basis.nullity", len(result))


def _solve_columns(rec, args, result):
    columns = list(args[1])
    extra = list(args[3]) if len(args) > 3 else []
    cols = columns + extra
    rec.add("exactla.solve_columns.cols", len(cols))
    rec.add("exactla.solve_columns.rows", len({r for c in cols for r in c} | set(args[2])))
    rec.add("exactla.solve_columns.nnz_in", sum(len(c) for c in cols))
    rec.add("exactla.solve_columns.found", result is not None)


def _cochain_basis(rec, args, result):
    a, p = args[0], args[1]
    normalized = args[3] if len(args) > 3 else True
    letters = a.dim - 1 if normalized else a.dim
    rec.add("cochain.cochain_basis.tuples", letters**p if p > 0 else 1)
    rec.add("cochain.cochain_basis.size", len(result))


def _find_combination(rec, args, result):
    rec.add("laurent.find_combination.unknowns", result[2]["unknowns"])
    rec.add("laurent.find_combination.found", result[1] is not None)


INSPECTORS = {
    "exactla.rref": _rref,
    "exactla.solve": _solve,
    "exactla.kernel_basis": _kernel_basis,
    "exactla.solve_columns": _solve_columns,
    "cochain.cochain_basis": _cochain_basis,
    "laurent.find_combination": _find_combination,
}


def _count_field_ops(rec, cls):
    for op in FIELD_OPS:
        orig = getattr(cls, op)
        key = f"exactla.field_ops.{op}"

        def wrapper(self, *args, _orig=orig, _key=key):
            counts = rec.counts()
            counts[_key] = counts.get(_key, 0) + 1
            return _orig(self, *args)

        setattr(cls, op, wrapper)


def install(rec: Recorder):
    """Wrap every traced function and method; return the wrapped main."""
    mods = hochcalc_modules()
    wrappers = {}
    for name, fn in traced_targets(mods).items():
        wrappers[id(fn)] = rec.wrap(name, fn)
    for mod in mods:
        for attr, obj in list(vars(mod).items()):
            w = wrappers.get(id(obj))
            if w is not None:
                setattr(mod, attr, w)
    by_name = {short_module(m.__name__): m for m in mods}
    for mod_name, cls_name, attr, span in METHODS:
        cls = getattr(by_name[mod_name], cls_name)
        setattr(cls, attr, rec.wrap(span, getattr(cls, attr)))
    if rec.mode == "count":
        exactla = by_name["exactla"]
        _count_field_ops(rec, exactla.Rationals)
        _count_field_ops(rec, exactla.PrimeField)
    return by_name["cli"].main


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    opts, cli_args = argv[:split], argv[split + 1 :]
    mode = opts[opts.index("--mode") + 1]
    out = opts[opts.index("--record") + 1]
    rec = Recorder(mode)
    cli_main = install(rec)
    start = time.perf_counter()
    code = cli_main(cli_args)
    rec.write(out, time.perf_counter() - start)
    return code


if __name__ == "__main__":
    sys.exit(main())
