"""Command-line interface: JSON in, deterministic JSON report out.

Exit codes: 0 success or vanishing obstruction, 1 input or validation
error (a malformed command line included), 2 certified nonzero obstruction
or failed identity, 3 undecided (quadratic step over Q, or a witness search
that came back inconclusive).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import __version__
from .algebra import GradedAlgebra, algebra_violations
from .cochain import Cochain, q_support
from .errors import HochcalcError, InputError
from .exactla import PrimeField, field_from_json, field_to_json, rref

# Each command imports the modules it runs when it runs: a job started
# without cached byte code compiles every module it imports.

# The largest arity a command line may ask for: a cochain basis of arity p
# is found in about p^2 steps, so a far larger one would never finish.  A
# window of a spectral page holds at most MAX_WINDOW_CELLS cells.  A section8
# witness search has about C(d + n, n) monomials per key at degree d, so past
# MAX_POLY_DEGREE it takes minutes and gigabytes; over F_2 and F_3 no exponent
# exceeds p - 1, so there every degree is accepted.
MAX_ARITY = 1500
MAX_WINDOW_CELLS = 10_000
MAX_POLY_DEGREE = 6


# -- input documents -----------------------------------------------------------


class InputDocument:
    def __init__(self, field, algebra, structure=None):
        self.field = field
        self.algebra = algebra
        self.structure = structure


def parse_scalar(field, raw, path):
    try:
        return field.parse(raw)
    except InputError as exc:
        raise InputError(str(exc), path)


def parse_input(text: str) -> InputDocument:
    """Parse and structurally validate a JSON input document."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"not valid JSON: {exc}")
    if not isinstance(doc, dict):
        raise InputError("top level must be an object")
    if "field" not in doc:
        raise InputError("missing field block", "field")
    field = field_from_json(doc["field"])
    if "algebra" not in doc:
        raise InputError("missing algebra block", "algebra")
    ab = doc["algebra"]
    if not isinstance(ab, dict):
        raise InputError("algebra block must be an object", "algebra")
    basis = []
    if not isinstance(ab.get("basis", []), list):
        raise InputError("basis must be a list", "algebra.basis")
    for n, item in enumerate(ab.get("basis", [])):
        path = f"algebra.basis[{n}]"
        if isinstance(item, dict):
            name, degree = item.get("name"), item.get("degree", 0)
        elif isinstance(item, (list, tuple)) and len(item) == 2:
            name, degree = item
        else:
            raise InputError("expected {name, degree}", path)
        if not isinstance(name, str) or not name:
            raise InputError("basis name must be a nonempty string", path)
        if not isinstance(degree, int) or isinstance(degree, bool):
            raise InputError("degree must be an integer", path)
        basis.append((name, degree))
    if not basis:
        raise InputError("empty basis", "algebra.basis")
    unit = ab.get("unit")
    if not isinstance(unit, str):
        raise InputError("missing or non-string unit", "algebra.unit")
    names = {n for n, _ in basis}
    products = {}
    prods = ab.get("products", {})
    if not isinstance(prods, dict):
        raise InputError("products must be an object", "algebra.products")
    for a, row in prods.items():
        if a not in names:
            raise InputError(f"unknown basis name {a!r}", f"algebra.products.{a}")
        if not isinstance(row, dict):
            raise InputError("expected an object", f"algebra.products.{a}")
        for b, vec in row.items():
            path = f"algebra.products.{a}.{b}"
            if b not in names:
                raise InputError(f"unknown basis name {b!r}", path)
            if not isinstance(vec, dict):
                raise InputError("expected an object of coefficients", path)
            out = {}
            for cname, raw in vec.items():
                if cname not in names:
                    raise InputError(f"unknown basis name {cname!r}", f"{path}.{cname}")
                out[cname] = parse_scalar(field, raw, f"{path}.{cname}")
            products[(a, b)] = out
    algebra = GradedAlgebra(field, basis, unit, products)
    structure = None
    if "structure" in doc and doc["structure"] is not None:
        sb = doc["structure"]
        if not isinstance(sb, dict):
            raise InputError("structure block must be an object", "structure")
        k = sb.get("k")
        if not isinstance(k, int) or isinstance(k, bool) or k < 2:
            raise InputError("k must be an integer >= 2", "structure.k")
        raw_maps = sb.get("maps") or {}
        if not isinstance(raw_maps, dict):
            raise InputError("maps must be an object", "structure.maps")
        maps = {}
        for mname, entries in raw_maps.items():
            path = f"structure.maps.{mname}"
            # only the spelling m<n>: "m03" or a non-ASCII digit would name m_n twice
            digits = mname[1:]
            if not (mname[:1] == "m" and digits.isascii() and digits.isdigit()
                    and digits[:1] != "0"):
                raise InputError("map keys look like 'm3', 'm4', ...", path)
            if len(digits) > len(str(k)) or not (3 <= int(digits) <= k):
                raise InputError(f"map index outside 3..{k}", path)
            n = int(digits)
            if not isinstance(entries, list):
                raise InputError("expected a list of entries", path)
            table = {}
            for j, entry in enumerate(entries):
                epath = f"{path}[{j}]"
                if not isinstance(entry, dict) or "args" not in entry or "out" not in entry:
                    raise InputError("expected {args, out}", epath)
                args = entry["args"]
                if not isinstance(args, list) or len(args) != n:
                    raise InputError(f"args must list {n} basis names", epath)
                for aname in args:
                    if not isinstance(aname, str) or aname not in names:
                        raise InputError(f"unknown basis name {aname!r}", f"{epath}.args")
                tup = tuple(algebra.index[aname] for aname in args)
                if not isinstance(entry["out"], dict):
                    raise InputError("expected an object of coefficients", f"{epath}.out")
                vec = {}
                for cname, raw in entry["out"].items():
                    if cname not in names:
                        raise InputError(f"unknown basis name {cname!r}", f"{epath}.out")
                    vec[algebra.index[cname]] = parse_scalar(field, raw, f"{epath}.out.{cname}")
                field.add_into(table.setdefault(tup, {}), vec.items())
            cochain = Cochain(algebra, n, -1, table)
            try:
                cochain.check_homogeneous()
            except HochcalcError as exc:
                raise InputError(f"degree mismatch in map table: {exc}", path)
            if not cochain.is_normalized():
                raise InputError(
                    "map tables must vanish on the unit (normalized cochains)", path
                )
            maps[n] = cochain
        structure = (k, maps)
    return InputDocument(field, algebra, structure)


def emit_document(docobj: InputDocument) -> dict:
    a = docobj.algebra
    field = docobj.field
    products: dict = {}
    for (i, j), vec in sorted(a.products.items()):
        products.setdefault(a.names[i], {})[a.names[j]] = {
            a.names[k]: scalar_json(field, c) for k, c in vec.items()
        }
    out = {
        "field": field_to_json(field),
        "algebra": {
            "basis": [{"name": n, "degree": d} for n, d in zip(a.names, a.degrees)],
            "unit": a.names[a.unit],
            "products": products,
        },
    }
    if docobj.structure:
        out["structure"] = _structure_json(*docobj.structure)
    return out


def _structure_json(k: int, maps: dict) -> dict:
    """The ``structure`` block of a document: k and the map tables m3..mk."""
    return {"k": k, "maps": {f"m{n}": cochain_json(f) for n, f in sorted(maps.items())}}


def scalar_json(field, c):
    if field.char == 0:
        return str(c)
    return int(c)


def cochain_json(f: Cochain):
    a = f.algebra
    field = a.field
    return [
        {
            "args": [a.names[i] for i in t],
            "out": {a.names[k]: scalar_json(field, c) for k, c in sorted(vec.items())},
        }
        for t, vec in sorted(f.table.items())
    ]


def class_json(cls):
    return {
        "bidegree": list(cls.bidegree),
        "coords": {str(j): scalar_json(cls.space.algebra.field, c) for j, c in sorted(cls.coords.items())},
        "representative": cochain_json(cls.representative),
    }


# -- commands --------------------------------------------------------------------


def build_structure(docobj: InputDocument):
    from .ainf import AInfStructure

    if docobj.structure is None:
        raise InputError("this command needs a structure block", "structure")
    k, maps = docobj.structure
    return AInfStructure(docobj.algebra, k, maps)


def cmd_validate(docobj, args, report):
    from .ainf import is_valid

    alg_report = algebra_violations(docobj.algebra)
    report["results"]["algebra_violations"] = alg_report
    code = 0 if not alg_report else 1
    if docobj.structure is not None and not alg_report:
        s = build_structure(docobj)
        sreport = is_valid(s)
        report["results"]["structure_violations"] = sreport
        if sreport:
            code = 1
    return code


def hh_item(space, bases: bool) -> dict:
    item = {
        "dim": space.dim,
        "dim_cochains": len(space.basis),
        "dim_cocycles": space.cocycle_dim(),
        "dim_coboundaries": space.coboundary_dim(),
    }
    if bases:
        item["representatives"] = [cochain_json(f) for f in space.hh_reps]
    return item


def cmd_hh(docobj, args, report):
    from .cohomology import CochainComplex

    a = docobj.algebra
    if args.p is not None:
        if args.p < 0:
            raise InputError("p must be >= 0", "--p")
        if args.p > MAX_ARITY:
            raise InputError(f"p must be <= {MAX_ARITY}", "--p")
        qs = [args.q] if args.q is not None else q_support(a, args.p)
        cells = [(q, args.p) for q in qs]
    else:
        if args.p_max < 0:
            raise InputError("p-max must be >= 0", "--p-max")
        if args.p_max > MAX_ARITY:
            raise InputError(f"p-max must be <= {MAX_ARITY}", "--p-max")
        cells = [(q, p) for p in range(args.p_max + 1) for q in q_support(a, p)]

    # one column C^{*,q} at a time, in increasing p: its cells share their
    # differentials, and each is dropped once no later cell reads it
    spaces = {}
    column = None
    for q, p in sorted(cells):
        if column is None or column.q != q:
            column = CochainComplex(a, q, normalized=not args.full)
        spaces[f"{p},{q}"] = hh_item(column.space(p), args.bases)
        column.release(p - 1)
    report["results"]["pipeline"] = "full" if args.full else "normalized"
    report["results"]["spaces"] = spaces
    return 0


def cmd_props(docobj, args, report):
    from .identities import run_identity_suite

    if args.trials < 0:
        raise InputError("trials must be >= 0", "trials")
    if args.arity_max < 0:
        raise InputError("arity-max must be >= 0", "arity-max")
    if args.arity_max > MAX_ARITY:
        raise InputError(f"arity-max must be <= {MAX_ARITY}", "arity-max")
    try:
        counts = run_identity_suite(docobj.algebra, args.trials, args.seed, args.arity_max)
    except AssertionError as exc:
        report["results"]["identity_failure"] = str(exc)
        return 2
    report["results"]["checks_run"] = counts
    return 0


def parse_window(text):
    try:
        s_part, t_part = text.split(",")
        s0, s1 = (int(x) for x in s_part.split(":"))
        t0, t1 = (int(x) for x in t_part.split(":"))
    except ValueError:
        raise InputError("window must look like s0:s1,t0:t1", "window")
    if s0 > s1 or t0 > t1:
        raise InputError("window bounds must satisfy s0 <= s1 and t0 <= t1", "window")
    # the cells of column s read arity s + 2
    if s1 + 2 > MAX_ARITY:
        raise InputError(f"window must satisfy s1 <= {MAX_ARITY - 2}", "window")
    if (s1 - s0 + 1) * (t1 - t0 + 1) > MAX_WINDOW_CELLS:
        raise InputError(f"window must hold at most {MAX_WINDOW_CELLS} cells", "window")
    return (s0, s1), (t0, t1)


def cmd_e_page(docobj, args, report):
    from .cohomology import HHContext
    from .spectral import QuadraticMap, d1_matrix, d2_map, page_report, render_grid

    window = parse_window(args.window)
    ctx = HHContext(docobj.algebra)
    phi = None
    if args.page >= 3 or (args.page == 2 and args.differentials):
        phi = build_structure(docobj)
    rep = page_report(ctx, phi, args.page, window)
    cells = {}
    for (s, t), cell in sorted(rep["cells"].items()):
        cells[f"{s},{t}"] = {
            "kind": cell.kind,
            "dim": cell.dim,
            "descriptor": cell.descriptor,
            "fringed": s == t,
        }
    report["results"]["page"] = args.page
    report["results"]["cells"] = cells
    if args.differentials:
        (s0, s1), (t0, t1) = window
        diffs = {}
        for s in range(s0, s1 + 1):
            for t in range(t0, t1 + 1):
                try:
                    if args.page == 1:
                        m = d1_matrix(ctx, s, t)
                        # d1 is d(s+2) up to sign: read the rank off its factorization
                        rank = ctx.column(-t, normalized=False).echelon(s + 2).rank
                    elif args.page == 2:
                        m = d2_map(ctx, phi, s, t)
                        if isinstance(m, QuadraticMap):
                            diffs[f"{s},{t}"] = {"kind": "quadratic"}
                            continue
                        rank = rref(m).rank
                    else:
                        continue
                    diffs[f"{s},{t}"] = {"rows": m.rows, "cols": m.cols, "rank": rank}
                except HochcalcError as exc:
                    diffs[f"{s},{t}"] = {"undefined": type(exc).__name__}
        report["results"]["differentials"] = diffs
    if args.grid:
        report["results"]["grid"] = render_grid(rep).splitlines()
    return 0


def cmd_obstruct(docobj, args, report):
    from .cohomology import HHContext
    from .obstruction import obstruction_cocycle, page2_witness, theta_page2, theta_page3_check

    s = build_structure(docobj)
    ctx = HHContext(docobj.algebra)
    if args.page == 1:
        z = obstruction_cocycle(s)
        report["results"]["cocycle"] = cochain_json(z)
        report["results"]["vanishes_as_cochain"] = z.is_zero()
        return 0 if z.is_zero() else 2
    if args.page == 2:
        theta = theta_page2(s, ctx)
        report["results"]["class"] = class_json(theta)
        if theta.is_zero():
            report["results"]["witness"] = cochain_json(page2_witness(s, ctx))
            return 0
        space = ctx.space(s.k + 1, 2 - s.k)
        report["results"]["certificate"] = {
            "kind": "rank",
            "dim_cocycles": space.cocycle_dim(),
            "dim_coboundaries": space.coboundary_dim(),
            "nonzero_coordinates": sorted(theta.coords),
        }
        return 2
    status = theta_page3_check(s, ctx)
    report["results"]["status"] = status.kind
    if status.kind == "vanishes":
        report["results"]["witnesses"] = {
            "b_prev": cochain_json(status.b_prev),
            "b_top": cochain_json(status.b_top),
        }
        return 0
    if status.kind == "nonzero":
        report["results"]["certificate"] = status.certificate
        return 2
    report["results"]["reason"] = status.reason
    return 3


def cmd_extend(docobj, args, report):
    from .ainf import is_valid
    from .obstruction import extend_to

    if args.to > MAX_ARITY:
        raise InputError(f"to must be <= {MAX_ARITY}", "--to")
    s = build_structure(docobj)
    result = extend_to(s, args.to)
    report["results"]["steps"] = [
        {"k": st.k, "depth": st.depth, "perturbed": st.perturbed} for st in result.steps
    ]
    if result.ok:
        out = result.structure
        report["results"]["structure"] = _structure_json(out.k, out.maps)
        report["results"]["revalidated"] = not is_valid(out)
        return 0
    rep = result.report
    report["results"]["failure_at_k"] = rep.k
    report["results"]["page2_class"] = class_json(rep.page2_class)
    if rep.page3 is not None:
        report["results"]["page3_status"] = rep.page3.kind
        if rep.page3.kind == "nonzero":
            report["results"]["certificate"] = rep.page3.certificate
            return 2
        if rep.page3.kind == "undecided":
            report["results"]["reason"] = rep.page3.reason
            return 3
    return 2


def cmd_collapse_check(docobj, args, report):
    from .cohomology import HHContext
    from .spectral import collapse_check

    s = build_structure(docobj)
    ctx = HHContext(docobj.algebra)
    window = parse_window(args.window)
    res = collapse_check(ctx, s, window)
    report["results"]["sq_vanishes"] = res["sq_vanishes"]
    report["results"]["cup_bijective_on_window"] = res["cup_bijective_on_window"]
    report["results"]["cup_report"] = {
        f"{p},{q}": v for (p, q), v in sorted(res["cup_report"].items())
    }
    if res["e3_vanishes_on_window"] is not None:
        report["results"]["e3_vanishes_on_window"] = res["e3_vanishes_on_window"]
        report["results"]["e3_dims"] = {
            f"{s_},{t_}": c.dim for (s_, t_), c in sorted(res["e3_cells"].items())
        }
        return 0 if res["e3_vanishes_on_window"] else 2
    report["results"]["e3_vanishes_on_window"] = None
    return 0


def cmd_section8(docobj, args, report):
    from .laurent import section8_report

    if args.char:
        try:
            PrimeField(args.char)
        except InputError as exc:
            raise InputError(str(exc), "--char")
    if args.max_poly_degree < 0:
        raise InputError("max-poly-degree must be >= 0", "--max-poly-degree")
    if args.char not in (2, 3) and args.max_poly_degree > MAX_POLY_DEGREE:
        raise InputError(f"max-poly-degree must be <= {MAX_POLY_DEGREE} unless char is 2 or 3",
                         "--max-poly-degree")
    rep = section8_report(args.char, args.max_poly_degree)
    report["results"] = rep
    if rep["all_passed"]:
        return 0
    hard = {"a", "b", "c"}
    if any(c["id"] in hard and c["status"] == "FAIL" for c in rep["checks"]):
        return 2
    return 3


# -- main -------------------------------------------------------------------------


class _ArgumentParser(argparse.ArgumentParser):
    """Raises a usage error as an ``InputError`` at path ``argv``, so that it
    becomes a JSON report with exit code 1; argparse would print plain text
    and exit with 2, the code of a certified nonzero obstruction.  ``--help``
    still prints and exits with 0."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise InputError(message, "argv")


def build_parser():
    parser = _ArgumentParser(
        prog="hochcalc",
        description="Exact Gerstenhaber calculus, Hochschild cohomology, and "
        "A_k obstruction theory on graded algebras.",
    )
    parser.add_argument("--in", dest="infile", help="input JSON document")
    parser.add_argument("--out", dest="outfile", help="write the JSON report here")
    parser.add_argument("--threads", type=int, default=1,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report (breaks byte determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("validate", help="check the algebra (and structure) axioms")

    p = sub.add_parser("hh", help="Hochschild cohomology dimensions and bases")
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--q", type=int, default=None)
    p.add_argument("--p-max", type=int, default=4)
    p.add_argument("--bases", action="store_true")
    p.add_argument("--full", action="store_true", help="use the full bar pipeline")

    p = sub.add_parser("props", help="run the randomized identity suite")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--arity-max", type=int, default=3)
    p.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                   help="seed (may also be given before the subcommand)")

    p = sub.add_parser("e-page", help="cells of a spectral page over a window")
    p.add_argument("--page", type=int, choices=(1, 2, 3), required=True)
    p.add_argument("--window", required=True, help="s0:s1,t0:t1")
    p.add_argument("--grid", action="store_true", help="text grid summary")
    p.add_argument("--differentials", action="store_true")

    p = sub.add_parser("obstruct", help="obstruction to one more extension step")
    p.add_argument("--page", type=int, choices=(1, 2, 3), required=True)

    p = sub.add_parser("extend", help="greedy extension to a target stage")
    p.add_argument("--to", type=int, required=True)

    p = sub.add_parser("collapse-check", help="hypothesis checks and page-3 vanishing")
    p.add_argument("--window", required=True, help="s0:s1,t0:t1")

    p = sub.add_parser("section8", help="worked-example report on the twisted Laurent algebra")
    p.add_argument("--char", type=int, required=True)
    p.add_argument("--max-poly-degree", type=int, default=3)
    p.add_argument("--report", help="alias for --out", default=None)

    return parser


def _input_error(exc: InputError):
    return {"kind": "input", "path": exc.path, "message": str(exc)}


def _payload(report) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


def main(argv=None) -> int:
    t0 = time.time()
    report = {
        "tool": "hochcalc",
        "version": __version__,
        "command": None,
        "seed": None,
        "results": {},
        "timing_ms": None,
    }
    try:
        args = build_parser().parse_args(argv)
    except InputError as exc:
        report["error"] = _input_error(exc)
        sys.stdout.write(_payload(report))
        return 1
    report["command"], report["seed"] = args.command, args.seed
    # built at each call, so that it holds the handlers the module binds now
    # (bench/tracer.py rebinds them to traced wrappers)
    handlers = {
        "validate": cmd_validate,
        "hh": cmd_hh,
        "props": cmd_props,
        "e-page": cmd_e_page,
        "obstruct": cmd_obstruct,
        "extend": cmd_extend,
        "collapse-check": cmd_collapse_check,
        "section8": cmd_section8,
    }
    docobj = None
    try:
        if args.command != "section8":
            if not args.infile:
                raise InputError("this command needs --in <document.json>")
            try:
                with open(args.infile, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except (OSError, UnicodeDecodeError) as exc:
                raise InputError(f"cannot read the input document: {exc}", "--in")
            docobj = parse_input(text)
            report["input"] = emit_document(docobj)
        code = handlers[args.command](docobj, args, report)
    except InputError as exc:
        report["error"] = _input_error(exc)
        code = 1
    except HochcalcError as exc:
        report["error"] = {"kind": type(exc).__name__, "message": str(exc)}
        code = 1
    if args.timing:
        report["timing_ms"] = int((time.time() - t0) * 1000)
    payload = _payload(report)
    outfile = args.outfile or getattr(args, "report", None)
    if outfile:
        try:
            with open(outfile, "w", encoding="utf-8") as fh:
                fh.write(payload)
            return code
        except OSError as exc:
            flag = "--out" if args.outfile else "--report"
            report["error"] = _input_error(InputError(f"cannot write the report: {exc}", flag))
            payload, code = _payload(report), 1
    sys.stdout.write(payload)
    return code


if __name__ == "__main__":
    sys.exit(main())
