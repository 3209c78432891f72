"""Pages 1-3 of the extension spectral sequence, in the region where they
are finitely presented.

Page 1 is the full bar cochain module with differential +-[m2, -]; page 2
is Hochschild cohomology away from the bottom rows, cocycle modules on the
row s = 0, and a predicate cell at the origin; the page-2 differential is
+-[{m3}, -] with two special shapes on the s = 0 row.  Page 3 is the
homology of d2 wherever both neighbouring differentials exist, and a
kernel band on s = 0, 1; cells the construction only defines via mapping
spaces are reported as undefined rather than guessed.
"""

from __future__ import annotations

from .ainf import AInfStructure, require_valid_structure, universal_massey
from .cochain import Cochain, bracket, cochain_from_coords, cup
from .cohomology import HHContext, induced_bracket, induced_sq, cup_bijectivity_window, normalized_class_of_full
from .errors import DomainError, NotProvidedError, UndefinedCellError
from .exactla import SparseMatrix, rref


class PageCell:
    """One cell of a page: a vector space, a module of cocycles, a
    predicate (pointed set), or undefined."""

    __slots__ = ("page", "s", "t", "kind", "dim", "descriptor")

    def __init__(self, page, s, t, kind, dim=None, descriptor=None):
        self.page = page
        self.s = s
        self.t = t
        self.kind = kind  # "vector" | "cocycle" | "predicate" | "undefined"
        self.dim = dim
        self.descriptor = descriptor

    def __repr__(self):
        return f"PageCell(E{self.page}^({self.s},{self.t}), {self.kind}, dim={self.dim})"


class QuadraticMap:
    """The page-2 differential out of (0, 1): x -> -x cup x - [{m3}, x] on
    cocycles of bidegree (2, -1).  Additive up to the cup-square defect."""

    def __init__(self, ctx: HHContext, m3: Cochain):
        self.ctx = ctx
        self.m3 = m3

    def evaluate(self, z: Cochain):
        """Value on a (2,-1) cocycle, as a class in HH^{4,-2}."""
        w = -(cup(z, z) + bracket(self.m3, z))
        return normalized_class_of_full(self.ctx, w)


def _sign_scale(m: SparseMatrix, negate: bool) -> SparseMatrix:
    if not negate:
        return m
    field = m.field
    return SparseMatrix(
        m.field, m.rows, m.cols, {k: field.neg(c) for k, c in m.entries.items()}
    )


def e1_term(ctx: HHContext, s: int, t: int) -> PageCell:
    """E1 at (s,t): the full cochain module of bidegree (s+2, -t)."""
    if s < 0:
        return PageCell(1, s, t, "undefined")
    dim = len(ctx.column(-t, normalized=False).basis(s + 2)[0])
    return PageCell(1, s, t, "vector", dim=dim)


def d1_matrix(ctx: HHContext, s: int, t: int) -> SparseMatrix:
    """(-1)^{t-s} [m2, -] from full (s+2,-t) cochains to full (s+3,-t)
    cochains; defined for s >= 1 (any t) and for t > s = 0.  Its rank is
    that of ``ctx.column(-t, normalized=False).echelon(s + 2)``."""
    if not (s >= 1 or (s == 0 and t > 0)):
        raise UndefinedCellError(f"d1 undefined at ({s},{t})")
    m = ctx.column(-t, normalized=False).d(s + 2)
    return _sign_scale(m, (t - s) % 2 == 1)


def e2_term(ctx: HHContext, s: int, t: int) -> PageCell:
    """E2 at (s,t): cohomology for t >= s >= 1 or s >= 2, cocycles for
    t > s = 0, and the multiplication predicate at the origin."""
    if (t >= s >= 1) or s >= 2:
        return PageCell(2, s, t, "vector", dim=ctx.space(s + 2, -t).dim)
    if s == 0 and t > 0:
        full = ctx.full_space(2, -t)
        return PageCell(2, s, t, "cocycle", dim=full.cocycle_dim())
    if (s, t) == (0, 0):
        return PageCell(
            2, 0, 0, "predicate",
            descriptor="graded associative multiplications on the desuspension; "
            "membership: m{m} = 0",
        )
    return PageCell(2, s, t, "undefined")


def _require_k5(phi: AInfStructure):
    if phi.k < 5:
        raise DomainError(f"pages beyond 2 need a valid A_5 structure, got k={phi.k}")
    require_valid_structure(phi)


def d2_defined(s: int, t: int) -> bool:
    return (s >= 1 and t > s) or s >= 2 or (s == 0 and t >= 1)


def d2_map(ctx: HHContext, phi: AInfStructure, s: int, t: int):
    """The page-2 differential out of (s,t).

    Returns a SparseMatrix on the cohomology bases for the linear cells, a
    matrix on the full cocycle basis for (0, t > 1), and a QuadraticMap for
    (0, 1).  The cell (1,1) carries no provided formula.
    """
    _require_k5(phi)
    if (s, t) == (1, 1):
        raise NotProvidedError(
            "no formula is provided at (1,1); extension behaviour there is "
            "exposed through the obstruction solver"
        )
    if (s >= 1 and t > s) or s >= 2:
        m = induced_bracket(ctx, universal_massey(phi, ctx), s + 2, -t)
        return _sign_scale(m, (t - s) % 2 == 1)
    if s == 0 and t > 1:
        full = ctx.full_space(2, -t)
        m3 = phi.map(3)
        cols = []
        tgt = ctx.space(4, -t - 1)
        for vec in full.cocycles:
            z = cochain_from_coords(ctx.algebra, 2, -t, full.basis, vec)
            w = bracket(m3, z)
            cols.append(normalized_class_of_full(ctx, w).coords)
        m = SparseMatrix.from_columns(ctx.algebra.field, cols, tgt.dim)
        return _sign_scale(m, t % 2 == 1)
    if (s, t) == (0, 1):
        return QuadraticMap(ctx, phi.map(3))
    raise UndefinedCellError(f"d2 undefined at ({s},{t})")


def _incoming_image(ctx: HHContext, phi: AInfStructure, s: int, t: int):
    """Image vectors of d2 arriving at (s,t), in HH^{s+2,-t} coordinates."""
    ps, pt = s - 2, t - 1
    if ps >= 1:
        m = d2_map(ctx, phi, ps, pt)
        return [m.column(j) for j in range(m.cols)]
    if (ps, pt) == (0, 1):
        # -alpha on a basis of HH^{2,-1}, linear on classes (see e3_term)
        qm = d2_map(ctx, phi, 0, 1)
        return [qm.evaluate(rep).coords for rep in ctx.space(2, -1).hh_reps]
    # (0, t-1) with t-1 > 1: the projection is onto, so the image agrees
    # with the image of the bracket on cohomology.
    m = induced_bracket(ctx, universal_massey(phi, ctx), 2, -pt)
    return [m.column(j) for j in range(m.cols)]


def e3_term(ctx: HHContext, phi: AInfStructure, s: int, t: int) -> PageCell:
    """E3 at (s,t): homology of d2 where both neighbours are defined,
    kernel bands on s = 0, 1, predicates on the low fringe, undefined
    elsewhere."""
    _require_k5(phi)
    if s >= 2 and d2_defined(s, t) and s - 2 >= 0 and d2_defined(s - 2, t - 1):
        out_m = d2_map(ctx, phi, s, t)
        image = _incoming_image(ctx, phi, s, t)
        for v in image:
            if out_m.apply(v):
                raise DomainError(f"d2 composite does not vanish into ({s},{t})")
        mid_dim = ctx.space(s + 2, -t).dim
        image_rank = rref(SparseMatrix.from_rows(ctx.algebra.field, image, mid_dim)).rank
        dim = out_m.cols - rref(out_m).rank - image_rank
        return PageCell(3, s, t, "vector", dim=dim)
    if s == 1 and t > 1:
        m = d2_map(ctx, phi, 1, t)
        return PageCell(3, s, t, "vector", dim=m.cols - rref(m).rank)
    if s == 0 and t > 1:
        m = d2_map(ctx, phi, 0, t)
        return PageCell(3, s, t, "cocycle", dim=m.cols - rref(m).rank)
    if (s, t) == (0, 1):
        # kernel of the class-level map alpha on HH^{2,-1}, whose image
        # arrives at (2, 2); alpha is linear over every supported field (the
        # cup square vanishes on classes in odd characteristic and over Q,
        # and is Frobenius-linear over F_2)
        alpha_matrix = SparseMatrix.from_columns(
            ctx.algebra.field, _incoming_image(ctx, phi, 2, 2), ctx.space(4, -2).dim
        )
        ker_dim = alpha_matrix.cols - rref(alpha_matrix).rank
        dim = ker_dim + ctx.full_space(2, -1).coboundary_dim()
        return PageCell(
            3, 0, 1, "cocycle", dim=dim,
            descriptor="cocycles whose class lies in the zero locus of "
            "x^2 + [{m3}, x]; a subgroup, not a subspace, away from the "
            "linear cases",
        )
    if (s, t) in ((0, 0), (1, 1)):
        return PageCell(
            3, s, t, "predicate",
            descriptor="pointed set; extension behaviour exposed through the "
            "obstruction solver",
        )
    return PageCell(3, s, t, "undefined")


def page_report(ctx: HHContext, phi, page: int, window):
    """Cells (and, on request, differentials) over a rectangular window.

    ``window`` is ((s_min, s_max), (t_min, t_max)).
    """
    (s0, s1), (t0, t1) = window
    cells = {}
    for s in range(s0, s1 + 1):
        for t in range(t0, t1 + 1):
            if page == 1:
                cells[(s, t)] = e1_term(ctx, s, t)
            elif page == 2:
                cells[(s, t)] = e2_term(ctx, s, t)
            elif page == 3:
                cells[(s, t)] = e3_term(ctx, phi, s, t)
            else:
                raise UndefinedCellError(f"page {page} is not computed")
    return {"page": page, "window": window, "cells": cells}


def render_grid(report) -> str:
    """Text grid of a page report: one row per t (descending), dims per
    cell, Z marks cocycle modules, * marks the fringe t = s, P predicates,
    . undefined."""
    (s0, s1), (t0, t1) = report["window"]
    lines = []
    header = "t\\s " + " ".join(f"{s:>5}" for s in range(s0, s1 + 1))
    lines.append(header)
    for t in range(t1, t0 - 1, -1):
        row = [f"{t:>3} "]
        for s in range(s0, s1 + 1):
            cell = report["cells"][(s, t)]
            if cell.kind == "vector":
                txt = str(cell.dim)
            elif cell.kind == "cocycle":
                txt = f"Z{cell.dim}"
            elif cell.kind == "predicate":
                txt = "P"
            else:
                txt = "."
            if s == t:
                txt += "*"
            row.append(f"{txt:>5}")
        lines.append(" ".join(row))
    return "\n".join(lines)


def collapse_check(ctx: HHContext, phi: AInfStructure, window):
    """Hypothesis checks and conditional vanishing over a window.

    Verifies Sq({m3}) = 0, reports cup bijectivity of {m3} cup - for the
    window cells with p >= 2, and, if both hold on the window, asserts
    E3 = 0 at every window cell with s >= 2.  The three verdicts are
    independent entries of the report.
    """
    _require_k5(phi)
    (s0, s1), (t0, t1) = window
    m3c = universal_massey(phi, ctx)
    sq_class = induced_sq(ctx, m3c)
    sq_ok = sq_class.is_zero()
    p_range = sorted({s + 2 for s in range(max(s0, 0), s1 + 1)} | {2})
    p_range = [p for p in p_range if p >= 2]
    q_range = sorted({-t for t in range(t0, t1 + 1)})
    cup_report = cup_bijectivity_window(ctx, m3c, p_range, q_range)
    cup_ok = all(v["verdict"] == "bijective" for v in cup_report.values())
    e3_cells = {}
    e3_ok = None
    if sq_ok and cup_ok:
        e3_ok = True
        for s in range(max(s0, 2), s1 + 1):
            for t in range(t0, t1 + 1):
                cell = e3_term(ctx, phi, s, t)
                e3_cells[(s, t)] = cell
                if cell.kind == "vector" and cell.dim != 0:
                    e3_ok = False
    return {
        "sq_vanishes": sq_ok,
        "sq_coords": dict(sq_class.coords),
        "cup_bijective_on_window": cup_ok,
        "cup_report": cup_report,
        "e3_vanishes_on_window": e3_ok,
        "e3_cells": e3_cells,
    }
