"""Obstructions to extending an A_k structure to A_{k+1}, at cochain level
(page 1), in Hochschild cohomology (page 2), and one page further, plus the
greedy extension solver.

Extending at depth l means the new structure agrees with the old one on
m_2, ..., m_l.  Depth k requires SI(k+1) = 0 on the nose; depth k-1 allows
perturbing m_k, so the obstruction is the class of SI(k+1); depth k-2 also
perturbs m_{k-1} by a cocycle b, shifting the page-2 class by [{m_3}, {b}]
(plus Sq({b}) in the quadratic case k = 4).
"""

from __future__ import annotations

from itertools import product

from .ainf import (
    AInfStructure, perturb, require_valid_structure, stasheff_residual, universal_massey,
)
from .cochain import Cochain, bracket, brace, hoch_d
from .cohomology import CohomClass, HHContext, induced_bracket
from .errors import DomainError, UnsupportedDepthError
from .exactla import rref, solve_columns_many

ENUMERATION_BOUND = 10**6


def obstruction_cocycle(s: AInfStructure) -> Cochain:
    """SI(k+1) for a valid structure; always a Hochschild cocycle.  It is
    computed and checked once per structure, then kept on it."""
    if s._obstruction is None:
        require_valid_structure(s)
        z = stasheff_residual(s, s.k + 1)
        dz = hoch_d(z)
        if not dz.is_zero():
            raise DomainError("obstruction cocycle failed the cocycle check", witness=dz)
        s._obstruction = z
    return s._obstruction


def theta_page2(s: AInfStructure, ctx: HHContext) -> CohomClass:
    """Class of SI(k+1) in HH^{k+1, 2-k}; zero iff a perturbation of m_k
    produces a valid A_{k+1} extension with m_{k+1} = 0."""
    if s.k < 3:
        raise DomainError(f"page-2 obstruction needs k >= 3, got k={s.k}")
    z = obstruction_cocycle(s)
    return ctx.space(s.k + 1, 2 - s.k).class_of(z)


def page2_witness(s: AInfStructure, ctx: HHContext):
    """b_k with hoch_d(b_k) = -SI(k+1), or None."""
    z = obstruction_cocycle(s)
    return ctx.space(s.k + 1, 2 - s.k).is_coboundary(-z)


class Page3Status:
    """Outcome of the page-3 test: vanishes (with exact witnesses), nonzero
    (k >= 5, with a rank certificate), or undecided (k = 4, with a reason)."""

    def __init__(self, kind, b_prev=None, b_top=None, certificate=None, reason=None):
        self.kind = kind  # "vanishes" | "nonzero" | "undecided"
        self.b_prev = b_prev
        self.b_top = b_top
        self.certificate = certificate
        self.reason = reason

    def __repr__(self):
        return f"Page3Status({self.kind})"


class ObstructionReport:
    """Everything known about the obstruction at one k."""

    def __init__(self, k, cocycle, page2_class, page2_witness_cochain, page3):
        self.k = k
        self.cocycle = cocycle
        self.page2_class = page2_class
        self.page2_vanishes = page2_class.is_zero()
        self.page2_witness = page2_witness_cochain
        self.page3 = page3


def _page3_equation_rhs(s: AInfStructure, b_prev: Cochain) -> Cochain:
    """-SI(k+1) - [m3, b_prev] - (b_prev{b_prev} in the quadratic case)."""
    rhs = -(obstruction_cocycle(s) + bracket(s.map(3), b_prev))
    if 2 * (s.k - 1) == s.k + 2:  # k = 4: b_prev has the same arity as m3
        rhs = rhs - brace(b_prev, [b_prev])
    return rhs


def theta_page3_check(s: AInfStructure, ctx: HHContext) -> Page3Status:
    """Decide whether SI(k+1) dies after also perturbing m_{k-1} by a
    cocycle.

    For k >= 5 this is linear: the page-2 class must lie in the image of
    [{m_3}, -] from HH^{k-1, 3-k}.  For k = 4 the correction enters
    quadratically; over a small enough finite field the cocycle classes are
    enumerated (-[m_3] among them, so one lifts), over Q only a finite
    candidate list is tried and failure is reported as undecided.  Each case
    lists candidate classes {b_prev}, and one loop lifts them.
    """
    if s.k < 4:
        raise DomainError(f"page-3 test needs k >= 4, got k={s.k}")
    theta = theta_page2(s, ctx)
    space_prev = ctx.space(s.k - 1, 3 - s.k)
    top_space = ctx.space(s.k + 1, 2 - s.k)
    field = s.algebra.field
    enumerate_all = False
    if theta.is_zero():
        candidates = [{}]
    elif s.k >= 5:
        mat = induced_bracket(ctx, universal_massey(s, ctx), s.k - 1, 3 - s.k)
        target = {j: field.neg(c) for j, c in theta.coords.items()}
        (x,) = solve_columns_many(field, [mat.column(j) for j in range(mat.cols)], [target])
        if x is None:
            # target outside the image, so appending it raises the rank by one
            rank = rref(mat).rank
            certificate = {"kind": "rank", "rank_image": rank, "rank_with_target": rank + 1}
            return Page3Status("nonzero", certificate=certificate)
        candidates = [x]
    else:
        # k = 4: the equation is Sq({m3 + b}) = 0 over cocycles b, tried class
        # by class; both candidate lists start with b = 0
        dim = space_prev.dim
        enumerate_all = field.char > 0 and field.char**dim <= ENUMERATION_BOUND
        if enumerate_all:
            candidates = _iterate_coordinate_vectors(field, dim)
        else:
            candidates = [{}] + rref(induced_bracket(ctx, universal_massey(s, ctx), 3, -1)).kernel()
    for coords in candidates:
        b_prev = space_prev.class_from_coords(coords).representative
        b_top = top_space.is_coboundary(_page3_equation_rhs(s, b_prev))
        if b_top is not None:
            return Page3Status("vanishes", b_prev=b_prev, b_top=b_top)
    if theta.is_zero() or s.k >= 5 or enumerate_all:
        # the one candidate solves the class equation, or the enumeration
        # reached -[m_3], whose lift m_3 + b = 0 has Sq(0) = 0: it must lift
        raise DomainError("page-3 class solve succeeded but the lift failed")
    return Page3Status(
        "undecided",
        reason=(
            "quadratic correction over an infinite field: tried zero and a "
            "generating set of the kernel of the linear part"
        ),
    )


def _iterate_coordinate_vectors(field, dim):
    """All coordinate vectors of F_p^dim in lexicographic order, sparse."""
    for digits in product(range(field.char), repeat=dim):
        yield {j: c for j, c in enumerate(reversed(digits)) if c}


def obstruction_report(s: AInfStructure, ctx: HHContext) -> ObstructionReport:
    """Pages 1-3 of the obstruction at k, computed once per structure and
    then kept on it; its classes belong to the ``HHContext`` of the first
    call."""
    if s._report is None:
        cocycle = obstruction_cocycle(s)
        theta = theta_page2(s, ctx)
        page3 = theta_page3_check(s, ctx) if s.k >= 4 else None
        witness = None
        if theta.is_zero():
            # at theta = 0 the page-3 check solved the page-2 system
            witness = page2_witness(s, ctx) if page3 is None else page3.b_top
        s._report = ObstructionReport(s.k, cocycle, theta, witness, page3)
    return s._report


# -- extension solver -----------------------------------------------------------


class ExtensionStep:
    def __init__(self, k, depth, perturbed):
        self.k = k
        self.depth = depth
        self.perturbed = perturbed  # indices whose maps changed

    def __repr__(self):
        return f"ExtensionStep(k={self.k}, depth={self.depth}, perturbed={self.perturbed})"


class ExtensionResult:
    def __init__(self, ok, structure=None, report=None, steps=None):
        self.ok = ok
        self.structure = structure
        self.report = report
        self.steps = steps or []


def allowed_depths(k: int):
    """Depths l with max(ceil((k+1)/2), k-2) <= l <= k, deepest last."""
    lo = max((k + 1 + 1) // 2, k - 2)
    return [l for l in range(k, lo - 1, -1)]


def extend_once(s: AInfStructure, l: int, ctx: HHContext) -> ExtensionResult:
    """One extension step at depth l in {k, k-1, k-2}; the result agrees
    with s on m_2..m_l and has m_{k+1} = 0."""
    k = s.k
    lo = (k + 2) // 2
    if not (lo <= l <= k):
        raise UnsupportedDepthError(
            f"depth {l} outside the obstruction-theory range [{lo}, {k}] for k={k}"
        )
    if l < k - 2:
        raise UnsupportedDepthError(
            f"depth {l} below the implemented range (k-2 = {k - 2})"
        )
    require_valid_structure(s)
    if l == k and obstruction_cocycle(s).is_zero():
        return ExtensionResult(True, structure=s.with_k(k + 1), steps=[ExtensionStep(k, l, [])])
    report = obstruction_report(s, ctx)
    if l == k - 1 and report.page2_vanishes:
        perturbations = [(k, report.page2_witness)]
    elif l == k - 2 and report.page3.kind == "vanishes":
        perturbations = [(k - 1, report.page3.b_prev), (k, report.page3.b_top)]
    else:
        return ExtensionResult(False, report=report)
    out = s
    for j, b in perturbations:
        out = perturb(out, j, b)
    out = out.with_k(k + 1)
    require_valid_structure(out)
    perturbed = [j for j, b in perturbations if not b.is_zero()]
    return ExtensionResult(True, structure=out, steps=[ExtensionStep(k, l, perturbed)])


def extend_to(s: AInfStructure, K: int, ctx: HHContext = None) -> ExtensionResult:
    """Greedy extension to an A_K structure: at each k try the shallowest
    depth first (l = k, then k-1, then k-2), re-validating along the way."""
    require_valid_structure(s)
    if ctx is None:
        ctx = HHContext(s.algebra)
    steps = []
    cur = s
    while cur.k < K:
        advanced = False
        last = None
        for l in allowed_depths(cur.k):
            result = extend_once(cur, l, ctx)
            last = result
            if result.ok:
                cur = result.structure
                steps.extend(result.steps)
                advanced = True
                break
        if not advanced:
            return ExtensionResult(False, report=last.report, steps=steps)
    return ExtensionResult(True, structure=cur, steps=steps)
