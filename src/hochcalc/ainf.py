"""Minimal A_k-algebra structures and their Stasheff residuals.

A structure is a tuple (m_2, ..., m_k) of cochains of bidegree (n, 2-n) on
a fixed graded algebra, with m_2 the shifted multiplication.  The residual

    SI(n) = sum_{p+q = n+1, p,q >= 2} m_p{m_q}

depends only on m_2, ..., m_{n-1}; the structure is valid when SI(n) = 0
for 3 <= n <= k.  SI(k+1) is the obstruction cocycle to one more step.
"""

from __future__ import annotations

from .algebra import GradedAlgebra, require_valid
from .cochain import Cochain, brace, shifted_m2
from .errors import DomainError, ValidationError


class AInfStructure:
    """Maps m_2..m_k over one algebra; immutable by convention."""

    def __init__(self, algebra: GradedAlgebra, k: int, maps=None):
        """``maps`` gives m_n for 3 <= n <= k; omitted maps are zero.
        m_2 is always the shifted multiplication of the (valid) algebra."""
        if k < 2:
            raise DomainError(f"need k >= 2, got {k}")
        require_valid(algebra)
        self.algebra = algebra
        self.k = k
        self.maps = {}
        self._violations = None  # kept by is_valid
        self._obstruction = None  # SI(k+1), kept by obstruction_cocycle
        self._report = None  # kept by obstruction_report
        for n, f in (maps or {}).items():
            if not (3 <= n <= k):
                raise DomainError(f"map index {n} outside 3..{k}")
            if f.algebra is not algebra:
                raise DomainError(f"m_{n} lives over a different algebra")
            if (f.arity, f.end_degree) != (n, -1):
                raise DomainError(
                    f"m_{n} must have arity {n} and map degree -1, got "
                    f"({f.arity}, {f.end_degree})"
                )
            if not f.is_zero():
                self.maps[n] = f

    def map(self, n: int) -> Cochain:
        if n == 2:
            return shifted_m2(self.algebra)
        if not (3 <= n <= self.k):
            raise DomainError(f"m_{n} is not part of an A_{self.k} structure")
        got = self.maps.get(n)
        if got is None:
            return Cochain.zero(self.algebra, n, -1)
        return got

    def with_k(self, k: int) -> "AInfStructure":
        return AInfStructure(self.algebra, k, {n: f for n, f in self.maps.items() if n <= k})

    def __repr__(self):
        present = sorted(self.maps)
        return f"AInfStructure(k={self.k}, nonzero maps={present})"


def stasheff_residual(s: AInfStructure, n: int) -> Cochain:
    """SI(n); needs every m_p with p <= n-1, hence n <= k+1."""
    if n < 2:
        raise DomainError(f"residual index must be >= 2, got {n}")
    if n > s.k + 1:
        raise DomainError(
            f"SI({n}) needs maps up to m_{n-1}, but the structure stops at m_{s.k}"
        )
    total = Cochain.zero(s.algebra, n, -2)
    for p in range(2, n):
        q = n + 1 - p
        if q < 2 or q > n - 1:
            continue
        mp, mq = s.map(p), s.map(q)
        if mp.is_zero() or mq.is_zero():
            continue
        total._accumulate(brace(mp, [mq]))
    return total


def is_valid(s: AInfStructure):
    """All violated residual indices n <= k, each with a witness entry;
    computed once per structure, then kept on it."""
    if s._violations is not None:
        return s._violations
    report = []
    for n in range(3, s.k + 1):
        r = stasheff_residual(s, n)
        if not r.is_zero():
            t, vec = sorted(r.table.items())[0]
            k0, c = sorted(vec.items())[0]
            names = [s.algebra.names[i] for i in t]
            report.append(
                {
                    "n": n,
                    "witness_args": names,
                    "witness_out": s.algebra.names[k0],
                    "witness_value": s.algebra.field.format(c),
                }
            )
    s._violations = report
    return report


def require_valid_structure(s: AInfStructure):
    report = is_valid(s)
    if report:
        raise ValidationError("Stasheff residuals do not vanish", report)


def universal_massey(s: AInfStructure, ctx=None):
    """The class of m_3 in HH^{3,-1}, read in ``ctx`` (an ``HHContext``,
    made here when omitted); defined for valid structures with k >= 4
    (then SI(4) = [m2, m3] = 0, so m_3 is a cocycle)."""
    from .cohomology import HHContext

    if s.k < 4:
        raise DomainError(f"universal Massey product needs k >= 4, got k={s.k}")
    require_valid_structure(s)
    if ctx is None:
        ctx = HHContext(s.algebra)
    return ctx.space(3, -1).class_of(s.map(3))


def perturb(s: AInfStructure, j: int, b: Cochain) -> AInfStructure:
    """Replace m_j by m_j + b; the caller re-validates if needed."""
    if not (3 <= j <= s.k):
        raise DomainError(f"perturbation index {j} outside 3..{s.k}")
    if (b.arity, b.end_degree) != (j, -1):
        raise DomainError(
            f"perturbation must have bidegree ({j}, {2 - j}), got {b.bidegree}"
        )
    maps = dict(s.maps)
    new = s.map(j) + b
    if new.is_zero():
        maps.pop(j, None)
    else:
        maps[j] = new
    return AInfStructure(s.algebra, s.k, maps)
