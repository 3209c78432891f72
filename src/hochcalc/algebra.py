"""Finite-dimensional graded associative algebras given by structure
constants, and their validation."""

from __future__ import annotations

from .errors import InputError, ValidationError
from .exactla import Field


class GradedAlgebra:
    """A graded algebra with a distinguished unit, presented by an ordered
    basis with integer degrees and a sparse product table.

    Products are stored on basis-index pairs; pairs omitted from the input
    table are zero, except products with the unit, which are filled in
    automatically.  Construction does not check the algebra axioms; call
    :func:`validate_algebra` for a report.
    """

    def __init__(self, field: Field, basis, unit: str, products=None):
        """``basis`` is a list of ``(name, degree)``; ``products`` maps
        ``(name, name)`` to a dict ``{name: scalar}``."""
        self.field = field
        names = [n for n, _ in basis]
        if len(set(names)) != len(names):
            raise InputError("duplicate basis names", "algebra.basis")
        self.names = names
        self.degrees = [d for _, d in basis]
        self.index = {n: i for i, n in enumerate(names)}
        if unit not in self.index:
            raise InputError(f"unit {unit!r} is not a basis name", "algebra.unit")
        self.unit = self.index[unit]
        if self.degrees[self.unit] != 0:
            raise InputError("unit must sit in degree 0", "algebra.unit")
        self.products = {}
        for (a, b), vec in (products or {}).items():
            i, j = self.index[a], self.index[b]
            sparse = {}
            for name, c in vec.items():
                k = self.index[name]
                if not field.is_zero(c):
                    sparse[k] = field.from_int(c)
            if self.unit in (i, j):
                expected = {j if i == self.unit else i: field.one()}
                if sparse != expected:
                    raise InputError(
                        f"product table overrides the unit law at ({a},{b})",
                        f"algebra.products.{a}.{b}",
                    )
                continue
            if sparse:
                self.products[(i, j)] = sparse
        self._violations = None  # kept by algebra_violations
        self._m2 = None
        self._m2_lookups = None

    @property
    def dim(self) -> int:
        return len(self.names)

    def suspended_degree(self, i: int) -> int:
        return self.degrees[i] + 1

    def product(self, i: int, j: int) -> dict:
        """Product of basis elements as a sparse vector over basis indices."""
        if i == self.unit:
            return {j: self.field.one()}
        if j == self.unit:
            return {i: self.field.one()}
        return self.products.get((i, j), {})

    def multiply(self, u: dict, v: dict) -> dict:
        field = self.field
        out: dict = {}
        for i, a in u.items():
            for j, b in v.items():
                field.add_into(out, self.product(i, j).items(), field.mul(a, b))
        return out

    def degree_span(self):
        return min(self.degrees), max(self.degrees)

    def __repr__(self):
        return f"GradedAlgebra({self.names}, dim={self.dim}, field={self.field!r})"


def validate_algebra(a: GradedAlgebra):
    """Check degree additivity, unit laws and associativity.

    Returns a list of violation records; empty iff the algebra is valid.
    Each record names the witnessing basis tuple.
    """
    field = a.field
    report = []
    for (i, j), vec in a.products.items():
        want = a.degrees[i] + a.degrees[j]
        for k, c in vec.items():
            if a.degrees[k] != want:
                report.append(
                    {
                        "kind": "degree",
                        "pair": [a.names[i], a.names[j]],
                        "term": a.names[k],
                        "detail": f"degree {a.degrees[k]} != {want}",
                    }
                )
    # unit laws hold by construction; re-check anyway so a hand-built table
    # cannot sneak past.
    for i in range(a.dim):
        unit_law = {i: field.one()}
        if a.product(a.unit, i) != unit_law or a.product(i, a.unit) != unit_law:
            report.append({"kind": "unit", "pair": [a.names[i]], "detail": "unit law fails"})
    for i in range(a.dim):
        for j in range(a.dim):
            left = a.product(i, j)
            for k in range(a.dim):
                lhs = a.multiply(left, {k: field.one()})
                rhs = a.multiply({i: field.one()}, a.product(j, k))
                if lhs != rhs:
                    report.append(
                        {
                            "kind": "associativity",
                            "triple": [a.names[i], a.names[j], a.names[k]],
                            "detail": "(ab)c != a(bc)",
                        }
                    )
    return report


def algebra_violations(a: GradedAlgebra):
    """The :func:`validate_algebra` report of ``a``, computed once per
    algebra and kept on it."""
    if a._violations is None:
        a._violations = validate_algebra(a)
    return a._violations


def require_valid(a: GradedAlgebra):
    """Raise unless ``a`` is valid, by its kept report."""
    if algebra_violations(a):
        raise ValidationError("algebra axioms fail", a._violations)


def dual_numbers(field: Field) -> GradedAlgebra:
    """k[e]/(e^2) with the generator in degree 0."""
    return GradedAlgebra(
        field,
        [("1", 0), ("e", 0)],
        "1",
        {("e", "e"): {}},
    )


def exterior_line(field: Field, gen_degree: int = 1) -> GradedAlgebra:
    """The free graded-commutative algebra on one generator u with u^2 = 0."""
    return GradedAlgebra(
        field,
        [("1", 0), ("u", gen_degree)],
        "1",
        {("u", "u"): {}},
    )


def square_zero_tower(field: Field, degrees) -> GradedAlgebra:
    """Unit plus generators in the given degrees, all products of
    non-unit elements zero.  Handy source of algebras whose Hochschild
    differential is easy to control."""
    basis = [("1", 0)] + [(f"g{d}", d) for d in degrees]
    return GradedAlgebra(field, basis, "1", {})


def truncated_skew_laurent(field: Field, x_power: int) -> GradedAlgebra:
    """k<e, x>/(e^2, xe + ex, x^N) with |x| = 1, |e| = 0.

    A finite-dimensional cousin of the sign-twisted Laurent algebra; the
    basis is e^a x^n for a in {0,1} and 0 <= n < N.
    """
    if x_power < 2:
        raise InputError("need x^N with N >= 2")
    basis = []
    for n in range(x_power):
        for a in (0, 1):
            name = ("e" if a else "") + (f"x{n}" if n else ("1" if not a else ""))
            basis.append((name, n))
    names = {}
    for n in range(x_power):
        for a in (0, 1):
            names[(a, n)] = ("e" if a else "") + (f"x{n}" if n else ("1" if not a else ""))
    products = {}
    one = field.one()
    for (a1, n1) in names:
        for (a2, n2) in names:
            if (a1, n1) == (0, 0) or (a2, n2) == (0, 0):
                continue
            if a1 + a2 > 1 or n1 + n2 >= x_power:
                products[(names[(a1, n1)], names[(a2, n2)])] = {}
                continue
            # x^n e = (-1)^n e x^n
            sign = field.neg(one) if (n1 * a2) % 2 else one
            products[(names[(a1, n1)], names[(a2, n2)])] = {
                names[(a1 + a2, n1 + n2)]: sign
            }
    return GradedAlgebra(field, basis, "1", products)
