"""Twisted Laurent algebras B[x^{+-1}; sigma] and polynomially-indexed
cochains on their suspension.

Basis elements are b x^n with b in a finite-dimensional graded base B and
n ranging over the integers, with x b = sigma(b) x.  A cochain component
is keyed by the residues of the input exponents modulo R = lcm(2, order of
sigma), the input and output B-basis labels; its coefficient is an exact
polynomial in the per-slot parameters s_j defined by n_j = r_j + R s_j,
stored as its terms {exponents: c}.  Signs and sigma powers only see
residues; the output exponent is forced by degree homogeneity, so it is
never stored.  ``Poly`` is the arithmetic of composition on such terms.

Over F_p polynomials are reduced by s^p = s per variable, which makes
equality of table entries equality of the underlying multilinear maps.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as iproduct
from math import factorial, lcm, prod

from .algebra import GradedAlgebra, dual_numbers, require_valid
from .cochain import LinearCochain, _add_at, brace, bracket, cup, hoch_d, sq
from .errors import (
    ConfigurationError,
    DomainError,
    UnsupportedAlgebraError,
)
from .exactla import (
    Field,
    PrimeField,
    Rationals,
    SparseMatrix,
    rref,
    solve_columns_many,
    vec_eq,
)


def _reduce_exp(e: int, char: int) -> int:
    # s^p = s as a function Z -> F_p
    if char == 0 or e < char:
        return e
    return ((e - 1) % (char - 1)) + 1


def _reduced_terms(field: Field, nvars: int, terms) -> dict:
    """The terms ``{exponents: c}`` of a polynomial in ``nvars`` variables,
    coefficients normalized, exponents reduced by s^p = s and zero
    coefficients dropped."""
    if any(len(e) != nvars and not field.is_zero(c) for e, c in terms.items()):
        raise ConfigurationError("monomial arity mismatch")
    char, from_int = field.char, field.from_int
    return field.add_into({}, (
        (tuple(_reduce_exp(e, char) for e in exps), from_int(c)) for exps, c in terms.items()
    ))


class Poly:
    """Exact polynomial in a fixed number of integer variables, canonical
    under the function semantics of the coefficient field: the arithmetic
    that ``PolyCochain.compose_at`` and ``PolyCochain.evaluate`` run on the
    term dicts of a cochain's entries."""

    __slots__ = ("field", "nvars", "terms")

    def __init__(self, field: Field, nvars: int, terms=None):
        self.field = field
        self.nvars = nvars
        self.terms = _reduced_terms(field, nvars, terms) if terms else {}

    @classmethod
    def _raw(cls, field, nvars, terms) -> "Poly":
        """Wrap ``terms`` that are already reduced and free of zeros."""
        p = cls(field, nvars)
        p.terms = terms
        return p

    def __mul__(self, other):
        field = self.field
        mul = field.mul
        char = field.char
        return Poly._raw(field, self.nvars, field.add_into({}, (
            (tuple(_reduce_exp(a + b, char) for a, b in zip(e1, e2)), mul(c1, c2))
            for e1, c1 in self.terms.items()
            for e2, c2 in other.terms.items()
        )))

    def evaluate(self, values):
        field = self.field
        acc = field.zero()
        for exps, c in self.terms.items():
            term = c
            for e, v in zip(exps, values):
                for _ in range(e):
                    term = field.mul(term, v)
            acc = field.add(acc, term)
        return acc

    def subst_affine(self, i: int, q: int, k0: int) -> "Poly":
        """Substitute s_i + ... + s_{i+q-1} + k0 for s_i (0-based); every
        later variable moves q - 1 places up.  The new variables are disjoint
        from the others, so no exponent is reduced."""
        field = self.field
        mul = field.mul
        return Poly._raw(field, self.nvars + q - 1, field.add_into({}, (
            (e[:i] + a + e[i + 1:], mul(c, m))
            for e, c in self.terms.items()
            for a, m in _expansion(field, e[i], k0, q)
        )))

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __repr__(self):
        return f"Poly({self.nvars} vars, {len(self.terms)} terms)"


# the largest order of sigma that a residue split is attempted for
MAX_SIGMA_ORDER = 64


class TwistedLaurent:
    """B[x^{+-1}; sigma] for a finite-dimensional graded base B and a
    degree-0 algebra automorphism sigma of finite order."""

    def __init__(self, base: GradedAlgebra, sigma, weight: int = 1):
        """``sigma`` maps basis index -> sparse vector over basis indices."""
        require_valid(base)
        self.base = base
        self.field = base.field
        self.weight = weight
        if weight < 1:
            raise UnsupportedAlgebraError("x must have positive degree")
        field = base.field
        n = base.dim
        self.sigma = {i: {j: field.from_int(c) for j, c in sigma.get(i, {}).items()}
                      for i in range(n)}
        for i in range(n):
            for j, c in self.sigma[i].items():
                if base.degrees[j] != base.degrees[i]:
                    raise UnsupportedAlgebraError("sigma must preserve degrees")
        if self.sigma[base.unit] != {base.unit: field.one()}:
            raise UnsupportedAlgebraError("sigma must fix the unit")
        for i in range(n):
            for j in range(n):
                lhs = self._apply_sigma(base.product(i, j))
                rhs = base.multiply(self._apply_sigma({i: field.one()}),
                                    self._apply_sigma({j: field.one()}))
                if not vec_eq(field, lhs, rhs):
                    raise UnsupportedAlgebraError("sigma is not multiplicative")
        # order of sigma
        powers = [{i: {i: field.one()} for i in range(n)}]
        cur = powers[0]
        order = None
        for k in range(1, MAX_SIGMA_ORDER + 1):
            cur = {i: self._apply_sigma(cur[i]) for i in range(n)}
            powers.append(cur)
            if all(vec_eq(field, cur[i], {i: field.one()}) for i in range(n)):
                order = k
                break
        if order is None:
            raise UnsupportedAlgebraError(
                f"sigma has order > {MAX_SIGMA_ORDER}; cannot residue-split"
            )
        self.sigma_order = order
        self.residue_modulus = lcm(2, order)
        self._sigma_powers = powers[:order]
        self._m2 = None
        self._m2_lookups = None
        self._weights = None

    def _apply_sigma(self, v: dict) -> dict:
        out: dict = {}
        for i, c in v.items():
            self.field.add_into(out, self.sigma[i].items(), c)
        return out

    def sigma_power(self, n: int) -> dict:
        return self._sigma_powers[n % self.sigma_order]

    def element_degree(self, b: int, n: int) -> int:
        return self.base.degrees[b] + n * self.weight

    def multiplication_cochain(self) -> "PolyCochain":
        """The shifted multiplication as a residue-split cochain."""
        if self._m2 is not None:
            return self._m2
        field = self.field
        R = self.residue_modulus
        comps = {}
        for r1 in range(R):
            sig = self.sigma_power(r1)
            for r2 in range(R):
                for b1 in range(self.base.dim):
                    flip = (self.base.degrees[b1] + r1 * self.weight) % 2 == 1
                    for b2 in range(self.base.dim):
                        acc: dict = {}
                        for c, coef in sig[b2].items():
                            field.add_into(acc, self.base.product(b1, c).items(), coef)
                        for d, coef in acc.items():
                            coef = field.neg(coef) if flip else coef
                            comps[((r1, r2), (b1, b2), d)] = {(0, 0): coef}
        m2 = PolyCochain(self, 2, -1, comps)
        self._m2 = m2
        return m2

    def __repr__(self):
        return (
            f"TwistedLaurent(base dim {self.base.dim}, |x|={self.weight}, "
            f"order={self.sigma_order})"
        )


class PolyCochain(LinearCochain):
    """Residue-split polynomially-indexed cochain on a twisted Laurent
    algebra.

    ``table`` maps ``(residues, input basis labels, output basis label)``
    to the terms ``{exponents: c}`` of a polynomial in the arity many
    parameters s_j, reduced by s^p = s over F_p, with no zero coefficient
    and no empty entry; the output x-exponent is forced by homogeneity.
    Keys whose forced exponent is not an integer are rejected.
    """

    __slots__ = ()

    def __init__(self, algebra: TwistedLaurent, arity: int, end_degree: int, table=None):
        super().__init__(algebra, arity, end_degree)
        if table:
            for key, terms in table.items():
                res, bas, out = key
                if len(res) != arity or len(bas) != arity:
                    raise ConfigurationError("component arity mismatch")
                if not isinstance(terms, dict):
                    raise ConfigurationError("an entry is a dict {exponents: c}")
                terms = _reduced_terms(algebra.field, arity, terms)
                if terms:
                    self._exponent_const(bas, out)  # raises if not integral
                    self.table[(tuple(res), tuple(bas), out)] = terms

    def _exponent_const(self, bas, out) -> int:
        """c with output exponent m = sum(n_j) * 1 + c; integrality is the
        degree constraint for weight > 1."""
        num = _exponent_num(self.algebra, self.arity, self.end_degree, bas, out)
        if num % self.algebra.weight != 0:
            raise ConfigurationError("component violates degree homogeneity")
        return num // self.algebra.weight

    def multiplication(self):
        return self.algebra.multiplication_cochain()

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, inputs):
        """Value on a tuple of (basis label, exponent) pairs, as a dict
        from (basis label, exponent) to scalar."""
        if len(inputs) != self.arity:
            raise ConfigurationError("arity mismatch")
        alg = self.algebra
        R = alg.residue_modulus
        field = alg.field
        res = tuple(n % R for _, n in inputs)
        bas = tuple(b for b, _ in inputs)
        svals = [field.from_int((n - (n % R)) // R) for _, n in inputs]
        total = sum(n for _, n in inputs)
        return field.add_into({}, (
            ((o, total + self._exponent_const(bas, o)),
             Poly._raw(field, self.arity, terms).evaluate(svals))
            for (r, bb, o), terms in self.table.items()
            if r == res and bb == bas
        ))

    # -- composition -------------------------------------------------------------

    @staticmethod
    def d_walk(alg: TwistedLaurent, arity: int, end_degree: int, entries, acc: dict) -> dict:
        """Add [m2, f] into ``acc``, flat coordinates ``{(key, exponents): c}``
        in arity + 1 parameters, for the cochain f of that shape whose table
        entries are ``entries``, with the signs of the finite case (see
        :mod:`hochcalc.cochain`).  m2 is constant, so an m2 o_j f term moves
        the exponents of an entry, and an f o_i m2 term replaces s_i by
        s_i + s_{i+1} + k0."""
        field = alg.field
        mul, add_into = field.mul, field.add_into
        R, w, degrees = alg.residue_modulus, alg.weight, alg.base.degrees
        odd_f = end_degree % 2 == 1
        by_first, by_second, by_product = _m2_lookups(alg)
        for (rf, bf, of), terms in entries:
            const = _exponent_num(alg, arity, end_degree, bf, of) // w
            r_out = (sum(rf) + const) % R
            pairs = []
            hits = by_first.get((of, r_out))
            if hits:
                moved = [(e + (0,), x) for e, x in terms.items()]
                for r2, b2, o, c in hits:
                    key = (rf + (r2,), bf + (b2,), o)
                    pairs += [((key, e), mul(c, x)) for e, x in moved]
            hits = by_second.get((of, r_out))
            if hits:
                moved = [((0,) + e, x) for e, x in terms.items()]
                for r1, b1, o, c, signed in hits:
                    key, c = ((r1,) + rf, (b1,) + bf, o), signed if odd_f else c
                    pairs += [((key, e), mul(c, x)) for e, x in moved]
            negate = not odd_f
            for i in range(arity):
                hits = by_product.get((bf[i], rf[i]))
                if hits:
                    # the substituted entry, signed and scaled, once per (k0, factor)
                    substituted: dict = {}
                    for r1, r2, b1, b2, c, minus_c, k0 in hits:
                        c = minus_c if negate else c
                        subs = substituted.get((k0, c))
                        if subs is None:
                            subs = substituted[k0, c] = [
                                (e[:i] + a + e[i + 1:], mul(mul(c, m), x))
                                for e, x in terms.items()
                                for a, m in _expansion(field, e[i], k0, 2)
                            ]
                        key = (rf[:i] + (r1, r2) + rf[i + 1:], bf[:i] + (b1, b2) + bf[i + 1:], of)
                        pairs += [((key, e), x) for e, x in subs]
                negate ^= (degrees[bf[i]] + rf[i] * w) % 2 == 0
            add_into(acc, pairs)
        return acc

    def compose_at(self, g: "PolyCochain", i: int) -> "PolyCochain":
        """Operadic composition at slot i (1-based), with the same Koszul
        sign convention as finite cochains."""
        if self.algebra is not g.algebra:
            raise ConfigurationError("cochains over different algebras")
        if self.is_zero() or g.is_zero():
            return self.zero_like(self.arity + g.arity - 1, self.end_degree + g.end_degree)
        if not (1 <= i <= self.arity):
            raise ConfigurationError(f"slot {i} out of range")
        alg = self.algebra
        field = alg.field
        R = alg.residue_modulus
        p, q = self.arity, g.arity
        nvars = p + q - 1
        head, tail = (0,) * (i - 1), (0,) * (p - i)
        g_items = []
        for (rg, bg, og), terms_g in g.table.items():
            c = g._exponent_const(bg, og)
            r_m = (sum(rg) + c) % R
            k0 = (sum(rg) + c - r_m) // R
            # g's variables sit at slots i..i+q-1 of the composite
            pg = Poly._raw(field, nvars, {head + e + tail: x for e, x in terms_g.items()})
            g_items.append((rg, bg, og, pg, r_m, k0))
        out = self.zero_like(nvars, self.end_degree + g.end_degree)
        minus = field.neg(field.one())
        for (rf, bf, of), terms_f in self.table.items():
            slot_res = rf[i - 1]
            slot_bas = bf[i - 1]
            prefix_deg = sum(
                alg.base.degrees[bf[j]] + rf[j] * alg.weight + 1 for j in range(i - 1)
            )
            negate = (g.end_degree * prefix_deg) % 2 == 1
            # each entry of f is substituted once per k0
            substituted = {}
            for rg, bg, og, pg, r_m, k0 in g_items:
                if og != slot_bas or r_m != slot_res:
                    continue
                new_res = rf[: i - 1] + rg + rf[i:]
                new_bas = bf[: i - 1] + bg + bf[i:]
                pf = substituted.get(k0)
                if pf is None:
                    pf = substituted[k0] = Poly._raw(field, p, terms_f).subst_affine(i - 1, q, k0)
                _add_at(field, out.table, (new_res, new_bas, of), (pf * pg).terms.items(),
                        minus if negate else None)
        return out


def _exponent_num(alg: TwistedLaurent, arity: int, end_degree: int, bas, out) -> int:
    """w c, where m = sum(n_j) + c is the output exponent of a key of that
    shape and w = |x|; the key is homogeneous iff w divides it."""
    degrees = alg.base.degrees
    return sum(degrees[b] for b in bas) - degrees[out] + arity + end_degree - 1


def _m2_lookups(alg: TwistedLaurent):
    """The entries ``((r1, r2), (b1, b2), o) -> c`` of the constant m2 by
    first factor, ``(b1, r1) -> [(r2, b2, o, c)]``, by second factor,
    ``(b2, r2) -> [(r1, b1, o, c, (-1)^{|s b1 x^r1|} c)]``, and by product,
    ``(o, r) -> [(r1, r2, b1, b2, c, -c, k0)]``, where the output exponent
    r1 + r2 + R (s1 + s2) + const of m2 is r + R (s1 + s2 + k0).  Cached on
    the algebra."""
    if alg._m2_lookups is None:
        neg = alg.field.neg
        R, w, degrees = alg.residue_modulus, alg.weight, alg.base.degrees
        by_first: dict = {}
        by_second: dict = {}
        by_product: dict = {}
        m2 = alg.multiplication_cochain()
        for ((r1, r2), (b1, b2), o), terms in m2.table.items():
            (c,) = terms.values()
            signed = neg(c) if (degrees[b1] + r1 * w) % 2 == 0 else c
            by_first.setdefault((b1, r1), []).append((r2, b2, o, c))
            by_second.setdefault((b2, r2), []).append((r1, b1, o, c, signed))
            k0, r = divmod(r1 + r2 + m2._exponent_const((b1, b2), o), R)
            by_product.setdefault((o, r), []).append((r1, r2, b1, b2, c, neg(c), k0))
        alg._m2_lookups = (by_first, by_second, by_product)
    return alg._m2_lookups


@lru_cache(maxsize=None)
def _expansion(field: Field, e: int, k0: int, q: int):
    """(s_1 + ... + s_q + k0)^e as ``((a, m), ...)``: ``a`` runs over the
    exponent tuples of length q with sum(a) <= e, and m is the integer
    multinomial e! / (a_1! ... a_q! k!) k0^k with k = e - sum(a), mapped
    into the field, zeros dropped.  Entries are reduced, so e < p over F_p,
    and every a_j <= e: the expansion needs no s^p = s reduction.  The one
    expansion of :meth:`Poly.subst_affine` and :meth:`PolyCochain.d_walk`."""
    terms = []
    for a in _monomials(q, e, 0):
        k = e - sum(a)
        m = field.from_int(factorial(e) // (prod(map(factorial, a)) * factorial(k)) * k0 ** k)
        if m:
            terms.append((a, m))
    return tuple(terms)


# -- distinguished cochains ------------------------------------------------------


def constant_cochain(alg: TwistedLaurent, b: int, m: int, coeff=None) -> PolyCochain:
    """Arity-0 cochain with value (coeff) * s(b x^m)."""
    field = alg.field
    if coeff is None:
        coeff = field.one()
    d = alg.element_degree(b, m) + 1
    return PolyCochain(alg, 0, d, {((), (), b): {(): coeff}})


def euler_cochain(alg: TwistedLaurent) -> PolyCochain:
    """The Euler derivation: diagonal with coefficient 1 - |s(b x^n)| =
    -(deg b + n w); linear in the exponent."""
    field = alg.field
    R = alg.residue_modulus
    comps = {}
    for r in range(R):
        for b in range(alg.base.dim):
            const = field.from_int(-(alg.base.degrees[b] + r * alg.weight))
            slope = field.from_int(-alg.weight * R)
            comps[((r,), (b,), b)] = {(0,): const, (1,): slope}
    return PolyCochain(alg, 1, 0, comps)


def binomial_half_cochain(alg: TwistedLaurent) -> PolyCochain:
    """Diagonal cochain with coefficient |x|(|x|-1)/2 on s(x), |x| the
    unsuspended degree.  Integer-valued, so it exists in characteristic 2
    as well; a primitive for the cup square of the Euler derivation."""
    field = alg.field
    R = alg.residue_modulus
    w = alg.weight
    comps = {}
    for r in range(R):
        for b in range(alg.base.dim):
            d0 = alg.base.degrees[b] + r * w
            # |x| = d0 + R w s; expand |x|(|x|-1)/2 with integer coefficients
            # (R is even, so R w (2 d0 - 1) / 2 and (R w)^2 / 2 are integers)
            c0 = d0 * (d0 - 1) // 2
            c1 = (R * w) * (2 * d0 - 1) // 2
            c2 = (R * w) * (R * w) // 2
            comps[((r,), (b,), b)] = {
                (0,): field.from_int(c0),
                (1,): field.from_int(c1),
                (2,): field.from_int(c2),
            }
    return PolyCochain(alg, 1, 0, comps)


# -- one-sided witness search ------------------------------------------------------


def _witness_basis_keys(alg: TwistedLaurent, arity: int, end_degree: int):
    """All legal component keys at the given shape."""
    R = alg.residue_modulus
    dim = alg.base.dim
    keys = []
    for res in iproduct(range(R), repeat=arity):
        for bas in iproduct(range(dim), repeat=arity):
            for out in range(dim):
                if _exponent_num(alg, arity, end_degree, bas, out) % alg.weight == 0:
                    keys.append((res, bas, out))
    return keys


def _monomials(nvars: int, max_total: int, char: int):
    """Exponent tuples with total degree <= max_total, reduced mod the
    function semantics (so no variable exceeds char - 1 over F_p)."""
    cap = max_total if char == 0 else min(max_total, char - 1)
    if nvars == 0:
        return [()]
    out = []

    def rec(prefix, remaining):
        if len(prefix) == nvars:
            out.append(tuple(prefix))
            return
        for e in range(0, min(cap, remaining) + 1):
            rec(prefix + [e], remaining - e)

    rec([], max_total)
    return out


def _weight_vectors(alg: TwistedLaurent):
    """Gradings of the base that every product and sigma respect, as a list
    of integer weight vectors (unit weight 0).  Used only to prune witness
    searches; correctness never depends on them."""
    if alg._weights is not None:
        return alg._weights
    Q = Rationals()
    base = alg.base
    n = base.dim
    rows = []
    one, minus_one = Q.one(), Q.from_int(-1)
    for i in range(n):
        for j in range(n):
            for k in base.product(i, j):
                rows.append(Q.add_into({}, ((i, one), (j, one), (k, minus_one))))
    for i in range(n):
        for j in alg.sigma[i]:
            if j != i:
                rows.append({i: one, j: minus_one})
    rows.append({base.unit: one})
    mat = SparseMatrix(Q, len(rows), n,
                       {(r, c): v for r, row in enumerate(rows) for c, v in row.items()})
    vecs = []
    for v in rref(mat).kernel():
        denom = lcm(*(c.denominator for c in v.values()))
        vecs.append(tuple(int(v.get(i, Q.zero()) * denom) for i in range(n)))
    alg._weights = vecs
    return vecs


def _key_weight(wvecs, key):
    res, bas, out = key
    return tuple(w[out] - sum(w[b] for b in bas) for w in wvecs)


def _coordinates(z: PolyCochain) -> dict:
    """The coefficients of ``z``, keyed by (component key, monomial)."""
    return {(ckey, exps): c for ckey, terms in z.table.items() for exps, c in terms.items()}


def find_witness(lhs: PolyCochain, rhs: PolyCochain, d_search: int):
    """Exact b with lhs - rhs = hoch_d(b), searched inside the residue-split
    class with polynomial total degree <= d_search.

    A found witness proves the cohomology identity; absence only means the
    identity is not certified inside this class at this degree.
    Returns (witness or None, stats dict), by :func:`find_witnesses`.
    """
    return find_witnesses([(lhs, rhs)], d_search)[0]


def find_witnesses(pairs, d_search: int):
    """:func:`find_witness` for each ``(lhs, rhs)`` of ``pairs``: a list with
    ``(witness or None, stats)`` per pair.  A found witness is verified
    exactly; absence is one-sided.

    The differences of one algebra and shape share one elimination, of the
    coboundary columns whose weight is one of theirs, with a right-hand side
    each.  Its columns are sorted by (number of nonzeros, index), which
    favours sparse witnesses.  ``hoch_d`` preserves weight, so that system
    is block diagonal by weight with the column order of each block
    unchanged: a difference's witness and ``unknowns`` are those of a search
    over its own weights alone.
    """
    out = [None] * len(pairs)
    groups = {}
    for t, (lhs, rhs) in enumerate(pairs):
        if (lhs.arity, lhs.end_degree) != (rhs.arity, rhs.end_degree):
            raise DomainError("bidegree mismatch between the two sides")
        z = lhs - rhs
        if z.is_zero():
            out[t] = z.zero_like(z.arity - 1, z.end_degree + 1), {"unknowns": 0}
        elif not z.arity:  # an arity-0 difference has no witness unless it is zero
            out[t] = None, {"unknowns": 0}
        else:
            groups.setdefault((z.algebra, z.arity, z.end_degree), []).append((t, z))
    for (alg, arity, end_degree), group in groups.items():
        field = alg.field
        arity_b, deg_b = arity - 1, end_degree + 1
        wvecs = _weight_vectors(alg)
        tcoords = [_coordinates(z) for _, z in group]
        weights = [{_key_weight(wvecs, ckey) for (ckey, _) in tc} for tc in tcoords]
        columns, unknowns = [], []
        monos = _monomials(arity_b, d_search, field.char)
        shared = {}
        for key in _witness_basis_keys(alg, arity_b, deg_b):
            weight = _key_weight(wvecs, key)
            if not any(weight in ws for ws in weights):
                continue
            for mono in monos:
                col = PolyCochain.d_walk(alg, arity_b, deg_b, ((key, {mono: field.one()}),), {})
                if col:
                    # equal keys of different columns are kept as one object,
                    # which keeps the peak RSS of a large search down
                    columns.append({shared.setdefault(k, k): c for k, c in col.items()})
                    unknowns.append((key, mono, weight))
        order = sorted(range(len(columns)), key=lambda j: (len(columns[j]), j))
        columns, unknowns = [columns[j] for j in order], [unknowns[j] for j in order]
        for (t, z), ws, x in zip(group, weights, solve_columns_many(field, columns, tcoords)):
            witness = None
            if x is not None:
                table = {}
                for j, c in x.items():
                    table.setdefault(unknowns[j][0], {})[unknowns[j][1]] = c
                witness = PolyCochain(alg, arity_b, deg_b, table)
                if not (hoch_d(witness) - z).is_zero():
                    raise DomainError("witness verification failed")
            out[t] = witness, {"unknowns": sum(u[2] in ws for u in unknowns), "generators": 0}
    return out


# -- the sign-twisted Laurent example ------------------------------------------


def sign_twisted_laurent(field: Field) -> TwistedLaurent:
    """k<e, x^{+-1}>/(e^2, xe + ex): dual numbers twisted by e -> -e, |x| = 1."""
    base = dual_numbers(field, eps_degree=0)
    eps = base.index["e"]
    unit = base.unit
    sigma = {
        unit: {unit: field.one()},
        eps: {eps: field.neg(field.one())},
    }
    return TwistedLaurent(base, sigma, weight=1)


def skew_derivation_cochain(alg: TwistedLaurent) -> PolyCochain:
    """The derivation sending x to 0 and the base generator to x^{-1},
    suspended; a cocycle of bidegree (1, 1)."""
    field = alg.field
    eps = alg.base.index["e"]
    unit = alg.base.unit
    R = alg.residue_modulus
    comps = {}
    for r in range(R):
        comps[((r,), (eps,), unit)] = {(0,): field.one()}
    return PolyCochain(alg, 1, -1, comps)


def display_monomial(alg: TwistedLaurent, eps: int, xpow: int, n_delta: int, n_e: int) -> PolyCochain:
    """Representative of the product class (e^eps x^xpow) . delta^{n_delta} . e^{n_e}
    on the sign-twisted Laurent algebra.

    Products are raw left-nested m2-braces of the factors.  The sign
    normalization (center elements carry (-1)^degree, arities 2 mod 4 a
    global minus) is calibrated once so that these representatives satisfy
    the classical product and bracket tables of this Gerstenhaber algebra;
    the calibration is validated by the report checks themselves.
    """
    field = alg.field
    base = alg.base
    b = base.index["e"] if eps else base.unit
    cur = constant_cochain(alg, b, xpow)
    if xpow % 2:
        cur = -cur
    m2 = alg.multiplication_cochain()
    for g in [euler_cochain(alg)] * n_delta + [skew_derivation_cochain(alg)] * n_e:
        cur = brace(m2, [cur, g])
    if (n_delta + n_e) % 4 == 2:
        cur = -cur
    dz = hoch_d(cur)
    if not dz.is_zero():
        raise DomainError("monomial representative is not a cocycle", witness=dz)
    return cur


def _report_entry(checks, check_id, name, status, **detail):
    entry = {"id": check_id, "name": name, "status": status}
    if detail:
        entry["detail"] = dict(sorted(detail.items()))
    checks.append(entry)
    return entry


def _witness_entry(checks, check_id, name, detail_key, cases, d_search, skip=None):
    """Append a check that passes when every case ``(label, lhs, rhs)`` of
    ``cases`` has a coboundary witness for lhs - rhs (one batch of
    :func:`find_witnesses`), each label marked "witness" or "NOT CERTIFIED"
    under ``detail_key``.  A ``skip`` reason makes it SKIPPED, with no case built."""
    if skip is not None:
        return _report_entry(checks, check_id, name, "SKIPPED", reason=skip)
    cases = list(cases)
    found = [w is not None for w, _ in find_witnesses([c[1:] for c in cases], d_search)]
    results = {c[0]: "witness" if ok else "NOT CERTIFIED" for c, ok in zip(cases, found)}
    return _report_entry(checks, check_id, name, "PASS" if all(found) else "FAIL",
                         **{detail_key: results})


def section8_report(characteristic: int, d_search: int = 3):
    """Verify the worked-example identities on the sign-twisted Laurent
    algebra over the requested characteristic (0, 2, or an odd prime).

    Cocycle and cochain-level checks are unconditional; class identities are
    certified by explicit coboundary witnesses inside the residue-split
    polynomial class of total degree <= d_search.  A missing witness is
    reported as FAIL (not certified at this degree), never silently passed.
    """
    field = Rationals() if characteristic == 0 else PrimeField(characteristic)
    alg = sign_twisted_laurent(field)
    e = skew_derivation_cochain(alg)
    delta = euler_cochain(alg)
    checks: list = []
    char2 = field.char == 2

    # (a) the two distinguished cocycles
    ok_a = hoch_d(e).is_zero() and hoch_d(delta).is_zero()
    _report_entry(checks, "a", "e and the Euler derivation are cocycles",
                  "PASS" if ok_a else "FAIL")

    # (b) the square of e vanishes on the nose
    _report_entry(checks, "b", "Sq(e) = 0 at cochain level",
                  "PASS" if sq(e).is_zero() else "FAIL")

    # (c) characteristic 2: Sq(delta) = delta on the nose
    if char2:
        _report_entry(checks, "c", "Sq(delta) = delta at cochain level",
                      "PASS" if (sq(delta) - delta).is_zero() else "FAIL")
    else:
        _report_entry(checks, "c", "Sq(delta) = delta at cochain level",
                      "SKIPPED", reason="characteristic 2 only")

    # (d) the cup square of the Euler class bounds
    beta = binomial_half_cochain(alg)
    dd = cup(delta, delta)
    explicit = (dd + hoch_d(beta)).is_zero()
    w, stats = find_witness(dd, PolyCochain(alg, 2, -1), d_search)
    _report_entry(checks, "d", "Euler class cup square vanishes with witness",
                  "PASS" if (explicit and w is not None) else "FAIL",
                  explicit_primitive=explicit, witness_found=w is not None,
                  solver=stats)

    M = lambda eps, xp, nd, ne: display_monomial(alg, eps, xp, nd, ne)
    z1, z2 = M(0, 4, 0, 3), M(1, 3, 1, 2)
    w1, w2 = M(0, 6, 1, 4), M(1, 7, 0, 5)
    odd_only = "verified in odd/zero characteristic" if char2 else None

    # (e) the quadratic formula for the square on the (3,-1) classes
    pairs = [(0, 1), (1, 0), (1, 1)] + ([(2, 3 % field.char)] if field.char else [])
    _witness_entry(
        checks, "e",
        "quadratic square formula (odd/zero characteristic form)" if char2
        else "Sq(a z1 + b z2) = 3ab x^6{d}{e}^4 - ab eps x^7{e}^5",
        "samples",
        ((f"({a_},{b_})", sq(z1.scale_int(a_) + z2.scale_int(b_)),
          w1.scale_int(3 * a_ * b_) - w2.scale_int(a_ * b_)) for a_, b_ in pairs),
        d_search, skip="characteristic 2 uses the four-coefficient form" if char2 else None,
    )

    # (f) characteristic 2: the square on the four (3,-1) classes
    def four_coefficient_cases():
        c2, c3 = M(1, 4, 0, 3), M(0, 3, 1, 2)
        t2, t3 = M(1, 6, 1, 4), M(0, 7, 0, 5)
        tuples = [
            (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
            (1, 1, 0, 0), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 1, 1),
        ]
        for (a1, a2, a3, a4) in tuples:
            lhs = sq(
                z1.scale_int(a1) + c2.scale_int(a2) + c3.scale_int(a3) + z2.scale_int(a4)
            )
            rhs = (
                w1.scale_int(a1 * a4)
                + t2.scale_int(a2 * a4)
                + t3.scale_int(a1 * a2 + a1 * a3)
                + w2.scale_int(a2 * a2 + a2 * a3 + a1 * a4)
            )
            yield str((a1, a2, a3, a4)), lhs, rhs

    _witness_entry(checks, "f", "four-coefficient square formula", "samples",
                   four_coefficient_cases(), d_search,
                   skip=None if char2 else "characteristic 2 only")

    # (g) bracket tables against the (3,-1) basis monomial z1
    def bracket_table_cases():
        yield "(1,0) [z1, delta] = x^4{e}^3", bracket(z1, delta), z1
        yield ("(1,0) [z1, eps x{e}] = 3 x^4{e}^3", bracket(z1, M(1, 1, 0, 1)),
               z1.scale_int(3))
        yield "(1,-1) [z1, x^2{e}] = 0", bracket(z1, M(0, 2, 0, 1)), PolyCochain(alg, 3, 0)
        yield ("(1,-1) [z1, eps x{d}] = 3x^4{d}{e}^2 - eps x^5{e}^3",
               bracket(z1, M(1, 1, 1, 0)), M(0, 4, 1, 2).scale_int(3) - M(1, 5, 0, 3))
        yield "(2,0) [z1, x^2{e}^2] = 0", bracket(z1, M(0, 2, 0, 2)), PolyCochain(alg, 4, -2)
        yield ("(2,0) [z1, eps x{d}{e}] = 3x^4{d}{e}^3 - eps x^5{e}^4",
               bracket(z1, M(1, 1, 1, 1)), M(0, 4, 1, 3).scale_int(3) - M(1, 5, 0, 4))
        yield "(2,1) [z1, {d}{e}] = x^4{e}^4", bracket(z1, M(0, 0, 1, 1)), M(0, 4, 0, 4)
        yield ("(2,1) [z1, eps x{e}^2] = 3 x^4{e}^4", bracket(z1, M(1, 1, 0, 2)),
               M(0, 4, 0, 4).scale_int(3))

    _witness_entry(checks, "g", "bracket tables for [x^4{e}^3, -]", "rows",
                   bracket_table_cases(), d_search, skip=odd_only)

    # (h) cup against odd-arity (n,-1) classes factors through the Euler class
    def euler_factor_cases():
        xs = [("e", e), ("x^2", constant_cochain(alg, alg.base.unit, 2))]
        for yname, y in [("x^4{e}^3", z1), ("eps x^3{d}{e}^2", z2)]:
            for xname, x in xs:
                rhs = bracket(y, cup(delta, x)) + cup(delta, bracket(y, x))
                yield f"y={yname}, x={xname}", cup(y, x), rhs

    _witness_entry(checks, "h", "y cup x = [y, {d} cup x] + {d} cup [y, x]", "instances",
                   euler_factor_cases(), d_search, skip=odd_only)

    # informational: exhibited bases and claimed dimensions
    claimed = "2 per (p,q) with p>0, 1 at p=0" if not char2 else "4 per (p,q) with p>0, 2 at p=0"
    probe = {}
    if not char2:
        combos = {"z1": (1, 0), "z2": (0, 1), "z1+z2": (1, 1)}
        found = find_witnesses([(z1.scale_int(a_) + z2.scale_int(b_), PolyCochain(alg, 3, -1))
                                for a_, b_ in combos.values()], d_search)
        for name, (ww, _) in zip(combos, found):
            probe[name] = "bounds (unexpected)" if ww is not None else "no witness at this degree"
    _report_entry(checks, "dims", "exhibited generator count vs stated dimensions",
                  "INFO", claimed=claimed, independence_probe=probe,
                  note="one-sided: absence of a witness certifies nothing")

    failed = [c["id"] for c in checks if c["status"] == "FAIL"]
    return {
        "algebra": "k<e,x^{+-1}>/(e^2, xe+ex)",
        "characteristic": characteristic,
        "d_search": d_search,
        "checks": checks,
        "failed": failed,
        "all_passed": not failed,
    }
