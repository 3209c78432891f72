"""Bidegree-wise Hochschild cohomology by exact linear algebra.

Two pipelines share this code: the default works in the normalized
(reduced) complex of cochains vanishing on the unit, the other in the full
bar complex.  The second exists as an independent cross-check and to host
cocycle-module cells of spectral pages; both produce deterministic bases.
"""

from __future__ import annotations

from .algebra import GradedAlgebra
from .cochain import (
    Cochain,
    bracket,
    cochain_basis,
    cochain_from_coords,
    coords_of_cochain,
    cup,
    hoch_d,
    sq,
)
from .errors import ConfigurationError, DomainError
from .exactla import Echelon, SparseMatrix, rref, solve_columns_many, vec_combine


class CochainComplex:
    """The column C^{*,q} of one pipeline: the lexicographic cochain basis
    of each arity, the Hochschild differential out of it and that
    differential's factorization, each built once.  Every HHSpace and the
    page-1 differential read them from here."""

    def __init__(self, algebra: GradedAlgebra, q: int, normalized: bool = True):
        self.algebra = algebra
        self.q = q
        self.normalized = normalized
        self._bases: dict = {}
        self._ds: dict = {}
        self._echelons: dict = {}

    def basis(self, p: int):
        """The lexicographic basis of C^{p,q} and its index; empty for p < 0."""
        if p not in self._bases:
            basis = cochain_basis(self.algebra, p, self.q, self.normalized) if p >= 0 else []
            self._bases[p] = (basis, {pair: n for n, pair in enumerate(basis)})
        return self._bases[p]

    def d(self, p: int) -> SparseMatrix:
        """The matrix of [m2, -]: C^{p,q} -> C^{p+1,q}, column j the walk of
        [m2, -] on basis element j, its flat coordinates mapped to rows."""
        if p not in self._ds:
            a = self.algebra
            one, d = a.field.one(), 1 - p - self.q
            basis, (_, index) = self.basis(p)[0], self.basis(p + 1)
            entries = {}
            for j, (t, k) in enumerate(basis):
                for pair, c in Cochain.d_walk(a, p, d, ((t, {k: one}),), {}).items():
                    i = index.get(pair)
                    if i is None:
                        raise DomainError(
                            f"cochain entry {pair} outside the enumerated basis", witness=pair
                        )
                    entries[i, j] = c
            # every entry is in range and nonzero already
            m = self._ds[p] = SparseMatrix(a.field, len(index), len(basis))
            m.entries = entries
        return self._ds[p]

    def echelon(self, p: int) -> Echelon:
        """The factorization of d(p): the cocycles at (p, q) are its kernel,
        and the columns of d(p) at its pivots are the coboundary basis at
        (p + 1, q)."""
        if p not in self._echelons:
            self._echelons[p] = rref(self.d(p))
        return self._echelons[p]

    def space(self, p: int) -> "HHSpace":
        return HHSpace(self, p)

    def release(self, p: int):
        """Forget the basis of C^{p,q}, d(p) and its factorization, for a
        caller that visits the cells in increasing p: the cells above p + 1
        never read them."""
        self._bases.pop(p, None)
        self._ds.pop(p, None)
        self._echelons.pop(p, None)


class HHSpace:
    """Cocycles, coboundaries and a cohomology basis at one bidegree.

    All bases are deterministic: the cochain basis is lexicographic, the
    cocycle basis comes from kernel vectors of d(p) in free-column order,
    the coboundary basis is the columns of d(p - 1) at its pivots, and the
    cohomology representatives are the cocycle basis vectors at
    pivot-complement positions.

    Each cocycle basis vector is 1 at its own free column of d(p) (its
    largest index) and 0 at the other free columns, so the coordinates of a
    cocycle in that basis are its entries there.  The space factors one
    matrix of its own, the coboundaries in those coordinates; its echelon
    form gives the cohomology slots and answers :meth:`class_of` and
    :meth:`is_coboundary`.
    """

    def __init__(self, column: CochainComplex, p: int):
        self.algebra = column.algebra
        self.p = p
        self.q = column.q
        self.basis, self.index = column.basis(p)
        self.basis_in = column.basis(p - 1)[0]
        self.d_in = column.d(p - 1)
        self.d_out = column.d(p)
        self.cocycles = column.echelon(p).kernel()
        self._d_in_echelon = column.echelon(p - 1)
        pivot_columns = {j: {} for j in self._d_in_echelon.pivots}
        for (i, j), c in self.d_in.entries.items():
            if j in pivot_columns:
                pivot_columns[j][i] = c
        self.coboundaries = list(pivot_columns.values())
        self._slot = {max(v): j for j, v in enumerate(self.cocycles)}
        self._cob_coords = [self._cocycle_coords(b) for b in self.coboundaries]
        if None in self._cob_coords:
            raise ConfigurationError("coboundary outside the cocycle space")
        ech = rref(SparseMatrix.from_rows(self.algebra.field, self._cob_coords, len(self.cocycles)))
        # the pivot rows of the echelon form by pivot slot; each is 1 there
        # and otherwise lives on the cohomology slots, the slots without a pivot
        self._reducers = dict(zip(ech.pivots, ech.rows))
        hh_slots = [j for j in range(len(self.cocycles)) if j not in self._reducers]
        self._hh_index = {j: n for n, j in enumerate(hh_slots)}
        self.hh_vectors = [self.cocycles[j] for j in hh_slots]
        self.dim = len(self.hh_vectors)
        self.hh_reps = [
            cochain_from_coords(self.algebra, p, self.q, self.basis, v) for v in self.hh_vectors
        ]

    def _cocycle_coords(self, v: dict):
        """Coordinates of the vector ``v`` of C^{p,q} in the cocycle basis,
        or None if ``v`` is not in the span of that basis."""
        u = {self._slot[i]: c for i, c in v.items() if i in self._slot}
        back = vec_combine(self.algebra.field, ((c, self.cocycles[j]) for j, c in u.items()))
        return u if back == v else None

    # -- classes -------------------------------------------------------------

    def _require_cocycle(self, z: Cochain) -> dict:
        """The cocycle coordinates of ``z``, once it is checked to be a
        cocycle of this bidegree."""
        if (z.arity, 1 - z.arity - z.end_degree) != (self.p, self.q):
            raise ConfigurationError(
                f"cochain bidegree {z.bidegree} does not match space ({self.p},{self.q})"
            )
        dz = hoch_d(z)
        if not dz.is_zero():
            raise DomainError("not a cocycle", witness=dz)
        u = self._cocycle_coords(coords_of_cochain(z, self.basis, self.index))
        if u is None:
            raise DomainError("cocycle outside the computed cocycle space")
        return u

    def _class_coords(self, u: dict) -> dict:
        """Reduce cocycle coordinates by the rows of the coboundary echelon
        form; what is left sits on the cohomology slots, and is the class."""
        field = self.algebra.field
        rest = dict(u)
        for j, c in u.items():
            row = self._reducers.get(j)
            if row is not None:
                field.add_into(rest, row.items(), field.neg(c))
        return {self._hh_index[j]: c for j, c in rest.items()}

    def class_of(self, z: Cochain) -> "CohomClass":
        """Coordinates of a cocycle in the cohomology basis."""
        return CohomClass(self, z, self._class_coords(self._require_cocycle(z)))

    def class_from_coords(self, coords: dict) -> "CohomClass":
        rep = vec_combine(self.algebra.field, ((c, self.hh_vectors[j]) for j, c in coords.items()))
        z = cochain_from_coords(self.algebra, self.p, self.q, self.basis, rep)
        return CohomClass(self, z, dict(coords))

    def is_coboundary(self, z: Cochain):
        """Exact witness b with hoch_d(b) = z, or None; raises
        ``ConfigurationError`` if a witness fails that exact check.

        The witness is the one supported on the pivot columns of d(p - 1):
        its entries there are the coordinates of z on the coboundary basis.
        At arity 0 there are no bounding cochains, so the answer is None for
        every nonzero cocycle (and for zero, which bounds nothing).
        """
        u = self._require_cocycle(z)
        if self.p == 0 or self._class_coords(u):
            return None
        (y,) = solve_columns_many(self.algebra.field, self._cob_coords, [u])
        if y is None:
            raise ConfigurationError("cocycle of zero class outside the coboundary span")
        pivots = self._d_in_echelon.pivots
        x = {pivots[i]: c for i, c in y.items()}
        b = cochain_from_coords(self.algebra, self.p - 1, self.q, self.basis_in, x)
        if not (hoch_d(b) - z).is_zero():
            raise ConfigurationError("coboundary witness failed its exact check")
        return b

    def cocycle_dim(self) -> int:
        return len(self.cocycles)

    def coboundary_dim(self) -> int:
        return len(self.coboundaries)


class CohomClass:
    """A cohomology class: space, representative, deterministic coordinates."""

    __slots__ = ("space", "representative", "coords")

    def __init__(self, space: HHSpace, representative: Cochain, coords: dict):
        self.space = space
        self.representative = representative
        self.coords = {j: c for j, c in coords.items() if not space.algebra.field.is_zero(c)}

    @property
    def bidegree(self):
        return (self.space.p, self.space.q)

    def is_zero(self) -> bool:
        return not self.coords

    def __eq__(self, other):
        return (
            isinstance(other, CohomClass)
            and self.space is other.space
            and self.coords == other.coords
        )

    def __repr__(self):
        return f"CohomClass({self.bidegree}, coords={self.coords})"


class HHContext:
    """Caches cochain complexes per (q, pipeline), HHSpaces per (p, q, pipeline)
    and comparison columns per (p, q)."""

    def __init__(self, algebra: GradedAlgebra):
        self.algebra = algebra
        self._complexes: dict = {}
        self._spaces: dict = {}
        self._comparisons: dict = {}

    def space(self, p: int, q: int) -> HHSpace:
        return self._space(p, q, True)

    def full_space(self, p: int, q: int) -> HHSpace:
        return self._space(p, q, False)

    def column(self, q: int, normalized: bool) -> CochainComplex:
        """The cached column C^{*,q} of one pipeline."""
        if (q, normalized) not in self._complexes:
            self._complexes[q, normalized] = CochainComplex(self.algebra, q, normalized)
        return self._complexes[q, normalized]

    def _space(self, p: int, q: int, normalized: bool) -> HHSpace:
        key = (p, q, normalized)
        if key not in self._spaces:
            self._spaces[key] = self.column(q, normalized).space(p)
        return self._spaces[key]

    def class_of(self, z: Cochain) -> CohomClass:
        """The class of a cocycle of either pipeline in the normalized basis.
        A cocycle that is not normalized is read in the full space, and its
        class carried back by the comparison columns, the full classes of the
        normalized representatives: inclusion of normalized cochains is a
        quasi-isomorphism, so they are a basis."""
        p, q = z.bidegree
        space = self.space(p, q)
        if z.is_normalized():
            return space.class_of(z)
        full = self.full_space(p, q)
        coords = full.class_of(z).coords
        if (p, q) not in self._comparisons:
            self._comparisons[p, q] = [full.class_of(rep).coords for rep in space.hh_reps]
        (x,) = solve_columns_many(self.algebra.field, self._comparisons[p, q], [coords])
        if x is None:
            raise ConfigurationError("full cocycle not homologous to a normalized one")
        return space.class_from_coords(x)

    def is_coboundary(self, z: Cochain):
        p, q = z.bidegree
        return self.space(p, q).is_coboundary(z)


def hh_space(a: GradedAlgebra, p: int, q: int, normalized: bool = True) -> HHSpace:
    return CochainComplex(a, q, normalized).space(p)


# -- induced maps on cohomology ------------------------------------------------


def induced_bracket(ctx: HHContext, z: CohomClass, p: int, q: int) -> SparseMatrix:
    """Matrix of [z, -]: HH^{p,q} -> HH^{p+pz-1, q+qz} in the cached bases."""
    return _induced_map(ctx, bracket, z, p, q, -1)


def induced_cup(ctx: HHContext, z: CohomClass, p: int, q: int) -> SparseMatrix:
    """Matrix of z cup -: HH^{p,q} -> HH^{p+pz, q+qz}."""
    return _induced_map(ctx, cup, z, p, q, 0)


def _induced_map(ctx: HHContext, op, z: CohomClass, p: int, q: int, shift: int) -> SparseMatrix:
    """Matrix of op(z, -) from HH^{p,q} to HH^{p+pz+shift, q+qz}."""
    pz, qz = z.bidegree
    src = ctx.space(p, q)
    tgt = ctx.space(p + pz + shift, q + qz)
    cols = [tgt.class_of(op(z.representative, rep)).coords for rep in src.hh_reps]
    return SparseMatrix.from_columns(ctx.algebra.field, cols, tgt.dim)


def induced_sq(ctx: HHContext, z: CohomClass) -> CohomClass:
    """Class of the Gerstenhaber square of z."""
    pz, qz = z.bidegree
    tgt = ctx.space(2 * pz - 1, 2 * qz)
    return tgt.class_of(sq(z.representative))


def cup_bijectivity_window(ctx: HHContext, z: CohomClass, p_range, q_range):
    """Per-(p,q) verdict on z cup -, with rank certificates."""
    if z.bidegree != (3, -1):
        raise DomainError(f"expected a (3,-1) class, got {z.bidegree}")
    report = {}
    for p in p_range:
        for q in q_range:
            src = ctx.space(p, q)
            tgt = ctx.space(p + 3, q - 1)
            m = induced_cup(ctx, z, p, q)
            rank = rref(m)[0]
            inj = rank == src.dim
            surj = rank == tgt.dim
            verdict = (
                "bijective"
                if inj and surj
                else "injective-only"
                if inj
                else "surjective-only"
                if surj
                else "neither"
            )
            report[(p, q)] = {
                "verdict": verdict,
                "dim_source": src.dim,
                "dim_target": tgt.dim,
                "rank": rank,
            }
    return report
