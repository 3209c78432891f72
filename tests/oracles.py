"""Reference implementations the tests compare the library against.

They redo each computation the direct way: row reduction is Gauss-Jordan
elimination that scans every row for each pivot column, where ``rref``
eliminates forward with sparsest-row pivots and back-substitutes; a solve
reduces the augmented matrix [m | b] from scratch, where
``solve_columns_many`` eliminates forward and back-substitutes the pivot
rows of its columns; the cohomology basis solves every coboundary in the cocycle basis
separately; sparse accumulation sums with plain Python arithmetic; the
Gerstenhaber bracket is the brace form f{g} - (-1)^{|f||g|} g{f}, each
brace built from compositions, where ``bracket`` walks the terms of [f, -]
over the entries of g; the Hochschild differential is evaluated tuple by
tuple from the product table or as that brace form with m2; a cochain
basis filters every argument tuple by its degree; the normalized class of
a full cocycle solves for a normalized cocycle homologous to it, where
``HHContext.class_of`` carries the full class through a comparison matrix;
the affine substitution into a polynomial multiplies out the powers of the
affine form, where ``Poly.subst_affine`` reads a cached multinomial table;
the witness search builds each coboundary column by its own walk of one
entry of one monomial, keyed by (key, exponents), where ``find_witnesses``
reads each key's move list once into integer rows; and the field Q keeps
every scalar a ``Fraction``.

It also keeps small helpers that only the tests use: the dimension of one
HH space, the associativity predicate of the origin cell of page 2, the
additivity defect of the quadratic page-2 differential, a matrix from a
dense list of rows, the identity cochain and the zero class of an HH space.
"""

from collections import namedtuple
from fractions import Fraction
from itertools import product as iproduct

from hochcalc.cochain import Cochain, brace, cochain_from_coords, coords_of_cochain, hoch_d
from hochcalc.cohomology import CochainComplex, CohomClass
from hochcalc.errors import DomainError
from hochcalc.exactla import Rationals, SparseMatrix, solve_columns_many
from hochcalc.laurent import (
    Poly,
    PolyCochain,
    _key_weight,
    _monomials,
    _weight_vectors,
    _witness_basis_keys,
)

RREF = namedtuple("RREF", "rank pivots rows")


class FractionRationals(Rationals):
    """Q with every scalar a ``Fraction``, integral or not: the reference
    that ``Rationals``, which keeps integral scalars as ints, must agree
    with."""

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def inv(self, a):
        return 1 / a

    def parse(self, text):
        return Fraction(super().parse(text))


def reference_rref(m):
    """Reduced row-echelon form by Gauss-Jordan elimination, pivoting by
    column order, then row order: each pivot is found by scanning the
    remaining rows, swapped into place, and cleared from every other row,
    which is checked for an entry in the pivot column.  Returns ``(rank,
    pivots, rows)`` as an ``RREF``, ``rows`` the nonzero rows of the reduced
    matrix, which compares equal to the first three items of the
    :class:`Echelon` of ``rref`` on the same matrix."""
    field = m.field
    rows = [{} for _ in range(m.rows)]
    for j, col in enumerate(m.columns):
        for i, c in col.items():
            rows[i][j] = c
    pivots = []
    pivot_row = 0
    for col in range(m.cols):
        sel = None
        for i in range(pivot_row, m.rows):
            if col in rows[i]:
                sel = i
                break
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        head = rows[pivot_row][col]
        if head != field.one():
            inv = field.inv(head)
            rows[pivot_row] = {j: field.mul(inv, c) for j, c in rows[pivot_row].items()}
        prow = rows[pivot_row]
        for i in range(m.rows):
            if i == pivot_row:
                continue
            c = rows[i].get(col)
            if c is None:
                continue
            field.add_into(rows[i], prow.items(), field.neg(c))
        pivots.append(col)
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return RREF(len(pivots), pivots, rows[: len(pivots)])


def reference_solve(m, b):
    """Particular solution of ``m x = b`` with free variables zero, by
    reducing the augmented matrix, or ``None`` if inconsistent."""
    aug = SparseMatrix(m.field, m.rows, m.columns + [b])
    _, pivots, rows = reference_rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    return {c: rows[r][m.cols] for r, c in enumerate(pivots) if m.cols in rows[r]}


def reference_solve_columns(field, columns, rhs):
    """``solve_columns_many`` on the one right-hand side ``rhs`` by full
    reduced row-echelon form: the augmented matrix, its columns in the order
    given and the right-hand side last, is reduced by ``reference_rref``
    over ``field`` (exactly, also over Q), and the solution is read off the
    last column.  Returns ``x`` or ``None`` if the system is inconsistent."""
    cols = list(columns)
    row_id = {r: n for n, r in enumerate(dict.fromkeys(r for col in cols + [rhs] for r in col))}
    n = len(cols)
    numbered = [{row_id[r]: c for r, c in col.items()} for col in cols + [rhs]]
    _, pivots, rows = reference_rref(SparseMatrix(field, len(row_id), numbered))
    if pivots and pivots[-1] == n:
        return None
    return {k: rows[i][n] for i, k in enumerate(pivots) if n in rows[i]}


def reference_kernel(m):
    """Kernel basis read off the reduced matrix column by column."""
    field = m.field
    rank, pivots, rows = reference_rref(m)
    basis = []
    for j in range(m.cols):
        if j in pivots:
            continue
        vec = {j: field.one()}
        for r in range(rank):
            if j in rows[r]:
                vec[pivots[r]] = field.neg(rows[r][j])
        basis.append(vec)
    return basis


def reference_pivot_complement(space):
    """Cocycle basis vectors of an ``HHSpace`` not needed to span its
    coboundaries, with one solve per coboundary."""
    field = space.algebra.field
    if not space.cocycles:
        return []
    in_cocycles = SparseMatrix(field, len(space.basis), space.cocycles)
    cob_in_k = []
    for b in space.coboundaries:
        coords = reference_solve(in_cocycles, b)
        assert coords is not None, "coboundary outside the cocycle space"
        cob_in_k.append(coords)
    _, pivots, _ = reference_rref(SparseMatrix.from_rows(field, cob_in_k, len(space.cocycles)))
    return [v for j, v in enumerate(space.cocycles) if j not in pivots]


def reference_normalized_class(ctx, z):
    """The class in ``ctx.space`` of a cocycle of either pipeline: one
    solve of [full coboundaries | normalized cocycles] x = z, in the full
    cochain basis, gives a normalized cocycle z' with z - z' a full
    coboundary, and z' is read in the normalized space."""
    field, (p, q) = ctx.algebra.field, z.bidegree
    full, norm = ctx.full_space(p, q), ctx.space(p, q)
    k = full.d_in.cols
    moved = [{full.index[norm.basis[i]]: c for i, c in vec.items()} for vec in norm.cocycles]
    m = SparseMatrix(field, len(full.basis), full.d_in.columns + moved)
    x = reference_solve(m, coords_of_cochain(z, full.basis, full.index))
    if x is None:
        raise DomainError("not a cocycle")
    rep = {}
    for j, c in x.items():
        if j >= k:
            rep = reference_add_into(field, rep, norm.cocycles[j - k].items(), c)
    return norm.class_of(cochain_from_coords(ctx.algebra, p, q, norm.basis, rep))


def reference_cochain_basis(a, p, q, normalized=True):
    """The (p, q) cochain basis: every argument tuple, in lexicographic
    order, paired with each output index of the degree it needs."""
    d = 1 - p - q
    out_by_degree = {}
    for k in range(a.dim):
        out_by_degree.setdefault(a.suspended_degree(k), []).append(k)
    letters = [i for i in range(a.dim) if not normalized or i != a.unit]
    basis = []
    for t in iproduct(letters, repeat=p):
        for k in out_by_degree.get(sum(a.suspended_degree(i) for i in t) + d, []):
            basis.append((t, k))
    return basis


def reference_add_into(field, dst, pairs, c=None):
    """``dst + sum(c * x)`` as a new dict, summed with plain Python
    arithmetic (reduced mod p at the end over F_p), zeros dropped."""
    totals = dict(dst)
    for k, x in pairs:
        totals[k] = totals.get(k, 0) + (x if c is None else c * x)
    if field.char:
        totals = {k: v % field.char for k, v in totals.items()}
    return {k: v for k, v in totals.items() if v != 0}


def reference_hoch_d(f):
    """Table of [m2, f] = m2{f} - (-1)^{|f|} f{m2}, evaluated on every input
    tuple directly from the product table of the algebra.

    Each composite carries the Koszul sign (-1)^{|g| (|u_1| + ... +
    |u_{i-1}|)} of the cochain module docstring, with suspended degrees, and
    m2(sx, sy) = (-1)^{|x|} s(xy).
    """
    a = f.algebra
    field = a.field
    p, d = f.arity, f.end_degree
    sdeg = a.suspended_degree

    def signed(c, odd):
        return field.neg(c) if odd else c

    def m2(x, y):
        return {k: signed(c, a.degrees[x] % 2) for k, c in a.product(x, y).items()}

    def value(args):
        return f.table.get(tuple(args), {})

    table = {}
    for u in iproduct(range(a.dim), repeat=p + 1):
        terms = []
        # m2 o_1 f: no sign, f sits in the first slot
        for k, c in value(u[:p]).items():
            terms += [(l, field.mul(c, e)) for l, e in m2(k, u[p]).items()]
        # m2 o_2 f: f passes u_1
        for k, c in value(u[1:]).items():
            terms += [(l, signed(field.mul(c, e), d * sdeg(u[0]) % 2))
                      for l, e in m2(u[0], k).items()]
        # -(-1)^{|f|} f o_i m2: m2 (degree -1) passes u_1 .. u_{i-1}
        for i in range(p):
            passed = sum(sdeg(j) for j in u[:i])
            for l, e in m2(u[i], u[i + 1]).items():
                for k, c in value(u[:i] + (l,) + u[i + 2:]).items():
                    terms.append((k, signed(field.mul(c, e), (d + 1 + passed) % 2)))
        vec = {}
        for k, c in terms:
            vec[k] = field.add(vec.get(k, field.zero()), c)
        vec = {k: c for k, c in vec.items() if not field.is_zero(c)}
        if vec:
            table[u] = vec
    return table


def reference_bracket(f, g):
    """The Gerstenhaber bracket f{g} - (-1)^{|f||g|} g{f} as two braces, for
    ``Cochain``s or ``PolyCochain``s: one composition per slot of f and of
    g, each built as its own cochain and added in."""
    field = f.algebra.field
    c = field.neg(field.one()) if (f.end_degree * g.end_degree) % 2 == 0 else None
    return brace(f, [g])._accumulate(brace(g, [f]), c)


def reference_bracket_hoch_d(f):
    """[m2, f] as the brace form of the bracket, m2{f} - (-1)^{|f|} f{m2},
    for a ``Cochain`` or a ``PolyCochain``."""
    return reference_bracket(f.multiplication(), f)


def reference_subst_affine(poly, i, q, k0):
    """``poly.subst_affine(i, q, k0)``: s_i + ... + s_{i+q-1} + k0 for s_i,
    every later variable moved q - 1 places up, with the powers of the
    affine form multiplied out by ``Poly.__mul__``."""
    field = poly.field
    nvars = poly.nvars + q - 1
    units = {(0,) * nvars: field.from_int(k0)}
    for j in range(i, i + q):
        units[tuple(int(t == j) for t in range(nvars))] = field.one()
    affine = Poly(field, nvars, units)
    powers = [Poly(field, nvars, {(0,) * nvars: field.one()})]
    acc = {}
    for exps, c in poly.terms.items():
        while len(powers) <= exps[i]:
            powers.append(powers[-1] * affine)
        moved = [0] * nvars
        for j, e in enumerate(exps):
            if j != i:
                moved[j if j < i else j + q - 1] = e
        field.add_into(acc, (
            (tuple(a + b for a, b in zip(moved, pe)), pc)
            for pe, pc in powers[exps[i]].terms.items()
        ), c)
    return Poly(field, nvars, acc)


def reference_find_witnesses(pairs, d_search):
    """``find_witnesses(pairs, d_search)`` with one single-term
    ``PolyCochain.d_walk`` per (key, monomial) column, whose rows are the
    (key, exponents) tuples themselves."""
    out = [None] * len(pairs)
    groups = {}
    for t, (lhs, rhs) in enumerate(pairs):
        z = lhs - rhs
        if z.is_zero():
            out[t] = z.zero_like(z.arity - 1, z.end_degree + 1), {"unknowns": 0}
        elif not z.arity:
            out[t] = None, {"unknowns": 0}
        else:
            groups.setdefault((z.algebra, z.arity, z.end_degree), []).append((t, z))
    for (alg, arity, end_degree), group in groups.items():
        field = alg.field
        arity_b, deg_b = arity - 1, end_degree + 1
        wvecs = _weight_vectors(alg)
        tcoords = [dict(z.coordinates()) for _, z in group]
        weights = [{_key_weight(wvecs, ckey) for (ckey, _) in tc} for tc in tcoords]
        columns, unknowns = [], []
        for key in _witness_basis_keys(alg, arity_b):
            weight = _key_weight(wvecs, key)
            if not any(weight in ws for ws in weights):
                continue
            for mono in _monomials(arity_b, d_search, field.char):
                col = PolyCochain.d_walk(alg, arity_b, deg_b, ((key, {mono: field.one()}),))
                if col:
                    columns.append(col)
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


def hh_dim(a, p, q, normalized=True):
    """dim HH^{p,q}(a), from the normalized or the full bar complex."""
    return CochainComplex(a, q, normalized).space(p).dim


def multiplication_predicate(a, m):
    """Membership test of the origin cell of page 2: is the (2, -1) cochain
    m a shifted associative multiplication, m{m} = 0?"""
    if (m.arity, m.end_degree) != (2, -1):
        raise DomainError("candidate must have arity 2 and map degree -1")
    return brace(m, [m]).is_zero()


def additivity_defect(qm, z1, z2):
    """The class qm(z1 + z2) - qm(z1) - qm(z2) in HH^{4,-2} of the quadratic
    page-2 differential ``qm`` (a ``spectral.QuadraticMap``); it is
    -[(z1 + z2)^2 - z1^2 - z2^2]."""
    field = qm.ctx.algebra.field
    minus_one = field.neg(field.one())
    coords = dict(qm.evaluate(z1 + z2).coords)
    for z in (z1, z2):
        field.add_into(coords, qm.evaluate(z).coords.items(), minus_one)
    return qm.ctx.space(4, -2).class_from_coords(coords)


def from_dense(field, data):
    """The ``SparseMatrix`` with the given rows, lists of scalars or ints."""
    cols = len(data[0]) if data else 0
    columns = [{i: field.from_int(row[j]) if isinstance(row[j], int) else row[j]
                for i, row in enumerate(data)} for j in range(cols)]
    return SparseMatrix(field, len(data), columns)


def identity_cochain(a):
    """The identity map of the suspended algebra, of bidegree (1, 0)."""
    return Cochain(a, 1, 0, {(i,): {i: a.field.one()} for i in range(a.dim)})


def zero_class(space):
    """The zero class of an ``HHSpace``."""
    return CohomClass(space, Cochain(space.algebra, space.p, 1 - space.p - space.q), {})
