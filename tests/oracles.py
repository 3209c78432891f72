"""Reference implementations the tests compare the library against.

They redo each computation the direct way: a solve reduces the augmented
matrix [m | b] from scratch, and the cohomology basis solves every
coboundary in the cocycle basis separately.
"""

from hochcalc.exactla import SparseMatrix, rref


def reference_solve(m, b):
    """Particular solution of ``m x = b`` with free variables zero, by
    reducing the augmented matrix, or ``None`` if inconsistent."""
    aug_entries = dict(m.entries)
    for i, c in b.items():
        if not m.field.is_zero(c):
            aug_entries[(i, m.cols)] = c
    aug = SparseMatrix(m.field, m.rows, m.cols + 1, aug_entries)
    _, pivots, red = rref(aug)
    if pivots and pivots[-1] == m.cols:
        return None
    rows = red._row_list()
    return {c: rows[r][m.cols] for r, c in enumerate(pivots) if m.cols in rows[r]}


def reference_kernel(m):
    """Kernel basis read off the reduced matrix column by column."""
    field = m.field
    rank, pivots, red = rref(m)
    rows = red._row_list()
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
    in_cocycles = SparseMatrix.from_columns(field, space.cocycles, len(space.basis))
    cob_in_k = []
    for b in space.coboundaries:
        coords = reference_solve(in_cocycles, b)
        assert coords is not None, "coboundary outside the cocycle space"
        cob_in_k.append(coords)
    _, pivots, _ = rref(SparseMatrix.from_rows(field, cob_in_k, len(space.cocycles)))
    return [v for j, v in enumerate(space.cocycles) if j not in pivots]
