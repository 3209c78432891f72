"""Exact scalars over Q and prime fields, and sparse linear algebra.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
and ints in ``[0, p)`` over a prime field.  A ``Field`` object supplies the
arithmetic, so vectors and matrices stay lightweight dicts.

All reduction routines pivot by column order first and row order second,
which makes every derived basis deterministic.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import gcd, isqrt

from .errors import ConfigurationError, InputError


# Miller-Rabin with the first 13 prime bases is exact below PRIME_BOUND, the
# least strong pseudoprime to all of them (Sorenson and Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic primality test, exact for ``n < PRIME_BOUND``."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# Python's default digit limit for int strings.  A rational scalar may carry
# a decimal exponent of at most this size (``Fraction("1e999999999")`` would
# expand the power of ten in full), and its numerator and denominator have
# fewer digits than this, so that the scalar can be written back out.
MAX_DIGITS = 4300
_DIGITS_BOUND = 10**MAX_DIGITS
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")


class Field:
    """Arithmetic context for exact scalars."""

    char: int

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def from_int(self, n: int):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a) -> bool:
        raise NotImplementedError

    def parse(self, text):
        """Parse a scalar from an int or a ``"num"``/``"num/den"`` string."""
        raise NotImplementedError

    def format(self, a):
        raise NotImplementedError

    def add_into(self, dst: dict, pairs, c=None) -> dict:
        """Add ``c * x`` (or ``x`` when ``c`` is None) into ``dst[k]`` for each
        ``(k, x)`` in ``pairs``, in place, dropping keys whose sum is zero;
        returns ``dst``.  The one accumulation loop of the package: every
        sparse vector keeps no stored zeros by going through it."""
        add, is_zero, zero = self.add, self.is_zero, self.zero()
        if c is None:
            for k, x in pairs:
                s = add(dst.get(k, zero), x)
                if is_zero(s):
                    dst.pop(k, None)
                else:
                    dst[k] = s
        elif not is_zero(c):
            mul = self.mul
            for k, x in pairs:
                s = add(dst.get(k, zero), mul(c, x))
                if is_zero(s):
                    dst.pop(k, None)
                else:
                    dst[k] = s
        return dst

    def __eq__(self, other):
        return type(self) is type(other) and self.char == getattr(other, "char", None)

    def __hash__(self):
        return hash((type(self).__name__, self.char))


class Rationals(Field):
    """The field Q; scalars are ``Fraction`` (always reduced, positive
    denominator)."""

    char = 0

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        return 1 / a

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        if isinstance(text, bool):
            raise InputError("expected a scalar, got a boolean")
        if isinstance(text, int):
            return Fraction(text)
        if isinstance(text, str):
            exponent = _EXPONENT.search(text)
            try:
                if exponent and abs(int(exponent.group(1))) > MAX_DIGITS:
                    raise ValueError(f"decimal exponent beyond {MAX_DIGITS}")
                value = Fraction(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad rational scalar {text!r}: {exc}")
            if max(abs(value.numerator), value.denominator) >= _DIGITS_BOUND:
                raise InputError(f"bad rational scalar {text!r}: more than {MAX_DIGITS} digits")
            return value
        raise InputError(f"bad rational scalar {text!r}")

    def format(self, a):
        return str(a)

    def __repr__(self):
        return "Q"


class PrimeField(Field):
    """The field F_p for a prime p; scalars are ints in ``[0, p)``."""

    def __init__(self, p: int):
        if p >= PRIME_BOUND:
            raise InputError(f"{p} is too large: primality is decided only below {PRIME_BOUND}")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p
        self.char = p

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def is_zero(self, a):
        return a % self.p == 0

    def parse(self, text):
        if isinstance(text, bool):
            raise InputError("expected a scalar, got a boolean")
        if isinstance(text, int):
            return text % self.p
        if isinstance(text, str):
            try:
                return int(text, 10) % self.p
            except ValueError as exc:
                raise InputError(f"bad scalar {text!r} for F_{self.p}: {exc}")
        raise InputError(f"bad scalar {text!r} for F_{self.p}")

    def format(self, a):
        return str(a % self.p)

    def __repr__(self):
        return f"F_{self.p}"


# Over Q, solve_columns eliminates modulo this prime first (2^61 - 1, so
# residues stay near one machine word) and lifts the result back to Q.
MODULUS = 2**61 - 1
_LIFT_BOUND = isqrt(MODULUS // 2)


def _residue(c: Fraction) -> int:
    """``c`` modulo ``MODULUS``; raises ``ZeroDivisionError`` if its
    denominator is divisible by ``MODULUS``."""
    den = c.denominator % MODULUS
    if den == 0:
        raise ZeroDivisionError(f"denominator of {c} is divisible by the modulus")
    if den == 1:
        return c.numerator % MODULUS
    return c.numerator * pow(den, -1, MODULUS) % MODULUS


def _rational_lift(a: int):
    """The fraction r/s with |r|, s <= sqrt(MODULUS / 2) that is congruent to
    ``a`` modulo ``MODULUS``, or ``None`` if there is none (Wang's rational
    reconstruction: the extended Euclidean algorithm stopped halfway)."""
    r0, r1 = MODULUS, a % MODULUS
    s0, s1 = 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND or gcd(r1, s1) != 1:
        return None
    return Fraction(r1, s1)


def field_from_json(doc) -> Field:
    """Build a field from ``{"type": "Q"}`` or ``{"type": "F", "p": 5}``."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise InputError("field block must be an object with a 'type'", "field")
    kind = doc["type"]
    if kind == "Q":
        return Rationals()
    if kind == "F":
        if "p" not in doc:
            raise InputError("prime field needs 'p'", "field.p")
        p = doc["p"]
        if not isinstance(p, int) or isinstance(p, bool):
            raise InputError(f"'p' must be an integer, got {p!r}", "field.p")
        try:
            return PrimeField(p)
        except InputError as exc:
            raise InputError(str(exc), "field.p")
    raise InputError(f"unknown field type {kind!r}", "field.type")


def field_to_json(field: Field):
    if field.char == 0:
        return {"type": "Q"}
    return {"type": "F", "p": field.char}


# -- sparse vectors: dict[index] -> nonzero scalar ---------------------------


def vec_add(field: Field, u: dict, v: dict) -> dict:
    return field.add_into(dict(u), v.items())


def vec_scale(field: Field, c, v: dict) -> dict:
    if field.is_zero(c):
        return {}
    return {i: field.mul(c, x) for i, x in v.items()}


def vec_combine(field: Field, terms) -> dict:
    """Sum of ``c * v`` over the pairs ``(c, v)`` in ``terms``."""
    out: dict = {}
    for c, v in terms:
        field.add_into(out, v.items(), c)
    return out


def vec_eq(field: Field, u: dict, v: dict) -> bool:
    return not field.add_into(dict(u), v.items(), field.neg(field.one()))


class SparseMatrix:
    """Immutable-by-convention sparse matrix over a single field.

    ``entries`` maps ``(row, col)`` to a nonzero scalar; zeros are never
    stored.
    """

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, rows: int, cols: int, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = {}
        if entries:
            for (i, j), c in entries.items():
                if not (0 <= i < rows and 0 <= j < cols):
                    raise ConfigurationError(f"entry ({i},{j}) out of range")
                if not field.is_zero(c):
                    self.entries[(i, j)] = c

    @classmethod
    def from_rows(cls, field: Field, rows_list, cols: int) -> "SparseMatrix":
        entries = {}
        for i, row in enumerate(rows_list):
            for j, c in row.items():
                if not field.is_zero(c):
                    entries[(i, j)] = c
        return cls(field, len(rows_list), cols, entries)

    @classmethod
    def from_columns(cls, field: Field, cols_list, rows: int) -> "SparseMatrix":
        entries = {}
        for j, col in enumerate(cols_list):
            for i, c in col.items():
                if not field.is_zero(c):
                    entries[(i, j)] = c
        return cls(field, rows, len(cols_list), entries)

    @classmethod
    def from_dense(cls, field: Field, data) -> "SparseMatrix":
        rows = len(data)
        cols = len(data[0]) if rows else 0
        entries = {}
        for i, row in enumerate(data):
            for j, c in enumerate(row):
                c = field.from_int(c) if isinstance(c, int) else c
                if not field.is_zero(c):
                    entries[(i, j)] = c
        return cls(field, rows, cols, entries)

    def column(self, j: int) -> dict:
        return {i: c for (i, c2), c in self.entries.items() if c2 == j}

    def _row_list(self):
        rows = [dict() for _ in range(self.rows)]
        for (i, j), c in self.entries.items():
            rows[i][j] = c
        return rows

    def apply(self, v: dict) -> dict:
        """Matrix times sparse column vector."""
        mul = self.field.mul
        return self.field.add_into(
            {}, ((i, mul(c, v[j])) for (i, j), c in self.entries.items() if j in v)
        )

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.field == other.field
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} nonzero)"


class Echelon(namedtuple("Echelon", "rank pivots reduced")):
    """Reduced row-echelon form of a matrix, with the row operations that
    produced it.

    Unpacks as ``(rank, pivots, reduced)``.  The recorded operations let
    :meth:`solve` answer any number of right-hand sides, and :meth:`kernel`
    reads the null space off ``reduced``, without eliminating again.
    """

    def __new__(cls, pivots, reduced: SparseMatrix, ops):
        self = super().__new__(cls, len(pivots), pivots, reduced)
        self.field = reduced.field
        # one (swapped-in row, scale or None, [(row, multiplier)]) per pivot
        self._ops = ops
        return self

    def kernel(self):
        """Basis of the right null space, one vector per free column, in free
        column order.  Each vector has a 1 at its free column and 0 at the
        other free columns."""
        field = self.field
        red = self.reduced
        pivot_set = set(self.pivots)
        basis = {j: {j: field.one()} for j in range(red.cols) if j not in pivot_set}
        for r, row in enumerate(red._row_list()[: self.rank]):
            for j, c in row.items():
                if j in basis:
                    basis[j][self.pivots[r]] = field.neg(c)
        return list(basis.values())

    def solve(self, b: dict):
        """Particular solution of ``m x = b`` with free variables set to zero,
        or ``None`` if the system is inconsistent."""
        field = self.field
        rows = self.reduced.rows
        y = [field.zero()] * rows
        for i, c in b.items():
            if not (0 <= i < rows):
                raise ConfigurationError(f"rhs index {i} out of range for {rows} rows")
            y[i] = c
        for r, (sel, inv, elim) in enumerate(self._ops):
            y[r], y[sel] = y[sel], y[r]
            v = y[r]
            if field.is_zero(v):
                continue
            if inv is not None:
                v = y[r] = field.mul(inv, v)
            for i, c in elim:
                y[i] = field.sub(y[i], field.mul(c, v))
        if not all(field.is_zero(c) for c in y[self.rank:]):
            return None
        return {col: c for col, c in zip(self.pivots, y) if not field.is_zero(c)}


def rref(m: SparseMatrix) -> Echelon:
    """Reduced row-echelon form, as an :class:`Echelon` that unpacks as
    ``(rank, pivots, reduced)`` where ``pivots`` lists pivot columns in
    increasing order.  Pivoting is by column order, then row order, so the
    output is unique and deterministic.

    ``col_rows[j]`` holds the rows with a nonzero in column ``j``, so each
    pivot search and elimination touches only those rows.  It is kept up to
    date on swaps, fill-in and cancellation, and dropped once its column is
    processed: rows at or below the pivot row are zero in every processed
    column, so later pivot rows never write there.
    """
    field = m.field
    add, mul, neg = field.add, field.mul, field.neg
    one = field.one()
    minus_one = neg(one)
    rows = m._row_list()
    col_rows = [set() for _ in range(m.cols)]
    for i, j in m.entries:
        col_rows[j].add(i)
    pivots = []
    ops = []
    pivot_row = 0
    for col in range(m.cols):
        hits = col_rows[col]
        sel = min((i for i in hits if i >= pivot_row), default=None)
        if sel is None:
            col_rows[col] = None
            continue
        if sel != pivot_row:
            upper, lower = rows[pivot_row], rows[sel]
            for j in upper.keys() - lower.keys():
                col_rows[j].discard(pivot_row)
                col_rows[j].add(sel)
            for j in lower.keys() - upper.keys():
                col_rows[j].discard(sel)
                col_rows[j].add(pivot_row)
            rows[pivot_row], rows[sel] = lower, upper
        col_rows[col] = None
        prow = rows[pivot_row]
        head = prow[col]
        inv = None
        if head != one:
            inv = field.inv(head)
            prow = rows[pivot_row] = {j: mul(inv, c) for j, c in prow.items()}
        rest = [(j, c) for j, c in prow.items() if j != col]
        negated = None
        hits.discard(pivot_row)
        elim = []
        for i in sorted(hits):
            row = rows[i]
            c = row.pop(col)
            elim.append((i, c))
            negc = neg(c)
            # multipliers of +-1 (every one over F_2 and F_3) need no products
            if negc == one:
                scaled = rest
            elif negc == minus_one:
                if negated is None:
                    negated = [(j, neg(pc)) for j, pc in rest]
                scaled = negated
            else:
                scaled = [(j, mul(negc, pc)) for j, pc in rest]
            for j, x in scaled:
                old = row.get(j)
                if old is None:
                    row[j] = x
                    col_rows[j].add(i)
                    continue
                s = add(old, x)
                if not s:  # scalars are normalized, so only zero is falsy
                    del row[j]
                    col_rows[j].discard(i)
                else:
                    row[j] = s
        pivots.append(col)
        ops.append((sel, inv, elim))
        pivot_row += 1
        if pivot_row == m.rows:
            break
    return Echelon(pivots, SparseMatrix.from_rows(field, rows, m.cols), ops)


def kernel_basis(m: SparseMatrix):
    """Basis of the right null space; see :meth:`Echelon.kernel`."""
    return rref(m).kernel()


def solve(m: SparseMatrix, b: dict):
    """Particular solution of ``m x = b``; see :meth:`Echelon.solve`."""
    return rref(m).solve(b)


def solve_columns(field: Field, columns, rhs: dict, extra_columns=()):
    """One solution of ``sum_j x_j col_j (+ sum_k y_k extra_k) = rhs`` by
    sparsity-guided elimination; deterministic (pivot row of least fill,
    ties by index).  Returns ``(x, y)`` as sparse dicts, or ``None`` if the
    system is inconsistent; raises ``ConfigurationError`` if the solution
    fails its exact check.

    Unlike :func:`solve`, free variables are zeroed relative to the
    elimination order, which favours sparse witnesses on large systems.

    Over Q the elimination runs modulo ``MODULUS`` first, and each
    coordinate is lifted by rational reconstruction.  The lift is returned
    only if it passes the exact check over Q.  If a denominator is divisible
    by ``MODULUS``, the reduced system is inconsistent, or a lift or the
    check fails, the system is eliminated exactly, so inconsistency over Q
    is decided only by exact elimination.
    """
    cols = list(columns) + list(extra_columns)
    n_main = len(columns)
    # canonical integer row ids, in sorted row-key order for determinism
    row_keys = sorted({r for col in cols for r in col} | set(rhs))
    row_id = {r: n for n, r in enumerate(row_keys)}
    x = None
    if field.char == 0:
        try:
            x = _eliminate(PrimeField(MODULUS), cols, rhs, row_id, _residue)
        except ZeroDivisionError:
            pass
        if x is not None:
            x = {j: _rational_lift(v) for j, v in x.items()}
            if None in x.values() or not _satisfies(field, cols, rhs, x):
                x = None
    if x is None:
        x = _eliminate(field, cols, rhs, row_id)
        if x is None:
            return None
        if not _satisfies(field, cols, rhs, x):
            raise ConfigurationError("solve_columns: solution failed its exact check")
    main = {j: c for j, c in x.items() if j < n_main}
    extra = {j - n_main: c for j, c in x.items() if j >= n_main}
    return main, extra


def _satisfies(field: Field, cols, rhs: dict, x: dict) -> bool:
    """Exact check that ``sum_j x_j cols[j] == rhs``."""
    check: dict = {}
    for j, c in x.items():
        field.add_into(check, cols[j].items(), c)
    return check == {r: c for r, c in rhs.items() if not field.is_zero(c)}


def _eliminate(field: Field, cols, rhs: dict, row_id: dict, load=None):
    """The least-fill elimination of :func:`solve_columns` over ``field``.
    ``load`` maps each input scalar into ``field`` as it is read.  Returns
    the solution as a sparse dict over column indices, or ``None`` if the
    system is inconsistent over ``field``."""
    # imported here, not at the top: loading its extension module would add
    # to the start-up of every command, and only the witness search gets here
    import heapq

    row_items = {n: {} for n in range(len(row_id))}
    col_rows = [set() for _ in cols]
    for j, col in enumerate(cols):
        for r, c in col.items():
            if load is not None:
                c = load(c)
            if field.is_zero(c):
                continue
            n = row_id[r]
            row_items[n][j] = c
            col_rows[j].add(n)
    b = {}
    for r, c in rhs.items():
        if load is not None:
            c = load(c)
        if not field.is_zero(c):
            b[row_id[r]] = c
    used_rows = set()
    assignments = []
    heap = [(len(cs), r) for r, cs in row_items.items() if cs]
    heapq.heapify(heap)
    while heap:
        size, r = heapq.heappop(heap)
        if r in used_rows:
            continue
        live = row_items[r]
        if not live or len(live) != size:
            if live:
                heapq.heappush(heap, (len(live), r))
            continue
        j = min(live)
        used_rows.add(r)
        assignments.append((j, r))
        inv = field.inv(live[j])
        prow = {jj: field.mul(inv, c) for jj, c in live.items()}
        row_items[r] = prow
        pval = field.mul(inv, b.get(r, field.zero()))
        if field.is_zero(pval):
            b.pop(r, None)
        else:
            b[r] = pval
        for jj in prow:
            if jj != j:
                col_rows[jj].add(r)
        touched = [rr for rr in col_rows[j] if rr != r and rr not in used_rows]
        for rr in touched:
            target = row_items[rr]
            c = target.get(j)
            if c is None:
                continue
            for jj, pc in prow.items():
                s = field.sub(target.get(jj, field.zero()), field.mul(c, pc))
                if field.is_zero(s):
                    target.pop(jj, None)
                else:
                    target[jj] = s
                    col_rows[jj].add(rr)
            bv = field.sub(b.get(rr, field.zero()), field.mul(c, pval))
            if field.is_zero(bv):
                b.pop(rr, None)
            else:
                b[rr] = bv
            if target:
                heapq.heappush(heap, (len(target), rr))
    # any remaining rhs on unused rows means inconsistency
    for r, c in b.items():
        if r not in used_rows and not field.is_zero(c):
            return None
    x: dict = {}
    for j, r in reversed(assignments):
        acc = b.get(r, field.zero())
        for jj, c in row_items[r].items():
            if jj == j:
                continue
            xv = x.get(jj)
            if xv is not None:
                acc = field.sub(acc, field.mul(c, xv))
        if not field.is_zero(acc):
            x[j] = acc
    return x
