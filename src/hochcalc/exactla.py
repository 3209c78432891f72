"""Exact scalars over Q and prime fields, and sparse linear algebra.

Scalars are plain Python values.  Over the rationals a scalar is an ``int``
when it is integral and a ``fractions.Fraction`` otherwise, never a float;
over a prime field it is an int in ``[0, p)``.  A ``Field`` object supplies the
arithmetic, so vectors and matrices stay lightweight dicts.

Elimination takes columns in order and, for each, the sparsest row with an
entry there as pivot row.  The pivot columns, the reduced row-echelon form
and every basis and solution read off it are unique, so none of them
depends on the rows chosen or on their order.
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
    """The field Q; a scalar is an ``int`` when it is integral and a reduced
    ``Fraction`` with positive denominator otherwise, never a float.

    Ints keep the common integral case off the pure-Python ``Fraction``
    methods.  ``+``, ``-`` and ``*`` need no conversion: on ints they give
    ints, and on a ``Fraction`` an exact ``Fraction``, which may be integral
    but compares, hashes and prints like the equal int.  Only dividing two
    ints would give a float, so :meth:`inv` divides a ``Fraction``."""

    char = 0

    def zero(self):
        return 0

    def one(self):
        return 1

    def from_int(self, n):
        return n

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        r = Fraction(1) / a
        return r.numerator if r.denominator == 1 else r

    def is_zero(self, a):
        return a == 0

    def parse(self, text):
        if isinstance(text, bool):
            raise InputError("expected a scalar, got a boolean")
        if isinstance(text, int):
            return int(text)
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
            return value.numerator if value.denominator == 1 else value
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


def _residue(c) -> int:
    """``c`` modulo ``MODULUS``; raises ``ZeroDivisionError`` if its
    denominator is divisible by ``MODULUS``."""
    if isinstance(c, int):
        return c % MODULUS
    den = c.denominator % MODULUS
    if den == 0:
        raise ZeroDivisionError(f"denominator of {c} is divisible by the modulus")
    if den == 1:
        return c.numerator % MODULUS
    return c.numerator * pow(den, -1, MODULUS) % MODULUS


def _rational_lift(a: int):
    """The fraction r/s with |r|, s <= sqrt(MODULUS / 2) that is congruent to
    ``a`` modulo ``MODULUS``, as an int when s = 1, or ``None`` if there is
    none (Wang's rational reconstruction: the extended Euclidean algorithm
    stopped halfway)."""
    r0, r1 = MODULUS, a % MODULUS
    s0, s1 = 0, 1
    while r1 > _LIFT_BOUND:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > _LIFT_BOUND or gcd(r1, s1) != 1:
        return None
    if s1 in (1, -1):
        return r1 * s1
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
        entries = {(i, j): c for i, row in enumerate(rows_list) for j, c in row.items()}
        return cls(field, len(rows_list), cols, entries)

    @classmethod
    def from_columns(cls, field: Field, cols_list, rows: int) -> "SparseMatrix":
        entries = {(i, j): c for j, col in enumerate(cols_list) for i, c in col.items()}
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

    def __new__(cls, pivots, reduced: SparseMatrix, forward, back):
        self = super().__new__(cls, len(pivots), pivots, reduced)
        self.field = reduced.field
        # per pivot, in pivot order: (its row, scale or None, rows,
        # multipliers) of the forward pass, and (pivot indices, multipliers)
        # of the back substitution, in parallel lists
        self._forward = forward
        self._back = back
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
        sub, mul, is_zero, zero = field.sub, field.mul, field.is_zero, field.zero()
        rows = self.reduced.rows
        y = [zero] * rows
        for i, c in b.items():
            if not (0 <= i < rows):
                raise ConfigurationError(f"rhs index {i} out of range for {rows} rows")
            y[i] = c
        z = []
        for at, inv, targets, coefs in self._forward:
            v = y[at]
            y[at] = zero
            if not is_zero(v):
                if inv is not None:
                    v = mul(inv, v)
                for i, c in zip(targets, coefs):
                    y[i] = sub(y[i], mul(c, v))
            z.append(v)
        if not all(is_zero(c) for c in y):
            return None
        for r in range(len(z) - 1, -1, -1):
            v = z[r]
            if not is_zero(v):
                targets, coefs = self._back[r]
                for k, c in zip(targets, coefs):
                    z[k] = sub(z[k], mul(c, v))
        return {col: c for col, c in zip(self.pivots, z) if not is_zero(c)}


def rref(m: SparseMatrix) -> Echelon:
    """Reduced row-echelon form, as an :class:`Echelon` that unpacks as
    ``(rank, pivots, reduced)`` where ``pivots`` lists pivot columns in
    increasing order and ``reduced`` keeps the shape of ``m``, its zero rows
    last.

    :func:`_reduce` eliminates forward with sparsest-row pivots, and
    :func:`_back_substitute` clears the entries above each pivot, from the
    last pivot up.  The reduced row-echelon form is unique, so the output
    depends neither on the pivot rows chosen nor on the order of the rows.
    """
    field = m.field
    rows = m._row_list()
    forward = []
    pivots = _reduce(field, rows, m.cols, forward)
    back = _back_substitute(field, rows, pivots)
    rows += [{} for _ in range(m.rows - len(pivots))]
    return Echelon(pivots, SparseMatrix.from_rows(field, rows, m.cols), forward, back)


def _reduce(field: Field, rows, ncols: int, ops=None):
    """Bring the row dicts ``rows`` (column index to nonzero scalar, over
    ``ncols`` columns) to row-echelon form by forward elimination in place,
    and return the pivot columns.  ``rows`` ends cut to the pivot rows, with
    ``rows[r]`` the pivot row of ``pivots[r]``, scaled to 1 there.  If
    ``ops`` is a list, one ``(row, scale or None, rows, multipliers)``
    record per pivot is appended to it, for :meth:`Echelon.solve` to replay.

    Columns are taken in order.  The pivot row of a column is the sparsest
    unused row with an entry in it (least index on ties); rows are never
    swapped.  It is eliminated from the other unused rows and then is used.
    ``col_rows[j]`` holds the unused rows with a nonzero in column ``j``, so
    each pivot search and elimination touches only those rows.  It is kept
    up to date on fill-in and cancellation, and dropped once its column is
    processed: unused rows are zero in every processed column, so later
    pivot rows never write there.
    """
    mul, one = field.mul, field.one()
    col_rows = [set() for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    pivots = []
    used = []
    for col in range(ncols):
        if len(used) == len(rows):
            break
        hits = col_rows[col]
        col_rows[col] = None
        if not hits:
            continue
        # the least (number of nonzeros, index) over the hits, compared in C
        at = min(zip(map(len, map(rows.__getitem__, hits)), hits))[1]
        hits.discard(at)
        prow = rows[at]
        head = prow[col]
        inv = None
        if head != one:
            inv = field.inv(head)
            prow = rows[at] = {j: mul(inv, c) for j, c in prow.items()}
        rest = [(j, c) for j, c in prow.items() if j != col]
        for j, _ in rest:
            col_rows[j].discard(at)
        if ops is None:
            _eliminate(field, rows, hits, col, rest, col_rows, False)
        else:
            targets = list(hits)
            coefs = _eliminate(field, rows, targets, col, rest, col_rows, True)
            ops.append((at, inv, targets, coefs))
        pivots.append(col)
        used.append(at)
    rows[:] = [rows[i] for i in used]
    return pivots


def _back_substitute(field: Field, rows, pivots):
    """Bring the echelon form left by :func:`_reduce` to reduced form in
    place: from the last pivot up, clear the entries above each pivot.
    Returns one ``(pivot indices, multipliers)`` pair per pivot, for
    :meth:`Echelon.solve` to replay.

    A pivot row, once its own turn has come, has entries only at its pivot
    and in free columns, so clearing it from the rows above never fills in
    a pivot column, and the rows above each pivot are read off the echelon
    form once."""
    index = {col: r for r, col in enumerate(pivots)}
    above = [[] for _ in pivots]
    for k, row in enumerate(rows):
        for j in row:
            r = index.get(j)
            if r is not None and r != k:
                above[r].append(k)
    back = [None] * len(pivots)
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        rest = [(j, c) for j, c in rows[r].items() if j != col]
        back[r] = (above[r], _eliminate(field, rows, above[r], col, rest, None, True))
    return back


def _eliminate(field: Field, rows, targets, col, rest, col_rows, record):
    """Subtract from each row ``rows[i]``, ``i`` in ``targets``, its entry at
    ``col`` times the pivot row whose entry at ``col`` is 1 and whose other
    entries are ``rest``, so that the row loses that entry.  ``col_rows``,
    unless None, is kept up to date on fill-in and cancellation.  Returns
    the entries, in the order of ``targets``, if ``record``, else None.  The one elimination
    loop, of the forward pass and of the back substitution."""
    add, mul, neg = field.add, field.mul, field.neg
    one = field.one()
    minus_one = neg(one)
    negated = None
    coefs = [] if record else None
    for i in targets:
        row = rows[i]
        c = row.pop(col)
        if record:
            coefs.append(c)
        # entries of +-1 (every one over F_2 and F_3) need no products
        if c == minus_one:
            scaled = rest
        elif c == one:
            if negated is None:
                negated = [(j, neg(pc)) for j, pc in rest]
            scaled = negated
        else:
            negc = neg(c)
            scaled = [(j, mul(negc, pc)) for j, pc in rest]
        # scalars are normalized, so only zero is falsy
        if col_rows is None:
            for j, x in scaled:
                old = row.get(j)
                if old is None:
                    row[j] = x
                else:
                    s = add(old, x)
                    if s:
                        row[j] = s
                    else:
                        del row[j]
        else:
            for j, x in scaled:
                old = row.get(j)
                if old is None:
                    row[j] = x
                    col_rows[j].add(i)
                    continue
                s = add(old, x)
                if s:
                    row[j] = s
                else:
                    del row[j]
                    col_rows[j].discard(i)
    return coefs


def solve_columns(field: Field, columns, rhs: dict, extra_columns=()):
    """One solution of ``sum_j x_j col_j (+ sum_k y_k extra_k) = rhs``.
    Returns ``(x, y)`` as sparse dicts, or ``None`` if the system is
    inconsistent; raises ``ConfigurationError`` if the solution fails its
    exact check.

    The augmented matrix, with the columns sorted by (number of nonzeros,
    index) and the right-hand side last, is eliminated forward by
    :func:`_reduce` and back-substituted on its last column.  Free variables
    are zeroed in that order, which favours sparse witnesses on large
    systems.  The answer is unique: it depends neither on the pivot rows
    chosen nor on the row keys, which need only be hashable.

    Over Q the elimination runs modulo ``MODULUS`` first, and each
    coordinate is lifted by rational reconstruction.  The lift is returned
    only if it passes the exact check over Q.  If a denominator is divisible
    by ``MODULUS``, the reduced system is inconsistent, or a lift or the
    check fails, the system is eliminated exactly, so inconsistency over Q
    is decided only by exact elimination.
    """
    cols = list(columns) + list(extra_columns)
    n_main = len(columns)
    # integer row ids in first-seen order
    row_id = {r: n for n, r in enumerate(dict.fromkeys(r for col in cols + [rhs] for r in col))}
    order = sorted(range(len(cols)), key=lambda j: (len(cols[j]), j))
    x = None
    if field.char == 0:
        try:
            x = _solve_reduced(PrimeField(MODULUS), cols, order, rhs, row_id, _residue)
        except ZeroDivisionError:
            pass
        if x is not None:
            x = {j: _rational_lift(v) for j, v in x.items()}
            if None in x.values() or not _satisfies(field, cols, rhs, x):
                x = None
    if x is None:
        x = _solve_reduced(field, cols, order, rhs, row_id)
        if x is None:
            return None
        if not _satisfies(field, cols, rhs, x):
            raise ConfigurationError("solve_columns: solution failed its exact check")
    main = {j: c for j, c in x.items() if j < n_main}
    extra = {j - n_main: c for j, c in x.items() if j >= n_main}
    return main, extra


def _solve_reduced(field: Field, cols, order, rhs: dict, row_id: dict, load=None):
    """Eliminate ``[cols[order[0]] ... cols[order[-1]] | rhs]`` over ``field``
    and back-substitute, returning a sparse dict over the original column
    indices, or ``None`` if the system is inconsistent over ``field``.
    ``load`` maps each input scalar into ``field`` as it is read."""
    n = len(order)
    rows = [{} for _ in row_id]
    for k, col in enumerate([cols[j] for j in order] + [rhs]):
        for r, c in col.items():
            if load is not None:
                c = load(c)
            if not field.is_zero(c):
                rows[row_id[r]][k] = c
    pivots = _reduce(field, rows, n + 1)
    if pivots and pivots[-1] == n:
        return None
    x = {}
    for k, row in zip(reversed(pivots), reversed(rows)):
        v = row.get(n, field.zero())
        for j in row.keys() & x.keys():
            v = field.sub(v, field.mul(row[j], x[j]))
        if not field.is_zero(v):
            x[k] = v
    return {order[k]: x[k] for k in pivots if k in x}


def _satisfies(field: Field, cols, rhs: dict, x: dict) -> bool:
    """Exact check that ``sum_j x_j cols[j] == rhs``."""
    check: dict = {}
    for j, c in x.items():
        field.add_into(check, cols[j].items(), c)
    return check == {r: c for r, c in rhs.items() if not field.is_zero(c)}
