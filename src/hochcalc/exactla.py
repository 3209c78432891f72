"""Exact scalars over Q and prime fields, and sparse linear algebra.

Scalars are plain Python values.  Over the rationals a scalar is an ``int``
or a ``fractions.Fraction``, never a float: parsing and inversion give an int
when the value is integral, but arithmetic on a ``Fraction`` may keep an
integral one, which compares, hashes and prints like the equal int.  Over a
prime field a scalar is an int in ``[0, p)``.  A ``Field`` object supplies the
arithmetic, so vectors and matrices stay lightweight dicts.

Stored scalars are normalized: field operations return them so, and
constructors reduce a caller's scalars with ``from_int``.  So zero is the one
falsy scalar, and :meth:`Field.add_into` keeps or drops a sum by its truth.

One elimination engine serves every factorization and every solve:
:func:`_reduce` eliminates forward, taking columns in order and, for each,
the sparsest row with an entry there as pivot row, and
:func:`_back_substitute` clears the entries above each pivot.  The pivot
columns, the reduced row-echelon form and every basis and solution read off
it are unique, so none of them depends on the rows chosen or on their order.
A factorization (``rref``) is that echelon form, kept as its pivot rows.
The one solve, :func:`solve_columns_many`, eliminates the augmented matrix
``[columns | b ...]`` once, with the columns in the order its caller gives
them (over Q modulo a prime first), reads its answers off the pivot rows,
checks each exactly and keeps nothing.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from functools import cached_property
from itertools import chain
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
        returns ``dst``.  The one accumulation loop of the package, which
        only the forward pass of :func:`_eliminate` fuses with its own
        bookkeeping.  A new key takes its term as it is, a zero term skipped;
        normalized scalars are falsy only at zero."""
        if c is not None:
            mul = self.mul
            pairs = ((k, mul(c, x)) for k, x in pairs)
        add, get = self.add, dst.get
        for k, x in pairs:
            old = get(k)
            if old is None:
                if x:
                    dst[k] = x
                continue
            s = add(old, x)
            if s:
                dst[k] = s
            else:
                del dst[k]
        return dst

    def __eq__(self, other):
        return type(self) is type(other) and self.char == getattr(other, "char", None)

    # computed once: the cache of laurent._expansion hashes its field per lookup
    _hash = cached_property(lambda self: hash((type(self).__name__, self.char)))

    def __hash__(self):
        return self._hash


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


# Over Q, solve_columns_many eliminates modulo this prime first (2^61 - 1, so
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
                    self.entries[(i, j)] = field.from_int(c)

    @classmethod
    def from_rows(cls, field: Field, rows_list, cols: int) -> "SparseMatrix":
        entries = {(i, j): c for i, row in enumerate(rows_list) for j, c in row.items()}
        return cls(field, len(rows_list), cols, entries)

    @classmethod
    def from_columns(cls, field: Field, cols_list, rows: int) -> "SparseMatrix":
        entries = {(i, j): c for j, col in enumerate(cols_list) for i, c in col.items()}
        return cls(field, rows, len(cols_list), entries)

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


class Echelon(namedtuple("Echelon", "rank pivots rows field cols")):
    """Reduced row-echelon form of a matrix with ``cols`` columns over
    ``field``: its rank, its pivot columns in increasing order and its
    pivot rows, ``rows[r]`` a dict that is 1 at ``pivots[r]`` and otherwise
    lives on the free columns.  It records no row operations;
    :meth:`kernel` reads the null space off ``rows``, and systems are solved
    by :func:`solve_columns_many`."""

    __slots__ = ()

    def kernel(self):
        """Basis of the right null space, one vector per free column, in free
        column order.  Each vector has a 1 at its free column and 0 at the
        other free columns."""
        field = self.field
        pivot_set = set(self.pivots)
        basis = {j: {j: field.one()} for j in range(self.cols) if j not in pivot_set}
        for col, row in zip(self.pivots, self.rows):
            for j, c in row.items():
                if j in basis:
                    basis[j][col] = field.neg(c)
        return list(basis.values())


def rref(m: SparseMatrix) -> Echelon:
    """Reduced row-echelon form, as an :class:`Echelon` that unpacks as
    ``(rank, pivots, rows, field, cols)``.

    :func:`_reduce` eliminates forward with sparsest-row pivots, and
    :func:`_back_substitute` clears the entries above each pivot, from the
    last pivot up.  The reduced row-echelon form is unique, so the output
    depends neither on the pivot rows chosen nor on the order of the rows.
    """
    field = m.field
    rows = m._row_list()
    pivots = _reduce(field, rows, m.cols)
    _back_substitute(field, rows, pivots)
    return Echelon(len(pivots), pivots, rows, field, m.cols)


def _reduce(field: Field, rows, ncols: int):
    """Bring the row dicts ``rows`` (column index to nonzero scalar, over
    ``ncols`` columns) to row-echelon form by forward elimination in place,
    and return the pivot columns.  ``rows`` ends cut to the pivot rows, with
    ``rows[r]`` the pivot row of ``pivots[r]``, scaled to 1 there.

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
        if head != one:
            inv = field.inv(head)
            prow = rows[at] = {j: mul(inv, c) for j, c in prow.items()}
        rest = [(j, c) for j, c in prow.items() if j != col]
        for j, _ in rest:
            col_rows[j].discard(at)
        _eliminate(field, rows, hits, col, rest, col_rows)
        pivots.append(col)
        used.append(at)
    rows[:] = [rows[i] for i in used]
    return pivots


def _back_substitute(field: Field, rows, pivots):
    """Bring the echelon form left by :func:`_reduce` to reduced form in
    place: from the last pivot up, clear the entries above each pivot.

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
    for r in range(len(pivots) - 1, -1, -1):
        col = pivots[r]
        rest = [(j, c) for j, c in rows[r].items() if j != col]
        _eliminate(field, rows, above[r], col, rest, None)


def _eliminate(field: Field, rows, targets, col, rest, col_rows):
    """Subtract from each row ``rows[i]``, ``i`` in ``targets``, its entry at
    ``col`` times the pivot row whose entry at ``col`` is 1 and whose other
    entries are ``rest``, so that the row loses that entry.  The one
    elimination loop, of the forward pass and of the back substitution
    (``col_rows`` None), which adds through :meth:`Field.add_into`.  The
    forward pass fuses that loop with keeping ``col_rows`` exact on fill-in
    and cancellation; a superset filtered at pivot time was slower."""
    add, mul, neg = field.add, field.mul, field.neg
    one = field.one()
    minus_one = neg(one)
    negated = None
    for i in targets:
        row = rows[i]
        c = row.pop(col)
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
        if col_rows is None:
            field.add_into(row, scaled)
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


def solve_columns_many(field: Field, columns, rhss):
    """One solution of ``sum_j x_j columns[j] = rhs`` for each right-hand
    side in ``rhss``, by one elimination: a list with ``x`` as a sparse dict
    or ``None`` (the system is inconsistent) per right-hand side.  Raises
    ``ConfigurationError`` if a solution fails its exact check.

    The augmented matrix, the columns in the order given and the right-hand
    sides last, is eliminated by :func:`_solve_reduced`.  Each answer is the
    solution whose free variables, in that column order, are all zero: a
    caller that wants sparse solutions passes its sparse columns first.  It
    depends neither on the pivot rows chosen, nor on the row keys (which
    need only be hashable), nor on the other right-hand sides.  Each
    elimination loads its own row dicts (:func:`_load_rows`), and the index
    from row key to row lives only while they are loaded: nothing keyed by
    the caller's rows survives into elimination.

    Over Q the elimination runs modulo ``MODULUS`` first, and a lift of each
    solution by rational reconstruction is kept if it passes the exact
    check.  The right-hand sides this leaves unsettled (a denominator
    divisible by ``MODULUS``, no solution modulo ``MODULUS``, a failed lift
    or check) are eliminated exactly, in one elimination, so inconsistency
    over Q is decided only by exact elimination.  A kept lift is the answer
    of exact elimination unless reducing modulo ``MODULUS`` moves a pivot
    column, which takes a minor divisible by ``MODULUS``.
    """
    cols, rhss = list(columns), list(rhss)
    xs = [None] * len(rhss)
    if field.char == 0:
        try:
            xs = _solve_reduced(PrimeField(MODULUS), cols, rhss, _residue)
        except ZeroDivisionError:
            pass
        xs = [None if x is None else {j: _rational_lift(v) for j, v in x.items()} for x in xs]
        xs = [x if x is not None and None not in x.values() and _satisfies(field, cols, b, x)
              else None for x, b in zip(xs, rhss)]
    todo = [k for k, x in enumerate(xs) if x is None]
    if todo:
        for k, x in zip(todo, _solve_reduced(field, cols, [rhss[k] for k in todo])):
            if x is not None and not _satisfies(field, cols, rhss[k], x):
                raise ConfigurationError("solve_columns_many: solution failed its exact check")
            xs[k] = x
    return xs


def _solve_reduced(field: Field, cols, rhss, load=None):
    """Eliminate ``[cols[0] ... cols[-1] | rhss[0] ...]`` over ``field``
    once: per right-hand side, a sparse dict over the column indices, or
    ``None`` if it is inconsistent over ``field``.  ``load`` maps each
    scalar into ``field``.  The row dicts come from :func:`_load_rows`, and
    no index from the caller's row keys is alive during elimination.

    Right-hand side ``k`` is consistent iff its column ``n + k`` is no pivot
    and no pivot row of an earlier right-hand side has an entry there.  The
    pivot rows of the columns, cut to the pivot and right-hand-side columns
    (free variables are zero), are back-substituted by
    :func:`_back_substitute`; each consistent solution is then read off
    them, the one it has alone."""
    n = len(cols)
    rows = _load_rows(cols, rhss, load)
    pivots = _reduce(field, rows, n + len(rhss))
    rank = sum(1 for k in pivots if k < n)
    pivots = pivots[:rank]
    keep = set(pivots)
    top = [{j: c for j, c in row.items() if j >= n or j in keep} for row in rows[:rank]]
    _back_substitute(field, top, pivots)
    out = []
    for col in range(n, n + len(rhss)):
        if any(col in row for row in rows[rank:]):
            out.append(None)
        else:
            out.append({k: row[col] for k, row in zip(pivots, top) if col in row})
    return out


def _load_rows(cols, rhss, load):
    """The rows of ``[cols | rhss]``, in one pass, as dicts from column
    index to nonzero scalar (each mapped by ``load`` unless it is None).

    Rows are numbered as first seen over the columns from last to first,
    then over the right-hand sides.  The numbering only breaks pivot ties,
    which then go to rows of later columns; on section8's witness searches
    (columns sorted by nonzeros) that takes 5-10 % fewer field operations.
    The index from row key to row dies on return.  The caller's scalars and
    those ``load`` gives are normalized, so a zero is dropped by its truth."""
    n = len(cols)
    ids: dict = {}
    rows = []
    for k, col in chain(zip(range(n - 1, -1, -1), reversed(cols)), enumerate(rhss, n)):
        for r, c in col.items():
            i = ids.get(r)
            if i is None:
                i = ids[r] = len(rows)
                rows.append({})
            if load is not None:
                c = load(c)
            if c:
                rows[i][k] = c
    return rows


def _satisfies(field: Field, cols, rhs: dict, x: dict) -> bool:
    """Exact check that ``sum_j x_j cols[j] == rhs``."""
    check: dict = {}
    for j, c in x.items():
        field.add_into(check, cols[j].items(), c)
    return check == {r: c for r, c in rhs.items() if not field.is_zero(c)}
