"""Hochschild cochains on the suspension of a graded algebra.

A cochain of arity p is a sparse homogeneous p-multilinear map on the
suspended algebra, stored as a table from basis tuples to sparse output
vectors.  ``LinearCochain`` adds and scales such tables, and those of the
``PolyCochain`` of :mod:`hochcalc.laurent` (term dicts), by one in-place
accumulation.  Compositions evaluate with the Koszul sign

    (f o_i g)(u_1, ..., u_{p+q-1})
        = (-1)^{|g| (|u_1| + ... + |u_{i-1}|)}
          f(u_1, ..., g(u_i, ..., u_{i+q-1}), ...),

where degrees are suspended degrees and |g| is the degree of g as a map.
Braces expand as sums of iterated compositions over strictly increasing
insertion positions; all further signs arise from this single convention.

Linear algebra sees a cochain in one flat format, the coordinates
``{(key, sub): c}`` of its table ``{key: {sub: c}}``: a tuple and an
output basis index for a ``Cochain``, a component key and a monomial for
a ``PolyCochain``.  ``LinearCochain.coordinates`` reads them off a
table, :func:`_table` groups them back into one, and :func:`_indexed`
numbers them by an enumerated basis.

The bidegree of an arity-p cochain of map degree d is (p, q) with
q = 1 - p - d; the Hochschild differential [m2, -] moves (p, q) to
(p+1, q).  One walk, ``_walk``, adds the terms of the Gerstenhaber bracket
[m, f] = m{f} - (-1)^{|m||f|} f{m} entry by entry of f into flat
coordinates, reading m's terms off lookups by the input at each slot and
by output.  With u the inputs of m and v those of f, they
carry the signs

    m o_j f:   (-1)^{|f| (|u_1| + ... + |u_{j-1}|)},
    f o_i m:   -(-1)^{|m||f|} (-1)^{|m| (|v_1| + ... + |v_{i-1}|)}.

[m2, -] is the case m = m2, of degree |m| = -1, with m2's lookups cached
on the algebra (``Cochain.d_walk``, the columns of a differential matrix).
The brace form of the bracket is the reference in the test suite's
``oracles.py``; here it serves only the ``PolyCochain`` of
:mod:`hochcalc.laurent`, whose own ``d_walk`` covers m2 alone.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import GradedAlgebra, require_valid
from .errors import ConfigurationError, DomainError


def _add_at(field, table: dict, key, pairs, c=None):
    """``field.add_into`` in place on the sparse entry ``table[key]``,
    created when missing and dropped when it ends empty."""
    if not field.add_into(table.setdefault(key, {}), pairs, c):
        del table[key]


class LinearCochain:
    """Linear structure shared by finite and polynomially-indexed cochains,
    which is all the brace calculus below needs besides ``compose_at``.

    ``table`` maps keys to nonzero entries, each a sparse dict of its own
    (a ``Cochain`` output vector, a ``PolyCochain`` polynomial's terms), so
    every sum and scaling is one accumulation, :func:`_add_at`, into a table
    the result owns.  No two cochains share an entry.
    """

    __slots__ = ("algebra", "arity", "end_degree", "table")

    def __init__(self, algebra, arity: int, end_degree: int):
        self.algebra = algebra
        self.arity = arity
        self.end_degree = end_degree
        self.table = {}

    @property
    def bidegree(self):
        return (self.arity, 1 - self.arity - self.end_degree)

    def zero_like(self, arity, end_degree):
        return type(self)(self.algebra, arity, end_degree)

    def is_zero(self) -> bool:
        return not self.table

    def coordinates(self):
        """The flat coordinates ``((key, sub), c)`` of the table, entry by
        entry in table order."""
        return (((key, sub), c) for key, entry in self.table.items() for sub, c in entry.items())

    def _check_compatible(self, other):
        if self.algebra is not other.algebra:
            raise ConfigurationError("cochains over different algebras")
        if (self.arity, self.end_degree) != (other.arity, other.end_degree):
            raise ConfigurationError(
                f"cochain shape mismatch: {(self.arity, self.end_degree)} vs "
                f"{(other.arity, other.end_degree)}"
            )

    def _accumulate(self, other, c=None):
        """Add ``c`` times (once when None) the entries of ``other`` into
        this cochain's own table, in place; returns this cochain."""
        field, table = self.algebra.field, self.table
        for key, entry in other.table.items():
            _add_at(field, table, key, entry.items(), c)
        return self

    def __add__(self, other, c=None):
        self._check_compatible(other)
        return self.zero_like(self.arity, self.end_degree)._accumulate(self)._accumulate(other, c)

    def __neg__(self):
        return self.scale_int(-1)

    def __sub__(self, other):
        field = self.algebra.field
        return self.__add__(other, field.neg(field.one()))

    def scale(self, c):
        out = self.zero_like(self.arity, self.end_degree)
        if self.algebra.field.is_zero(c):
            return out
        return out._accumulate(self, c)

    def scale_int(self, n: int):
        return self.scale(self.algebra.field.from_int(n))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and self.algebra is other.algebra
            and (self.arity, self.end_degree) == (other.arity, other.end_degree)
            and self.table == other.table
        )

    def __repr__(self):
        return (
            f"{type(self).__name__}(arity={self.arity}, deg={self.end_degree}, "
            f"{len(self.table)} entries)"
        )


class Cochain(LinearCochain):
    """Sparse multilinear map on the suspended algebra.

    ``table`` maps tuples of basis indices to sparse output vectors
    ``{basis index: scalar}``.  Scalars are normalized and zero outputs are
    never stored, so equality of tables is equality of maps.
    """

    __slots__ = ()

    def __init__(self, algebra: GradedAlgebra, arity: int, end_degree: int, table=None):
        super().__init__(algebra, arity, end_degree)
        if table:
            field = algebra.field
            for t, vec in table.items():
                clean = {k: field.from_int(c) for k, c in vec.items() if not field.is_zero(c)}
                if clean:
                    self.table[tuple(t)] = clean

    def is_normalized(self) -> bool:
        """True if the cochain vanishes whenever an input is the unit."""
        u = self.algebra.unit
        return all(u not in t for t in self.table)

    def check_homogeneous(self):
        a = self.algebra
        for t, vec in self.table.items():
            want = sum(a.suspended_degree(i) for i in t) + self.end_degree
            for k in vec:
                if a.suspended_degree(k) != want:
                    raise DomainError(
                        f"inhomogeneous entry at {tuple(a.names[i] for i in t)}",
                        witness=(t, k),
                    )
        return self

    def multiplication(self) -> "Cochain":
        return shifted_m2(self.algebra)

    # -- evaluation and composition -------------------------------------------

    def evaluate(self, tuple_indices) -> dict:
        return dict(self.table.get(tuple(tuple_indices), {}))

    @staticmethod
    def d_walk(a: GradedAlgebra, arity: int, end_degree: int, entries) -> dict:
        """:func:`_walk` of m2, with the signature of ``PolyCochain.d_walk``."""
        if a._m2_lookups is None:
            a._m2_lookups = _term_lookups(shifted_m2(a))
        return _walk(a._m2_lookups, end_degree, entries)

    def compose_at(self, g: "Cochain", i: int) -> "Cochain":
        """Operadic composition at slot i (1-based)."""
        if self.algebra is not g.algebra:
            raise ConfigurationError("cochains over different algebras")
        if self.is_zero() or g.is_zero():
            return self.zero_like(self.arity + g.arity - 1, self.end_degree + g.end_degree)
        if not (1 <= i <= self.arity):
            raise ConfigurationError(f"slot {i} out of range for arity {self.arity}")
        a = self.algebra
        field = a.field
        g_by_out: dict = {}
        for t_g, vec_g in g.table.items():
            for b, c in vec_g.items():
                g_by_out.setdefault(b, []).append((t_g, c))
        d_g = g.end_degree
        out = self.zero_like(self.arity + g.arity - 1, self.end_degree + d_g)
        table = out.table
        for t_f, vec_f in self.table.items():
            slot_basis = t_f[i - 1]
            hits = g_by_out.get(slot_basis)
            if not hits:
                continue
            prefix = t_f[: i - 1]
            suffix = t_f[i:]
            prefix_deg = sum(a.suspended_degree(j) for j in prefix)
            negate = (d_g * prefix_deg) % 2 == 1
            for t_g, c_g in hits:
                coef = field.neg(c_g) if negate else c_g
                new_t = prefix + t_g + suffix
                _add_at(field, table, new_t, vec_f.items(), coef)
        return out


# -- brace calculus (generic over LinearCochain subclasses) -------------------


def brace(f, args):
    """f{args}: sum over order-preserving insertions of the arguments into
    the slots of f, each added into the one table of the result.  Empty
    argument list returns f; more arguments than slots gives zero."""
    args = list(args)
    n = len(args)
    if n == 0:
        return f
    for g in args:
        if g.algebra is not f.algebra:
            raise ConfigurationError("brace arguments over different algebras")
    arity = f.arity + sum(g.arity for g in args) - n
    degree = f.end_degree + sum(g.end_degree for g in args)
    total = f.zero_like(arity, degree)
    for positions in combinations(range(1, f.arity + 1), n):
        cur = f
        shift = 0
        for pos, g in zip(positions, args):
            cur = cur.compose_at(g, pos + shift)
            shift += g.arity - 1
        total._accumulate(cur)
    return total


def bracket(f, g):
    """Gerstenhaber bracket f{g} - (-1)^{|f||g|} g{f}: for two ``Cochain``s
    the walk of [f, -] over the entries of g, grouped into a table, and the
    two braces otherwise."""
    if f.algebra is not g.algebra:
        raise ConfigurationError("cochains over different algebras")
    if isinstance(g, Cochain):
        out = Cochain(f.algebra, f.arity + g.arity - 1, f.end_degree + g.end_degree)
        out.table = _table(_walk(_term_lookups(f), g.end_degree, g.table.items()))
        return out
    field = f.algebra.field
    c = field.neg(field.one()) if (f.end_degree * g.end_degree) % 2 == 0 else None
    return brace(f, [g])._accumulate(brace(g, [f]), c)


def cup(f, g):
    """Cup product (-1)^{|f|} m2{f, g}."""
    m2 = f.multiplication()
    raw = brace(m2, [f, g])
    if f.end_degree % 2 != 0:
        raw = raw.scale(f.algebra.field.neg(f.algebra.field.one()))
    return raw


def sq(f):
    """Gerstenhaber square f{f}; needs odd map degree or characteristic 2."""
    if f.end_degree % 2 == 0 and f.algebra.field.char != 2:
        raise DomainError(
            f"square needs odd degree or characteristic 2, got degree {f.end_degree}"
        )
    return brace(f, [f])


def hoch_d(f):
    """Hochschild differential [m2, f] of a ``Cochain`` or ``PolyCochain``:
    the class's ``d_walk`` over all entries of f, grouped into a table."""
    out = f.zero_like(f.arity + 1, f.end_degree - 1)
    out.table = _table(f.d_walk(f.algebra, f.arity, f.end_degree, f.table.items()))
    return out


def _table(coords: dict) -> dict:
    """The table ``{key: {sub: c}}`` of the flat coordinates ``coords``, with
    no scalar checked: a walk's are normalized already, and a constructor
    given the table normalizes any other."""
    table = {}
    for (key, sub), c in coords.items():
        table.setdefault(key, {})[sub] = c
    return table


def _indexed(pairs, index: dict) -> dict:
    """The flat coordinates ``(pair, c)`` of ``pairs`` as ``{index[pair]: c}``;
    raises ``DomainError`` on a pair outside the enumerated basis of
    ``index`` (e.g. an entry on the unit against a normalized basis)."""
    try:
        return {index[pair]: c for pair, c in pairs}
    except KeyError as exc:
        pair = exc.args[0]
        raise DomainError(
            f"cochain entry {pair} outside the enumerated basis", witness=pair
        ) from None


def _term_lookups(m: Cochain):
    """The terms of m for :func:`_walk`: the field, whether |m| is odd, by
    the input x at each slot in slot order ``x -> [(u, v, l, e, s)]`` for
    the tuples u + (x,) + v, by output ``l -> [(tuple, e, -e)]``, and per
    basis element whether f{m}'s sign flips as m passes it; e is the
    coefficient of l in m's value and s is (-1)^{|u_1| + ...} e."""
    a, field = m.algebra, m.algebra.field
    odd = [a.suspended_degree(i) % 2 == 1 for i in range(a.dim)]
    by_input, by_output = {}, {}
    for j in range(m.arity):
        for t, vec in m.table.items():
            u, v = t[:j], t[j + 1:]
            passed = sum(odd[x] for x in u) % 2 == 1
            hits = by_input.setdefault(t[j], [])
            hits += [(u, v, l, e, field.neg(e) if passed else e) for l, e in vec.items()]
    for t, vec in m.table.items():
        for l, e in vec.items():
            by_output.setdefault(l, []).append((t, e, field.neg(e)))
    odd_m = m.end_degree % 2 == 1
    return field, odd_m, by_input, by_output, odd if odd_m else [False] * a.dim


def _walk(lookups, end_degree: int, entries) -> dict:
    """[m, f] in flat coordinates ``{(tuple, output): c}``, for m of
    ``lookups`` and f of map degree ``end_degree`` with table entries
    ``entries``; term by term as in the module docstring."""
    field, odd_m, by_input, by_output, flips = lookups
    one, add_into, acc = field.one(), field.add_into, {}
    odd_f = end_degree % 2 == 1
    start = not (odd_m and odd_f)
    for t, vec in entries:
        for k, c in vec.items():
            pairs = [((u + t + v, l), s if odd_f else e) for u, v, l, e, s in by_input.get(k, ())]
            negate = start
            for i, l in enumerate(t):
                hits = by_output.get(l)
                if hits:
                    u, v = t[:i], t[i + 1:]
                    pairs += [((u + x + v, k), n if negate else e) for x, e, n in hits]
                negate ^= flips[l]
            add_into(acc, pairs, None if c == one else c)
    return acc


# -- distinguished cochains ---------------------------------------------------


def shifted_m2(a: GradedAlgebra) -> Cochain:
    """The multiplication of a, shifted onto the suspension:
    m2(sx, sy) = (-1)^{|x|} s(x y).  Cached on the algebra."""
    if a._m2 is not None:
        return a._m2
    require_valid(a)
    field = a.field
    table = {}
    for i in range(a.dim):
        sign_flip = a.degrees[i] % 2 == 1
        for j in range(a.dim):
            vec = a.product(i, j)
            if not vec:
                continue
            if sign_flip:
                vec = {k: field.neg(c) for k, c in vec.items()}
            else:
                vec = dict(vec)
            table[(i, j)] = vec
    m2 = Cochain(a, 2, -1, table)
    a._m2 = m2
    return m2


def euler_delta(a: GradedAlgebra) -> Cochain:
    """The Euler derivation, diagonal with coefficient 1 - |sx| on the
    suspended basis; bidegree (1, 0)."""
    field = a.field
    table = {}
    for i in range(a.dim):
        c = field.from_int(1 - a.suspended_degree(i))
        if not field.is_zero(c):
            table[(i,)] = {i: c}
    return Cochain(a, 1, 0, table)


def beta_cochain(a: GradedAlgebra) -> Cochain:
    """Diagonal cochain with the integer coefficient |x|(|x|-1)/2; a
    primitive for the cup square of the Euler derivation."""
    field = a.field
    table = {}
    for i in range(a.dim):
        d = a.degrees[i]
        c = field.from_int(d * (d - 1) // 2)
        if not field.is_zero(c):
            table[(i,)] = {i: c}
    return Cochain(a, 1, 0, table)


# -- homogeneous cochain bases -------------------------------------------------


def _live_prefixes(a: GradedAlgebra, p: int, q: int, normalized: bool):
    """``(live, steps, lo, out_by_degree)``: bit b of live[k] says that a
    k-letter prefix of degree sum k * lo + b ends in a (p, q) basis element,
    so the basis is empty iff live[0] is.  Reachable sums are counted slot
    by slot as bit sets, then cut back to those that can end at an output
    degree; ``steps`` are the letters ``(index, suspended degree - lo)``."""
    if p < 0:
        raise DomainError("Hochschild degree must be >= 0")
    d = 1 - p - q
    out_by_degree: dict = {}
    for k in range(a.dim):
        out_by_degree.setdefault(a.suspended_degree(k), []).append(k)
    letters = [(i, a.suspended_degree(i)) for i in range(a.dim) if not normalized or i != a.unit]
    lo = min((e for _, e in letters), default=0)
    steps = [(i, e - lo) for i, e in letters]
    shifts = {s for _, s in steps}
    live = [1]
    for _ in range(p):
        live.append(_bit_union(live[-1] << s for s in shifts))
    # no bit past the reachable sums is shifted, however far q is from them
    ends = (x - d - p * lo for x in out_by_degree)
    live[p] &= _bit_union(1 << b for b in ends if 0 <= b < live[p].bit_length())
    for k in range(p - 1, -1, -1):
        live[k] &= _bit_union(live[k + 1] >> s for s in shifts)
    return live, steps, lo, out_by_degree


def cochain_basis(a: GradedAlgebra, p: int, q: int, normalized: bool = True):
    """Ordered basis of the (p, q) cochain space: pairs (tuple, output index)
    in lexicographic order.  ``normalized`` restricts to tuples avoiding the
    unit.

    Tuples are emitted depth first in index order through live prefixes
    only, so every prefix visited ends in at least one basis element."""
    live, steps, lo, out_by_degree = _live_prefixes(a, p, q, normalized)
    d = 1 - p - q
    if not live[0]:
        return []
    if p == 0:
        return [((), k) for k in out_by_degree[d]]
    basis = []
    path: list = []
    sums = [0]
    todo = [iter(steps)]
    while todo:
        depth = len(path) + 1
        for i, s in todo[-1]:
            b = sums[-1] + s
            if not live[depth] >> b & 1:
                continue
            path.append(i)
            if depth < p:
                sums.append(b)
                todo.append(iter(steps))
                break
            t = tuple(path)
            basis.extend((t, k) for k in out_by_degree[p * lo + b + d])
            path.pop()
        else:
            todo.pop()
            sums.pop()
            if path:
                path.pop()
    return basis


def _bit_union(ints) -> int:
    """Bitwise or of the given ints."""
    out = 0
    for x in ints:
        out |= x
    return out


def q_support(a: GradedAlgebra, p: int):
    """Internal degrees q with a nonzero (p, q) cochain space: those from
    p lo - hi to p hi - lo, for degrees in [lo, hi], whose full live-prefix
    pass leaves ``live[0]`` nonzero."""
    if p < 0:
        raise DomainError("Hochschild degree must be >= 0")
    lo, hi = a.degree_span()
    return [q for q in range(p * lo - hi, p * hi - lo + 1) if _live_prefixes(a, p, q, False)[0][0]]


def cochain_from_coords(a: GradedAlgebra, p: int, q: int, basis, coords: dict) -> Cochain:
    """The (p, q) cochain with coordinates ``{n: c}`` in an enumerated basis."""
    return Cochain(a, p, 1 - p - q, _table({basis[n]: c for n, c in coords.items()}))


def coords_of_cochain(z: Cochain, basis, index=None) -> dict:
    """Sparse coordinate vector of ``z`` in an enumerated basis.

    Raises ``DomainError`` if ``z`` has an entry outside the basis (e.g. a
    non-normalized cochain against a normalized basis).
    """
    if index is None:
        index = {pair: n for n, pair in enumerate(basis)}
    return _indexed(z.coordinates(), index)
