"""Hochschild cochains on the suspension of a graded algebra.

A cochain of arity p is a sparse homogeneous p-multilinear map on the
suspended algebra, stored as a table from basis tuples to sparse output
vectors.  Compositions evaluate with the Koszul sign

    (f o_i g)(u_1, ..., u_{p+q-1})
        = (-1)^{|g| (|u_1| + ... + |u_{i-1}|)}
          f(u_1, ..., g(u_i, ..., u_{i+q-1}), ...),

where degrees are suspended degrees and |g| is the degree of g as a map.
Braces expand as sums of iterated compositions over strictly increasing
insertion positions; all further signs arise from this single convention.

The bidegree of an arity-p cochain of map degree d is (p, q) with
q = 1 - p - d; the Hochschild differential [m2, -] moves (p, q) to
(p+1, q).  It is the bracket [m2, f] = m2{f} - (-1)^{|f|} f{m2}.  One walk,
``Cochain.d_walk``, adds its terms entry by entry of f straight into flat
coordinates keyed by (tuple, output), reading m2 (of degree -1) off lookups
of the shifted product: :func:`hoch_d` groups them back into a table, and
a differential matrix maps them to its rows.  The three families of terms
carry the signs

    m2 o_1 f:   +1,
    m2 o_2 f:   (-1)^{|f| |u_1|},
    f o_i m2:   (-1)^{|f| + 1 + |u_1| + ... + |u_{i-1}|},  1 <= i <= p,

the last one being the Koszul sign of m2 passing u_1 ... u_{i-1} times the
bracket's -(-1)^{|f|}.  The brace form ``bracket(m2, f)`` is kept as the
reference in the test suite's ``oracles.py``.
"""

from __future__ import annotations

from itertools import combinations

from .algebra import GradedAlgebra, require_valid
from .errors import ConfigurationError, DomainError


def _add_at(field, table: dict, key, pairs, c=None):
    """``field.add_into`` on the sparse entry ``table[key]``, dropping the
    key when the entry cancels.  ``pairs`` must be a sparse dict's items
    (distinct keys, nonzero values) and ``c`` nonzero, so that a key not yet
    in the table takes a copy, or a scaled copy, of them as it is."""
    entry = table.get(key)
    if entry is None:
        if c is None:
            entry = dict(pairs)
        else:
            entry = {}
            mul = field.mul
            for k, x in pairs:
                entry[k] = mul(c, x)
        if entry:
            table[key] = entry
    elif not field.add_into(entry, pairs, c):
        del table[key]


class LinearCochain:
    """Linear structure shared by finite and polynomially-indexed cochains,
    which is all the brace calculus below needs besides ``compose_at``.

    ``table`` maps keys to nonzero entries.  A subclass says how two entries
    add (``_add_entries``, None for a zero sum), how an entry scales
    (``_scale_entry``) and which entry a dict of terms is (``_entry``).
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

    def _check_compatible(self, other):
        if self.algebra is not other.algebra:
            raise ConfigurationError("cochains over different algebras")
        if (self.arity, self.end_degree) != (other.arity, other.end_degree):
            raise ConfigurationError(
                f"cochain shape mismatch: {(self.arity, self.end_degree)} vs "
                f"{(other.arity, other.end_degree)}"
            )

    def _with_table(self, table):
        out = self.zero_like(self.arity, self.end_degree)
        out.table = table
        return out

    def _accumulate(self, items):
        """Add ``(key, nonzero entry)`` pairs into this cochain's own table,
        dropping keys whose entries cancel."""
        table = self.table
        for key, entry in items:
            old = table.get(key)
            if old is None:
                table[key] = entry
                continue
            s = self._add_entries(old, entry)
            if s is None:
                del table[key]
            else:
                table[key] = s
        return self

    def __add__(self, other):
        self._check_compatible(other)
        return self._with_table(dict(self.table))._accumulate(other.table.items())

    def __neg__(self):
        return self.scale(self.algebra.field.neg(self.algebra.field.one()))

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        if self.algebra.field.is_zero(c):
            return self.zero_like(self.arity, self.end_degree)
        return self._with_table({k: self._scale_entry(c, e) for k, e in self.table.items()})

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
    ``{basis index: scalar}``.  Zero outputs are never stored, so equality
    of tables is equality of maps.
    """

    __slots__ = ()

    def __init__(self, algebra: GradedAlgebra, arity: int, end_degree: int, table=None):
        super().__init__(algebra, arity, end_degree)
        if table:
            field = algebra.field
            for t, vec in table.items():
                clean = {k: c for k, c in vec.items() if not field.is_zero(c)}
                if clean:
                    self.table[tuple(t)] = clean

    @classmethod
    def zero(cls, algebra, arity, end_degree):
        return cls(algebra, arity, end_degree)

    def _add_entries(self, u: dict, v: dict):
        return self.algebra.field.add_into(dict(u), v.items()) or None

    def _scale_entry(self, c, vec: dict) -> dict:
        mul = self.algebra.field.mul
        return {k: mul(c, x) for k, x in vec.items()}

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
    def d_walk(a: GradedAlgebra, arity: int, end_degree: int, entries, acc: dict) -> dict:
        """Add [m2, f] into ``acc``, flat coordinates ``{(tuple, output): c}``
        of arity ``arity + 1``, for the cochain f of that shape whose table
        entries are ``entries``; term by term as in the module docstring."""
        one = a.field.one()
        add_into = a.field.add_into
        odd_f = end_degree % 2 == 1
        by_first, by_second, by_product, odd = _m2_lookups(a)
        for t, vec in entries:
            for k, c in vec.items():
                pairs = [((t + (y,), l), e) for y, l, e in by_first.get(k, ())]
                pairs += [(((x,) + t, l), s if odd_f else e) for x, l, e, s in by_second.get(k, ())]
                negate = not odd_f
                for i, l in enumerate(t):
                    hits = by_product.get(l)
                    if hits:
                        u, v = t[:i], t[i + 1:]
                        pairs += [((u + xy + v, k), m if negate else e) for xy, e, m in hits]
                    negate ^= odd[l]
                add_into(acc, pairs, None if c == one else c)
        return acc

    def _entry(self, terms: dict) -> dict:
        return terms

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
    the slots of f.  Empty argument list returns f; more arguments than
    slots gives zero."""
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
        total = total + cur
    return total


def bracket(f, g):
    """Gerstenhaber bracket f{g} - (-1)^{|f||g|} g{f}."""
    sign = (f.end_degree * g.end_degree) % 2
    second = brace(g, [f])
    if sign == 0:
        second = second.scale(f.algebra.field.neg(f.algebra.field.one()))
    return brace(f, [g]) + second


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
    the class's ``d_walk`` over all entries of f, its flat coordinates
    grouped back into a table."""
    out = f.zero_like(f.arity + 1, f.end_degree - 1)
    groups: dict = {}
    for (key, sub), c in f.d_walk(f.algebra, f.arity, f.end_degree, f.table.items(), {}).items():
        groups.setdefault(key, {})[sub] = c
    out.table = {key: out._entry(terms) for key, terms in groups.items()}
    return out


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


def _m2_lookups(a: GradedAlgebra):
    """The terms of the shifted m2 by first factor, ``x -> [(y, l, e)]``, by
    second factor, ``y -> [(x, l, e, (-1)^{|sx|} e)]``, and by product basis
    element, ``l -> [((x, y), e, -e)]``, with e the coefficient of l in
    m2(x, y); and the parity of each suspended degree.  Cached on the
    algebra."""
    if a._m2_lookups is None:
        neg = a.field.neg
        by_first: dict = {}
        by_second: dict = {}
        by_product: dict = {}
        odd = [a.suspended_degree(i) % 2 == 1 for i in range(a.dim)]
        for (x, y), vec in shifted_m2(a).table.items():
            for l, e in vec.items():
                by_first.setdefault(x, []).append((y, l, e))
                by_second.setdefault(y, []).append((x, l, e, neg(e) if odd[x] else e))
                by_product.setdefault(l, []).append(((x, y), e, neg(e)))
        a._m2_lookups = (by_first, by_second, by_product, odd)
    return a._m2_lookups


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
    live[p] &= _bit_union(1 << (x - d - p * lo) for x in out_by_degree if x - d >= p * lo)
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
    by_tuple: dict = {}
    for idx, c in coords.items():
        t, k = basis[idx]
        by_tuple.setdefault(t, []).append((k, c))
    table = {t: a.field.add_into({}, pairs) for t, pairs in by_tuple.items()}
    return Cochain(a, p, 1 - p - q, table)


def coords_of_cochain(z: Cochain, basis, index=None) -> dict:
    """Sparse coordinate vector of ``z`` in an enumerated basis.

    Raises ``DomainError`` if ``z`` has an entry outside the basis (e.g. a
    non-normalized cochain against a normalized basis).
    """
    if index is None:
        index = {pair: n for n, pair in enumerate(basis)}
    coords = {}
    for t, vec in z.table.items():
        for k, c in vec.items():
            n = index.get((t, k))
            if n is None:
                raise DomainError(
                    f"cochain entry {(t, k)} outside the enumerated basis",
                    witness=(t, k),
                )
            coords[n] = c
    return coords
