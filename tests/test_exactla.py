import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hochcalc.exactla as exactla
import hochcalc.laurent as laurent
from hochcalc.algebra import truncated_skew_laurent
from hochcalc.cochain import cochain_from_coords, hoch_d, q_support
from hochcalc.cohomology import HHContext
from hochcalc.errors import ConfigurationError, InputError
from hochcalc.exactla import (
    MODULUS,
    PRIME_BOUND,
    PrimeField,
    Rationals,
    SparseMatrix,
    _LIFT_BOUND,
    _is_prime,
    _rational_lift,
    _residue,
    field_from_json,
    rref,
    solve_columns_many,
    vec_combine,
)
from hochcalc.laurent import section8_report
from oracles import (
    FractionRationals,
    from_dense,
    reference_add_into,
    reference_kernel,
    reference_rref,
    reference_solve,
    reference_solve_columns,
)

FIELDS = [Rationals(), PrimeField(2), PrimeField(3), PrimeField(5)]


def test_prime_field_rejects_composites():
    with pytest.raises(InputError):
        PrimeField(4)
    with pytest.raises(InputError):
        field_from_json({"type": "F", "p": 9})


def _trial_division(n):
    return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_matches_trial_division():
    assert [n for n in range(3000) if _is_prime(n)] == [
        n for n in range(3000) if _trial_division(n)
    ]
    # strong pseudoprimes to the first few prime bases
    for n in (2047, 1373653, 3215031751, 3825123056546413051):
        assert not _is_prime(n)


def test_prime_field_large_moduli():
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    with pytest.raises(InputError):
        PrimeField((10**9 + 7) * (10**9 + 9))
    with pytest.raises(InputError) as err:
        field_from_json({"type": "F", "p": PRIME_BOUND})
    assert err.value.path == "field.p"


def test_rational_parsing():
    Q = Rationals()
    assert Q.parse("3/4") * 4 == 3
    assert Q.parse(-2) == -2
    with pytest.raises(InputError):
        Q.parse("3/0")


def test_rational_exponent_bound():
    Q = Rationals()
    assert [Q.parse(x) for x in ("3", "-3/4", "1.5", "2e3")] == [3, Fraction(-3, 4), Fraction(3, 2), 2000]
    assert Q.parse("1e4299") == 10**4299 and Q.parse("1E-4299") == Fraction(1, 10**4299)
    # beyond the bound the power of ten is never expanded; at it, the value
    # has too many digits to be written back out
    for text in ("1e999999999", "1e-999999999", "1e4301", "1e" + "9" * 5000, "1e4300", "1.5e4300"):
        with pytest.raises(InputError):
            Q.parse(text)


def test_rref_proportional_rows():
    Q = Rationals()
    m = from_dense(Q, [[1, 2], [2, 4]])
    rank, pivots, rows, _, _ = rref(m)
    assert rank == 1 and pivots == [0] and rows == [{0: 1, 1: 2}]


def test_rref_zero_matrix():
    Q = Rationals()
    ech = rref(SparseMatrix(Q, 3, 5))
    assert ech.rank == 0 and ech.pivots == [] and ech.rows == []


def test_rref_f2_dependent_rows():
    F = PrimeField(2)
    m = from_dense(F, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert rref(m).rank == 2  # row1 + row2 = row3


def test_rref_idempotent():
    F = PrimeField(5)
    m = from_dense(F, [[1, 2, 3], [4, 0, 1], [2, 4, 1]])
    ech = rref(m)
    again = rref(SparseMatrix.from_rows(F, ech.rows, m.cols))
    assert (again.pivots, again.rows) == (ech.pivots, ech.rows)


def test_kernel_identity_and_zero():
    Q = Rationals()
    ident = from_dense(Q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert rref(ident).kernel() == []
    zero = SparseMatrix(Q, 1, 3)
    basis = rref(zero).kernel()
    assert [sorted(v.items()) for v in basis] == [[(0, 1)], [(1, 1)], [(2, 1)]]


def test_kernel_rank_one():
    Q = Rationals()
    m = from_dense(Q, [[1, 2], [2, 4]])
    (v,) = rref(m).kernel()
    assert v == {0: -2, 1: 1}
    assert m.apply(v) == {}


def _solve(m, b):
    """``m x = b`` by ``solve_columns_many`` on the columns of ``m`` in their
    natural order."""
    return solve_columns_many(m.field, [m.column(j) for j in range(m.cols)], [b])[0]


def test_solve_identity_and_inconsistent():
    Q = Rationals()
    ident = from_dense(Q, [[1, 0], [0, 1]])
    b = {0: Q.from_int(7)}
    assert _solve(ident, b) == b
    zero = SparseMatrix(Q, 2, 2)
    assert _solve(zero, b) is None


def test_solve_free_variable_zeroed_f3():
    F = PrimeField(3)
    m = from_dense(F, [[1, 1], [0, 0]])
    x = _solve(m, {0: 2})
    assert x == {0: 2}


@pytest.mark.parametrize("field", [PrimeField(3), PrimeField(5)], ids=repr)
def test_matrix_and_rhs_scalars_are_normalized(field):
    """A caller's scalar p + 1 is kept as 1, in a matrix and in its echelon
    rows; a multiple of p is dropped."""
    p = field.char
    m = SparseMatrix(field, 1, 2, {(0, 0): 1, (0, 1): p + 1})
    assert m == SparseMatrix(field, 1, 2, {(0, 0): 1, (0, 1): 1})
    assert rref(m).rows == [{0: 1, 1: 1}]
    assert SparseMatrix(field, 1, 1, {(0, 0): p}).entries == {}


def _random_nonzero(rng, field):
    if field.char == 0:
        return field.from_int(rng.choice([-2, -1, 1, 2, 3]))
    return field.from_int(rng.randrange(1, field.char))


def _random_matrix(rng, field, rows, cols, density):
    entries = {}
    for _ in range(density):
        entries[(rng.randrange(rows), rng.randrange(cols))] = _random_nonzero(rng, field)
    return SparseMatrix(field, rows, cols, entries)


@given(st.integers(0, 10**6), st.sampled_from(FIELDS))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_solutions(seed, field):
    rng = random.Random(seed)
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
    m = _random_matrix(rng, field, rows, cols, rng.randrange(0, 8))
    ech = rref(m)
    basis = ech.kernel()
    assert ech.rank + len(basis) == cols
    for v in basis:
        assert m.apply(v) == {}
    # a consistent rhs: image of a random vector
    x0 = {j: field.from_int(rng.randrange(1, 4)) for j in range(cols) if rng.random() < 0.5}
    b = m.apply(x0)
    x = _solve(m, b)
    assert x is not None
    assert m.apply(x) == b


@given(st.integers(0, 10**6), st.sampled_from(FIELDS))
@settings(max_examples=40, deadline=None)
def test_solve_columns_matches_solve(seed, field):
    rng = random.Random(seed)
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
    m = _random_matrix(rng, field, rows, cols, rng.randrange(0, 9))
    columns = [m.column(j) for j in range(cols)]
    x0 = {j: field.from_int(rng.randrange(1, 4)) for j in range(cols) if rng.random() < 0.5}
    b = m.apply(x0)
    (x,) = solve_columns_many(field, columns, [b])
    assert x is not None and set(x) <= set(range(cols))
    assert m.apply(x) == b
    # infeasible systems are rejected by both
    b2 = dict(b)
    fresh = SparseMatrix(field, rows + 1, cols, {(i, j): c for (i, j), c in m.entries.items()})
    b2[rows] = field.one()
    assert reference_solve(fresh, b2) is None
    assert solve_columns_many(field, [fresh.column(j) for j in range(cols)], [b2]) == [None]


def test_insertion_order_independence():
    Q = Rationals()
    entries = {(0, 0): Q.one(), (1, 1): Q.from_int(2), (0, 1): Q.from_int(3)}
    m1 = SparseMatrix(Q, 2, 2, dict(entries))
    m2 = SparseMatrix(Q, 2, 2, dict(reversed(list(entries.items()))))
    assert rref(m1) == rref(m2)
    assert rref(m1).kernel() == rref(m2).kernel()


def test_solve_in_a_basis():
    """Coordinates in a linearly independent basis are the solution for the
    matrix whose columns are the basis vectors."""
    Q = Rationals()
    basis = [{0: Q.one(), 1: Q.one()}, {1: Q.one()}]
    want = {0: Q.from_int(2), 1: Q.from_int(3)}
    assert solve_columns_many(Q, basis, [{0: Q.from_int(2), 1: Q.from_int(5)}]) == [want]
    assert solve_columns_many(Q, [basis[1]], [{0: Q.one()}]) == [None]


def _index_cases(field):
    """Shapes that exercise the column index of ``rref``: empty matrices,
    single rows and columns, and swaps of a pivot row into the place of a
    row with overlapping support."""
    yield SparseMatrix(field, 0, 4)
    yield SparseMatrix(field, 4, 0)
    yield SparseMatrix(field, 0, 0)
    yield from_dense(field, [[0, 2, 0, 1]])
    yield from_dense(field, [[0], [3], [1]])
    # row 0 shares columns 1, 2 with row 2, which holds the first pivot
    yield from_dense(field, [[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 2, 0]])
    # a swap at every step, with fill-in and cancellation in later columns
    yield from_dense(field, [[0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 0, 1]])
    yield from_dense(field, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])


@pytest.mark.parametrize("field", FIELDS + [PrimeField(7)], ids=repr)
def test_factorization_matches_reference(field):
    """The forward elimination with back substitution returns the rank, the
    pivots and the pivot rows of the Gauss-Jordan ``reference_rref``, and the
    kernel read off it.  ``solve_columns_many`` answers several right-hand sides,
    consistent and inconsistent, exactly as a Gauss-Jordan reduction of
    [m | b] does."""
    rng = random.Random(f"echelon/{field!r}")

    def matrices():
        for _ in range(150):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            yield _random_matrix(rng, field, rows, cols, rng.randrange(0, 3 * rows * cols // 2 + 1))
        yield from _index_cases(field)

    inconsistent = 0
    for m in matrices():
        ech = rref(m)
        assert (ech.rank, ech.pivots, ech.rows) == reference_rref(m)
        assert all(row[col] == field.one() for col, row in zip(ech.pivots, ech.rows))
        assert ech.kernel() == reference_kernel(m)
        for _ in range(4):
            b = _random_rhs(rng, m)
            want = reference_solve(m, b)
            assert _solve(m, b) == want
            if want is None:
                inconsistent += 1
            else:
                assert m.apply(want) == b
    assert inconsistent > 20


def _random_rhs(rng, m):
    """A right-hand side for ``m``: in its image about half the time, else
    random (and then mostly inconsistent on a tall or singular ``m``)."""
    field = m.field
    if rng.random() < 0.5:
        x0 = {j: field.from_int(rng.randrange(1, 4)) for j in range(m.cols)}
        return m.apply({j: c for j, c in x0.items() if rng.random() < 0.5})
    b = {i: field.from_int(rng.randrange(1, 5)) for i in range(m.rows)}
    return {i: c for i, c in b.items() if rng.random() < 0.6 and not field.is_zero(c)}


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3), PrimeField(7)], ids=repr)
def test_rref_invariant_under_row_permutations(field):
    """The reduced form is unique, so permuting the rows of a matrix changes
    neither the pivots, the pivot rows, the kernel nor any solve (with
    the right-hand side permuted alike), whichever rows the sparsest-row
    rule picks as pivots."""
    rng = random.Random(f"permute/{field!r}")
    for _ in range(60):
        rows, cols = rng.randrange(1, 10), rng.randrange(1, 10)
        m = _random_matrix(rng, field, rows, cols, rng.randrange(0, rows * cols + 1))
        perm = list(range(rows))
        rng.shuffle(perm)
        pm = SparseMatrix(field, rows, cols, {(perm[i], j): c for (i, j), c in m.entries.items()})
        ech, pech = rref(m), rref(pm)
        assert (ech.rank, ech.pivots, ech.rows) == (pech.rank, pech.pivots, pech.rows)
        assert (ech.rank, ech.pivots, ech.rows) == reference_rref(m)
        assert ech.kernel() == pech.kernel()
        for _ in range(3):
            b = _random_rhs(rng, m)
            assert _solve(m, b) == _solve(pm, {perm[i]: c for i, c in b.items()})


def _witness_system(rng, field):
    """A seeded ``solve_columns_many`` system on integer row keys: tall and
    sparse or small, with duplicate and zero columns, and a right-hand side
    that is consistent about half the time."""
    if rng.random() < 0.4:
        rows, cols = rng.randrange(12, 40), rng.randrange(1, 10)
        m = _random_matrix(rng, field, rows, cols, rng.randrange(0, 2 * rows))
    else:
        rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
        m = _random_matrix(rng, field, rows, cols, rng.randrange(0, rows * cols + 1))
    columns = [m.column(j) for j in range(cols)]
    for _ in range(rng.randrange(3)):
        columns.insert(rng.randrange(len(columns) + 1), dict(rng.choice(columns)))
    if rng.random() < 0.3:
        columns.insert(rng.randrange(len(columns) + 1), {})
    if rng.random() < 0.5:
        whole = SparseMatrix.from_columns(field, columns, rows)
        b = whole.apply({j: _random_nonzero(rng, field) for j in range(whole.cols)
                         if rng.random() < 0.5})
    else:
        b = {i: _random_nonzero(rng, field) for i in range(rows) if rng.random() < 0.5}
    if field.char == 0 and b and rng.random() < 0.5:
        i = rng.choice(list(b))
        b[i] = Fraction(b[i], rng.choice([2, 3, 7]))
    return rows, columns, b


@pytest.mark.parametrize("field", FIELDS + [PrimeField(7)], ids=repr)
def test_solve_columns_matches_reference_rref(field):
    """The forward elimination with sparsest-row pivots and back
    substitution returns the same ``x`` as full RREF of the augmented
    matrix, its columns in the order given, in ``reference_rref``.  With the
    columns sorted by (nonzeros, index), as the witness search passes them,
    ``x`` moves by the kernel vector that its free coordinates fix."""
    rng = random.Random(f"forward/{field!r}")
    one, zero = field.one(), field.zero()
    found = inconsistent = 0
    for _ in range(200):
        rows, columns, b = _witness_system(rng, field)
        m = SparseMatrix.from_columns(field, columns, rows)
        (got,) = solve_columns_many(field, columns, [b])
        assert got == reference_solve_columns(field, columns, b) == reference_solve(m, b)
        order = sorted(range(len(columns)), key=lambda j: (len(columns[j]), j))
        (moved,) = solve_columns_many(field, [columns[j] for j in order], [b])
        assert (moved is None) == (got is None)
        if got is None:
            inconsistent += 1
            continue
        found += 1
        moved = {order[k]: c for k, c in moved.items()}
        assert m.apply(moved) == m.apply(got)
        ech = rref(m)
        diff = vec_combine(field, [(one, moved), (field.neg(one), got)])
        free = [j for j in range(m.cols) if j not in ech.pivots]
        assert diff == vec_combine(field, [(diff.get(j, zero), v) for j, v in zip(free, ech.kernel())])
    assert found > 50 and inconsistent > 30


@pytest.mark.parametrize("field", FIELDS + [PrimeField(7)], ids=repr)
def test_solve_columns_ignores_row_key_order(field):
    """Row ids follow first sight, so relabelling the rows, reordering the
    entries of each column and using keys that cannot be compared with
    each other leave ``x`` unchanged."""
    rng = random.Random(f"rowkeys/{field!r}")
    for _ in range(60):
        rows, columns, b = _witness_system(rng, field)
        want = solve_columns_many(field, columns, [b])
        perm = rng.sample(range(rows), rows)
        label = {i: perm[i] if perm[i] % 2 else str(perm[i]) for i in range(rows)}

        def relabel(col):
            items = list(col.items())
            rng.shuffle(items)
            return {label[i]: c for i, c in items}

        got = solve_columns_many(field, [relabel(c) for c in columns], [relabel(b)])
        assert got == want


@pytest.mark.parametrize("field", FIELDS + [PrimeField(7)], ids=repr)
def test_solve_columns_many_matches_reference_rref(field):
    """One elimination of ``[A | b_1 ... b_m]`` gives each right-hand side
    the answer that ``reference_solve_columns`` gives it alone, with the
    inconsistent right-hand sides placed before the consistent ones, empty
    right-hand sides, and zero and duplicate columns."""
    rng = random.Random(f"many/{field!r}")
    seen = {"inconsistent first": 0, "empty": 0, "zero column": 0}
    for _ in range(150):
        rows, columns, _ = _witness_system(rng, field)
        whole = SparseMatrix.from_columns(field, columns, rows)
        rhss = []
        for _ in range(rng.randrange(1, 6)):
            kind = rng.random()
            if kind < 0.15:
                rhss.append({})
            elif kind < 0.55:
                rhss.append(whole.apply({j: _random_nonzero(rng, field) for j in range(whole.cols)
                                         if rng.random() < 0.5}))
            else:
                rhss.append({i: _random_nonzero(rng, field) for i in range(rows)
                             if rng.random() < 0.5})
        wants = [reference_solve_columns(field, columns, b) for b in rhss]
        first = sorted(range(len(rhss)), key=lambda k: wants[k] is not None)
        rhss, wants = [rhss[k] for k in first], [wants[k] for k in first]
        assert solve_columns_many(field, columns, rhss) == wants
        assert [solve_columns_many(field, columns, [b])[0] for b in rhss] == wants
        seen["inconsistent first"] += wants[0] is None and wants[-1] is not None
        seen["empty"] += {} in rhss
        seen["zero column"] += {} in columns
    assert solve_columns_many(field, [{0: field.one()}], []) == []
    assert min(seen.values()) > 10, seen


class _WrongInverse(PrimeField):
    def inv(self, a):
        return 1


def test_solve_columns_raises_when_its_check_fails():
    field = _WrongInverse(5)
    with pytest.raises(ConfigurationError):
        solve_columns_many(field, [{"r": 2}], [{"r": 1}])
    # a batch checks every answer too, the consistent one after the others
    with pytest.raises(ConfigurationError):
        solve_columns_many(field, [{"r": 2}], [{"s": 1}, {}, {"r": 1}])


def _random_scalar(rng, field):
    if field.char == 0:
        return Fraction(rng.randint(-3, 3), rng.choice([1, 2, 3]))
    return field.from_int(rng.randrange(field.char))


# over F_2 and F_3 every nonzero scalar is +-1; F_5 and F_7 exercise products
@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3), PrimeField(5),
                                   PrimeField(7)], ids=repr)
def test_add_into_matches_reference(field):
    rng = random.Random(7)
    for _ in range(300):
        dst = {k: c for k in range(6) if not field.is_zero(c := _random_scalar(rng, field))}
        # few keys, so pairs repeat keys and sums cancel often
        pairs = [(rng.randrange(8), _random_scalar(rng, field)) for _ in range(rng.randrange(12))]
        c = rng.choice([None, field.zero(), _random_scalar(rng, field)])
        want = reference_add_into(field, dst, pairs, c)
        out = field.add_into(dst, iter(pairs), c)
        assert out is dst and out == want
        assert not any(field.is_zero(v) for v in out.values())


def test_add_into_edge_cases():
    Q, F2, F3 = Rationals(), PrimeField(2), PrimeField(3)
    assert Q.add_into({0: Q.one()}, [(0, Q.from_int(-1))]) == {}
    assert Q.add_into({0: Q.one()}, [(1, Q.one())], Q.zero()) == {0: 1}
    assert F3.add_into({}, [(0, 1), (0, 1), (1, 2), (0, 1)]) == {1: 2}
    assert F2.add_into({}, [(5, 1), (5, 1)]) == {}
    assert F2.add_into({5: 1}, [(5, 1)], 1) == {}
    assert F3.add_into({2: 1}, [(2, 1)], 2) == {}
    # a zero term under a new key is skipped, scaled or not
    assert Q.add_into({}, [(0, Q.zero())]) == F3.add_into({}, [(0, 1)], F3.zero()) == {}


# -- Q scalars: ints when integral, Fractions otherwise --------------------------


def _int_or_fraction(rng):
    """A random rational, as an int or as a (possibly integral) Fraction."""
    v = Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 4, 7]))
    return v.numerator if v.denominator == 1 and rng.random() < 0.5 else v


def _canonical_type(v):
    return int if v.denominator == 1 else Fraction


def test_rational_scalars_agree_with_fraction_arithmetic():
    """On mixed int and Fraction operands, Rationals computes what plain
    Fraction arithmetic does, never returns a float, and returns an int for
    every integral parse, inverse and lift."""
    Q = Rationals()
    assert [type(x) for x in (Q.zero(), Q.one(), Q.from_int(-5))] == [int, int, int]
    rng = random.Random("int-or-fraction")
    for _ in range(3000):
        a, b = _int_or_fraction(rng), _int_or_fraction(rng)
        fa, fb = Fraction(a), Fraction(b)
        pairs = [(Q.add(a, b), fa + fb), (Q.sub(a, b), fa - fb), (Q.mul(a, b), fa * fb),
                 (Q.neg(a), -fa)]
        if fa:
            inv = Q.inv(a)
            assert type(inv) is _canonical_type(1 / fa)
            pairs.append((inv, 1 / fa))
        else:
            with pytest.raises(ZeroDivisionError):
                Q.inv(a)
        for got, want in pairs:
            assert isinstance(got, (int, Fraction)) and not isinstance(got, bool)
            assert got == want and hash(got) == hash(want) and str(got) == str(want)
        for raw in (str(fa), f"{fa.numerator}/{fa.denominator}",
                    f"{fa.numerator * 3}/{fa.denominator * 3}", str(float(fa.numerator))):
            got = Q.parse(raw)
            assert type(got) is _canonical_type(Fraction(raw)) and got == Fraction(raw)
        if fa.denominator == 1:
            assert type(Q.parse(fa.numerator)) is int and Q.parse(fa.numerator) == fa
        lifted = _rational_lift(_residue(a))
        assert type(lifted) is _canonical_type(fa) and lifted == fa
    assert [type(Q.parse(x)) for x in ("2e3", "-4/2", "0/5", "1.5", "1E-3")] == [
        int, int, int, Fraction, Fraction]
    assert type(_residue(-7)) is int and _residue(-7) == MODULUS - 7


def _all_scalars(cochains):
    return [c for z in cochains for vec in z.table.values() for c in vec.values()]


def test_hh_over_q_matches_the_fraction_field():
    """With integral scalars as ints, HH bases, cocycle bases and class
    coordinates of truncated_skew_laurent(Q, 3), in both pipelines, equal
    those computed with every scalar a Fraction."""
    fields = (Rationals(), FractionRationals())
    new, ref = (HHContext(truncated_skew_laurent(f, 3)) for f in fields)
    rng = random.Random("hh-int-vs-fraction")
    classes = ints = 0
    for pipeline in ("space", "full_space"):
        for p in range(4):
            for q in q_support(new.algebra, p):
                sn, sr = getattr(new, pipeline)(p, q), getattr(ref, pipeline)(p, q)
                assert sn.cocycles == sr.cocycles and sn.hh_vectors == sr.hh_vectors
                assert [z.table for z in sn.hh_reps] == [z.table for z in sr.hh_reps]
                assert all(type(c) is Fraction for c in _all_scalars(sr.hh_reps))
                assert all(type(c) in (int, Fraction) for c in _all_scalars(sn.hh_reps))
                ints += sum(type(c) is int for c in _all_scalars(sn.hh_reps))
                for _ in range(3 if sn.dim else 0):
                    text = {j: f"{rng.randint(-4, 4)}/{rng.choice([1, 1, 2, 3])}"
                            for j in range(sn.dim) if rng.random() < 0.7}
                    bound = {i: rng.randint(-2, 2) for i in range(len(sn.basis_in))
                             if rng.random() < 0.3}
                    got = []
                    for space, f in ((sn, fields[0]), (sr, fields[1])):
                        coords = {j: f.parse(t) for j, t in text.items()}
                        b = cochain_from_coords(space.algebra, p - 1, q, space.basis_in,
                                                {i: f.from_int(c) for i, c in bound.items()})
                        z = space.class_from_coords(coords).representative
                        if p:
                            z = z + hoch_d(b)
                        got.append(space.class_of(z).coords)
                        assert got[-1] == {j: c for j, c in coords.items() if c}
                    classes += 1
    assert classes > 20 and ints > 100


def test_section8_over_q_matches_the_fraction_field(monkeypatch):
    """section8_report(0, 2) is the same report when every scalar, the lifts
    of the modular witness solve included, is a Fraction."""
    want = section8_report(0, 2)
    lift = exactla._rational_lift
    monkeypatch.setattr(laurent, "Rationals", FractionRationals)
    monkeypatch.setattr(exactla, "_rational_lift",
                        lambda a: None if (r := lift(a)) is None else Fraction(r))
    assert json.dumps(section8_report(0, 2), sort_keys=True) == json.dumps(want, sort_keys=True)


# -- the modular front of solve_columns_many over Q ------------------------------


def test_rational_lift_round_trips_up_to_the_bound():
    B = _LIFT_BOUND
    assert 2 * B * B < MODULUS <= 2 * (B + 1) * (B + 1)
    rng = random.Random(11)
    values = [Fraction(0), Fraction(1), Fraction(-1), Fraction(B), Fraction(-B),
              Fraction(1, B), Fraction(-1, B), Fraction(B - 1, B), Fraction(-B, B - 1)]
    for _ in range(500):
        r, s = rng.randint(-B, B), rng.randint(1, B)
        values.append(Fraction(r, s))
    for _ in range(200):
        values.append(Fraction(rng.randint(-50, 50), rng.randint(1, 50)))
    for v in values:
        assert _rational_lift(_residue(v)) == v


def test_rational_lift_fails_past_the_bound():
    B = _LIFT_BOUND
    for v in (Fraction(B + 1), Fraction(B + 1, B), Fraction(B, B + 1)):
        assert _rational_lift(_residue(v)) is None
    # past the bound a lift is either missing or a different fraction
    for v in (Fraction(1, 3**40), Fraction(3**40), Fraction(MODULUS + 1)):
        assert _rational_lift(_residue(v)) != v


def test_residue_rejects_a_denominator_divisible_by_the_modulus():
    assert _residue(Fraction(-3, 2)) * 2 % MODULUS == MODULUS - 3
    with pytest.raises(ZeroDivisionError):
        _residue(Fraction(1, MODULUS))


@pytest.fixture
def exact_eliminations(monkeypatch):
    """Count the eliminations that solve_columns_many runs over Q itself."""
    calls = []
    real = exactla._reduce

    def spy(field, *args, **kwargs):
        if field.char == 0:
            calls.append(field)
        return real(field, *args, **kwargs)

    monkeypatch.setattr(exactla, "_reduce", spy)
    return calls


def test_solve_columns_over_q_needs_no_exact_elimination(exact_eliminations):
    Q = Rationals()
    cols = [{0: Fraction(2, 3), 1: Fraction(1)}, {1: Fraction(-5, 7)}]
    cols.append({2: Fraction(7)})
    x = solve_columns_many(Q, cols, [{0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1)}])
    assert x == [{0: Fraction(3, 2), 1: Fraction(7, 5), 2: Fraction(1, 7)}]
    assert exact_eliminations == []


@pytest.mark.parametrize("cols, rhs, want", [
    # a denominator divisible by the modulus
    ([{0: Fraction(1, MODULUS)}], {0: Fraction(1)}, {0: Fraction(MODULUS)}),
    # inconsistent modulo the modulus, with the solution 1/P over Q
    ([{0: Fraction(MODULUS)}], {0: Fraction(1)}, {0: Fraction(1, MODULUS)}),
    # a solution beyond the lift bound
    ([{0: Fraction(3**40)}, {1: Fraction(1)}], {0: Fraction(1), 1: Fraction(2)},
     {0: Fraction(1, 3**40), 1: Fraction(2)}),
    # the lift succeeds (to 1) but fails the exact check
    ([{0: Fraction(1)}], {0: Fraction(MODULUS + 1)}, {0: Fraction(MODULUS + 1)}),
], ids=["denominator", "inconsistent-mod-p", "lift-bound", "check"])
def test_solve_columns_falls_back_to_exact_elimination(exact_eliminations, cols, rhs, want):
    assert solve_columns_many(Rationals(), cols, [rhs]) == [want]
    assert len(exact_eliminations) == 1


def test_solve_columns_decides_inconsistency_exactly(exact_eliminations):
    Q = Rationals()
    assert solve_columns_many(Q, [{0: Fraction(1), 1: Fraction(1, 2)}], [{0: Fraction(1)}]) == [None]
    assert len(exact_eliminations) == 1



def test_dims_probes_share_one_exact_elimination(exact_eliminations):
    """The three dims probes of ``section8_report(0, 2)`` have no witness,
    which over Q only exact elimination may decide: batched, they need one
    exact elimination instead of three."""
    alg = laurent.sign_twisted_laurent(Rationals())
    z1, z2 = (laurent.display_monomial(alg, *args) for args in [(0, 4, 0, 3), (1, 3, 1, 2)])
    pairs = [(z, laurent.PolyCochain(alg, 3, -1)) for z in (z1, z2, z1 + z2)]
    laurent._weight_vectors(alg)
    exact_eliminations.clear()  # the rref of the weight grading is no witness search
    assert [w for w, _ in laurent.find_witnesses(pairs, 2)] == [None, None, None]
    assert len(exact_eliminations) == 1
    assert [laurent.find_witness(lhs, rhs, 2)[0] for lhs, rhs in pairs] == [None, None, None]
    assert len(exact_eliminations) == 1 + 3

def _random_q_system(rng, rows, cols):
    Q = Rationals()
    entries = {}
    for _ in range(rng.randrange(rows * cols + 1)):
        i, j = rng.randrange(rows), rng.randrange(cols)
        entries[(i, j)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3, 7]))
    m = SparseMatrix(Q, rows, cols, entries)
    if rng.random() < 0.5:
        x0 = {j: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for j in range(cols)}
        b = m.apply(x0)
    else:
        b = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for i in range(rows)}
        b = {i: c for i, c in b.items() if c}
    return m, b


def test_solve_columns_over_q_agrees_with_exact_elimination():
    rng = random.Random(2024)
    found = missing = 0
    for _ in range(300):
        m, b = _random_q_system(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        # keys that are not integers, as in the witness search
        columns = [{("r", i): c for i, c in m.column(j).items()} for j in range(m.cols)]
        (x,) = solve_columns_many(m.field, columns, [{("r", i): c for i, c in b.items()}])
        want = reference_solve(m, b)
        assert x == want
        if x is None:
            missing += 1
            continue
        found += 1
        assert m.apply(x) == b
    assert found > 50 and missing > 50


@pytest.fixture
def eliminations(monkeypatch):
    """The field and column count of every elimination, over any field."""
    calls = []
    real = exactla._reduce

    def spy(field, rows, ncols):
        calls.append((field.char, ncols))
        return real(field, rows, ncols)

    monkeypatch.setattr(exactla, "_reduce", spy)
    return calls


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), PrimeField(7)], ids=repr)
def test_solve_columns_many_over_a_prime_field_eliminates_once(eliminations, field):
    one = field.one()
    cols = [{0: one, 1: one}, {1: one}, {}]
    rhss = [{2: one}, {0: one}, {}, {0: one, 1: field.neg(one)}]
    got = solve_columns_many(field, cols, rhss)
    assert got[0] is None and got[1] == {0: one, 1: field.neg(one)} and got[2] == {}
    assert eliminations == [(field.char, 3 + 4)]
    assert got == [reference_solve_columns(field, cols, b) for b in rhss]


def test_solve_columns_many_over_q_eliminates_the_unsettled_exactly_in_one(eliminations):
    """The modular front settles what it can; the rest (here a lift beyond
    the bound, an inconsistent system and a failed exact check) is
    eliminated exactly once, together, and every answer is the one of
    ``reference_solve_columns``."""
    Q = Rationals()
    cols = [{0: Fraction(3**40)}, {1: Fraction(1)}, {2: Fraction(1)}]
    rhss = [{3: Fraction(1)}, {1: Fraction(5, 2)}, {0: Fraction(1), 1: Fraction(2)},
            {}, {2: Fraction(MODULUS + 1)}, {0: Fraction(3**40)}]
    got = solve_columns_many(Q, cols, rhss)
    assert got == [reference_solve_columns(Q, cols, b) for b in rhss]
    assert got[0] is None and got[2] == {0: Fraction(1, 3**40), 1: 2}
    assert eliminations == [(MODULUS, 3 + 6), (0, 3 + 3)]


def test_solve_columns_many_over_q_falls_back_as_a_whole(eliminations):
    """A denominator divisible by the modulus settles nothing modulo it: all
    right-hand sides go to the one exact elimination."""
    Q = Rationals()
    cols = [{0: Fraction(1, MODULUS)}, {1: Fraction(2)}]
    rhss = [{0: Fraction(1)}, {1: Fraction(1)}, {2: Fraction(1)}]
    got = solve_columns_many(Q, cols, rhss)
    assert got == [{0: MODULUS}, {1: Fraction(1, 2)}, None]
    assert got == [reference_solve_columns(Q, cols, b) for b in rhss]
    assert eliminations == [(0, 2 + 3)]


def test_solve_columns_many_over_q_rebuilds_the_rows_of_the_unsettled(monkeypatch):
    """The modular front settles the first right-hand side; exact
    elimination decides the others: the 1/P case (inconsistent modulo P),
    a row that only a right-hand side has with an entry P (zero modulo P,
    so the lift fails its exact check) and a row that only a right-hand
    side has.  The exact elimination loads only the rows of the columns
    and of the unsettled right-hand sides, numbered as first seen over the
    columns from last to first and then over those right-hand sides."""
    Q = Rationals()
    loaded = []
    real = exactla._reduce

    def spy(field, rows, ncols):
        loaded.append((field.char, [dict(row) for row in rows]))
        return real(field, rows, ncols)

    monkeypatch.setattr(exactla, "_reduce", spy)
    cols = [{"a": Fraction(MODULUS)}, {"b": Fraction(1)}]
    rhss = [{"b": Fraction(3)}, {"a": Fraction(1), "b": Fraction(2)},
            {"b": Fraction(1), "c": Fraction(MODULUS)}, {"d": Fraction(1, 2)}]
    got = solve_columns_many(Q, cols, rhss)
    assert got == [reference_solve_columns(Q, cols, b) for b in rhss]
    assert got == [{1: 3}, {0: Fraction(1, MODULUS), 1: 2}, None, None]
    half = _residue(Fraction(1, 2))
    assert loaded == [
        (MODULUS, [{1: 1, 2: 3, 3: 2, 4: 1}, {3: 1}, {}, {5: half}]),
        (0, [{1: 1, 2: 2, 3: 1}, {0: MODULUS, 2: 1}, {3: MODULUS}, {4: Fraction(1, 2)}]),
    ]


@pytest.mark.parametrize("char", [3, 0])
def test_section8_eliminates_its_largest_witness_block_once(eliminations, char):
    """Check (e)'s searches at witness shape (4, -1) share one elimination
    of their 2,640 coboundary columns instead of eliminating the common
    2,400 twice."""
    section8_report(char, 2)
    large = [c for c in eliminations if c[1] >= 2000]
    assert len(large) == 1 and large[0][0] == (char or MODULUS)


def test_witness_elimination_keeps_its_field_operation_count(monkeypatch):
    """The F_3 field operations of the forward eliminations of
    ``section8_report(3, 2)``: 132,749 ``add`` and 3,772 ``mul``.  The count
    pins the rule that numbers the rows of each solve (first seen over the
    columns from last to first), which breaks pivot ties; it does not
    depend on the hash seed.  Only ``_reduce`` is counted."""
    counts = {"add": 0, "mul": 0}
    inside = []
    real = exactla._reduce

    def spy(field, rows, ncols):
        inside.append(field)
        try:
            return real(field, rows, ncols)
        finally:
            inside.pop()

    for name in counts:
        def counted(self, a, b, op=getattr(PrimeField, name), name=name):
            if inside:
                counts[name] += 1
            return op(self, a, b)

        monkeypatch.setattr(PrimeField, name, counted)
    monkeypatch.setattr(exactla, "_reduce", spy)
    section8_report(3, 2)
    assert counts == {"add": 132749, "mul": 3772}
