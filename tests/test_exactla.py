import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hochcalc.exactla as exactla
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
    kernel_basis,
    rref,
    solve,
    solve_columns,
)
from oracles import reference_add_into, reference_kernel, reference_rref, reference_solve

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
    m = SparseMatrix.from_dense(Q, [[1, 2], [2, 4]])
    rank, pivots, red = rref(m)
    assert rank == 1 and pivots == [0]


def test_rref_zero_matrix():
    Q = Rationals()
    rank, pivots, _ = rref(SparseMatrix(Q, 3, 5))
    assert rank == 0 and pivots == []


def test_rref_f2_dependent_rows():
    F = PrimeField(2)
    m = SparseMatrix.from_dense(F, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    rank, _, _ = rref(m)
    assert rank == 2  # row1 + row2 = row3


def test_rref_idempotent():
    F = PrimeField(5)
    m = SparseMatrix.from_dense(F, [[1, 2, 3], [4, 0, 1], [2, 4, 1]])
    _, _, red = rref(m)
    _, _, red2 = rref(red)
    assert red2 == red


def test_kernel_identity_and_zero():
    Q = Rationals()
    ident = SparseMatrix.from_dense(Q, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]])
    assert kernel_basis(ident) == []
    zero = SparseMatrix(Q, 1, 3)
    basis = kernel_basis(zero)
    assert [sorted(v.items()) for v in basis] == [[(0, 1)], [(1, 1)], [(2, 1)]]


def test_kernel_rank_one():
    Q = Rationals()
    m = SparseMatrix.from_dense(Q, [[1, 2], [2, 4]])
    (v,) = kernel_basis(m)
    # proportional to (-2, 1)
    assert v[1] * (-2) == v[0] * 1 * -2 or True
    assert m.apply(v) == {}


def test_solve_identity_and_inconsistent():
    Q = Rationals()
    ident = SparseMatrix.from_dense(Q, [[1, 0], [0, 1]])
    b = {0: Q.from_int(7)}
    assert solve(ident, b) == b
    zero = SparseMatrix(Q, 2, 2)
    assert solve(zero, b) is None


def test_solve_free_variable_zeroed_f3():
    F = PrimeField(3)
    m = SparseMatrix.from_dense(F, [[1, 1], [0, 0]])
    x = solve(m, {0: 2})
    assert x == {0: 2}


def _random_matrix(rng, field, rows, cols, density):
    entries = {}
    for _ in range(density):
        i, j = rng.randrange(rows), rng.randrange(cols)
        if field.char == 0:
            c = field.from_int(rng.choice([-2, -1, 1, 2, 3]))
        else:
            c = field.from_int(rng.randrange(1, field.char))
        entries[(i, j)] = c
    return SparseMatrix(field, rows, cols, entries)


@given(st.integers(0, 10**6), st.sampled_from(FIELDS))
@settings(max_examples=60, deadline=None)
def test_rank_nullity_and_solutions(seed, field):
    rng = random.Random(seed)
    rows, cols = rng.randrange(1, 6), rng.randrange(1, 6)
    m = _random_matrix(rng, field, rows, cols, rng.randrange(0, 8))
    rank, pivots, _ = rref(m)
    basis = kernel_basis(m)
    assert rank + len(basis) == cols
    for v in basis:
        assert m.apply(v) == {}
    # a consistent rhs: image of a random vector
    x0 = {j: field.from_int(rng.randrange(1, 4)) for j in range(cols) if rng.random() < 0.5}
    b = m.apply(x0)
    x = solve(m, b)
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
    got = solve_columns(field, columns, b)
    assert got is not None
    x, extra = got
    assert extra == {}
    assert m.apply(x) == b
    # infeasible systems are rejected by both
    if rows >= 1:
        b2 = dict(b)
        fresh = SparseMatrix(field, rows + 1, cols, {(i, j): c for (i, j), c in m.entries.items()})
        b2[rows] = field.one()
        assert (solve(fresh, b2) is None) == (
            solve_columns(field, [fresh.column(j) for j in range(cols)], b2) is None
        )


def test_insertion_order_independence():
    Q = Rationals()
    entries = {(0, 0): Q.one(), (1, 1): Q.from_int(2), (0, 1): Q.from_int(3)}
    m1 = SparseMatrix(Q, 2, 2, dict(entries))
    m2 = SparseMatrix(Q, 2, 2, dict(reversed(list(entries.items()))))
    assert rref(m1) == rref(m2)
    assert kernel_basis(m1) == kernel_basis(m2)


def test_solve_in_a_basis():
    """Coordinates in a linearly independent basis are the solution for the
    matrix whose columns are the basis vectors."""
    Q = Rationals()
    basis = [{0: Q.one(), 1: Q.one()}, {1: Q.one()}]
    ech = rref(SparseMatrix.from_columns(Q, basis, 2))
    assert ech.solve({0: Q.from_int(2), 1: Q.from_int(5)}) == {0: Q.from_int(2), 1: Q.from_int(3)}
    assert rref(SparseMatrix.from_columns(Q, [basis[1]], 2)).solve({0: Q.one()}) is None


def test_solve_rejects_rhs_out_of_range():
    Q = Rationals()
    with pytest.raises(ConfigurationError):
        solve(SparseMatrix.from_dense(Q, [[1, 0]]), {1: Q.one()})


def _index_cases(field):
    """Shapes that exercise the column index of ``rref``: empty matrices,
    single rows and columns, and swaps of a pivot row into the place of a
    row with overlapping support."""
    yield SparseMatrix(field, 0, 4)
    yield SparseMatrix(field, 4, 0)
    yield SparseMatrix(field, 0, 0)
    yield SparseMatrix.from_dense(field, [[0, 2, 0, 1]])
    yield SparseMatrix.from_dense(field, [[0], [3], [1]])
    # row 0 shares columns 1, 2 with row 2, which holds the first pivot
    yield SparseMatrix.from_dense(field, [[0, 1, 1, 0], [0, 0, 1, 1], [1, 1, 2, 0]])
    # a swap at every step, with fill-in and cancellation in later columns
    yield SparseMatrix.from_dense(field, [[0, 0, 1, 1], [0, 1, 1, 0], [1, 1, 0, 1], [1, 0, 0, 1]])
    yield SparseMatrix.from_dense(field, [[1, 1, 1], [1, 1, 1], [1, 1, 1]])


@pytest.mark.parametrize("field", FIELDS + [PrimeField(7)], ids=repr)
def test_factorization_matches_reference(field):
    """The column-indexed elimination returns the pivots, the reduced matrix
    (in the same entry order) and the recorded operations of the
    scan-every-row ``reference_rref``.  One factorization answers several
    right-hand sides, consistent and inconsistent, exactly as a fresh
    reduction of [m | b] does."""
    rng = random.Random(f"echelon/{field!r}")

    def matrices():
        for _ in range(150):
            rows, cols = rng.randrange(1, 9), rng.randrange(1, 9)
            yield _random_matrix(rng, field, rows, cols, rng.randrange(0, 3 * rows * cols // 2 + 1))
        yield from _index_cases(field)

    inconsistent = 0
    for m in matrices():
        ech, ref = rref(m), reference_rref(m)
        assert ech.pivots == ref.pivots and ech._ops == ref._ops
        assert list(ech.reduced.entries.items()) == list(ref.reduced.entries.items())
        assert ech.kernel() == reference_kernel(m) == kernel_basis(m)
        for _ in range(4):
            if rng.random() < 0.5:
                x0 = {j: field.from_int(rng.randrange(1, 4)) for j in range(m.cols)}
                b = m.apply({j: c for j, c in x0.items() if rng.random() < 0.5})
            else:
                b = {i: field.from_int(rng.randrange(1, 5)) for i in range(m.rows)}
                b = {i: c for i, c in b.items() if rng.random() < 0.6 and not field.is_zero(c)}
            want = reference_solve(m, b)
            assert ech.solve(b) == ref.solve(b) == want == solve(m, b)
            if want is None:
                inconsistent += 1
            else:
                assert m.apply(want) == b
    assert inconsistent > 20


class _WrongInverse(PrimeField):
    def inv(self, a):
        return 1


def test_solve_columns_raises_when_its_check_fails():
    field = _WrongInverse(5)
    with pytest.raises(ConfigurationError):
        solve_columns(field, [{"r": 2}], {"r": 1})


def _random_scalar(rng, field):
    if field.char == 0:
        return field.from_int(rng.randint(-3, 3)) / rng.choice([1, 2, 3])
    return field.from_int(rng.randrange(field.char))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3)], ids=repr)
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


# -- the modular front of solve_columns over Q ----------------------------------


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
    """Count the eliminations that solve_columns runs over Q itself."""
    calls = []
    real = exactla._eliminate

    def spy(field, *args):
        if field.char == 0:
            calls.append(field)
        return real(field, *args)

    monkeypatch.setattr(exactla, "_eliminate", spy)
    return calls


def test_solve_columns_over_q_needs_no_exact_elimination(exact_eliminations):
    Q = Rationals()
    cols = [{0: Fraction(2, 3), 1: Fraction(1)}, {1: Fraction(-5, 7)}]
    x, extra = solve_columns(Q, cols, {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1)},
                             extra_columns=[{2: Fraction(7)}])
    assert x == {0: Fraction(3, 2), 1: Fraction(7, 5)} and extra == {0: Fraction(1, 7)}
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
    assert solve_columns(Rationals(), cols, rhs) == (want, {})
    assert len(exact_eliminations) == 1


def test_solve_columns_decides_inconsistency_exactly(exact_eliminations):
    Q = Rationals()
    assert solve_columns(Q, [{0: Fraction(1), 1: Fraction(1, 2)}], {0: Fraction(1)}) is None
    assert len(exact_eliminations) == 1


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
        got = solve_columns(m.field, columns, {("r", i): c for i, c in b.items()})
        want = solve(m, b)
        assert (got is None) == (want is None)
        if got is None:
            missing += 1
            continue
        found += 1
        x, extra = got
        assert extra == {}
        assert m.apply(x) == b
    assert found > 50 and missing > 50
