import json
import random
from pathlib import Path

import pytest

import hochcalc.cochain as cochain
import hochcalc.cohomology as cohomology

from hochcalc.algebra import GradedAlgebra, dual_numbers, square_zero_tower, truncated_skew_laurent
from hochcalc.cli import main, parse_input
from hochcalc.cochain import (
    Cochain,
    beta_cochain,
    bracket,
    cochain_from_coords,
    coords_of_cochain,
    cup,
    euler_delta,
    hoch_d,
    q_support,
)
from hochcalc.cohomology import (
    CochainComplex,
    HHContext,
    cup_bijectivity_window,
    induced_bracket,
    induced_sq,
)
from hochcalc.errors import DomainError
from hochcalc.exactla import PrimeField, Rationals, SparseMatrix, rref
from hochcalc.identities import random_cochain
from oracles import (
    hh_dim,
    reference_bracket_hoch_d,
    reference_normalized_class,
    reference_pivot_complement,
    reference_rref,
    reference_solve,
    zero_class,
)

# dimensions frozen from the independent full-bar run (the classical values
# for these algebras); both pipelines must keep reproducing them.
DUAL_CHAR3_HHP0 = [2, 1, 1, 1, 1]
DUAL_CHAR2_HHP0 = [2, 2, 2, 2, 2]
EXT_Q_DIMS = {
    0: {-1: 1, 0: 1},
    1: {0: 1, 1: 1},
    2: {1: 1, 2: 1},
    3: {2: 1, 3: 1},
    4: {3: 1, 4: 1},
}


def test_ground_field_hh00():
    QQ = Rationals()
    from hochcalc.algebra import GradedAlgebra

    k = GradedAlgebra(QQ, [("1", 0)], "1")
    assert hh_dim(k, 0, 0) == 1


def test_dual_numbers_dims_frozen():
    for char, expect in ((3, DUAL_CHAR3_HHP0), (2, DUAL_CHAR2_HHP0)):
        a = dual_numbers(PrimeField(char))
        got_norm = [hh_dim(a, p, 0, normalized=True) for p in range(5)]
        got_full = [hh_dim(a, p, 0, normalized=False) for p in range(5)]
        assert got_norm == expect
        assert got_full == expect


def test_exterior_dims_frozen(ext_q):
    for p, qdims in EXT_Q_DIMS.items():
        for q in q_support(ext_q, p):
            want = qdims.get(q, 0)
            assert hh_dim(ext_q, p, q, normalized=True) == want
            assert hh_dim(ext_q, p, q, normalized=False) == want


def test_empty_bidegree_is_zero(dual_q):
    assert hh_dim(dual_q, 2, 5) == 0


def test_rank_identities(trunc_f2):
    sp = CochainComplex(trunc_f2, -1).space(3)
    assert sp.dim == len(sp.cocycles) - len(sp.coboundaries)
    assert len(sp.cocycles) == len(sp.basis) - rref(sp.d_out)[0]


@pytest.mark.parametrize("field", [PrimeField(3), Rationals()], ids=repr)
@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "full"])
def test_hh_bases_and_solves_match_reference(field, normalized):
    """Bases, class coordinates and coboundary witnesses agree with fresh
    reductions, in both pipelines."""
    a = truncated_skew_laurent(field, 3 if field.char else 2)
    rng = random.Random(f"hh-oracle/{field!r}/{normalized}")
    for p in range(4):
        for q in q_support(a, p):
            sp = CochainComplex(a, q, normalized).space(p)
            assert sp.hh_vectors == reference_pivot_complement(sp)
            class_matrix = SparseMatrix(field, len(sp.basis), sp.coboundaries + sp.hh_vectors)
            index_in = {pair: n for n, pair in enumerate(sp.basis_in)}
            for _ in range(3):
                coords = {}
                for v in rng.sample(sp.cocycles, min(3, len(sp.cocycles))):
                    for j, c in v.items():
                        coords[j] = field.add(coords.get(j, field.zero()), c)
                coords = {j: c for j, c in coords.items() if not field.is_zero(c)}
                z = cochain_from_coords(a, p, q, sp.basis, coords)
                k = len(sp.coboundaries)
                x = reference_solve(class_matrix, coords)
                assert sp.class_of(z).coords == {j - k: c for j, c in x.items() if j >= k}
                if p == 0:
                    continue
                w = sp.is_coboundary(z)
                x = reference_solve(sp.d_in, coords)
                assert (w is None) == (x is None)
                if w is not None:
                    assert coords_of_cochain(w, sp.basis_in, index_in) == x


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), Rationals()], ids=repr)
@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "full"])
def test_classes_and_witnesses_of_shifted_cocycles(field, normalized):
    """On every cell, for a seeded cochain b one arity down, hoch_d(b) is a
    coboundary whose witness is the one a fresh reduction of [d_in | z]
    gives, and a class representative shifted by hoch_d(b) keeps its
    class."""
    a = truncated_skew_laurent(field, 3 if field.char else 2)
    rng = random.Random(f"shifted/{field!r}/{normalized}")

    def scalar():
        return field.from_int(rng.choice([-2, -1, 1, 2, 3]))

    bounded = 0
    for p in range(4):
        for q in q_support(a, p):
            sp = CochainComplex(a, q, normalized).space(p)
            index_in = {pair: n for n, pair in enumerate(sp.basis_in)}
            for _ in range(3):
                picks = rng.sample(range(len(sp.basis_in)), min(3, len(sp.basis_in)))
                b = cochain_from_coords(a, p - 1, q, sp.basis_in, {n: scalar() for n in picks})
                z = hoch_d(b)
                cls = sp.class_from_coords({j: scalar() for j in range(sp.dim) if rng.random() < 0.6})
                assert sp.class_of(cls.representative + z).coords == cls.coords
                if p == 0:
                    continue
                w = sp.is_coboundary(z)
                want = reference_solve(sp.d_in, coords_of_cochain(z, sp.basis, sp.index))
                assert coords_of_cochain(w, sp.basis_in, index_in) == want
                assert (hoch_d(w) - z).is_zero()
                bounded += not z.is_zero()
                if cls.coords:
                    assert sp.is_coboundary(cls.representative + z) is None
    assert bounded > 10


def test_class_of_coboundary_is_zero(ext_q):
    ctx = HHContext(ext_q)
    rng = random.Random(7)
    f = random_cochain(rng, ext_q, 1, 0)
    z = hoch_d(f)
    assert ctx.class_of(z).is_zero()
    assert ctx.class_of(Cochain(ext_q, 2, -1)).is_zero()


def test_class_of_rejects_non_cocycles(ext_q):
    one, u = ext_q.index["1"], ext_q.index["u"]
    f = Cochain(ext_q, 1, 1, {(one,): {u: ext_q.field.one()}})
    assert not hoch_d(f).is_zero() and not f.is_normalized()
    with pytest.raises(DomainError, match="not a cocycle") as err:
        HHContext(ext_q).class_of(f)
    assert err.value.witness is not None


def test_euler_class_nonzero_on_exterior(ext_q):
    ctx = HHContext(ext_q)
    cls = ctx.class_of(euler_delta(ext_q))
    assert ctx.space(1, 0).dim == 1
    assert not cls.is_zero()


def test_is_coboundary_witness_roundtrip(ext_q):
    ctx = HHContext(ext_q)
    rng = random.Random(11)
    f = random_cochain(rng, ext_q, 2, 1)
    z = hoch_d(f)
    b = ctx.is_coboundary(z)
    assert b is not None and (hoch_d(b) - z).is_zero()
    zero = Cochain(ext_q, 3, 1)
    b0 = ctx.is_coboundary(zero)
    assert b0 is not None and b0.is_zero()


def test_euler_cup_square_witness_is_minus_beta(ext_q):
    ctx = HHContext(ext_q)
    d = euler_delta(ext_q)
    w = ctx.is_coboundary(cup(d, d))
    assert w == -beta_cochain(ext_q)


def test_induced_bracket_of_zero_class(tower_f2):
    ctx = HHContext(tower_f2)
    z = zero_class(ctx.space(3, -1))
    m = induced_bracket(ctx, z, 3, -1)
    assert not any(m.columns) and m.cols == ctx.space(3, -1).dim


def test_induced_bracket_euler_is_q(trunc_f3):
    # bracketing with the Euler class multiplies HH^{p,q} by q
    ctx = HHContext(trunc_f3)
    d_cls = ctx.class_of(euler_delta(trunc_f3))
    field = trunc_f3.field
    for (p, q) in ((2, -1), (3, -1), (2, -2)):
        sp = ctx.space(p, q)
        if sp.dim == 0:
            continue
        m = induced_bracket(ctx, d_cls, p, q)
        assert m == SparseMatrix(field, sp.dim, [{j: q} for j in range(sp.dim)])


def test_induced_bracket_representative_independence(tower_f2):
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    cls = sp.class_from_coords({0: tower_f2.field.one()})
    m1 = induced_bracket(ctx, cls, 3, -1)
    rng = random.Random(3)
    f = random_cochain(rng, tower_f2, 2, -1, density=2)
    shifted = sp.class_of(cls.representative + hoch_d(f))
    assert shifted.coords == cls.coords
    m2 = induced_bracket(ctx, shifted, 3, -1)
    # same matrix after re-representing the class
    cls2 = sp.class_from_coords(shifted.coords)
    m3 = induced_bracket(ctx, cls2, 3, -1)
    assert m1 == m3 == m2


def test_induced_sq_zero_and_distributivity(tower_f2):
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    F = tower_f2.field
    assert induced_sq(ctx, zero_class(sp)).is_zero()
    x = sp.class_from_coords({0: F.one()})
    y = sp.class_from_coords({1: F.one()})
    lhs = induced_sq(ctx, sp.class_of(x.representative + y.representative))
    rhs_rep = (
        induced_sq(ctx, x).representative
        + induced_sq(ctx, y).representative
        + bracket(x.representative, y.representative)
    )
    assert lhs.coords == ctx.class_of(rhs_rep).coords


def test_cohomology_cup_factors_through_euler(tower_f2):
    # y cup x = [y, {d} cup x] + {d} cup [y, x] for y of bidegree (3,-1)
    ctx = HHContext(tower_f2)
    F = tower_f2.field
    d = euler_delta(tower_f2)
    y = ctx.space(3, -1).class_from_coords({0: F.one(), 3: F.one()}).representative
    for (p, q) in ((3, -1), (2, -2)):
        sp = ctx.space(p, q)
        for rep in sp.hh_reps:
            lhs = cup(y, rep)
            rhs = bracket(y, cup(d, rep)) + cup(d, bracket(y, rep))
            target = ctx.space(p + 3, q - 1)
            assert target.class_of(lhs).coords == target.class_of(rhs).coords


def test_euler_class_kills_invertible_degrees():
    # when the Euler class is trivial, cohomology dies in internal degrees
    # invertible in the field
    a = dual_numbers(PrimeField(3))
    ctx = HHContext(a)
    assert euler_delta(a).is_zero()
    for p in range(4):
        for q in (-2, -1, 1, 2):
            assert ctx.space(p, q).dim == 0


def test_cup_bijectivity_window_verdicts(tower_f2, trunc_f2):
    ctx = HHContext(trunc_f2)
    zero = zero_class(ctx.space(3, -1))
    # both spaces nonzero on the truncated skew algebra: the zero class is
    # neither injective nor surjective
    rep = cup_bijectivity_window(ctx, zero, [2], [0])
    assert rep[(2, 0)]["verdict"] == "neither"
    # source nonzero, target zero: surjective only
    ctx2 = HHContext(tower_f2)
    zero2 = zero_class(ctx2.space(3, -1))
    rep2 = cup_bijectivity_window(ctx2, zero2, [2], [-2])
    assert rep2[(2, -2)]["verdict"] == "surjective-only"
    # both spaces zero: vacuously bijective
    rep3 = cup_bijectivity_window(ctx2, zero2, [2], [-9])
    assert rep3[(2, -9)]["verdict"] == "bijective"
    with pytest.raises(DomainError):
        cup_bijectivity_window(ctx2, zero_class(ctx2.space(1, 0)), [2], [0])


def test_class_of_full_cocycle_agrees(trunc_f3):
    """A (3, -1) class plus the boundary of a full (2, -1) cochain is not
    normalized; ``HHContext.class_of`` reads it in the full space and
    carries it back to the class it started from."""
    ctx = HHContext(trunc_f3)
    sp = ctx.space(3, -1)
    cls = sp.class_from_coords({j: trunc_f3.field.one() for j in range(sp.dim)})
    rng = random.Random(19)
    full_f = random_cochain(rng, trunc_f3, 2, -1, density=3, normalized=False)
    z = cls.representative + hoch_d(full_f)
    assert not z.is_normalized()
    assert ctx.class_of(z).coords == cls.coords
    assert ctx.class_of(z).space is sp


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), Rationals()], ids=repr)
def test_class_of_full_cocycles_matches_reference(field):
    """At (2, -1), (2, -2), (3, -1) and (3, -2) of tsl(F, 4), a class
    representative plus the boundary of a seeded full cochain is read by
    ``HHContext.class_of`` as that class, as a fresh solve for a homologous
    normalized cocycle reads it, whenever the sum is not normalized."""
    a = truncated_skew_laurent(field, 4)
    ctx = HHContext(a)
    rng = random.Random(f"class-of-full/{field!r}")

    def scalar():
        return field.from_int(rng.choice([-2, -1, 1, 2, 3]))

    read = 0
    for p, q in [(2, -1), (2, -2), (3, -1), (3, -2)]:
        full, sp = ctx.full_space(p, q), ctx.space(p, q)
        for _ in range(24):
            picks = rng.sample(range(len(full.basis_in)), 3)
            b = cochain_from_coords(a, p - 1, q, full.basis_in, {n: scalar() for n in picks})
            cls = sp.class_from_coords({j: scalar() for j in range(sp.dim) if rng.random() < 0.6})
            z = cls.representative + hoch_d(b)
            if z.is_normalized():
                continue
            got = ctx.class_of(z)
            assert got.coords == cls.coords == reference_normalized_class(ctx, z).coords
            read += 1
    assert read >= 40


def test_neighbouring_cells_share_one_differential(tower_f2, ext_q):
    for a in (tower_f2, ext_q):
        ctx = HHContext(a)
        for space in (ctx.space, ctx.full_space):
            for p in range(3):
                for q in q_support(a, p):
                    assert space(p, q).d_out is space(p + 1, q).d_in
        assert ctx.space(0, 0).d_in.cols == 0 and ctx.space(0, 0).basis_in == []


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "full"])
def test_neighbouring_cells_share_one_factorization(normalized):
    """d(p) is factored once per column: its kernel is the cocycle basis at
    (p, q), the same Echelon decides coboundaries at (p + 1, q), and the
    columns of d(p) at its pivots are a basis of the coboundaries there."""
    a = truncated_skew_laurent(PrimeField(3), 3)
    field = a.field
    ctx = HHContext(a)
    space = ctx.space if normalized else ctx.full_space
    for p in range(3):
        for q in q_support(a, p):
            column = ctx.column(q, normalized)
            here, up = space(p, q), space(p + 1, q)
            assert up._d_in_echelon is column.echelon(p)
            assert here.cocycles == column.echelon(p).kernel()
            cocycles = SparseMatrix(field, len(up.basis), up.cocycles)
            cobs = SparseMatrix(field, len(up.basis), up.coboundaries)
            assert all(reference_solve(cocycles, b) is not None for b in up.coboundaries)
            assert reference_rref(cobs).rank == len(up.coboundaries) == reference_rref(up.d_in).rank
            assert all(reference_solve(cobs, col) is not None for col in up.d_in.columns)
            assert up.hh_vectors == reference_pivot_complement(up)


@pytest.mark.parametrize("field", [PrimeField(3), Rationals()], ids=repr)
def test_column_echelons_match_reference_rref(field):
    """Each factored differential d(p), p <= 3, of the columns of
    truncated_skew_laurent(field, 3) has the rank, the pivots and the pivot
    rows of the Gauss-Jordan reference, on matrices of the size the hh
    command meets."""
    a = truncated_skew_laurent(field, 3)
    for q in sorted({q for p in range(4) for q in q_support(a, p)}):
        column = CochainComplex(a, q)
        for p in range(4):
            ech = column.echelon(p)
            assert (ech.rank, ech.pivots, ech.rows) == reference_rref(column.d(p))


def test_hh_factors_each_differential_once(monkeypatch, tmp_path):
    """One `hh --p-max 3 --bases` run calls rref once per differential
    d(p), and once more per space for its pivot complement; each column
    keeps only the differential its next cell reads."""
    calls, columns, ds = [], [], []
    monkeypatch.setattr(cohomology, "rref", lambda m: calls.append(m) or rref(m))
    init, d = CochainComplex.__init__, CochainComplex.d

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        columns.append(self)

    def recording_d(self, p):
        m = d(self, p)
        if not any(m is seen for seen in ds):
            ds.append(m)
        return m

    monkeypatch.setattr(CochainComplex, "__init__", recording_init)
    monkeypatch.setattr(CochainComplex, "d", recording_d)
    fixture = Path(__file__).resolve().parent.parent / "fixtures" / "tower_f2_a5_valid.json"
    out = tmp_path / "report.json"
    assert main(["--in", str(fixture), "--out", str(out), "hh", "--p-max", "3", "--bases"]) == 0
    spaces = json.loads(out.read_text())["results"]["spaces"]
    assert len(ds) > len(columns) > 1
    assert all(sum(m is d for m in calls) == 1 for d in ds)
    assert len(calls) == len(ds) + len(spaces)
    assert all(len(column._ds) == len(column._echelons) == 1 for column in columns)


# -- differential oracles on random small algebras ------------------------------


def truncated_polynomial(field, n: int, degree: int) -> GradedAlgebra:
    """k[x]/(x^n) with |x| = degree."""
    names = ["1"] + [f"x{i}" for i in range(1, n)]
    basis = [(name, i * degree) for i, name in enumerate(names)]
    products = {
        (names[i], names[j]): {names[i + j]: field.one()} if i + j < n else {}
        for i in range(1, n)
        for j in range(1, n)
    }
    return GradedAlgebra(field, basis, "1", products)


def small_algebras(field, seed: int):
    """A seeded square-zero tower with a generator in negative degree, a
    seeded truncated polynomial algebra, and tsl(field, 2); all structure
    constants are integers, so the same draw gives the same algebra over
    every field."""
    rng = random.Random(seed)
    tower = sorted({rng.randint(-3, -1), rng.randint(0, 4)})
    return [
        square_zero_tower(field, tower),
        truncated_polynomial(field, rng.randint(2, 4), rng.randint(-2, 3)),
        truncated_skew_laurent(field, 2),
    ]


def column_dims(a, normalized: bool, p_max: int = 3) -> dict:
    """dim HH^{p,q} for p <= p_max and every q in q_support, from one
    cochain complex per column, checking d(p+1) d(p) = 0 on the way."""
    qs = sorted({q for p in range(p_max + 1) for q in q_support(a, p)})
    dims = {}
    for q in qs:
        column = CochainComplex(a, q, normalized)
        for p in range(-1, p_max):
            first, second = column.d(p), column.d(p + 1)
            assert second.cols == first.rows
            for col in first.columns:
                assert second.apply(col) == {}
        for p in range(p_max + 1):
            dims[p, q] = column.space(p).dim
    return dims


@pytest.mark.parametrize("seed", range(6))
def test_random_small_algebras_agree_across_pipelines_and_fields(seed):
    fields = (Rationals(), PrimeField(2), PrimeField(3))
    dims = {}
    for field in fields:
        for n, a in enumerate(small_algebras(field, seed)):
            for normalized in (True, False):
                dims[field.char, n, normalized] = column_dims(a, normalized)
    for (char, n, normalized), got in dims.items():
        # the normalized complex computes the cohomology of the full one
        assert got == dims[char, n, False]
        # semicontinuity: reducing integral structure constants mod p can
        # only raise dimensions
        rational = dims[0, n, normalized]
        assert all(got[cell] >= rational[cell] for cell in rational)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_algebras():
    """The algebra of every CLI input document in fixtures/ (the section8
    generators file is not one)."""
    return [parse_input(path.read_text()).algebra for path in sorted(FIXTURES.glob("*.json"))
            if "field" in json.loads(path.read_text())]


def assert_d_matches_bracket_form(a, p_max: int = 3):
    """Every d(p), p <= p_max, of both pipelines equals the matrix whose
    column j is the brace form [m2, -] of basis element j, in coordinates."""
    one = a.field.one()
    for q in sorted({q for p in range(p_max + 1) for q in q_support(a, p)}):
        for normalized in (True, False):
            column = CochainComplex(a, q, normalized)
            for p in range(p_max + 1):
                basis, target = column.basis(p)[0], column.basis(p + 1)
                elems = [Cochain(a, p, 1 - p - q, {t: {k: one}}) for t, k in basis]
                cols = [coords_of_cochain(reference_bracket_hoch_d(f), *target) for f in elems]
                assert column.d(p) == SparseMatrix(a.field, len(target[0]), cols)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=repr)
def test_assembled_d_matches_bracket_form(field):
    for a in small_algebras(field, field.char) + [truncated_skew_laurent(field, 3)]:
        assert_d_matches_bracket_form(a)


def test_assembled_d_matches_bracket_form_on_fixtures():
    algebras = fixture_algebras()
    assert {a.field.char for a in algebras} == {0, 2, 3}
    for a in algebras:
        assert_d_matches_bracket_form(a)


def test_assembled_matrices_are_their_validated_columns_on_fixtures():
    """Every d(p), p <= 3, of both pipelines and the induced bracket of
    every basis class of HH^{2,*} on HH^{2,*}, on the fixture algebras,
    equals the matrix the validating constructor builds from its columns:
    d(p) is assembled without that pass.  ``entries`` is the (row,
    col)-keyed view of the columns."""
    nonzero_brackets = 0
    for a in fixture_algebras():
        ctx = HHContext(a)
        matrices = [ctx.column(q, normalized).d(p) for normalized in (True, False)
                    for p in range(4) for q in q_support(a, p)]
        for qz in q_support(a, 2):
            sp = ctx.space(2, qz)
            for j in range(sp.dim):
                z = sp.class_from_coords({j: a.field.one()})
                for q in q_support(a, 2):
                    m = induced_bracket(ctx, z, 2, q)
                    nonzero_brackets += any(m.columns)
                    matrices.append(m)
        for m in matrices:
            assert SparseMatrix(a.field, m.rows, m.columns) == m
            assert m.entries == {(i, j): c for j, col in enumerate(m.columns)
                                 for i, c in col.items()}
    assert nonzero_brackets > 10


def test_assembled_key_outside_the_basis_raises(ext_q):
    # a column of the normalized pipeline fed the full basis at p = 1: the
    # walk of [m2, -] on a cochain that does not vanish on the unit has
    # entries on the unit, which the normalized basis at p = 2 lacks
    column = CochainComplex(ext_q, 0, True)
    column._bases[1] = CochainComplex(ext_q, 0, False).basis(1)
    with pytest.raises(DomainError, match="outside the enumerated basis"):
        column.d(1)
    assert 1 not in column._ds  # no matrix is kept from a failed assembly


def test_coordinates_round_trip_on_fixtures():
    """On the fixture algebras, in both pipelines, every HH representative
    and every cocycle basis vector at p <= 3 goes to its basis coordinates
    and back to itself, and its table regroups from its flat coordinates."""
    for a in fixture_algebras():
        for normalized in (True, False):
            ctx = HHContext(a)
            for p in range(4):
                for q in q_support(a, p):
                    sp = ctx._space(p, q, normalized)
                    reps = list(zip(sp.hh_reps, sp.hh_vectors)) + [
                        (cochain_from_coords(a, p, q, sp.basis, v), v) for v in sp.cocycles
                    ]
                    for z, v in reps:
                        coords = coords_of_cochain(z, sp.basis, sp.index)
                        assert coords == v == coords_of_cochain(z, sp.basis)
                        assert cochain_from_coords(a, p, q, sp.basis, coords) == z
                        assert cochain._table(dict(z.coordinates())) == z.table


def test_coordinates_of_a_cochain_on_the_unit_raise(ext_q):
    """A cochain with an entry on the unit has no coordinates in the
    normalized basis: the error names that entry as its witness."""
    p, q = 1, 0
    full, (norm_basis, norm_index) = (CochainComplex(ext_q, q, n).basis(p) for n in (False, True))
    one = ext_q.field.one()
    on_unit = [pair for pair in full[0] if ext_q.unit in pair[0]]
    assert on_unit and norm_basis
    for t, k in on_unit:
        z = Cochain(ext_q, p, 1 - p - q, {norm_basis[0][0]: {norm_basis[0][1]: one}, t: {k: one}})
        assert coords_of_cochain(z, *full) == {full[1][norm_basis[0]]: one, full[1][t, k]: one}
        with pytest.raises(DomainError, match="outside the enumerated basis") as err:
            coords_of_cochain(z, norm_basis, norm_index)
        assert err.value.witness == (t, k)
