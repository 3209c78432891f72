import random
from pathlib import Path

import pytest

from hochcalc.ainf import AInfStructure
from hochcalc.algebra import dual_numbers
from hochcalc.cochain import (
    Cochain,
    cochain_basis,
    cochain_from_coords,
    cup,
    hoch_d,
    shifted_m2,
)
from hochcalc.cli import parse_input
from hochcalc.cohomology import HHContext, hh_dim, hh_space, induced_sq, normalized_class_of_full
from hochcalc.errors import DomainError, NotProvidedError, UndefinedCellError
from hochcalc.exactla import PrimeField, rref
from hochcalc.identities import random_cochain
from hochcalc.obstruction import extend_once
from hochcalc.spectral import (
    QuadraticMap,
    collapse_check,
    d1_matrix,
    d2_map,
    e1_term,
    e2_term,
    e3_term,
    multiplication_predicate,
    page_report,
    render_grid,
)


def count_cochain_dim(a, p, q):
    """Independent count of homogeneous tuples: no reuse of cochain_basis."""
    d = 1 - p - q
    from itertools import product

    total = 0
    for t in product(range(a.dim), repeat=p):
        want = sum(a.degrees[i] + 1 for i in t) + d
        total += sum(1 for k in range(a.dim) if a.degrees[k] + 1 == want)
    return total


@pytest.fixture(scope="module")
def tower_ctx(tower_f2):
    return HHContext(tower_f2)


@pytest.fixture(scope="module")
def tower_phi5(tower_f2, tower_ctx):
    sp = tower_ctx.space(3, -1)
    F = tower_f2.field
    for code in range(1, 2**sp.dim):
        coords = {j: F.one() for j in range(sp.dim) if (code >> j) & 1}
        m3 = sp.class_from_coords(coords).representative
        if not induced_sq(tower_ctx, sp.class_of(m3)).is_zero():
            continue
        s = AInfStructure(tower_f2, 4, {3: m3})
        r = extend_once(s, 3, tower_ctx)
        if r.ok:
            return r.structure
    pytest.fail("no valid A_5 fixture")


def test_e1_ground_field():
    from hochcalc.algebra import GradedAlgebra
    from hochcalc.exactla import Rationals

    k = GradedAlgebra(Rationals(), [("1", 0)], "1")
    assert e1_term(HHContext(k), 0, 0).dim == 1


def test_e1_matches_combinatorial_count(ext_q):
    a3 = dual_numbers(PrimeField(3))
    for a in (ext_q, a3):
        ctx = HHContext(a)
        for s in range(0, 5):
            for t in range(-2, 4):
                assert e1_term(ctx, s, t).dim == count_cochain_dim(a, s + 2, -t)


def test_e1_outside_support(ext_q):
    ctx = HHContext(ext_q)
    assert e1_term(ctx, 1, 12).dim == 0
    assert e1_term(ctx, -1, 0).kind == "undefined"


def test_d1_sign_and_range(ext_q):
    ctx = HHContext(ext_q)
    m = d1_matrix(ctx, 1, 2)
    # d1 = (-1)^{t-s} [m2, -]: here the sign is -1
    basis = cochain_basis(ext_q, 3, -2, normalized=False)
    dst = cochain_basis(ext_q, 4, -2, normalized=False)
    idx = {pair: n for n, pair in enumerate(dst)}
    if basis:
        elem = Cochain(ext_q, 3, 1 - 3 + 2, {basis[0][0]: {basis[0][1]: ext_q.field.one()}})
        img = hoch_d(elem)
        col = m.column(0)
        expect = {}
        for tt, vec in img.table.items():
            for kk, c in vec.items():
                expect[idx[(tt, kk)]] = ext_q.field.neg(c)
        assert col == expect
    with pytest.raises(UndefinedCellError):
        d1_matrix(ctx, 0, 0)
    with pytest.raises(UndefinedCellError):
        d1_matrix(ctx, 0, -1)


FIXTURE_ALGEBRAS = [
    "dual_numbers_f3.json",
    "dual_numbers_q.json",
    "exterior_line_q.json",
    "tower_f2_a4_extendable.json",
    "tower_f2_a4_obstructed.json",
    "tower_f2_a5_valid.json",
    "tower_q_a4_undecided.json",
]


@pytest.mark.parametrize("doc", FIXTURE_ALGEBRAS)
def test_d1_is_the_signed_full_differential(doc):
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    a = parse_input((fixtures / doc).read_text()).algebra
    ctx = HHContext(a)
    nonzero = 0
    for s in range(4):
        for t in range(4):
            if not (s >= 1 or t > s):
                continue
            m = d1_matrix(ctx, s, t)
            d = hh_space(a, s + 2, -t, normalized=False).d_out
            negate = (t - s) % 2 == 1
            assert (m.rows, m.cols) == (d.rows, d.cols)
            assert m.entries == {
                k: a.field.neg(c) if negate else c for k, c in d.entries.items()
            }
            nonzero += len(m.entries)
    assert nonzero


def test_d1_squares_to_zero(ext_q):
    ctx = HHContext(ext_q)
    for (s, t) in ((1, 0), (2, 1), (1, 2), (0, 1)):
        m1 = d1_matrix(ctx, s, t)
        m2m = d1_matrix(ctx, s + 1, t)
        for j in range(m1.cols):
            assert m2m.apply(m1.column(j)) == {}


def test_homology_of_d1_equals_hh(ext_q):
    # where the page-2 cell is cohomology (t >= s >= 1 or s >= 2), the
    # homology of the first-page differential recovers the normalized
    # pipeline dimensions
    a3 = dual_numbers(PrimeField(3))
    for a in (ext_q, a3):
        ctx = HHContext(a)
        for s in range(1, 4):
            for t in range(-1, 3):
                if not (s >= 2 or t >= s):
                    continue
                out = d1_matrix(ctx, s, t)
                inc = d1_matrix(ctx, s - 1, t) if (s - 1 >= 1 or t > s - 1 >= 0) else None
                ker = len(rref(out).kernel())
                im = rref(inc)[0] if inc is not None else 0
                assert ker - im == hh_dim(a, s + 2, -t)


def test_e2_regions(tower_ctx, tower_f2):
    cell = e2_term(tower_ctx, 1, 1)
    assert cell.kind == "vector" and cell.dim == hh_dim(tower_f2, 3, -1)
    z_cell = e2_term(tower_ctx, 0, 2)
    assert z_cell.kind == "cocycle"
    full = tower_ctx.full_space(2, -2)
    assert z_cell.dim == full.cocycle_dim()
    assert e2_term(tower_ctx, 0, 0).kind == "predicate"
    assert e2_term(tower_ctx, 0, -1).kind == "undefined"
    assert e2_term(tower_ctx, 1, 0).kind == "undefined"


def test_multiplication_predicate(dual_q):
    assert multiplication_predicate(dual_q, shifted_m2(dual_q))
    # a degree-correct but non-associative candidate fails:
    # underlying product with 1*e = 0 but e*e = 1 breaks 1*(e*e) = (1*e)*e
    F = dual_q.field
    one, e = dual_q.index["1"], dual_q.index["e"]
    bad = Cochain(
        dual_q, 2, -1,
        {(one, one): {one: F.one()}, (e, e): {one: F.one()}, (e, one): {e: F.one()}},
    )
    assert not multiplication_predicate(dual_q, bad)


def test_d2_needs_k5(tower_f2, tower_ctx):
    s4 = AInfStructure(tower_f2, 4)
    with pytest.raises(DomainError):
        d2_map(tower_ctx, s4, 2, 2)


def test_d2_sign_at_22(tower_ctx, tower_phi5):
    from hochcalc.cohomology import induced_bracket

    m = d2_map(tower_ctx, tower_phi5, 2, 2)
    m3_cls = tower_ctx.space(3, -1).class_of(tower_phi5.map(3))
    want = induced_bracket(tower_ctx, m3_cls, 4, -2)
    assert m.entries == want.entries  # (-1)^{t-s} = +1


def test_d2_not_provided_at_11(tower_ctx, tower_phi5):
    with pytest.raises(NotProvidedError):
        d2_map(tower_ctx, tower_phi5, 1, 1)
    with pytest.raises(UndefinedCellError):
        d2_map(tower_ctx, tower_phi5, 0, 0)


def test_d2_squares_to_zero_linear_cells(tower_ctx, tower_phi5):
    for s in range(1, 4):
        for t in range(-1, 4):
            try:
                m1 = d2_map(tower_ctx, tower_phi5, s, t)
            except (NotProvidedError, UndefinedCellError):
                continue
            try:
                m2m = d2_map(tower_ctx, tower_phi5, s + 2, t + 1)
            except (NotProvidedError, UndefinedCellError):
                continue
            for j in range(m1.cols):
                assert m2m.apply(m1.column(j)) == {}


def test_d2_representative_independence(tower_f2, tower_ctx, tower_phi5):
    rng = random.Random(23)
    b = random_cochain(rng, tower_f2, 2, -1, density=2)
    from hochcalc.ainf import perturb

    phi2 = perturb(tower_phi5, 3, hoch_d(b))
    for (s, t) in ((2, 0), (2, 2), (3, 0)):
        assert d2_map(tower_ctx, tower_phi5, s, t).entries == d2_map(tower_ctx, phi2, s, t).entries


def test_page_dependence_on_a5_restriction(tower_f2, tower_ctx, tower_phi5):
    phi7 = tower_phi5.with_k(7)
    for (s, t) in ((2, 0), (2, 2)):
        assert (
            d2_map(tower_ctx, tower_phi5, s, t).entries
            == d2_map(tower_ctx, phi7, s, t).entries
        )
    for (s, t) in ((2, 0), (1, 1), (0, 2)):
        assert e2_term(tower_ctx, s, t).dim == e2_term(tower_ctx, s, t).dim


def test_quadratic_cell_with_zero_massey_char_not_2():
    # {m3} = 0 away from characteristic 2: the quadratic map is zero on
    # classes, because odd-degree cup squares die
    a = dual_numbers(PrimeField(3))
    ctx = HHContext(a)
    phi = AInfStructure(a, 5)
    qm = d2_map(ctx, phi, 0, 1)
    assert isinstance(qm, QuadraticMap)
    full = ctx.full_space(2, -1)
    for vec in full.cocycles:
        z = cochain_from_coords(a, 2, -1, full.basis, vec)
        assert qm.evaluate(z).is_zero()


def test_quadratic_cell_additivity_defect(trunc_f2):
    # over F_2 the defect of additivity is the cross cup term, a coboundary
    # class difference that the evaluator reports exactly
    ctx = HHContext(trunc_f2)
    phi = AInfStructure(trunc_f2, 5)
    qm = d2_map(ctx, phi, 0, 1)
    full = ctx.full_space(2, -1)
    if len(full.cocycles) < 2:
        pytest.skip("need two cocycles")
    z1 = cochain_from_coords(trunc_f2, 2, -1, full.basis, full.cocycles[0])
    z2 = cochain_from_coords(trunc_f2, 2, -1, full.basis, full.cocycles[1])
    defect = qm.additivity_defect(z1, z2)
    cross = cup(z1, z2) + cup(z2, z1)
    want = normalized_class_of_full(ctx, -cross)
    assert defect.coords == want.coords


def test_e3_zero_massey_equals_e2_away_from_2():
    a = dual_numbers(PrimeField(3))
    ctx = HHContext(a)
    phi = AInfStructure(a, 5)
    for s in range(2, 5):
        for t in range(2, 5):
            cell3 = e3_term(ctx, phi, s, t)
            if cell3.kind != "vector":
                continue
            assert cell3.dim == e2_term(ctx, s, t).dim


def test_e3_band_formulas(tower_ctx, tower_phi5):
    from hochcalc.cohomology import induced_bracket

    m3_cls = tower_ctx.space(3, -1).class_of(tower_phi5.map(3))
    for t in (2, 3):
        cell = e3_term(tower_ctx, tower_phi5, 1, t)
        m = induced_bracket(tower_ctx, m3_cls, 3, -t)
        assert cell.dim == len(rref(m).kernel())
        cell0 = e3_term(tower_ctx, tower_phi5, 0, t)
        m0 = induced_bracket(tower_ctx, m3_cls, 2, -t)
        full = tower_ctx.full_space(2, -t)
        assert cell0.dim == len(rref(m0).kernel()) + full.coboundary_dim()
        assert cell0.kind == "cocycle"


def test_e3_undefined_and_predicate_cells(tower_ctx, tower_phi5):
    assert e3_term(tower_ctx, tower_phi5, 3, 2).kind == "undefined"
    assert e3_term(tower_ctx, tower_phi5, 2, 1).kind == "undefined"
    assert e3_term(tower_ctx, tower_phi5, 1, 1).kind == "predicate"
    assert e3_term(tower_ctx, tower_phi5, 0, 0).kind == "predicate"


def test_e3_sandwich(tower_ctx, tower_phi5):
    for s in range(2, 5):
        for t in range(2, 5):
            c3 = e3_term(tower_ctx, tower_phi5, s, t)
            if c3.kind == "vector":
                assert c3.dim <= e2_term(tower_ctx, s, t).dim


def test_page_report_and_grid(tower_ctx, tower_phi5):
    rep = page_report(tower_ctx, tower_phi5, 2, ((0, 3), (0, 3)))
    assert rep["cells"][(0, 0)].kind == "predicate"
    grid = render_grid(rep)
    assert "t\\s" in grid and "P*" in grid


def test_collapse_check_flags_hypothesis_failure(tower_f2, tower_ctx):
    sp = tower_ctx.space(3, -1)
    F = tower_f2.field
    bad = None
    for code in range(1, 2**sp.dim):
        coords = {j: F.one() for j in range(sp.dim) if (code >> j) & 1}
        cls = sp.class_from_coords(coords)
        if not induced_sq(tower_ctx, cls).is_zero():
            bad = cls.representative
            break
    assert bad is not None
    # force a k = 5 structure carrying this class: not valid, so build the
    # check directly on a valid structure with the bad class at m3 is not
    # possible; instead check that collapse verdicts flag the square
    phi_bad = AInfStructure(tower_f2, 5, {3: bad})
    from hochcalc.ainf import is_valid

    if is_valid(phi_bad):
        # the structure is invalid, the checker refuses it
        with pytest.raises(Exception):
            collapse_check(tower_ctx, phi_bad, ((2, 3), (2, 3)))
    else:
        res = collapse_check(tower_ctx, phi_bad, ((2, 3), (2, 3)))
        assert not res["sq_vanishes"]
        assert res["e3_vanishes_on_window"] is None


def test_collapse_check_vacuous_window(tower_ctx, tower_phi5):
    # a window where every touched cohomology block is zero: hypotheses
    # hold vacuously and the page-3 cells confirm zero cell by cell
    res = collapse_check(tower_ctx, tower_phi5, ((2, 4), (6, 8)))
    assert res["sq_vanishes"]
    assert res["cup_bijective_on_window"]
    assert res["e3_vanishes_on_window"] is True
    assert all(c.dim == 0 for c in res["e3_cells"].values() if c.kind == "vector")
