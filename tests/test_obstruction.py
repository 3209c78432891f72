import random
from pathlib import Path

import pytest

from hochcalc.ainf import AInfStructure, is_valid, perturb, stasheff_residual
from hochcalc.cochain import bracket, brace, cochain_from_coords, hoch_d
from hochcalc.cohomology import HHContext, induced_sq
from hochcalc.errors import ConfigurationError, DomainError, UnsupportedDepthError
from hochcalc.exactla import vec_combine
from hochcalc.identities import random_cochain
from hochcalc.obstruction import (
    allowed_depths,
    extend_once,
    extend_to,
    obstruction_cocycle,
    obstruction_report,
    page2_witness,
    theta_page2,
    theta_page3_check,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def cocycle_from_code(space, code):
    field = space.algebra.field
    coords = {j: field.one() for j in range(space.dim) if (code >> j) & 1}
    return space.class_from_coords(coords).representative


def test_obstruction_cocycle_k4_formula(trunc_f2):
    ctx = HHContext(trunc_f2)
    rng = random.Random(1)
    sp = ctx.space(3, -1)
    m3 = cocycle_from_code(sp, 0b101)
    m4 = random_cochain(rng, trunc_f2, 4, -2, density=3)
    s = AInfStructure(trunc_f2, 4, {3: m3, 4: m4})
    z = obstruction_cocycle(s)
    want = bracket(s.map(2), m4) + brace(m3, [m3])
    assert (z - want).is_zero()
    assert hoch_d(z).is_zero()


def test_obstruction_zero_for_trivial(dual_q):
    s = AInfStructure(dual_q, 4)
    assert obstruction_cocycle(s).is_zero()


def test_si6_with_zero_middle_maps(trunc_f2):
    # m4 = m5 = 0 forces SI(6) = [m3, m4] + [m2, m5] = 0
    ctx = HHContext(trunc_f2)
    m3 = cocycle_from_code(ctx.space(3, -1), 0b1)
    s = AInfStructure(trunc_f2, 5, {3: m3})
    if is_valid(s):
        pytest.skip("this class does not extend by zero")
    assert stasheff_residual(s, 6).is_zero()


def test_theta_page2_is_square_of_massey(trunc_f2, trunc_f3):
    for a in (trunc_f2, trunc_f3):
        ctx = HHContext(a)
        sp = ctx.space(3, -1)
        rng = random.Random(5)
        field = a.field
        for _ in range(4):
            coords = vec_combine(
                field, [(field.from_int(rng.randrange(field.char)), v) for v in sp.cocycles]
            )
            m3 = cochain_from_coords(a, 3, -1, sp.basis, coords)
            m4 = random_cochain(rng, a, 4, -2, density=2)
            s = AInfStructure(a, 4, {n: f for n, f in ((3, m3), (4, m4)) if not f.is_zero()})
            theta = theta_page2(s, ctx)
            assert theta.coords == induced_sq(ctx, sp.class_of(m3)).coords


def test_page2_shift_under_perturbation(trunc_f2):
    # perturbing m_k changes the obstruction cocycle by exactly [m2, b]
    ctx = HHContext(trunc_f2)
    rng = random.Random(7)
    m3 = cocycle_from_code(ctx.space(3, -1), 0b11)
    s = AInfStructure(trunc_f2, 4, {3: m3})
    b = random_cochain(rng, trunc_f2, 4, -2, density=3)
    from hochcalc.ainf import perturb

    s2 = perturb(s, 4, b)
    z1 = obstruction_cocycle(s)
    z2 = obstruction_cocycle(s2)
    assert (z2 - z1 - hoch_d(b)).is_zero()


def test_allowed_depths_bounds():
    assert allowed_depths(3) == [3, 2]
    assert allowed_depths(4) == [4, 3]
    assert allowed_depths(5) == [5, 4, 3]
    assert allowed_depths(6) == [6, 5, 4]


def test_extend_once_depth_guard(tower_f2):
    ctx = HHContext(tower_f2)
    s = AInfStructure(tower_f2, 4)
    with pytest.raises(UnsupportedDepthError, match="obstruction-theory range"):
        extend_once(s, 2, ctx)  # below the theory bound (k + 2) // 2 = 3 for k = 4
    s6 = AInfStructure(tower_f2, 6)
    with pytest.raises(UnsupportedDepthError, match="obstruction-theory range"):
        extend_once(s6, 3, ctx)  # below the theory bound 4 = k - 2 for k = 6
    s7 = AInfStructure(tower_f2, 7)
    with pytest.raises(UnsupportedDepthError, match="below the implemented range"):
        extend_once(s7, 4, ctx)  # within the theory bound 4, below k - 2 = 5


def test_extend_once_depth_k_needs_vanishing_cochain(tower_f2):
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    # classes with nonzero square cannot extend at any depth keeping m3
    for code in range(1, 2**sp.dim):
        m3 = cocycle_from_code(sp, code)
        if induced_sq(ctx, sp.class_of(m3)).is_zero():
            continue
        s = AInfStructure(tower_f2, 4, {3: m3})
        assert not extend_once(s, 4, ctx).ok
        r = extend_once(s, 3, ctx)
        assert not r.ok
        assert not r.report.page2_vanishes
        return
    pytest.fail("no class with nonzero square")


def test_extend_once_success_revalidates(tower_f2):
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    for code in range(1, 2**sp.dim):
        m3 = cocycle_from_code(sp, code)
        if not induced_sq(ctx, sp.class_of(m3)).is_zero():
            continue
        s = AInfStructure(tower_f2, 4, {3: m3})
        r = extend_once(s, 3, ctx)
        assert r.ok
        out = r.structure
        assert out.k == 5
        assert is_valid(out) == []
        # agreement below the depth: m3 untouched
        assert (out.map(3) - m3).is_zero()
        return
    pytest.fail("no extendable nonzero class")


def test_zero_obstruction_groups_extend_forever(dual_q):
    # all recipients vanish for the degree-0 dual numbers
    s = AInfStructure(dual_q, 3)
    ctx = HHContext(dual_q)
    for k in range(3, 8):
        assert ctx.space(k + 1, 2 - k).dim == 0
    result = extend_to(s, 8, ctx)
    assert result.ok and result.structure.k == 8
    assert result.structure.maps == {}
    assert is_valid(result.structure) == []


def test_page3_trivial_when_page2_dies(trunc_f2):
    ctx = HHContext(trunc_f2)
    sp = ctx.space(3, -1)
    for code in range(2**sp.dim):
        m3 = cocycle_from_code(sp, code)
        s = AInfStructure(trunc_f2, 4, {3: m3} if not m3.is_zero() else {})
        theta = theta_page2(s, ctx)
        if theta.is_zero():
            status = theta_page3_check(s, ctx)
            assert status.kind == "vanishes"
            assert status.b_prev.is_zero()
            return
    pytest.fail("no vanishing page-2 class found")


def _corrupt_coboundary_solves(monkeypatch, rng):
    """Make every solve of ``HHSpace.is_coboundary`` return a wrong vector:
    its answer with one coordinate moved by 1."""
    import hochcalc.cohomology as cohomology

    real = cohomology.solve_columns_many

    def corrupted(field, columns, rhss):
        ys = real(field, columns, rhss)
        if not columns:
            return ys
        moved = [(rng.randrange(len(columns)), field.one())]
        return [y if y is None else field.add_into(dict(y), moved) for y in ys]

    monkeypatch.setattr(cohomology, "solve_columns_many", corrupted)


@pytest.mark.parametrize("code, theta_zero", [(0b1, True), (0b101, False)])
def test_page3_vanishes_rechecks_a_corrupted_witness(trunc_f2, monkeypatch, code, theta_zero):
    """Every page-3 "vanishes" re-checks hoch_d(b_top) exactly, in the
    theta = 0 branch and in the enumeration: a b_top from a wrong solve
    raises instead of being reported."""
    ctx = HHContext(trunc_f2)
    m3 = cocycle_from_code(ctx.space(3, -1), code)
    s = AInfStructure(trunc_f2, 4, {3: m3})
    assert theta_page2(s, ctx).is_zero() == theta_zero
    assert theta_page3_check(s, ctx).kind == "vanishes"
    _corrupt_coboundary_solves(monkeypatch, random.Random(code))
    with pytest.raises(ConfigurationError):
        theta_page3_check(s, ctx)


def test_page3_enumeration_that_lifts_nothing_is_an_internal_error(trunc_f2, monkeypatch):
    """The k = 4 enumeration over F_p reaches -[m_3], which always lifts, so
    an enumeration that lifts no class raises instead of reporting
    "nonzero"."""
    from hochcalc.cohomology import HHSpace

    ctx = HHContext(trunc_f2)
    s = AInfStructure(trunc_f2, 4, {3: cocycle_from_code(ctx.space(3, -1), 0b101)})
    assert not theta_page2(s, ctx).is_zero()
    monkeypatch.setattr(HHSpace, "is_coboundary", lambda space, z: None)
    with pytest.raises(DomainError, match="lift failed"):
        theta_page3_check(s, ctx)


def test_is_coboundary_rechecks_its_witness(trunc_f2, monkeypatch):
    """``is_coboundary`` checks hoch_d(b) = z exactly: a wrong solve raises,
    on a random coboundary and for the page-2 witness."""
    ctx = HHContext(trunc_f2)
    rng = random.Random("is-coboundary")
    space = ctx.space(3, -1)
    z = hoch_d(random_cochain(rng, trunc_f2, 2, -1, density=3))
    assert not z.is_zero() and hoch_d(space.is_coboundary(z)) == z
    s = AInfStructure(trunc_f2, 4, {3: cocycle_from_code(space, 0b1)})
    assert page2_witness(s, ctx) is not None
    _corrupt_coboundary_solves(monkeypatch, rng)
    with pytest.raises(ConfigurationError):
        space.is_coboundary(z)
    with pytest.raises(ConfigurationError):
        page2_witness(s, ctx)


@pytest.mark.parametrize("code", [0b1, 0b101])
def test_page3_report_computes_the_residual_once(trunc_f2, monkeypatch, code):
    """A page-3 report computes SI(k+1), and checks that it is a cocycle,
    once per structure; the page-2 class, the page-2 witness and every
    page-3 candidate reuse it."""
    import hochcalc.ainf as ainf
    import hochcalc.obstruction as obstruction

    ctx = HHContext(trunc_f2)
    s = AInfStructure(trunc_f2, 4, {3: cocycle_from_code(ctx.space(3, -1), code)})
    calls = {"residual": 0, "check": 0}
    residual, check = ainf.stasheff_residual, obstruction.hoch_d

    def spy_residual(t, n):
        calls["residual"] += n == t.k + 1
        return residual(t, n)

    def spy_check(f):
        calls["check"] += f.arity == s.k + 1
        return check(f)

    monkeypatch.setattr(ainf, "stasheff_residual", spy_residual)
    monkeypatch.setattr(obstruction, "stasheff_residual", spy_residual)
    monkeypatch.setattr(obstruction, "hoch_d", spy_check)
    rep = obstruction_report(s, ctx)
    assert rep.page3.kind == "vanishes"
    assert (rep.page2_witness is None) == (code == 0b101)
    assert calls == {"residual": 1, "check": 1}
    assert obstruction_cocycle(s) is rep.cocycle


def test_page3_report_solves_the_page2_witness_once(trunc_f2, monkeypatch):
    """At theta = 0 the page-3 check solves hoch_d(b) = -SI(k+1), the
    page-2 system; the report reads its page-2 witness off that solve."""
    from hochcalc.cohomology import HHSpace

    ctx = HHContext(trunc_f2)
    s = AInfStructure(trunc_f2, 4, {3: cocycle_from_code(ctx.space(3, -1), 0b1)})
    assert theta_page2(s, ctx).is_zero()
    calls = []
    solve = HHSpace.is_coboundary

    def spy(space, z):
        calls.append(z.bidegree)
        return solve(space, z)

    monkeypatch.setattr(HHSpace, "is_coboundary", spy)
    rep = obstruction_report(s, ctx)
    assert calls == [(5, -2)]
    assert rep.page3.kind == "vanishes" and rep.page3.b_prev.is_zero()
    assert rep.page2_witness is rep.page3.b_top
    assert hoch_d(rep.page2_witness) == -obstruction_cocycle(s)


def test_page3_quadratic_enumeration_always_finds_witness_at_k4(tower_f2):
    # with the previous map free to change, the zero class is always in
    # reach, so the quadratic step must succeed over an enumerable field
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    for code in (0b1, 0b1111):
        m3 = cocycle_from_code(sp, code)
        s = AInfStructure(tower_f2, 4, {3: m3})
        status = theta_page3_check(s, ctx)
        assert status.kind == "vanishes"
        # witnesses satisfy their defining equation exactly
        si5 = stasheff_residual(s, 5)
        lhs = hoch_d(status.b_top)
        rhs = -(si5 + bracket(m3, status.b_prev) + brace(status.b_prev, [status.b_prev]))
        assert (lhs - rhs).is_zero()


def test_extend_to_trace_and_failure(tower_f2):
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    # an extendable class goes through; every step re-validates
    for code in range(1, 2**sp.dim):
        m3 = cocycle_from_code(sp, code)
        if not induced_sq(ctx, sp.class_of(m3)).is_zero():
            continue
        s = AInfStructure(tower_f2, 4, {3: m3})
        res = extend_to(s, 7, ctx)
        assert res.ok and res.structure.k == 7
        assert is_valid(res.structure) == []
        assert [st.k for st in res.steps] == [4, 5, 6]
        break
    else:
        pytest.fail("no extendable class")


def test_k5_page3_rank_certificate(tower_f2, trunc_f3, monkeypatch):
    # every valid A_5 on tower_f2 with a seeded m5: a page-3 rank
    # certificate must be well formed, and vanishing witnesses re-validate
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    revalidated = 0
    for code in range(1, 2**sp.dim):
        m3 = cocycle_from_code(sp, code)
        if not induced_sq(ctx, sp.class_of(m3)).is_zero():
            continue
        s4 = AInfStructure(tower_f2, 4, {3: m3})
        r = extend_once(s4, 3, ctx)
        if not r.ok:
            continue
        s5 = r.structure
        rng = random.Random(code)
        m5 = random_cochain(rng, tower_f2, 5, -3, density=2)
        s5b = perturb(s5, 5, m5) if not m5.is_zero() else s5
        rep = obstruction_report(s5b, ctx)
        if rep.page3.kind == "nonzero":
            cert = rep.page3.certificate
            assert cert["kind"] == "rank"
            assert cert["rank_with_target"] == cert["rank_image"] + 1
        else:
            assert rep.page3.kind == "vanishes"
            out = extend_once(s5b, s5b.k - 2, ctx)
            assert out.ok and is_valid(out.structure) == []
            revalidated += 1
    assert revalidated
    # a seeded m5 moves SI(6) only by a coboundary, so the page-2 class
    # stays zero; perturbing m4 of an A_5 over tsl(F_3, 4) by an HH^{4,-2}
    # representative moves it off zero, and the k >= 5 solve of the page-3
    # check brings it back
    import hochcalc.obstruction as obstruction

    ctx = HHContext(trunc_f3)
    sp = ctx.space(3, -1)
    m3 = cochain_from_coords(trunc_f3, 3, -1, sp.basis, sp.cocycles[4])
    s5 = extend_to(AInfStructure(trunc_f3, 4, {3: m3}), 5, ctx).structure
    s = perturb(s5, 4, ctx.space(4, -2).hh_reps[1])
    assert is_valid(s) == [] and not theta_page2(s, ctx).is_zero()
    solves = []
    real = obstruction.solve_columns_many
    monkeypatch.setattr(obstruction, "solve_columns_many",
                        lambda field, cols, rhss: solves.append(rhss) or real(field, cols, rhss))
    assert theta_page3_check(s, ctx).kind == "vanishes"
    assert len(solves) == 1
    out = extend_once(s, 3, ctx)
    assert out.ok and is_valid(out.structure) == []


def test_page2_class_is_a_d2_cycle_for_k5(tower_f2):
    # for a valid k >= 5 structure the page-2 obstruction class dies under
    # the bracket with the universal Massey class
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    for code in range(1, 2**sp.dim):
        m3 = cocycle_from_code(sp, code)
        if not induced_sq(ctx, sp.class_of(m3)).is_zero():
            continue
        s4 = AInfStructure(tower_f2, 4, {3: m3})
        r = extend_once(s4, 3, ctx)
        if not r.ok:
            continue
        s5 = r.structure
        theta = theta_page2(s5, ctx)
        w = bracket(m3, theta.representative)
        target = ctx.space(s5.k + 1 + 2, 2 - s5.k - 1)
        assert target.class_of(w).is_zero()
        return
    pytest.fail("no valid A_5 found")


def test_extend_to_failure_trace_points_at_the_step(tower_f2):
    # a class with nonzero square fails at k = 4 with no completed steps
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    for code in range(1, 2**sp.dim):
        m3 = cocycle_from_code(sp, code)
        if induced_sq(ctx, sp.class_of(m3)).is_zero():
            continue
        s = AInfStructure(tower_f2, 4, {3: m3})
        res = extend_to(s, 6, ctx)
        assert not res.ok
        assert res.steps == []
        assert res.report.k == 4
        assert not res.report.page2_vanishes
        return
    pytest.fail("no obstructed class")


def test_extend_to_runs_page3_once_per_structure(trunc_f2, monkeypatch):
    """extend_to reads every depth of one k off one obstruction report, so
    it runs the page-3 check at most once per structure, whether the
    structure then extends at a lower depth or is obstructed."""
    import hochcalc.obstruction as obstruction

    ctx = HHContext(trunc_f2)
    sp = ctx.space(3, -1)
    real = obstruction.theta_page3_check
    outcomes = set()
    for code in range(1, 2**sp.dim):
        seen = []

        def spy(s, ctx):
            seen.append(s)
            return real(s, ctx)

        monkeypatch.setattr(obstruction, "theta_page3_check", spy)
        res = extend_to(AInfStructure(trunc_f2, 4, {3: cocycle_from_code(sp, code)}), 6, ctx)
        assert all(sum(t is s for t in seen) == 1 for s in seen)
        if seen:
            outcomes.add(res.ok)
    assert outcomes == {True, False}


def test_extend_to_validates_each_algebra_and_structure_once(monkeypatch):
    """The algebra axioms are checked once per algebra and the Stasheff
    residuals SI(n), n <= k, once per structure: each verdict is kept on
    its object, however many steps ask for it."""
    import hochcalc.ainf as ainf
    import hochcalc.algebra as algebra
    from hochcalc.cli import build_structure, parse_input

    algebras, residuals = [], []
    real_validate, real_residual = algebra.validate_algebra, ainf.stasheff_residual

    def validate_spy(a):
        algebras.append(a)
        return real_validate(a)

    def residual_spy(s, n):
        residuals.append((s, n))
        return real_residual(s, n)

    monkeypatch.setattr(algebra, "validate_algebra", validate_spy)
    monkeypatch.setattr(ainf, "stasheff_residual", residual_spy)
    doc = parse_input((FIXTURES / "tower_f2_a4_extendable.json").read_text())
    res = extend_to(build_structure(doc), 7)
    assert res.ok and res.structure.k == 7 and len(res.steps) == 3
    assert algebras == [doc.algebra]
    structures = []
    for s, _ in residuals:
        if all(t is not s for t in structures):
            structures.append(s)
    assert len(structures) >= 2
    for s in structures:
        assert [n for t, n in residuals if t is s] == list(range(3, s.k + 1))
