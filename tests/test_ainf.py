import random

import pytest

from hochcalc.ainf import (
    AInfStructure,
    is_valid,
    perturb,
    stasheff_residual,
    universal_massey,
)
from hochcalc.cochain import Cochain, bracket, cochain_from_coords, hoch_d
from hochcalc.cohomology import HHContext, induced_sq
from hochcalc.errors import DomainError, ValidationError
from hochcalc.exactla import vec_combine
from hochcalc.identities import random_cochain


def random_cocycle(rng, space):
    field = space.algebra.field
    coords = vec_combine(
        field, [(field.from_int(rng.randrange(field.char)), v) for v in space.cocycles]
    )
    return cochain_from_coords(space.algebra, space.p, space.q, space.basis, coords)


def test_trivial_structures_valid(dual_q, ext_q):
    for a in (dual_q, ext_q):
        for k in (2, 3, 6):
            assert is_valid(AInfStructure(a, k)) == []


def test_si3_is_associativity(dual_q):
    s = AInfStructure(dual_q, 3)
    assert stasheff_residual(s, 3).is_zero()


def test_si4_is_bracket_with_m3(trunc_f2):
    ctx = HHContext(trunc_f2)
    rng = random.Random(2)
    m3 = random_cochain(rng, trunc_f2, 3, -1, density=3)
    s = AInfStructure(trunc_f2, 4, {3: m3})
    si4 = stasheff_residual(s, 4)
    assert (si4 - bracket(s.map(2), m3)).is_zero()


def test_non_cocycle_m3_reported(trunc_f2):
    rng = random.Random(4)
    for _ in range(10):
        m3 = random_cochain(rng, trunc_f2, 3, -1, density=3)
        if hoch_d(m3).is_zero() or m3.is_zero():
            continue
        s = AInfStructure(trunc_f2, 4, {3: m3})
        report = is_valid(s)
        assert [r["n"] for r in report] == [4]
        assert "witness_args" in report[0]
        return
    pytest.fail("never drew a non-cocycle")


def test_si_bidegree(trunc_f2):
    ctx = HHContext(trunc_f2)
    rng = random.Random(6)
    m3 = random_cocycle(rng, ctx.space(3, -1))
    s = AInfStructure(trunc_f2, 4, {3: m3})
    si5 = stasheff_residual(s, 5)
    assert (si5.arity, 1 - si5.arity - si5.end_degree) == (5, -2)


def test_si_needs_all_maps(trunc_f2):
    s = AInfStructure(trunc_f2, 3)
    with pytest.raises(DomainError):
        stasheff_residual(s, 5)  # needs m_4


def test_map_shape_checked(trunc_f2):
    bad = Cochain.zero(trunc_f2, 3, 0)
    from hochcalc.identities import random_cochain as rc

    bad = rc(random.Random(1), trunc_f2, 3, 0)
    with pytest.raises(DomainError):
        AInfStructure(trunc_f2, 4, {3: bad})


def test_universal_massey_guards(trunc_f2):
    ctx = HHContext(trunc_f2)
    s3 = AInfStructure(trunc_f2, 3)
    with pytest.raises(DomainError):
        universal_massey(s3)
    rng = random.Random(8)
    for _ in range(10):
        m3 = random_cochain(rng, trunc_f2, 3, -1, density=2)
        if not hoch_d(m3).is_zero():
            s = AInfStructure(trunc_f2, 4, {3: m3})
            with pytest.raises(ValidationError):
                universal_massey(s)
            break


def test_universal_massey_ignores_coboundaries(trunc_f2):
    ctx = HHContext(trunc_f2)
    rng = random.Random(9)
    m3 = random_cocycle(rng, ctx.space(3, -1))
    s = AInfStructure(trunc_f2, 4, {3: m3})
    cls = universal_massey(s, ctx)
    b = random_cochain(rng, trunc_f2, 2, -1, density=2)
    s2 = perturb(s, 3, hoch_d(b))
    assert universal_massey(s2, ctx).coords == cls.coords
    # zero maps give the zero class
    assert universal_massey(AInfStructure(trunc_f2, 4), ctx).is_zero()


def test_perturb_bookkeeping(trunc_f2):
    ctx = HHContext(trunc_f2)
    rng = random.Random(10)
    m3 = random_cocycle(rng, ctx.space(3, -1))
    s = AInfStructure(trunc_f2, 4, {3: m3})
    assert perturb(s, 3, Cochain.zero(trunc_f2, 3, -1)).maps == s.maps
    with pytest.raises(DomainError):
        perturb(s, 3, random_cochain(rng, trunc_f2, 4, -2))
    # perturbing m_k leaves SI(n) for n <= k unchanged
    b4 = random_cochain(rng, trunc_f2, 4, -2, density=3)
    s2 = perturb(s, 4, b4)
    for n in (3, 4):
        assert (stasheff_residual(s2, n) - stasheff_residual(s, n)).is_zero()
    # perturbing m_{k-1} by a cocycle leaves SI(k) unchanged
    b3 = random_cocycle(rng, ctx.space(3, -1))
    s3 = perturb(s, 3, b3)
    assert (stasheff_residual(s3, 4) - stasheff_residual(s, 4)).is_zero()
    # and shifts SI(k+1) by the bracket with m2 plus the quadratic cross terms
    si_new = stasheff_residual(s3, 5)


def test_sq_of_massey_vanishes_for_valid_k5(tower_f2):
    # a valid A_5 structure forces the square of its (3,-1) class to die
    ctx = HHContext(tower_f2)
    sp = ctx.space(3, -1)
    F = tower_f2.field
    from hochcalc.obstruction import extend_once

    for code in range(1, 2**sp.dim):
        coords = {j: F.one() for j in range(sp.dim) if (code >> j) & 1}
        m3 = sp.class_from_coords(coords).representative
        s = AInfStructure(tower_f2, 4, {3: m3})
        r = extend_once(s, 3, ctx)
        if r.ok:
            s5 = r.structure
            assert s5.k == 5 and is_valid(s5) == []
            cls = universal_massey(s5, ctx)
            assert induced_sq(ctx, cls).is_zero()
            assert bracket_class_is_zero(ctx, cls)
            return
    pytest.fail("no extendable class found")


def bracket_class_is_zero(ctx, cls):
    z = bracket(cls.representative, cls.representative)
    return ctx.space(5, -2).class_of(z).is_zero()
