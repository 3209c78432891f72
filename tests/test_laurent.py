import hashlib
import json
import random

import pytest

import hochcalc.laurent as laurent
from hochcalc.algebra import dual_numbers
from hochcalc.cochain import brace, bracket, cup, hoch_d, sq
from hochcalc.errors import ConfigurationError, DomainError, UnsupportedAlgebraError
from hochcalc.exactla import PrimeField, Rationals
from hochcalc.laurent import (
    Poly,
    PolyCochain,
    TwistedLaurent,
    _coordinates,
    _monomials,
    _witness_basis_keys,
    binomial_half_cochain,
    constant_cochain,
    display_monomial,
    euler_cochain,
    find_witness,
    find_witnesses,
    section8_report,
    sign_twisted_laurent,
    skew_derivation_cochain,
)
from hochcalc import identities as idn
from oracles import reference_bracket_hoch_d
from test_cochain import check_operands_unchanged


def random_poly_cochain(rng, alg, arity, end_degree, density=2, maxdeg=1, terms=1):
    """``density`` random entries, each a sum of ``terms`` random monomials
    with every exponent at most ``maxdeg``."""
    keys = _witness_basis_keys(alg, arity, end_degree)
    F = alg.field
    comps = {}
    for _ in range(density):
        key = keys[rng.randrange(len(keys))]
        for _ in range(terms):
            exps = tuple(rng.randrange(0, maxdeg + 1) for _ in range(arity))
            if F.char == 0:
                c = F.from_int(rng.choice([1, 2, -1, 3]))
            else:
                c = F.from_int(rng.randrange(1, F.char))
            F.add_into(comps.setdefault(key, {}), [(exps, c)])
    return PolyCochain(alg, arity, end_degree, comps)


# -- polynomial layer ---------------------------------------------------------


def test_poly_function_semantics_char_p():
    F = PrimeField(5)
    # s^5 and s agree as functions on the integers mod 5
    p1 = Poly(F, 1, {(5,): F.one()})
    p2 = Poly(F, 1, {(1,): F.one()})
    assert p1 == p2
    F2 = PrimeField(2)
    assert Poly(F2, 1, {(3,): 1}) == Poly(F2, 1, {(1,): 1})
    # over Q no reduction happens
    Q = Rationals()
    assert Poly(Q, 1, {(5,): Q.one()}) != Poly(Q, 1, {(1,): Q.one()})


def test_poly_subst_affine():
    Q = Rationals()
    # p(s) = s^2, substitute s = x + y + 3 inside two variables
    p = Poly(Q, 1, {(2,): Q.one()})
    q = p.subst_affine(0, [0, 1], 3, {}, 2)
    # (x + y + 3)^2
    want = Poly(
        Q, 2,
        {(2, 0): Q.one(), (0, 2): Q.one(), (1, 1): Q.from_int(2),
         (1, 0): Q.from_int(6), (0, 1): Q.from_int(6), (0, 0): Q.from_int(9)},
    )
    assert q == want


# -- algebra layer --------------------------------------------------------------


def test_sigma_validation():
    Q = Rationals()
    base = dual_numbers(Q)
    eps, unit = base.index["e"], base.unit
    with pytest.raises(UnsupportedAlgebraError):
        TwistedLaurent(base, {unit: {unit: Q.one()}, eps: {unit: Q.one()}})
    # sigma of infinite order is rejected: eps -> 2 eps never returns
    with pytest.raises(UnsupportedAlgebraError):
        TwistedLaurent(base, {unit: {unit: Q.one()}, eps: {eps: Q.from_int(2)}})


@pytest.mark.parametrize("p", [3, 5])
def test_constructors_normalize_scalars(p):
    """A polynomial, a polynomial cochain or a sigma built with the
    coefficient p + 1 over F_p equals the one built with 1."""
    F = PrimeField(p)
    assert Poly(F, 1, {(1,): p + 1}) == Poly(F, 1, {(1,): 1})
    assert Poly(F, 1, {(1,): p + 1}).terms == {(1,): 1}
    base = dual_numbers(F)
    eps, unit = base.index["e"], base.unit
    sigma = [TwistedLaurent(base, {unit: {unit: 1}, eps: {eps: c}}).sigma for c in (p + 1, 1)]
    assert sigma[0] == sigma[1] == {unit: {unit: 1}, eps: {eps: 1}}
    alg = sign_twisted_laurent(F)
    key = ((0,), (eps,), eps)
    assert PolyCochain(alg, 1, 0, {key: {(1,): p + 1}}) == PolyCochain(alg, 1, 0, {key: {(1,): 1}})


def test_sign_twisted_laurent_shape():
    for F in (Rationals(), PrimeField(2), PrimeField(5)):
        alg = sign_twisted_laurent(F)
        assert alg.sigma_order == (1 if F.char == 2 else 2)
        assert alg.residue_modulus == 2
        m2 = alg.multiplication_cochain()
        assert brace(m2, [m2]).is_zero()


def test_multiplication_matches_relations():
    F = Rationals()
    alg = sign_twisted_laurent(F)
    m2 = alg.multiplication_cochain()
    eps, unit = alg.base.index["e"], alg.base.unit
    # m2(s(e x^1), s(e x^2)) = 0 because e^2 = 0
    assert m2.evaluate([(eps, 1), (eps, 2)]) == {}
    # m2(s(x), s(e)) = (-1)^{|x|} s(x e) = -(-1)^{1*1} s(e x) = s(e x)
    val = m2.evaluate([(unit, 1), (eps, 0)])
    assert val == {(eps, 1): F.one()}


def evaluate_compose(f, g, i, inputs):
    """Independent evaluation of (f o_i g) straight from the definition."""
    alg = f.algebra
    field = alg.field
    out: dict = {}
    prefix = inputs[: i - 1]
    inner = inputs[i - 1 : i - 1 + g.arity]
    suffix = inputs[i - 1 + g.arity :]
    prefix_deg = sum(alg.element_degree(b, n) + 1 for b, n in prefix)
    sign = -1 if (g.end_degree * prefix_deg) % 2 else 1
    for (b_mid, n_mid), c_mid in g.evaluate(inner).items():
        for key, c in f.evaluate(list(prefix) + [(b_mid, n_mid)] + list(suffix)).items():
            v = field.mul(c_mid, c)
            if sign < 0:
                v = field.neg(v)
            s = field.add(out.get(key, field.zero()), v)
            if field.is_zero(s):
                out.pop(key, None)
            else:
                out[key] = s
    return out


def test_compose_matches_direct_evaluation():
    # the composition tables agree with honest evaluation of the defining
    # formula on sampled integer exponents
    for F in (Rationals(), PrimeField(5), PrimeField(2)):
        alg = sign_twisted_laurent(F)
        rng = random.Random(17)
        basis = [alg.base.unit, alg.base.index["e"]]
        for _ in range(6):
            p = rng.randrange(1, 3)
            q = rng.randrange(0, 3)
            f = random_poly_cochain(rng, alg, p, rng.randrange(-2, 3))
            g = random_poly_cochain(rng, alg, q, rng.randrange(-2, 3))
            i = rng.randrange(1, p + 1)
            comp = f.compose_at(g, i)
            for _ in range(8):
                inputs = [
                    (rng.choice(basis), rng.randrange(-3, 4))
                    for _ in range(p + q - 1)
                ]
                assert comp.evaluate(inputs) == evaluate_compose(f, g, i, inputs)


def test_identity_suite_on_poly_cochains():
    for F in (Rationals(), PrimeField(5), PrimeField(2)):
        alg = sign_twisted_laurent(F)
        rng = random.Random(7)
        char2 = F.char == 2

        def rand_c(par=None):
            while True:
                p = rng.randrange(0, 3)
                d = rng.randrange(-2, 3)
                if par is not None and d % 2 != par:
                    continue
                return random_poly_cochain(rng, alg, p, d)

        for _ in range(10):
            x, y, z = rand_c(), rand_c(), rand_c()
            ys = [rand_c() for _ in range(rng.randrange(1, 3))]
            zs = [rand_c() for _ in range(rng.randrange(0, 3))]
            assert idn.check_brace_relation(x, ys, zs)
            assert idn.check_cup_associative(x, y, z)
            assert idn.check_leibniz(x, y)
            assert idn.check_commutativity_witness(x, y)
            assert idn.check_derivation_witness(x, y, z)
            assert idn.check_bracket_antisymmetry(x, y)
            assert idn.check_d_squared(x)
            xo = x if char2 else rand_c(par=1)
            yo = y if char2 else rand_c(par=1)
            assert idn.check_square_bracket(xo, y)
            assert idn.check_sq_cup_witness(xo, yo)


def twisted_laurent_order_4():
    """Dual numbers over F_5 twisted by e -> 2e (order 4), |x| = 2: R = 4."""
    F = PrimeField(5)
    base = dual_numbers(F, eps_degree=0)
    eps, unit = base.index["e"], base.unit
    return TwistedLaurent(base, {unit: {unit: F.one()}, eps: {eps: F.from_int(2)}}, weight=2)


@pytest.mark.parametrize("make", [
    lambda: sign_twisted_laurent(Rationals()),
    lambda: sign_twisted_laurent(PrimeField(2)),
    lambda: sign_twisted_laurent(PrimeField(3)),
    twisted_laurent_order_4,
], ids=["sign-Q", "sign-F2", "sign-F3", "order4-weight2-F5"])
def test_poly_hoch_d_matches_bracket_form(make):
    # entries with several terms of degree up to 4, so that s^p = s reduces
    # them over F_2 and F_3, against the brace form [m2, f]
    alg = make()
    rng = random.Random(23)
    checked = 0
    for arity in range(5):
        for end_degree in range(-3, 3):
            if not _witness_basis_keys(alg, arity, end_degree):
                continue
            for _ in range(2):
                f = random_poly_cochain(rng, alg, arity, end_degree, density=3, maxdeg=4, terms=3)
                want = reference_bracket_hoch_d(f)
                got = hoch_d(f)
                assert (got.arity, got.end_degree) == (want.arity, want.end_degree)
                assert got.table == want.table
                checked += not want.is_zero()
    assert checked > 10


def test_m2_lookups_cover_shifted_output_exponents():
    # the order-4 weight-2 algebra has m2 products whose output exponent
    # leaves the residue range, so f o_i m2 substitutes with k0 != 0
    alg = twisted_laurent_order_4()
    assert alg.residue_modulus == 4
    by_product = laurent._m2_lookups(alg)[2]
    assert {hit[-1] for hits in by_product.values() for hit in hits} == {0, 1}


def test_distinguished_cocycles_and_squares():
    for F in (Rationals(), PrimeField(5), PrimeField(2)):
        alg = sign_twisted_laurent(F)
        e = skew_derivation_cochain(alg)
        d = euler_cochain(alg)
        assert hoch_d(e).is_zero()
        assert hoch_d(d).is_zero()
        assert sq(e).is_zero()
        assert e.bidegree == (1, 1) and d.bidegree == (1, 0)
        if F.char == 2:
            assert (sq(d) - d).is_zero()


def test_euler_formula_on_poly_cochains():
    # [delta, y] = q y degree-formally, for random residue-split cochains
    for F in (PrimeField(5), Rationals()):
        alg = sign_twisted_laurent(F)
        d = euler_cochain(alg)
        rng = random.Random(31)
        for _ in range(8):
            p = rng.randrange(1, 3)
            dd = rng.randrange(-2, 3)
            y = random_poly_cochain(rng, alg, p, dd)
            q = 1 - p - dd
            assert (bracket(d, y) - y.scale_int(q)).is_zero()


def test_euler_delta_values_on_laurent():
    alg = sign_twisted_laurent(Rationals())
    d = euler_cochain(alg)
    unit = alg.base.unit
    # delta(s(x^n)) = -n s(x^n)
    for n in (-2, 0, 3):
        val = d.evaluate([(unit, n)])
        if n == 0:
            assert val == {}
        else:
            assert val == {(unit, n): Rationals().from_int(-n)}


def test_vaa0_witness_and_explicit_primitive():
    for F in (Rationals(), PrimeField(2), PrimeField(5)):
        alg = sign_twisted_laurent(F)
        d = euler_cochain(alg)
        b = binomial_half_cochain(alg)
        assert (cup(d, d) + hoch_d(b)).is_zero()
        w, stats = find_witness(cup(d, d), PolyCochain(alg, 2, -1), 2)
        assert w is not None
        assert (hoch_d(w) - cup(d, d)).is_zero()


def test_find_witness_basics():
    alg = sign_twisted_laurent(PrimeField(5))
    e = skew_derivation_cochain(alg)
    w, _ = find_witness(e, e, 1)
    assert w is not None and w.is_zero()
    with pytest.raises(DomainError):
        find_witness(e, euler_cochain(alg), 1)
    # a known non-coboundary: e itself (weight pruning leaves no columns)
    w, _ = find_witness(e, PolyCochain(alg, 1, -1), 2)
    assert w is None


def test_witness_columns_are_built_once_per_algebra(monkeypatch):
    alg = sign_twisted_laurent(Rationals())
    d = euler_cochain(alg)
    lhs, rhs = cup(d, d), PolyCochain(alg, 2, -1)
    calls = []
    real = PolyCochain.d_walk

    def counting(alg, arity, end_degree, entries, acc):
        calls.append(list(entries))
        return real(alg, arity, end_degree, calls[-1], acc)

    # every column and every hoch_d is one walk
    monkeypatch.setattr(PolyCochain, "d_walk", staticmethod(counting))
    w1, stats1 = find_witness(lhs, rhs, 2)
    first = len(calls)
    calls.clear()
    w2, stats2 = find_witness(lhs, rhs, 2)
    assert w1 is not None and w2 is not None
    assert stats1["unknowns"] == stats2["unknowns"] > 0
    # the first search builds its columns; the second only checks its witness
    assert first > stats1["unknowns"]
    assert len(calls) == 1 and calls[0] == list(w2.table.items())
    assert alg._columns
    assert sign_twisted_laurent(Rationals())._columns == {}


WITNESS_FIELDS = [Rationals(), PrimeField(2), PrimeField(3), PrimeField(5)]


@pytest.mark.parametrize("field", WITNESS_FIELDS, ids=repr)
def test_find_witnesses_matches_one_at_a_time(field):
    """One batch of mixed shapes (arity 0 to 3) with coboundaries, zero
    targets and non-coboundaries, some of them in the same weight blocks,
    gives every pair the witness and the stats of its own search."""
    rng = random.Random(f"batch/{field!r}")
    alg = sign_twisted_laurent(field)
    e = skew_derivation_cochain(alg)
    z1 = display_monomial(alg, 0, 4, 0, 3)
    bounding = [hoch_d(random_poly_cochain(rng, alg, arity, end, density=3))
                for arity, end in [(1, 0), (1, -1), (2, -1), (2, 0), (2, -1)]]
    x2 = constant_cochain(alg, alg.base.unit, 2)
    zero = lambda z: z.zero_like(z.arity, z.end_degree)
    pairs = [(e, zero(e)), (bounding[0], zero(bounding[0])), (zero(z1), zero(z1)),
             (z1, zero(z1)), (bounding[2], bounding[4]), (bounding[1], zero(bounding[1])),
             (x2, zero(x2)), (zero(x2), zero(x2)), (z1 + bounding[3], zero(z1)),
             (bounding[3], zero(z1)), (e, e)]
    got = find_witnesses(pairs, 2)
    assert got == [find_witness(lhs, rhs, 2) for lhs, rhs in pairs]
    assert [w is not None for w, _ in got] == [False, True, True, False, True, True,
                                                False, True, False, True, True]
    assert find_witnesses([], 2) == []


@pytest.mark.parametrize("field", WITNESS_FIELDS, ids=repr)
def test_find_combinations_matches_one_at_a_time(field):
    """Differences of one shape (3, -1) in one ``find_witnesses`` call get
    the witness and the stats that each gets alone; a bidegree mismatch
    anywhere in the batch raises."""
    rng = random.Random(f"combos/{field!r}")
    alg = sign_twisted_laurent(field)
    z1, z2 = display_monomial(alg, 0, 4, 0, 3), display_monomial(alg, 1, 3, 1, 2)
    b = hoch_d(random_poly_cochain(rng, alg, 2, 0, density=3))
    zero = PolyCochain(alg, 3, -1)
    pairs = [(bracket(z1, display_monomial(alg, 1, 1, 0, 1)), z1.scale_int(3)),
             (z1.scale_int(2) + b, z1.scale_int(2)), (zero, zero), (z2, zero), (b, zero),
             (z2 + z1, z1)]
    got = find_witnesses(pairs, 2)
    assert got == [find_witnesses([pair], 2)[0] for pair in pairs]
    assert [w is not None for w, _ in got] == [True, True, True, False, True, False]
    assert all(st["unknowns"] > 0 for w, st in got if w is None)
    with pytest.raises(DomainError):
        find_witnesses([(b, zero), (z1, skew_derivation_cochain(alg))], 2)


def test_display_monomial_bidegrees():
    alg = sign_twisted_laurent(Rationals())
    assert display_monomial(alg, 0, 4, 0, 3).bidegree == (3, -1)
    assert display_monomial(alg, 1, 3, 1, 2).bidegree == (3, -1)
    assert display_monomial(alg, 0, 6, 1, 4).bidegree == (5, -2)
    assert display_monomial(alg, 1, 7, 0, 5).bidegree == (5, -2)


def test_monomials_helper():
    assert _monomials(0, 3, 0) == [()]
    assert len(_monomials(2, 2, 0)) == 6  # 1 + 2 + 3
    # characteristic caps the per-variable exponent
    assert all(max(m, default=0) <= 1 for m in _monomials(3, 4, 2))


def test_section8_char2_report():
    rep = section8_report(2, 2)
    assert rep["all_passed"], rep["failed"]
    status = {c["id"]: c["status"] for c in rep["checks"]}
    assert status["c"] == "PASS" and status["f"] == "PASS"
    assert status["e"] == "SKIPPED" and status["g"] == "SKIPPED"
    digest = hashlib.sha256(json.dumps(rep, sort_keys=True).encode()).hexdigest()
    assert digest == "8b05aa6deb2639720c1c4a4e830201b74463fec99c24a783f3637f840b6efe2c"


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)], ids=repr)
def test_witness_columns_match_bracket_form(monkeypatch, field):
    """Every coboundary column that the section8 searches build (d_search
    2) is the coordinate dict of the brace form [m2, b] of its unknown b,
    or None when that is zero."""
    algebras = []

    def keep(f):
        algebras.append(sign_twisted_laurent(f))
        return algebras[-1]

    monkeypatch.setattr(laurent, "sign_twisted_laurent", keep)
    section8_report(field.char, 2)
    (alg,) = algebras
    assert len(alg._columns) > 1000
    for (arity, end_degree, key, mono), col in alg._columns.items():
        b = PolyCochain(alg, arity, end_degree, {key: {mono: field.one()}})
        assert col == (_coordinates(reference_bracket_hoch_d(b)) or None)


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)], ids=repr)
def test_no_operation_changes_a_poly_operand(field):
    rng = random.Random(2)
    alg = sign_twisted_laurent(field)
    f, g = (random_poly_cochain(rng, alg, 3, -1, density=4, maxdeg=2, terms=2) for _ in range(2))
    h = random_poly_cochain(rng, alg, 1, 0, density=3, maxdeg=2, terms=2)
    ops = [
        ("+", lambda: f + g),
        ("-", lambda: f - g),
        ("scale", lambda: f.scale(field.from_int(-1))),
        ("compose_at", lambda: f.compose_at(h, 2)),
        ("brace", lambda: brace(f, [h, h])),
        ("bracket", lambda: bracket(f, h)),
        ("cup", lambda: cup(f, h)),
        ("sq", lambda: sq(f)),
        ("hoch_d", lambda: hoch_d(h)),
    ]
    check_operands_unchanged([f, g, h, alg.multiplication_cochain()], ops)


@pytest.mark.parametrize("make, s_p, s_p1", [
    (lambda: sign_twisted_laurent(PrimeField(2)), (1,), (1,)),
    (twisted_laurent_order_4, (1,), (2,)),
], ids=["F2", "F5"])
def test_poly_cochain_from_term_dicts(make, s_p, s_p1):
    """Entries are term dicts {exponents: c}: s^p = s reduces them over F_p,
    and zero coefficients and entries that cancel or are empty are dropped."""
    alg = make()
    F = alg.field
    p = F.char
    one, unit, eps = F.one(), alg.base.unit, alg.base.index["e"]
    keys = [((r,), (b,), o) for r in (0, 1) for b in (unit, eps) for o in (unit, eps)]
    given = {
        keys[0]: {(p,): one, (0,): F.zero()},
        keys[1]: {(p,): one, (1,): F.neg(one)},
        keys[2]: {(0,): F.zero()},
        keys[3]: {},
        keys[4]: {(p + 1,): one},
    }
    f = PolyCochain(alg, 1, 0, given)
    assert f.table == {keys[0]: {s_p: one}, keys[4]: {s_p1: one}}
    assert all(type(terms) is dict and terms is not given[k] for k, terms in f.table.items())


def test_poly_cochain_rejects_malformed_entries():
    alg = twisted_laurent_order_4()
    one, unit = alg.field.one(), alg.base.unit
    key = ((0,), (unit,), unit)
    for arity, end_degree, table in [
        (1, 0, {((0, 0), (unit,), unit): {(0,): one}}),  # residues of the wrong arity
        (1, 0, {key: {(0, 0): one}}),  # a monomial of the wrong arity
        (1, -1, {key: {(0,): one}}),  # output exponent 1/2: inhomogeneous
        (1, 0, {key: Poly(alg.field, 1, {(0,): one})}),  # not a term dict
    ]:
        with pytest.raises(ConfigurationError):
            PolyCochain(alg, arity, end_degree, table)
