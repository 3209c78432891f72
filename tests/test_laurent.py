import hashlib
import json
import random
from itertools import product as iproduct

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
from oracles import reference_bracket_hoch_d, reference_find_witnesses, reference_subst_affine
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
    q = p.subst_affine(0, 2, 3)
    # (x + y + 3)^2
    want = Poly(
        Q, 2,
        {(2, 0): Q.one(), (0, 2): Q.one(), (1, 1): Q.from_int(2),
         (1, 0): Q.from_int(6), (0, 1): Q.from_int(6), (0, 0): Q.from_int(9)},
    )
    assert q == want


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3), PrimeField(5),
                                   PrimeField(7)], ids=["Q", "F2", "F3", "F5", "F7"])
def test_subst_affine_matches_reference(field):
    """The multinomial table gives the terms of the affine form's powers,
    multiplied out, for q = 0..4 new variables (q = 0 composes with an
    arity-0 cochain) and negative, zero and positive constants."""
    rng = random.Random(2215 + field.char)
    for n in range(250):
        # q runs through 0..4 and the sign of k0 through -1, 0, 1 jointly
        q, sign = n % 5, n // 5 % 3 - 1
        nvars, k0 = rng.randint(1, 4), sign * rng.randint(1, 6)
        i = rng.randrange(nvars)
        terms = {tuple(rng.randint(0, 4) for _ in range(nvars)): rng.randint(-5, 5)
                 for _ in range(rng.randint(1, 5))}
        p = Poly(field, nvars, terms)
        got = p.subst_affine(i, q, k0)
        assert got.nvars == nvars + q - 1
        assert got == reference_subst_affine(p, i, q, k0)


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


def test_repeated_witness_searches_agree():
    """Two identical searches give equal witnesses and stats."""
    alg = sign_twisted_laurent(Rationals())
    d = euler_cochain(alg)
    lhs, rhs = cup(d, d), PolyCochain(alg, 2, -1)
    w1, stats1 = find_witness(lhs, rhs, 2)
    w2, stats2 = find_witness(lhs, rhs, 2)
    assert w1 is not None and stats1["unknowns"] > 0
    assert w1 == w2 and stats1 == stats2


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


def _row_keys(rows):
    return {r: k for k, r in rows.items()}


@pytest.mark.parametrize("field", [Rationals(), PrimeField(3)], ids=repr)
def test_witness_columns_match_bracket_form(monkeypatch, field):
    """Every coboundary column that the section8 searches build (d_search
    2), one per unknown key and monomial with coefficient 1, is, read back
    through its integer rows, the coordinate dict of the brace form [m2, b]
    of its unknown b."""
    columns = []
    real = laurent._witness_columns

    def keep(alg, arity, end_degree, key, monos, rows):
        cols = real(alg, arity, end_degree, key, monos, rows)
        columns.extend((PolyCochain(alg, arity, end_degree, {key: {mono: field.one()}}), col, rows)
                       for mono, col in zip(monos, cols))
        return cols

    monkeypatch.setattr(laurent, "_witness_columns", keep)
    section8_report(field.char, 2)
    assert len(columns) > 1000
    backs = {}  # one search's columns share its rows, which the spy keeps alive
    for b, col, rows in columns:
        if id(rows) not in backs:
            backs[id(rows)] = _row_keys(rows)
        back = backs[id(rows)]
        assert {back[r]: c for r, c in col.items()} == _coordinates(reference_bracket_hoch_d(b))


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=repr)
def test_witness_columns_match_single_term_walks(field):
    """The per-key columns, at arities 0-3, map degrees of both parities and
    d_search 0-3, are the single-term ``d_walk`` outputs of their unknowns,
    row for row, and give each distinct (key, exponents) one row."""
    alg = sign_twisted_laurent(field)
    one = field.one()
    for arity, end_degree, d_search in iproduct(range(4), (-1, 0), range(4)):
        monos, rows = _monomials(arity, d_search, field.char), {}
        built = [(key, laurent._witness_columns(alg, arity, end_degree, key, monos, rows))
                 for key in _witness_basis_keys(alg, arity, end_degree)]
        back = _row_keys(rows)
        assert len(back) == len(rows)
        for key, cols in built:
            assert len(cols) == len(monos)
            for mono, col in zip(monos, cols):
                walk = PolyCochain.d_walk(alg, arity, end_degree, ((key, {mono: one}),), {})
                assert {back[r]: c for r, c in col.items()} == walk


@pytest.mark.parametrize("char", [0, 2, 3, 5])
def test_find_witnesses_matches_per_column_search(monkeypatch, char):
    """Every batch of the section8 report (d_search 2) gets the witnesses and
    stats of the per-column search of ``reference_find_witnesses``."""
    batches = []
    real = laurent.find_witnesses

    def keep(pairs, d_search):
        pairs = list(pairs)
        found = real(pairs, d_search)
        batches.append((pairs, d_search, found))
        return found

    monkeypatch.setattr(laurent, "find_witnesses", keep)
    section8_report(char, 2)
    assert len(batches) >= 2
    for pairs, d_search, found in batches:
        assert found == reference_find_witnesses(pairs, d_search)


def test_equal_fields_share_expansions():
    """Equal fields hash equal, with a hash computed once, and read one
    ``_expansion`` entry."""
    for make in (Rationals, lambda: PrimeField(5)):
        f, g = make(), make()
        assert f == g and f is not g and hash(f) == hash(g) == hash(f)
        assert "_hash" in vars(f)
        laurent._expansion(f, 3, 1, 2)
        hits = laurent._expansion.cache_info().hits
        assert laurent._expansion(g, 3, 1, 2) is laurent._expansion(f, 3, 1, 2)
        assert laurent._expansion.cache_info().hits == hits + 2


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
