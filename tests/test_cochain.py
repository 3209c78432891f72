import copy
import random

import pytest

from hochcalc.ainf import AInfStructure, perturb, stasheff_residual
from hochcalc.algebra import (
    GradedAlgebra,
    dual_numbers,
    exterior_line,
    square_zero_tower,
    truncated_skew_laurent,
)
from hochcalc.cochain import (
    Cochain,
    _add_at,
    _live_prefixes,
    beta_cochain,
    brace,
    bracket,
    cochain_basis,
    cochain_from_coords,
    cup,
    euler_delta,
    hoch_d,
    q_support,
    shifted_m2,
    sq,
)
from hochcalc.errors import ConfigurationError, DomainError
from hochcalc.exactla import PrimeField, Rationals
from hochcalc.identities import (
    check_brace_relation,
    check_commutativity_witness,
    check_derivation_witness,
    check_leibniz,
    check_sq_cup_witness,
    check_square_bracket,
    random_cochain,
    run_identity_suite,
)
from oracles import (
    identity_cochain,
    reference_add_into,
    reference_bracket,
    reference_bracket_hoch_d,
    reference_cochain_basis,
    reference_hoch_d,
)
from test_cohomology import fixture_algebras, small_algebras


def test_shifted_m2_squares_to_zero(dual_q, ext_q):
    for a in (dual_q, ext_q):
        m2 = shifted_m2(a)
        assert m2.bidegree == (2, 0)
        assert brace(m2, [m2]).is_zero()


def test_shifted_m2_values(ext_q):
    # m2(su, su) = (-1)^1 s(u^2) = 0 and m2(s1, su) = su
    m2 = shifted_m2(ext_q)
    one, u = ext_q.index["1"], ext_q.index["u"]
    assert m2.evaluate((u, u)) == {}
    assert m2.evaluate((one, u)) == {u: ext_q.field.one()}
    # degree bookkeeping |m2(x,y)| = |x|+|y|-1 on every stored pair
    m2.check_homogeneous()


def test_brace_empty_args_identity(dual_q):
    m2 = shifted_m2(dual_q)
    assert brace(m2, []) is m2


def test_brace_vanishing_more_args_than_slots(ext_q):
    d = euler_delta(ext_q)
    assert brace(d, [d, d]).is_zero()  # arity 1, two arguments


def test_brace_arity_zero_bracket_vanishes(ext_q):
    c = Cochain(ext_q, 0, 1, {(): {ext_q.index["1"]: ext_q.field.one()}})
    c2 = Cochain(ext_q, 0, 2, {(): {ext_q.index["u"]: ext_q.field.one()}})
    assert bracket(c, c2).is_zero()


def test_mixed_algebra_rejected(dual_q, ext_q):
    with pytest.raises(ConfigurationError):
        brace(shifted_m2(dual_q), [shifted_m2(ext_q)])


def test_euler_delta_values(dual_q, ext_q):
    # degree-0 algebra: suspended degree 1 everywhere, so delta = 0
    assert euler_delta(dual_q).is_zero()
    d = euler_delta(ext_q)
    u = ext_q.index["u"]
    assert d.evaluate((u,)) == {u: Rationals().from_int(-1)}
    assert bracket(d, shifted_m2(ext_q)).is_zero()
    assert hoch_d(d).is_zero()


def test_euler_bracket_is_internal_degree(ext_q):
    # [delta, y] = q y for every basis cochain with p <= 4
    F = ext_q.field
    d = euler_delta(ext_q)
    for p in range(5):
        for q in q_support(ext_q, p):
            basis = cochain_basis(ext_q, p, q, normalized=False)
            for n in range(len(basis)):
                y = cochain_from_coords(ext_q, p, q, basis, {n: F.one()})
                assert (bracket(d, y) - y.scale(F.from_int(q))).is_zero()


def test_euler_bracket_example_bidegree_1_minus1(ext_q):
    # y(s1) = su has map degree +1, bidegree (1,-1); [delta, y] = -y
    one, u = ext_q.index["1"], ext_q.index["u"]
    y = Cochain(ext_q, 1, 1, {(one,): {u: ext_q.field.one()}})
    assert y.bidegree == (1, -1)
    d = euler_delta(ext_q)
    assert (bracket(d, y) + y).is_zero()


def test_cup_identity_cochain(dual_q):
    # id cup id recovers the multiplication (both have even map degree 0)
    i = identity_cochain(dual_q)
    assert (cup(i, i) - shifted_m2(dual_q)).is_zero()


def test_cup_with_zero(ext_q):
    z = Cochain.zero(ext_q, 1, 0)
    d = euler_delta(ext_q)
    assert cup(d, z).is_zero() and cup(z, d).is_zero()


def test_euler_cup_square_bounds_exactly(dual_q, ext_q):
    for a in (dual_q, ext_q):
        d = euler_delta(a)
        b = beta_cochain(a)
        assert (cup(d, d) + hoch_d(b)).is_zero()


def test_sq_parity_guard(ext_q):
    d = euler_delta(ext_q)  # map degree 0: even
    with pytest.raises(DomainError):
        sq(d)
    # characteristic 2 allows it
    a2 = exterior_line(PrimeField(2))
    sq(euler_delta(a2))


def test_sq_of_m2_vanishes(dual_q):
    assert sq(shifted_m2(dual_q)).is_zero()


def test_hoch_d_squares_to_zero_randomized():
    a = dual_numbers(PrimeField(5))
    rng = random.Random(3)
    for _ in range(20):
        f = random_cochain(rng, a, 2, 0, density=3, normalized=False)
        assert hoch_d(hoch_d(f)).is_zero()


def test_hoch_d_bidegree(ext_q):
    f = random_cochain(random.Random(0), ext_q, 2, 1)
    if not f.is_zero():
        p, q = f.bidegree
        assert hoch_d(f).bidegree == (p + 1, q)


def test_bidegree_bookkeeping(ext_q):
    rng = random.Random(1)
    x = random_cochain(rng, ext_q, 2, 1)
    y = random_cochain(rng, ext_q, 1, 0)
    if x.is_zero() or y.is_zero():
        pytest.skip("unlucky draw")
    assert bracket(x, y).bidegree == (2, 1)
    assert cup(x, y).bidegree == (3, 1)


def test_identity_suite_all_fields():
    for field in (Rationals(), PrimeField(2), PrimeField(5)):
        for a in (dual_numbers(field), exterior_line(field), truncated_skew_laurent(field, 3)):
            run_identity_suite(a, trials=12, seed=99)


def test_single_identities_on_sparse_cochains():
    a = exterior_line(PrimeField(5))
    rng = random.Random(5)
    x = random_cochain(rng, a, 2, 1)
    y = random_cochain(rng, a, 1, 1)
    z = random_cochain(rng, a, 2, 0)
    assert check_brace_relation(x, [y], [z, z])
    assert check_leibniz(x, y)
    assert check_commutativity_witness(x, y)
    assert check_derivation_witness(x, y, z)
    xo = random_cochain(rng, a, 2, 0)  # map degree -1: odd
    yo = random_cochain(rng, a, 2, 0)
    assert check_square_bracket(xo, y)
    assert check_sq_cup_witness(xo, yo)


def test_normalized_flag(ext_q):
    one = ext_q.unit
    f = Cochain(ext_q, 1, 0, {(one,): {one: ext_q.field.one()}})
    assert not f.is_normalized()
    assert euler_delta(ext_q).is_normalized()


def test_bracket_of_multiplication_with_itself(dual_q, ext_q):
    # [m2, m2] = 2 m2{m2} = 0 on a valid algebra
    for a in (dual_q, ext_q):
        m2 = shifted_m2(a)
        assert bracket(m2, m2).is_zero()


def test_sq_of_zero_cochain(ext_q):
    assert sq(Cochain.zero(ext_q, 2, 1)).is_zero()


@pytest.mark.parametrize("make", [
    lambda: dual_numbers(Rationals()),
    lambda: exterior_line(Rationals()),
    lambda: truncated_skew_laurent(PrimeField(3), 3),
], ids=["dual-Q", "exterior-Q", "tsl-F3-3"])
def test_hoch_d_matches_brute_force(make):
    a = make()
    rng = random.Random(11)
    checked = 0
    for p in range(4):
        for q in q_support(a, p):
            for normalized in (True, False):
                for _ in range(3):
                    f = random_cochain(rng, a, p, q, density=3, normalized=normalized)
                    assert hoch_d(f).table == reference_hoch_d(f)
                    checked += not f.is_zero()
    assert checked > 20


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3), PrimeField(5)],
                         ids=["Q", "F2", "F3", "F5"])
def test_hoch_d_matches_bracket_form(field):
    # random cochains with several entries, on the seeded small algebras and
    # on tsl(field, 3), against the brace form [m2, f]; and the bracket
    # [g, f] with a second random cochain g of arity 0-3, against the brace
    # form [g, f], for every parity of |g| and |f|
    rng = random.Random(field.char + 7)
    algebras = small_algebras(field, field.char) + [truncated_skew_laurent(field, 3)]
    checked = 0
    parities = set()
    for a in algebras:
        g_cells = [(p, q) for p in range(4) for q in q_support(a, p)]
        for p in range(5):
            for q in q_support(a, p):
                for normalized in (True, False, False):
                    f = random_cochain(rng, a, p, q, density=4, normalized=normalized)
                    want = reference_bracket_hoch_d(f)
                    got = hoch_d(f)
                    assert (got.arity, got.end_degree) == (want.arity, want.end_degree)
                    assert got.table == want.table
                    checked += len(f.table) > 1
                    g = random_cochain(rng, a, *rng.choice(g_cells), density=3,
                                       normalized=rng.random() < 0.5)
                    got = bracket(g, f)
                    assert got == reference_bracket(g, f)
                    if not got.is_zero():
                        parities.add((g.arity, g.end_degree % 2, f.end_degree % 2))
    assert checked > 50
    assert {(g, f) for _, g, f in parities} == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert {arity for arity, _, _ in parities} == {0, 1, 2, 3}


def test_bracket_with_structure_maps_matches_brace_form():
    """[m_i, z] and [z, m_i] for every structure map m_i, i >= 3, of the
    A_4 and A_5 tower fixtures and random z of arity 0-3 in both pipelines
    equal the brace form."""
    from test_obstruction import FIXTURES

    from hochcalc.cli import build_structure, parse_input

    rng = random.Random("bracket-m_i")
    checked = 0
    for name in ("tower_f2_a4_extendable", "tower_f2_a4_obstructed", "tower_f2_a5_valid"):
        s = build_structure(parse_input((FIXTURES / f"{name}.json").read_text()))
        cells = [(p, q) for p in range(4) for q in q_support(s.algebra, p)]
        for i in range(3, s.k + 1):
            m = s.map(i)
            for p, q in cells:
                for normalized in (True, False):
                    z = random_cochain(rng, s.algebra, p, q, density=3, normalized=normalized)
                    got = bracket(m, z)
                    assert got == reference_bracket(m, z)
                    assert bracket(z, m) == reference_bracket(z, m)
                    checked += not got.is_zero()
    assert checked > 20


def test_bracket_of_cochains_is_the_walk(monkeypatch):
    """bracket on two Cochains composes nothing: neither ``brace`` nor
    ``Cochain.compose_at`` runs."""
    import hochcalc.cochain as cochain

    def refuse(*args):
        raise AssertionError("the bracket of two Cochains built a brace")

    a = truncated_skew_laurent(PrimeField(3), 3)
    rng = random.Random(3)
    f, g = random_cochain(rng, a, 2, 0, density=4), random_cochain(rng, a, 3, -1, density=4)
    want = reference_bracket(f, g)
    monkeypatch.setattr(cochain, "brace", refuse)
    monkeypatch.setattr(Cochain, "compose_at", refuse)
    got = bracket(f, g)
    assert got == want and not got.is_zero()


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3), PrimeField(7)],
                         ids=repr)
def test_add_at_matches_add_into(field):
    """Writing sparse dicts' items into a table with ``_add_at`` gives the
    table of ``reference_add_into`` on every entry, keys dropped on
    cancellation included."""
    rng = random.Random(f"add_at/{field!r}")
    neg = field.neg

    def scalar():
        c = field.from_int(rng.randint(-3, 3))
        return c if field.char or rng.random() < 0.5 else c / rng.choice([2, 3])

    cancelled = 0
    for _ in range(200):
        fast, slow = {}, {}
        for _ in range(rng.randrange(1, 12)):
            key = rng.randrange(4)
            vec = {k: x for k in range(5) if not field.is_zero(x := scalar())}
            c = rng.choice([None, scalar()])
            if c is not None and field.is_zero(c):
                c = None
            if key in fast and rng.random() < 0.3:
                # a second write that cancels the entry
                vec, c = {k: neg(x) for k, x in fast[key].items()}, None
                cancelled += 1
            _add_at(field, fast, key, vec.items(), c)
            slow[key] = reference_add_into(field, slow.get(key, {}), vec.items(), c)
            if not slow[key]:
                del slow[key]
            assert fast == slow
    assert cancelled > 50


@pytest.mark.parametrize("p", [3, 5])
def test_constructors_normalize_scalars(p):
    """A cochain or a product table built with the coefficient p + 1 over
    F_p equals the one built with 1: scalars are reduced where they come in,
    so equality of tables is equality of maps."""
    F = PrimeField(p)
    a = dual_numbers(F)
    assert Cochain(a, 1, 0, {(1,): {1: p + 1}}) == Cochain(a, 1, 0, {(1,): {1: 1}})
    assert Cochain(a, 1, 0, {(1,): {1: p + 1}}).table == {(1,): {1: 1}}
    basis = [("1", 0), ("x", 1), ("y", 2)]
    products = [GradedAlgebra(F, basis, "1", {("x", "x"): {"y": c}}).products for c in (p + 1, 1)]
    assert products[0] == products[1] == {(1, 1): {2: 1}}


@pytest.mark.parametrize("make", [
    lambda: truncated_skew_laurent(PrimeField(3), 4),
    lambda: truncated_skew_laurent(Rationals(), 3),
    lambda: exterior_line(Rationals(), 1),
    lambda: exterior_line(Rationals(), -2),
    lambda: square_zero_tower(PrimeField(2), [-3, 1, 4]),
], ids=["tsl-F3-4", "tsl-Q-3", "exterior-1", "exterior-minus-2", "tower-negative"])
def test_cochain_basis_matches_reference(make):
    a = make()
    for p in range(6):
        for q in range(-12, 12):
            for normalized in (True, False):
                got = cochain_basis(a, p, q, normalized)
                assert got == reference_cochain_basis(a, p, q, normalized)


def test_cochain_basis_at_arity_1500(ext_q):
    # the unit is the only other letter, so the reference enumerates one
    # tuple; the enumeration must not recurse once per slot
    for q in (1499, 1500, 1501):
        assert cochain_basis(ext_q, 1500, q) == reference_cochain_basis(ext_q, 1500, q)
    # in the full pipeline the degree bound alone excludes the unit here,
    # out of 2^1500 tuples
    only = ((ext_q.index["u"],) * 1500, ext_q.index["1"])
    assert cochain_basis(ext_q, 1500, 1500, normalized=False) == [only]
    # one slot more: the unit in any one slot, in lexicographic order, then
    # no unit at all; 1,502 tuples out of 2^1501
    unit, u = ext_q.index["1"], ext_q.index["u"]
    want = [((u,) * i + (unit,) + (u,) * (1500 - i), unit) for i in range(1501)]
    want.append(((u,) * 1501, u))
    assert cochain_basis(ext_q, 1501, 1500, normalized=False) == want


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3)], ids=repr)
def test_q_support_matches_basis_enumeration(field):
    """q_support reads emptiness off the live-prefix pass; it lists exactly
    the q with a nonempty full (p, q) basis, and live[0] is nonzero exactly
    when the basis of either pipeline is nonempty."""
    algebras = small_algebras(field, field.char + 3) + [truncated_skew_laurent(field, 3)]
    if field.char == 0:
        algebras += fixture_algebras()
    for a in algebras:
        lo, hi = a.degree_span()
        reach = max(abs(lo), abs(hi)) + 2
        for p in range(5):
            window = range(-(p + 1) * reach, (p + 1) * reach + 1)
            nonempty = [q for q in window if cochain_basis(a, p, q, normalized=False)]
            assert q_support(a, p) == nonempty
            for q in window:
                for normalized in (True, False):
                    live = _live_prefixes(a, p, q, normalized)[0]
                    assert bool(live[0]) == bool(cochain_basis(a, p, q, normalized))


def check_operands_unchanged(operands, ops):
    """Run each ``(name, op)`` of ``ops`` and check that its result is
    nonzero, that it leaves the table of every cochain in ``operands`` as it
    was, down to the entries, and that its result shares no entry with
    them: the in-place accumulation of sums relies on each cochain owning
    its entries."""
    before = [copy.deepcopy(c.table) for c in operands]
    held = {id(entry) for c in operands for entry in c.table.values()}
    for name, op in ops:
        out = op()
        assert not out.is_zero(), name
        for c, table in zip(operands, before):
            assert c.table == table, name
        assert not held & {id(entry) for entry in out.table.values()}, name


@pytest.mark.parametrize("field", [Rationals(), PrimeField(2), PrimeField(3)], ids=repr)
def test_no_operation_changes_an_operand(field):
    rng = random.Random(1)
    a = truncated_skew_laurent(field, 4)
    f, g, b = (random_cochain(rng, a, 3, -1, density=40) for _ in range(3))
    h = random_cochain(rng, a, 1, 0, density=10)
    s = AInfStructure(a, 4, {3: f})
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
        ("perturb", lambda: perturb(s, 3, b).map(3)),
        ("stasheff_residual", lambda: stasheff_residual(s, 5)),
    ]
    check_operands_unchanged([f, g, h, b, shifted_m2(a)], ops)
