"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers.  Every equality here is exact; the only tolerances
are the stated runtime budgets."""

import hashlib
import json
import random
import time

import pytest

from hochcalc.ainf import AInfStructure, is_valid
from hochcalc.algebra import dual_numbers, exterior_line, square_zero_tower, truncated_skew_laurent
from hochcalc.cochain import (
    beta_cochain,
    bracket,
    cochain_basis,
    cochain_from_coords,
    cup,
    euler_delta,
    hoch_d,
    q_support,
)
from hochcalc.cohomology import HHContext, hh_dim, induced_sq
from hochcalc.exactla import PrimeField, Rationals, rref, vec_add, vec_scale
from hochcalc.identities import run_identity_suite
from hochcalc.laurent import section8_report
from hochcalc.obstruction import (
    _iterate_coordinate_vectors,
    extend_once,
    extend_to,
    theta_page2,
)
from hochcalc.spectral import collapse_check, d1_matrix, d2_map, e1_term, e2_term
from hochcalc.errors import NotProvidedError, UndefinedCellError


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def sorted_json_sha256(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


# sha256 of the sorted-JSON section8 report, keyed by (characteristic, d_search)
SECTION8_DIGESTS = {
    (5, 3): "acc6bf188f20a1c61e6612a54baf21f971b3c824be57e684e9adfccf2600f99c",
    (0, 3): "3d2464c1aab2232b3f27fd82081c7e550727781e0457f973dff89c359162d592",
    (2, 3): "2c7c03dc50607557487ec835fb0bb5deade2a326f9c768744afff202489aabe1",
}


def test_acceptance_1_identity_suite():
    t0 = time.time()
    total = 0
    for field in (PrimeField(2), PrimeField(5), Rationals()):
        for make in (dual_numbers, exterior_line):
            counts = run_identity_suite(make(field), trials=200, seed=20240601)
            total += sum(counts.values())
    elapsed = time.time() - t0
    assert elapsed < 60, f"identity suite took {elapsed:.1f}s"
    report(1, f"{total} exact identity checks across 6 field/algebra pairs in {elapsed:.1f}s")


def test_acceptance_2_euler_identities():
    checked = 0
    for algebra in (exterior_line(Rationals()), truncated_skew_laurent(PrimeField(3), 3)):
        field = algebra.field
        delta = euler_delta(algebra)
        for p in range(5):
            for q in q_support(algebra, p):
                basis = cochain_basis(algebra, p, q, normalized=False)
                for n in range(len(basis)):
                    y = cochain_from_coords(algebra, p, q, basis, {n: field.one()})
                    assert (bracket(delta, y) - y.scale(field.from_int(q))).is_zero()
                    checked += 1
        b = beta_cochain(algebra)
        assert (cup(delta, delta) + hoch_d(b)).is_zero()
    report(2, f"[delta,y] = q y on {checked} basis cochains (p <= 4) and the cup "
              "square bounds exactly on both algebras")


def test_acceptance_3_oracle_equivalence():
    frozen = {
        ("dual", 2): [2, 2, 2, 2, 2],
        ("dual", 3): [2, 1, 1, 1, 1],
    }
    for char in (2, 3):
        a = dual_numbers(PrimeField(char))
        norm = [hh_dim(a, p, 0, normalized=True) for p in range(5)]
        full = [hh_dim(a, p, 0, normalized=False) for p in range(5)]
        assert norm == full == frozen[("dual", char)]
    ext = exterior_line(Rationals())
    frozen_ext = {0: {-1: 1, 0: 1}, 1: {0: 1, 1: 1}, 2: {1: 1, 2: 1},
                  3: {2: 1, 3: 1}, 4: {3: 1, 4: 1}}
    cells = 0
    for p in range(5):
        for q in q_support(ext, p):
            want = frozen_ext[p].get(q, 0)
            assert hh_dim(ext, p, q, True) == hh_dim(ext, p, q, False) == want
            cells += 1
    report(3, f"normalized and full pipelines agree with frozen dimensions "
              f"(10 dual-number blocks, {cells} exterior blocks)")


def _random_cocycle(rng, space):
    field = space.algebra.field
    coords = {}
    for v in space.cocycles:
        c = rng.randrange(field.char)
        if c:
            coords = vec_add(field, coords, vec_scale(field, field.from_int(c), v))
    return cochain_from_coords(space.algebra, space.p, space.q, space.basis, coords)


def test_acceptance_4_theta_equals_square():
    t0 = time.time()
    trials = 0
    for char in (2, 3):
        field = PrimeField(char)
        a = truncated_skew_laurent(field, 4)
        ctx = HHContext(a)
        sp = ctx.space(3, -1)
        basis4 = cochain_basis(a, 4, -2)
        rng = random.Random(char * 1000 + 7)
        for _ in range(20):
            m3 = _random_cocycle(rng, sp)
            m4coords = {
                rng.randrange(len(basis4)): field.from_int(rng.randrange(1, char))
                for _ in range(3)
            }
            m4 = cochain_from_coords(a, 4, -2, basis4, m4coords)
            maps = {n: f for n, f in ((3, m3), (4, m4)) if not f.is_zero()}
            s = AInfStructure(a, 4, maps)
            assert is_valid(s) == []
            theta = theta_page2(s, ctx)
            sq_cls = induced_sq(ctx, sp.class_of(m3))
            assert theta.coords == sq_cls.coords
            trials += 1
    elapsed = time.time() - t0
    assert elapsed < 120, f"took {elapsed:.1f}s"
    report(4, f"page-2 obstruction equals the square of the universal Massey class "
              f"on {trials} solver-generated structures (F_2 and F_3) in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def collapse_fixture():
    field = PrimeField(2)
    tower = square_zero_tower(field, [1, 4, 7])
    ctx = HHContext(tower)
    sp = ctx.space(3, -1)
    for code in range(1, 2**sp.dim):
        coords = {j: field.one() for j in range(sp.dim) if (code >> j) & 1}
        m3 = sp.class_from_coords(coords).representative
        if not induced_sq(ctx, sp.class_of(m3)).is_zero():
            continue
        s = AInfStructure(tower, 4, {3: m3})
        r = extend_once(s, 3, ctx)
        if r.ok:
            return tower, ctx, r.structure
    pytest.fail("no valid A_5 fixture on the tower")


def test_acceptance_5_spectral_pages(collapse_fixture):
    # (i) E1 dims equal cochain counts; homology of d1 equals page-2 dims,
    # on a 6 x 8 window
    from itertools import product as iproduct

    window_s = range(0, 6)
    window_t = range(-3, 5)
    for a in (dual_numbers(PrimeField(3)), exterior_line(Rationals())):
        ctx = HHContext(a)
        for s in window_s:
            for t in window_t:
                dim = e1_term(ctx, s, t).dim
                count = 0
                for tup in iproduct(range(a.dim), repeat=s + 2):
                    want = sum(a.degrees[i] + 1 for i in tup) + (1 - (s + 2) + t)
                    count += sum(1 for k in range(a.dim) if a.degrees[k] + 1 == want)
                assert dim == count
                cell = e2_term(ctx, s, t)
                if cell.kind == "vector":
                    out = d1_matrix(ctx, s, t)
                    inc = d1_matrix(ctx, s - 1, t) if (s - 1 >= 1 or t > s - 1 >= 0) else None
                    hom = len(rref(out).kernel()) - (rref(inc)[0] if inc is not None else 0)
                    assert hom == cell.dim
                elif cell.kind == "cocycle":
                    assert cell.dim == len(rref(d1_matrix(ctx, s, t)).kernel())
    # (ii) d2 composes to zero on all linear cells of a valid k = 5 fixture
    tower, ctx, phi5 = collapse_fixture
    composites = 0
    for s in range(0, 4):
        for t in range(-1, 5):
            try:
                m1 = d2_map(ctx, phi5, s, t)
            except (NotProvidedError, UndefinedCellError):
                continue
            if not hasattr(m1, "entries"):
                continue
            try:
                m2m = d2_map(ctx, phi5, s + 2, t + 1)
            except (NotProvidedError, UndefinedCellError):
                continue
            for j in range(m1.cols):
                assert m2m.apply(m1.column(j)) == {}
            composites += 1
    # (iii) under the collapse hypotheses on a window, every page-3 cell
    # with s >= 2 vanishes, cell by cell
    window = ((2, 4), (6, 8))
    res = collapse_check(ctx, phi5, window)
    assert res["sq_vanishes"] and res["cup_bijective_on_window"]
    assert res["e3_vanishes_on_window"] is True
    cells = [c for c in res["e3_cells"].values() if c.kind == "vector"]
    assert cells and all(c.dim == 0 for c in cells)
    report(5, f"E1/d1/E2 agree on a 6x8 window for two algebras; "
              f"{composites} d2-composites vanish; page-3 window vanishing "
              f"confirmed on {len(cells)} cells")


def test_acceptance_6_section8_char5_and_char0():
    t0 = time.time()
    for char in (5, 0):
        rep = section8_report(char, d_search=3)
        status = {c["id"]: c["status"] for c in rep["checks"]}
        for check_id in ("a", "b", "d", "e", "g", "h"):
            assert status[check_id] == "PASS", (char, check_id, rep["failed"])
        samples = next(c for c in rep["checks"] if c["id"] == "e")["detail"]["samples"]
        expected = {"(0,1)", "(1,0)", "(1,1)"} | ({"(2,3)"} if char == 5 else set())
        assert set(samples) == expected
        assert all(v == "witness" for v in samples.values())
        assert sorted_json_sha256(rep) == SECTION8_DIGESTS[(char, 3)]
    elapsed = time.time() - t0
    assert elapsed < 600, f"took {elapsed:.1f}s"
    report(6, f"worked-example report passes in characteristic 5 and 0 "
              f"(witnessed at all stated sample pairs) in {elapsed:.1f}s")


def test_acceptance_7_section8_char2():
    t0 = time.time()
    rep = section8_report(2, d_search=3)
    status = {c["id"]: c["status"] for c in rep["checks"]}
    for check_id in ("a", "b", "c", "d", "f"):
        assert status[check_id] == "PASS", (check_id, rep["failed"])
    detail = next(c for c in rep["checks"] if c["id"] == "f")["detail"]["samples"]
    assert len(detail) == 8 and all(v == "witness" for v in detail.values())
    assert sorted_json_sha256(rep) == SECTION8_DIGESTS[(2, 3)]
    report(7, f"characteristic-2 report passes, including the diagonal square "
              f"identity and the four-coefficient formula at 8 tuples "
              f"({time.time() - t0:.1f}s)")


def test_acceptance_8_solver_roundtrip(collapse_fixture):
    tower, ctx, phi5 = collapse_fixture
    field = tower.field
    sp = ctx.space(3, -1)
    successes = failures = 0
    for code in range(2**sp.dim):
        coords = {j: field.one() for j in range(sp.dim) if (code >> j) & 1}
        m3 = sp.class_from_coords(coords).representative
        s = AInfStructure(tower, 4, {3: m3} if not m3.is_zero() else {})
        r = extend_once(s, 3, ctx)
        if r.ok:
            assert is_valid(r.structure) == []
            successes += 1
        else:
            rep = r.report
            # the rank certificate re-checks: the cocycle is exact iff the
            # linear system has a solution, and the class coordinates are
            # nonzero
            assert rep.page2_class.coords
            space = ctx.space(s.k + 1, 2 - s.k)
            z = rep.cocycle
            assert hoch_d(z).is_zero()
            assert space.is_coboundary(z) is None
            failures += 1
    assert successes and failures
    # extension always succeeds when every obstruction group vanishes
    a = dual_numbers(Rationals())
    ctx0 = HHContext(a)
    for k in range(3, 9):
        assert ctx0.space(k + 1, 2 - k).dim == 0
    res = extend_to(AInfStructure(a, 3), 9, ctx0)
    assert res.ok and res.structure.k == 9 and is_valid(res.structure) == []
    report(8, f"{successes} extension successes re-validated, {failures} failures "
              "re-checked against their certificates; zero-recipient algebra "
              "extends to stage 9")


def test_acceptance_9_quadratic_locus_equality():
    field = PrimeField(2)
    tower = square_zero_tower(field, [1, 4, 7])
    ctx = HHContext(tower)
    sp = ctx.space(3, -1)
    assert sp.dim <= 4
    zero_locus = set()
    extendable = set()
    for coords in _iterate_coordinate_vectors(field, sp.dim):
        key = tuple(sorted(coords.items()))
        cls = sp.class_from_coords(coords)
        if induced_sq(ctx, cls).is_zero():
            zero_locus.add(key)
        s = AInfStructure(tower, 4, {3: cls.representative} if coords else {})
        if extend_once(s, 3, ctx).ok:
            extendable.add(key)
    assert extendable == zero_locus
    report(9, f"solver-extendable classes equal the square's zero locus "
              f"({len(zero_locus)} of {2**sp.dim} classes over F_2), exact set equality")
