from fractions import Fraction

import pytest

from hochcalc.algebra import (
    GradedAlgebra,
    dual_numbers,
    exterior_line,
    square_zero_tower,
    truncated_skew_laurent,
    validate_algebra,
)
from hochcalc.errors import InputError
from hochcalc.exactla import PrimeField, Rationals


def test_dual_numbers_valid(QQ):
    assert validate_algebra(dual_numbers(QQ)) == []


def test_unit_product_override_rejected(QQ):
    with pytest.raises(InputError):
        GradedAlgebra(QQ, [("1", 0), ("e", 0)], "1", {("1", "e"): {"1": QQ.one()}})


def test_degree_violation_reported(QQ):
    # e moved to degree 1 with e*e = e breaks additivity
    a = GradedAlgebra(QQ, [("1", 0), ("e", 1)], "1", {("e", "e"): {"e": QQ.one()}})
    report = validate_algebra(a)
    assert any(r["kind"] == "degree" for r in report)


def test_eps_squared_one_is_valid(QQ):
    # k[e]/(e^2 - 1) in degree 0: associative and degree-additive
    a = GradedAlgebra(QQ, [("1", 0), ("e", 0)], "1", {("e", "e"): {"1": QQ.one()}})
    assert validate_algebra(a) == []


def test_associativity_violation_reported(QQ):
    a = GradedAlgebra(
        QQ,
        [("1", 0), ("u", 0), ("v", 0)],
        "1",
        {
            ("u", "u"): {"v": QQ.one()},
            ("u", "v"): {"u": QQ.one()},
            ("v", "u"): {},
            ("v", "v"): {},
        },
    )
    report = validate_algebra(a)
    kinds = {r["kind"] for r in report}
    assert "associativity" in kinds
    bad = next(r for r in report if r["kind"] == "associativity")
    assert set(bad["triple"]) <= {"1", "u", "v"}


@pytest.mark.parametrize("av, violations", [(1, []), (2, [["a", "b", "a"]])])
def test_associativity_compares_integral_fractions_with_ints(QQ, av, violations):
    """(ab)a = (w/2)a = {t: Fraction(1, 1)} and a(ba) = av = {t: av}: the
    integral Fraction equals the int 1, so only a v = 2t is a violation."""
    a = GradedAlgebra(
        QQ,
        [(name, 0) for name in ("1", "a", "b", "v", "w", "t")],
        "1",
        {
            ("a", "b"): {"w": Fraction(1, 2)},
            ("w", "a"): {"t": 2},
            ("b", "a"): {"v": 1},
            ("a", "v"): {"t": av},
        },
    )
    (ab_a,) = a.multiply(a.product(1, 2), {1: 1}).values()
    assert type(ab_a) is Fraction and ab_a == 1
    report = validate_algebra(a)
    assert [r["triple"] for r in report if r["kind"] == "associativity"] == violations
    assert len(report) == len(violations)


def test_exterior_line_valid(QQ):
    assert validate_algebra(exterior_line(QQ)) == []


def test_duplicate_names_rejected(QQ):
    with pytest.raises(InputError):
        GradedAlgebra(QQ, [("1", 0), ("1", 1)], "1")


def test_unit_must_be_degree_zero(QQ):
    with pytest.raises(InputError):
        GradedAlgebra(QQ, [("1", 1)], "1")


def test_truncated_skew_laurent_axioms():
    for field in (PrimeField(2), PrimeField(3), Rationals()):
        for n in (2, 3, 4):
            assert validate_algebra(truncated_skew_laurent(field, n)) == []


def test_square_zero_tower_axioms(F2):
    assert validate_algebra(square_zero_tower(F2, [1, 4, 7])) == []


def test_multiply_uses_relations(F3):
    a = truncated_skew_laurent(F3, 4)
    x = {a.index["x1"]: F3.one()}
    e = {a.index["e"]: F3.one()}
    # x e = -e x
    assert a.multiply(x, e) == {a.index["ex1"]: F3.from_int(-1)}
    assert a.multiply(e, x) == {a.index["ex1"]: F3.one()}
    # x^3 * x = 0 under the truncation
    x3 = {a.index["x3"]: F3.one()}
    assert a.multiply(x3, x) == {}
