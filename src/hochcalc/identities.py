"""Chain-level Gerstenhaber identities and the randomized suite that
exercises them.

Every identity here is an exact equality of cochains.  Together they pin
down the evaluation sign convention: any convention passing the whole
suite is conformant, and the suite is run both by the tests and by the
``props`` CLI command.
"""

from __future__ import annotations

import random
from itertools import combinations_with_replacement

from .cochain import (
    Cochain,
    brace,
    bracket,
    cochain_basis,
    cochain_from_coords,
    cup,
    hoch_d,
    q_support,
    sq,
)


def _neg_if(f, flag: bool):
    return f.scale(f.algebra.field.neg(f.algebra.field.one())) if flag else f


def check_brace_relation(x, ys, zs):
    """x{y_1..y_p}{z_1..z_q} equals the sum over interleavings of
    x{z.., y_1{z..}, .., y_p{z..}, z..} with Koszul signs."""
    lhs = brace(brace(x, ys), zs)
    p, q = len(ys), len(zs)
    field = x.algebra.field
    rhs = lhs.zero_like(lhs.arity, lhs.end_degree)
    # choose 0 <= i_1 <= j_1 <= ... <= i_p <= j_p <= q
    for cuts in combinations_with_replacement(range(q + 1), 2 * p):
        args = []
        sign = 0
        pos = 0
        for k in range(p):
            i_k, j_k = cuts[2 * k], cuts[2 * k + 1]
            args.extend(zs[pos:i_k])
            args.append(brace(ys[k], zs[i_k:j_k]))
            sign += ys[k].end_degree * sum(z.end_degree for z in zs[:i_k])
            pos = j_k
        args.extend(zs[pos:])
        rhs = rhs + _neg_if(brace(x, args), sign % 2 == 1)
    return (lhs - rhs).is_zero()


def check_square_bracket(x, y):
    """[x{x}, y] = [x, [x, y]] for odd |x| or characteristic 2."""
    lhs = bracket(brace(x, [x]), y)
    rhs = bracket(x, bracket(x, y))
    return (lhs - rhs).is_zero()


def check_cup_associative(x, y, z):
    return (cup(cup(x, y), z) - cup(x, cup(y, z))).is_zero()


def check_leibniz(x, y):
    """[m2, x cup y] = [m2, x] cup y + (-1)^{|x|-1} x cup [m2, y]."""
    lhs = hoch_d(cup(x, y))
    rhs = cup(hoch_d(x), y) + _neg_if(cup(x, hoch_d(y)), (x.end_degree - 1) % 2 == 1)
    return (lhs - rhs).is_zero()


def check_commutativity_witness(x, y):
    """x cup y - (-1)^{(|x|-1)(|y|-1)} y cup x is an explicit coboundary-type
    expression in braces of x, y and their differentials."""
    dx, dy = x.end_degree, y.end_degree
    lhs = cup(x, y) - _neg_if(cup(y, x), ((dx - 1) * (dy - 1)) % 2 == 1)
    inner = (
        hoch_d(brace(x, [y]))
        - brace(hoch_d(x), [y])
        - _neg_if(brace(x, [hoch_d(y)]), dx % 2 == 1)
    )
    rhs = _neg_if(inner, dx % 2 == 0)  # overall factor -(-1)^{|x|}
    return (lhs - rhs).is_zero()


def check_derivation_witness(x, y, z):
    """[x, y cup z] - [x,y] cup z - (-1)^{|x|(|y|-1)} y cup [x,z] equals the
    displayed brace expression."""
    dx, dy = x.end_degree, y.end_degree
    lhs = (
        bracket(x, cup(y, z))
        - cup(bracket(x, y), z)
        - _neg_if(cup(y, bracket(x, z)), (dx * (dy - 1)) % 2 == 1)
    )
    inner = (
        hoch_d(brace(x, [y, z]))
        - brace(hoch_d(x), [y, z])
        - _neg_if(brace(x, [hoch_d(y), z]), dx % 2 == 1)
        - _neg_if(brace(x, [y, hoch_d(z)]), (dx + dy) % 2 == 1)
    )
    rhs = _neg_if(inner, (dx + dy) % 2 == 1)
    return (lhs - rhs).is_zero()


def check_sq_sum(x, y):
    """Sq(x + y) = Sq(x) + Sq(y) + [x, y] (odd degree or char 2)."""
    lhs = sq(x + y)
    rhs = sq(x) + sq(y) + bracket(x, y)
    return (lhs - rhs).is_zero()


def check_sq_bracket(x, y):
    """[Sq(x), y] = [x, [x, y]]."""
    return (bracket(sq(x), y) - bracket(x, bracket(x, y))).is_zero()


def check_sq_cup_witness(x, y):
    """The chain-level form of Sq(x cup y) = Sq(x) y^2 + x [x,y] y + x^2 Sq(y):
    the defect is an explicit ten-term brace expression."""
    dx, dy = x.end_degree, y.end_degree
    lhs = (
        sq(cup(x, y))
        - cup(sq(x), cup(y, y))
        - cup(x, cup(bracket(x, y), y))
        - cup(cup(x, x), sq(y))
    )
    m2dx, m2dy = hoch_d(x), hoch_d(y)
    rhs = (
        hoch_d(cup(x, brace(y, [x, y])))
        + cup(x, brace(y, [m2dx, y]))
        - cup(x, brace(y, [x, m2dy]))
        + hoch_d(cup(brace(x, [x, y]), y))
        + cup(brace(x, [m2dx, y]), y)
        - cup(brace(x, [x, m2dy]), y)
        + hoch_d(cup(brace(x, [x]), brace(y, [y])))
        + cup(brace(x, [m2dx]), brace(y, [y]))
        - cup(brace(x, [x]), brace(y, [m2dy]))
        - brace(hoch_d(cup(x, y)), [x, y])
    )
    return (lhs - rhs).is_zero()


def check_bracket_antisymmetry(x, y):
    lhs = bracket(x, y)
    rhs = _neg_if(bracket(y, x), (x.end_degree * y.end_degree) % 2 == 0)
    return (lhs - rhs).is_zero()


def check_brace_vanishing(x, args):
    """x{args} = 0 when there are more arguments than slots."""
    if len(args) <= x.arity:
        return True
    return brace(x, args).is_zero()


def check_d_squared(x):
    return hoch_d(hoch_d(x)).is_zero()


# -- randomized suite ---------------------------------------------------------


def random_cochain(rng: random.Random, a, p: int, q: int, density: int = 2,
                   normalized: bool = True) -> Cochain:
    basis = cochain_basis(a, p, q, normalized=normalized)
    field = a.field
    picks = []
    for _ in range(min(density, len(basis))):
        n = rng.randrange(len(basis))
        if field.char == 0:
            c = field.from_int(rng.choice([-2, -1, 1, 2, 3]))
        else:
            c = field.from_int(rng.randrange(1, field.char))
        picks.append((n, c))
    return cochain_from_coords(a, p, q, basis, field.add_into({}, picks))


def _nonzero_cells(a, max_arity: int):
    cells = []
    for p in range(0, max_arity + 1):
        for q in q_support(a, p):
            cells.append((p, q))
    return cells


def _random_nonzero(rng, a, cells, parity=None):
    """Random sparse cochain from the listed cells, optionally with odd map
    degree; may be zero if the draw is unlucky."""
    pool = cells
    if parity is not None:
        pool = [(p, q) for (p, q) in cells if (1 - p - q) % 2 == parity]
        if not pool:
            return None
    p, q = pool[rng.randrange(len(pool))]
    return random_cochain(rng, a, p, q)


def run_identity_suite(a, trials: int, seed: int, max_arity: int = 3):
    """Run all chain-level identities on random sparse cochains.

    Returns a dict with per-identity counts; raises AssertionError on the
    first failure, naming the identity.
    """
    rng = random.Random(seed)
    cells = _nonzero_cells(a, max_arity)
    char2 = a.field.char == 2
    counts: dict = {}

    def tick(name, ok):
        counts[name] = counts.get(name, 0) + 1
        if not ok:
            raise AssertionError(f"identity {name} failed at trial {counts[name]}")

    for _ in range(trials):
        x = _random_nonzero(rng, a, cells)
        y = _random_nonzero(rng, a, cells)
        z = _random_nonzero(rng, a, cells)
        ys = [_random_nonzero(rng, a, cells) for _ in range(rng.randrange(1, 3))]
        zs = [_random_nonzero(rng, a, cells) for _ in range(rng.randrange(0, 3))]
        tick("brace_relation", check_brace_relation(x, ys, zs))
        tick("cup_associative", check_cup_associative(x, y, z))
        tick("leibniz", check_leibniz(x, y))
        tick("commutativity_witness", check_commutativity_witness(x, y))
        tick("derivation_witness", check_derivation_witness(x, y, z))
        tick("bracket_antisymmetry", check_bracket_antisymmetry(x, y))
        tick("d_squared", check_d_squared(x))
        tick("brace_vanishing", check_brace_vanishing(x, [y] * (x.arity + 1)))
        xo = x if char2 else _random_nonzero(rng, a, cells, parity=1)
        yo = y if char2 else _random_nonzero(rng, a, cells, parity=1)
        if xo is not None and yo is not None:
            tick("square_bracket", check_square_bracket(xo, y))
            tick("sq_sum", check_sq_sum(xo, _same_shape(rng, a, xo)))
            tick("sq_bracket", check_sq_bracket(xo, y))
            tick("sq_cup_witness", check_sq_cup_witness(xo, yo))
    return counts


def _same_shape(rng, a, x):
    p, q = x.bidegree
    return random_cochain(rng, a, p, q)
