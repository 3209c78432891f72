"""Seeded input documents for the benchmark.

Documents are written here, not with ``hochcalc.cli.emit_document``: that
function keeps only the last product of each row of the product table, so
its output describes a different algebra.  Every document is parsed back
with ``hochcalc.cli.parse_input`` and its product table (and structure
maps) compared with the generator's own objects before a job may use it.

A seed selects one of ``VARIANTS`` input variants, so that every input a
run can see has a recorded golden report (see ``golden.json``).
"""

from __future__ import annotations

import hashlib
import json
import random

from hochcalc.ainf import AInfStructure, is_valid, stasheff_residual
from hochcalc.algebra import GradedAlgebra, truncated_skew_laurent
from hochcalc.cli import parse_input
from hochcalc.cochain import Cochain, cochain_basis, sq
from hochcalc.cohomology import HHContext
from hochcalc.exactla import PrimeField, Rationals
from hochcalc.obstruction import extend_to

VARIANTS = 16


class GenerationError(Exception):
    """A generated document does not parse back to the generated object."""


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def field_json(field):
    return {"type": "Q"} if field.char == 0 else {"type": "F", "p": field.char}


def scalar_json(field, c):
    return str(c) if field.char == 0 else int(c)


def product_table(a: GradedAlgebra) -> dict:
    """Nonzero products of non-unit basis elements, keyed by names."""
    return {
        (a.names[i], a.names[j]): {a.names[k]: c for k, c in vec.items()}
        for (i, j), vec in a.products.items()
    }


def map_table(f: Cochain) -> dict:
    names = f.algebra.names
    return {
        tuple(names[i] for i in t): {names[k]: c for k, c in vec.items()}
        for t, vec in f.table.items()
    }


def document(a: GradedAlgebra, structure: AInfStructure = None) -> dict:
    field = a.field
    products: dict = {}
    for (x, y), vec in sorted(product_table(a).items()):
        products.setdefault(x, {})[y] = {n: scalar_json(field, c) for n, c in vec.items()}
    doc = {
        "field": field_json(field),
        "algebra": {
            "basis": [{"name": n, "degree": d} for n, d in zip(a.names, a.degrees)],
            "unit": a.names[a.unit],
            "products": products,
        },
    }
    if structure is not None:
        doc["structure"] = {
            "k": structure.k,
            "maps": {
                f"m{n}": [
                    {"args": list(args), "out": {o: scalar_json(field, c) for o, c in out.items()}}
                    for args, out in sorted(map_table(f).items())
                ]
                for n, f in sorted(structure.maps.items())
            },
        }
    return doc


def encode(doc: dict) -> bytes:
    return (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode("utf-8")


def check_roundtrip(data: bytes, a: GradedAlgebra, structure: AInfStructure = None):
    """Parse ``data`` with the CLI parser and compare it with the objects
    it was generated from."""
    parsed = parse_input(data.decode("utf-8"))
    b = parsed.algebra
    if (b.names, b.degrees, b.unit) != (a.names, a.degrees, a.unit):
        raise GenerationError("basis or unit differs after parse_input")
    if product_table(b) != product_table(a):
        raise GenerationError("product table differs after parse_input")
    if structure is None:
        if parsed.structure is not None:
            raise GenerationError("unexpected structure block after parse_input")
        return
    k, maps = parsed.structure
    got = {n: map_table(f) for n, f in maps.items() if not f.is_zero()}
    want = {n: map_table(f) for n, f in structure.maps.items()}
    if k != structure.k or got != want:
        raise GenerationError("structure maps differ after parse_input")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- hh-elim: permuted and renamed truncated skew Laurent algebras ----------


def permuted(a: GradedAlgebra, rng: random.Random) -> GradedAlgebra:
    """The same algebra with its basis shuffled and renamed."""
    order = list(range(a.dim))
    rng.shuffle(order)
    labels = rng.sample(range(100), a.dim)
    new_name = {old: f"b{labels[pos]}" for pos, old in enumerate(order)}
    basis = [(new_name[old], a.degrees[old]) for old in order]
    products = {
        (new_name[i], new_name[j]): {new_name[k]: c for k, c in vec.items()}
        for (i, j), vec in a.products.items()
    }
    return GradedAlgebra(a.field, basis, new_name[a.unit], products)


def hh_algebras(variant: int) -> dict:
    """Three basis orders: the elimination work depends on the order (its
    interquartile range over variants is about 10 %), so each pass spreads
    it over independent orders."""
    rng = random.Random(f"hh-elim/{variant}")
    return {
        "tsl_f3_4": permuted(truncated_skew_laurent(PrimeField(3), 4), rng),
        "tsl_q_3": permuted(truncated_skew_laurent(Rationals(), 3), rng),
        "tsl_f3_4_b": permuted(truncated_skew_laurent(PrimeField(3), 4), rng),
    }


# -- ak-tower: seeded A_4 structures ------------------------------------------


def _random_scalar(field, rng):
    if field.char:
        return field.from_int(rng.randrange(1, field.char))
    return field.from_int(rng.choice([-3, -2, -1, 1, 2, 3]))


def _combination(field, vectors, rng, terms):
    coords: dict = {}
    for v in rng.sample(vectors, min(terms, len(vectors))):
        c = _random_scalar(field, rng)
        for j, x in v.items():
            s = field.add(coords.get(j, field.zero()), field.mul(c, x))
            if field.is_zero(s):
                coords.pop(j, None)
            else:
                coords[j] = s
    return coords


def needs_deep_step(s: AInfStructure) -> bool:
    """After the greedy step to A_5, SI(6) is nonzero as a cochain, so the
    step to A_6 must perturb m_5 and compute HH at arity 6 and 7."""
    res = extend_to(s, 5)
    return res.ok and not stasheff_residual(res.structure, 6).is_zero()


def seeded_structure(a: GradedAlgebra, rng: random.Random, square: str,
                     deep: bool = False) -> AInfStructure:
    """A valid A_4 structure with m3 a seeded combination of the (3,-1)
    cocycle basis and m4 a sparse seeded (4,-2) cochain.

    ``square`` is "zero" for a nonzero m3 class whose Gerstenhaber square
    vanishes in HH^{5,-2} (so the page-2 obstruction vanishes), or
    "nonzero" for one whose square does not.  With ``deep``, the structure
    also passes :func:`needs_deep_step`, so every seed extends along the
    same, expensive path.
    """
    field = a.field
    ctx = HHContext(a)
    space3 = ctx.space(3, -1)
    space5 = ctx.space(5, -2)
    basis4 = cochain_basis(a, 4, -2)
    for _ in range(200):
        coords = _combination(field, space3.cocycles, rng, 4)
        table: dict = {}
        for j, c in coords.items():
            t, k = space3.basis[j]
            table.setdefault(t, {})[k] = c
        m3 = Cochain(a, 3, -1, table)
        cls = space3.class_of(m3)
        if cls.is_zero():
            continue
        if space5.class_of(sq(m3)).is_zero() != (square == "zero"):
            continue
        m4_table: dict = {}
        for t, k in rng.sample(basis4, min(3, len(basis4))):
            m4_table.setdefault(t, {})[k] = _random_scalar(field, rng)
        s = AInfStructure(a, 4, {3: m3, 4: Cochain(a, 4, -1, m4_table)})
        if not is_valid(s) and (not deep or needs_deep_step(s)):
            return s
    raise GenerationError(f"no A_4 structure with square={square} on {a!r}")


def ak_structures(variant: int) -> dict:
    rng = random.Random(f"ak-tower/{variant}")
    return {
        "tsl_f3_5": seeded_structure(
            truncated_skew_laurent(PrimeField(3), 5), rng, "zero", deep=True
        ),
        "tsl_f2_5": seeded_structure(truncated_skew_laurent(PrimeField(2), 5), rng, "nonzero"),
        "tsl_q_4": seeded_structure(truncated_skew_laurent(Rationals(), 4), rng, "nonzero"),
    }


def documents(workload: str, variant: int) -> dict:
    """Name -> encoded document for a workload's generated inputs, each
    checked against ``parse_input``."""
    out = {}
    if workload == "hh-elim":
        for name, a in hh_algebras(variant).items():
            data = encode(document(a))
            check_roundtrip(data, a)
            out[name] = data
    elif workload == "ak-tower":
        for name, s in ak_structures(variant).items():
            data = encode(document(s.algebra, s))
            check_roundtrip(data, s.algebra, s)
            out[name] = data
    return out
