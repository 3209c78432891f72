"""Exact re-verification of a decided answer that replaced a recorded
"undecided" one, with public library calls only."""

from __future__ import annotations

from hochcalc.ainf import AInfStructure, is_valid, stasheff_residual
from hochcalc.cli import parse_input
from hochcalc.cochain import Cochain, brace, bracket, hoch_d


def cochain_from_json(a, arity: int, entries) -> Cochain:
    field = a.field
    table = {}
    for entry in entries:
        t = tuple(a.index[n] for n in entry["args"])
        table[t] = {a.index[n]: field.parse(c) for n, c in entry["out"].items()}
    return Cochain(a, arity, -1, table)


def structure_of(document: bytes) -> AInfStructure:
    doc = parse_input(document.decode("utf-8"))
    k, maps = doc.structure
    return AInfStructure(doc.algebra, k, maps)


def page3_witnesses(document: bytes, report: dict) -> bool:
    """hoch_d(b_top) = -SI(k+1) - [m3, b_prev] - b_prev{b_prev} (k = 4)."""
    results = report.get("results", {})
    if results.get("status") != "vanishes":
        return False
    s = structure_of(document)
    a = s.algebra
    b_prev = cochain_from_json(a, s.k - 1, results["witnesses"]["b_prev"])
    b_top = cochain_from_json(a, s.k, results["witnesses"]["b_top"])
    rhs = -(stasheff_residual(s, s.k + 1) + bracket(s.map(3), b_prev))
    if s.k == 4:
        rhs = rhs - brace(b_prev, [b_prev])
    return (hoch_d(b_top) - rhs).is_zero()


def extended_structure(document: bytes, report: dict, target_k: int) -> bool:
    """The reported structure is a valid A_{target_k} structure that keeps
    the document's algebra."""
    out = report.get("results", {}).get("structure")
    if not out or out["k"] != target_k:
        return False
    a = structure_of(document).algebra
    maps = {
        int(name[1:]): cochain_from_json(a, int(name[1:]), entries)
        for name, entries in out["maps"].items()
    }
    return not is_valid(AInfStructure(a, target_k, maps))
