"""A fixed pure-Python reference workload that measures host speed.

The benchmark runs on shared machines whose speed drifts by 20 % or more
within minutes, and both wall and CPU time drift with it.  Timing this
loop between the jobs gives the run's host speed; end-to-end times are
reported scaled to ``REFERENCE_S``, about the loop's time in a quiet
period on a shared 2-vCPU Xeon at 2.1 GHz with CPython 3.11.  The loop is the benchmark's
own code and never imports hochcalc, so a change to hochcalc cannot move
it.  It mimics hochcalc's inner loops: sparse Gaussian elimination on
dict rows, over F_p with ints and over Q with Fractions.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

REFERENCE_S = 0.13
_P = 10007
_N = 80


def _eliminate(rows, n, add, mul, inv, zero):
    rows = [dict(r) for r in rows]
    pivot_row = 0
    for col in range(n):
        sel = next((i for i in range(pivot_row, len(rows)) if col in rows[i]), None)
        if sel is None:
            continue
        rows[pivot_row], rows[sel] = rows[sel], rows[pivot_row]
        scale = inv(rows[pivot_row][col])
        prow = rows[pivot_row] = {j: mul(scale, c) for j, c in rows[pivot_row].items()}
        for i, row in enumerate(rows):
            c = row.get(col)
            if i == pivot_row or c is None:
                continue
            for j, pc in prow.items():
                s = add(row.get(j, zero), -mul(c, pc))
                if s == 0:
                    row.pop(j, None)
                else:
                    row[j] = s
        pivot_row += 1
    return pivot_row


def _matrices():
    rng = random.Random(1)
    mod_p = [{j: rng.randrange(1, _P) for j in rng.sample(range(_N), 8)} for _ in range(_N)]
    over_q = [{j: Fraction(c % 7 + 1, c % 5 + 1) for j, c in r.items()} for r in mod_p[:36]]
    return mod_p, over_q


_MOD_P, _OVER_Q = _matrices()


def sample() -> float:
    """Seconds for one run of the reference loop."""
    start = time.perf_counter()
    _eliminate(_MOD_P, _N, lambda a, b: (a + b) % _P, lambda a, b: a * b % _P,
               lambda a: pow(a, _P - 2, _P), 0)
    _eliminate(_OVER_Q, _N, lambda a, b: a + b, lambda a, b: a * b, lambda a: 1 / a, Fraction(0))
    return time.perf_counter() - start
