"""Numerical invariants of a degeneration: branch-curve statistics and Chern numbers.

After regenerating a degeneration with ``n`` planes and ``L`` lines, the
branch curve has degree ``m = 2L`` and carries cusps, nodes and branch points
whose counts decompose as sums of local contributions over the singular
points, plus four nodes per parasitic (disjoint) line pair.  Distinct lines
are distinct edges (a `PlanarComplex` is refused with two lines on one
edge), so two lines meet in at most one vertex, and the k_v lines at a
singular point v meet pairwise there: the parasitic pairs number
C(L, 2) - sum over v of C(k_v, 2).  The Chern
numbers of the Galois cover then come from the classical formulas

    c1^2 = n!/4 * (m - 6)^2
    c2   = n! * (3 - m + d/4 + mu/2 + rho/6)
    chi  = (c1^2 - 2 c2) / 3

where ``mu`` counts cusps/3 contributions, ``d`` nodes and ``rho`` branch
points in the normalisation used throughout the table (all values are then
reported as multiples of 6! for degree-6 degenerations).  By Hirzebruch's
signature theorem ``chi`` is the signature tau of the cover, not its
topological Euler characteristic, which is ``c2``; the name ``chi`` stays in
the JSON keys and table columns.

The table below is checked against the catalog's printed branch data: every
case's (mu, d, rho) must come out as printed, and the catalog fixes the table
uniquely, because its cases' counts of each (kind, multiplicity) have full
column rank.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .complexes import PlanarComplex

# (kind, multiplicity) -> (mu, d, rho)
CONTRIBUTIONS: dict[tuple[str, int], tuple[int, int, int]] = {
    ("outer", 1): (1, 0, 0),
    ("outer", 2): (1, 0, 3),
    ("outer", 3): (2, 4, 6),
    ("outer", 4): (3, 12, 9),
    ("outer", 5): (4, 24, 12),
    ("inner", 3): (4, 0, 6),
    ("inner", 4): (4, 4, 12),
    ("inner", 5): (5, 12, 18),
    ("inner", 6): (6, 24, 24),
}

PARASITIC_NODES = 4  # nodes per disjoint line pair


class InvariantError(ValueError):
    """Raised on arithmetic inconsistencies or out-of-range vertex kinds."""


class BranchStats(NamedTuple):
    n: int  # planes
    m: int  # branch curve degree, 2L
    mu: int
    d: int
    rho: int


class ChernData(NamedTuple):
    c1_sq: int
    c2: int
    chi: Fraction
    # The same values as exact multiples of n!.
    c1_sq_coeff: Fraction
    c2_coeff: Fraction
    chi_coeff: Fraction


def branch_stats(complex_: PlanarComplex) -> BranchStats:
    n = len(complex_.triangles)
    m = 2 * len(complex_.line_numbering)
    mu = d = rho = 0
    parasitic = math.comb(len(complex_.line_numbering), 2)
    for pt in complex_.classify_vertices():
        if (pt.kind, pt.multiplicity) not in CONTRIBUTIONS:
            raise InvariantError(
                f"no catalogued contribution for {pt.kind} {pt.multiplicity}-points"
            )
        cmu, cd, crho = CONTRIBUTIONS[(pt.kind, pt.multiplicity)]
        mu += cmu
        d += cd
        rho += crho
        parasitic -= math.comb(pt.multiplicity, 2)
    d += PARASITIC_NODES * parasitic
    return BranchStats(n, m, mu, d, rho)


def chern(stats: BranchStats) -> ChernData:
    """c1^2, c2 and the signature (c1^2 - 2 c2)/3, named ``chi``, of the cover.

    Integer arithmetic: c1^2 = n! (m - 6)^2 / 4 and
    c2 = n! (12 (3 - m) + 3 d + 6 mu + 2 rho) / 12, each by one ``divmod``.
    Only ``chi``, the three exact coefficients of n! and the text of the
    `InvariantError` for a non-integral number are ``Fraction``s.
    """
    nf = math.factorial(stats.n)
    c1_num = nf * (stats.m - 6) ** 2
    c2_num = nf * (12 * (3 - stats.m) + 3 * stats.d + 6 * stats.mu + 2 * stats.rho)
    (c1, r1), (c2, r2) = divmod(c1_num, 4), divmod(c2_num, 12)
    if r1 or r2:
        c1_sq, c2_exact = Fraction(c1_num, 4), Fraction(c2_num, 12)
        raise InvariantError(f"non-integral Chern numbers: c1^2={c1_sq}, c2={c2_exact}")
    chi = Fraction(c1 - 2 * c2, 3)
    return ChernData(c1, c2, chi, Fraction(c1, nf), Fraction(c2, nf), chi / nf)
