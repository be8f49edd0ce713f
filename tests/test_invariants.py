from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from catalog_oracle import disjoint_line_pairs
from degen.invariants import (
    CONTRIBUTIONS,
    PARASITIC_NODES,
    InvariantError,
    branch_stats,
    chern,
)
from kernel_oracle import smith_normal_form

FACTORIAL_SIX = 720


def test_branch_stats_match_catalog(records):
    for rec in records:
        bs = branch_stats(rec.complex)
        exp = rec.expected
        assert bs.n == 6, rec.name
        assert (bs.m, bs.mu, bs.d, bs.rho) == (exp.m, exp.mu, exp.d, exp.rho), rec.name


def test_parasitic_count_matches_the_pair_listing(small_complexes):
    """C(L, 2) minus C(k, 2) at each singular point of k lines is the number of
    line pairs that share no vertex, on the catalog and every disk of up to 8
    triangles; `branch_stats` adds four nodes per pair wherever the table
    covers the points."""
    counted = 0
    for k, pc in enumerate(small_complexes):
        points = pc.classify_vertices()
        pairs = disjoint_line_pairs(pc)
        formula = comb(len(pc.line_numbering), 2) - sum(comb(p.multiplicity, 2) for p in points)
        assert formula == len(pairs), k
        try:
            d = branch_stats(pc).d
        except InvariantError:
            continue
        local = sum(CONTRIBUTIONS[p.kind, p.multiplicity][1] for p in points)
        assert d == local + PARASITIC_NODES * len(pairs), k
        counted += 1
    assert (len(small_complexes), counted) == (392, 379)


def test_chern_coefficients_match_catalog(records):
    for rec in records:
        cd = chern(branch_stats(rec.complex))
        exp = rec.expected
        got = (cd.c1_sq_coeff, cd.c2_coeff, cd.chi_coeff)
        assert got == (exp.c1_sq_coeff, exp.c2_coeff, exp.chi_coeff), rec.name


@pytest.mark.parametrize(
    "name, coeffs",
    [
        ("U_{0,4}", (4, 4, Fraction(-4, 3))),
        ("U_{0,7}", (4, Fraction(11, 2), Fraction(-7, 3))),
        ("U_{3∪3}", (16, 11, -2)),
    ],
)
def test_chern_spot_values(by_name, name, coeffs):
    cd = chern(branch_stats(by_name[name].complex))
    assert (cd.c1_sq_coeff, cd.c2_coeff, cd.chi_coeff) == coeffs
    assert cd.c1_sq == coeffs[0] * FACTORIAL_SIX
    assert cd.c2 == coeffs[1] * FACTORIAL_SIX
    assert cd.chi == coeffs[2] * FACTORIAL_SIX


def test_euler_characteristic_is_negative_third_multiple(records):
    for rec in records:
        cd = chern(branch_stats(rec.complex))
        assert cd.chi < 0, rec.name
        a = cd.chi / Fraction(-FACTORIAL_SIX, 3)
        assert a.denominator == 1 and 1 <= a <= 7, rec.name


def test_catalog_fixes_contribution_table(records):
    """Every catalogued kind occurs, and the cases' point counts have full
    column rank: with `test_branch_stats_match_catalog`, no other table gives
    the catalog's (mu, d, rho)."""
    keys = sorted(CONTRIBUTIONS)
    counts = []
    for rec in records:
        kinds = Counter((p.kind, p.multiplicity) for p in rec.complex.classify_vertices())
        assert set(kinds) <= set(keys), rec.name
        counts.append([kinds[k] for k in keys])
    assert all(any(column) for column in zip(*counts))
    assert len(smith_normal_form(counts)) == len(keys)
