from collections import Counter
from fractions import Fraction

import pytest

from degen.fpgroup import smith_normal_form
from degen.invariants import CONTRIBUTIONS, branch_stats, chern

FACTORIAL_SIX = 720


def test_branch_stats_match_catalog(records):
    for rec in records:
        bs = branch_stats(rec.complex)
        exp = rec.expected
        assert bs.n == 6, rec.name
        assert (bs.m, bs.mu, bs.d, bs.rho) == (exp.m, exp.mu, exp.d, exp.rho), rec.name


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
