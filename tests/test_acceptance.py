"""Acceptance gate: one test per shipped claim, each with its stated budget.

Run with ``pytest tests/test_acceptance.py -v`` to get exactly one pass/fail
line per criterion.  Budgets are wall-clock upper bounds measured inside the
test, so a pass here certifies both the result and the cost of producing it.
"""

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations

from catalog_oracle import disjoint_line_pairs
from degen.catalog import open_catalog
from degen.enumerator import (
    CombinatorialMap,
    EnumeratorError,
    canonical_form,
    enumerate_maps,
)
from degen.fpgroup import todd_coxeter
from degen.invariants import CONTRIBUTIONS, branch_stats, chern
from degen.pipeline import decide
from degen.relations import Presentation, reduced_presentation, tangent_pairs
from enumeration_helpers import match_catalog
from kernel_oracle import kernel_abelianization, line_transpositions, smith_normal_form
from rotation_oracles import rotation_transversal_pairs

FACTORIAL_SIX = 720

# Kernel ranks of the nontrivial cases; every other case has rank 0.
KERNEL_RANKS = {
    "U_{0,5,1}": 14, "U_{0,5,2}": 14, "U_{0,5,3}": 14, "U_{0,6,3}": 14,
    "U_{0,5,4}": 23,
    "U_{0,5,5}": 9, "U_{0,6,2}": 9, "U_{3,5}": 9,
}

NONTRIVIAL = frozenset(
    {
        "U_{0,5,1}",
        "U_{0,5,2}",
        "U_{0,5,3}",
        "U_{0,5,4}",
        "U_{0,5,5}",
        "U_{0,6,2}",
        "U_{0,6,3}",
        "U_{3,5}",
    }
)

SPOT_VALUES = {
    "U_{0,4}": (Fraction(4), Fraction(4), Fraction(-4, 3)),
    "U_{0,7}": (Fraction(4), Fraction(11, 2), Fraction(-7, 3)),
    "U_{3∪3}": (Fraction(16), Fraction(11), Fraction(-2)),
}


def _coxeter_symmetric(n):
    gens = tuple(range(1, n))
    return Presentation(gens, tuple((i, i + 1) for i in gens[:-1]), ())


def _presentation(rec):
    return reduced_presentation(
        rec.complex, inner6_relators=rec.extra_inner_relators or None
    )


def test_criterion_1_chern_table(records):
    """Every case reproduces its (c1^2, c2, chi) row exactly, within 5 seconds."""
    start = time.monotonic()
    for rec in records:
        cd = chern(branch_stats(rec.complex))
        exp = rec.expected
        assert (cd.c1_sq_coeff, cd.c2_coeff, cd.chi_coeff) == (
            exp.c1_sq_coeff,
            exp.c2_coeff,
            exp.chi_coeff,
        ), rec.name
        assert cd.c1_sq == exp.c1_sq_coeff * FACTORIAL_SIX, rec.name
        assert cd.chi == exp.chi_coeff * FACTORIAL_SIX, rec.name
    for name, coeffs in SPOT_VALUES.items():
        rec = next(r for r in records if r.name == name)
        cd = chern(branch_stats(rec.complex))
        assert (cd.c1_sq_coeff, cd.c2_coeff, cd.chi_coeff) == coeffs, name
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"table took {elapsed:.2f}s"
    print(f"criterion 1: PASS ({elapsed:.2f}s)")


def test_criterion_2_decisions_with_hints(records):
    """Hinted decisions split 20/8/1 into trivial/nontrivial/undecided in 60s."""
    start = time.monotonic()
    outcomes = {rec.name: decide(rec).outcome for rec in records}
    elapsed = time.monotonic() - start
    assert {n for n, o in outcomes.items() if o == "nontrivial"} == set(NONTRIVIAL)
    assert {n for n, o in outcomes.items() if o == "undecided"} == {"U_{4,2}"}
    trivial = {n for n, o in outcomes.items() if o == "trivial"}
    assert len(trivial) == 20
    for rec in records:
        assert outcomes[rec.name] == rec.expected.pi1, rec.name
    assert elapsed < 60.0, f"decisions took {elapsed:.2f}s"
    print(f"criterion 2: PASS ({elapsed:.2f}s)")


def test_criterion_3_coset_enumeration_orders(records):
    """Trivial cases enumerate to order 720; the symmetric-group sanity
    presentations give 6 and 720."""
    assert todd_coxeter(_coxeter_symmetric(3)).live_cosets == 6
    assert todd_coxeter(_coxeter_symmetric(6)).live_cosets == 720
    for rec in records:
        if rec.expected.pi1 != "trivial":
            continue
        out = todd_coxeter(_presentation(rec))
        assert out.completed, rec.name
        assert out.live_cosets == 720, rec.name
    print("criterion 3: PASS")


def test_criterion_4_branch_data_and_fit(records):
    """Branch statistics match the catalog, and the catalog fixes the
    contribution table: every kind occurs and the point counts have full
    column rank."""
    keys = sorted(CONTRIBUTIONS)
    counts = []
    for rec in records:
        bs = branch_stats(rec.complex)
        exp = rec.expected
        assert (bs.m, bs.mu, bs.d, bs.rho) == (exp.m, exp.mu, exp.d, exp.rho), rec.name
        kinds = Counter((p.kind, p.multiplicity) for p in rec.complex.classify_vertices())
        counts.append([kinds[k] for k in keys])
    assert all(any(column) for column in zip(*counts))
    assert len(smith_normal_form(counts)) == len(keys)
    print("criterion 4: PASS")


def _exhaustive_count(num_triangles):
    forms = set()
    for k in range(3, num_triangles + 3):
        triples = list(combinations(range(1, k + 1), 3))
        for chosen in combinations(triples, num_triangles):
            used = set()
            for tri in chosen:
                used.update(tri)
            if len(used) != k:
                continue
            try:
                forms.add(canonical_form(CombinatorialMap.from_triangles(chosen)))
            except EnumeratorError:
                continue
    return len(forms)


def test_criterion_5_enumeration_bijection(records):
    """Six-triangle enumeration yields 29 classes in bijection with the
    catalog within 2 minutes; small counts match an exhaustive oracle.

    Known failure: the catalog lists U_{0,5,1} and U_{0,5,3} separately, but
    they are the same complex up to relabeling (a mirror pair), so
    reflection-inclusive enumeration finds 28 classes, not 29.  The assertion
    states the shipped claim verbatim and is expected to fail until the
    catalog or the claim is amended.
    """
    for t, expected in [(1, 1), (2, 1), (3, 2), (4, 5)]:
        assert _exhaustive_count(t) == expected == len(enumerate_maps(t))
    start = time.monotonic()
    maps = enumerate_maps(6)
    report = match_catalog(maps, records)
    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"enumeration took {elapsed:.2f}s"
    claim_holds = len(maps) == 29 and report.is_bijection
    assert claim_holds, (
        f"expected 29 classes in bijection with the 29-case catalog; "
        f"enumeration found {len(maps)} classes with {len(report.matched)} "
        f"matched, unmatched records {report.unmatched_records!r}, "
        f"{len(report.unmatched_maps)} unmatched maps "
        f"(U_{{0,5,1}} and U_{{0,5,3}} share one class)"
    )
    print(f"criterion 5: PASS ({elapsed:.2f}s)")


def test_criterion_6_property_suites(records):
    """Structural invariants hold across the catalog: degree handshake,
    line-pair partition, Euler bounds, canonical-form relabeling invariance,
    and kernel abelianizations, whose index (a BFS over permutations) must
    equal every enumerated order."""
    rng = random.Random(160729)
    for rec in records:
        pc = rec.complex
        points = pc.classify_vertices()

        total = sum(p.multiplicity for p in points)
        assert total == 2 * len(pc.line_planes()), rec.name

        lines = sorted(pc.line_numbering)
        all_pairs = {(a, b) for a, b in combinations(lines, 2)}
        tangent = set(tangent_pairs(pc))
        transversal = set(rotation_transversal_pairs(points))
        disjoint = set(disjoint_line_pairs(pc))
        assert tangent | transversal | disjoint == all_pairs, rec.name
        assert tangent.isdisjoint(transversal), rec.name
        assert tangent.isdisjoint(disjoint), rec.name
        assert transversal.isdisjoint(disjoint), rec.name

        cd = chern(branch_stats(pc))
        assert cd.chi < 0, rec.name
        a = cd.chi / Fraction(-FACTORIAL_SIX, 3)
        assert a.denominator == 1 and 1 <= a <= 7, rec.name

        base = canonical_form(CombinatorialMap.from_triangles(pc.triangles.values()))
        vertices = sorted(pc.vertices)
        for _ in range(1000):
            shuffled = vertices[:]
            rng.shuffle(shuffled)
            relabel = dict(zip(vertices, shuffled))
            relabeled = CombinatorialMap.from_triangles(
                tuple(
                    tuple(relabel[v] for v in tri) for tri in pc.triangles.values()
                )
            )
            assert canonical_form(relabeled) == base, rec.name

    for rec in records:
        ka = kernel_abelianization(
            _presentation(rec), line_transpositions(rec.complex), degree=6
        )
        rank = KERNEL_RANKS.get(rec.name, 0)
        assert (ka.index, ka.rank, ka.torsion) == (720, rank, ()), rec.name
        verdict = decide(rec)
        if verdict.enumeration is not None:
            assert verdict.certificate.order == ka.index, rec.name
            if (ka.rank, ka.torsion) == (0, ()):
                assert verdict.certificate.order == FACTORIAL_SIX, rec.name
        assert (rec.name in KERNEL_RANKS) == (rec.expected.pi1 == "nontrivial"), rec.name
    print("criterion 6: PASS")
