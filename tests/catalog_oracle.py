"""Reference re-derivation of the catalog, kept only as a test oracle.

`verify_catalog` reads every case of a catalog directory and re-derives each
stored quantity that has an independent computation: the complex must
validate, hint citations must appear in the notes, and the singular points,
parasitic pairs, branch statistics and Chern coefficients must equal what
the complex yields.  Problems are collected, not raised, so one run names
every disagreement.
"""

from __future__ import annotations

from pathlib import Path
from typing import NamedTuple

from degen.catalog import Catalog, CatalogError
from degen.complexes import PlanarComplex
from degen.invariants import branch_stats, chern


def disjoint_line_pairs(complex_: PlanarComplex) -> tuple[tuple[int, int], ...]:
    """Pairs of lines sharing no vertex (parasitic intersections after
    regeneration), ascending, by testing every pair's endpoints."""
    pairs = []
    ends = [(i, set(pair)) for i, pair in sorted(complex_.line_numbering.items())]
    for k, (ia, ea) in enumerate(ends):
        for ib, eb in ends[k + 1 :]:
            if ea.isdisjoint(eb):
                pairs.append((ia, ib))
    return tuple(pairs)


class VerificationReport(NamedTuple):
    """Problems found while re-deriving catalog contents; empty means clean."""

    problems: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.problems


def verify_catalog(root: Path) -> VerificationReport:
    """Check the catalog under `root` and re-derive every stored quantity that
    has an oracle.

    Checksums must match the manifest, hint citations must appear in the
    case's notes, the complex must validate, and the stored classification,
    parasitic pairs, and invariants must equal what the complex yields.
    """
    problems: list[str] = []
    cat = Catalog(root)
    for entry in cat.entries:
        name = entry["name"]
        try:
            record = cat._read(entry)
        except (CatalogError, OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        report = record.complex.validate()
        if not report.ok:
            problems.append(f"{name}: complex invalid: {report.errors}")
            continue
        notes = set(record.notes)
        for hint in record.hints:
            if hint.citation not in notes:
                problems.append(f"{name}: hint citation {hint.citation!r} not in notes")
        points = record.complex.classify_vertices()
        derived_pts = tuple(
            (p.vertex, p.kind, p.multiplicity, tuple(sorted(p.lines_cyclic)))
            for p in points
        )
        if derived_pts != record.expected.points:
            problems.append(f"{name}: stored singular points disagree with complex")
        derived_parasitic = disjoint_line_pairs(record.complex)
        if derived_parasitic != record.expected.parasitic:
            problems.append(f"{name}: stored parasitic pairs disagree with complex")
        stats = branch_stats(record.complex)
        if (stats.mu, stats.d, stats.rho, stats.m) != (
            record.expected.mu,
            record.expected.d,
            record.expected.rho,
            record.expected.m,
        ):
            problems.append(f"{name}: stored branch statistics disagree with complex")
        ch = chern(stats)
        if (ch.c1_sq_coeff, ch.c2_coeff, ch.chi_coeff) != (
            record.expected.c1_sq_coeff,
            record.expected.c2_coeff,
            record.expected.chi_coeff,
        ):
            problems.append(f"{name}: stored Chern coefficients disagree with complex")
    return VerificationReport(problems=tuple(problems))
