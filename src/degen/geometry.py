"""Exact predicates for planar straight-line complexes.

Every predicate here is exact on ``int`` or ``fractions.Fraction``
coordinates: no epsilon tuning, no orientation flips from rounding.  The only
operations needed upstream are orientation tests and segment intersection
classification; the order of the lines around a vertex comes from the planes,
not from sorting directions.
"""

from __future__ import annotations

from fractions import Fraction

Point = tuple[Fraction, Fraction]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle ``abc``: +1 ccw, -1 cw, 0 collinear.

    >>> O = Fraction(0)
    >>> orient((O, O), (Fraction(1), O), (O, Fraction(1)))
    1
    """
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """True when collinear ``p`` lies within the closed bounding box of ``ab``."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when closed segments ``ab`` and ``cd`` intersect anywhere except at
    shared endpoints.

    A shared endpoint is the only contact allowed between distinct edges of a
    planar complex; crossings, T-contacts, and collinear overlaps all count as
    conflicts.
    """
    shared = {p for p in (a, b) if p in (c, d)}
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if orient(u, v, p) == 0 and _on_segment(u, v, p) and p not in shared and p not in (u, v):
            return True
    # Collinear overlap with both endpoints shared is the same segment twice.
    if o1 == o2 == o3 == o4 == 0 and len(shared) == 2 and {a, b} != {c, d}:
        return True
    return False

