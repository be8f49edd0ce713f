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


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when closed segments ``ab`` and ``cd`` intersect anywhere except at
    shared endpoints.

    A shared endpoint is the only contact allowed between distinct edges of a
    planar complex; crossings, T-contacts, and collinear overlaps all count as
    conflicts.  Segments whose bounding boxes are apart are rejected first;
    then an endpoint of one segment strictly on one side of the other's line,
    with its partner strictly on the same side, rules contact out.  What
    remains is a proper crossing, when no endpoint is on the other's line, or
    else a contact exactly when an endpoint lies on the other segment short of
    its ends: for ``p`` on the line of ``uv``, when ``(p - u) . (p - v) < 0``.

    >>> O, I = Fraction(0), Fraction(1)
    >>> segments_conflict((O, O), (I, I), (O, I), (I, O))
    True
    >>> segments_conflict((O, O), (I, I), (I, I), (I, O))
    False
    """
    ax, ay = a
    bx, by = b
    cx, cy = c
    dx, dy = d
    if (
        (cx > ax < dx and cx > bx < dx)
        or (cx < ax > dx and cx < bx > dx)
        or (cy > ay < dy and cy > by < dy)
        or (cy < ay > dy and cy < by > dy)
    ):
        return False
    ux, uy = bx - ax, by - ay
    o1 = ux * (cy - ay) - uy * (cx - ax)
    o2 = ux * (dy - ay) - uy * (dx - ax)
    if (o1 > 0 and o2 > 0) or (o1 < 0 and o2 < 0):
        return False
    vx, vy = dx - cx, dy - cy
    o3 = vx * (ay - cy) - vy * (ax - cx)
    o4 = vx * (by - cy) - vy * (bx - cx)
    if (o3 > 0 and o4 > 0) or (o3 < 0 and o4 < 0):
        return False
    if o1 and o2 and o3 and o4:
        return True
    return (
        (not o1 and (cx - ax) * (cx - bx) + (cy - ay) * (cy - by) < 0)
        or (not o2 and (dx - ax) * (dx - bx) + (dy - ay) * (dy - by) < 0)
        or (not o3 and (ax - cx) * (ax - dx) + (ay - cy) * (ay - dy) < 0)
        or (not o4 and (bx - cx) * (bx - dx) + (by - cy) * (by - dy) < 0)
    )
