"""Exact predicates for planar straight-line complexes.

Every predicate here is exact on ``int`` or ``fractions.Fraction``
coordinates: no epsilon tuning, no orientation flips from rounding.  The only
operations needed upstream are orientation tests and segment intersection
classification; the order of the lines around a vertex comes from the planes,
not from sorting directions.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from typing import Sequence

Point = tuple[Fraction, Fraction]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of triangle ``abc``: +1 ccw, -1 cw, 0 collinear.

    >>> O = Fraction(0)
    >>> orient((O, O), (Fraction(1), O), (O, Fraction(1)))
    1
    """
    d = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (d > 0) - (d < 0)


def strictly_convex(corners: Sequence[Point], winding: int) -> bool:
    """True when the closed polygon through ``corners`` is strictly convex and
    winds by ``winding`` (+1 ccw, -1 cw).

    Every corner must turn strictly with ``winding``, and the edge direction
    must go round exactly once.  The turns are counted as passes of one
    reference direction r, the first edge's: the step from edge u to the
    next edge v turns by less than a half turn, so it passes r, meaning r
    lies on the arc after u up to and including v, exactly when r is
    strictly on the turning side of u and v is not strictly on the other
    side of r.  The step from the last edge onto the first always passes r,
    so the direction goes round once when no other step does.

    Such a polygon is convex, hence simple.  Lift the edge directions to
    angles that grow through less than one full turn, back to the first
    edge's plus one turn.  Along the walk from the head of an edge e back
    to its tail, each later edge f moves the distance from e's line, on the
    turning side, by the cross product of e and f: strictly up while f is
    less than a half turn past e, not at all at a half turn, strictly down
    after it.  So that distance rises from 0 and falls back to 0, and every
    corner off e lies strictly on e's turning side.  Two edges that are not
    neighbours then cannot meet: the ends of each lie strictly on one side
    of the other's line.  Neighbours meet only at their shared corner,
    since the far end of each is strictly off the other's line.  A star
    polygon such as {5/2} turns strictly at every corner, but its direction
    goes round twice.

    >>> strictly_convex([(0, 0), (2, 0), (2, 2), (0, 2)], 1)
    True
    >>> strictly_convex([(0, 0), (1, 0), (2, 0), (0, 2)], 1)
    False
    """
    ax, ay = corners[-1]
    bx, by = corners[0]
    ux, uy = bx - ax, by - ay  # the edge into the current corner
    cx, cy = corners[1]
    rx, ry = cx - bx, cy - by  # the reference direction
    passes = 0
    for cx, cy in chain(corners[1:], corners[:1]):
        vx, vy = cx - bx, cy - by
        if winding * (ux * vy - uy * vx) <= 0:
            return False
        if winding * (ux * ry - uy * rx) > 0 and winding * (rx * vy - ry * vx) >= 0:
            passes += 1
        ux, uy, bx, by = vx, vy, cx, cy
    return passes == 1


def segments_conflict(a: Point, b: Point, c: Point, d: Point) -> bool:
    """True when closed segments ``ab`` and ``cd`` intersect anywhere except at
    shared endpoints.

    A shared endpoint is the only contact allowed between distinct edges of a
    planar complex; crossings, T-contacts, and collinear overlaps all count as
    conflicts.  An endpoint of one segment strictly on one side of the other's
    line, with its partner strictly on the same side, rules contact out.  What
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
