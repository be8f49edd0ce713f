"""Reference algorithms for the plane rules, kept only as test oracles.

The library reads tangent pairs, fork triples and the fork certificate off
each plane's lines (`PlanarComplex.plane_lines`).  These are the algorithms
that rule replaced, each working its fact out another way:

* tangent pairs are lines adjacent in the rotation at a singular point, and
  transversal pairs the other pairs meeting there;
* fork triples are pairwise tangent triples not concurrent at one vertex;
* the fork certificate is the first plane of line-valency 3 whose dual-graph
  node lies on no cycle, found by a depth-first search.
"""

from itertools import combinations
from typing import Iterable

from degen.complexes import PlanarComplex, SingularPoint
from degen.pipeline import ForkVertex


def _point_tangent_pairs(pt: SingularPoint) -> set[tuple[int, int]]:
    c = pt.lines_cyclic
    pairs = {tuple(sorted(p)) for p in zip(c, c[1:])}
    if pt.kind == "inner" and pt.multiplicity >= 3:
        pairs.add(tuple(sorted((c[-1], c[0]))))
    return pairs


def rotation_tangent_pairs(points: Iterable[SingularPoint]) -> tuple[tuple[int, int], ...]:
    """Pairs of lines adjacent in the rotation at some singular point."""
    return tuple(sorted(set().union(*map(_point_tangent_pairs, points))))


def rotation_transversal_pairs(
    points: Iterable[SingularPoint],
) -> tuple[tuple[int, int], ...]:
    """Pairs of lines meeting at a singular point without being adjacent there."""
    pairs: set[tuple[int, int]] = set()
    for pt in points:
        meeting = set(combinations(sorted(pt.lines_cyclic), 2))
        pairs |= meeting - _point_tangent_pairs(pt)
    return tuple(sorted(pairs))


def concurrency_fork_triples(
    tangent: Iterable[tuple[int, int]], points: Iterable[SingularPoint]
) -> tuple[tuple[int, int, int], ...]:
    """Pairwise tangent line triples not concurrent at a single vertex."""
    tset = set(tangent)
    lines = sorted({i for p in tset for i in p})
    concurrent = {
        trip for pt in points for trip in combinations(sorted(pt.lines_cyclic), 3)
    }
    return tuple(
        (a, b, c)
        for a, b, c in combinations(lines, 3)
        if {(a, b), (a, c), (b, c)} <= tset and (a, b, c) not in concurrent
    )


def dfs_fork_certificate(complex_: PlanarComplex) -> ForkVertex | None:
    """First plane (by number) of line-valency >= 3 on no dual-graph cycle.

    A node is on a cycle exactly when two of its neighbours stay connected
    after the node is removed.
    """
    planes = sorted(complex_.triangles)
    adj: dict[int, set[int]] = {n: set() for n in planes}
    incident: dict[int, list[int]] = {n: [] for n in planes}
    for line, (p, q) in complex_.line_planes().items():
        adj[p].add(q)
        adj[q].add(p)
        incident[p].append(line)
        incident[q].append(line)

    def connected_without(node: int, a: int, b: int) -> bool:
        stack, seen = [a], {node, a}
        while stack:
            x = stack.pop()
            if x == b:
                return True
            for y in adj[x] - seen:
                seen.add(y)
                stack.append(y)
        return False

    for node in planes:
        if len(incident[node]) < 3:
            continue
        if any(connected_without(node, a, b) for a, b in combinations(sorted(adj[node]), 2)):
            continue
        return ForkVertex(plane=node, lines=tuple(sorted(incident[node])[:3]))
    return None
