"""Isomorph-free generation of triangulated planar degenerations.

A state of the search is a set of triangles forming a valid complex; two
growth moves preserve validity and reach every valid state: attaching a
fresh triangle along one boundary edge (new apex vertex), and filling a
boundary corner with a triangle on two adjacent boundary edges (the corner
vertex becomes interior).  Isomorphs are pruned with a canonical form over
rooted rotation-system codes, minimized across boundary root darts and
reflection, so mirror images count once, matching the published total of
29 for six triangles.  The outer face is traced once per map, from the
open vertex fans, and stored as its boundary walk; the mirror image's outer
face is that walk reversed, so canonical forms trace no face orbits.

Generated maps are purely combinatorial; `embed` synthesizes exact rational
coordinates (boundary on a circle, interior vertices at neighbor averages)
and the result must pass full complex validation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .complexes import PlanarComplex

MAX_TRIANGLES_GUARD = 8

Triangle = frozenset  # of three vertex labels


class EnumeratorError(ValueError):
    """Invalid map input or an unorientable/pinched triangle set."""


class ResourceBoundExceeded(RuntimeError):
    """Generation stopped early; `counts` holds the completed levels."""

    def __init__(self, message: str, counts: tuple[int, ...]):
        super().__init__(message)
        self.counts = counts


@dataclass(frozen=True)
class CombinatorialMap:
    """Rotation system of a triangulated disk, plus its boundary walk.

    Rotations are full cyclic neighbor orders (the outer face closes each
    boundary fan), consistently oriented across the map.  The absolute
    orientation is arbitrary; canonical forms minimize over both.
    """

    rotations: tuple[tuple[int, tuple[int, ...]], ...]
    boundary: tuple[int, ...]
    triangles: tuple[tuple[int, int, int], ...]

    @property
    def rotation_dict(self) -> dict[int, tuple[int, ...]]:
        return dict(self.rotations)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @classmethod
    def from_triangles(cls, triangles: Iterable[Iterable[int]]) -> "CombinatorialMap":
        tris = [frozenset(t) for t in triangles]
        if len(set(tris)) != len(tris):
            raise EnumeratorError("duplicate triangles")
        for t in tris:
            if len(t) != 3:
                raise EnumeratorError(f"not a triangle: {sorted(t)}")
        oriented = _orient(tris)
        rot, open_fans = _rotations_from_oriented(oriented)
        if len(oriented) == 1:
            # a lone triangle's walk runs either way round; keep its orientation
            boundary = oriented[0]
        else:
            boundary = _boundary_walk(rot, open_fans)
        return cls(
            rotations=tuple(sorted((v, tuple(ring)) for v, ring in rot.items())),
            boundary=boundary,
            triangles=tuple(sorted(tuple(sorted(t)) for t in tris)),
        )

    @classmethod
    def from_complex(cls, complex_: PlanarComplex) -> "CombinatorialMap":
        return cls.from_triangles(complex_.triangles.values())


def _orient(tris: Sequence[Triangle]) -> list[tuple[int, int, int]]:
    """Orient all triangles consistently by propagating across shared edges."""
    by_edge: dict[frozenset, list[int]] = {}
    for i, t in enumerate(tris):
        for e in _edges_of(t):
            by_edge.setdefault(e, []).append(i)
    for e, owners in by_edge.items():
        if len(owners) > 2:
            raise EnumeratorError(f"edge {sorted(e)} lies in {len(owners)} triangles")
    oriented: dict[int, tuple[int, int, int]] = {}
    a, b, c = sorted(tris[0])
    oriented[0] = (a, b, c)
    queue = deque([0])
    while queue:
        i = queue.popleft()
        t = oriented[i]
        darts = {(t[0], t[1]), (t[1], t[2]), (t[2], t[0])}
        for e in _edges_of(tris[i]):
            for j in by_edge[e]:
                if j == i:
                    continue
                x, y = tuple(e)
                want = (x, y) if (y, x) in darts else (y, x)
                z = next(iter(tris[j] - e))
                flipped = (want[0], want[1], z)
                if j in oriented:
                    jd = oriented[j]
                    jdarts = {(jd[0], jd[1]), (jd[1], jd[2]), (jd[2], jd[0])}
                    if (want[0], want[1]) not in jdarts:
                        raise EnumeratorError("unorientable triangle gluing")
                else:
                    oriented[j] = flipped
                    queue.append(j)
    if len(oriented) != len(tris):
        raise EnumeratorError("triangles do not form a connected interior")
    return [oriented[i] for i in range(len(tris))]


def _edges_of(t: Triangle) -> list[frozenset]:
    a, b, c = sorted(t)
    return [frozenset({a, b}), frozenset({a, c}), frozenset({b, c})]


def _rotations_from_oriented(
    oriented: Sequence[tuple[int, int, int]]
) -> tuple[dict[int, list[int]], set[int]]:
    """Chain each vertex's triangle wedges into one fan, closed cyclically.

    Also returns the vertices whose fan is open: the boundary vertices.
    """
    succ: dict[int, dict[int, int]] = {}
    for a, b, c in oriented:
        for v, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            wedges = succ.setdefault(v, {})
            if x in wedges:
                raise EnumeratorError(f"pinched vertex {v}")
            wedges[x] = y
    rot: dict[int, list[int]] = {}
    open_fans: set[int] = set()
    for v, wedges in succ.items():
        targets = set(wedges.values())
        starts = [x for x in wedges if x not in targets]
        if not starts:
            start = next(iter(wedges))
        elif len(starts) == 1:
            start = starts[0]
            open_fans.add(v)
        else:
            raise EnumeratorError(f"pinched vertex {v}")
        ring = [start]
        x = start
        while x in wedges:
            x = wedges[x]
            if x == start:
                break
            ring.append(x)
        expected = len(wedges) + (1 if starts else 0)
        if len(ring) != expected:
            raise EnumeratorError(f"pinched vertex {v}")
        rot[v] = ring
    return rot, open_fans


def _boundary_walk(
    rot: Mapping[int, Sequence[int]], open_fans: set[int]
) -> tuple[int, ...]:
    """Trace the outer face from the smallest boundary vertex.

    Each vertex with an open fan steps to the last neighbour of its fan.
    """
    if not open_fans:
        raise EnumeratorError("no boundary: the triangles close up into a surface")
    start = min(open_fans)
    walk = [start]
    v = rot[start][-1]
    while v != start and len(walk) < len(open_fans):
        walk.append(v)
        v = rot[v][-1]
    if v != start or len(walk) != len(open_fans):
        raise EnumeratorError(
            f"expected one boundary cycle; the walk from {start} closes"
            f" after {len(walk)} of {len(open_fans)} boundary vertices"
        )
    return tuple(walk)


# ----------------------------------------------------------------------
# Canonical forms.
# ----------------------------------------------------------------------


def _rooted_code(
    rot: Mapping[int, Sequence[int]], root: tuple[int, int]
) -> tuple[int, ...]:
    """Relabel vertices in traversal order; equal codes mean rooted isomorphism."""
    u0, v0 = root
    label = {u0: 0, v0: 1}
    order = [u0, v0]
    anchor = {u0: v0, v0: u0}
    out: list[int] = []
    i = 0
    while i < len(order):
        x = order[i]
        i += 1
        ring = rot[x]
        j = ring.index(anchor[x])
        for w in ring[j:] + ring[:j]:
            if w not in label:
                label[w] = len(order)
                order.append(w)
                anchor[w] = x
            out.append(label[w])
        out.append(-1)
    return tuple(out)


def canonical_form(map_: CombinatorialMap) -> tuple[int, ...]:
    """Minimum rooted code over boundary root darts and both reflections.

    Roots range over darts of the outer face only, which pins the outer face
    of both maps being compared.  The outer face is traced once per map, as
    `map_.boundary`; reflection is covered by re-encoding the mirror image
    (all rotations reversed), whose outer face is the same walk reversed.
    """
    rot = map_.rotation_dict
    mirror = _mirror(rot)
    b = map_.boundary
    darts = list(zip(b, b[1:] + b[:1]))
    return min(
        [_rooted_code(rot, (u, v)) for u, v in darts]
        + [_rooted_code(mirror, (v, u)) for u, v in darts]
    )


def _mirror(rot: Mapping[int, Sequence[int]]) -> dict[int, tuple[int, ...]]:
    return {v: tuple(reversed(ring)) for v, ring in rot.items()}


# ----------------------------------------------------------------------
# Generation.
# ----------------------------------------------------------------------


def _grow(state: frozenset[Triangle], boundary: tuple[int, ...]) -> Iterator[frozenset[Triangle]]:
    edges = {e for t in state for e in _edges_of(t)}
    fresh = max(v for t in state for v in t) + 1
    k = len(boundary)
    for i in range(k):
        u, v = boundary[i], boundary[(i + 1) % k]
        yield state | {frozenset({u, v, fresh})}
    for i in range(k):
        u, v, w = boundary[i - 1], boundary[i], boundary[(i + 1) % k]
        if u != w and frozenset({u, w}) not in edges:
            yield state | {frozenset({u, v, w})}


def enumerate_maps(
    num_triangles: int,
    *,
    max_states: int | None = None,
    guard: int = MAX_TRIANGLES_GUARD,
) -> list[CombinatorialMap]:
    """One representative per isomorphism class with the given triangle count.

    `guard` bounds the requested size (resource guard; raise it consciously
    for bigger runs), and `max_states` optionally caps the total number of
    distinct maps touched across all levels, aborting with the counts of the
    completed levels.
    """
    if num_triangles < 1:
        raise EnumeratorError("num_triangles must be at least 1")
    if num_triangles > guard:
        raise EnumeratorError(
            f"num_triangles {num_triangles} exceeds the guard {guard};"
            " pass a larger guard explicitly for big runs"
        )
    seed = frozenset({frozenset({1, 2, 3})})
    level: dict[tuple[int, ...], tuple[frozenset[Triangle], CombinatorialMap]] = {}
    first = CombinatorialMap.from_triangles(seed)
    level[canonical_form(first)] = (seed, first)
    counts = [1]
    touched = 1
    for _size in range(2, num_triangles + 1):
        nxt: dict[tuple[int, ...], tuple[frozenset[Triangle], CombinatorialMap]] = {}
        for state, map_ in level.values():
            for grown in _grow(state, map_.boundary):
                candidate = CombinatorialMap.from_triangles(grown)
                key = canonical_form(candidate)
                if key in nxt:
                    continue
                nxt[key] = (grown, candidate)
                touched += 1
                if max_states is not None and touched > max_states:
                    raise ResourceBoundExceeded(
                        f"state budget {max_states} exceeded at size {_size}",
                        tuple(counts),
                    )
        level = nxt
        counts.append(len(level))
    return [map_ for _state, map_ in level.values()]


def enumeration_counts(
    up_to: int, *, guard: int = MAX_TRIANGLES_GUARD
) -> tuple[int, ...]:
    """Class counts for 1..up_to triangles."""
    return tuple(len(enumerate_maps(n, guard=guard)) for n in range(1, up_to + 1))


# ----------------------------------------------------------------------
# Exact straight-line embedding.
# ----------------------------------------------------------------------


def _circle_points(k: int) -> list[tuple[Fraction, Fraction]]:
    """k distinct rational points on the unit circle, in convex position."""
    pts = []
    for j in range(k):
        t = Fraction(4 * j, k) - 2
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return pts


def embed(map_: CombinatorialMap) -> PlanarComplex:
    """Synthesize exact coordinates and return a validated complex.

    Boundary vertices go on a circle in walk order; interior vertices solve
    the neighbor-average equations exactly.  Any validation failure is a
    real bug in the generated map and is raised, never swallowed.
    """
    rot = map_.rotation_dict
    boundary = list(map_.boundary)
    interior = sorted(set(rot) - set(boundary))
    relabel = {v: i + 1 for i, v in enumerate(boundary + interior)}

    coords: dict[int, tuple[Fraction, Fraction]] = {}
    for pos, v in zip(_circle_points(len(boundary)), boundary):
        coords[relabel[v]] = pos
    if interior:
        coords.update(_tutte_positions(rot, boundary, interior, relabel, coords))

    triangles = {
        i + 1: tuple(relabel[v] for v in t) for i, t in enumerate(map_.triangles)
    }
    edge_count: dict[frozenset, int] = {}
    for t in map_.triangles:
        for e in _edges_of(frozenset(t)):
            edge_count[e] = edge_count.get(e, 0) + 1
    interior_edges = sorted(
        tuple(sorted((relabel[x], relabel[y])))
        for e, n in edge_count.items()
        if n == 2
        for x, y in [tuple(e)]
    )
    numbering = {i + 1: e for i, e in enumerate(interior_edges)}
    complex_ = PlanarComplex(coords, triangles, numbering)
    report = complex_.validate()
    if not report.ok:
        raise EnumeratorError(
            f"synthesized embedding failed validation: {report.errors}"
            f" {report.violations}"
        )
    if canonical_form(CombinatorialMap.from_complex(complex_)) != canonical_form(map_):
        raise EnumeratorError("embedding changed the isomorphism class")
    return complex_


def _tutte_positions(
    rot: Mapping[int, Sequence[int]],
    boundary: Sequence[int],
    interior: Sequence[int],
    relabel: Mapping[int, int],
    fixed: Mapping[int, tuple[Fraction, Fraction]],
) -> dict[int, tuple[Fraction, Fraction]]:
    index = {v: i for i, v in enumerate(interior)}
    n = len(interior)
    rows = []
    for v in interior:
        neigh = rot[v]
        row = [Fraction(0)] * n
        rhs = [Fraction(0), Fraction(0)]
        row[index[v]] = Fraction(len(neigh))
        for w in neigh:
            if w in index:
                row[index[w]] -= 1
            else:
                px, py = fixed[relabel[w]]
                rhs[0] += px
                rhs[1] += py
        rows.append((row, rhs))
    # exact Gaussian elimination on the (diagonally dominant) system
    mat = [list(row) + list(rhs) for row, rhs in rows]
    for col in range(n):
        pivot = next(r for r in range(col, n) if mat[r][col] != 0)
        mat[col], mat[pivot] = mat[pivot], mat[col]
        pv = mat[col][col]
        mat[col] = [x / pv for x in mat[col]]
        for r in range(n):
            if r != col and mat[r][col]:
                factor = mat[r][col]
                mat[r] = [x - factor * y for x, y in zip(mat[r], mat[col])]
    return {
        relabel[v]: (mat[index[v]][n], mat[index[v]][n + 1]) for v in interior
    }


# ----------------------------------------------------------------------
# Catalog matching.
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MatchReport:
    """Pairing of enumerated maps with catalog records via canonical forms."""

    matched: tuple[tuple[int, str], ...]
    unmatched_maps: tuple[int, ...]
    unmatched_records: tuple[str, ...]

    @property
    def is_bijection(self) -> bool:
        return not self.unmatched_maps and not self.unmatched_records


def match_catalog(
    maps: Sequence[CombinatorialMap], records: Iterable
) -> MatchReport:
    """Pair maps with catalog records; duplicates on either side break the pairing."""
    by_form: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(maps):
        by_form.setdefault(canonical_form(m), []).append(i)
    matched = []
    unmatched_records = []
    used: set[int] = set()
    for record in records:
        form = canonical_form(CombinatorialMap.from_complex(record.complex))
        bucket = by_form.get(form, [])
        free = [i for i in bucket if i not in used]
        if free:
            matched.append((free[0], record.name))
            used.add(free[0])
        else:
            unmatched_records.append(record.name)
    unmatched_maps = tuple(i for i in range(len(maps)) if i not in used)
    return MatchReport(
        matched=tuple(matched),
        unmatched_maps=unmatched_maps,
        unmatched_records=tuple(unmatched_records),
    )
