"""Isomorph-free generation of triangulated planar degenerations.

A state of the search is a set of triangles forming a valid complex; two
growth moves preserve validity and reach every valid state: attaching a
fresh triangle along one boundary edge (new apex vertex), and filling a
boundary corner with a triangle on two adjacent boundary edges (the corner
vertex becomes interior).  Isomorphs are pruned with a canonical form over
rooted rotation-system codes, minimized across boundary root darts and
reflection, so mirror images count once (McKay, "Isomorph-free exhaustive
generation", J. Algorithms 26, 1998).  Six triangles give 28 classes, one
fewer than the catalog's 29 cases: its `U_{0,5,1}` and `U_{0,5,3}` are one
mirror pair.  The outer face is traced once per map, by the
same `complexes.orient_disk` that certifies a complex, and stored as its
boundary walk; the mirror image's outer face is that walk reversed, so
canonical forms trace no face orbits.

Most grown states are isomorphs of one already kept, so none is built from
scratch: each candidate's rotations and walk are derived from its parent's
by the few local edits that the growth move makes, and a candidate is only
those rings and that walk, all a canonical form reads, until its class is
new.  Only then does it get its sorted triangles and a map, and become the
class's representative.  Growth keeps the winding of the seed (1, 2, 3),
and `CombinatorialMap.from_triangles` winds every plane like the least of
its sorted triangles, which is always that seed, so each representative is
wound like `from_triangles` of its own triangles: its boundary walk and
triangles equal that map's byte for byte, and its rings are the same
cyclic orders, possibly started elsewhere.  A grown triangle set that its
level has already reached, grown from another parent, is skipped before
its form is computed: it has the first copy's rings and walk, up to where
each starts, so the same form, and the first copy was keyed already.  Each
triangle met gets one bit, and a set is looked up by the OR of its bits.

The canonical form encodes only roots whose tail has the least boundary
degree, and when that tail is an ear (a boundary vertex of degree 2), only
those whose head has the least degree among the ear roots, picked in one
pass over the walk; it drops each code as soon as it is above the best one
so far.

Generated maps are purely combinatorial; `embed` synthesizes exact rational
coordinates (boundary on a circle, interior vertices at neighbor averages)
and the result must pass full complex validation.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from .complexes import ComplexError, PlanarComplex, orient_disk, planes_by_edge, vertex_fans

MAX_TRIANGLES_GUARD = 8


class EnumeratorError(ValueError):
    """Invalid map input or an unorientable/pinched triangle set."""


class CombinatorialMap(NamedTuple):
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

    @classmethod
    def from_triangles(cls, triangles: Iterable[Iterable[int]]) -> "CombinatorialMap":
        tris = [frozenset(t) for t in triangles]
        if not tris:
            raise EnumeratorError("no triangles")
        if len(set(tris)) != len(tris):
            raise EnumeratorError("duplicate triangles")
        for t in tris:
            if len(t) != 3:
                raise EnumeratorError(f"not a triangle: {sorted(t)}")
        planes = {i: tuple(sorted(t)) for i, t in enumerate(tris, 1)}
        try:
            oriented, walk = orient_disk(planes, planes_by_edge(planes))
            # input order, not search order, fixes where each closed fan starts
            rot = vertex_fans([oriented[i] for i in planes], walk)
        except ComplexError as exc:
            raise EnumeratorError(str(exc)) from exc
        return cls(
            rotations=tuple(sorted((v, tuple(ring)) for v, ring in rot.items())),
            boundary=_map_walk(walk),
            triangles=tuple(sorted(planes.values())),
        )


def _map_walk(walk: tuple[int, ...]) -> tuple[int, ...]:
    """A map's walk from `orient_disk`'s: it runs against the planes, from the same vertex."""
    return walk[:1] + walk[:0:-1]


class _Candidate(NamedTuple):
    """A grown map as `canonical_form` reads it: its rings and its walk."""

    rotation_dict: dict[int, tuple[int, ...]]
    boundary: tuple[int, ...]


# ----------------------------------------------------------------------
# Canonical forms.
# ----------------------------------------------------------------------


def _rooted_code(
    rot: Mapping[int, Sequence[int]],
    root: tuple[int, int],
    mirrored: bool,
    best: list[int] | None,
) -> list[int] | None:
    """Relabel vertices in traversal order; equal codes mean rooted isomorphism.

    `mirrored` reads every ring backwards, which encodes the mirror image.
    Returns None as soon as a ring's entries put the code above `best`.
    """
    u0, v0 = root
    label = {u0: 0, v0: 1}
    order = [u0, v0]
    anchor = {u0: v0, v0: u0}
    out: list[int] = []
    tied = best is not None
    for x in order:  # breadth first: the list grows while it is read
        ring = rot[x]
        j = ring.index(anchor[x])
        start = len(out)
        for w in ring[j::-1] + ring[:j:-1] if mirrored else ring[j:] + ring[:j]:
            if w not in label:
                label[w] = len(order)
                order.append(w)
                anchor[w] = x
            out.append(label[w])
        out.append(-1)
        if tied and (mine := out[start:]) != (theirs := best[start : len(out)]):
            if mine > theirs:
                return None
            tied = False
    return out


def canonical_form(map_: CombinatorialMap) -> tuple[int, ...]:
    """Minimum rooted code over boundary root darts and both reflections.

    Roots range over darts of the outer face only, which pins the outer face
    of both maps being compared.  The outer face is traced once per map, as
    `map_.boundary`; reflection is covered by reading the rings backwards,
    which encodes the mirror image, whose outer face is the same walk
    reversed.

    Three prunings leave the minimum unchanged.  A code starts
    1, 2, ..., d, -1, where d is the degree of the root's tail, and -1 is
    below every label, so a tail of smaller degree always wins: only roots
    whose tail has the least degree on the boundary are encoded.

    When that degree is 2, only ear roots whose head has the least degree
    among them are encoded (the ear lemma).  Let u be an ear, a boundary
    vertex of degree 2, with walk neighbours p before it and s after it; its
    one plane is p u s.  Read forward from root (u, s): ring 1 is 1, 2, -1,
    so s gets label 1 and p label 2.  The ring of s, read from u, goes next
    through the ear's plane to p, and every other neighbour of s is new, so
    ring 2 is 0, 2, 3, ..., k, -1, where k = deg s.  The mirrored root
    (u, p) reads the same, with k = deg p.  Two such codes first differ
    where the one with the smaller k has -1, and -1 is below every label,
    so the minimum has the least head degree.

    And every rooted code of one map has the same length, the sum of
    deg + 1 over the vertices, so a code that is above the best so far at
    some entry, after an equal prefix, is above it in full: it is dropped
    at the end of that entry's ring.
    """
    rot = map_.rotation_dict
    b = map_.boundary
    deg = [len(rot[v]) for v in b]
    n = len(b)
    # (tail, head, mirrored) as walk positions: forward roots run along the
    # walk, mirrored roots against it; one pass keeps those of the least
    # tail degree and, for an ear, the least head degree
    low = head = len(rot)  # above every degree
    roots = []
    for i, d in enumerate(deg):
        if d > low:
            continue
        if d < low:
            low, head, roots = d, len(rot), []
        for j, mirrored in ((i + 1) % n, False), (i - 1, True):
            h = deg[j] if d == 2 else 0
            if h < head:
                head, roots = h, [(i, j, mirrored)]
            elif h == head:
                roots.append((i, j, mirrored))
    best = None
    for i, j, mirrored in roots:
        best = _rooted_code(rot, (b[i], b[j]), mirrored, best) or best
    return tuple(best)


# ----------------------------------------------------------------------
# Generation.
# ----------------------------------------------------------------------


def _grow(map_: CombinatorialMap) -> Iterator[tuple[tuple[int, int, int], _Candidate]]:
    """Each added triangle with the candidate it grows, derived from `map_`.

    Attaching a fresh vertex f on boundary edge (u, v) gives f the ring
    (u, v) and puts f between u and v on the walk; filling the corner
    u, v, w takes v off the walk.  A boundary vertex that gains a neighbour
    y takes y into its ring right after its successor on the walk: its ring
    passes the outer face from its successor to its predecessor, and every
    new neighbour comes from the outer face.  No ring is ever reversed, so a
    candidate keeps the seed's winding, which the module docstring shows is
    that of `CombinatorialMap.from_triangles` of its own triangles.
    """
    rot = map_.rotation_dict
    b = map_.boundary
    k = len(b)
    succ = dict(zip(b, b[1:] + b[:1]))

    def child(walk, gains, fresh_rings=()) -> _Candidate:
        grown = dict(rot)
        for x, y in gains:
            ring = grown[x]
            j = ring.index(succ[x]) + 1
            grown[x] = ring[:j] + (y,) + ring[j:]
        grown.update(fresh_rings)
        return _Candidate(grown, walk)

    fresh = max(rot) + 1
    for i in range(k):
        u, v = b[i], b[(i + 1) % k]
        yield (u, v, fresh), child(
            b[: i + 1] + (fresh,) + b[i + 1 :],
            ((u, fresh), (v, fresh)),
            ((fresh, (u, v)),),
        )
    for i in range(k):
        u, v, w = b[i - 1], b[i], b[(i + 1) % k]
        if u != w and w not in rot[u]:
            yield (u, v, w), child(b[:i] + b[i + 1 :], ((u, w), (w, u)))


def _as_built(
    candidate: _Candidate, triangles: tuple[tuple[int, int, int], ...]
) -> CombinatorialMap:
    """`candidate`, whose sorted triangles are `triangles`, as a map: its rings
    sorted by vertex and its walk started at its least vertex, as
    `from_triangles(triangles)` has them."""
    rot, walk = candidate
    i = walk.index(min(walk))
    return CombinatorialMap(
        rotations=tuple(sorted(rot.items())),
        boundary=walk[i:] + walk[:i],
        triangles=triangles,
    )


def enumerate_maps(
    num_triangles: int,
    *,
    guard: int = MAX_TRIANGLES_GUARD,
) -> list[CombinatorialMap]:
    """One representative per isomorphism class with the given triangle count.

    Each representative is the map derived for the first triangle set of its
    class that growth reaches; the module docstring says how it is wound and
    which candidates get no map or no canonical form.

    `guard` bounds the requested size (resource guard; raise it consciously
    for bigger runs).
    """
    if num_triangles < 1:
        raise EnumeratorError("num_triangles must be at least 1")
    if num_triangles > guard:
        raise EnumeratorError(
            f"num_triangles {num_triangles} exceeds the guard {guard};"
            " pass a larger guard explicitly for big runs"
        )
    first = CombinatorialMap.from_triangles([(1, 2, 3)])
    # one bit per distinct triangle met; a state's mask is its triangles' bits
    bits = {first.triangles[0]: 1}
    level = {canonical_form(first): (1, first)}
    for _ in range(2, num_triangles + 1):
        nxt: dict[tuple[int, ...], tuple[int, CombinatorialMap]] = {}
        reached: set[int] = set()
        for mask, map_ in level.values():
            for tri, candidate in _grow(map_):
                added = tuple(sorted(tri))
                grown_mask = mask | bits.setdefault(added, 1 << len(bits))
                if grown_mask in reached:
                    continue  # the same triangle set, hence the same form
                reached.add(grown_mask)
                key = canonical_form(candidate)
                if key not in nxt:
                    triangles = tuple(sorted(map_.triangles + (added,)))
                    nxt[key] = (grown_mask, _as_built(candidate, triangles))
        level = nxt
    return [map_ for _mask, map_ in level.values()]


# ----------------------------------------------------------------------
# Exact straight-line embedding.
# ----------------------------------------------------------------------


@cache
def _circle_points(k: int) -> tuple[tuple[Fraction, Fraction], ...]:
    """k distinct rational points on the unit circle, in convex position."""
    pts = []
    for j in range(k):
        t = Fraction(4 * j, k) - 2
        den = 1 + t * t
        pts.append(((1 - t * t) / den, 2 * t / den))
    return tuple(pts)


def embed(map_: CombinatorialMap) -> PlanarComplex:
    """Synthesize exact coordinates and return a validated complex.

    Boundary vertices go on a circle in walk order; interior vertices solve
    the neighbor-average equations exactly, a convex-combination map and so
    injective (Floater, Math. Comp. 72, 2003).  The interior edges, the
    rings' edges off the walk, are numbered 1..L in sorted relabelled order.
    Any refusal by the constructor or by `check_embedded` is a real bug in
    the generated map and is raised, never swallowed.  The class check reads
    the fans and walk the constructor built.
    """
    rot = map_.rotation_dict
    boundary = list(map_.boundary)
    interior = sorted(set(rot) - set(boundary))
    relabel = {v: i + 1 for i, v in enumerate(boundary + interior)}

    coords: dict[int, tuple[Fraction, Fraction]] = {}
    for pos, v in zip(_circle_points(len(boundary)), boundary):
        coords[relabel[v]] = pos
    if interior:
        coords.update(_tutte_positions(rot, interior, relabel, coords))

    triangles = {
        i + 1: tuple(relabel[v] for v in t) for i, t in enumerate(map_.triangles)
    }
    walk_edges = set(zip(boundary, boundary[1:] + boundary[:1]))
    interior_edges = sorted(
        (relabel[v], relabel[w])
        for v, ring in rot.items()
        for w in ring
        if relabel[v] < relabel[w] and (v, w) not in walk_edges and (w, v) not in walk_edges
    )
    numbering = dict(enumerate(interior_edges, 1))
    try:
        complex_ = PlanarComplex(coords, triangles, numbering)
        complex_.check_embedded()
    except ComplexError as exc:
        raise EnumeratorError(f"synthesized embedding failed validation: {exc}") from exc
    embedded = _Candidate(complex_._fans, _map_walk(complex_._disk[1]))
    if canonical_form(embedded) != canonical_form(map_):
        raise EnumeratorError("embedding changed the isomorphism class")
    return complex_


def _tutte_positions(
    rot: Mapping[int, Sequence[int]],
    interior: Sequence[int],
    relabel: Mapping[int, int],
    fixed: Mapping[int, tuple[Fraction, Fraction]],
) -> dict[int, tuple[Fraction, Fraction]]:
    index = {v: i for i, v in enumerate(interior)}
    n = len(interior)
    mat = []
    for v in interior:
        row = [0] * (n + 2)  # the Laplacian's row, then the x and y sums it equals
        row[index[v]] = Fraction(len(rot[v]))
        for w in rot[v]:
            if w in index:
                row[index[w]] -= 1
            else:
                px, py = fixed[relabel[w]]
                row[n] += px
                row[n + 1] += py
        mat.append(row)
    # Gauss-Jordan in place with no pivot search: the matrix is the interior vertices'
    # Dirichlet Laplacian, symmetric positive definite because every interior
    # component touches the boundary, so elimination in order meets no zero pivot
    for col, pivot in enumerate(mat):
        for row in mat:
            if row is not pivot and row[col]:
                factor = row[col] / pivot[col]
                row[col:] = [x - factor * y for x, y in zip(row[col:], pivot[col:])]
    return {
        relabel[v]: (row[n] / row[i], row[n + 1] / row[i])
        for i, (v, row) in enumerate(zip(interior, mat))
    }
