"""Planar simplicial complexes modelling degenerations of surfaces.

A degeneration of a degree-``n`` surface is recorded as a planar complex:
``n`` triangles (the planes), straight edges, exact rational vertex
coordinates.  Interior edges (shared by two triangles) are the lines of the
degenerated branch curve and carry the 1..L numbering that the group-theoretic
layer works with.  Vertices met by at least one line are the singular points;
each is an inner point (closed fan of triangles) or an outer point (open fan).

The interchange JSON format ``degen-complex/1`` stores vertices as
``[id, [px, py, qx, qy]]`` with coordinates ``(px/qx, py/qy)``, triangles as
``[plane, [v1, v2, v3]]``, and lines as ``[index, [v1, v2]]``.

A complex's shape, incidence and topology are refused where it is built: the
constructor and `from_json` share one step, `_incidence`, that names a plane
off the vertex table, an edge in three planes, an interior edge with no line,
a vertex in no plane, an Euler characteristic other than 1, planes that do
not orient alike around one boundary cycle and more, then builds the base
tables, the dual graph and the oriented disk among them, which no later
query can fail on; `validate` certifies only the geometry.  `from_json`
first names any table or entry that is not a list of ``[int, [int, ...]]``
entries; the constructor takes ids, plane corners and line endpoints only as
``int``, and each coordinate only as an ``int`` or a ``Fraction``, whose
numerator and denominator it reads as written.

An edge is keyed by its ordered vertex pair ``(min, max)``, so a lookup
builds no set; error texts print an edge as the list ``[a, b]``.  A line is
looked up by its sorted vertex tuple, in the one edge → line table
`line_by_edge`.

`json_text` writes every JSON degen prints or stores, byte for byte as
``json.dumps(obj, indent=2)``, whose indent forces the pure-Python encoder.

A complex keeps its coordinates once, on an integer lattice built straight
from their integers: each coordinate times ``scale``, the lcm of all
denominators as written.  ``scale // q`` is exact for any denominator ``q``,
reduced or not, of either sign, and scaling by a positive constant keeps
every orientation sign, coordinate equality and counterclockwise order, so
the geometric checks give the results of the rational coordinates.
``vertices``, their exact ``Fraction`` view ``Fraction(x, scale)``, is built
on first read, and ``to_json`` reduces ``x / scale`` off the lattice.

``orient_disk`` orients a set of planes alike and walks the one boundary
cycle they direct; ``vertex_fans`` chains the oriented planes into each
vertex's fan.  A complex orients its planes once, where it is built:
``validate`` certifies the embedding from them and ``classify_vertices``
reads the fans.  The enumerator builds each combinatorial map's rotations
and boundary walk the same way.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

from .geometry import Point, orient, segments_conflict, strictly_convex

FORMAT = "degen-complex/1"
_COORDINATE_TYPES = (int, Fraction)  # bound once, at import: the check reads no rebound name


class ComplexError(ValueError):
    """Raised for malformed interchange data or operations on invalid complexes."""


# how `json.dumps` writes each scalar type degen emits
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
            bool: lambda b: "true" if b else "false"}


def json_text(obj, _indent: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2)``, for values of exactly the types
    str, int, bool and None, and lists, tuples and dicts with str keys; any
    other value or key raises `TypeError`."""
    scalar = _SCALARS.get(type(obj))
    if scalar is not None:
        return scalar(obj)
    inner = _indent + "  "
    if isinstance(obj, dict):  # the encoder raises TypeError on a key that is no str
        items = [f"{encode_basestring_ascii(k)}: {json_text(v, inner)}" for k, v in obj.items()]
        ends = "{}"
    elif isinstance(obj, (list, tuple)):
        items = [json_text(v, inner) for v in obj]
        ends = "[]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return ends[0] + inner + ("," + inner).join(items) + _indent + ends[1] if items else ends


def planes_by_edge(
    planes: Mapping[int, tuple[int, int, int]]
) -> dict[tuple[int, int], list[int]]:
    """Map each edge, keyed ``(min, max)``, to the planes containing it, in plane order."""
    out: dict[tuple[int, int], list[int]] = {}
    for plane in sorted(planes):
        a, b, c = sorted(planes[plane])
        out.setdefault((a, b), []).append(plane)
        out.setdefault((b, c), []).append(plane)
        out.setdefault((a, c), []).append(plane)
    return out


def line_by_edge(
    line_numbering: Mapping[int, tuple[int, ...]]
) -> dict[tuple[int, ...], int]:
    """Map each numbered edge, keyed by its sorted vertex tuple, to the smallest
    line numbering it, in line order."""
    out: dict[tuple[int, ...], int] = {}
    for index in sorted(line_numbering):
        out.setdefault(tuple(sorted(line_numbering[index])), index)
    return out


def orient_disk(
    planes: Mapping[int, tuple[int, int, int]],
    edge_planes: Mapping[tuple[int, int], list[int]],
) -> tuple[dict[int, tuple[int, int, int]], tuple[int, ...]]:
    """Orient the planes alike and walk the boundary they direct as one cycle.

    The smallest plane keeps its vertex order; a breadth-first search gives
    each plane it reaches across an edge the order that runs that edge the
    other way.  The walk starts at the smallest boundary vertex and follows
    the planes' direction.  Returns the oriented planes and the walk, or
    raises `ComplexError` when the planes do not chain along shared edges,
    cannot be oriented alike, close up, or bound more than one cycle.
    """
    root = min(planes)
    oriented = {root: tuple(planes[root])}
    succ: dict[int, int] = {}  # the direction of each boundary edge
    n_boundary = 0
    queue = [root]
    for p in queue:  # breadth first: the queue grows while it is read
        a, b, c = oriented[p]
        for x, y in ((a, b), (b, c), (c, a)):
            sharing = edge_planes[(x, y) if x < y else (y, x)]
            if len(sharing) == 1:
                succ[x] = y
                n_boundary += 1
                continue
            for q in sharing:
                t = oriented.get(q)
                if t is None:
                    z, e, f = planes[q]  # z becomes the corner off the edge
                    if z == x or z == y:
                        z = f if e == x or e == y else e
                    oriented[q] = (y, x, z)
                    queue.append(q)
                elif q != p and not (  # t runs the edge y -> x
                    y == t[0] and x == t[1] or y == t[1] and x == t[2] or y == t[2] and x == t[0]
                ):
                    raise ComplexError(
                        f"planes {p} and {q} cannot be oriented alike across edge"
                        f" {sorted((x, y))} (unorientable gluing)"
                    )
    if len(oriented) != len(planes):
        raise ComplexError("interior is disconnected (planes do not chain along lines)")

    if not succ:
        raise ComplexError("no boundary: the planes close up into a surface")
    walk = [min(succ)]
    while (nxt := succ.get(walk[-1])) not in (None, walk[0]) and len(walk) < n_boundary:
        walk.append(nxt)
    if nxt != walk[0] or len(walk) != n_boundary:
        raise ComplexError(
            f"boundary is not one cycle: the walk from vertex {walk[0]} covers"
            f" {len(walk)} of {n_boundary} boundary edges"
        )
    return oriented, tuple(walk)


def vertex_fans(oriented: Iterable[tuple[int, int, int]]) -> dict[int, list[int]]:
    """Chain each vertex's triangle wedges into one fan, closed cyclically.

    The triangles are oriented alike, so no dart repeats and each vertex
    maps each neighbour to at most one successor.  An open fan runs from one
    boundary neighbour to the other; a closed fan starts at the first
    neighbour the input gives.  Raises `ComplexError` on a pinched vertex.
    """
    succ: dict[int, dict[int, int]] = {}
    for a, b, c in oriented:  # each plane's wedge at each of its corners
        succ.setdefault(a, {})[b] = c
        succ.setdefault(b, {})[c] = a
        succ.setdefault(c, {})[a] = b
    rot: dict[int, list[int]] = {}
    for v, wedges in succ.items():
        starts = wedges.keys() - wedges.values()  # the neighbours no wedge ends at
        ring = [next(iter(starts or wedges))]
        x = wedges.get(ring[0])
        while x is not None and x != ring[0]:
            ring.append(x)
            x = wedges.get(x)
        if len(starts) > 1 or len(ring) != len(wedges) + len(starts):
            raise ComplexError(f"pinched vertex {v}")
        rot[v] = ring
    return rot


class SingularPoint(NamedTuple):
    """A vertex met by ``multiplicity`` lines.

    ``lines_cyclic`` lists the incident line indices in rotation order around
    the vertex: a full cycle for an inner point (rotated to start at the
    smallest index), the open fan order for an outer point.  Which pairs of
    lines braid is read off the planes instead (`PlanarComplex.plane_lines`):
    lines adjacent in a fan bound the plane between them.
    """

    vertex: int
    kind: str  # "inner" | "outer"
    multiplicity: int
    lines_cyclic: tuple[int, ...]


class ValidationReport(NamedTuple):
    errors: tuple[str, ...]  # degenerate: vertices on one point, collinear planes
    violations: tuple[str, ...]  # not embedded: flipped planes, a boundary that crosses

    @property
    def ok(self) -> bool:
        return not self.errors and not self.violations


class PlanarComplex:
    """An immutable planar triangle complex with numbered interior edges.

    Construction refuses data that is not a triangulated disk with numbered
    interior edges and builds the integer lattice, the edge-to-planes and
    edge-to-line maps, the dual graph (each line's planes and each plane's
    lines) and the planes oriented alike with their boundary walk.  The rest
    (the ``Fraction`` view ``vertices``, the vertex classification) is
    computed once, on first use.  So ``vertices``, ``triangles`` and
    ``line_numbering`` must not be mutated.
    """

    def __init__(
        self,
        vertices: Mapping[int, Point],
        triangles: Mapping[int, tuple[int, int, int]],
        line_numbering: Mapping[int, tuple[int, int]],
    ):
        for name, ids in (
            ("vertices", vertices),
            ("triangles", chain(triangles, *triangles.values())),
            ("line_numbering", chain(line_numbering, *line_numbering.values())),
        ):
            for x in ids:
                if type(x) is not int:  # int() would truncate 1.7 and turn True into 1
                    raise ComplexError(f"{name} holds {x!r}, which is not an int")
        for x in chain(*vertices.values()):  # a float 0.1 is not one tenth
            if type(x) not in _COORDINATE_TYPES:
                raise ComplexError(f"vertices holds {x!r}, which is not an int or a Fraction")
        coords = {v: (x.numerator, y.numerator, x.denominator, y.denominator)
                  for v, (x, y) in vertices.items()}
        self._incidence(coords, triangles, line_numbering)

    def _incidence(self, coords, triangles, line_numbering) -> None:
        """Put each vertex's ``(px, py, qx, qy)``, ints with ``qx`` and ``qy``
        nonzero, on the integer lattice, copy the incidence, refuse any that is
        not a triangulated disk whose interior edges are numbered, and build
        the base tables, the dual graph and the oriented disk among them.

        Refuses, naming the first fault in this order: no planes; a plane that
        is not three listed vertices; a line that is not two; line indices
        that are not 1..L; a plane that repeats a vertex; an edge in over two
        planes; a line on one vertex, off the interior edges or on another
        line's edge; an interior edge with no line; a vertex in no plane; an
        Euler characteristic other than 1; then whatever `orient_disk` names.
        Counts and one ``max`` find an incidence fault; only then is it sought.

        What passes is a disk, so no pinch needs a check of its own.  Split
        each pinched vertex into one vertex per fan: the surface left is
        connected and has a boundary, since `orient_disk` chains the planes
        along lines and walks one, so its Euler characteristic is at most 1,
        and each pinch lowers the complex's by one.  With every vertex in a
        plane, Euler characteristic 1 leaves no pinch.
        """
        # the lcm of all denominators as written
        scale = self._scale = lcm(*(q for c in coords.values() for q in c[2:]))
        known = self._lattice = {
            v: (px * (scale // qx), py * (scale // qy)) for v, (px, py, qx, qy) in coords.items()
        }
        tris = self.triangles = {p: tuple(tri) for p, tri in triangles.items()}
        lines = self.line_numbering = {i: tuple(pair) for i, pair in line_numbering.items()}
        if not tris:
            raise ComplexError("no triangles")
        for t in tris.values():
            if len(t) != 3 or t[0] not in known or t[1] not in known or t[2] not in known:
                for plane, tri in sorted(tris.items()):
                    if len(tri) != 3:
                        raise ComplexError(f"plane {plane} has {len(tri)} vertices, expected 3")
                    if missing := [v for v in tri if v not in known]:
                        raise ComplexError(f"plane {plane} references unknown vertices {missing}")
        for e in lines.values():
            if len(e) != 2 or e[0] not in known or e[1] not in known:
                for i, pair in sorted(lines.items()):
                    if len(pair) != 2 or pair[0] not in known or pair[1] not in known:
                        raise ComplexError(f"line {i} has bad endpoints {pair}")
        if lines and (min(lines) != 1 or max(lines) != len(lines)):  # L distinct ints
            raise ComplexError(f"line indices are not 1..L: {sorted(lines)}")
        for a, b, c in tris.values():
            if a == b or b == c or a == c:
                plane = min(p for p, tri in tris.items() if len(set(tri)) != 3)
                raise ComplexError(f"plane {plane} repeats a vertex: {tris[plane]}")

        ep = self.edge_planes()
        line_of = self._line_of = line_by_edge(lines)
        line_planes = self._line_planes = {i: tuple(ep.get(e, ())) for e, i in line_of.items()}
        # with edges in at most two planes, the lines are distinct interior edges
        # iff 2L planes bound them, and all of them iff 3 * planes = edges + L
        if (
            max(map(len, ep.values())) > 2
            or sum(map(len, line_planes.values())) != 2 * len(lines)
            or len(ep) + len(lines) != 3 * len(tris)
        ):
            for e, ps in sorted(ep.items()):
                if len(ps) > 2:
                    raise ComplexError(f"edge {list(e)} lies in {len(ps)} planes: {ps}")
            for i, pair in sorted(lines.items()):
                e = tuple(sorted(pair))
                if e[0] == e[1]:
                    raise ComplexError(f"line {i} has bad endpoints {pair}")
                if len(ep.get(e, ())) != 2:
                    raise ComplexError(f"line {i} {pair} is not an interior edge")
                if line_of[e] != i:
                    raise ComplexError(f"lines {line_of[e]} and {i} number the same edge")
            for e, ps in sorted(ep.items()):
                if len(ps) == 2 and e not in line_of:
                    raise ComplexError(f"interior edge {list(e)} has no line number")
        if len(corners := {v for t in tris.values() for v in t}) != len(known):
            raise ComplexError(f"vertex {min(known.keys() - corners)} lies in no plane")
        if (euler := len(known) - len(ep) + len(tris)) != 1:
            raise ComplexError(f"Euler characteristic {euler} != 1 (support is not a disk)")
        self._disk = orient_disk(tris, ep)
        sides: dict[int, list[int]] = {p: [] for p in sorted(tris)}
        for index, (p, q) in line_planes.items():  # one line per edge, in line order
            sides[p].append(index)
            sides[q].append(index)
        self._plane_lines = {p: tuple(ls) for p, ls in sides.items()}

    # -- derived incidence data -------------------------------------------------

    @cached_property
    def vertices(self) -> dict[int, Point]:
        """Each vertex's exact coordinates, as ``Fraction``s read off the lattice."""
        s = self._scale
        return {v: (Fraction(x, s), Fraction(y, s)) for v, (x, y) in self._lattice.items()}

    def edge_planes(self) -> dict[tuple[int, int], list[int]]:
        """Map each edge, keyed ``(min, max)``, to the planes containing it.

        Builds the map afresh; the complex's own queries share one build.
        """
        return planes_by_edge(self.triangles)

    def line_planes(self) -> dict[int, tuple[int, int]]:
        """Each line's two planes, ascending, in line order (built with the complex).

        Distinct lines are distinct interior edges, so they share at most one vertex.
        """
        return self._line_planes

    def plane_lines(self) -> dict[int, tuple[int, ...]]:
        """Each plane's sides that are lines, as ascending indices (built with the complex).

        Every plane is a key, in plane order; a plane with no line maps to ``()``.
        With `line_planes` it is the dual graph: planes joined by lines.
        """
        return self._plane_lines

    # -- public queries ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check that the complex's disk is embedded by its straight-line map.

        Construction refused anything but a triangulated disk and oriented
        its planes (see `_incidence`), so only the geometry is left.
        ``errors`` name vertices on one point and collinear planes;
        ``violations`` name flipped planes and a boundary that is not a simple
        polygon.  Two planes on one vertex set need no check: each of their
        edges would lie in both and in no other plane, so they would be the
        whole complex, a sphere that construction refused.
        A piecewise-linear map of a disk whose planes all keep one orientation
        sign, and whose boundary is a simple polygon of that sign, has degree
        1 on the polygon's interior, and so it is injective (Floater, "One-to-one
        piecewise linear mappings over triangulations", Math. Comp. 72, 2003).

        Two facts keep the certificate cheap.  A boundary whose every corner
        turns strictly with its winding, and whose edge direction goes round
        exactly once, is convex and so simple (proved at `strictly_convex`);
        every disk `embed` builds has one, on a circle, and only another
        boundary pays for the test of every pair of its edges.  Error texts
        are built only for the checks that fail.
        """
        lat = self._lattice
        errors: list[str] = []
        if len(set(lat.values())) != len(lat):
            seen_pts: dict[tuple[int, int], int] = {}
            for v, p in sorted(lat.items()):
                if p in seen_pts:
                    errors.append(
                        f"vertices {seen_pts[p]} and {v} share coordinates {self.vertices[v]}"
                    )
                seen_pts[p] = v
        for plane, tri in sorted(self.triangles.items()):
            a, b, c = tri
            if orient(lat[a], lat[b], lat[c]) == 0:
                errors.append(f"plane {plane} is degenerate (collinear): {tri}")
        if errors:
            return ValidationReport(tuple(errors), ())
        return ValidationReport((), tuple(self._orientation_violations()))

    def _orientation_violations(self) -> list[str]:
        """Certify the straight-line map of the complex's disk as an embedding.

        Takes the planes oriented alike and their boundary cycle that
        construction built, and requires every plane to wind with that cycle and
        the cycle to be a simple polygon.  The cycle's signed area is the sum
        of the planes', so once every plane winds with it, it winds with
        every plane.  Names every flipped plane, in plane order.

        A boundary that `strictly_convex` certifies is a convex polygon, hence
        simple (the proof is in its docstring), so only a boundary it refuses
        has each pair of its edges tested with `segments_conflict`; on a
        simple polygon that finds nothing, and on any other it names every
        pair that overlaps or crosses.
        """
        oriented, walk = self._disk
        lat = self._lattice
        corners = [lat[v] for v in walk]
        twice_area = sum(
            p[0] * q[1] - p[1] * q[0] for p, q in zip(corners, corners[1:] + corners[:1])
        )
        winding = (twice_area > 0) - (twice_area < 0)
        flipped = [
            f"plane {p} is flipped: it winds against the boundary"
            for p, (a, b, c) in sorted(oriented.items())
            if orient(lat[a], lat[b], lat[c]) != winding
        ]
        if flipped:
            return flipped
        if strictly_convex(corners, winding):
            return []

        edges = list(zip(walk, walk[1:] + walk[:1]))
        out: list[str] = []
        for i, (a, b) in enumerate(edges):
            for c, d in edges[i + 1 :]:
                if segments_conflict(lat[a], lat[b], lat[c], lat[d]):
                    out.append(
                        f"boundary edges {tuple(sorted((a, b)))} and"
                        f" {tuple(sorted((c, d)))} overlap or cross"
                    )
        return out

    def classify_vertices(self) -> tuple[SingularPoint, ...]:
        """One ``SingularPoint`` per vertex met by at least one line (computed once)."""
        return self._classification

    @cached_property
    def _classification(self) -> tuple[SingularPoint, ...]:
        """Read each vertex's fan from the planes turned counterclockwise.

        A vertex off the boundary walk has a closed fan of lines; any other
        vertex has an open fan whose two extreme edges are boundary edges.
        No step can fail: construction certified a disk, which has no pinch,
        so `vertex_fans` chains each vertex's planes into one fan; the walk
        covers every boundary edge, so a vertex off it has only interior
        edges, each of which construction numbered; an open fan's end edges
        lie in one plane each, every other in two.
        """
        oriented, walk = self._disk
        planes = list(oriented.values())
        lat, (a, b, c) = self._lattice, planes[0]
        if orient(lat[a], lat[b], lat[c]) < 0:
            planes = [t[::-1] for t in planes]
        line_of = self._line_of
        on_boundary = set(walk)
        points: list[SingularPoint] = []
        for v, ring in sorted(vertex_fans(planes).items()):
            if v not in on_boundary:
                lines = [line_of[(v, w) if v < w else (w, v)] for w in ring]
                start = lines.index(min(lines))
                cyc = lines[start:] + lines[:start]
                points.append(SingularPoint(v, "inner", len(cyc), tuple(cyc)))
            elif fan := [line_of[(v, w) if v < w else (w, v)] for w in ring[1:-1]]:
                points.append(SingularPoint(v, "outer", len(fan), tuple(fan)))
        return tuple(points)

    # -- interchange ------------------------------------------------------------

    def to_json(self) -> dict:
        s = self._scale  # positive, an lcm, so each reduced denominator is too
        return {
            "format": FORMAT,
            "vertices": [
                [v, [x // g, y // h, s // g, s // h]]
                for v, (x, y) in sorted(self._lattice.items())
                for g, h in [(gcd(x, s), gcd(y, s))]
            ],
            "triangles": [[p, list(t)] for p, t in sorted(self.triangles.items())],
            "line_numbering": [[i, list(p)] for i, p in sorted(self.line_numbering.items())],
        }

    def dumps(self) -> str:
        return json_text(self.to_json()) + "\n"

    @classmethod
    def from_json(cls, data: dict) -> "PlanarComplex":
        if not isinstance(data, dict) or data.get("format") != FORMAT:
            raise ComplexError(
                f"unknown format {data.get('format')!r}; expected {FORMAT!r}"
                if isinstance(data, dict)
                else "complex JSON must be an object"
            )
        tables: dict[str, dict[int, list]] = {}
        for key, name in (
            ("vertices", "vertex id"), ("triangles", "plane id"), ("line_numbering", "line index")
        ):
            entries = data.get(key)
            if type(entries) is not list:
                fault = f"{key} is not a list" if key in data else f"missing key {key!r}"
                raise ComplexError(f"malformed complex JSON: {fault}")
            table = tables[key] = {}
            for entry in entries:  # [id, [int, ...]]; a vertex's ints are [px, py, qx, qy]
                if type(entry) is not list or len(entry) != 2 or type(entry[1]) is not list:
                    raise ComplexError(
                        f"malformed complex JSON: {key} entry {json.dumps(entry)}"
                        " is not of the form [int, [int, ...]]"
                    )
                k, values = entry
                for x in chain((k,), values):  # int() would truncate 0.5
                    if type(x) is not int:
                        raise ComplexError(
                            f"malformed complex JSON: {key} entry {json.dumps(entry)}"
                            f" holds {json.dumps(x)}, which is not an integer"
                        )
                if key == "vertices" and (len(values) != 4 or values[2] == 0 or values[3] == 0):
                    fault = "has denominator 0"
                    if len(values) != 4:
                        fault = f"holds {len(values)} values, expected 4"
                    raise ComplexError(
                        f"malformed complex JSON: vertices entry {json.dumps(entry)} {fault}"
                    )
                if k in table:
                    raise ComplexError(
                        f"malformed complex JSON: {key} entry {json.dumps(entry)}"
                        f" repeats {name} {k}"
                    )
                table[k] = values
        complex_ = cls.__new__(cls)
        complex_._incidence(*tables.values())  # vertices, triangles, line_numbering
        return complex_

    @classmethod
    def loads(cls, text: str) -> "PlanarComplex":
        """Parse `dumps` output back into a complex; `perfbench` calls it."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ComplexError(f"invalid JSON: {exc}") from exc
        return cls.from_json(data)
