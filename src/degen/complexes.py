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

An edge is keyed by its ordered vertex pair ``(min, max)``, so a lookup
builds no set; error texts print an edge as the list ``[a, b]``.  A line is
looked up by its sorted vertex tuple, so a line that is not two distinct
vertices keys no edge and is named as an error, never unpacked.
`from_json` accepts exactly JSON integers for ids, coordinates and
denominators, turns each coordinate into a ``Fraction`` once, and the
constructor keeps a coordinate that already is one.  The constructor takes
ids, plane corners and line endpoints only of type ``int``, never converting.

`json_text` writes every JSON degen prints or stores, byte for byte as
``json.dumps(obj, indent=2)``, whose indent forces the pure-Python encoder.

The geometric checks run on an integer lattice: every coordinate times the
lcm of all coordinate denominators.  Scaling by a positive constant keeps
every orientation sign, coordinate equality and counterclockwise order, so
the results are those of the rational coordinates, without normalising a
``Fraction`` at every step.

``orient_disk`` orients a set of planes alike and walks the one boundary
cycle they direct; ``vertex_fans`` chains the oriented planes into each
vertex's fan.  A complex orients its planes once: ``validate`` certifies the
embedding from them and ``classify_vertices`` reads the fans.  The enumerator
builds each combinatorial map's rotations and boundary walk the same way.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import lcm
from typing import Iterable, Mapping, NamedTuple

from .geometry import Point, orient, segments_conflict, strictly_convex

FORMAT = "degen-complex/1"


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


def _fraction(c) -> Fraction:
    """``c`` as a ``Fraction``, converting only a coordinate that is not one yet."""
    return c if type(c) is Fraction else Fraction(c)


def planes_by_edge(
    planes: Mapping[int, tuple[int, int, int]]
) -> dict[tuple[int, int], list[int]]:
    """Map each edge, keyed ``(min, max)``, to the planes containing it, in plane order."""
    out: dict[tuple[int, int], list[int]] = {}
    for plane in sorted(planes):
        a, b, c = sorted(planes[plane])
        for e in ((a, b), (b, c), (a, c)):
            out.setdefault(e, []).append(plane)
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
    for a, b, c in oriented:
        for v, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            succ.setdefault(v, {})[x] = y
    rot: dict[int, list[int]] = {}
    for v, wedges in succ.items():
        targets = set(wedges.values())
        starts = [x for x in wedges if x not in targets]
        ring = [starts[0] if starts else next(iter(wedges))]
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
    errors: tuple[str, ...]  # structural: the data does not describe a complex
    violations: tuple[str, ...]  # semantic: not a valid planar degeneration

    @property
    def ok(self) -> bool:
        return not self.errors and not self.violations


class PlanarComplex:
    """An immutable planar triangle complex with numbered interior edges.

    Derived incidence (the edge-to-planes map, the integer lattice, the
    planes oriented alike with their boundary walk, the vertex classification,
    each line's planes and each plane's lines) is computed once per instance,
    on first use.  So ``vertices``, ``triangles`` and ``line_numbering`` must
    not be mutated after construction.
    """

    def __init__(
        self,
        vertices: Mapping[int, Point],
        triangles: Mapping[int, tuple[int, int, int]],
        line_numbering: Mapping[int, tuple[int, int]],
    ):
        self.vertices: dict[int, Point] = {
            v: (_fraction(x), _fraction(y)) for v, (x, y) in vertices.items()
        }
        self.triangles: dict[int, tuple[int, int, int]] = {
            p: tuple(tri) for p, tri in triangles.items()
        }
        self.line_numbering: dict[int, tuple[int, int]] = {
            i: tuple(pair) for i, pair in line_numbering.items()
        }
        for name, ids in (
            ("vertices", self.vertices),
            ("triangles", chain(self.triangles, *self.triangles.values())),
            ("line_numbering", chain(self.line_numbering, *self.line_numbering.values())),
        ):
            for x in ids:
                if type(x) is not int:  # int() would truncate 1.7 and turn True into 1
                    raise ComplexError(f"{name} holds {x!r}, which is not an int")

    # -- derived incidence data -------------------------------------------------

    def edge_planes(self) -> dict[tuple[int, int], list[int]]:
        """Map each edge, keyed ``(min, max)``, to the planes containing it.

        Builds the map afresh; the complex's own queries share one build.
        """
        return planes_by_edge(self.triangles)

    @cached_property
    def _edge_planes(self) -> dict[tuple[int, int], list[int]]:
        return self.edge_planes()

    @cached_property
    def _lattice(self) -> dict[int, tuple[int, int]]:
        """Each vertex's coordinates times the lcm of all denominators, as ints."""
        scale = lcm(*(c.denominator for p in self.vertices.values() for c in p))
        return {
            v: (x.numerator * (scale // x.denominator), y.numerator * (scale // y.denominator))
            for v, (x, y) in self.vertices.items()
        }

    @cached_property
    def _disk(self) -> tuple[dict[int, tuple[int, int, int]], tuple[int, ...]]:
        """The planes oriented alike and their boundary walk, by `orient_disk`."""
        return orient_disk(self.triangles, self._edge_planes)

    def line_planes(self) -> dict[int, tuple[int, int]]:
        """Each line's two planes, ascending, in line order (computed once).

        Refuses a line that is not an interior edge or numbers another line's
        edge, so distinct lines are distinct edges and share at most one vertex.
        """
        return self._line_planes

    @cached_property
    def _line_planes(self) -> dict[int, tuple[int, int]]:
        ep = self._edge_planes
        numbered: dict[tuple[int, ...], int] = {}
        out: dict[int, tuple[int, int]] = {}
        for index in sorted(self.line_numbering):
            pair = self.line_numbering[index]
            e = tuple(sorted(pair))
            planes = ep.get(e, ())
            if len(planes) != 2:
                raise ComplexError(
                    f"line {index} {pair} is not an interior edge (in {len(planes)} planes)"
                )
            if numbered.setdefault(e, index) != index:
                raise ComplexError(f"lines {numbered[e]} and {index} number the same edge")
            out[index] = tuple(planes)
        return out

    def plane_lines(self) -> dict[int, tuple[int, ...]]:
        """Each plane's sides that are lines, as ascending indices (computed once).

        Every plane is a key, in plane order; a plane with no line maps to ``()``.
        With `line_planes` it is the dual graph: planes joined by lines.
        """
        return self._plane_lines

    @cached_property
    def _plane_lines(self) -> dict[int, tuple[int, ...]]:
        sides: dict[int, list[int]] = {p: [] for p in sorted(self.triangles)}
        for index, planes in self.line_planes().items():
            for p in planes:
                sides[p].append(index)
        return {p: tuple(lines) for p, lines in sides.items()}

    # -- public queries ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check that the complex is a straight-line triangulated disk.

        ``errors`` name data that does not describe a complex; ``violations``
        name a complex that is not a planar degeneration.  After the checks
        that every edge lies in at most two planes and that the Euler
        characteristic is 1, and the certificate's own check that the planes
        chain along lines and orient alike around one boundary cycle, the
        complex is a triangulated disk: a pinched vertex would take the Euler
        characteristic below 1 (see `_disk_violations`).  A piecewise-linear
        map of a disk whose planes all keep one orientation sign, and whose
        boundary is a simple polygon of that sign, has degree 1 on the
        polygon's interior, and so it is injective (Floater, "One-to-one
        piecewise linear mappings over triangulations", Math. Comp. 72, 2003).

        Two facts keep the certificate cheap.  A boundary whose every corner
        turns strictly with its winding, and whose edge direction goes round
        exactly once, is convex and so simple (proved at `strictly_convex`);
        every disk `embed` builds has one, on a circle, and only another
        boundary pays for the test of every pair of its edges.  Error texts
        are built only for the checks that fail.
        """
        lat = self._lattice
        vertices = self.vertices
        errors: list[str] = []
        if len(set(lat.values())) != len(lat):
            seen_pts: dict[tuple[int, int], int] = {}
            for v, p in sorted(lat.items()):
                if p in seen_pts:
                    errors.append(
                        f"vertices {seen_pts[p]} and {v} share coordinates {vertices[v]}"
                    )
                seen_pts[p] = v
        seen_tris: dict[frozenset[int], int] = {}
        for plane, tri in sorted(self.triangles.items()):
            if len(tri) != 3:
                errors.append(f"plane {plane} has {len(tri)} vertices, expected 3")
                continue
            a, b, c = tri
            if a not in vertices or b not in vertices or c not in vertices:
                missing = [v for v in tri if v not in vertices]
                errors.append(f"plane {plane} references unknown vertices {missing}")
                continue
            if a == b or b == c or a == c:
                errors.append(f"plane {plane} repeats a vertex: {tri}")
                continue
            if orient(lat[a], lat[b], lat[c]) == 0:
                errors.append(f"plane {plane} is degenerate (collinear): {tri}")
            key = frozenset(tri)
            if key in seen_tris:
                errors.append(f"planes {seen_tris[key]} and {plane} share all vertices")
            seen_tris[key] = plane
        if not self.triangles:
            errors.append("no triangles")
        if errors:
            return ValidationReport(tuple(errors), ())

        ep = self._edge_planes
        interior = {e for e, ps in ep.items() if len(ps) == 2}
        if any(len(ps) > 2 for ps in ep.values()):
            for e, ps in sorted(ep.items()):
                if len(ps) > 2:
                    errors.append(f"edge {list(e)} lies in {len(ps)} planes: {ps}")
        numbered = {}
        for i, pair in sorted(self.line_numbering.items()):
            e = tuple(sorted(pair))
            if len(e) != 2 or e[0] == e[1] or e[0] not in vertices or e[1] not in vertices:
                errors.append(f"line {i} has bad endpoints {pair}")
            elif e not in interior:
                errors.append(f"line {i} {pair} is not an interior edge")
            elif e in numbered:
                errors.append(f"lines {numbered[e]} and {i} number the same edge")
            else:
                numbered[e] = i
        if len(numbered) != len(interior):  # numbered holds interior edges only
            for e in sorted(interior - numbered.keys()):
                errors.append(f"interior edge {list(e)} has no line number")
        indices = sorted(self.line_numbering)
        if indices != list(range(1, len(indices) + 1)):
            errors.append(f"line indices are not 1..L: {indices}")
        if errors:
            return ValidationReport(tuple(errors), ())

        violations = self._disk_violations()
        if not violations:
            violations = self._orientation_violations()
        return ValidationReport((), tuple(violations))

    def _disk_violations(self) -> list[str]:
        """Euler characteristic 1.

        Connectivity needs no check of its own: `orient_disk`, which the
        certificate runs next, names planes that do not chain along lines.
        Nor do pinches.  Split each pinched vertex into one vertex per fan:
        the surface left is connected and has a boundary (else `orient_disk`
        finds no boundary walk), so its Euler characteristic is at most 1,
        and each pinch lowers it by one.  A vertex in no plane can make up
        the count, but then a disk puts two of its vertices on one point,
        which the certificate rejects.
        """
        euler = len(self.vertices) - len(self._edge_planes) + len(self.triangles)
        if euler != 1:
            return [f"Euler characteristic {euler} != 1 (support is not a disk)"]
        return []

    def _orientation_violations(self) -> list[str]:
        """Certify the straight-line map of a connected complex as an embedding.

        Takes the planes oriented alike and their boundary cycle from
        `orient_disk`, and requires every plane to wind with that cycle and
        the cycle to be a simple polygon.  The cycle's signed area is the sum
        of the planes', so once every plane winds with it, it winds with
        every plane.  Names every flipped plane, in plane order.

        A boundary that `strictly_convex` certifies is a convex polygon, hence
        simple (the proof is in its docstring), so only a boundary it refuses
        has each pair of its edges tested with `segments_conflict`; on a
        simple polygon that finds nothing, and on any other it names every
        pair that overlaps or crosses.
        """
        try:
            oriented, walk = self._disk
        except ComplexError as exc:
            return [str(exc)]
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
        A line that `line_planes` refuses is refused before any fan is read.
        """
        self.line_planes()
        oriented, walk = self._disk
        planes = list(oriented.values())
        if orient(*(self._lattice[v] for v in planes[0])) < 0:
            planes = [t[::-1] for t in planes]
        line_of = {tuple(sorted(p)): i for i, p in self.line_numbering.items()}
        on_boundary = set(walk)
        points: list[SingularPoint] = []
        for v, ring in sorted(vertex_fans(planes).items()):
            lines = [line_of.get((v, w) if v < w else (w, v)) for w in ring]
            if v not in on_boundary:
                if None in lines:
                    raise ComplexError(f"inner vertex {v} has an unnumbered edge")
                start = lines.index(min(lines))
                cyc = lines[start:] + lines[:start]
                points.append(SingularPoint(v, "inner", len(cyc), tuple(cyc)))
                continue
            head, *fan, tail = lines
            if head is not None or tail is not None or None in fan:
                raise ComplexError(f"vertex {v}: boundary/line pattern is inconsistent")
            if fan:
                points.append(SingularPoint(v, "outer", len(fan), tuple(fan)))
        return tuple(points)

    # -- interchange ------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "format": FORMAT,
            "vertices": [
                [v, [x.numerator, y.numerator, x.denominator, y.denominator]]
                for v, (x, y) in sorted(self.vertices.items())
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
        try:
            tables: dict[str, dict[int, list]] = {}
            for key, name in (
                ("vertices", "vertex id"), ("triangles", "plane id"), ("line_numbering", "line index")
            ):
                table = tables[key] = {}
                for entry in data[key]:  # [id, [int, ...]]
                    k, values = entry
                    for x in chain((k,), values):  # int() would truncate 0.5
                        if type(x) is not int:
                            raise ComplexError(
                                f"malformed complex JSON: {key} entry {json.dumps(entry)}"
                                f" holds {json.dumps(x)}, which is not an integer"
                            )
                    if k in table:
                        raise ComplexError(f"duplicate {name} {k}")
                    table[k] = values
            try:
                vertices = {
                    v: (Fraction(px, qx), Fraction(py, qy))
                    for v, (px, py, qx, qy) in tables["vertices"].items()
                }
            except ZeroDivisionError:  # the first entry with a zero denominator
                entry = next([v, c] for v, c in tables["vertices"].items() if 0 in c[2:])
                raise ComplexError(
                    f"malformed complex JSON: vertices entry {json.dumps(entry)} has denominator 0"
                ) from None
            return cls(vertices, tables["triangles"], tables["line_numbering"])
        except ComplexError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ComplexError(f"malformed complex JSON: {exc}") from exc

    @classmethod
    def loads(cls, text: str) -> "PlanarComplex":
        """Parse `dumps` output back into a complex; `perfbench` calls it."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ComplexError(f"invalid JSON: {exc}") from exc
        return cls.from_json(data)
