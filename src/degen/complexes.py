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
constructor and `from_json` share one step, `_incidence`, that refuses
anything but a triangulated disk with numbered interior edges, naming the
first fault in the order its docstring lists, then builds the base tables,
the dual graph, the oriented disk and the singular points among them, which
no later query can fail on; `validate` certifies only the geometry, and
`check_embedded` raises its faults as one refusal.  On valid data each table
is read by one loop that both checks it and builds from it, and a refusal is
worded only once its fault is seen.  `from_json` first names any table or
entry that is not a list of ``[int, [int, ...]]`` entries, in the order its
docstring lists; the constructor takes ids, plane corners and line endpoints only as ``int``, each
vertex only as a pair of coordinates, and each coordinate only as an ``int``
or a ``Fraction``, whose numerator and denominator it reads as written.

An edge is keyed by its ordered vertex pair ``(min, max)``, so a lookup
builds no set; error texts print an edge as the list ``[a, b]``.  The loop
that checks the lines files each line under both its ends, keyed by the
other, so a fan's spokes around ``v`` are looked up in ``v``'s own table.

`json_text` writes every JSON degen prints or stores, byte for byte as
``json.dumps(obj, indent=2)``, whose indent forces the pure-Python encoder.

A complex keeps its coordinates once, on an integer lattice built straight
from their integers: each coordinate times ``scale``, the lcm of all
denominators as written.  ``scale // q`` is exact for any denominator ``q``,
reduced or not, of either sign, and scaling by a positive constant keeps
every orientation sign, coordinate equality and counterclockwise order, so
the geometric checks give the results of the rational coordinates.
``vertices``, their exact ``Fraction`` view ``Fraction(x, scale)``, is built
on first read; degen reads it only to word vertices on one point, as exact
fractions ``(1/2, 1)``.  ``to_json`` reduces ``x / scale`` off the lattice.

``orient_disk`` orients a set of planes alike and walks the one boundary
cycle they direct; ``vertex_fans`` chains the oriented planes into each
vertex's fan, and starts a boundary vertex's open fan at its successor on
that walk.  A complex orients its planes and chains their fans once, where
it is built: ``validate`` certifies the embedding from the planes, with one
orientation sign per plane, and the singular points and `embed`'s class
check are read off the fans.  The enumerator builds each combinatorial map's
rotations and walk with the same two routines.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple, Sequence

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
                if q == p:
                    continue
                t = oriented.get(q)
                if t is None:
                    z, e, f = planes[q]  # z becomes the corner off the edge
                    if z == x or z == y:
                        z = f if e == x or e == y else e
                    oriented[q] = (y, x, z)
                    queue.append(q)
                elif not (  # t runs the edge y -> x
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


def vertex_fans(
    oriented: Iterable[tuple[int, int, int]], walk: Sequence[int]
) -> dict[int, list[int]]:
    """Chain each vertex's triangle wedges into one fan, closed cyclically.

    The triangles are oriented alike and ``walk`` is the boundary cycle they
    direct, as `orient_disk` returns them, so no dart repeats and each vertex
    maps each neighbour to at most one successor.  A vertex on the walk has
    an open fan, which starts at its successor on the walk: the boundary edge
    to it lies in one plane, which runs it the walk's way, so no wedge ends
    there.  Any other vertex has a closed fan, which starts at the first
    neighbour the input gives.  Raises `ComplexError` on a pinched vertex,
    whose wedges do not chain into that one fan.
    """
    succ: dict[int, dict[int, int]] = {}
    for a, b, c in oriented:  # each plane's wedge at each of its corners
        succ.setdefault(a, {})[b] = c
        succ.setdefault(b, {})[c] = a
        succ.setdefault(c, {})[a] = b
    after = dict(zip(walk, walk[1:] + walk[:1]))
    rot: dict[int, list[int]] = {}
    for v, wedges in succ.items():
        start = after.get(v)
        ring = [next(iter(wedges)) if start is None else start]
        x = wedges.get(ring[0])
        while x is not None and x != ring[0]:
            ring.append(x)
            x = wedges.get(x)
        if len(ring) != len(wedges) + (start is not None):
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


def _refuse_non_ints(name: str, ids: Iterable) -> None:
    """Name the first of ``ids``, from the table ``name``, that is not an ``int``."""
    for x in ids:
        if type(x) is not int:  # int() would truncate 1.7 and turn True into 1
            raise ComplexError(f"{name} holds {x!r}, which is not an int")


def _json_table(key: str, name: str, entries: list) -> dict[int, list[int]]:
    """The JSON table ``key`` of ``[id, [int, ...]]`` entries as a dict, built
    in one pass that words the first faulty entry in `PlanarComplex.from_json`'s
    order; its ids are ``name``s, and a vertex's ints are ``[px, py, qx, qy]``."""
    table = {}
    for entry in entries:
        if type(entry) is not list or len(entry) != 2 or type(entry[1]) is not list:
            fault = "is not of the form [int, [int, ...]]"
        else:
            k, values = entry
            for x in values if type(k) is int else (k,):  # int() would truncate 0.5
                if type(x) is not int:
                    fault = f"holds {json.dumps(x)}, which is not an integer"
                    break
            else:
                if key == "vertices" and len(values) != 4:
                    fault = f"holds {len(values)} values, expected 4"
                elif key == "vertices" and (values[2] == 0 or values[3] == 0):
                    fault = "has denominator 0"
                elif k in table:
                    fault = f"repeats {name} {k}"
                else:
                    table[k] = values
                    continue
        raise ComplexError(f"malformed complex JSON: {key} entry {json.dumps(entry)} {fault}")
    return table


class PlanarComplex:
    """An immutable planar triangle complex with numbered interior edges.

    Construction refuses data that is not a triangulated disk with numbered
    interior edges and builds the integer lattice, the edge-to-planes and
    edge-to-line maps, the dual graph (each line's planes and each plane's
    lines), the planes oriented alike with their boundary walk, each vertex's
    fan and the singular points.  It keeps ``triangles`` and
    ``line_numbering`` in id order.  Only the ``Fraction`` view ``vertices``
    is computed on first use.  So ``vertices``, ``triangles`` and
    ``line_numbering`` must not be mutated.
    """

    def __init__(
        self,
        vertices: Mapping[int, Point],
        triangles: Mapping[int, tuple[int, int, int]],
        line_numbering: Mapping[int, tuple[int, int]],
    ):
        _refuse_non_ints("vertices", vertices)
        for name, item, table in (
            ("triangles", "plane", triangles), ("line_numbering", "line", line_numbering)
        ):
            _refuse_non_ints(name, table)
            for k, ids in table.items():
                try:
                    _refuse_non_ints(name, ids)
                except TypeError:  # 5 is no sequence
                    raise ComplexError(
                        f"{name} holds {ids!r} at {item} {k},"
                        " which is not a sequence of vertex ids"
                    ) from None
        coords = {}
        for v, point in vertices.items():
            try:
                x, y = point
            except (TypeError, ValueError):  # 5, or three coordinates
                raise ComplexError(
                    f"vertices holds {point!r} at vertex {v}, which is not a point (x, y)"
                ) from None
            if type(x) not in _COORDINATE_TYPES or type(y) not in _COORDINATE_TYPES:
                bad = y if type(x) in _COORDINATE_TYPES else x  # a float 0.1 is not one tenth
                raise ComplexError(f"vertices holds {bad!r}, which is not an int or a Fraction")
            coords[v] = (x.numerator, y.numerator, x.denominator, y.denominator)
        self._incidence(coords, triangles, line_numbering)

    def _incidence(self, coords, triangles, line_numbering) -> None:
        """Put each vertex's ``(px, py, qx, qy)``, ints with ``qx`` and ``qy``
        nonzero, on the integer lattice, copy the incidence in id order,
        refuse any that is not a triangulated disk whose interior edges are
        numbered, and build the base tables, the dual graph, the oriented
        disk, each vertex's fan and the singular points among them.

        One pass over each table checks it and builds from it: the loop that
        copies the planes checks them, the loop that copies the lines checks
        their endpoints, and the loop over the lines fills each vertex's lines
        keyed by their other ends, each line's two planes and each plane's
        lines.  The fans are chained once from the planes just oriented and
        their walk, and the singular points read both.  A refusal is worded
        only once its fault is seen, and a fault that an earlier check in the
        order below would name is waited for: a repeated vertex is named after
        the lines' checks, and an edge in over two planes, which only the
        count below finds, before any line's fault.

        Refuses, naming the first fault in this order: no planes; a plane that
        is not three listed vertices; a line that is not two; line indices
        that are not 1..L; a plane that repeats a vertex; an edge in over two
        planes; a line on one vertex, off the interior edges or on another
        line's edge; an interior edge with no line; a vertex in no plane; an
        Euler characteristic other than 1; then whatever `orient_disk` names.
        Each is the first fault of its kind in ascending id order.

        No edge lies in over two planes and every interior edge has a line
        exactly when the lines number distinct interior edges and there are
        ``3 * planes - edges`` of them: the planes have ``3 * planes`` sides,
        one per plane on each of its edges, so ``3 * planes - edges`` counts
        each edge once less than its planes, which is the interior edges only
        when none lies in three.

        What passes is a disk, so no pinch needs a check of its own.  Split
        each pinched vertex into one vertex per fan: the surface left is
        connected and has a boundary, since `orient_disk` chains the planes
        along lines and walks one, so its Euler characteristic is at most 1,
        and each pinch lowers the complex's by one.  With every vertex in a
        plane, Euler characteristic 1 leaves no pinch.

        So no step of the classification can fail: each vertex's planes chain
        into one fan; a vertex off the walk, which covers every boundary edge,
        has only numbered interior edges; an open fan's end edges alone lie in
        one plane.  A ring read backwards, when the first plane turns
        clockwise, is the reversed planes' ring up to where a cycle starts.
        """
        scale = 1  # the lcm of all denominators as written
        for _, _, qx, qy in coords.values():
            scale = lcm(scale, qx, qy)
        self._scale = scale
        known = self._lattice = {
            v: (px * (scale // qx), py * (scale // qy)) for v, (px, py, qx, qy) in coords.items()
        }
        if not triangles:
            raise ComplexError("no triangles")
        tris = self.triangles = {}
        repeat = None  # the first plane that repeats a vertex, named after the lines
        for plane in sorted(triangles):
            tri = tris[plane] = tuple(triangles[plane])
            if len(tri) != 3:
                raise ComplexError(f"plane {plane} has {len(tri)} vertices, expected 3")
            a, b, c = tri
            if a not in known or b not in known or c not in known:
                missing = [v for v in tri if v not in known]
                raise ComplexError(f"plane {plane} references unknown vertices {missing}")
            if (a == b or b == c or a == c) and repeat is None:
                repeat = plane
        lines = self.line_numbering = {}
        for i in sorted(line_numbering):
            pair = lines[i] = tuple(line_numbering[i])
            if len(pair) != 2 or pair[0] not in known or pair[1] not in known:
                raise ComplexError(f"line {i} has bad endpoints {pair}")
        if lines and (min(lines) != 1 or max(lines) != len(lines)):  # L distinct ints
            raise ComplexError(f"line indices are not 1..L: {list(lines)}")
        if repeat is not None:
            raise ComplexError(f"plane {repeat} repeats a vertex: {tris[repeat]}")

        ep = self.edge_planes()
        line_at: dict[int, dict[int, int]] = {v: {} for v in known}  # lines by end, by other end
        line_planes = self._line_planes = {}
        sides: dict[int, list[int]] = {p: [] for p in tris}
        bad_line = None
        for i, (a, b) in lines.items():
            ps = ep.get((a, b) if a < b else (b, a))  # no plane repeats a vertex: no (a, a)
            if ps is None or len(ps) != 2 or b in line_at[a]:
                bad_line = i
                break
            line_at[a][b] = line_at[b][a] = i
            p, q = line_planes[i] = tuple(ps)
            sides[p].append(i)
            sides[q].append(i)
        if bad_line is not None or len(ep) + len(lines) != 3 * len(tris):
            for e in sorted(ep):  # named first, though only the count finds it
                if len(ep[e]) > 2:
                    raise ComplexError(f"edge {list(e)} lies in {len(ep[e])} planes: {ep[e]}")
            if bad_line is not None:
                a, b = lines[bad_line]
                if a == b:
                    raise ComplexError(f"line {bad_line} has bad endpoints {(a, b)}")
                if len(ep.get((a, b) if a < b else (b, a), ())) != 2:
                    raise ComplexError(f"line {bad_line} {(a, b)} is not an interior edge")
                raise ComplexError(f"lines {line_at[a][b]} and {bad_line} number the same edge")
            for (a, b), ps in sorted(ep.items()):
                if len(ps) == 2 and b not in line_at[a]:
                    raise ComplexError(f"interior edge {[a, b]} has no line number")
        if len(corners := set(chain.from_iterable(tris.values()))) != len(known):
            raise ComplexError(f"vertex {min(known.keys() - corners)} lies in no plane")
        if (euler := len(known) - len(ep) + len(tris)) != 1:
            raise ComplexError(f"Euler characteristic {euler} != 1 (support is not a disk)")
        self._plane_lines = {p: tuple(ls) for p, ls in sides.items()}
        oriented, walk = self._disk = orient_disk(tris, ep)
        fans = self._fans = vertex_fans(oriented.values(), walk)
        a, b, c = oriented[next(iter(tris))]
        turn = -1 if orient(known[a], known[b], known[c]) < 0 else 1
        on_boundary = set(walk)
        points: list[SingularPoint] = []
        for v in sorted(fans):
            ring = fans[v]
            if v in on_boundary:
                if len(ring) > 2:  # the spokes between its two boundary edges
                    spokes = ring[1:-1] if turn > 0 else ring[-2:0:-1]
                    fan = tuple(map(line_at[v].__getitem__, spokes))
                    points.append(SingularPoint(v, "outer", len(fan), fan))
            else:
                around = list(map(line_at[v].__getitem__, ring[::turn]))
                start = around.index(min(around))
                cyc = tuple(around[start:] + around[:start])
                points.append(SingularPoint(v, "inner", len(cyc), cyc))
        self._points = tuple(points)

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

        Construction refused anything but a triangulated disk, oriented its
        planes alike and walked their boundary cycle (see `_incidence`), so
        only the geometry is left.  ``errors`` name vertices on one point and
        collinear planes; ``violations`` name every flipped plane, in plane
        order, or else a boundary that is not a simple polygon.  Two planes on
        one vertex set need no check: each of their edges would lie in both
        and in no other plane, so they would be the whole complex, a sphere
        that construction refused.  Each oriented plane's orientation sign is
        computed once: 0 is a collinear plane, and one against the boundary's
        winding a flipped one.  The cycle's signed area is the sum of the
        planes', so once every plane winds with it, it winds with every plane.
        A piecewise-linear map of a disk whose planes all keep one orientation
        sign, and whose boundary is a simple polygon of that sign, has degree
        1 on the polygon's interior, and so it is injective (Floater, "One-to-one
        piecewise linear mappings over triangulations", Math. Comp. 72, 2003).

        Two facts keep the certificate cheap.  A boundary whose every corner
        turns strictly with its winding, and whose edge direction goes round
        exactly once, is convex and so simple (proved at `strictly_convex`);
        every disk `embed` builds has one, on a circle.  Only a boundary that
        `strictly_convex` refuses has each pair of its edges tested with
        `segments_conflict`, which names every pair that overlaps or crosses.
        Error texts are built only for the checks that fail.
        """
        lat = self._lattice
        oriented, walk = self._disk
        errors: list[str] = []
        seen: dict[tuple[int, int], int] = {}
        for v, point in sorted(lat.items()):
            if point in seen:
                x, y = self.vertices[v]
                errors.append(f"vertices {seen[point]} and {v} share coordinates ({x}, {y})")
            seen[point] = v
        signs = {p: orient(lat[a], lat[b], lat[c]) for p, (a, b, c) in sorted(oriented.items())}
        for p, sign in signs.items():
            if sign == 0:
                errors.append(f"plane {p} is degenerate (collinear): {self.triangles[p]}")
        if errors:
            return ValidationReport(tuple(errors), ())

        corners = [lat[v] for v in walk]
        twice_area = sum(
            p[0] * q[1] - p[1] * q[0] for p, q in zip(corners, corners[1:] + corners[:1])
        )
        winding = (twice_area > 0) - (twice_area < 0)
        flipped = tuple(
            f"plane {p} is flipped: it winds against the boundary"
            for p, sign in signs.items()
            if sign != winding
        )
        if flipped or strictly_convex(corners, winding):
            return ValidationReport((), flipped)
        edges = list(zip(walk, walk[1:] + walk[:1]))
        return ValidationReport((), tuple(
            f"boundary edges {tuple(sorted((a, b)))} and {tuple(sorted((c, d)))} overlap or cross"
            for i, (a, b) in enumerate(edges)
            for c, d in edges[i + 1 :]
            if segments_conflict(lat[a], lat[b], lat[c], lat[d])
        ))

    def check_embedded(self) -> None:
        """Raise `ComplexError` with `validate`'s faults joined by ``"; "``, if any."""
        report = self.validate()
        if not report.ok:
            raise ComplexError("; ".join(report.errors + report.violations))

    def classify_vertices(self) -> tuple[SingularPoint, ...]:
        """One ``SingularPoint`` per vertex met by a line (built with the complex)."""
        return self._points

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
        """Build a complex from its ``degen-complex/1`` object, as `to_json` writes it.

        Refuses, naming the first fault in this order: data that is not an
        object; a ``format`` other than ``degen-complex/1``; then for
        ``vertices``, ``triangles`` and ``line_numbering`` in turn, a table
        that is missing or not a list, and entry by entry, one that is not
        ``[int, [int, ...]]`` shaped, one holding a value that is no integer,
        a vertex without four values or with a denominator 0, and an id that
        an earlier entry holds; then whatever `_incidence` names.

        Each table is checked by the one pass that builds it, `_json_table`,
        which words an entry only once it is seen to be at fault.
        """
        if not isinstance(data, dict) or data.get("format") != FORMAT:
            raise ComplexError(
                f"unknown format {data.get('format')!r}; expected {FORMAT!r}"
                if isinstance(data, dict)
                else "complex JSON must be an object"
            )
        tables = []
        for key, name in (
            ("vertices", "vertex id"), ("triangles", "plane id"), ("line_numbering", "line index")
        ):
            entries = data.get(key)
            if type(entries) is not list:
                fault = f"{key} is not a list" if key in data else f"missing key {key!r}"
                raise ComplexError(f"malformed complex JSON: {fault}")
            tables.append(_json_table(key, name, entries))
        complex_ = cls.__new__(cls)
        complex_._incidence(*tables)  # vertices, triangles, line_numbering
        return complex_

    @classmethod
    def loads(cls, text: str) -> "PlanarComplex":
        """Parse `dumps` output back into a complex; `perfbench` calls it."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ComplexError(f"invalid JSON: {exc}") from exc
        return cls.from_json(data)
