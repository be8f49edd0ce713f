import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import degen.complexes
import degen.geometry
from degen.complexes import ComplexError, PlanarComplex, SingularPoint, json_text
from degen.enumerator import CombinatorialMap, EnumeratorError, embed, enumerate_maps
from degen.geometry import orient, segments_conflict, strictly_convex
from degen.invariants import BranchStats, InvariantError, branch_stats, chern
from degen.pipeline import decide
from degen.relations import tangent_pairs
from catalog_oracle import disjoint_line_pairs
from gluings import (
    ANNULUS, BOWTIE, HEMI_ICOSAHEDRON, MOEBIUS_BAND, OCTAHEDRON, PINCHED_SPHERE, gluing_json,
    numbered,
)
from rotation_oracles import rotation_transversal_pairs


@pytest.fixture(scope="module")
def disks():
    """Embedded disks of 5, 6 and 7 triangles, keyed by triangle count."""
    return {n: [embed(m) for m in enumerate_maps(n)] for n in (5, 6, 7)}


def boundary_edges(pc):
    """Edges, keyed ``(min, max)``, that lie in one plane only."""
    return {e for e, planes in pc.edge_planes().items() if len(planes) == 1}


def point_in_triangle(p, a, b, c):
    """True when ``p`` lies strictly inside triangle ``abc``."""
    s = orient(a, b, c)
    return s != 0 and orient(a, b, p) == s and orient(b, c, p) == s and orient(c, a, p) == s


def on_segment(a, b, p):
    """True when collinear ``p`` lies within the closed bounding box of ``ab``."""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def reference_segments_conflict(a, b, c, d):
    """Reference for `segments_conflict`, built from `orient` and shared endpoints."""
    shared = {p for p in (a, b) if p in (c, d)}
    o1, o2 = orient(a, b, c), orient(a, b, d)
    o3, o4 = orient(c, d, a), orient(c, d, b)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if orient(u, v, p) == 0 and on_segment(u, v, p) and p not in shared and p not in (u, v):
            return True
    # Collinear overlap with both endpoints shared is the same segment twice.
    if o1 == o2 == o3 == o4 == 0 and len(shared) == 2 and {a, b} != {c, d}:
        return True
    return False


def pairwise_conflicts(pc):
    """Reference embedding check: every pair of edges, every vertex in every plane.

    It runs on the coordinates scaled to integers, which keeps every sign.
    """
    scale = math.lcm(*(c.denominator for p in pc.vertices.values() for c in p))
    pts = {v: (int(x * scale), int(y * scale)) for v, (x, y) in pc.vertices.items()}
    edges = sorted(tuple(sorted(e)) for e in pc.edge_planes())
    out = []
    for i, (a, b) in enumerate(edges):
        for c, d in edges[i + 1 :]:
            if reference_segments_conflict(pts[a], pts[b], pts[c], pts[d]):
                out.append(f"edges {(a, b)} and {(c, d)} overlap or cross")
    for plane, tri in sorted(pc.triangles.items()):
        for v in sorted(pc.vertices):
            if v not in tri and point_in_triangle(pts[v], *(pts[w] for w in tri)):
                out.append(f"vertex {v} lies inside plane {plane}")
    return out


def directed_segments(points):
    return [(a, b) for a in points for b in points if a != b]


def test_segments_conflict_matches_reference_on_a_lattice():
    lattice = directed_segments([(x, y) for x in range(5) for y in range(5)])
    assert len(lattice) ** 2 == 360000
    conflicts = 0
    for a, b in lattice:
        for c, d in lattice:
            got = segments_conflict(a, b, c, d)
            assert got == reference_segments_conflict(a, b, c, d), (a, b, c, d)
            conflicts += got
    assert conflicts == 87344


def test_segments_conflict_matches_reference_on_fractions():
    halves = [(Fraction(x, 2), Fraction(y, 2)) for x in range(3) for y in range(3)]
    segments = list(combinations(halves, 2))
    for a, b in segments:
        for c, d in segments:
            assert segments_conflict(a, b, c, d) == reference_segments_conflict(a, b, c, d)


def with_vertex_at(pc, v, point):
    return PlanarComplex({**pc.vertices, v: point}, pc.triangles, pc.line_numbering)


def square_strip():
    """Two triangles on a unit square, one interior line."""
    return PlanarComplex(
        vertices={1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)},
        triangles={1: (1, 2, 3), 2: (1, 3, 4)},
        line_numbering={1: (1, 3)},
    )


def test_validate_accepts_catalog_complexes(records):
    for rec in records:
        report = rec.complex.validate()
        assert report.ok, (rec.name, report.errors, report.violations)


def test_json_round_trip(records):
    for rec in records:
        data = json.loads(rec.complex.dumps())
        back = PlanarComplex.from_json(data)
        assert back.vertices == rec.complex.vertices
        assert back.triangles == rec.complex.triangles
        assert back.line_numbering == rec.complex.line_numbering


def test_round_trip_preserves_exact_fractions():
    pc = PlanarComplex(
        vertices={1: (Fraction(1, 3), 0), 2: (1, 0), 3: (0, Fraction(7, 2))},
        triangles={1: (1, 2, 3)},
        line_numbering={},
    )
    back = PlanarComplex.from_json(json.loads(pc.dumps()))
    assert back.vertices[1][0] == Fraction(1, 3)
    assert back.vertices[3][1] == Fraction(7, 2)


def loaded_and_built(written, triangles):
    """The complex loaded from vertices ``written`` as ``[px, py, qx, qy]``, and
    the one the constructor builds from the same ``Fraction``s, on the planes
    ``triangles`` with their interior edges `numbered`."""
    planes, lines = numbered(triangles)
    data = {
        "format": "degen-complex/1",
        "vertices": [[v, c] for v, c in written.items()],
        "triangles": [[p, list(t)] for p, t in planes.items()],
        "line_numbering": [[i, list(e)] for i, e in lines.items()],
    }
    points = {v: (Fraction(px, qx), Fraction(py, qy)) for v, (px, py, qx, qy) in written.items()}
    return PlanarComplex.loads(json.dumps(data)), PlanarComplex(points, planes, lines)


def test_lattice_from_written_integers_keeps_fraction_semantics():
    """Coordinates written unreduced or with a negative denominator, and one
    point written two ways, load to what the constructor gives for the same
    ``Fraction``s: the same view, text and report."""
    written = {1: [2, 4, 4, 8], 2: [1, -1, -2, 3], 3: [3, 0, 1, 1], 4: [1, 1, 2, 1]}
    triangles = [(1, 2, 3), (1, 3, 4)]
    doubled = loaded_and_built(
        {**written, 5: [2, 2, 4, 2], 6: [6, 9, 2, 3]}, triangles + [(3, 6, 4), (2, 5, 3)]
    )
    for loaded, built in (loaded_and_built(written, triangles), doubled):
        assert loaded.vertices == built.vertices
        assert loaded.dumps() == built.dumps()
        assert loaded.validate() == built.validate()
    loaded, built = loaded_and_built(written, triangles)
    assert loaded.vertices[1] == (Fraction(1, 2), Fraction(1, 2))
    assert loaded.vertices[2] == (Fraction(-1, 2), Fraction(-1, 3))
    assert loaded.validate().ok
    assert loaded.classify_vertices() == built.classify_vertices()
    assert doubled[0].validate().errors == (
        "vertices 4 and 5 share coordinates (Fraction(1, 2), Fraction(1, 1))",
    )


def test_vertex_sharing_without_edge_is_rejected():
    with pytest.raises(ComplexError) as info:
        PlanarComplex(
            vertices={1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (-1, 0), 5: (0, -1)},
            triangles=dict(enumerate(BOWTIE, 1)),
            line_numbering={},
        )
    assert str(info.value) == "interior is disconnected (planes do not chain along lines)"


def test_overlapping_triangles_are_rejected():
    pc = PlanarComplex(
        vertices={1: (0, 0), 2: (2, 0), 3: (0, 2), 4: (1, 1)},
        triangles={1: (1, 2, 3), 2: (1, 2, 4)},
        line_numbering={1: (1, 2)},
    )
    assert not pc.validate().ok


def test_pinch_made_up_by_a_vertex_in_no_plane_is_rejected():
    # An eight-plane disk with its two interior vertices merged into vertex 7,
    # which then has two closed fans; vertex 8 lies in no plane and would keep
    # the Euler characteristic at 1, so construction refuses it first.
    vertices = {
        1: (-4, -2), 2: (-1, -5), 3: (3, -4), 4: (5, 0),
        5: (2, 4), 6: (-2, 4), 7: (0, 0), 8: (9, 9),
    }
    triangles, lines = numbered(
        [(1, 4, 2), (1, 5, 4), (1, 7, 5), (1, 7, 6), (2, 7, 3), (4, 2, 7), (4, 7, 3), (7, 5, 6)]
    )
    with pytest.raises(ComplexError) as info:
        PlanarComplex(vertices, triangles, lines)
    assert str(info.value) == "vertex 8 lies in no plane"
    del vertices[8]
    with pytest.raises(ComplexError) as info:
        PlanarComplex(vertices, triangles, lines)
    assert str(info.value) == "Euler characteristic 0 != 1 (support is not a disk)"


@pytest.mark.parametrize("tri", [(1, 2), (1, 2, 3, 4)])
def test_plane_without_three_vertices_is_named(tri):
    with pytest.raises(ComplexError) as info:
        PlanarComplex(
            vertices={1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)},
            triangles={1: tri},
            line_numbering={},
        )
    assert str(info.value) == f"plane 1 has {len(tri)} vertices, expected 3"


def test_classification_is_computed_once(by_name, derivation_calls):
    """A loaded complex's derived tables are each built once, from its JSON
    integers: no ``Fraction`` is made on the way to a verdict.  The dual graph
    is built with the complex, not on first read."""
    data = by_name["U_{0,6,1}"].complex.to_json()
    derivation_calls.clear()
    pc = PlanarComplex.from_json(data)
    assert {"_line_planes", "_plane_lines"} <= vars(pc).keys()
    assert pc.validate().ok
    points = pc.classify_vertices()
    assert pc.classify_vertices() is points
    assert pc.line_planes() is pc.line_planes()
    assert pc.plane_lines() is pc.plane_lines()
    assert decide(pc, use_hints=False).outcome == "trivial"
    assert derivation_calls == {"edge_planes": 1, "orient_disk": 1, "line_by_edge": 1}


def test_constructor_makes_no_fraction(by_name, derivation_calls):
    """A complex built from integer coordinates keeps them on its lattice:
    checking it, deciding it and counting its branch data make no ``Fraction``.
    Its ``Fraction`` view, read later, holds the coordinates as given."""
    pc = by_name["U_{0,6,1}"].complex
    scale = math.lcm(*(c.denominator for xy in pc.vertices.values() for c in xy))
    ints = {v: (int(x * scale), int(y * scale) - 7) for v, (x, y) in pc.vertices.items()}
    derivation_calls.clear()
    built = PlanarComplex(ints, pc.triangles, pc.line_numbering)
    assert built.validate().ok
    assert decide(built, use_hints=False).outcome == "trivial"
    assert branch_stats(built) == branch_stats(pc)
    assert PlanarComplex.loads(built.dumps()).dumps() == built.dumps()
    assert derivation_calls["Fraction"] == 0
    view = built.vertices
    assert view == {v: (Fraction(x), Fraction(y)) for v, (x, y) in ints.items()}
    assert {type(c) for xy in view.values() for c in xy} == {Fraction}


def test_fraction_coordinates_pass_the_type_check_under_the_fraction_count(derivation_calls):
    """The coordinate types are bound at import, so swapping the module's
    ``Fraction`` name for a counter refuses no ``Fraction`` coordinate."""
    pc = PlanarComplex({1: (Fraction(1, 2), 0), 2: (1, 0), 3: (0, 1)}, {1: (1, 2, 3)}, {})
    assert pc.to_json()["vertices"] == [[1, [1, 0, 2, 1]], [2, [1, 0, 1, 1]], [3, [0, 1, 1, 1]]]
    assert derivation_calls["Fraction"] == 0


def test_line_planes_and_plane_lines_are_one_dual_graph(small_complexes):
    for k, pc in enumerate(small_complexes):
        line_planes = pc.line_planes()
        assert pc.line_planes() is line_planes, k
        assert list(line_planes) == sorted(pc.line_numbering), k
        assert all(p < q for p, q in line_planes.values()), k
        sides = {(line, p) for line, planes in line_planes.items() for p in planes}
        assert sides == {(line, p) for p, ls in pc.plane_lines().items() for line in ls}, k


def test_handshake_sum_of_multiplicities(records):
    for rec in records:
        pts = rec.complex.classify_vertices()
        lines = rec.complex.line_planes()
        assert sum(p.multiplicity for p in pts) == 2 * len(lines)


def test_mirror_image_reverses_every_rotation(records):
    for rec in records:
        pc = rec.complex
        mirror = PlanarComplex(
            {v: (-x, y) for v, (x, y) in pc.vertices.items()},
            pc.triangles,
            pc.line_numbering,
        )
        assert mirror.validate().ok
        reversed_points = []
        for p in pc.classify_vertices():
            c = p.lines_cyclic
            lines = c[:1] + c[:0:-1] if p.kind == "inner" else c[::-1]
            reversed_points.append(SingularPoint(p.vertex, p.kind, p.multiplicity, lines))
        assert mirror.classify_vertices() == tuple(reversed_points), rec.name


def test_line_pair_partition(records):
    for rec in records:
        pc = rec.complex
        lines = sorted(pc.line_planes())
        every = {frozenset(p) for p in combinations(lines, 2)}
        tangent = {frozenset(p) for p in tangent_pairs(pc)}
        disjoint = {frozenset(p) for p in disjoint_line_pairs(pc)}
        assert tangent <= every and disjoint <= every
        assert not tangent & disjoint
        transversal = every - tangent - disjoint
        oracle = rotation_transversal_pairs(pc.classify_vertices())
        assert transversal == {frozenset(p) for p in oracle}, rec.name
        for pair in transversal:
            a, b = sorted(pair)
            va = set(pc.line_numbering[a])
            vb = set(pc.line_numbering[b])
            assert va & vb, f"{rec.name}: transversal pair {a},{b} shares no vertex"


def test_edge_planes_two_for_interior_one_for_boundary(records):
    rec = records[0]
    pc = rec.complex
    by_edge = pc.edge_planes()
    lines = {tuple(sorted(pair)) for pair in pc.line_numbering.values()}
    for edge, planes in by_edge.items():
        assert len(planes) == (2 if edge in lines else 1)
    for line, planes in pc.line_planes().items():
        assert list(planes) == by_edge[tuple(sorted(pc.line_numbering[line]))]


@pytest.mark.parametrize(
    "key, path, bad",
    [
        ("vertices", (0, 1, 0), 0.5),
        ("vertices", (2, 0), 1.9),
        ("vertices", (1, 1, 3), True),
        ("triangles", (0, 0), "3"),
        ("triangles", (1, 1, 2), 4.0),
        ("line_numbering", (0, 0), 1.7),
    ],
    ids=["coordinate", "vertex-id", "denominator", "plane-id", "corner", "line-index"],
)
def test_from_json_accepts_only_integers(key, path, bad):
    """An entry that is not a JSON integer is named, never truncated or converted."""
    data = square_strip().to_json()
    entry = data[key][path[0]]
    holder = entry
    for i in path[1:-1]:
        holder = holder[i]
    holder[path[-1]] = bad
    assert from_json_messages(data) == (
        f"malformed complex JSON: {key} entry {json.dumps(entry)} holds {json.dumps(bad)},"
        " which is not an integer",
    )


@pytest.mark.parametrize(
    "moved, triangles, lines, message",
    [
        ({}, {1: (1, 2, 3), 2: (1, 3, 4)}, {1.7: (1, 3.9)},
         "line_numbering holds 1.7, which is not an int"),
        ({}, {True: (1, 2, 3), 2: (1, 3, 4)}, {1: (1, 3)},
         "triangles holds True, which is not an int"),
        ({2: (0.5, 0)}, {1: (1, 2, 3), 2: (1, 3, 4)}, {1: (1, 3)},
         "vertices holds 0.5, which is not an int or a Fraction"),
        ({4: (0, True)}, {1: (1, 2, 3), 2: (1, 3, 4)}, {1: (1, 3)},
         "vertices holds True, which is not an int or a Fraction"),
    ],
    ids=["fractional-line", "bool-plane-id", "float-coordinate", "bool-coordinate"],
)
def test_constructor_refuses_ids_that_are_not_ints(moved, triangles, lines, message):
    """`int()` would store line 1.7 as 1 with endpoints (1, 3), and plane True as 1;
    `Fraction()` would take the float 0.1 as 3602879701896397/2**55, not one tenth."""
    strip = square_strip()
    with pytest.raises(ComplexError) as info:
        PlanarComplex({**strip.vertices, **moved}, triangles, lines)
    assert str(info.value) == message


def test_from_json_rejects_unknown_format():
    with pytest.raises(ComplexError):
        PlanarComplex.from_json({"format": "degen-complex/99", "vertices": {}})


@pytest.fixture(scope="module")
def oracle_inputs(disks, records):
    """The disks of 5 to 7 triangles and the catalog complexes, then 2000 copies
    of them with one vertex moved along the line to another vertex."""
    base = [pc for n in (5, 6, 7) for pc in disks[n]] + [rec.complex for rec in records]
    rng = random.Random(2003)
    inputs = list(base)
    for _ in range(2000):
        pc = rng.choice(base)
        v, w = rng.sample(sorted(pc.vertices), 2)
        (x, y), (wx, wy) = pc.vertices[v], pc.vertices[w]
        t = Fraction(rng.randint(1, 24), 8)
        inputs.append(with_vertex_at(pc, v, (x + t * (wx - x), y + t * (wy - y))))
    return inputs


def test_certificate_agrees_with_pairwise_oracle(oracle_inputs):
    compared = rejected = 0
    for pc in oracle_inputs:
        report = pc.validate()
        if report.errors:
            assert not report.ok
            continue
        conflicts = pairwise_conflicts(pc)
        assert report.ok == (not conflicts), (report.violations, conflicts)
        compared += 1
        rejected += bool(conflicts)
    # 114 of the 2139 inputs fail the structural checks first; of the rest,
    # 1489 are rejected by both the certificate and the oracle.
    assert (compared, rejected) == (2025, 1489)


def test_validate_reports_are_pinned(oracle_inputs, small_complexes, records):
    """Every report's errors and violations, texts and order, on the 2139 oracle
    inputs, the embedded disks of 6, 7 and 8 triangles and the catalog."""
    embedded = [pc for pc in small_complexes[len(records) :] if 6 <= len(pc.triangles) <= 8]
    complexes = oracle_inputs + embedded + [rec.complex for rec in records]
    assert (len(oracle_inputs), len(embedded), len(records)) == (2139, 345, 29)
    digest = hashlib.sha256()
    for pc in complexes:
        report = pc.validate()
        digest.update(repr((report.errors, report.violations)).encode() + b"\n")
    assert digest.hexdigest() == (
        "94c61ffa1d47c1c29ddfc3f4a8a92355fa528417e42d29ba1b5852a567284a24"
    )


def test_interior_vertex_moved_across_its_plane_names_that_plane(disks):
    named = 0
    for pc in disks[7]:
        on_boundary = {v for e in boundary_edges(pc) for v in e}
        for v in sorted(set(pc.vertices) - on_boundary):
            px, py = pc.vertices[v]
            for plane, tri in sorted(pc.triangles.items()):
                if v not in tri:
                    continue
                (ax, ay), (bx, by) = (pc.vertices[w] for w in tri if w != v)
                mx, my = (ax + bx) / 2, (ay + by) / 2
                moved = with_vertex_at(pc, v, (mx + (mx - px) / 4, my + (my - py) / 4))
                assert (
                    f"plane {plane} is flipped: it winds against the boundary"
                    in moved.validate().violations
                )
                assert pairwise_conflicts(moved)
                named += 1
    assert named == 254


def test_self_overlapping_strip_names_its_crossing_boundary_edges():
    # Seven planes in a strip that winds more than once around the origin:
    # outer vertices 1..5, inner vertices 6..9, all planes counterclockwise.
    vertices = {
        1: (40, 0), 2: (-7, 39), 3: (-38, -14), 4: (20, -35), 5: (31, 26),
        6: (13, 15), 7: (-17, 10), 8: (-7, -19), 9: (20, -3),
    }
    triangles, lines = numbered(
        [(1, 2, 6), (6, 2, 7), (2, 3, 7), (7, 3, 8), (3, 4, 8), (8, 4, 9), (4, 5, 9)]
    )
    pc = PlanarComplex(vertices, triangles, lines)
    assert {orient(*(pc.vertices[v] for v in t)) for t in triangles.values()} == {1}
    assert pc.validate().violations == (
        "boundary edges (1, 2) and (4, 5) overlap or cross",
        "boundary edges (1, 2) and (5, 9) overlap or cross",
        "boundary edges (4, 5) and (1, 6) overlap or cross",
        "boundary edges (5, 9) and (1, 6) overlap or cross",
    )
    assert pairwise_conflicts(pc) == [
        "edges (1, 2) and (4, 5) overlap or cross",
        "edges (1, 2) and (5, 9) overlap or cross",
        "edges (1, 6) and (4, 5) overlap or cross",
        "edges (1, 6) and (5, 9) overlap or cross",
    ]


UNORIENTABLE = "planes 4 and 9 cannot be oriented alike across edge [5, 6] (unorientable gluing)"
NO_BOUNDARY = "no boundary: the planes close up into a surface"


@pytest.mark.parametrize(
    "triangles, refusal, map_refusal",
    [
        (OCTAHEDRON, "Euler characteristic 2 != 1 (support is not a disk)", NO_BOUNDARY),
        (HEMI_ICOSAHEDRON, UNORIENTABLE, UNORIENTABLE),
        (
            MOEBIUS_BAND,
            "Euler characteristic 0 != 1 (support is not a disk)",
            "planes 4 and 3 cannot be oriented alike across edge [4, 5] (unorientable gluing)",
        ),
        (
            ANNULUS,
            "Euler characteristic 0 != 1 (support is not a disk)",
            "boundary is not one cycle: the walk from vertex 1 covers 3 of 6 boundary edges",
        ),
        (PINCHED_SPHERE, NO_BOUNDARY, NO_BOUNDARY),
    ],
    ids=["closed", "projective-plane", "moebius-band", "annulus", "pinched-sphere"],
)
def test_gluing_that_is_not_a_disk_is_named_and_never_accepted(triangles, refusal, map_refusal):
    """Construction refuses every gluing but a disk, Euler characteristic first;
    the map builder, which counts no Euler characteristic, names what
    `orient_disk` finds."""
    with pytest.raises(ComplexError) as info:
        PlanarComplex.from_json(gluing_json(triangles))
    assert str(info.value) == refusal
    with pytest.raises(EnumeratorError) as info:
        CombinatorialMap.from_triangles(triangles)
    assert str(info.value) == map_refusal


def chern_refusal(stats):
    with pytest.raises(InvariantError) as info:
        chern(stats)
    return (str(info.value),)


def from_json_messages(data):
    with pytest.raises(ComplexError) as info:
        PlanarComplex.from_json(data)
    return (str(info.value),)


def square_json(key, entries):
    """`square_strip` as interchange JSON, with the list under ``key`` replaced."""
    return {**square_strip().to_json(), key: entries}


def square_with_lines(lines):
    """`square_strip`'s tables under another line numbering."""
    strip = square_strip()
    return strip.vertices, strip.triangles, lines


def constructor_refusal(tables):
    """What the constructor says about ``(vertices, triangles, line_numbering)``."""
    with pytest.raises(ComplexError) as info:
        PlanarComplex(*tables)
    return (str(info.value),)


@pytest.mark.parametrize(
    "check, subject, messages",
    [
        (
            constructor_refusal,
            (
                {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1), 5: (-1, -1)},
                {1: (1, 2, 3), 2: (2, 1, 4), 3: (1, 2, 5)},
                {},
            ),
            ("edge [1, 2] lies in 3 planes: [1, 2, 3]",),
        ),
        (
            constructor_refusal,
            square_with_lines({1: (2, 1)}),
            ("line 1 (2, 1) is not an interior edge",),
        ),
        (
            constructor_refusal,
            square_with_lines({1: (1, 3), 2: (3, 1)}),
            ("lines 1 and 2 number the same edge",),
        ),
        (constructor_refusal, square_with_lines({}), ("interior edge [1, 3] has no line number",)),
        (
            constructor_refusal,
            square_with_lines({1: (3, 3)}),
            ("line 1 has bad endpoints (3, 3)",),
        ),
        (
            constructor_refusal,
            (square_strip().vertices, {1: (1, 2, 3), 2: (1, 3, 3)}, {1: (1, 3)}),
            ("plane 2 repeats a vertex: (1, 3, 3)",),
        ),
        (
            constructor_refusal,
            (square_strip().vertices, square_strip().triangles, {1: (1, 3), 2: (1, 2, 3)}),
            ("line 2 has bad endpoints (1, 2, 3)",),
        ),
        (
            constructor_refusal,
            (square_strip().vertices, {1: (1, 2, 9), 2: (1, 3, 4)}, {1: (1, 3)}),
            ("plane 1 references unknown vertices [9]",),
        ),
        (
            constructor_refusal,
            (
                {v: (k, k * k) for k, v in enumerate(range(1, 7))},
                *numbered(HEMI_ICOSAHEDRON),
            ),
            (UNORIENTABLE,),
        ),
        (
            constructor_refusal,
            ({1: (0, 0), 2: (1, 0), 3: (0, 1)}, *numbered([(1, 2, 3), (3, 2, 1)])),
            ("Euler characteristic 2 != 1 (support is not a disk)",),
        ),
        (
            chern_refusal,
            BranchStats(n=3, m=4, mu=0, d=1, rho=0),
            ("non-integral Chern numbers: c1^2=6, c2=-9/2",),
        ),
        (
            from_json_messages,
            square_json("triangles", [[1, [1, 2, "x"]], [2, [1, 3, 4]]]),
            (
                'malformed complex JSON: triangles entry [1, [1, 2, "x"]] holds "x",'
                " which is not an integer",
            ),
        ),
        (
            from_json_messages,
            square_json("triangles", [[1, 5], [2, [1, 3, 4]]]),
            (
                "malformed complex JSON: triangles entry [1, 5]"
                " is not of the form [int, [int, ...]]",
            ),
        ),
        (
            from_json_messages,
            square_json("line_numbering", [[1, [1, None]]]),
            (
                "malformed complex JSON: line_numbering entry [1, [1, null]] holds null,"
                " which is not an integer",
            ),
        ),
        (
            from_json_messages,
            square_json("triangles", [[1, [1, 2, 3]], [1, [1, 3, 4]]]),
            ("malformed complex JSON: triangles entry [1, [1, 3, 4]] repeats plane id 1",),
        ),
        (
            from_json_messages,
            square_json(
                "vertices",
                [[1, [0, 0, 1, 1]], [2, [1, 0, 0, 1]], [3, [1, 1, 1, 0]], [4, [0, 1, 1, 1]]],
            ),
            ("malformed complex JSON: vertices entry [2, [1, 0, 0, 1]] has denominator 0",),
        ),
        (
            from_json_messages,
            square_json(
                "vertices",
                [[1, [0, 0, 1, 1, 1]], [2, [1, 0, 1, 1]], [3, [1, 1, 1, 1]], [4, [0, 1, 1, 1]]],
            ),
            ("malformed complex JSON: vertices entry [1, [0, 0, 1, 1, 1]] holds 5 values,"
             " expected 4",),
        ),
        (
            from_json_messages,
            square_json("line_numbering", {}),
            ("malformed complex JSON: line_numbering is not a list",),
        ),
        (
            from_json_messages,
            {k: v for k, v in square_strip().to_json().items() if k != "triangles"},
            ("malformed complex JSON: missing key 'triangles'",),
        ),
    ],
    ids=[
        "edge-in-three-planes", "boundary-edge-numbered", "edge-numbered-twice",
        "interior-edge-unnumbered", "line-on-one-vertex", "plane-repeats-a-vertex",
        "line-on-three-vertices",
        "plane-on-an-unlisted-vertex", "unorientable-gluing", "planes-on-one-vertex-set",
        "non-integral-chern",
        "json-vertex-not-an-int", "json-triangle-not-a-list", "json-line-vertex-none",
        "json-duplicate-plane", "json-zero-denominator", "json-vertex-of-five-values",
        "json-table-an-object", "json-table-missing",
    ],
)
def test_structural_error_texts(check, subject, messages):
    assert check(subject) == messages


def walk_corners(pc):
    """The boundary walk's corners on the complex's integer lattice."""
    return [pc._lattice[v] for v in pc._disk[1]]


def convex_by_definition(corners):
    """The side every corner off an edge lies strictly on, the same for every
    edge (+1 left, -1 right), or 0 when there is no such side."""
    n = len(corners)
    sides = {
        orient(corners[i], corners[(i + 1) % n], corners[j])
        for i in range(n)
        for j in range(n)
        if j not in (i, (i + 1) % n)
    }
    return sides.pop() if len(sides) == 1 else 0


def test_validate_tests_only_boundary_edge_pairs(disks, records, segment_calls):
    """None on a strictly convex boundary; at most b(b-1)/2 on any other."""
    for pc in disks[7]:
        segment_calls.clear()
        assert pc.validate().ok
        assert convex_by_definition(walk_corners(pc))
        assert segment_calls["segments_conflict"] == 0
    tested = 0
    for rec in records:
        pc = rec.complex
        segment_calls.clear()
        assert pc.validate().ok
        b = len(boundary_edges(pc))
        if convex_by_definition(walk_corners(pc)):
            assert segment_calls["segments_conflict"] == 0, rec.name
        else:
            assert 0 < segment_calls["segments_conflict"] <= b * (b - 1) // 2, rec.name
            tested += 1
    assert tested == 17
    assert not hasattr(degen.complexes, "point_in_triangle")
    assert not hasattr(degen.geometry, "point_in_triangle")


def cone(boundary):
    """Planes from the origin, vertex 0, over each side of ``boundary``
    (vertices 1..n in walk order); the lines are the spokes."""
    n = len(boundary)
    vertices = {0: (0, 0), **{k + 1: p for k, p in enumerate(boundary)}}
    return PlanarComplex(vertices, *numbered([(0, k, k % n + 1) for k in range(1, n + 1)]))


def star(n):
    """The star polygon {n/2} on lattice points near a circle of radius 100."""
    points = [
        (round(100 * math.cos(2 * math.pi * k / n)), round(100 * math.sin(2 * math.pi * k / n)))
        for k in range(n)
    ]
    return [points[2 * k % n] for k in range(n)]


@pytest.mark.parametrize("n", [5, 7])
def test_polygon_wound_twice_is_not_certified_and_its_crossings_are_named(n, segment_calls):
    for corners in (star(n), star(n)[::-1]):
        winding = orient(*corners[:3])
        turns = {orient(corners[i - 2], corners[i - 1], corners[i]) for i in range(n)}
        assert turns == {winding}  # strict at every corner, the same way
        assert not strictly_convex(corners, winding)
        assert not strictly_convex(corners, -winding)
        # coned from the origin: every plane winds with the boundary, which goes
        # twice round the cone point
        pc = cone(corners)
        assert {orient(*(pc.vertices[v] for v in t)) for t in pc.triangles.values()} == {winding}
        segment_calls.clear()
        named = pc.validate().violations
        assert segment_calls["segments_conflict"] == n * (n - 1) // 2
        sides = [(k, k % n + 1) for k in range(1, n + 1)]
        crossing = [
            f"boundary edges {tuple(sorted(e))} and {tuple(sorted(f))} overlap or cross"
            for i, e in enumerate(sides)
            for f in sides[i + 1 :]
            if reference_segments_conflict(*(pc.vertices[v] for v in e + f))
        ]
        assert len(crossing) == n  # each side crosses the two sides next but one
        assert named == tuple(crossing)


@pytest.mark.parametrize("mirror", [1, -1])
def test_collinear_boundary_corner_falls_back_to_the_pair_tests(mirror, segment_calls):
    # vertex 2 is a boundary corner halfway along the side from 1 to 3
    pc = PlanarComplex(
        {1: (0, 0), 2: (2, 0), 3: (4, 0), 4: (2, 2 * mirror)},
        *numbered([(1, 2, 4), (2, 3, 4)]),
    )
    corners = walk_corners(pc)
    assert not strictly_convex(corners, 1) and not strictly_convex(corners, -1)
    assert convex_by_definition(corners) == 0
    assert pc.validate().ok
    assert segment_calls["segments_conflict"] == 4 * 3 // 2


@pytest.mark.parametrize("mirror", [1, -1])
def test_strictly_convex_boundary_is_certified_in_both_windings(mirror, segment_calls):
    strip = square_strip()
    pc = PlanarComplex(
        {v: (x, mirror * y) for v, (x, y) in strip.vertices.items()},
        strip.triangles,
        strip.line_numbering,
    )
    corners = walk_corners(pc)
    winding = convex_by_definition(corners)
    assert winding in (1, -1)
    for poly, w in ((corners, winding), (corners[::-1], -winding)):
        assert strictly_convex(poly, w)
        assert not strictly_convex(poly, -w)
    assert pc.validate().ok
    assert segment_calls["segments_conflict"] == 0


def parabola_polygon(xs, start, reverse):
    """Distinct points of y = x^2 in order of x, closed: a strictly convex polygon."""
    corners = [(x, x * x) for x in sorted(set(xs))]
    corners = corners[start % len(corners) :] + corners[: start % len(corners)]
    return corners[::-1] if reverse else corners


lattice_points = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
small_polygons = st.lists(lattice_points, min_size=3, max_size=8) | st.builds(
    parabola_polygon,
    st.lists(st.integers(-4, 4), min_size=3, max_size=8).filter(lambda xs: len(set(xs)) >= 3),
    st.integers(0, 7),
    st.booleans(),
)


@settings(deadline=None, max_examples=300)
@given(small_polygons, st.sampled_from([1, -1]))
@example([(0, 0), (2, 0), (2, 2), (0, 2)], 1)
@example([(0, 0), (0, 2), (2, 2), (2, 0)], -1)
@example(star(5), orient(*star(5)[:3]))
def test_certified_polygons_are_convex_and_have_no_conflicting_edges(corners, winding):
    certified = strictly_convex(corners, winding)
    assert certified == (convex_by_definition(corners) == winding)
    if certified:
        n = len(corners)
        sides = [(corners[i], corners[(i + 1) % n]) for i in range(n)]
        for i, (a, b) in enumerate(sides):
            for c, d in sides[i + 1 :]:
                assert not segments_conflict(a, b, c, d)


# text with non-ASCII letters, quotes, backslashes and control characters
json_strings = st.text(st.sampled_from('a∪é"\\/\b\f\n\r\t\x00\x1f\x7f\u2028\U0001d11e'))
json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | json_strings,
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(json_strings, inner),
    max_leaves=30,
)


@settings(deadline=None)
@given(json_values)
@example([])
@example({})
@example(())
@example([[], ()])
@example({"a": {}, "": [(), {}]})
@example([{"∪": [None, True, False, -1, 10**30]}])
def test_json_text_writes_the_bytes_of_indented_dumps(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value", [1.5, Fraction(1, 2), {1: "a"}, [{"a": {(1, 2): 3}}], {"a": [0.0]}]
)
def test_json_text_refuses_floats_fractions_and_keys_that_are_no_str(value):
    with pytest.raises(TypeError):
        json_text(value)
