import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

import degen.complexes
import degen.geometry
from degen.complexes import ComplexError, PlanarComplex, SingularPoint, json_text
from degen.enumerator import CombinatorialMap, EnumeratorError, embed, enumerate_maps
from degen.geometry import orient, segments_conflict
from degen.invariants import BranchStats, InvariantError, chern
from degen.relations import tangent_pairs
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


def numbered(triangles):
    """Planes 1..n and their interior edges numbered 1..L in sorted order."""
    count = Counter(frozenset(e) for t in triangles for e in combinations(t, 2))
    interior = sorted(tuple(sorted(e)) for e, k in count.items() if k == 2)
    return (
        {i + 1: t for i, t in enumerate(triangles)},
        {i + 1: e for i, e in enumerate(interior)},
    )


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


def test_vertex_sharing_without_edge_is_rejected():
    pc = PlanarComplex(
        vertices={1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (-1, 0), 5: (0, -1)},
        triangles={1: (1, 2, 3), 2: (1, 4, 5)},
        line_numbering={},
    )
    assert not pc.validate().ok


def test_overlapping_triangles_are_rejected():
    pc = PlanarComplex(
        vertices={1: (0, 0), 2: (2, 0), 3: (0, 2), 4: (1, 1)},
        triangles={1: (1, 2, 3), 2: (1, 2, 4)},
        line_numbering={1: (1, 2)},
    )
    assert not pc.validate().ok


def test_pinch_made_up_by_a_vertex_in_no_plane_is_rejected():
    # An eight-plane disk with its two interior vertices merged into vertex 7,
    # which then has two closed fans; vertex 8 lies in no plane and keeps the
    # Euler characteristic at 1, so only the certificate can reject the pinch.
    vertices = {
        1: (-4, -2), 2: (-1, -5), 3: (3, -4), 4: (5, 0),
        5: (2, 4), 6: (-2, 4), 7: (0, 0), 8: (9, 9),
    }
    triangles, lines = numbered(
        [(1, 4, 2), (1, 5, 4), (1, 7, 5), (1, 7, 6), (2, 7, 3), (4, 2, 7), (4, 7, 3), (7, 5, 6)]
    )
    pc = PlanarComplex(vertices, triangles, lines)
    assert not pc._disk_violations()
    assert not pc.validate().ok
    with pytest.raises(ComplexError, match="pinched vertex 7"):
        pc.classify_vertices()


@pytest.mark.parametrize("tri", [(1, 2), (1, 2, 3, 4)])
def test_plane_without_three_vertices_is_named(tri):
    pc = PlanarComplex(
        vertices={1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)},
        triangles={1: tri},
        line_numbering={},
    )
    assert pc.validate().errors == (f"plane 1 has {len(tri)} vertices, expected 3",)


def test_classification_is_computed_once(by_name, derivation_calls):
    pc = PlanarComplex.from_json(by_name["U_{0,6,1}"].complex.to_json())
    assert pc.validate().ok
    points = pc.classify_vertices()
    assert pc.classify_vertices() is points
    assert pc.plane_lines() is pc.plane_lines()
    assert derivation_calls == {"edge_planes": 1, "orient_disk": 1}


def test_handshake_sum_of_multiplicities(records):
    for rec in records:
        pts = rec.complex.classify_vertices()
        lines = rec.complex.interior_lines()
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
        lines = sorted(pc.interior_lines())
        every = {frozenset(p) for p in combinations(lines, 2)}
        tangent = {frozenset(p) for p in tangent_pairs(pc)}
        disjoint = {frozenset(p) for p in pc.disjoint_line_pairs()}
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
    for line in pc.interior_lines().values():
        assert len(line.planes) == 2
    lines = {tuple(sorted(line.vertices)) for line in pc.interior_lines().values()}
    for edge, planes in by_edge.items():
        assert len(planes) == (2 if edge in lines else 1)


def test_from_json_rejects_unknown_format():
    with pytest.raises(ComplexError):
        PlanarComplex.from_json({"format": "degen-complex/99", "vertices": {}})


def test_certificate_agrees_with_pairwise_oracle(disks, records):
    base = [pc for n in (5, 6, 7) for pc in disks[n]] + [rec.complex for rec in records]
    rng = random.Random(2003)
    inputs = list(base)
    for _ in range(2000):
        pc = rng.choice(base)
        v, w = rng.sample(sorted(pc.vertices), 2)
        (x, y), (wx, wy) = pc.vertices[v], pc.vertices[w]
        t = Fraction(rng.randint(1, 24), 8)
        inputs.append(with_vertex_at(pc, v, (x + t * (wx - x), y + t * (wy - y))))
    compared = rejected = 0
    for pc in inputs:
        report = pc.validate()
        if report.errors or pc._disk_violations():
            assert not report.ok
            continue
        conflicts = pairwise_conflicts(pc)
        assert report.ok == (not conflicts), (report.violations, conflicts)
        compared += 1
        rejected += bool(conflicts)
    # 114 of the 2139 inputs fail the structural or disk checks first; of
    # the rest, 1489 are rejected by both the certificate and the oracle.
    assert (compared, rejected) == (2025, 1489)


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
                if moved._disk_violations():
                    continue
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
    assert not pc._disk_violations()
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


OCTAHEDRON = [
    (1, 3, 5), (3, 2, 5), (2, 4, 5), (4, 1, 5),
    (3, 1, 6), (2, 3, 6), (4, 2, 6), (1, 4, 6),
]
HEMI_ICOSAHEDRON = [  # the projective plane on 6 vertices
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]


@pytest.mark.parametrize(
    "triangles, message",
    [
        (OCTAHEDRON, "no boundary: the planes close up into a surface"),
        (HEMI_ICOSAHEDRON, "(unorientable gluing)"),
        ([(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2)], "(unorientable gluing)"),
        (
            [t for t in OCTAHEDRON if t not in ((1, 3, 5), (4, 2, 6))],
            "boundary is not one cycle: the walk from vertex 1 covers 3 of 6 boundary edges",
        ),
    ],
    ids=["closed", "projective-plane", "moebius-band", "annulus"],
)
def test_gluing_that_is_not_a_disk_is_named_and_never_accepted(triangles, message):
    vertices = {1: (0, 0), 2: (10, 1), 3: (3, 7), 4: (-5, 4), 5: (-2, -6), 6: (7, -5)}
    pc = PlanarComplex(vertices, *numbered(triangles))
    assert not pc.validate().ok
    (named,) = pc._orientation_violations()
    assert named.endswith(message)
    with pytest.raises(EnumeratorError) as info:
        CombinatorialMap.from_triangles(triangles)
    assert str(info.value) == named
    if not pc.validate().errors and not pc._disk_violations():
        assert pc.validate().violations == (named,)


def validation_messages(pc):
    report = pc.validate()
    return report.errors + report.violations


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
    """`square_strip`'s two planes under another line numbering."""
    strip = square_strip()
    return PlanarComplex(strip.vertices, strip.triangles, lines)


@pytest.mark.parametrize(
    "check, subject, messages",
    [
        (
            validation_messages,
            PlanarComplex(
                {1: (0, 0), 2: (1, 0), 3: (0, 1), 4: (1, 1), 5: (-1, -1)},
                {1: (1, 2, 3), 2: (2, 1, 4), 3: (1, 2, 5)},
                {},
            ),
            ("edge [1, 2] lies in 3 planes: [1, 2, 3]",),
        ),
        (
            validation_messages,
            square_with_lines({1: (2, 1)}),
            ("line 1 (2, 1) is not an interior edge", "interior edge [1, 3] has no line number"),
        ),
        (
            validation_messages,
            square_with_lines({1: (1, 3), 2: (3, 1)}),
            ("lines 1 and 2 number the same edge",),
        ),
        (validation_messages, square_with_lines({}), ("interior edge [1, 3] has no line number",)),
        (
            validation_messages,
            square_with_lines({1: (3, 3)}),
            ("line 1 has bad endpoints (3, 3)", "interior edge [1, 3] has no line number"),
        ),
        (
            validation_messages,
            square_with_lines({1: (1, 3), 2: (1, 2, 3)}),
            ("line 2 has bad endpoints (1, 2, 3)",),
        ),
        (
            validation_messages,
            PlanarComplex(
                {1: (0, 0), 2: (10, 1), 3: (3, 7), 4: (-5, 4), 5: (-2, -6), 6: (7, -5)},
                *numbered([(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2)]),
            ),
            (
                "planes 4 and 3 cannot be oriented alike across edge [4, 5]"
                " (unorientable gluing)",
            ),
        ),
        (
            chern_refusal,
            BranchStats(n=3, m=4, mu=0, d=1, rho=0),
            ("non-integral Chern numbers: c1^2=6, c2=-9/2",),
        ),
        (
            from_json_messages,
            square_json("triangles", [[1, [1, 2, "x"]], [2, [1, 3, 4]]]),
            ("malformed complex JSON: invalid literal for int() with base 10: 'x'",),
        ),
        (
            from_json_messages,
            square_json("triangles", [[1, 5], [2, [1, 3, 4]]]),
            ("malformed complex JSON: 'int' object is not iterable",),
        ),
        (
            from_json_messages,
            square_json("line_numbering", [[1, [1, None]]]),
            (
                "malformed complex JSON: int() argument must be a string, a bytes-like"
                " object or a real number, not 'NoneType'",
            ),
        ),
        (
            from_json_messages,
            square_json("triangles", [[1, [1, 2, 3]], [1, [1, 3, 4]]]),
            ("duplicate plane id 1",),
        ),
    ],
    ids=[
        "edge-in-three-planes", "boundary-edge-numbered", "edge-numbered-twice",
        "interior-edge-unnumbered", "line-on-one-vertex", "line-on-three-vertices",
        "unorientable-gluing", "non-integral-chern", "json-vertex-not-an-int",
        "json-triangle-not-a-list", "json-line-vertex-none", "json-duplicate-plane",
    ],
)
def test_structural_error_texts(check, subject, messages):
    assert check(subject) == messages


def test_validate_tests_only_boundary_edge_pairs(disks, segment_calls):
    for pc in disks[7]:
        segment_calls.clear()
        assert pc.validate().ok
        b = len(boundary_edges(pc))
        assert 0 < segment_calls["segments_conflict"] <= b * (b - 1) // 2
    assert not hasattr(degen.complexes, "point_in_triangle")
    assert not hasattr(degen.geometry, "point_in_triangle")


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
