import json
from fractions import Fraction
from itertools import combinations

import pytest

from degen.complexes import ComplexError, PlanarComplex
from degen.relations import tangent_pairs


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


@pytest.mark.parametrize("tri", [(1, 2), (1, 2, 3, 4)])
def test_plane_without_three_vertices_is_named(tri):
    pc = PlanarComplex(
        vertices={1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)},
        triangles={1: tri},
        line_numbering={},
    )
    assert pc.validate().errors == (f"plane 1 has {len(tri)} vertices, expected 3",)


def test_classification_is_computed_once(by_name, fan_gap_calls):
    pc = PlanarComplex.from_json(by_name["U_{0,6,1}"].complex.to_json())
    points = pc.classify_vertices()
    assert pc.classify_vertices() is points
    assert fan_gap_calls == {v: 1 for v in pc.vertices}


def test_handshake_sum_of_multiplicities(records):
    for rec in records:
        pts = rec.complex.classify_vertices()
        lines = rec.complex.interior_lines()
        assert sum(p.multiplicity for p in pts) == 2 * len(lines)


def test_line_pair_partition(records):
    for rec in records:
        pc = rec.complex
        lines = sorted(pc.interior_lines())
        every = {frozenset(p) for p in combinations(lines, 2)}
        tangent = {frozenset(p) for p in tangent_pairs(pc.classify_vertices())}
        disjoint = {frozenset(p) for p in pc.disjoint_line_pairs()}
        assert tangent <= every and disjoint <= every
        assert not tangent & disjoint
        transversal = every - tangent - disjoint
        for pair in transversal:
            a, b = sorted(pair)
            va = set(pc.line_numbering[a])
            vb = set(pc.line_numbering[b])
            assert va & vb, f"{rec.name}: transversal pair {a},{b} shares no vertex"


def test_dual_graph_matches_interior_lines(records):
    for rec in records:
        pc = rec.complex
        graph = pc.dual_graph()
        assert set(graph.nodes) == set(pc.triangles)
        assert len(graph.edges) == len(pc.interior_lines())


def test_edge_planes_two_for_interior_one_for_boundary(records):
    rec = records[0]
    pc = rec.complex
    by_edge = pc.edge_planes()
    for line in pc.interior_lines().values():
        assert len(line.planes) == 2
    for edge in pc.boundary_edges():
        assert len(by_edge[edge]) == 1


def test_from_json_rejects_unknown_format():
    with pytest.raises(ComplexError):
        PlanarComplex.from_json({"format": "degen-complex/99", "vertices": {}})
