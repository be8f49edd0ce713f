"""Enumeration is checked against a slow oracle that never uses growth moves.

The oracle generates every triangle set over a bounded vertex ground set and
keeps the ones the map builder accepts, so any class the breadth-first grower
could silently orphan would show up as a count mismatch here.
"""

import hashlib
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from degen.catalog import load_all
from degen.enumerator import (
    CombinatorialMap,
    EnumeratorError,
    ResourceBoundExceeded,
    canonical_form,
    embed,
    enumerate_maps,
    enumeration_counts,
    match_catalog,
)

MIRROR_PAIR = ("U_{0,5,1}", "U_{0,5,3}")

# First 16 hex digits of the SHA-256 of every class's canonical form, and of
# every class's embedding, in enumeration order.
GOLDEN_FORMS = {6: "19133f7f85a46eab", 7: "f545c4de63b8eb31", 8: "b32ce4defc7013fd"}
GOLDEN_EMBEDS = {6: "6d158afb46af2802", 7: "87835bdc2c2c39ee"}


def exhaustive_forms(num_triangles):
    """Canonical forms of every valid map, found without growth moves."""
    forms = set()
    for k in range(3, num_triangles + 3):
        triples = list(combinations(range(1, k + 1), 3))
        for chosen in combinations(triples, num_triangles):
            used = set()
            for tri in chosen:
                used.update(tri)
            if len(used) != k:
                continue
            try:
                forms.add(canonical_form(CombinatorialMap.from_triangles(chosen)))
            except EnumeratorError:
                continue
    return forms


@pytest.mark.parametrize("num_triangles, expected", [(1, 1), (2, 1), (3, 2), (4, 5)])
def test_growth_agrees_with_exhaustive_oracle(num_triangles, expected):
    oracle = exhaustive_forms(num_triangles)
    grown = {canonical_form(m) for m in enumerate_maps(num_triangles)}
    assert grown == oracle
    assert len(grown) == expected


def test_growth_agrees_with_exhaustive_oracle_at_five():
    oracle = exhaustive_forms(5)
    grown = {canonical_form(m) for m in enumerate_maps(5)}
    assert grown == oracle
    assert len(grown) == 9


def test_level_counts():
    assert enumeration_counts(6) == (1, 1, 2, 5, 9, 28)


def test_catalog_closure_at_six_triangles(records):
    forms = {canonical_form(m) for m in enumerate_maps(6)}
    for rec in records:
        assert canonical_form(CombinatorialMap.from_complex(rec.complex)) in forms, (
            rec.name
        )


def test_exactly_one_catalog_form_collision(records):
    by_form = {}
    for rec in records:
        form = canonical_form(CombinatorialMap.from_complex(rec.complex))
        by_form.setdefault(form, []).append(rec.name)
    collisions = [names for names in by_form.values() if len(names) > 1]
    assert collisions == [list(MIRROR_PAIR)]
    assert len(by_form) == 28


def test_mirror_pair_is_abstractly_isomorphic(by_name):
    relabel = {1: 8, 2: 5, 3: 6, 4: 7, 5: 2, 6: 3, 7: 4, 8: 1}
    left = {
        frozenset(relabel[v] for v in tri)
        for tri in by_name[MIRROR_PAIR[0]].complex.triangles.values()
    }
    right = {
        frozenset(tri) for tri in by_name[MIRROR_PAIR[1]].complex.triangles.values()
    }
    assert left == right


def test_match_report_on_full_catalog(records):
    report = match_catalog(enumerate_maps(6), records)
    assert len(report.matched) == 28
    assert report.unmatched_maps == ()
    assert report.unmatched_records == (MIRROR_PAIR[1],)
    assert not report.is_bijection


def test_match_is_bijective_without_the_duplicate(records):
    kept = [r for r in records if r.name != MIRROR_PAIR[1]]
    report = match_catalog(enumerate_maps(6), kept)
    assert report.is_bijection
    assert len(report.matched) == 28


def test_removing_an_ordinary_record_orphans_one_map(records):
    kept = [r for r in records if r.name != "U_5"]
    report = match_catalog(enumerate_maps(6), kept)
    assert len(report.unmatched_maps) == 1
    assert report.unmatched_records == (MIRROR_PAIR[1],)


def test_wrong_size_maps_match_nothing(records):
    report = match_catalog(enumerate_maps(5), records)
    assert report.matched == ()
    assert len(report.unmatched_maps) == 9
    assert len(report.unmatched_records) == 29


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(1, 9))), st.sampled_from(range(29)))
def test_canonical_form_ignores_vertex_labels(perm, index):
    rec = load_all()[index]
    vertices = sorted(rec.complex.vertices)
    relabel = dict(zip(vertices, perm[: len(vertices)]))
    original = CombinatorialMap.from_complex(rec.complex)
    shuffled = CombinatorialMap.from_triangles(
        tuple(tuple(relabel[v] for v in tri) for tri in rec.complex.triangles.values())
    )
    assert canonical_form(shuffled) == canonical_form(original)


def test_distinct_cases_have_distinct_forms(by_name):
    a = canonical_form(CombinatorialMap.from_complex(by_name["U_{0,5,6}"].complex))
    b = canonical_form(CombinatorialMap.from_complex(by_name["U_{0,5,7}"].complex))
    assert a != b


def test_embeddings_validate_and_round_trip():
    for map_ in enumerate_maps(6):
        pc = embed(map_)
        assert pc.validate().ok
        assert canonical_form(CombinatorialMap.from_complex(pc)) == canonical_form(
            map_
        )


def test_embedding_numbers_interior_lines(by_name):
    pc = embed(CombinatorialMap.from_complex(by_name["U_{0,4}"].complex))
    assert sorted(pc.line_numbering) == list(range(1, len(pc.line_numbering) + 1))
    assert set(pc.interior_lines()) == set(pc.line_numbering)


def test_guard_refuses_oversized_runs():
    with pytest.raises(EnumeratorError, match="guard"):
        enumerate_maps(9)
    assert enumeration_counts(8, guard=8)[:6] == (1, 1, 2, 5, 9, 28)


def test_state_budget_raises_with_partial_counts():
    with pytest.raises(ResourceBoundExceeded) as info:
        enumerate_maps(6, max_states=3)
    assert info.value.counts == (1, 1)


def test_builder_rejects_edge_shared_three_ways():
    with pytest.raises(EnumeratorError):
        CombinatorialMap.from_triangles([(1, 2, 3), (1, 2, 4), (1, 2, 5)])


def test_builder_rejects_disconnected_triangles():
    with pytest.raises(EnumeratorError):
        CombinatorialMap.from_triangles([(1, 2, 3), (4, 5, 6)])


def test_builder_rejects_pinched_vertex():
    with pytest.raises(EnumeratorError):
        CombinatorialMap.from_triangles([(1, 2, 3), (1, 4, 5)])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("num_triangles", sorted(GOLDEN_FORMS))
def test_canonical_forms_match_golden_digest(num_triangles):
    forms = "\n".join(
        ",".join(map(str, canonical_form(m))) for m in enumerate_maps(num_triangles)
    )
    assert digest(forms) == GOLDEN_FORMS[num_triangles]


@pytest.mark.parametrize("num_triangles", sorted(GOLDEN_EMBEDS))
def test_embeddings_match_golden_digest(num_triangles):
    dumps = "".join(embed(m).dumps() for m in enumerate_maps(num_triangles))
    assert digest(dumps) == GOLDEN_EMBEDS[num_triangles]


def assert_boundary_is_the_outer_cycle(map_):
    edge_count = Counter(
        frozenset(e) for tri in map_.triangles for e in combinations(tri, 2)
    )
    walk = map_.boundary
    assert len(set(walk)) == len(walk)
    walk_edges = [frozenset(e) for e in zip(walk, walk[1:] + walk[:1])]
    assert len(set(walk_edges)) == len(walk_edges)
    assert set(walk_edges) == {e for e, n in edge_count.items() if n == 1}


def test_boundary_walks_the_edges_of_one_triangle():
    for num_triangles in range(1, 8):
        for map_ in enumerate_maps(num_triangles):
            assert_boundary_is_the_outer_cycle(map_)


def test_catalog_boundaries_walk_the_edges_of_one_triangle(records):
    for rec in records:
        assert_boundary_is_the_outer_cycle(CombinatorialMap.from_complex(rec.complex))


def test_builder_rejects_closed_surface():
    with pytest.raises(EnumeratorError, match="no boundary"):
        CombinatorialMap.from_triangles([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def test_builder_rejects_annulus():
    # the octahedron on +-x = 1/2, +-y = 3/4, +-z = 5/6 without two opposite faces
    octahedron = product((1, 2), (3, 4), (5, 6))
    annulus = [t for t in octahedron if t not in {(1, 3, 5), (2, 4, 6)}]
    assert len(annulus) == 6
    with pytest.raises(EnumeratorError, match="one boundary cycle"):
        CombinatorialMap.from_triangles(annulus)
