"""Enumeration is checked against a slow oracle that never uses growth moves.

The oracle generates every triangle set over a bounded vertex ground set and
keeps the ones the map builder accepts, so any class the breadth-first grower
could silently orphan would show up as a count mismatch here.
"""

import hashlib
import json
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import degen.complexes
import degen.enumerator
from degen.catalog import open_catalog
from degen.pipeline import decide
from degen.relations import UnsupportedCaseError
from degen.enumerator import (
    CombinatorialMap,
    EnumeratorError,
    _Candidate,
    _as_built,
    _grow,
    canonical_form,
    embed,
    enumerate_maps,
)
from enumeration_helpers import enumeration_counts, match_catalog

MIRROR_PAIR = ("U_{0,5,1}", "U_{0,5,3}")

# First 16 hex digits of the SHA-256 of every class's canonical form, of
# every class's embedding, and of the singular points of every embedding, in
# enumeration order.
GOLDEN_FORMS = {
    6: "19133f7f85a46eab",
    7: "f545c4de63b8eb31",
    8: "b32ce4defc7013fd",
    10: "ed968c1a54eba9dd",
}
GOLDEN_EMBEDS = {6: "6d158afb46af2802", 7: "87835bdc2c2c39ee", 8: "9565ac0781b8fc04"}
GOLDEN_POINTS = {6: "00f3e68214b0c975", 7: "5b62086380341261", 8: "c5a662479fbb08c4"}
# The same for every embedding's lemmas-only verdict as JSON, or its refusal:
# it pins the coset counts the enumeration engine reaches on these disks.
GOLDEN_VERDICTS = {6: "e12182bab548294e", 7: "a155141519debbe5"}
GOLDEN_FORMS_NINE = "d491b888389237c4"
# The same for the repr of every representative at 9 triangles: its rings,
# walk and triangles, in enumeration order.
GOLDEN_MAPS_NINE = "ca99b2705ec9b38e"


def exhaustive_maps(num_triangles):
    """Every valid map on triangles over 1..k that use all k vertices.

    Found without growth moves.  A set with an edge in three or more
    triangles, or with V - E + F != 1, is no disk, so it is skipped before
    the map builder sees it.
    """
    for k in range(3, num_triangles + 3):
        triples = list(combinations(range(1, k + 1), 3))
        for chosen in combinations(triples, num_triangles):
            used = set()
            for tri in chosen:
                used.update(tri)
            if len(used) != k:
                continue
            edges = Counter(e for a, b, c in chosen for e in ((a, b), (a, c), (b, c)))
            if k - len(edges) + num_triangles != 1 or max(edges.values()) > 2:
                continue
            try:
                yield CombinatorialMap.from_triangles(chosen)
            except EnumeratorError:
                continue


def exhaustive_forms(num_triangles):
    """Canonical forms of every valid map, found without growth moves."""
    return {canonical_form(m) for m in exhaustive_maps(num_triangles)}


@pytest.mark.parametrize("num_triangles, expected", [(1, 1), (2, 1), (3, 2), (4, 5)])
def test_growth_agrees_with_exhaustive_oracle(num_triangles, expected):
    oracle = exhaustive_forms(num_triangles)
    grown = {canonical_form(m) for m in enumerate_maps(num_triangles)}
    assert grown == oracle
    assert len(grown) == expected


def test_growth_agrees_with_exhaustive_oracle_at_five():
    # the skipped sets are none that the builder accepts: it accepts 16 692
    maps = list(exhaustive_maps(5))
    assert len(maps) == 16692
    oracle = {canonical_form(m) for m in maps}
    grown = {canonical_form(m) for m in enumerate_maps(5)}
    assert grown == oracle
    assert len(grown) == 9


def test_level_counts():
    assert enumeration_counts(6) == (1, 1, 2, 5, 9, 28)


def test_catalog_closure_at_six_triangles(records):
    forms = {canonical_form(m) for m in enumerate_maps(6)}
    for rec in records:
        map_ = CombinatorialMap.from_triangles(rec.complex.triangles.values())
        assert canonical_form(map_) in forms, rec.name


def test_exactly_one_catalog_form_collision(records):
    by_form = {}
    for rec in records:
        map_ = CombinatorialMap.from_triangles(rec.complex.triangles.values())
        form = canonical_form(map_)
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
    rec = tuple(open_catalog())[index]
    vertices = sorted(rec.complex.vertices)
    relabel = dict(zip(vertices, perm[: len(vertices)]))
    original = CombinatorialMap.from_triangles(rec.complex.triangles.values())
    shuffled = CombinatorialMap.from_triangles(
        tuple(tuple(relabel[v] for v in tri) for tri in rec.complex.triangles.values())
    )
    assert canonical_form(shuffled) == canonical_form(original)


def test_distinct_cases_have_distinct_forms(by_name):
    a, b = (
        canonical_form(CombinatorialMap.from_triangles(by_name[name].complex.triangles.values()))
        for name in ("U_{0,5,6}", "U_{0,5,7}")
    )
    assert a != b


def test_embeddings_validate_and_round_trip():
    for map_ in enumerate_maps(6):
        pc = embed(map_)
        assert pc.validate().ok
        back = CombinatorialMap.from_triangles(pc.triangles.values())
        assert canonical_form(back) == canonical_form(map_)


def test_embedding_numbers_interior_lines(by_name):
    triangles = by_name["U_{0,4}"].complex.triangles.values()
    pc = embed(CombinatorialMap.from_triangles(triangles))
    assert sorted(pc.line_numbering) == list(range(1, len(pc.line_numbering) + 1))
    assert set(pc.interior_lines()) == set(pc.line_numbering)


def test_guard_refuses_oversized_runs():
    with pytest.raises(EnumeratorError, match="guard"):
        enumerate_maps(9)
    assert enumeration_counts(8, guard=8)[:6] == (1, 1, 2, 5, 9, 28)


def test_builder_rejects_edge_shared_three_ways():
    with pytest.raises(EnumeratorError):
        CombinatorialMap.from_triangles([(1, 2, 3), (1, 2, 4), (1, 2, 5)])


def test_builder_rejects_disconnected_triangles():
    with pytest.raises(EnumeratorError):
        CombinatorialMap.from_triangles([(1, 2, 3), (4, 5, 6)])


def test_builder_rejects_pinched_vertex():
    with pytest.raises(EnumeratorError):
        CombinatorialMap.from_triangles([(1, 2, 3), (1, 4, 5)])


def test_builder_rejects_no_triangles():
    with pytest.raises(EnumeratorError, match="no triangles"):
        CombinatorialMap.from_triangles([])


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("num_triangles", sorted(GOLDEN_FORMS))
def test_canonical_forms_match_golden_digest(num_triangles):
    forms = "\n".join(
        ",".join(map(str, canonical_form(m)))
        for m in enumerate_maps(num_triangles, guard=num_triangles)
    )
    assert digest(forms) == GOLDEN_FORMS[num_triangles]


@pytest.mark.parametrize("num_triangles", sorted(GOLDEN_EMBEDS))
def test_embeddings_match_golden_digest(num_triangles):
    dumps = "".join(embed(m).dumps() for m in enumerate_maps(num_triangles))
    assert digest(dumps) == GOLDEN_EMBEDS[num_triangles]


@pytest.mark.parametrize("num_triangles", sorted(GOLDEN_POINTS))
def test_singular_points_match_golden_digest(num_triangles):
    points = "\n".join(
        repr(
            [
                (p.vertex, p.kind, p.multiplicity, p.lines_cyclic)
                for p in embed(m).classify_vertices()
            ]
        )
        for m in enumerate_maps(num_triangles)
    )
    assert digest(points) == GOLDEN_POINTS[num_triangles]


def verdict_text(map_):
    try:
        return json.dumps(decide(embed(map_), use_hints=False).to_json(), sort_keys=True)
    except UnsupportedCaseError as exc:
        return f"refused: {exc}"


@pytest.mark.parametrize("num_triangles", sorted(GOLDEN_VERDICTS))
def test_lemmas_only_verdicts_match_golden_digest(num_triangles):
    verdicts = "\n".join(verdict_text(m) for m in enumerate_maps(num_triangles))
    assert digest(verdicts) == GOLDEN_VERDICTS[num_triangles]


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
        map_ = CombinatorialMap.from_triangles(rec.complex.triangles.values())
        assert_boundary_is_the_outer_cycle(map_)


def test_builder_rejects_closed_surface():
    with pytest.raises(EnumeratorError, match="no boundary"):
        CombinatorialMap.from_triangles([(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)])


def test_builder_rejects_annulus():
    # the octahedron on +-x = 1/2, +-y = 3/4, +-z = 5/6 without two opposite faces
    octahedron = product((1, 2), (3, 4), (5, 6))
    annulus = [t for t in octahedron if t not in {(1, 3, 5), (2, 4, 6)}]
    assert len(annulus) == 6
    with pytest.raises(EnumeratorError, match="boundary is not one cycle"):
        CombinatorialMap.from_triangles(annulus)


def test_canonical_forms_at_nine_match_golden_digest():
    forms = "\n".join(",".join(map(str, canonical_form(m))) for m in enumerate_maps(9, guard=9))
    assert digest(forms) == GOLDEN_FORMS_NINE


def test_representatives_at_nine_match_golden_digest():
    maps = "\n".join(repr(m) for m in enumerate_maps(9, guard=9))
    assert digest(maps) == GOLDEN_MAPS_NINE


def test_duplicate_candidates_build_no_map(monkeypatch):
    # a candidate becomes a map only when its class is new, and then only
    # its representative: one map per class kept, plus the seed
    built = 0

    class Counted(CombinatorialMap):
        def __new__(cls, *args, **kwargs):
            nonlocal built
            built += 1
            return super().__new__(cls, *args, **kwargs)

    monkeypatch.setattr(degen.enumerator, "CombinatorialMap", Counted)
    assert len(enumerate_maps(7)) == 73
    kept = 1 + 2 + 5 + 9 + 28 + 73
    assert built == 1 + kept


def test_enumeration_calls_canonical_form_once_per_candidate(monkeypatch):
    # perfbench's tracer counts `enumerator.candidates` as the calls to this
    # module-level name, so enumeration must call it once per candidate
    calls = 0

    def counted(map_):
        nonlocal calls
        calls += 1
        return canonical_form(map_)

    monkeypatch.setattr(degen.enumerator, "canonical_form", counted)
    assert len(enumerate_maps(7)) == 73
    assert calls == 1 + 3 + 6 + 11 + 43 + 85 + 307


def full_code(rot, root):
    """The rooted code at `root`, built in full."""
    u0, v0 = root
    label = {u0: 0, v0: 1}
    order = [u0, v0]
    anchor = {u0: v0, v0: u0}
    out = []
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


def unpruned_form(map_):
    """The least full code over every boundary dart of the map and of its mirror."""
    rot = map_.rotation_dict
    mirror = mirror_image(map_).rotation_dict
    b = map_.boundary
    darts = list(zip(b, b[1:] + b[:1]))
    return min(
        [full_code(rot, (u, v)) for u, v in darts]
        + [full_code(mirror, (v, u)) for u, v in darts]
    )


def candidates(up_to):
    """Every grown state and derived map that enumeration tests, up to `up_to` triangles.

    `_grow` yields each added triangle with only the rings and walk of the
    candidate; its full map is rebuilt here from the parent's triangles.
    """
    for n in range(1, up_to):
        for map_ in enumerate_maps(n):
            state = frozenset(map(frozenset, map_.triangles))
            for tri, candidate in _grow(map_):
                yield state | {frozenset(tri)}, CombinatorialMap(
                    rotations=tuple(candidate.rotation_dict.items()),
                    boundary=candidate.boundary,
                    triangles=tuple(sorted(map_.triangles + (tuple(sorted(tri)),))),
                )


def same_cycle(a, b):
    """Whether two sequences are one cycle, read from different starts."""
    return len(a) == len(b) and any(a == b[i:] + b[:i] for i in range(len(b)))


def same_rotation_system(a, b):
    """Whether two maps have the same rings and walk, up to where each starts."""
    rings = b.rotation_dict
    return (
        a.triangles == b.triangles
        and same_cycle(a.boundary, b.boundary)
        and a.rotation_dict.keys() == rings.keys()
        and all(same_cycle(ring, rings[v]) for v, ring in a.rotations)
    )


def mirror_image(map_):
    return CombinatorialMap(
        rotations=tuple((v, ring[::-1]) for v, ring in map_.rotations),
        boundary=map_.boundary[::-1],
        triangles=map_.triangles,
    )


def test_pruned_form_equals_unpruned_minimum(records):
    maps = [m for _state, m in candidates(8)]
    maps += [
        CombinatorialMap.from_triangles(rec.complex.triangles.values()) for rec in records
    ]
    assert len(maps) == 1336 + 29
    for map_ in maps:
        assert canonical_form(map_) == unpruned_form(map_)


def test_ear_rooted_codes_start_with_the_head_degree():
    # an ear u, between p and s on the walk, read from (u, s) or, mirrored,
    # from (u, p) begins 1, 2, -1, 0, 2, 3, ..., k, -1 with k = deg s or deg p
    eared = 0
    for _state, map_ in candidates(8):
        rot = map_.rotation_dict
        mirror = mirror_image(map_).rotation_dict
        b = map_.boundary
        eared += any(len(rot[u]) == 2 for u in b)
        for i, u in enumerate(b):
            if len(rot[u]) != 2:
                continue
            for rings, head in ((rot, b[(i + 1) % len(b)]), (mirror, b[i - 1])):
                k = len(rot[head])
                code = full_code(rings, (u, head))
                assert code[: k + 4] == (1, 2, -1, 0, 2, *range(3, k + 1), -1), map_
    # the other 119 candidates have no ear
    assert eared == 1336 - 119


def test_derived_candidates_are_the_maps_of_their_states():
    # either map may be the mirror image of the other: orientation is arbitrary
    for grown, derived in candidates(8):
        built = CombinatorialMap.from_triangles(grown)
        assert same_rotation_system(derived, built) or same_rotation_system(
            derived, mirror_image(built)
        ), grown
        assert canonical_form(derived) == canonical_form(built)


def assert_built_from(map_, state):
    """`map_` has the walk and triangles of `from_triangles(state)`, and its rings as cycles."""
    built = CombinatorialMap.from_triangles(state)
    assert map_.boundary == built.boundary, state
    assert map_.triangles == built.triangles, state
    rings = built.rotation_dict
    assert [v for v, _ring in map_.rotations] == sorted(rings), state
    assert all(same_cycle(ring, rings[v]) for v, ring in map_.rotations), state


def test_representatives_are_the_maps_their_states_build(monkeypatch):
    states = {}

    def recorded(state, candidate, triangles):
        states[triangles] = state
        return _as_built(state, candidate, triangles)

    monkeypatch.setattr(degen.enumerator, "_as_built", recorded)
    for num_triangles in range(2, 9):
        for map_ in enumerate_maps(num_triangles):
            assert_built_from(map_, states[map_.triangles])


def test_winding_is_read_where_a_ring_has_three_entries():
    # vertex 1, the least of the first triangle, has the ring (2, 3), which
    # reads both ways; the mirror image must still be turned back
    state = [(1, 2, 3), (2, 3, 4)]
    built = CombinatorialMap.from_triangles(state)
    assert len(built.rotation_dict[1]) == 2
    mirrored = mirror_image(built)
    started_elsewhere = CombinatorialMap(
        rotations=mirrored.rotations[::-1],
        boundary=mirrored.boundary[1:] + mirrored.boundary[:1],
        triangles=mirrored.triangles,
    )
    for derived in (built, mirrored, started_elsewhere):
        candidate = _Candidate(derived.rotation_dict, derived.boundary)
        assert_built_from(_as_built(state, candidate, derived.triangles), state)


def test_embed_orients_each_complex_once(monkeypatch):
    # the class check reads the orientation validate certified
    maps = enumerate_maps(6)
    calls = 0
    orient_disk = degen.complexes.orient_disk

    def counted(*args):
        nonlocal calls
        calls += 1
        return orient_disk(*args)

    monkeypatch.setattr(degen.complexes, "orient_disk", counted)
    monkeypatch.setattr(degen.enumerator, "orient_disk", counted)
    for map_ in maps:
        embed(map_)
    assert calls == len(maps) == 28


def test_embed_class_check_sees_a_walk_that_runs_with_the_planes(monkeypatch):
    # the check is live: with a walk that runs with the planes instead of
    # against them, no six-triangle disk reads as its own class
    maps = enumerate_maps(6)
    monkeypatch.setattr(degen.enumerator, "_map_walk", lambda oriented, walk: walk)
    for map_ in maps:
        with pytest.raises(EnumeratorError, match="changed the isomorphism class"):
            embed(map_)
