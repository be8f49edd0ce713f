import pytest

from degen.fpgroup import first_broken_relator
from degen.relations import (
    Presentation,
    UnsupportedCaseError,
    commutator_relator,
    inner_point_relators,
    involution_relator,
    presentation_json,
    presentation_text,
    reduced_presentation,
    tangent_pairs,
    triple_relator,
    word,
    word_from_json,
    word_text,
)
from rotation_oracles import concurrency_fork_triples, rotation_tangent_pairs


def inverse(w):
    """The word ``w`` read backwards with every letter inverted."""
    return tuple((g, -e) for g, e in reversed(w))


def test_relator_shapes():
    assert involution_relator(3) == word(3, 3)
    assert triple_relator(1, 2) == word(1, 2, 1, -2, -1, -2)
    assert commutator_relator(4, 6) == word(4, 6, -4, -6)


def test_reduced_presentation_counts_example(by_name):
    pres = reduced_presentation(by_name["U_{0,6,1}"].complex)
    assert pres.generators == (1, 2, 3, 4, 5)
    assert pres.counts() == {"involution": 5, "triple": 4, "commutator": 6}


def test_presentation_counts_match_catalog(records):
    for rec in records:
        pres = reduced_presentation(
            rec.complex, inner6_relators=rec.extra_inner_relators or None
        )
        counts = pres.counts()
        exp = rec.expected
        assert counts["involution"] == len(pres.generators)
        if exp.triples is not None:
            assert counts.get("triple", 0) == len(exp.triples), rec.name
        if exp.commutators is not None:
            assert counts.get("commutator", 0) == len(exp.commutators), rec.name
            assert set(exp.parasitic) <= set(exp.commutators), rec.name


def tagged_pairs(pres, tag):
    """The line pair of each relator tagged `tag`: its first two letters."""
    return {
        (rel[0][0], rel[1][0]) for rel, t in zip(pres.relators, pres.annotations) if t == tag
    }


def test_printed_relations_match_computed_ones(records):
    """The stored triples, commutators, inner relations and forks, as sets.

    Triples and commutators are checked against the relators that
    `reduced_presentation` builds.  An inner relation ``lhs = rhs`` is read
    as ``lhs rhs^-1``; the printed k=3 relations are the inverses of the
    computed relators, the k=4 and k=5 ones are the computed relators as
    written.
    """
    assert len(records) == 29
    for rec in records:
        exp = rec.expected
        points = rec.complex.classify_vertices()
        pres = reduced_presentation(
            rec.complex, inner6_relators=rec.extra_inner_relators or None
        )
        if exp.triples is not None:
            assert set(exp.triples) == tagged_pairs(pres, "triple"), rec.name
        if exp.commutators is not None:
            assert set(exp.commutators) == tagged_pairs(pres, "commutator"), rec.name
        if exp.inner_relators is not None:
            multiplicity = {p.vertex: p.multiplicity for p in points}
            computed = inner_point_relators(points)
            printed = [word(*lhs) + inverse(word(*rhs)) for lhs, rhs in exp.inner_relators]
            assert len(printed) == len(computed), rec.name
            assert set(printed) == {
                inverse(rel) if multiplicity[v] == 3 else rel for rel, v in computed
            }, rec.name
        if exp.forks is not None:
            forks = {ls for ls in rec.complex.plane_lines().values() if len(ls) == 3}
            if exp.forks_complete:
                assert set(exp.forks) == forks, rec.name
            else:
                assert set(exp.forks) <= forks, rec.name


def test_u33_prints_one_of_its_two_forks(by_name):
    rec = by_name["U_{3,3}"]
    assert not rec.expected.forks_complete
    assert len(rec.expected.forks) == 1
    assert sum(len(ls) == 3 for ls in rec.complex.plane_lines().values()) == 2


def test_plane_rules_match_rotation_oracles(small_complexes):
    """Tangent pairs and fork triples read off the planes equal the rotation
    adjacency and the concurrency search, on the catalog and every disk of
    up to 8 triangles."""
    assert len(small_complexes) == 392
    fork_disks = 0
    for k, pc in enumerate(small_complexes):
        points = pc.classify_vertices()
        oracle = rotation_tangent_pairs(points)
        assert tangent_pairs(pc) == oracle, k
        forks = tuple(sorted(ls for ls in pc.plane_lines().values() if len(ls) == 3))
        assert forks == concurrency_fork_triples(oracle, points), k
        fork_disks += bool(forks)
    assert fork_disks == 335


def test_all_relators_die_in_symmetric_group(records):
    for rec in records:
        pc = rec.complex
        pres = reduced_presentation(
            pc, inner6_relators=rec.extra_inner_relators or None,
        )
        assert first_broken_relator(pres.relators, pc.line_planes()) is None, rec.name


def test_inner_six_point_needs_catalogue_relators(by_name):
    with pytest.raises(UnsupportedCaseError):
        reduced_presentation(by_name["U_6"].complex)
    with pytest.raises(UnsupportedCaseError, match="inner 6-point at vertex"):
        reduced_presentation(by_name["U_6"].complex, inner6_relators=())


def test_presentation_text_format(by_name):
    text = presentation_text(reduced_presentation(by_name["U_{0,6,1}"].complex))
    lines = text.splitlines()
    assert lines[0] == "generators: g1 g2 g3 g4 g5"
    assert "# involution" in lines
    assert "g1 g2 g1 g2^-1 g1^-1 g2^-1" in lines


def test_presentation_json_round_trip(by_name):
    """The JSON spells out every relator with its tag; the tangent pairs and
    the inner-point words read back from it rebuild the presentation."""
    for name in ("U_{0,5,1}", "U_{3,2}"):
        pres = reduced_presentation(by_name[name].complex)
        data = presentation_json(pres)
        assert data["format"] == "degen-presentation/1"
        relators = [(word_from_json(r["word"]), r["annotation"]) for r in data["relators"]]
        back = Presentation(
            generators=tuple(data["generators"]),
            tangent=tuple((w[0][0], w[1][0]) for w, tag in relators if tag == "triple"),
            words=tuple(w for w, tag in relators if tag == "inner-point"),
        )
        assert back == pres, name
        assert relators == list(zip(back.relators, back.annotations)), name


def test_word_text_uses_caret_inverses():
    assert word_text(word(1, -2, 3)) == "g1 g2^-1 g3"
