import pytest
from hypothesis import given, strategies as st

from degen.fpgroup import (
    first_broken_relator,
    line_transpositions,
    transposition_images,
)
from degen.relations import (
    Presentation,
    UnsupportedCaseError,
    commutator_relator,
    fork_triples,
    free_reduce,
    inner_point_relators,
    inverse,
    involution_relator,
    presentation_json,
    presentation_text,
    reduced_presentation,
    tangent_pairs,
    transversal_pairs,
    triple_relator,
    word,
    word_from_json,
    word_text,
)

letters = st.integers(min_value=1, max_value=5).flatmap(
    lambda g: st.sampled_from([g, -g])
)
words = st.lists(letters, max_size=12).map(lambda ls: word(*ls))


@given(words)
def test_free_reduce_kills_inverse_product(w):
    assert free_reduce(w + inverse(w)) == ()


@given(words)
def test_inverse_is_involutive(w):
    assert inverse(inverse(w)) == w


@given(words)
def test_free_reduce_is_idempotent(w):
    assert free_reduce(free_reduce(w)) == free_reduce(w)


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


def test_printed_relations_match_computed_ones(records):
    """The stored triples, commutators, inner relations and forks, as sets.

    An inner relation ``lhs = rhs`` is read as ``lhs rhs^-1``; the printed
    k=3 relations are the inverses of the computed relators, the k=4 and k=5
    ones are the computed relators as written.
    """
    assert len(records) == 29
    for rec in records:
        exp = rec.expected
        points = rec.complex.classify_vertices()
        tangent = tangent_pairs(points)
        if exp.triples is not None:
            assert set(exp.triples) == set(tangent), rec.name
        if exp.commutators is not None:
            commuting = set(transversal_pairs(points)) | set(
                rec.complex.disjoint_line_pairs()
            )
            assert set(exp.commutators) == commuting, rec.name
        if exp.inner_relators is not None:
            multiplicity = {p.vertex: p.multiplicity for p in points}
            computed = inner_point_relators(points)
            printed = [
                free_reduce(word(*lhs) + inverse(word(*rhs)))
                for lhs, rhs in exp.inner_relators
            ]
            assert len(printed) == len(computed), rec.name
            assert set(printed) == {
                inverse(rel) if multiplicity[v] == 3 else rel for rel, v in computed
            }, rec.name
        if exp.forks is not None:
            forks = set(fork_triples(tangent, points))
            if exp.forks_complete:
                assert set(exp.forks) == forks, rec.name
            else:
                assert set(exp.forks) <= forks, rec.name


def test_u33_prints_one_of_its_two_forks(by_name):
    rec = by_name["U_{3,3}"]
    points = rec.complex.classify_vertices()
    assert not rec.expected.forks_complete
    assert len(rec.expected.forks) == 1
    assert len(fork_triples(tangent_pairs(points), points)) == 2


def test_all_relators_die_in_symmetric_group(records):
    for rec in records:
        pc = rec.complex
        pres = reduced_presentation(
            pc, include_forks=True,
            inner6_relators=rec.extra_inner_relators or None,
        )
        images = transposition_images(line_transpositions(pc), degree=6)
        assert first_broken_relator(pres, images, degree=6) is None, rec.name


def test_inner_six_point_needs_catalogue_relators(by_name):
    with pytest.raises(UnsupportedCaseError):
        reduced_presentation(by_name["U_6"].complex)


def test_presentation_text_format(by_name):
    text = presentation_text(reduced_presentation(by_name["U_{0,6,1}"].complex))
    lines = text.splitlines()
    assert lines[0] == "generators: g1 g2 g3 g4 g5"
    assert "# involution" in lines
    assert "g1 g2 g1 g2^-1 g1^-1 g2^-1" in lines


def test_presentation_json_round_trip(by_name):
    pres = reduced_presentation(by_name["U_{0,5,1}"].complex, include_forks=True)
    data = presentation_json(pres)
    assert data["format"] == "degen-presentation/1"
    back = Presentation(
        generators=tuple(data["generators"]),
        relators=tuple(word_from_json(r["word"]) for r in data["relators"]),
        annotations=tuple(r["annotation"] for r in data["relators"]),
    )
    assert back == pres


def test_word_text_uses_caret_inverses():
    assert word_text(word(1, -2, 3)) == "g1 g2^-1 g3"


def test_fork_inclusion_only_appends(records):
    for rec in records:
        extra = rec.extra_inner_relators or None
        plain = reduced_presentation(rec.complex, inner6_relators=extra)
        forked = reduced_presentation(
            rec.complex, include_forks=True, inner6_relators=extra
        )
        assert forked.relators[: len(plain.relators)] == plain.relators
        n_forks = len(forked.relators) - len(plain.relators)
        assert n_forks == forked.counts().get("fork", 0)
