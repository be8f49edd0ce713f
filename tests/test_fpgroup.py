import math

import pytest
from hypothesis import given, strategies as st

import degen.fpgroup
from degen.enumerator import embed, enumerate_maps
from degen.fpgroup import (
    EnumerationError,
    _hlt,
    _letters,
    first_broken_relator,
    todd_coxeter,
)
from degen.pipeline import _coxeter_chain
from degen.relations import (
    Presentation,
    UnsupportedCaseError,
    reduced_presentation,
    word,
)
from kernel_oracle import (
    Relators,
    kernel_abelianization,
    line_transpositions,
    smith_normal_form,
)


def coxeter_symmetric(n):
    """Presentation of the symmetric group S_n on adjacent transpositions."""
    gens = tuple(range(1, n))
    return Presentation(gens, tuple((i, i + 1) for i in gens[:-1]), ())


def completed_order(out):
    """The order of a closed table, whose live cosets are exactly its rows."""
    assert out.completed
    assert out.cosets_defined == out.live_cosets + out.coincidences
    return out.live_cosets


@pytest.mark.parametrize("n", range(3, 8))
def test_coxeter_symmetric_group_order(n):
    assert completed_order(todd_coxeter(coxeter_symmetric(n))) == math.factorial(n)


def reorder(presentation, order):
    """The presentation with its tangent pairs as listed or reversed."""
    if order == "relator-first":
        return presentation
    return presentation._replace(tangent=presentation.tangent[::-1])


# The ids are the names of the two strategies these cases once ran under.
# Each now names an order of the tangent pairs, and so of the braid relators
# the engine scans: as listed, or reversed.  Neither order may change the
# group.
RELATOR_ORDERS = ("relator-first", "coincidence-first")


@pytest.mark.parametrize("order", RELATOR_ORDERS)
def test_symmetric_group_three(order):
    out = todd_coxeter(reorder(coxeter_symmetric(3), order))
    assert completed_order(out) == 6


@pytest.mark.parametrize("order", RELATOR_ORDERS)
def test_symmetric_group_six(order):
    out = todd_coxeter(reorder(coxeter_symmetric(6), order))
    assert completed_order(out) == 720
    assert out.live_cosets == 720
    assert out.coincidences > 0


def test_cosets_relative_to_subgroup():
    out = todd_coxeter(coxeter_symmetric(6), subgroup=(word(1),))
    assert completed_order(out) == 360


def test_overflow_reports_limit_and_stats():
    out = todd_coxeter(coxeter_symmetric(6), max_cosets=50)
    assert not out.completed
    assert out.cosets_defined == 50
    assert 0 < out.live_cosets <= out.cosets_defined


def test_budget_counts_every_coset_defined():
    full = todd_coxeter(coxeter_symmetric(5))
    needed = full.cosets_defined
    assert needed > completed_order(full)
    assert completed_order(todd_coxeter(coxeter_symmetric(5), max_cosets=needed)) == 120
    short = todd_coxeter(coxeter_symmetric(5), max_cosets=needed - 1)
    assert not short.completed
    assert short.cosets_defined == needed - 1


def test_generator_outside_alphabet_rejected():
    """A generator out of range is named, in a tangent pair, a word or the subgroup."""
    for pres, subgroup in (
        (Presentation((1, 2), ((2, 3),), ()), ()),
        (Presentation((1, 2), ((1, 2),), (word(3, 3),)), ()),
        (coxeter_symmetric(3), (word(3),)),
    ):
        with pytest.raises(EnumerationError, match="generator 3 is not in the presentation"):
            todd_coxeter(pres, subgroup)


def test_squares_are_proved_and_never_encoded(monkeypatch):
    """Only the inner-point words and the subgroup go through `_letters`;
    the squares and the pair relators are columns by construction."""
    pres = coxeter_symmetric(5)._replace(words=(word(1, 3, -1, -3),))
    expected = todd_coxeter(pres, [word(2)])
    encoded = []

    def counted(w, ngens):
        encoded.append(w)
        return _letters(w, ngens)

    monkeypatch.setattr(degen.fpgroup, "_letters", counted)
    assert todd_coxeter(pres, [word(2)]) == expected
    assert encoded == [word(1, 3, -1, -3), word(2)]


def reference_enumeration(presentation, subgroup, max_cosets):
    """The HLT engine run over every relator `Presentation.relators` spells
    out, each encoded by `_letters` (an involution reduces to nothing and is
    dropped): the reference for `todd_coxeter`, which builds the pair columns
    without letters."""
    ngens = len(presentation.generators)
    relators = [w for w in (_letters(r, ngens) for r in presentation.relators) if w]
    subgroup = [w for w in (_letters(v, ngens) for v in subgroup) if w]
    return _hlt(ngens, relators, subgroup, max_cosets)


def test_coxeter_columns_match_the_spelled_out_relators(records):
    """On the 29 catalog cases and the seven-triangle disks whose presentation
    builds, `todd_coxeter` counts exactly what the spelled-out relators give,
    over the chain subgroup `decide` picks and, on the catalog, over the
    trivial one.  The budget of 5000 cosets closes every table of order 720
    and stops the infinite ones, so overflows are compared too."""
    runs = []
    for rec in records:
        pres = reduced_presentation(
            rec.complex, inner6_relators=rec.extra_inner_relators or None
        )
        runs += [(pres, _coxeter_chain(rec.complex.line_planes())), (pres, ())]
    disks = [embed(m) for m in enumerate_maps(7)]
    assert len(disks) == 73
    for pc in disks:
        try:
            runs.append((reduced_presentation(pc), _coxeter_chain(pc.line_planes())))
        except UnsupportedCaseError:  # an inner 7-point
            continue
    assert len(runs) == 2 * 29 + 70
    outcomes = set()
    for k, (pres, chain) in enumerate(runs):
        subgroup = [word(l) for l in chain]
        out = todd_coxeter(pres, subgroup, max_cosets=5000)
        assert out == reference_enumeration(pres, subgroup, 5000), k
        outcomes.add(out.completed)
    assert outcomes == {True, False}


def test_nonpositive_coset_limit_rejected():
    with pytest.raises(EnumerationError):
        todd_coxeter(coxeter_symmetric(3), max_cosets=0)


def test_orders_match_kernel_index_on_catalog_cases(records):
    """The kernel's index comes from a BFS over permutations, not from TC."""
    for rec in records[:3]:
        if rec.expected.pi1 != "trivial":
            continue
        pres = reduced_presentation(
            rec.complex, inner6_relators=rec.extra_inner_relators or None
        )
        ka = kernel_abelianization(pres, line_transpositions(rec.complex), degree=6)
        order = completed_order(todd_coxeter(pres))
        assert order == ka.index, rec.name
        if (ka.rank, ka.torsion) == (0, ()):
            assert order == 720, rec.name


def test_smith_normal_form_oracles():
    assert smith_normal_form([[2, 0], [0, 3]]) == (1, 6)
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == (2, 2, 156)
    assert smith_normal_form([[2, 4], [1, 2]]) == (1,)
    assert smith_normal_form([[0, 0], [0, 0]]) == ()
    assert smith_normal_form([]) == ()


small_matrices = st.lists(
    st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
    min_size=3,
    max_size=3,
)


@given(small_matrices)
def test_smith_factors_form_divisibility_chain(matrix):
    factors = smith_normal_form(matrix)
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))


@given(
    small_matrices,
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=-3, max_value=3),
)
def test_smith_invariant_under_row_operation(matrix, i, j, k):
    before = smith_normal_form(matrix)
    sheared = [list(row) for row in matrix]
    if i != j:
        sheared[i] = [a + k * b for a, b in zip(sheared[i], sheared[j])]
    assert smith_normal_form(sheared) == before


def test_kernel_of_free_group_onto_order_two():
    free = Relators((1, 2), ())
    flip = {1: (1, 2), 2: (1, 2)}
    ka = kernel_abelianization(free, flip, degree=2)
    assert (ka.index, ka.rank, ka.torsion) == (2, 3, ())


def test_kernel_of_cyclic_four_onto_order_two():
    z4 = Relators((1,), (word(1, 1, 1, 1),))
    ka = kernel_abelianization(z4, {1: (1, 2)}, degree=2)
    assert (ka.index, ka.rank, ka.torsion) == (2, 0, (2,))


def test_kernel_of_free_group_onto_symmetric_three():
    free = Relators((1, 2), ())
    ka = kernel_abelianization(free, {1: (1, 2), 2: (2, 3)}, degree=3)
    assert (ka.index, ka.rank, ka.torsion) == (6, 7, ())


@pytest.mark.parametrize("pair", [(1, 1), (1, 4)])
def test_kernel_needs_two_distinct_planes_in_range(pair):
    free = Relators((1, 2), ())
    with pytest.raises(EnumerationError, match="generator 2 "):
        kernel_abelianization(free, {1: (1, 2), 2: pair}, degree=3)


def test_kernel_vanishes_for_a_trivial_case(by_name):
    rec = by_name["U_{0,4}"]
    pres = reduced_presentation(rec.complex)
    ka = kernel_abelianization(pres, line_transpositions(rec.complex), degree=6)
    assert (ka.index, ka.rank, ka.torsion) == (720, 0, ())


def test_kernel_has_positive_rank_for_a_nontrivial_case(by_name):
    rec = by_name["U_{0,5,1}"]
    pres = reduced_presentation(rec.complex)
    ka = kernel_abelianization(pres, line_transpositions(rec.complex), degree=6)
    assert ka.index == 720
    assert ka.rank >= 1


def test_relators_hold_detects_violation():
    assert first_broken_relator((word(1, 1),), {1: (1, 2)}) is None
    assert first_broken_relator((word(1, 1), word(1, 2)), {1: (1, 2), 2: (2, 3)}) == 1


def test_line_images_are_transpositions(by_name):
    pc = by_name["U_{0,6,1}"].complex
    transpositions = line_transpositions(pc)
    assert list(transpositions) == sorted(pc.line_numbering)
    rank = {p: k for k, p in enumerate(sorted(pc.triangles), 1)}
    for line, (p, q) in pc.line_planes().items():
        a, b = transpositions[line]
        assert 1 <= a < b <= 6
        assert (a, b) == (rank[p], rank[q])


def reference_first_broken_relator(presentation, transpositions, degree):
    """The symmetric-image check by composing one-line permutations: each
    generator becomes a permutation of 0..degree-1 and its inverse table, and
    each relator's image is composed letter by letter."""
    tables = {}
    for g, (a, b) in transpositions.items():
        fwd = list(range(degree))
        fwd[a - 1], fwd[b - 1] = fwd[b - 1], fwd[a - 1]
        tables[g] = (fwd, sorted(range(degree), key=fwd.__getitem__))
    identity = list(range(degree))
    for k, w in enumerate(presentation.relators):
        perm = identity
        for g, e in w:
            img = tables[g][e < 0]
            for _ in range(abs(e)):
                perm = [img[v] for v in perm]
        if perm != identity:
            return k
    return None


def test_swapping_agrees_with_permutation_composition(small_complexes):
    """On the catalog and every disk of up to 8 triangles whose presentation
    builds, tracing relators by swaps finds the same first broken relator as
    composing permutations; 64 of those line numberings break one."""
    checked = broken = 0
    for k, pc in enumerate(small_complexes):
        try:
            pres = reduced_presentation(pc)
        except UnsupportedCaseError:
            continue
        transpositions = line_transpositions(pc)
        found = first_broken_relator(pres.relators, transpositions)
        assert found == reference_first_broken_relator(
            pres, transpositions, len(pc.triangles)
        ), k
        checked += 1
        broken += found is not None
    assert (checked, broken) == (373, 64)
