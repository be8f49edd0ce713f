import math

import pytest
from hypothesis import given, strategies as st

from degen.fpgroup import (
    Completed,
    EnumerationError,
    Overflow,
    first_broken_relator,
    kernel_abelianization,
    line_transpositions,
    smith_normal_form,
    todd_coxeter,
    transposition_images,
)
from degen.relations import Presentation, reduced_presentation, word


def coxeter_symmetric(n):
    """Presentation of the symmetric group S_n on adjacent transpositions."""
    gens = tuple(range(1, n))
    relators = []
    annotations = []
    for i in gens:
        relators.append(word(i, i))
        annotations.append("involution")
    for i in gens:
        for j in gens:
            if i >= j:
                continue
            if j == i + 1:
                relators.append(word(i, j, i, j, i, j))
                annotations.append("triple")
            else:
                relators.append(word(i, j, i, j))
                annotations.append("commutator")
    return Presentation(gens, tuple(relators), tuple(annotations))


def completed_order(out):
    """The order of a closed table, whose live cosets are exactly its rows."""
    assert isinstance(out, Completed)
    assert out.stats.live_cosets == out.order
    assert out.stats.cosets_defined == out.order + out.stats.coincidences
    return out.order


@pytest.mark.parametrize("n", range(3, 8))
def test_coxeter_symmetric_group_order(n):
    assert completed_order(todd_coxeter(coxeter_symmetric(n))) == math.factorial(n)


def reorder(presentation, order):
    """The presentation with its relators as written or reversed."""
    if order == "relator-first":
        return presentation
    return Presentation(
        presentation.generators,
        presentation.relators[::-1],
        presentation.annotations[::-1],
    )


# The ids are the names of the two strategies these cases once ran under.
# Each now names a relator order for the one engine: as written (squares
# first), or reversed, so the long braid relators are scanned first and
# coincidences come sooner.  Neither order may change the group.
RELATOR_ORDERS = ("relator-first", "coincidence-first")


@pytest.mark.parametrize("order", RELATOR_ORDERS)
def test_symmetric_group_three(order):
    out = todd_coxeter(reorder(coxeter_symmetric(3), order))
    assert completed_order(out) == 6


@pytest.mark.parametrize("order", RELATOR_ORDERS)
def test_symmetric_group_six(order):
    out = todd_coxeter(reorder(coxeter_symmetric(6), order))
    assert completed_order(out) == 720
    assert out.stats.live_cosets == 720
    assert out.stats.coincidences > 0


def test_cyclic_group_of_order_five():
    cyclic = Presentation((1,), (word(1, 1, 1, 1, 1),), ("power",))
    assert completed_order(todd_coxeter(cyclic)) == 5


def test_mixed_involutory_and_two_column_generators():
    s3 = Presentation(
        (1, 2),
        (word(1, 1, 1), word(2, 2), word(1, 2, 1, 2)),
        ("power", "involution", "dihedral"),
    )
    assert completed_order(todd_coxeter(s3)) == 6
    assert completed_order(todd_coxeter(s3, subgroup=(word(2),))) == 3


def test_inverse_involution_relator_also_shares_a_column():
    braid = word(1, 2, 1, 2, 1, 2)
    squares = Presentation((1, 2), (word(1, 1), word(2, 2), braid), ("", "", ""))
    inverse = Presentation((1, 2), (word(-1, -1), word(2, 2), braid), ("", "", ""))
    out = todd_coxeter(inverse)
    assert completed_order(out) == 6
    assert out.stats == todd_coxeter(squares).stats


def test_cosets_relative_to_subgroup():
    out = todd_coxeter(coxeter_symmetric(6), subgroup=(word(1),))
    assert completed_order(out) == 360


def test_overflow_reports_limit_and_stats():
    out = todd_coxeter(coxeter_symmetric(6), max_cosets=50)
    assert isinstance(out, Overflow)
    assert out.limit == 50
    assert out.stats.cosets_defined <= 50
    assert 0 < out.stats.live_cosets <= out.stats.cosets_defined


def test_budget_counts_every_coset_defined():
    full = todd_coxeter(coxeter_symmetric(5))
    needed = full.stats.cosets_defined
    assert needed > completed_order(full)
    assert completed_order(todd_coxeter(coxeter_symmetric(5), max_cosets=needed)) == 120
    short = todd_coxeter(coxeter_symmetric(5), max_cosets=needed - 1)
    assert isinstance(short, Overflow)
    assert short.stats.cosets_defined == needed - 1


def test_generator_outside_alphabet_rejected():
    bad = Presentation((1, 2), (word(3, 3),), ("involution",))
    with pytest.raises(EnumerationError):
        todd_coxeter(bad)


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
        images = transposition_images(line_transpositions(rec.complex), degree=6)
        ka = kernel_abelianization(pres, images, degree=6)
        order = completed_order(todd_coxeter(pres))
        assert order == ka.index, rec.name
        if ka.is_trivial:
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
    free = Presentation((1, 2), (), ())
    flip = {1: (2, 1), 2: (2, 1)}
    ka = kernel_abelianization(free, flip, degree=2)
    assert (ka.index, ka.rank, ka.torsion) == (2, 3, ())


def test_kernel_of_cyclic_four_onto_order_two():
    z4 = Presentation((1,), (word(1, 1, 1, 1),), ("power",))
    ka = kernel_abelianization(z4, {1: (2, 1)}, degree=2)
    assert (ka.index, ka.rank, ka.torsion) == (2, 0, (2,))


def test_kernel_of_cyclic_three_onto_itself():
    z3 = Presentation((1,), (word(1, 1, 1),), ("power",))
    ka = kernel_abelianization(z3, {1: (2, 3, 1)}, degree=3)
    assert (ka.index, ka.rank, ka.torsion) == (3, 0, ())


def test_kernel_of_free_group_onto_symmetric_three():
    free = Presentation((1, 2), (), ())
    ka = kernel_abelianization(free, {1: (2, 3, 1), 2: (2, 1, 3)}, degree=3)
    assert (ka.index, ka.rank, ka.torsion) == (6, 7, ())


def test_kernel_vanishes_for_a_trivial_case(by_name):
    rec = by_name["U_{0,4}"]
    pres = reduced_presentation(rec.complex)
    images = transposition_images(line_transpositions(rec.complex), degree=6)
    ka = kernel_abelianization(pres, images, degree=6)
    assert (ka.index, ka.rank, ka.torsion) == (720, 0, ())


def test_kernel_has_positive_rank_for_a_nontrivial_case(by_name):
    rec = by_name["U_{0,5,1}"]
    pres = reduced_presentation(rec.complex)
    images = transposition_images(line_transpositions(rec.complex), degree=6)
    ka = kernel_abelianization(pres, images, degree=6)
    assert ka.index == 720
    assert ka.rank >= 1


def test_relators_hold_detects_violation():
    pres = Presentation((1,), (word(1, 1),), ("involution",))
    assert first_broken_relator(pres, {1: (2, 1, 3)}, degree=3) is None
    assert first_broken_relator(pres, {1: (2, 3, 1)}, degree=3) == 0


def test_line_images_are_transpositions(by_name):
    pc = by_name["U_{0,6,1}"].complex
    transpositions = line_transpositions(pc)
    images = transposition_images(transpositions, degree=6)
    assert set(images) == set(transpositions) == set(pc.line_numbering)
    for perm in images.values():
        moved = [i for i, v in enumerate(perm, start=1) if v != i]
        assert len(moved) == 2
