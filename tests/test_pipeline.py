import random
from itertools import combinations
from math import factorial

import pytest

from degen.catalog import CaseHint
from degen.complexes import ComplexError, PlanarComplex
from degen.enumerator import embed, enumerate_maps
from degen.fpgroup import (
    EnumerationStats,
    first_broken_relator,
    todd_coxeter,
)
from degen.pipeline import (
    PipelineError,
    Verdict,
    _coxeter_chain,
    decide,
    enumeration_verdict,
    fork_certificate,
    propagate_equalities,
)
from degen.relations import (
    Presentation,
    UnsupportedCaseError,
    reduced_presentation,
    tangent_pairs,
    word,
)
from kernel_oracle import kernel_abelianization, line_transpositions
from rotation_oracles import dfs_fork_certificate

NONTRIVIAL = frozenset(
    {
        "U_{0,5,1}",
        "U_{0,5,2}",
        "U_{0,5,3}",
        "U_{0,5,4}",
        "U_{0,5,5}",
        "U_{0,6,2}",
        "U_{0,6,3}",
        "U_{3,5}",
    }
)

UNDECIDED_WITHOUT_HINTS = frozenset(
    {
        "U_{3,1}",
        "U_{4,1}",
        "U_{4,2}",
        "U_{4,3}",
        "U_{4∪3,2}",
        "U_{4∪4}",
        "U_5",
        "U_{5∪3}",
    }
)


def test_decisions_match_catalog_with_hints(records):
    for rec in records:
        verdict = decide(rec)
        assert verdict.outcome == rec.expected.pi1, rec.name


def test_expected_outcome_partition(records):
    names = {r.name for r in records}
    nontrivial = {r.name for r in records if r.expected.pi1 == "nontrivial"}
    undecided = {r.name for r in records if r.expected.pi1 == "undecided"}
    assert nontrivial == NONTRIVIAL
    assert undecided == {"U_{4,2}"}
    assert len(names - nontrivial - undecided) == 20


def test_no_hints_never_contradicts(records):
    undecided = set()
    for rec in records:
        verdict = decide(rec, use_hints=False)
        if verdict.outcome == "undecided":
            undecided.add(rec.name)
        else:
            assert verdict.outcome == rec.expected.pi1, rec.name
        assert verdict.engine_mode == "lemmas-only"
    assert undecided == set(UNDECIDED_WITHOUT_HINTS)


def test_nontrivial_cases_carry_fork_certificates(records):
    for rec in records:
        if rec.expected.pi1 != "nontrivial":
            continue
        verdict = decide(rec)
        cert = verdict.to_json()["certificate"]
        assert cert["kind"] == "fork-vertex", rec.name
        assert len(cert["lines"]) == 3, rec.name


def test_trivial_cases_certify_coset_order(records):
    for rec in records:
        if rec.expected.pi1 != "trivial":
            continue
        verdict = decide(rec)
        cert = verdict.to_json()["certificate"]
        assert cert == {"kind": "coset-order", "order": 720}, rec.name


def test_derivation_steps_replay_in_order(records):
    for rec in records:
        eq = decide(rec).to_json()["equalities"]
        seen = set()
        for step in eq["steps"]:
            assert set(step["used"]) <= seen, rec.name
            seen.add(step["line"])
        assert seen == set(eq["established"]), rec.name
        assert eq["complete"] == (seen == set(eq["lines"])), rec.name


def test_unsatisfiable_hint_is_reported_stale(by_name):
    points = by_name["U_{4,2}"].complex.classify_vertices()
    hint = CaseHint(line=1, preconditions=frozenset({2}), citation="synthetic")
    facts = propagate_equalities(points, hints=(hint,))
    assert hint in facts.stale_hints
    assert not facts.complete


def test_hints_unlock_derivations(by_name):
    rec = by_name["U_{0,6,2}"]
    bare = propagate_equalities(rec.complex.classify_vertices())
    hinted = propagate_equalities(rec.complex.classify_vertices(), hints=rec.hints)
    assert set(bare.established) < set(hinted.established)
    assert hinted.complete


def _stats(live_cosets):
    return EnumerationStats(
        cosets_defined=900, live_cosets=live_cosets, coincidences=3, completed=True
    )


def _facts(by_name):
    return propagate_equalities(by_name["U_{0,4}"].complex.classify_vertices())


def test_enumeration_verdict_trivial(by_name):
    v = enumeration_verdict(
        _stats(720),
        720,
        engine_mode="lemmas-only",
        equalities=_facts(by_name),
    )
    assert v.outcome == "trivial"


def test_enumeration_verdict_nontrivial(by_name):
    v = enumeration_verdict(
        _stats(1440),
        720,
        engine_mode="lemmas-only",
        equalities=_facts(by_name),
    )
    assert v.outcome == "nontrivial"


def test_enumeration_verdict_overflow(by_name):
    v = enumeration_verdict(
        EnumerationStats(cosets_defined=10, live_cosets=8, coincidences=2, completed=False),
        720,
        engine_mode="lemmas-only",
        equalities=_facts(by_name),
    )
    assert v.outcome == "undecided"
    assert v.reason == "enumeration overflowed at 10 cosets"


def test_enumeration_verdict_rejects_undersized_group(by_name):
    with pytest.raises(PipelineError):
        enumeration_verdict(
            _stats(360),
            720,
            engine_mode="lemmas-only",
            equalities=_facts(by_name),
        )


def test_undecided_case_explains_itself(by_name):
    verdict = decide(by_name["U_{4,2}"])
    data = verdict.to_json()
    assert data["outcome"] == "undecided"
    assert data["certificate"] is None
    assert "no equality derived" in data["reason"]


def test_verdict_json_shape(records):
    keys = {"outcome", "reason", "engine_mode", "certificate", "equalities", "enumeration"}
    for rec in records[:5]:
        data = decide(rec).to_json()
        assert set(data) <= keys
        assert {"outcome", "reason", "engine_mode", "certificate", "equalities"} <= set(
            data
        )


def test_enumerated_orders_match_kernel_index(records):
    """The kernel's index comes from a BFS over permutations, not from TC."""
    verdicts = [(r, decide(r)) for r in records]
    enumerated = [(r, v) for r, v in verdicts if v.enumeration is not None]
    assert len(enumerated) == 20
    for rec, verdict in enumerated[:5]:
        pres = reduced_presentation(
            rec.complex,
            inner6_relators=rec.extra_inner_relators or None,
        )
        ka = kernel_abelianization(pres, line_transpositions(rec.complex), degree=6)
        assert verdict.certificate.order == ka.index, rec.name
        subgroup_order = factorial(len(verdict.subgroup) + 1)
        assert verdict.enumeration.live_cosets * subgroup_order == ka.index, rec.name
        if (ka.rank, ka.torsion) == (0, ()):
            assert verdict.outcome == "trivial", rec.name


@pytest.mark.parametrize("triangles", [6, 7, 8])
def test_enumerated_disks_never_fail_after_enumerating(triangles):
    refusals = []
    for map_ in enumerate_maps(triangles):
        try:
            verdict = decide(embed(map_), use_hints=False)
        except UnsupportedCaseError as exc:
            refusals.append(str(exc))
            continue
        assert verdict.outcome in ("trivial", "nontrivial", "undecided")
    broken = [r for r in refusals if r.startswith("line numbering breaks")]
    assert len(broken) == {6: 0, 7: 2, 8: 2}[triangles], refusals
    assert all("inner-point relator" in r and "at vertex" in r for r in broken)


def test_fork_rule_runs_before_the_numbering_check():
    forks_with_broken_numbering = 0
    for map_ in enumerate_maps(8):
        pc = embed(map_)
        fork = fork_certificate(pc)
        if fork is None:
            continue
        if first_broken_relator(reduced_presentation(pc).words, pc.line_planes()) is None:
            continue
        forks_with_broken_numbering += 1
        verdict = decide(pc, use_hints=False)
        assert verdict.outcome == "nontrivial"
        assert verdict.certificate == fork
    assert forks_with_broken_numbering == 2


def test_fork_certificate_matches_dual_cycle_search(small_complexes):
    """The plane rule finds the fork the depth-first search finds, on the
    catalog and every disk of up to 8 triangles."""
    assert len(small_complexes) == 392
    forks = 0
    for k, pc in enumerate(small_complexes):
        fork = fork_certificate(pc)
        assert fork == dfs_fork_certificate(pc), k
        forks += fork is not None
    assert forks == 133


def renumbered(pc, rng):
    """`pc` with its line indices permuted at random."""
    indices = sorted(pc.line_numbering)
    shuffled = rng.sample(indices, len(indices))
    lines = {new: pc.line_numbering[old] for old, new in zip(indices, shuffled)}
    return PlanarComplex(pc.vertices, pc.triangles, lines)


def test_line_renumberings_never_contradict(small_complexes):
    """Lemmas-only verdicts under random line renumberings of the catalog and
    every disk of up to 7 triangles: each is a verdict or a named refusal,
    and no two decided verdicts of one disk disagree."""
    rng = random.Random(20121203)
    complexes = [pc for pc in small_complexes if len(pc.triangles) <= 7]
    assert len(complexes) == 148
    conflicts, refusals = [], 0
    for k, pc in enumerate(complexes):
        decided = set()
        for _ in range(8):
            try:
                verdict = decide(renumbered(pc, rng), use_hints=False)
            except UnsupportedCaseError:
                refusals += 1
                continue
            if verdict.outcome != "undecided":
                decided.add(verdict.outcome)
        if len(decided) > 1:
            conflicts.append(k)
    assert conflicts == []
    assert refusals < 8 * len(complexes)


def pair_relators(pc):
    """The involution, braid and commutator relators of `pc`: all but the
    inner-point ones, spelled out directly."""
    generators = tuple(sorted(pc.line_numbering))
    tangent = set(tangent_pairs(pc))
    relators = [word(i, i) for i in generators]
    relators += [
        word(i, j, i, -j, -i, -j) if (i, j) in tangent else word(i, j, -i, -j)
        for i, j in combinations(generators, 2)
    ]
    return relators


def test_only_an_inner_point_relator_can_break(small_complexes):
    """`decide` checks only the inner-point relators in S_n: the others die
    under every line numbering.  Checked on the catalog and every disk of up
    to 8 triangles, as numbered and under four random renumberings each,
    including the 64 disks whose numbering breaks an inner-point relator."""
    rng = random.Random(24)
    inner_broken = 0
    for k, pc in enumerate(small_complexes):
        for numbered in [pc] + [renumbered(pc, rng) for _ in range(4)]:
            relators = pair_relators(numbered)
            assert first_broken_relator(relators, numbered.line_planes()) is None, k
        try:
            pres = reduced_presentation(pc)
        except UnsupportedCaseError:
            continue
        broken = first_broken_relator(pres.relators, pc.line_planes())
        if broken is not None:
            assert pres.annotations[broken] == "inner-point", k
            inner_broken += 1
    assert inner_broken == 64


@pytest.mark.parametrize(
    "lines, message",
    [
        ({1: (3, 3)}, "line 1 has bad endpoints (3, 3)"),
        ({1: (1, 2, 3)}, "line 1 has bad endpoints (1, 2, 3)"),
        ({1: (1, 3), 2: (3, 3)}, "line 2 has bad endpoints (3, 3)"),
        ({1: (1, 3), 2: (1, 2, 3)}, "line 2 has bad endpoints (1, 2, 3)"),
    ],
    # The case names from when `decide` raised every one of these texts.
    ids=[
        "lines0-line 1 (3, 3) is not an interior edge (in 0 planes)",
        "lines1-line 1 (1, 2, 3) is not an interior edge (in 0 planes)",
        "lines2-line 2 (3, 3) is not an interior edge (in 0 planes)",
        "lines3-line 2 (1, 2, 3) is not an interior edge (in 0 planes)",
    ],
)
def test_line_that_is_not_two_distinct_vertices_is_a_named_error(lines, message):
    """The constructor refuses a line that is not two distinct listed vertices,
    so `decide`, which never validates, cannot be handed one."""
    with pytest.raises(ComplexError) as info:
        PlanarComplex(
            {1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)}, {1: (1, 2, 3), 2: (1, 3, 4)}, lines
        )
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["U_{0,6,2}", "U_{3,5}"])
def test_line_on_a_numbered_edge_is_refused_before_any_verdict(by_name, name):
    """A complex that skips `validate` reaches `decide`; an extra index on line 1's edge would
    make a fork through the phantom line and add parasitic nodes.  The
    constructor refuses it, so no verdict, presentation or count can read it."""
    rec = by_name[name]
    lines = rec.complex.line_numbering
    phantom = len(lines) + 1
    with pytest.raises(ComplexError) as info:
        PlanarComplex(rec.complex.vertices, rec.complex.triangles, {**lines, phantom: lines[1]})
    assert str(info.value) == f"lines 1 and {phantom} number the same edge"


def test_decide_accepts_bare_complex(by_name):
    verdict = decide(by_name["U_{0,4}"].complex)
    assert verdict.outcome == "trivial"


def assert_order_matches_full_enumeration(pres, verdict, label):
    full = todd_coxeter(pres)
    assert full.completed, label
    assert full.live_cosets == verdict.certificate.order, label


def test_chain_orders_match_full_group_enumeration(records):
    """The order over the chain subgroup equals the order over the trivial one."""
    enumerated = 0
    for rec in records:
        verdict = decide(rec)
        if verdict.enumeration is not None:
            enumerated += 1
            pres = reduced_presentation(
                rec.complex, inner6_relators=rec.extra_inner_relators or None
            )
            assert_order_matches_full_enumeration(pres, verdict, rec.name)
    assert enumerated == 20
    for triangles in (6, 7):
        for k, map_ in enumerate(enumerate_maps(triangles)):
            pc = embed(map_)
            try:
                verdict = decide(pc, use_hints=False)
            except UnsupportedCaseError:
                continue
            if verdict.enumeration is not None:
                pres = reduced_presentation(pc)
                assert_order_matches_full_enumeration(pres, verdict, (triangles, k))


def a3_presentation():
    """Coxeter presentation of type A_3."""
    return Presentation((1, 2, 3), ((1, 2), (2, 3)), ())


A3_PLANES = {1: (1, 2), 2: (2, 3), 3: (3, 4)}


def test_a3_index_over_a_chain_times_its_order_is_the_group_order():
    pres = a3_presentation()
    assert _coxeter_chain(A3_PLANES) == (1, 2, 3)
    over = todd_coxeter(pres, [word(1), word(2)])
    assert over.live_cosets == 4
    assert over.live_cosets * factorial(3) == todd_coxeter(pres).live_cosets == 24


def test_reduced_presentation_holds_every_chain_relator(small_complexes):
    """Each involution, braid and commutator relator of the A_k chain that
    `_coxeter_chain` picks is in the reduced presentation, on the catalog and
    every disk of up to 8 triangles whose presentation builds."""
    checked = 0
    for k, pc in enumerate(small_complexes):
        try:
            relators = set(reduced_presentation(pc).relators)
        except UnsupportedCaseError:
            continue
        chain = _coxeter_chain(pc.line_planes())
        needed = {word(a, a) for a in chain}
        for i, a in enumerate(chain):
            for b in chain[i + 1:]:
                lo, hi = sorted((a, b))
                braid = b == chain[i + 1]  # consecutive chain lines are tangent
                needed.add(word(lo, hi, lo, -hi, -lo, -hi) if braid else word(lo, hi, -lo, -hi))
        assert needed <= relators, k
        checked += 1
    assert checked == 373


@pytest.mark.parametrize("pair", [(1, 2), (2, 3)])
def test_chain_skips_a_pair_without_its_braid_relator(pair):
    """Lines bounding no common plane get a commutator, not a braid relator,
    so the chain never sets them side by side: it routes through the line
    that meets both."""
    a, b = pair
    (c,) = {1, 2, 3} - set(pair)
    chain = _coxeter_chain({a: (1, 2), c: (2, 3), b: (3, 4)})
    assert chain in {(a, c, b), (b, c, a)}
    assert set(pair) not in [set(p) for p in zip(chain, chain[1:])]


def test_chain_needs_the_commutator_of_its_far_ends():
    """Three lines whose plane pairs close a cycle pairwise share a plane, so
    the far ends of a three-line chain would not commute; the chain stops at
    two lines."""
    chain = _coxeter_chain({1: (1, 2), 2: (2, 3), 3: (3, 1)})
    assert len(chain) == 2


def test_one_triangle_has_the_empty_chain():
    complex_ = embed(enumerate_maps(1)[0])
    assert _coxeter_chain(complex_.line_planes()) == ()
    verdict = decide(complex_)
    assert (verdict.outcome, verdict.subgroup) == ("trivial", ())
    assert verdict.certificate.order == 1


def recursive_coxeter_chain(line_planes):
    """The chain search as a recursive depth-first search: the reference for
    `_coxeter_chain`, which walks the same tree with an explicit stack."""
    adj: dict[int, list[tuple[int, int]]] = {}
    for line, (p, q) in sorted(line_planes.items()):
        adj.setdefault(p, []).append((line, q))
        adj.setdefault(q, []).append((line, p))
    best: tuple[int, ...] = ()

    def extend(chain: tuple[int, ...], path: tuple[int, ...]) -> bool:
        nonlocal best
        if len(chain) > len(best):
            best = chain
        return len(best) == len(adj) - 1 or any(
            extend(chain + (line,), path + (q,))
            for line, q in adj[path[-1]]
            if q not in path
        )

    any(extend((), (p,)) for p in sorted(adj))
    return best


def test_chain_matches_the_recursive_search(small_complexes):
    """The stack search stops at the chain the recursive search returns, on
    the catalog and every disk of up to 8 triangles, as numbered and under a
    random renumbering, and on line → plane tables that are no disk."""
    rng = random.Random(23)
    tables = [pc.line_planes() for pc in small_complexes]
    tables += [renumbered(pc, rng).line_planes() for pc in small_complexes]
    tables += [A3_PLANES, {1: (1, 2), 2: (2, 3), 3: (3, 1)}, {1: (1, 2), 2: (3, 4)}, {}]
    full = 0
    for k, line_planes in enumerate(tables):
        chain = _coxeter_chain(line_planes)
        assert chain == recursive_coxeter_chain(line_planes), k
        full += len(chain) == len({p for ps in line_planes.values() for p in ps}) - 1
    assert len(tables) == 788
    assert full == 452  # a path through every plane: the search stops early


def test_enumeration_json_names_the_chain(by_name):
    data = decide(by_name["U_{3,2}"]).to_json()["enumeration"]
    assert data["subgroup"] == [6, 4, 2, 3]
    assert data["live_cosets"] * factorial(5) == 720
