"""Result records: immutable values with a stable hash, repr and JSON form."""

from fractions import Fraction

import pytest

from catalog_oracle import VerificationReport
from degen.catalog import CaseHint, CaseRecord, ExpectedResults
from degen.complexes import PlanarComplex, SingularPoint, ValidationReport
from degen.enumerator import CombinatorialMap
from degen.fpgroup import EnumerationStats
from degen.invariants import BranchStats, ChernData
from degen.pipeline import CosetOrder, DerivationStep, EqualityFacts, ForkVertex
from kernel_oracle import KernelAbelianization

SQUARE = PlanarComplex(
    vertices={1: (0, 0), 2: (1, 0), 3: (1, 1), 4: (0, 1)},
    triangles={1: (1, 2, 3), 2: (1, 3, 4)},
    line_numbering={1: (1, 3)},
)
HINT = CaseHint(line=2, preconditions=frozenset({1}), citation="(4.2)")
EXPECTED_VALUES = {
    "pi1": "trivial", "m": 2, "mu": 2, "d": 0, "rho": 0,
    "c1_sq_coeff": Fraction(2), "c2_coeff": Fraction(5, 2), "chi_coeff": Fraction(-1),
    "points": ((1, "outer", 1, (1,)),), "parasitic": (), "triples": None,
    "commutators": ((1, 3),), "inner_relators": None, "forks": None, "forks_complete": False,
}
EXPECTED = ExpectedResults(**EXPECTED_VALUES)
EXPECTED_REPR = (
    "ExpectedResults(pi1='trivial', m=2, mu=2, d=0, rho=0,"
    " c1_sq_coeff=Fraction(2, 1), c2_coeff=Fraction(5, 2), chi_coeff=Fraction(-1, 1),"
    " points=((1, 'outer', 1, (1,)),), parasitic=(), triples=None,"
    " commutators=((1, 3),), inner_relators=None, forks=None, forks_complete=False)"
)
STEP = DerivationStep(line=3, rule="two-point", vertex=7, used=(1,))

# class, field values of one instance, its repr, its to_json (None: has none)
SAMPLES = [
    (ExpectedResults, EXPECTED_VALUES, EXPECTED_REPR, None),
    (
        CaseHint,
        {"line": 2, "preconditions": frozenset({1}), "citation": "(4.2)"},
        "CaseHint(line=2, preconditions=frozenset({1}), citation='(4.2)')",
        {"line": 2, "preconditions": [1], "citation": "(4.2)"},
    ),
    (
        CaseRecord,
        {
            "name": "U_1", "aliases": ("u-1",), "external_result": False,
            "complex": SQUARE, "hints": (HINT,), "extra_inner_relators": (((1, 1),),),
            "expected": EXPECTED, "notes": ("(4.2)",),
        },
        f"CaseRecord(name='U_1', aliases=('u-1',), external_result=False,"
        f" complex={SQUARE!r},"
        f" hints=(CaseHint(line=2, preconditions=frozenset({{1}}), citation='(4.2)'),),"
        f" extra_inner_relators=(((1, 1),),), expected={EXPECTED_REPR}, notes=('(4.2)',))",
        None,
    ),
    (
        VerificationReport,
        {"problems": ("U_1: bad",)},
        "VerificationReport(problems=('U_1: bad',))",
        None,
    ),
    (
        SingularPoint,
        {"vertex": 4, "kind": "inner", "multiplicity": 3, "lines_cyclic": (1, 5, 2)},
        "SingularPoint(vertex=4, kind='inner', multiplicity=3, lines_cyclic=(1, 5, 2))",
        None,
    ),
    (
        ValidationReport,
        {"errors": (), "violations": ("pinched vertex 7",)},
        "ValidationReport(errors=(), violations=('pinched vertex 7',))",
        None,
    ),
    (
        CombinatorialMap,
        {
            "rotations": ((1, (2, 3)), (2, (3, 1)), (3, (1, 2))),
            "boundary": (1, 2, 3),
            "triangles": ((1, 2, 3),),
        },
        "CombinatorialMap(rotations=((1, (2, 3)), (2, (3, 1)), (3, (1, 2))),"
        " boundary=(1, 2, 3), triangles=((1, 2, 3),))",
        None,
    ),
    (
        EnumerationStats,
        {"cosets_defined": 40, "live_cosets": 6, "coincidences": 3, "completed": True},
        "EnumerationStats(cosets_defined=40, live_cosets=6, coincidences=3, completed=True)",
        None,
    ),
    (
        KernelAbelianization,
        {"index": 720, "rank": 0, "torsion": (2, 2)},
        "KernelAbelianization(index=720, rank=0, torsion=(2, 2))",
        None,
    ),
    (
        BranchStats,
        {"n": 6, "m": 18, "mu": 24, "d": 12, "rho": 48},
        "BranchStats(n=6, m=18, mu=24, d=12, rho=48)",
        None,
    ),
    (
        ChernData,
        {
            "c1_sq": 1080, "c2": 3060, "chi": Fraction(-1680),
            "c1_sq_coeff": Fraction(3, 2), "c2_coeff": Fraction(17, 4),
            "chi_coeff": Fraction(-7, 3),
        },
        "ChernData(c1_sq=1080, c2=3060, chi=Fraction(-1680, 1),"
        " c1_sq_coeff=Fraction(3, 2), c2_coeff=Fraction(17, 4), chi_coeff=Fraction(-7, 3))",
        None,
    ),
    (
        DerivationStep,
        {"line": 3, "rule": "hint", "vertex": None, "used": (1, 2), "citation": "(4.2)"},
        "DerivationStep(line=3, rule='hint', vertex=None, used=(1, 2), citation='(4.2)')",
        {"line": 3, "rule": "hint", "used": [1, 2], "citation": "(4.2)"},
    ),
    (
        EqualityFacts,
        {
            "lines": frozenset({1, 3}), "established": frozenset({3}),
            "steps": (STEP,), "stale_hints": (HINT,),
        },
        "EqualityFacts(lines=frozenset({1, 3}), established=frozenset({3}),"
        " steps=(DerivationStep(line=3, rule='two-point', vertex=7, used=(1,),"
        " citation=None),), stale_hints=(CaseHint(line=2, preconditions=frozenset({1}),"
        " citation='(4.2)'),))",
        {
            "lines": [1, 3], "established": [3], "complete": False,
            "steps": [{"line": 3, "rule": "two-point", "used": [1], "vertex": 7}],
            "stale_hints": [{"line": 2, "preconditions": [1], "citation": "(4.2)"}],
        },
    ),
    (
        ForkVertex,
        {"plane": 2, "lines": (1, 4, 5)},
        "ForkVertex(plane=2, lines=(1, 4, 5))",
        {"kind": "fork-vertex", "plane": 2, "lines": [1, 4, 5]},
    ),
    (
        CosetOrder,
        {"order": 720},
        "CosetOrder(order=720)",
        {"kind": "coset-order", "order": 720},
    ),
]


@pytest.mark.parametrize(
    "cls, values, text, as_json", SAMPLES, ids=[s[0].__name__ for s in SAMPLES]
)
def test_record_is_an_immutable_value(cls, values, text, as_json):
    record = cls(**values)
    with pytest.raises(AttributeError):
        setattr(record, next(iter(values)), None)
    same = cls(**values)
    assert same is not record
    assert same == record and hash(same) == hash(record)
    assert repr(record) == text
    if as_json is None:
        assert not hasattr(record, "to_json")
    else:
        assert record.to_json() == as_json
