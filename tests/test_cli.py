import argparse
import copy
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import degen.catalog
import degen.cli
import degen.pipeline
import degen.relations
from catalog_oracle import verify_catalog
from degen.cli import main
from degen.complexes import ComplexError, PlanarComplex
from degen.enumerator import embed, enumerate_maps
from degen.invariants import branch_stats, chern
from degen.pipeline import decide
from degen.relations import UnsupportedCaseError, reduced_presentation
from gluings import ANNULUS, BOWTIE, HEMI_ICOSAHEDRON, MOEBIUS_BAND, OCTAHEDRON, gluing_json

DATA_DIR = Path(degen.catalog.__file__).parent / "data"
SRC = Path(degen.catalog.__file__).parents[1]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list_renders_every_case(capsys):
    rc, out, _ = run(capsys, "list", "--format", "json")
    rows = json.loads(out)
    assert rc == 0
    assert len(rows) == 29
    assert rows[0] == {"name": "U_{0,4}", "pi1": "trivial", "chi_coeff": "-4/3"}


def test_list_markdown_has_header_and_rows(capsys):
    rc, out, _ = run(capsys, "list")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "| case | pi1 | chi/6! |"
    assert len([l for l in lines if l.startswith("| U_")]) == 29


def test_analyze_single_case_json(capsys):
    rc, out, _ = run(capsys, "analyze", "U_{0,5,3}", "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["consistent"] is True
    assert data["verdict"]["outcome"] == "nontrivial"
    assert data["verdict"]["certificate"]["kind"] == "fork-vertex"


def test_analyze_accepts_sanitized_alias(capsys):
    rc, out, _ = run(capsys, "analyze", "u-0-5-3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["name"] == "U_{0,5,3}"


def test_analyze_all_cases_consistent(capsys):
    rc, out, _ = run(capsys, "analyze", "--all", "--format", "json")
    rows = json.loads(out)
    assert rc == 0
    assert len(rows) == 29
    assert all(row["consistent"] for row in rows)


def test_analyze_without_hints_reports_undecided_not_mismatch(capsys):
    rc, out, _ = run(
        capsys, "analyze", "--all", "--no-hints", "--format", "json"
    )
    rows = json.loads(out)
    assert rc == 0
    undecided = {r["name"] for r in rows if r["verdict"]["outcome"] == "undecided"}
    assert len(undecided) == 8
    assert all(row["consistent"] for row in rows)


def test_analyze_flags_tampered_expectation(capsys, edited_catalog):
    edited_catalog("u-0-4", lambda d: d["expected"].update(pi1="nontrivial"))
    rc, out, _ = run(capsys, "analyze", "U_{0,4}", "--format", "json")
    assert rc == 2
    assert json.loads(out)["consistent"] is False


def set_chi_coeff_of_u04_to_minus_five_thirds(data):
    data["expected"]["chi_coeff"] = "-5/3"


CHI_DIFF = {"name": "U_{0,4}", "field": "chi_coeff", "computed": "-4/3", "catalog": "-5/3"}


def test_table_flags_a_tampered_chern_coefficient(capsys, edited_catalog):
    edited_catalog("u-0-4", set_chi_coeff_of_u04_to_minus_five_thirds)
    rc, out, err = run(capsys, "table")
    assert (rc, err) == (2, "")
    assert out.splitlines()[-1] == "DIFF U_{0,4} chi_coeff: computed -4/3 != catalog -5/3"
    rc, out, err = run(capsys, "table", "--format", "json")
    assert (rc, err) == (2, "")
    assert json.loads(out)["diffs"] == [CHI_DIFF]


@pytest.mark.parametrize("hints", [[], ["--no-hints"]], ids=["hints", "no-hints"])
def test_analyze_flags_a_tampered_chern_coefficient(capsys, edited_catalog, hints):
    """The π₁ verdict agrees, yet a catalog coefficient that the computation
    contradicts makes the record inconsistent, whether or not hints are read."""
    edited_catalog("u-0-4", set_chi_coeff_of_u04_to_minus_five_thirds)
    rc, out, err = run(capsys, "analyze", "U_{0,4}", *hints)
    assert (rc, err) == (2, "")
    lines = out.splitlines()
    at = lines.index("- catalog expectation: trivial -> MISMATCH")
    assert lines[at + 1] == "- DIFF U_{0,4} chi_coeff: computed -4/3 != catalog -5/3"
    assert lines[-1] == "consistent with catalog: 0/1"
    rc, out, err = run(capsys, "analyze", "U_{0,4}", *hints, "--format", "json")
    assert (rc, err) == (2, "")
    report = json.loads(out)
    assert report["verdict"]["outcome"] == report["expected_pi1"] == "trivial"
    assert report["consistent"] is False
    assert report["diffs"] == [CHI_DIFF]


def raise_m_by_two_and_mu_by_one_in_u04(data):
    data["expected"]["m"] += 2
    data["expected"]["mu"] += 1


BRANCH_DIFFS = [
    {"name": "U_{0,4}", "field": "m", "computed": "10", "catalog": "12"},
    {"name": "U_{0,4}", "field": "mu", "computed": "6", "catalog": "7"},
]
BRANCH_DIFF_LINES = [
    "DIFF U_{0,4} m: computed 10 != catalog 12",
    "DIFF U_{0,4} mu: computed 6 != catalog 7",
]


def test_table_flags_tampered_branch_data(capsys, edited_catalog):
    """The branch numbers m, mu, d and rho are compared too, in the record's
    field order."""
    edited_catalog("u-0-4", raise_m_by_two_and_mu_by_one_in_u04)
    rc, out, err = run(capsys, "table")
    assert (rc, err) == (2, "")
    assert out.splitlines()[-2:] == BRANCH_DIFF_LINES
    rc, out, err = run(capsys, "table", "--format", "json")
    assert (rc, err) == (2, "")
    assert json.loads(out)["diffs"] == BRANCH_DIFFS


@pytest.mark.parametrize("hints", [[], ["--no-hints"]], ids=["hints", "no-hints"])
def test_analyze_flags_tampered_branch_data(capsys, edited_catalog, hints):
    edited_catalog("u-0-4", raise_m_by_two_and_mu_by_one_in_u04)
    rc, out, err = run(capsys, "analyze", "U_{0,4}", *hints)
    assert (rc, err) == (2, "")
    lines = out.splitlines()
    at = lines.index("- catalog expectation: trivial -> MISMATCH")
    assert lines[at + 1:at + 4] == [f"- {line}" for line in BRANCH_DIFF_LINES] + [
        "- branch stats: m=10 mu=6 d=24 rho=12"
    ]
    assert lines[-1] == "consistent with catalog: 0/1"
    rc, out, err = run(capsys, "analyze", "U_{0,4}", *hints, "--format", "json")
    assert (rc, err) == (2, "")
    report = json.loads(out)
    assert report["verdict"]["outcome"] == report["expected_pi1"] == "trivial"
    assert report["consistent"] is False
    assert report["diffs"] == BRANCH_DIFFS


@pytest.mark.parametrize(
    "argv, refusal",
    [
        (["analyze"], "pass exactly one of a selector or --all"),
        (["analyze", "--all", "U_6"], "pass exactly one of a selector or --all"),
    ],
    ids=["analyze-nothing", "analyze-both"],
)
def test_usage_refusals_are_worded(capsys, argv, refusal):
    assert run(capsys, *argv) == (1, "", f"degen: error: {refusal}\n")


@pytest.mark.parametrize("command", ["analyze", "export"])
def test_catalog_relator_on_a_generator_that_is_no_line_is_refused(
    capsys, edited_catalog, command
):
    edited_catalog(
        "u-6",
        lambda d: d["extra_inner_relators"].append([[99, 1], [99, 1]]),
    )
    rc, out, err = run(capsys, command, "U_6")
    assert rc == 1
    assert out == ""
    (line,) = err.splitlines()
    assert line == (
        "degen: error: inner-point relator g99 g99 at vertex 1 names g99, which is not a line"
    )


def renumber_line_five_as_seven(data):
    for pair in data["complex"]["line_numbering"]:
        if pair[0] == 5:
            pair[0] = 7


MISNUMBERED_U04 = (
    "malformed case U_{0,4} (u-0-4.json): line indices are not 1..L: [1, 2, 3, 4, 7]"
)


def test_catalog_lines_not_numbered_contiguously_are_a_named_error(
    capsys, edited_catalog
):
    root = edited_catalog("u-0-4", renumber_line_five_as_seven)
    for command in ("analyze", "export"):
        rc, out, err = run(capsys, command, "U_{0,4}")
        assert (rc, out, err) == (1, "", f"degen: error: {MISNUMBERED_U04}\n"), command
    assert verify_catalog(root).problems == (f"U_{{0,4}}: {MISNUMBERED_U04}",)


def number_line_one_again_as_six(data):
    lines = data["complex"]["line_numbering"]
    (pair,) = [pair for i, pair in lines if i == 1]
    lines.append([len(lines) + 1, list(pair)])


@pytest.mark.parametrize(
    "argv",
    [["analyze", "U_{0,6,2}"], ["analyze", "--all"], ["export", "U_{0,6,2}"], ["table"]],
    ids=["analyze", "analyze-all", "export", "table"],
)
def test_catalog_line_on_a_numbered_edge_is_refused(capsys, edited_catalog, argv):
    """A sixth index on line 1's edge keeps the indices 1..L; reading the case
    builds its line → planes table, which refuses the repeat before a fork or a
    node count can read it, and the error names the case."""
    edited_catalog("u-0-6-2", number_line_one_again_as_six)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (
        1,
        "",
        "degen: error: malformed case U_{0,6,2} (u-0-6-2.json):"
        " lines 1 and 6 number the same edge\n",
    )


def drop_the_third_corner_of_plane_one(data):
    for plane, corners in data["complex"]["triangles"]:
        if plane == 1:
            del corners[2:]


@pytest.mark.parametrize(
    "argv", [["analyze", "U_{0,4}"], ["table"], ["list"]], ids=["analyze", "table", "list"]
)
def test_catalog_plane_without_three_corners_is_refused(capsys, edited_catalog, argv):
    """Reading the case refuses the plane where its complex is built, before
    its edges are read, and the error names the case and the plane."""
    edited_catalog("u-0-4", drop_the_third_corner_of_plane_one)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (
        1,
        "",
        "degen: error: malformed case U_{0,4} (u-0-4.json): plane 1 has 2 vertices, expected 3\n",
    )


def drop_vertex_eight(data):
    data["complex"]["vertices"] = [v for v in data["complex"]["vertices"] if v[0] != 8]


@pytest.mark.parametrize(
    "argv", [["analyze", "U_{0,4}"], ["table"], ["list"]], ids=["analyze", "table", "list"]
)
def test_catalog_plane_on_an_unlisted_vertex_is_refused(capsys, edited_catalog, argv):
    """Planes 5 and 6 of U_{0,4} name vertex 8; without it in the vertices
    table the case is refused in `validate`'s words, naming the first plane."""
    edited_catalog("u-0-4", drop_vertex_eight)
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (
        1,
        "",
        "degen: error: malformed case U_{0,4} (u-0-4.json):"
        " plane 5 references unknown vertices [8]\n",
    )


def halve_the_first_coordinate(data):
    data["complex"]["vertices"][0][1][0] = 0.5


def drop_the_hints(data):
    del data["hints"]


@pytest.mark.parametrize(
    "stem, edit, fault",
    [
        (
            "u-0-4",
            halve_the_first_coordinate,
            "U_{0,4} (u-0-4.json): malformed complex JSON: vertices entry [1, [0.5, 0, 1, 1]]"
            " holds 0.5, which is not an integer",
        ),
        ("u-0-5-1", drop_the_hints, "U_{0,5,1} (u-0-5-1.json): missing key 'hints'"),
    ],
    ids=["fractional-coordinate", "no-hints"],
)
def test_catalog_refusals_print_no_python_repr(capsys, edited_catalog, stem, edit, fault):
    """A malformed record is refused in words: a `ComplexError` by its text and
    a missing key by its name, never as ``ComplexError(...)`` or ``KeyError(...)``."""
    edited_catalog(stem, edit)
    rc, out, err = run(capsys, "table")
    assert (rc, out, err) == (1, "", f"degen: error: malformed case {fault}\n")


@pytest.mark.parametrize(
    "stem, path, value, fault",
    [
        ("u-0-5-1", ("hints",), None, "U_{0,5,1} (u-0-5-1.json): hints is null, not a list"),
        (
            "u-0-5-1",
            ("expected", "points"),
            None,
            "U_{0,5,1} (u-0-5-1.json): expected.points is null, not a list",
        ),
        ("u-0-5-1", ("notes",), 5, "U_{0,5,1} (u-0-5-1.json): notes is 5, not a list"),
        (
            "u-0-5-1",
            ("expected", "pi1"),
            None,
            "U_{0,5,1} (u-0-5-1.json): expected.pi1 is null,"
            " not one of trivial, nontrivial, undecided",
        ),
        (
            "u-0-6-2",
            ("hints", 0, "line"),
            1.9,
            "U_{0,6,2} (u-0-6-2.json): hint.line is 1.9, not an integer",
        ),
        *(
            ("u-0-5-1", ("expected", "m"), m, f"U_{{0,5,1}} (u-0-5-1.json): expected.m is {text},"
             " not an integer")
            for m, text in (("3", '"3"'), (2.7, "2.7"), (True, "true"))
        ),
        (
            "u-0-5-1",
            ("expected", "chi_coeff"),
            1.5,
            "U_{0,5,1} (u-0-5-1.json): expected.chi_coeff is 1.5, not a fraction in a string",
        ),
        (
            "u-0-5-1",
            ("expected", "chi_coeff"),
            "4/0",
            'U_{0,5,1} (u-0-5-1.json): expected.chi_coeff is "4/0", not a fraction in a string',
        ),
        (
            "u-0-5-1",
            ("expected", "parasitic", 1),
            [1, "5"],
            'U_{0,5,1} (u-0-5-1.json): expected.parasitic[1][1] is "5", not an integer',
        ),
        (
            "u-0-5-1",
            ("expected", "points", 2, 1),
            7,
            "U_{0,5,1} (u-0-5-1.json): expected.points[2][1] is 7, not a string",
        ),
        (
            "u-3-1",
            ("expected", "inner_relators", 0, 1, 2),
            3.5,
            "U_{3,1} (u-3-1.json): expected.inner_relators[0][1][2] is 3.5, not an integer",
        ),
        (
            "u-6",
            ("extra_inner_relators", 0, 1),
            [2, 2],
            "U_6 (u-6.json): word [[1, 1], [2, 2], [3, 1], [4, 1], [5, 1], [6, 1], [5, 1],"
            " [4, 1], [3, 1], [2, 1]] is not a list of [generator, +1 or -1] pairs",
        ),
    ],
    ids=[
        "hints-null", "points-null", "notes-an-int", "pi1-null", "hint-line-fractional",
        "m-a-string", "m-fractional", "m-a-bool", "chi-a-float", "chi-over-zero",
        "parasitic-pair-a-string", "point-kind-an-int", "inner-relator-letter-fractional",
        "word-exponent-two",
    ],
)
def test_catalog_record_fields_are_checked_not_coerced(
    capsys, edited_catalog, stem, path, value, fault
):
    """A record field of the wrong JSON type is refused by its name: no raw
    Python text, no ``str(None)`` verdict to mismatch, and no ``int()`` that
    turns 1.9 into line 1."""

    def edit(data):
        *parents, key = path
        for step in parents:
            data = data[step]
        data[key] = value

    edited_catalog(stem, edit)
    name = fault.split(" (")[0]
    rc, out, err = run(capsys, "analyze", name)
    assert (rc, out, err) == (1, "", f"degen: error: malformed case {fault}\n")


def test_analyze_accepts_complex_file(capsys, tmp_path):
    case = json.loads((DATA_DIR / "cases" / "u-0-4.json").read_text())
    pc = PlanarComplex.from_json(case["complex"])
    target = tmp_path / "standalone.json"
    target.write_text(pc.dumps())
    rc, out, _ = run(capsys, "analyze", str(target), "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["verdict"]["outcome"] == "trivial"
    assert "expected_pi1" not in data or data["expected_pi1"] is None


@pytest.mark.parametrize(
    "index, edit, fault",
    [
        (0, lambda xs: [0.5, *xs[1:]], "holds 0.5, which is not an integer"),
        (2, lambda xs: [*xs[:3], 0], "has denominator 0"),
        (0, lambda xs: [*xs, 1], "holds 5 values, expected 4"),
    ],
    ids=["fractional-coordinate", "zero-denominator", "vertex-of-five-values"],
)
def test_analyze_refuses_a_complex_file_with_a_malformed_vertex(
    capsys, tmp_path, index, edit, fault
):
    data = json.loads((DATA_DIR / "cases" / "u-0-4.json").read_text())["complex"]
    vertex = data["vertices"][index]
    vertex[1] = edit(vertex[1])
    target = tmp_path / "vertex.json"
    target.write_text(json.dumps(data))
    rc, out, err = run(capsys, "analyze", str(target))
    assert (rc, out) == (1, "")
    assert err == (
        f"degen: error: {target}: malformed complex JSON:"
        f" vertices entry {json.dumps(vertex)} {fault}\n"
    )


CASE_COMPLEXES = tuple(
    json.loads(path.read_text())["complex"] for path in sorted((DATA_DIR / "cases").glob("*.json"))
)
TABLES = ("vertices", "triangles", "line_numbering")
MUTATIONS = (
    "drop", "append", "duplicate", "lengthen", "shorten", "retype", "object", "null", "remove",
    "move", "isolate",
)
ODD_VALUES = (0.5, "1", None, True, [], {}, [1])
RAW_PYTHON = re.compile(r"unpack|not iterable|NoneType|Fraction\(|\b[A-Z]\w*(Error|Exception)\(")


@st.composite
def mutated_complexes(draw):
    """A catalog complex's JSON after one to three edits of its tables."""
    data = copy.deepcopy(draw(st.sampled_from(CASE_COMPLEXES)))
    for _ in range(draw(st.integers(1, 3))):
        key, mutation = draw(st.sampled_from(TABLES)), draw(st.sampled_from(MUTATIONS))
        table = data.get(key)
        if mutation == "remove":
            data.pop(key, None)
            continue
        if mutation in ("object", "null"):
            data[key] = {} if mutation == "object" else None
            continue
        if type(table) is not list or not table:
            continue
        i = draw(st.integers(0, len(table) - 1))
        entry = table[i]
        shaped = type(entry) is list and len(entry) == 2 and type(entry[1]) is list
        if mutation == "drop":
            del table[i]
        elif mutation == "duplicate":
            table.append(copy.deepcopy(entry))
        elif mutation == "append":
            ids, values = st.integers(-1, 20), st.lists(st.integers(-1, 20), max_size=5)
            table.append([draw(ids), draw(values)])
        elif mutation == "lengthen" and shaped:
            entry[1].append(draw(st.integers(-1, 20)))
        elif mutation == "shorten" and shaped and entry[1]:
            entry[1].pop()
        elif mutation == "move" and shaped and entry[1] and key != "vertices":
            # a line onto two corners of a plane, or a plane corner onto another vertex
            other = data.get("triangles" if key == "line_numbering" else "vertices")
            if type(other) is list and other:
                o = draw(st.sampled_from(other))
                if key == "line_numbering" and type(o) is list and len(o) == 2:
                    if type(o[1]) is list and len(o[1]) >= 2:
                        entry[1] = draw(st.permutations(o[1]))[:2]
                elif key == "triangles" and type(o) is list and o:
                    entry[1][draw(st.integers(0, len(entry[1]) - 1))] = o[0]
        elif mutation == "isolate" and key == "vertices":  # a vertex in no plane
            point = [draw(st.integers(-1, 20)), draw(st.integers(-1, 20)), 1, 1]
            table.append([1000 + i, point])
        elif mutation == "retype":
            odd = draw(st.sampled_from(ODD_VALUES))
            where = draw(st.sampled_from(("entry", "id", "values", "value")))
            if where == "entry" or not shaped:
                table[i] = odd
            elif where == "id":
                entry[0] = odd
            elif where == "values" or not entry[1]:
                entry[1] = odd
            else:
                entry[1][draw(st.integers(0, len(entry[1]) - 1))] = odd
    return data


def u04_complex(**tables):
    """`U_{0,4}`'s complex JSON with ``tables`` replaced; a value None drops the key."""
    data = json.loads((DATA_DIR / "cases" / "u-0-4.json").read_text())["complex"]
    return {k: v for k, v in {**data, **tables}.items() if v is not None}


def u04_moved(key, index, values):
    """`U_{0,4}`'s complex JSON with entry ``index`` of table ``key`` set to ``values``."""
    data = u04_complex()
    data[key][index][1] = values
    return data


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "mutated.json"


@settings(deadline=None, max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(data=mutated_complexes())
@example(data=u04_complex(triangles=[[1, 5]]))
@example(data=u04_complex(triangles=[[1, [1, 2, 3], 4]]))
@example(data=u04_complex(triangles=[[1]]))
@example(data=u04_complex(triangles=None))
@example(data=u04_complex(line_numbering={}))
@example(data=u04_complex(triangles=[[1, [1, 2]]]))
@example(data=u04_complex(line_numbering=[[1, [1, 2, 3]]]))
@example(data=u04_moved("triangles", 0, [1, 2, 2]))  # plane 1 repeats a vertex
@example(data=u04_moved("triangles", 5, [2, 6, 5]))  # edge [2, 6] in three planes
@example(data=u04_moved("line_numbering", 0, [1, 1]))  # line 1 on one vertex
@example(data=u04_moved("line_numbering", 0, [1, 2]))  # line 1 on a boundary edge
@example(data=u04_moved("line_numbering", 4, [2, 6]))  # lines 2 and 5 on one edge
@example(data=u04_moved("vertices", 1, [0, 0, 1, 1]))  # vertex 2 on vertex 1
@example(data=u04_complex(line_numbering=u04_complex()["line_numbering"][:4]))  # [3, 8] unnumbered
@example(data=json.loads((DATA_DIR / "cases" / "u-6.json").read_text())["complex"])  # a 6-point
@example(data=gluing_json(OCTAHEDRON))
@example(data=gluing_json(HEMI_ICOSAHEDRON))
@example(data=gluing_json(MOEBIUS_BAND))
@example(data=gluing_json(ANNULUS))
@example(data=gluing_json(BOWTIE))
def test_analyze_refuses_mutated_complex_files_in_words(fuzz_path, data):
    """Whatever edit a complex file takes, `analyze` gives a report or a
    refusal that names the file, with no exception outside `_ERRORS` and no
    raw Python text; a file the constructor refuses gets its words."""
    fuzz_path.write_text(json.dumps(data))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["analyze", str(fuzz_path), "--format", "json"])
    if rc == 0:
        assert json.loads(out.getvalue())["verdict"]["outcome"]
        return
    message = err.getvalue()
    assert (rc, out.getvalue()) == (1, ""), message
    assert message.startswith(f"degen: error: {fuzz_path}: "), message
    assert message.count("\n") == 1 and not RAW_PYTHON.search(message), message
    try:
        PlanarComplex.from_json(data)
    except ComplexError as exc:
        assert message == f"degen: error: {fuzz_path}: {exc}\n"


def relabelled(pc, rng):
    """``pc`` as JSON under random vertex and plane ids, reflected in x half the
    time; each line keeps its index on its relabelled edge."""
    vertex = dict(zip(pc.vertices, rng.sample(range(1, 3 * len(pc.vertices)), len(pc.vertices))))
    planes = rng.sample(range(1, 3 * len(pc.triangles)), len(pc.triangles))
    sign = rng.choice((1, -1))
    return {
        "format": "degen-complex/1",
        "vertices": [
            [vertex[v], [sign * x.numerator, y.numerator, x.denominator, y.denominator]]
            for v, (x, y) in pc.vertices.items()
        ],
        "triangles": [
            [p, [vertex[v] for v in rng.sample(t, 3)]]
            for p, t in zip(planes, pc.triangles.values())
        ],
        "line_numbering": [[i, [vertex[v] for v in e]] for i, e in pc.line_numbering.items()],
    }


def test_lemmas_only_outcome_and_chern_numbers_ignore_labels_and_reflection(capsys, tmp_path):
    """Up to 7 triangles, relabelling vertices and planes and reflecting in x
    leave `analyze <file> --no-hints` with the same exit code, outcome and
    Chern numbers."""
    rng = random.Random(12)
    path = tmp_path / "disk.json"

    def outcome(data):
        path.write_text(json.dumps(data))
        rc, out, _ = run(capsys, "analyze", str(path), "--no-hints", "--format", "json")
        report = json.loads(out) if rc == 0 else {"verdict": {}, "chern": None}
        return rc, report["verdict"].get("outcome"), report["chern"]

    checked = 0
    for n in range(1, 8):
        for map_ in enumerate_maps(n):
            pc = embed(map_)
            expected = outcome(pc.to_json())
            for _ in range(2):
                assert outcome(relabelled(pc, rng)) == expected, pc.dumps()
                checked += 1
    assert checked == 2 * 119


def test_analyze_file_keeps_every_verdict_it_computes(capsys, tmp_path, monkeypatch):
    """On the 73 seven-triangle disks, `analyze <file>` exits 0 exactly when
    `decide` and `chern` succeed, and reports no presentation exactly where
    `reduced_presentation` refuses: an inner 6-point has no catalogued words,
    but its disk still has a verdict and Chern numbers."""
    monkeypatch.chdir(tmp_path)
    refused, without_presentation = [], []
    for i, map_ in enumerate(enumerate_maps(7), 1):
        pc = embed(map_)
        try:
            decide(pc, use_hints=False)
            chern(branch_stats(pc))
            settled = True
        except degen.cli._ERRORS:
            settled = False
        try:
            reduced_presentation(pc)
            presented = True
        except UnsupportedCaseError:
            presented = False
            without_presentation.append(i)
        Path("disk.json").write_text(pc.dumps(), encoding="utf-8")
        rc, out, err = run(capsys, "analyze", "disk.json", "--no-hints", "--format", "json")
        assert rc == (0 if settled else 1), (i, err)
        if settled:
            presentation = json.loads(out)["presentation"]
            assert (presentation is None) == (not presented), i
            rc, out, _ = run(capsys, "analyze", "disk.json", "--no-hints")
            assert rc == 0
            assert ("- presentation: none\n" in out) == (presentation is None), i
        else:
            assert err.startswith("degen: error: disk.json: "), i
            refused.append(i)
    assert refused == [1, 5, 43, 66]
    assert without_presentation == [5, 15, 29]


def test_analyze_case_classifies_each_vertex_once(capsys, derivation_calls):
    rc, _, _ = run(capsys, "analyze", "U_{0,6,1}", "--format", "json")
    assert rc == 0
    assert derivation_calls == {"edge_planes": 1, "orient_disk": 1, "vertex_fans": 1}


def test_analyze_file_validates_and_classifies_each_vertex_once(
    capsys, tmp_path, derivation_calls
):
    case = json.loads((DATA_DIR / "cases" / "u-0-6-1.json").read_text())
    target = tmp_path / "standalone.json"
    target.write_text(json.dumps(case["complex"]))
    rc, _, _ = run(capsys, "analyze", str(target), "--format", "json")
    assert rc == 0
    # validate, the classification and the plane lines share one edge map and
    # the planes oriented once
    assert derivation_calls == {"edge_planes": 1, "orient_disk": 1, "vertex_fans": 1}


def test_analyze_all_builds_one_presentation_per_case(capsys, monkeypatch):
    """The report reads its counts from one presentation per case: the one
    `decide` enumerated in for the 20 cases that reach Todd-Coxeter, else one
    of its own."""
    built = Counter()
    original = degen.relations.reduced_presentation

    def counted(module):
        def wrapper(complex_, **kwargs):
            built[module.__name__] += 1
            return original(complex_, **kwargs)

        return wrapper

    for module in (degen.pipeline, degen.cli):
        monkeypatch.setattr(module, "reduced_presentation", counted(module))
    rc, out, _ = run(capsys, "analyze", "--all", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 29
    assert sum("enumeration" in row["verdict"] for row in rows) == 20
    assert built == {"degen.cli": 9, "degen.pipeline": 20}


def test_analyze_missing_file_fails_cleanly(capsys, tmp_path):
    rc, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert rc == 1
    assert "error" in err


def test_a_case_name_is_looked_up_whatever_the_working_directory_holds(
    capsys, tmp_path, monkeypatch
):
    """Only a path separator or a ``.json`` suffix makes a selector a file: a
    directory named like a case shadows no case, and an extension-less file
    is named as ``./disk``."""
    rc, expected, _ = run(capsys, "analyze", "U_6", "--format", "json")
    assert rc == 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "U_6").mkdir()
    rc, out, err = run(capsys, "analyze", "U_6", "--format", "json")
    assert (rc, out, err) == (0, expected, "")
    (tmp_path / "disk").write_text(embed(enumerate_maps(6)[0]).dumps(), encoding="utf-8")
    rc, out, _ = run(capsys, "analyze", "./disk", "--format", "json")
    assert rc == 0 and json.loads(out)["name"] == "./disk"
    rc, _, err = run(capsys, "analyze", "disk")
    assert rc == 1 and "disk" in err


def test_table_matches_catalog(capsys):
    rc, out, _ = run(capsys, "table")
    assert rc == 0
    assert out.splitlines()[-1] == "diffs against catalog: none"


def test_table_json_carries_exact_fractions(capsys):
    rc, out, _ = run(capsys, "table", "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["diffs"] == []
    by_name = {r["name"]: r for r in data["rows"]}
    assert by_name["U_{0,7}"]["c2_coeff"] == "11/2"


def test_enumerate_count_only(capsys):
    """Without --out-dir, `enumerate` prints the class count alone."""
    assert run(capsys, "enumerate", "--triangles", "6") == (0, "28\n", "")


def test_enumerate_without_out_dir_writes_no_file(capsys, tmp_path, monkeypatch):
    """Counting alone leaves the working directory as it found it."""
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "enumerate", "--triangles", "4") == (0, "5\n", "")
    assert list(tmp_path.iterdir()) == []


def test_enumerate_above_the_library_guard(capsys):
    # asking for 9 triangles on the command line is the conscious choice
    # that the library's guard of 8 asks for
    rc, out, err = run(capsys, "enumerate", "--triangles", "9")
    assert rc == 0, err
    assert out.strip() == "782"


def test_enumerate_writes_loadable_complexes(capsys, tmp_path):
    out_dir = tmp_path / "maps"
    rc, out, _ = run(
        capsys, "enumerate", "--triangles", "4", "--out-dir", str(out_dir)
    )
    assert rc == 0
    files = sorted(out_dir.glob("map-*.json"))
    assert len(files) == 5
    for path in files:
        text = path.read_text()
        assert PlanarComplex.loads(text).validate().ok
        assert text == PlanarComplex.loads(text).dumps()


def test_enumerate_refuses_a_directory_that_holds_maps(capsys, tmp_path):
    out_dir = tmp_path / "maps"
    rc, out, _ = run(capsys, "enumerate", "--triangles", "7", "--out-dir", str(out_dir))
    assert (rc, out) == (0, f"wrote 73 complexes to {out_dir}\n")
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert len(before) == 73
    rc, out, err = run(capsys, "enumerate", "--triangles", "6", "--out-dir", str(out_dir))
    assert (rc, out) == (1, "")
    assert err == (
        f"degen: error: {out_dir} already holds 73 map-*.json files;"
        " pass an empty or new directory\n"
    )
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


def test_enumerate_writes_the_same_files_under_any_hash_seed(tmp_path):
    """No hash order reaches the representatives, their embeddings or their files."""
    written = []
    for seed in ("0", "12345"):
        out_dir = tmp_path / f"seed-{seed}"
        proc = subprocess.run(
            [sys.executable, "-m", "degen", "enumerate", "--triangles", "7", "--out-dir",
             str(out_dir)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
        )
        assert proc.returncode == 0, proc.stderr
        written.append({p.name: p.read_bytes() for p in out_dir.iterdir()})
    assert len(written[0]) == 73
    assert written[0] == written[1]


def test_enumerate_reads_an_out_dir_name_that_holds_pattern_characters_as_it_stands(
    capsys, tmp_path
):
    """`[1]` and `*` in --out-dir are part of its name, not a pattern: a sibling
    that the name would match as a glob is not counted, and every map-*.json
    name under the directory is, a subdirectory among them."""
    out_dir = tmp_path / "maps[1]*"
    (tmp_path / "maps1").mkdir()
    (tmp_path / "maps1" / "map-01.json").write_text("{}\n", encoding="utf-8")
    rc, out, err = run(capsys, "enumerate", "--triangles", "4", "--out-dir", str(out_dir))
    assert (rc, out, err) == (0, f"wrote 5 complexes to {out_dir}\n", "")
    (out_dir / "map-dir.json").mkdir()
    (out_dir / "maps.json").write_text("{}\n", encoding="utf-8")
    rc, out, err = run(capsys, "enumerate", "--triangles", "4", "--out-dir", str(out_dir))
    assert (rc, out) == (1, "")
    assert err == (
        f"degen: error: {out_dir} already holds 6 map-*.json files;"
        " pass an empty or new directory\n"
    )


@pytest.mark.parametrize("under", ["", "maps"], ids=["a-file", "under-a-file"])
def test_enumerate_refuses_an_out_dir_it_cannot_make_before_enumerating(
    capsys, tmp_path, monkeypatch, under
):
    """An --out-dir that names a regular file, or a path under one, is refused
    before any enumeration runs."""
    def no_enumeration(*args, **kwargs):
        pytest.fail("enumerate_maps ran before the output directory was made")

    monkeypatch.setattr(degen.cli, "enumerate_maps", no_enumeration)
    blocker = tmp_path / "blocker"
    blocker.write_text("kept\n", encoding="utf-8")
    out_dir = blocker / under if under else blocker
    rc, out, err = run(capsys, "enumerate", "--triangles", "6", "--out-dir", str(out_dir))
    assert (rc, out) == (1, "")
    assert err.startswith("degen: error: ") and str(blocker) in err, err
    assert blocker.read_text(encoding="utf-8") == "kept\n"


@pytest.mark.parametrize("count", ["0", "-2"])
def test_enumerate_refuses_a_triangle_count_below_one_before_making_out_dir(
    capsys, tmp_path, count
):
    out_dir = tmp_path / "new"
    with pytest.raises(SystemExit) as info:
        main(["enumerate", "--triangles", count, "--out-dir", str(out_dir)])
    assert info.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        f"degen: error: argument --triangles: expected a positive integer, got '{count}'\n"
    )
    assert not out_dir.exists()


def test_export_text_presentation(capsys):
    rc, out, _ = run(capsys, "export", "u-0-6-1")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "generators: g1 g2 g3 g4 g5"
    assert "# involution" in lines
    assert sum(1 for l in lines if l and not l.startswith(("#", "generators"))) == 15


def test_export_json_round_trips(capsys):
    rc, out, _ = run(capsys, "export", "U_{0,4}", "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["format"] == "degen-presentation/1"
    assert data["generators"] == [1, 2, 3, 4, 5]


def test_unknown_case_is_an_operational_error(capsys):
    rc, _, err = run(capsys, "analyze", "definitely-not-a-case")
    assert rc == 1
    assert "no case named" in err


def test_bad_flag_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "degen.cli", "list", "--format", "yaml"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_one_parser_serves_a_usage_error_then_an_analysis(capsys):
    for argv in (
        ["analyze", "U_{0,4}", "--format", "yaml"],
        ["analyze", "U_{0,4}", "--format", "json"],
    ):
        alone = subprocess.run(
            [sys.executable, "-m", "degen", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        captured = capsys.readouterr()
        assert (rc, captured.out, captured.err) == (
            alone.returncode,
            alone.stdout,
            alone.stderr,
        )
    assert degen.cli._build_parser() is degen.cli._build_parser()


def test_each_subcommand_takes_only_the_values_a_caller_sets():
    """The settable values of each subcommand, a positional by its name and an
    option by its first spelling: a new one shows here."""
    (sub,) = (a for a in degen.cli._build_parser()._actions
              if isinstance(a, argparse._SubParsersAction))
    census = {
        command: [a.option_strings[0] if a.option_strings else a.dest
                  for a in parser._actions if not isinstance(a, argparse._HelpAction)]
        for command, parser in sub.choices.items()
    }
    assert census == {
        "list": ["--format"],
        "analyze": ["selector", "--all", "--format", "--no-hints", "--verbose"],
        "table": ["--format"],
        "enumerate": ["--triangles", "--out-dir"],
        "export": ["case", "--format"],
    }


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degen", "list", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 29


@pytest.mark.parametrize(
    "argv, kept", [(["analyze", "--all", "--format", "json"], 10), (["list"], 0)]
)
def test_a_closed_stdout_is_no_operational_error(argv, kept):
    # `analyze --all --format json` writes some 80 KB, more than a pipe holds,
    # so its writes outlast a reader that closes after `kept` bytes
    proc = subprocess.Popen(
        [sys.executable, "-m", "degen", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert len(proc.stdout.read(kept)) == kept
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_console_entry_point():
    proc = subprocess.run(
        ["degen", "list", "--format", "json"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 29


@pytest.mark.parametrize("blob", [b"\xff", b"{"], ids=["not-utf8", "malformed"])
def test_analyze_file_that_is_not_utf8_json_names_the_file(capsys, tmp_path, blob):
    target = tmp_path / "bad.json"
    target.write_bytes(blob)
    rc, _, err = run(capsys, "analyze", str(target))
    assert rc == 1
    (line,) = err.splitlines()
    assert line.startswith(f"degen: error: {target} is not UTF-8 JSON: ")


# SHA-256 of the markdown reports; they pin the user-facing text, which a
# change to how the group order is enumerated must leave byte for byte alone.
GOLDEN_MARKDOWN = {
    ("analyze", "--all"):
        "c8638d493e1503f835ec989064655218dd01524112e807c8ad723a887e320206",
    ("analyze", "--all", "--no-hints", "--verbose"):
        "a0a2be4956bac9ec06ed78ea7872be29ca3c6ecbd462eb411d53dbab21072b3e",
    ("table",):
        "c04c6f23438f059b6ab5963f99c8b413d27c94449d0d38f28e58756cd947598e",
    ("list",):
        "c8335dc687cf74d45b84ffb53ef2f067a00b8c002ca15bbb7648d56e0894eec2",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_MARKDOWN), ids=" ".join)
def test_markdown_report_matches_golden_digest(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_MARKDOWN[argv]


# SHA-256 of the JSON reports; unlike the markdown they carry the coset
# enumeration's counters, so they also pin how many cosets each run defines.
GOLDEN_JSON = {
    ("analyze", "--all", "--format", "json"):
        "679243ea64cbe8f8245f5727f095e6f0354e31767f661864f30ff31a5414424b",
    ("analyze", "--all", "--no-hints", "--format", "json"):
        "e2001009f050e6f665beebd62831a6704e850ae3f66d4263e3dc370b701708e4",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN_JSON), ids=" ".join)
def test_json_report_matches_golden_digest(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON[argv]


# SHA-256 of every other JSON the CLI prints, so that a change to how JSON is
# written shows as a byte change and not only as a change of parsed content.
GOLDEN_JSON_OTHER = {
    "list": "d793a2f3a9b6a4d8aa374b369ccf35b5459e465718e9930549d7a003f43f4e8b",
    "table": "6b240eefdc4c6e07905be1d69412be1e332a7408e11c6c2efef6f2a5503b98b6",
    "export": "402037f241d348a35f93a2e485ce7080ee033daef9312f0872f391306b2b1c5b",
    "analyze-file": "bf8ae6b3c4490dfdad7bbb60ee88b2918b6b3d11cce10e659186dcd9c5eeab18",
}


@pytest.mark.parametrize("command", ["list", "table"])
def test_listing_json_matches_golden_digest(capsys, command):
    rc, out, _ = run(capsys, command, "--format", "json")
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_JSON_OTHER[command]


def test_export_json_of_every_case_matches_golden_digest(capsys):
    outs = []
    for name in degen.catalog.open_catalog().names():
        rc, out, _ = run(capsys, "export", name, "--format", "json")
        assert rc == 0
        outs.append(out)
    digest = hashlib.sha256("".join(outs).encode()).hexdigest()
    assert digest == GOLDEN_JSON_OTHER["export"]


# SHA-256 of `export`'s text form for every case, in catalog order
GOLDEN_EXPORT_TEXT = "0e90aa9767ef5b439b18c02142804b751aee78dabd25e3d96d6b7fba80c49488"


def test_export_text_of_every_case_matches_golden_digest(capsys):
    outs = []
    for name in degen.catalog.open_catalog().names():
        rc, out, _ = run(capsys, "export", name)
        assert rc == 0
        outs.append(out)
    assert hashlib.sha256("".join(outs).encode()).hexdigest() == GOLDEN_EXPORT_TEXT


def test_analyze_json_of_embedded_disks_matches_golden_digest(capsys, tmp_path, monkeypatch):
    # every six-triangle disk as a file; the report names the file, so the
    # path is the same relative one each time
    monkeypatch.chdir(tmp_path)
    outs = []
    for map_ in enumerate_maps(6):
        Path("disk.json").write_text(embed(map_).dumps(), encoding="utf-8")
        rc, out, _ = run(capsys, "analyze", "disk.json", "--format", "json")
        outs.append(f"{rc}\n{out}")
    digest = hashlib.sha256("".join(outs).encode()).hexdigest()
    assert digest == GOLDEN_JSON_OTHER["analyze-file"]
