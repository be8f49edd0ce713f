"""One digest of construction outcomes over a seeded corpus of mutated complexes.

Each input is the JSON of a catalog complex or of a six-triangle embedding
with one to three edits: an entry dropped, duplicated, moved, renumbered or
given another's id, the tables shuffled, a vertex id or a coordinate moved,
and entries of the wrong type or length.  For each input the digest records
the `ComplexError` text of `PlanarComplex.from_json`, or the tables the
complex was built with, and then the same for the constructor on the tables
as Python values, whenever they are well-typed enough to hand it.  A change
to how a complex is built that moves any refusal text, its order or any
built table moves the digest.
"""

import copy
import hashlib
import json
import random
from fractions import Fraction

import pytest

from degen.complexes import ComplexError, PlanarComplex
from degen.enumerator import embed, enumerate_maps

SEED = 20261020
EDITS_PER_SOURCE = 35  # 57 sources: 1995 inputs
DIGEST = "1b124d6877c326dd0f6ecbdddde1f13f1c875ddcc1f3390616cc4cebd98d9c59"
TABLES = ("vertices", "triangles", "line_numbering")
# wrong-type stand-ins for an id, a value, a list of values or an entry
JUNK = (0.5, 1.0, "1", True, None, [], {}, [1], -1, 0, 10**20)


@pytest.fixture(scope="module")
def sources(records):
    return [rec.complex.to_json() for rec in records] + [
        embed(m).to_json() for m in enumerate_maps(6)
    ]


def _junk(rng, kinds=JUNK):
    return copy.deepcopy(rng.choice(kinds))


def _any_id(data, rng):
    """A vertex id of the complex, or now and then one it does not have."""
    vertices = data.get("vertices")
    ids = [
        e[0] for e in vertices if isinstance(e, list) and e and type(e[0]) is int
    ] if isinstance(vertices, list) else []
    return rng.choice(ids) if ids and rng.random() < 0.85 else rng.randrange(-2, 40)


def _edit(data, rng):
    """Apply one random edit to ``data`` in place."""
    table = rng.choice(TABLES)
    entries = data.get(table)
    if not isinstance(entries, list) or not entries:
        data[table] = [[1, [1, 2, 3]]]
        return
    n = len(entries)
    i = rng.randrange(n)
    kind = rng.randrange(15)
    if kind == 0:  # drop an entry
        del entries[i]
    elif kind == 1:  # duplicate an entry
        entries.insert(rng.randrange(n + 1), copy.deepcopy(entries[i]))
    elif kind == 2:  # move an entry
        entries.insert(rng.randrange(n), entries.pop(i))
    elif kind == 3:  # renumber an entry
        if isinstance(entries[i], list) and entries[i]:
            entries[i][0] = rng.randrange(-1, n + 3)
    elif kind == 4:  # shuffle a table
        rng.shuffle(entries)
    elif kind == 5:  # swap two entries' ids
        j = rng.randrange(n)
        a, b = entries[i], entries[j]
        if isinstance(a, list) and a and isinstance(b, list) and b:
            a[0], b[0] = b[0], a[0]
    elif kind in (6, 7):  # move a vertex id of a plane or a line, or a coordinate
        entry = entries[i]
        if isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list):
            values = entry[1]
            if values:
                k = rng.randrange(len(values))
                if table == "vertices":
                    x = values[k] if type(values[k]) is int else 0
                    values[k] = rng.choice((0, 1, -1, 2, x + 1, -x))
                else:
                    values[k] = _any_id(data, rng)
    elif kind == 8:  # a wrong-type id or value
        entry = entries[i]
        if isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list):
            if entry[1] and rng.random() < 0.6:
                entry[1][rng.randrange(len(entry[1]))] = _junk(rng)
            else:
                entry[0] = _junk(rng)
    elif kind == 9:  # a wrong-type list of values, or a wrong-type entry
        if rng.random() < 0.5 and isinstance(entries[i], list) and len(entries[i]) == 2:
            entries[i][1] = _junk(rng)
        else:
            entries[i] = _junk(rng)
    elif kind == 10:  # a wrong-length list of values
        entry = entries[i]
        if isinstance(entry, list) and len(entry) == 2 and isinstance(entry[1], list):
            if entry[1] and rng.random() < 0.5:
                entry[1].pop(rng.randrange(len(entry[1])))
            else:
                entry[1].append(_any_id(data, rng))
    elif kind == 11:  # a wrong-length entry
        entry = entries[i]
        if isinstance(entry, list):
            if entry and rng.random() < 0.5:
                entry.pop()
            else:
                entry.append(_junk(rng))
    elif kind == 12:  # a table, the format or a key gone wrong
        pick = rng.randrange(4)
        if pick == 0:
            data[table] = _junk(rng, JUNK[:6])
        elif pick == 1:
            del data[table]
        elif pick == 2:
            data["format"] = rng.choice(("degen-complex/2", None))
        else:
            data[table] = []
    elif kind == 13:  # a plane or a line onto vertices it already has
        entry = entries[i]
        if table != "vertices" and isinstance(entry, list) and len(entry) == 2:
            values = entry[1]
            if isinstance(values, list) and len(values) >= 2:
                values[1] = values[0]
    else:  # planes dropped, added or moved, and the lines renumbered to fit
        _replane(data, rng)


def _replane(data, rng):
    """Drop, add or move a plane, number the edges in two planes 1..L, and
    now and then drop the vertices left in no plane."""
    planes = data.get("triangles")
    shaped = isinstance(planes, list) and all(
        isinstance(e, list) and len(e) == 2 and isinstance(e[1], list) and len(e[1]) == 3
        and all(type(v) is int for v in e[1])
        for e in planes
    )
    if not shaped or not planes:
        return
    pick = rng.randrange(3)
    if pick == 0:
        del planes[rng.randrange(len(planes))]
    elif pick == 1:
        ids = [e[0] for e in planes if type(e[0]) is int]
        planes.append([max(ids, default=0) + 1, [_any_id(data, rng) for _ in range(3)]])
    else:
        rng.choice(planes)[1][rng.randrange(3)] = _any_id(data, rng)
    count = {}
    for _, tri in planes:
        a, b, c = sorted(tri)
        for edge in ((a, b), (b, c), (a, c)):
            count[edge] = count.get(edge, 0) + 1
    interior = sorted(e for e, n in count.items() if n == 2)
    data["line_numbering"] = [[i, list(e)] for i, e in enumerate(interior, 1)]
    vertices = data.get("vertices")
    if rng.random() < 0.7 and isinstance(vertices, list):
        used = {v for _, tri in planes for v in tri}
        data["vertices"] = [
            e for e in vertices if not isinstance(e, list) or not e or type(e[0]) is not int
            or e[0] in used
        ]


def _built(pc):
    return (
        pc.triangles, pc.line_numbering, pc._disk, pc._fans, pc._points,
        pc._plane_lines, pc._line_planes, pc._scale, pc._lattice,
    )


def _outcome(build):
    try:
        return _built(build())
    except ComplexError as exc:
        return str(exc)


def _python_tables(data):
    """The constructor's arguments for ``data``, or None where its JSON shape
    does not give them."""
    try:
        vertices = {
            k: (Fraction(px, qx), Fraction(py, qy)) for k, (px, py, qx, qy) in data["vertices"]
        }
        triangles = {k: tuple(v) for k, v in data["triangles"]}
        lines = {k: tuple(v) for k, v in data["line_numbering"]}
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return None
    return vertices, triangles, lines


def test_construction_outcomes_over_mutated_complexes(sources):
    rng = random.Random(SEED)
    digest = hashlib.sha256()
    refusals = set()
    built = 0
    for source in sources:
        for _ in range(EDITS_PER_SOURCE):
            data = copy.deepcopy(source)
            for _ in range(rng.randrange(1, 4)):
                _edit(data, rng)
            outcomes = [_outcome(lambda: PlanarComplex.from_json(data))]
            tables = _python_tables(data)
            if tables is not None:
                outcomes.append(_outcome(lambda: PlanarComplex(*tables)))
            for outcome in outcomes:
                if isinstance(outcome, str):
                    refusals.add(outcome.split(" ")[0])
                else:
                    built += 1
            digest.update(repr((json.dumps(data), outcomes)).encode())
    assert len(refusals) > 10 and built > 100
    assert digest.hexdigest() == DIGEST
