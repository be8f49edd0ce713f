"""Gluings of triangles that are not disks, kept for the tests that refuse them.

Each gluing is a list of planes on the vertices 1..7 of `GLUING_VERTICES`.
`numbered` numbers the interior edges of any list of planes, so construction
reaches the topology and refuses that, not a missing line.
"""

from collections import Counter
from itertools import combinations

OCTAHEDRON = [
    (1, 3, 5), (3, 2, 5), (2, 4, 5), (4, 1, 5),
    (3, 1, 6), (2, 3, 6), (4, 2, 6), (1, 4, 6),
]
HEMI_ICOSAHEDRON = [  # the projective plane on 6 vertices
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
    (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4),
]
MOEBIUS_BAND = [(1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2)]
ANNULUS = [t for t in OCTAHEDRON if t not in ((1, 3, 5), (4, 2, 6))]
BOWTIE = [(1, 2, 3), (1, 4, 5)]
PINCHED_SPHERE = [  # a cube's faces halved, its opposite corners made one vertex 1
    (3, 5, 4), (1, 3, 4), (1, 2, 4), (2, 6, 4), (1, 2, 3), (2, 7, 3),
    (1, 7, 6), (2, 7, 6), (1, 7, 5), (3, 7, 5), (1, 6, 5), (4, 6, 5),
]
GLUING_VERTICES = {
    1: (0, 0), 2: (10, 1), 3: (3, 7), 4: (-5, 4), 5: (-2, -6), 6: (7, -5), 7: (4, 4),
}


def numbered(triangles):
    """Planes 1..n and their interior edges numbered 1..L in sorted order."""
    count = Counter(frozenset(e) for t in triangles for e in combinations(t, 2))
    interior = sorted(tuple(sorted(e)) for e, k in count.items() if k == 2)
    return (
        {i + 1: t for i, t in enumerate(triangles)},
        {i + 1: e for i, e in enumerate(interior)},
    )


def gluing_json(triangles):
    """The planes ``triangles`` as ``degen-complex/1`` JSON, on the vertices
    they use and with their interior edges `numbered`."""
    planes, lines = numbered(triangles)
    used = sorted({v for t in triangles for v in t})
    return {
        "format": "degen-complex/1",
        "vertices": [[v, [*GLUING_VERTICES[v], 1, 1]] for v in used],
        "triangles": [[p, list(t)] for p, t in planes.items()],
        "line_numbering": [[i, list(e)] for i, e in lines.items()],
    }
