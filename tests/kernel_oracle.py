"""Reference algorithm for the abelianized kernel, kept only as a test oracle.

`kernel_abelianization` takes the transpositions that `line_transpositions`
gives (each line to the two planes it bounds, numbered 1..n by rank of their
ids), runs a breadth-first search over the image in S_n, rewrites every
relator at every coset along the Schreier tree (Reidemeister-Schreier), and
reads the abelianized kernel off the relation matrix: `_unit_eliminate`
strikes the +-1 pivots and `smith_normal_form` factors the rest (Holt, Eick &
O'Brien, Handbook of Computational Group Theory, 2005).  It is a second engine,
independent of coset enumeration, that tests check `todd_coxeter` and the
pipeline's verdicts against.  It reads only `generators` and `relators`, so
it takes a `Presentation` or any `Relators`, whose generators need not be
involutions.
"""

from __future__ import annotations

from collections import deque
from typing import Mapping, NamedTuple, Sequence

from degen.complexes import PlanarComplex
from degen.fpgroup import EnumerationError, first_broken_relator
from degen.relations import Word


class Relators(NamedTuple):
    """A presentation spelled out as relators, with no relator implied."""

    generators: tuple[int, ...]
    relators: tuple[Word, ...]


class KernelAbelianization(NamedTuple):
    """Abelianization of the kernel of the permutation representation."""

    index: int
    rank: int
    torsion: tuple[int, ...]


def line_transpositions(complex_: PlanarComplex) -> dict[int, tuple[int, int]]:
    """Each line's two planes from `PlanarComplex.line_planes`, each plane
    numbered 1..n by rank of its id, so the images lie in S_n whatever ids
    the complex uses."""
    rank = {p: k for k, p in enumerate(sorted(complex_.triangles), 1)}
    return {line: (rank[a], rank[b]) for line, (a, b) in complex_.line_planes().items()}


def smith_normal_form(matrix: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Nonzero invariant factors d1 | d2 | ... of an integer matrix."""
    a = [list(map(int, row)) for row in matrix]
    factors: list[int] = []
    while a and a[0]:
        pivot = None
        best = None
        for i, row in enumerate(a):
            for j, v in enumerate(row):
                if v and (best is None or abs(v) < best):
                    best = abs(v)
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        a[0], a[i] = a[i], a[0]
        for row in a:
            row[0], row[j] = row[j], row[0]
        while True:
            if a[0][0] < 0:
                a[0] = [-v for v in a[0]]
            p = a[0][0]
            dirty = False
            for i in range(1, len(a)):
                q = a[i][0] // p
                if q:
                    a[i] = [v - q * w for v, w in zip(a[i], a[0])]
                if a[i][0]:
                    a[0], a[i] = a[i], a[0]
                    dirty = True
                    break
            if dirty:
                continue
            for j in range(1, len(a[0])):
                q = a[0][j] // p
                if q:
                    for row in a:
                        row[j] -= q * row[0]
                if a[0][j]:
                    for row in a:
                        row[0], row[j] = row[j], row[0]
                    dirty = True
                    break
            if dirty:
                continue
            offender = None
            for i in range(1, len(a)):
                for j in range(1, len(a[i])):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender:
                    break
            if offender is None:
                break
            a[0] = [v + w for v, w in zip(a[0], a[offender])]
        factors.append(a[0][0])
        a = [row[1:] for row in a[1:]]
    return tuple(f for f in factors if f)


def _unit_eliminate(
    rows: list[dict[int, int]],
) -> tuple[int, list[dict[int, int]]]:
    """Strike rows and columns through +-1 pivots; returns (units, residue).

    Each strike removes one invariant factor equal to 1 without changing the
    others, shrinking the matrix before the dense normal form runs.
    """
    by_col: dict[int, set[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            by_col.setdefault(c, set()).add(i)
    alive = set(range(len(rows)))
    queue = deque(
        (i, c) for i in alive for c, v in rows[i].items() if abs(v) == 1
    )
    units = 0
    while queue:
        i, c = queue.popleft()
        if i not in alive:
            continue
        v = rows[i].get(c, 0)
        if abs(v) != 1:
            continue
        if v == -1:
            rows[i] = {k: -w for k, w in rows[i].items()}
        pivot = rows[i]
        for k in list(by_col.get(c, ())):
            if k == i or k not in alive:
                continue
            factor = rows[k].get(c, 0)
            if not factor:
                continue
            row = rows[k]
            for pc, pv in pivot.items():
                new = row.get(pc, 0) - factor * pv
                if new:
                    row[pc] = new
                    by_col.setdefault(pc, set()).add(k)
                    if abs(new) == 1:
                        queue.append((k, pc))
                else:
                    row.pop(pc, None)
        alive.discard(i)
        for pc in pivot:
            by_col.get(pc, set()).discard(i)
        by_col.pop(c, None)
        units += 1
    residue = [rows[i] for i in sorted(alive) if rows[i]]
    return units, residue


def kernel_abelianization(
    presentation: Relators,
    transpositions: Mapping[int, tuple[int, int]],
    degree: int,
) -> KernelAbelianization:
    """Abelianized kernel of the map sending generator g to the transposition
    of the planes `transpositions[g]`, two distinct numbers in 1..degree.

    The transpositions must kill every relator, otherwise the map is not
    defined on the presented group.  Cosets of the kernel are the elements of
    the image subgroup; relators rewritten along a spanning tree of the coset
    graph present the kernel, and integer elimination reads off its
    abelianization.
    """
    if set(transpositions) != set(presentation.generators):
        raise EnumerationError("transpositions must cover exactly the generators")
    gens = sorted(transpositions)
    perms = []
    for g in gens:
        a, b = transpositions[g]
        if a == b or not (1 <= a <= degree and 1 <= b <= degree):
            raise EnumerationError(f"generator {g} does not swap two planes in 1..{degree}")
        perm = list(range(degree))
        perm[a - 1], perm[b - 1] = b - 1, a - 1
        perms.append(perm)
    broken = first_broken_relator(presentation.relators, transpositions)
    if broken is not None:
        w = presentation.relators[broken]
        raise EnumerationError(f"relator {w} does not map to the identity")

    ngens = len(gens)
    # Forward BFS over the image: element c goes to nxt[k][c] under generator
    # k, and edge (c, k) has id c * ngens + k; tree holds the Schreier tree.
    elements = [tuple(range(degree))]
    ids = {elements[0]: 0}
    nxt: list[list[int]] = [[] for _ in gens]
    tree: set[int] = set()
    for c, u in enumerate(elements):  # elements grows as the BFS runs
        for k, p in enumerate(perms):
            v = tuple(p[x] for x in u)
            if v not in ids:
                ids[v] = len(elements)
                elements.append(v)
                tree.add(c * ngens + k)
            nxt[k].append(ids[v])
    index = len(elements)
    column = {g: k for k, g in enumerate(gens)}

    rows = []
    for start in range(index):
        for w in presentation.relators:
            row: dict[int, int] = {}
            c = start
            for g, e in w:
                k = column[g]
                d = nxt[k][c]
                # an involution is its own inverse: g^-1 at c crosses edge (c·g, g)
                edge = (c if e > 0 else d) * ngens + k
                c = d
                if edge not in tree:
                    row[edge] = row.get(edge, 0) + e
                    if not row[edge]:
                        del row[edge]
            if row:
                rows.append(row)

    ncols = index * ngens - len(tree)
    units, residue = _unit_eliminate(rows)
    remaining_cols = sorted({c for row in residue for c in row})
    dense = [[row.get(c, 0) for c in remaining_cols] for row in residue]
    dense_factors = smith_normal_form(dense) if dense else ()
    rank = ncols - units - len(dense_factors)
    torsion = tuple(f for f in dense_factors if f > 1)
    return KernelAbelianization(index=index, rank=rank, torsion=torsion)
