"""Finitely presented group machinery for the line presentations.

Two independent tools live here.  `todd_coxeter` runs coset enumeration on a
presentation and either completes with the group order or overflows a coset
budget; running out of room is a normal, reportable outcome, not an error.
It is a single HLT (relator-first) enumerator: a generator whose square is a
relator gets one table column shared with its inverse, every other generator
gets two, and coincidence processing keeps every table entry pointing at a
live coset.  `kernel_abelianization` computes the abelianized kernel of a
permutation representation by rewriting relators along a Schreier tree,
which gives an independent check on enumeration results.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .relations import Presentation, Word, free_reduce

DEFAULT_MAX_COSETS = 1_000_000


class EnumerationError(ValueError):
    """Invalid enumeration input (bad budget or presentation)."""


@dataclass(frozen=True)
class EnumerationStats:
    """Bookkeeping totals from one enumeration run."""

    cosets_defined: int
    live_cosets: int
    coincidences: int


@dataclass(frozen=True)
class Completed:
    """The coset table closed; `order` is the subgroup index."""

    order: int
    stats: EnumerationStats


@dataclass(frozen=True)
class Overflow:
    """The run hit `limit` defined cosets (live plus dead) before closing."""

    limit: int
    stats: EnumerationStats


EnumerationOutcome = Completed | Overflow


def _columns(presentation: Presentation) -> tuple[dict[tuple[int, int], int], list[int]]:
    """Column of each letter and the inverse of each column.

    A generator g is involutory when g^2 is a relator; then g and g^-1 share
    one column (`inv[x] == x`).  Every other generator gets two columns.
    """
    involutory = set()
    for w in presentation.relators:
        w = free_reduce(w)
        if len(w) == 2 and w[0] == w[1]:
            involutory.add(w[0][0])
    col: dict[tuple[int, int], int] = {}
    inv: list[int] = []
    for g in presentation.generators:
        x = len(inv)
        if g in involutory:
            col[g, 1] = col[g, -1] = x
            inv.append(x)
        else:
            col[g, 1], col[g, -1] = x, x + 1
            inv += [x + 1, x]
    return col, inv


def _letters(
    w: Word, col: Mapping[tuple[int, int], int], inv: Sequence[int]
) -> tuple[int, ...]:
    """Encode a word as columns, freely and cyclically reduced in that alphabet."""
    out: list[int] = []
    for g, e in w:
        x = col.get((g, 1 if e > 0 else -1))
        if x is None:
            raise EnumerationError(f"generator {g} is not in the presentation")
        if out and out[-1] == inv[x]:
            out.pop()
        else:
            out.append(x)
    # conjugates are equal as relators, so cyclic reduction is safe
    while len(out) >= 2 and out[0] == inv[out[-1]]:
        out = out[1:-1]
    return tuple(out)


class _Overrun(Exception):
    pass


def _hlt(
    inv: Sequence[int],
    relators: Sequence[tuple[int, ...]],
    subgroup: Sequence[tuple[int, ...]],
    limit: int,
) -> tuple[bool, EnumerationStats]:
    """HLT enumeration; returns (completed, stats).

    The table is a flat list, one row of `len(inv)` columns per coset.
    Cosets are numbered from 1; coset 1 (the subgroup itself) never dies
    because merges keep the smaller number, and `p[c] == c` marks a live
    coset.  An entry holds the row offset `d * ncols` of the coset d it names,
    so a scan step is one list index; 0 (the unused coset 0) is undefined.
    The coincidence routine clears the back-pointer of every entry it moves
    (Holt, Eick & O'Brien, Handbook of Computational Group Theory, 5.1), so
    outside it every entry names a live coset and scans need no union-find
    lookups.  The budget counts every coset ever defined, including ones
    later merged away.
    """
    ncols = len(inv)
    zero_row = [0] * ncols
    tab = zero_row * 2
    p = [0, 1]
    defined = live = 1
    coincidences = 0

    def define(r: int, x: int) -> None:
        nonlocal defined, live
        if defined >= limit:
            raise _Overrun
        defined += 1
        live += 1
        d = len(p)
        p.append(d)
        tab.extend(zero_row)
        tab[r + x] = d * ncols
        tab[d * ncols + inv[x]] = r

    def rep(c: int) -> int:
        r = c
        while p[r] != r:
            r = p[r]
        while p[c] != r:
            p[c], c = r, p[c]
        return r

    def merge(ra: int, rb: int, queue: list[int]) -> None:
        nonlocal live, coincidences
        a, b = rep(ra // ncols), rep(rb // ncols)
        if a != b:
            if a > b:
                a, b = b, a
            p[b] = a
            live -= 1
            coincidences += 1
            queue.append(b)

    def coincidence(fa: int, fb: int) -> None:
        queue: list[int] = []
        merge(fa, fb, queue)
        for dead in queue:  # merge appends while this runs
            base = dead * ncols
            for x in range(ncols):
                d = tab[base + x]
                if not d:
                    continue
                xi = inv[x]
                tab[d + xi] = 0
                mu, nu = rep(dead) * ncols, rep(d // ncols) * ncols
                e = tab[mu + x]
                if e:
                    merge(nu, e, queue)
                    continue
                e = tab[nu + xi]
                if e:
                    merge(mu, e, queue)
                else:
                    tab[mu + x] = nu
                    tab[nu + xi] = mu

    def scan(a: int, w: tuple[int, ...], wi: tuple[int, ...]) -> None:
        """Trace w from row a both ways, defining cosets until it closes."""
        f = b = a
        i, j = 0, len(w) - 1
        while True:
            while i <= j:
                d = tab[f + w[i]]
                if not d:
                    break
                f = d
                i += 1
            if i > j:
                if f != b:
                    coincidence(f, b)
                return
            while j >= i:
                d = tab[b + wi[j]]
                if not d:
                    break
                b = d
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                tab[f + w[i]] = b
                tab[b + wi[i]] = f
                return
            define(f, w[i])

    rels = [(w, tuple(inv[x] for x in w)) for w in relators]
    try:
        for w in subgroup:  # from coset 1, whose row starts at ncols
            scan(ncols, w, tuple(inv[x] for x in w))
        alpha = 1
        while alpha < len(p):
            if p[alpha] == alpha:
                a = alpha * ncols
                for w, wi in rels:
                    # most traces close without a gap: skip the call for them
                    f = a
                    for x in w:
                        f = tab[f + x]
                        if not f:
                            break
                    if f == a:
                        continue
                    scan(a, w, wi)
                    if p[alpha] != alpha:
                        break
                else:
                    for x in range(ncols):
                        if not tab[a + x]:
                            define(a, x)
            alpha += 1
    except _Overrun:
        return False, EnumerationStats(defined, live, coincidences)
    return True, EnumerationStats(defined, live, coincidences)


def todd_coxeter(
    presentation: Presentation,
    subgroup: Iterable[Word] = (),
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> EnumerationOutcome:
    """Enumerate cosets of the subgroup generated by `subgroup` words.

    With an empty subgroup the completed order is the group order.  The
    budget counts every coset ever defined, including ones later merged
    away.
    """
    if max_cosets < 1:
        raise EnumerationError("max_cosets must be positive")
    gens = presentation.generators
    if tuple(gens) != tuple(range(1, len(gens) + 1)):
        raise EnumerationError("generators must be numbered 1..n contiguously")
    col, inv = _columns(presentation)
    relators = [r for r in (_letters(w, col, inv) for w in presentation.relators) if r]
    subgroup_words = [w for w in (_letters(v, col, inv) for v in subgroup) if w]
    completed, stats = _hlt(inv, relators, subgroup_words, max_cosets)
    if completed:
        return Completed(stats.live_cosets, stats)
    return Overflow(max_cosets, stats)


# ----------------------------------------------------------------------
# Permutation images and the abelianized kernel.
# ----------------------------------------------------------------------


def line_transpositions(complex_) -> dict[int, tuple[int, int]]:
    """Each line swaps the two planes it bounds; the standard symmetric image.

    Planes are numbered 1..n by rank of their ids, so the images lie in S_n
    whatever ids the complex uses.
    """
    rank = {p: k for k, p in enumerate(sorted(complex_.triangles), 1)}
    return {
        i: (rank[ln.planes[0]], rank[ln.planes[1]])
        for i, ln in complex_.interior_lines().items()
    }


def transposition_images(
    transpositions: Mapping[int, tuple[int, int]], degree: int
) -> dict[int, tuple[int, ...]]:
    """Expand plane pairs into full one-line permutations of 1..degree."""
    images = {}
    for g, (a, b) in transpositions.items():
        perm = list(range(1, degree + 1))
        perm[a - 1], perm[b - 1] = perm[b - 1], perm[a - 1]
        images[g] = tuple(perm)
    return images


def word_permutation(
    w: Word, images: Mapping[int, Sequence[int]], degree: int
) -> tuple[int, ...]:
    """Image of a word, composing left to right; permutations map 1..degree."""
    perm = list(range(degree))
    zero = {g: [v - 1 for v in img] for g, img in images.items()}
    for g, e in w:
        img = zero[g]
        if e < 0:
            inv = [0] * degree
            for i, v in enumerate(img):
                inv[v] = i
            img = inv
        for _ in range(abs(e)):
            perm = [img[v] for v in perm]
    return tuple(v + 1 for v in perm)


def first_broken_relator(
    presentation: Presentation, images: Mapping[int, Sequence[int]], degree: int
) -> int | None:
    """Index of the first relator not mapped to the identity, or None."""
    identity = tuple(range(1, degree + 1))
    for k, w in enumerate(presentation.relators):
        if word_permutation(w, images, degree) != identity:
            return k
    return None


@dataclass(frozen=True)
class KernelAbelianization:
    """Abelianization of the kernel of the permutation representation."""

    index: int
    rank: int
    torsion: tuple[int, ...]

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion


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
    presentation: Presentation,
    images: Mapping[int, Sequence[int]],
    degree: int,
) -> KernelAbelianization:
    """Abelianized kernel of the map sending generator g to images[g].

    The images must kill every relator, otherwise the map is not defined on
    the presented group.  Cosets of the kernel are the elements of the image
    subgroup; relators rewritten along a spanning tree of the coset graph
    present the kernel, and integer elimination reads off its abelianization.
    """
    if set(images) != set(presentation.generators):
        raise EnumerationError("images must cover exactly the generators")
    broken = first_broken_relator(presentation, images, degree)
    if broken is not None:
        w = presentation.relators[broken]
        raise EnumerationError(f"relator {w} does not map to the identity")

    zero = {g: tuple(v - 1 for v in images[g]) for g in images}
    inv = {}
    for g, p in zero.items():
        q = [0] * degree
        for i, v in enumerate(p):
            q[v] = i
        inv[g] = tuple(q)

    start = tuple(range(degree))
    coset_id = {start: 0}
    order = [start]
    tree_edges: set[tuple[int, int]] = set()
    queue = deque([start])
    while queue:
        u = queue.popleft()
        ui = coset_id[u]
        for g in sorted(images):
            for p, via in ((zero[g], "fwd"), (inv[g], "bwd")):
                v = tuple(p[x] for x in u)
                if v not in coset_id:
                    coset_id[v] = len(order)
                    order.append(v)
                    edge = (ui, g) if via == "fwd" else (coset_id[v], g)
                    tree_edges.add(edge)
                    queue.append(v)
    index = len(order)

    edge_col: dict[tuple[int, int], int] = {}
    for u in range(index):
        for g in sorted(images):
            e = (u, g)
            if e not in tree_edges and e not in edge_col:
                edge_col[e] = len(edge_col)

    def trace(u: int, w: Word) -> dict[int, int]:
        row: dict[int, int] = {}
        perm_u = order[u]
        for g, e in w:
            for _ in range(abs(e)):
                if e > 0:
                    v = tuple(zero[g][x] for x in perm_u)
                    edge = (coset_id[perm_u], g)
                    delta = 1
                else:
                    v = tuple(inv[g][x] for x in perm_u)
                    edge = (coset_id[v], g)
                    delta = -1
                if edge not in tree_edges:
                    c = edge_col[edge]
                    row[c] = row.get(c, 0) + delta
                    if not row[c]:
                        del row[c]
                perm_u = v
        return row

    rows = []
    for u in range(index):
        for w in presentation.relators:
            row = trace(u, w)
            if row:
                rows.append(row)

    ncols = len(edge_col)
    units, residue = _unit_eliminate(rows)
    remaining_cols = sorted({c for row in residue for c in row})
    dense = [[row.get(c, 0) for c in remaining_cols] for row in residue]
    dense_factors = smith_normal_form(dense) if dense else ()
    rank = ncols - units - len(dense_factors)
    torsion = tuple(f for f in dense_factors if f > 1)
    return KernelAbelianization(index=index, rank=rank, torsion=torsion)
