"""Finitely presented group machinery for the line presentations.

`todd_coxeter` runs coset enumeration on a presentation over the subgroup
generated by given words and either completes with the index or overflows a
coset budget; running out of room is a normal, reportable outcome, not an
error, and both come back as `EnumerationStats`.
The pipeline enumerates over a subgroup of known order, so the index times
that order is the group order.
It is a single HLT (relator-first) enumerator for groups generated by
involutions, which the reduced presentations are: every generator's square is
a relator, so a generator is its own inverse and gets one table column, and
coincidence processing keeps every table entry pointing at a live coset.
The map onto the symmetric group of the planes sends each line to the
transposition of the two planes it bounds, as `PlanarComplex.line_planes`
gives them.  `first_broken_relator` checks that those transpositions kill
the relators it is given, so a presentation whose numbering breaks one is
refused before any coset is enumerated.  The pipeline gives it only the
inner-point relators: under any numbering the involutions, braid relators
and commutators die in S_n (proved in `pipeline.decide`).
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .relations import Presentation, Word

DEFAULT_MAX_COSETS = 1_000_000


class EnumerationError(ValueError):
    """Invalid enumeration input (bad budget or presentation)."""


class EnumerationStats(NamedTuple):
    """Bookkeeping totals from one enumeration run.

    When `completed`, the table closed and `live_cosets` is the subgroup
    index; otherwise the run stopped when `cosets_defined` (live plus dead)
    reached the budget.
    """

    cosets_defined: int
    live_cosets: int
    coincidences: int
    completed: bool


def _letters(w: Word, ngens: int) -> tuple[int, ...]:
    """Encode a word as columns, freely and cyclically reduced.

    Column x is generator x + 1, and g^-1 is g, so equal neighbours cancel.
    """
    out: list[int] = []
    for g, _ in w:
        if not 1 <= g <= ngens:
            raise EnumerationError(f"generator {g} is not in the presentation")
        if out and out[-1] == g - 1:
            out.pop()
        else:
            out.append(g - 1)
    # conjugates are equal as relators, so cyclic reduction is safe
    while len(out) >= 2 and out[0] == out[-1]:
        out = out[1:-1]
    return tuple(out)


class _Overrun(Exception):
    pass


def _hlt(
    ncols: int,
    relators: Sequence[tuple[int, ...]],
    subgroup: Sequence[tuple[int, ...]],
    limit: int,
) -> EnumerationStats:
    """HLT enumeration over involutions, one column per generator.

    The table is a flat list, one row of `ncols` columns per coset.
    Cosets are numbered from 1; coset 1 (the subgroup itself) never dies
    because merges keep the smaller number, and `p[c] == c` marks a live
    coset.  An entry holds the row offset `d * ncols` of the coset d it names,
    so a scan step is one list index; 0 (the unused coset 0) is undefined.
    Each generator is its own inverse, so c·x = d stores d in column x of c
    and c in column x of d, and a scan reads a relator backwards through the
    same columns.  The coincidence routine clears the back-pointer of every
    entry it moves (Holt, Eick & O'Brien, Handbook of Computational Group
    Theory, 5.1), so outside it every entry names a live coset and scans need
    no union-find lookups.  The budget counts every coset ever defined,
    including ones later merged away.
    """
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
        tab[d * ncols + x] = r

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
                tab[d + x] = 0
                mu, nu = rep(dead) * ncols, rep(d // ncols) * ncols
                e = tab[mu + x]
                if e:
                    merge(nu, e, queue)
                    continue
                e = tab[nu + x]
                if e:
                    merge(mu, e, queue)
                else:
                    tab[mu + x] = nu
                    tab[nu + x] = mu

    def scan(a: int, w: tuple[int, ...]) -> None:
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
                d = tab[b + w[j]]
                if not d:
                    break
                b = d
                j -= 1
            if j < i:
                coincidence(f, b)
                return
            if j == i:
                tab[f + w[i]] = b
                tab[b + w[i]] = f
                return
            define(f, w[i])

    try:
        for w in subgroup:  # from coset 1, whose row starts at ncols
            scan(ncols, w)
        alpha = 1
        while alpha < len(p):
            if p[alpha] == alpha:
                a = alpha * ncols
                for w in relators:
                    scan(a, w)
                    if p[alpha] != alpha:
                        break
                else:
                    for x in range(ncols):
                        if not tab[a + x]:
                            define(a, x)
            alpha += 1
    except _Overrun:
        return EnumerationStats(defined, live, coincidences, completed=False)
    return EnumerationStats(defined, live, coincidences, completed=True)


def todd_coxeter(
    presentation: Presentation,
    subgroup: Iterable[Word] = (),
    *,
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> EnumerationStats:
    """Enumerate cosets of the subgroup generated by `subgroup` words.

    Every generator must be an involution: `g g` or `g^-1 g^-1` must be a
    relator, as `reduced_presentation` makes it for every line.  With an
    empty subgroup the completed order is the group order.  The budget
    counts every coset ever defined, including ones later merged away, so at
    overflow `cosets_defined` equals `max_cosets`.
    """
    if max_cosets < 1:
        raise EnumerationError("max_cosets must be positive")
    gens = presentation.generators
    if tuple(gens) != tuple(range(1, len(gens) + 1)):
        raise EnumerationError("generators must be numbered 1..n contiguously")
    squares = {w[0][0] for w in presentation.relators if len(w) == 2 and w[0] == w[1]}
    for g in gens:
        if g not in squares:
            raise EnumerationError(
                f"generator {g} is not an involution: its square is not a relator"
            )
    ngens = len(gens)
    relators = []
    for w in presentation.relators:
        if len(w) == 2 and w[0] == w[1] and 1 <= w[0][0] <= ngens:
            continue  # a square the check above read; it would reduce to nothing
        r = _letters(w, ngens)  # names a generator out of range
        if r:
            relators.append(r)
    subgroup_words = [w for w in (_letters(v, ngens) for v in subgroup) if w]
    return _hlt(ngens, relators, subgroup_words, max_cosets)


# ----------------------------------------------------------------------
# The symmetric image.
# ----------------------------------------------------------------------


def first_broken_relator(
    presentation: Presentation, line_planes: Mapping[int, tuple[int, int]]
) -> int | None:
    """Index of the first relator not mapped to the identity, or None.

    Each letter swaps its generator's two planes, under any labels.  A word
    of involutions is the identity read either way, so exponents and
    composition order do not matter.
    """
    for k, w in enumerate(presentation.relators):
        at: dict[int, int] = {}
        for g, _ in w:
            a, b = line_planes[g]
            at[a], at[b] = at.get(b, b), at.get(a, a)
        if any(v != p for p, v in at.items()):
            return k
    return None
