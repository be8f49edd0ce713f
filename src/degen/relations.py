"""Relators induced by a degeneration's line combinatorics.

After regeneration, each line ``i`` contributes two braid-monodromy
generators that the plane identification collapses to a single involution
``g_i``.  Two lines are tangent when they bound a common plane; every other
pair commutes, whether the two lines cross at a singular point or, sharing
no vertex, meet parasitically after regeneration.  So the reduced group is
the simply-laced Coxeter group of the tangency graph modulo one word per
inner point (Rowen, Teicher & Vishne, Coxeter covers of the symmetric
groups, 2005), and `Presentation` keeps just that: the generators, the
tangent pairs and the inner-point words.  Its relators, tagged and spelled
once in `Presentation.kinds`, are in this order

* ``g_i g_i`` for every line (involution),
* the braid relation ``g_i g_j g_i g_j^-1 g_i^-1 g_j^-1`` for tangent pairs,
* the commutator ``[g_i, g_j]`` for every other pair,
* one equation per inner k-point tying the two "ends" of its closed fan.

Both pair rules read `PlanarComplex.plane_lines`.  The enumerated
presentation has no fork relators: a plane whose three sides are lines is
read by the pipeline's fork certificate, not turned into a relator.

The projective relation is omitted throughout: under the plane
identification and the involutions it freely reduces to the identity.
Every group presented here is generated by involutions, the only kind
`fpgroup.todd_coxeter` enumerates (HLT with one column per generator; Holt,
Eick & O'Brien, Handbook of Computational Group Theory, 2005, 5.1).
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterable, NamedTuple, Sequence

from .complexes import PlanarComplex, SingularPoint

# A word is a tuple of (generator, exponent) letters with exponent +1 or -1.
Word = tuple[tuple[int, int], ...]


class UnsupportedCaseError(ValueError):
    """Raised for vertex configurations outside the catalogued range."""


def word(*letters: int) -> Word:
    """Build a word from signed generator indices: ``word(1, -2)`` is g1 g2^-1."""
    return tuple((abs(g), 1 if g > 0 else -1) for g in letters)


def tangent_pairs(complex_: PlanarComplex) -> tuple[tuple[int, int], ...]:
    """Pairs of lines that bound a common plane, ascending.

    On a triangulated disk these are the pairs adjacent in the fan at their
    common vertex: two lines adjacent in a fan are two sides of the wedge
    plane between them, and two sides of a plane meet at a corner whose fan
    passes from one to the other across that plane.
    """
    pairs = {p for ls in complex_.plane_lines().values() for p in combinations(ls, 2)}
    return tuple(sorted(pairs))


def inner_point_relators(
    points: Iterable[SingularPoint],
    extra: Sequence[Word] | None = None,
) -> tuple[tuple[Word, int], ...]:
    """Relator and source vertex for each inner point.

    With lines sorted as l1 < l2 < ... the catalogued numbering schemes make
    these hold (checked against the symmetric-group images by callers):

    * k=3: ``g_l3 = g_l1 g_l2 g_l1``
    * k=4: ``g_l1 g_l2 g_l1 = g_l4 g_l3 g_l4``
    * k=5: ``g_l1 g_l2 g_l1 = g_l4 g_l5 g_l3 g_l5 g_l4``
    * k=6: no printed closed form; the relators are taken from catalogue
      data and must be passed in via ``extra`` (``None`` or empty refuses).

    Each k=3..5 relator is spelt out as ``lhs rhs^-1``; its lines are
    distinct, so no letter stands next to its inverse and it is reduced.
    """
    out: list[tuple[Word, int]] = []
    extra_used = False
    for pt in sorted(points, key=lambda p: p.vertex):
        if pt.kind != "inner":
            continue
        ls = sorted(pt.lines_cyclic)
        if pt.multiplicity == 3:
            a, b, c = ls
            rel = word(a, b, a, -c)
        elif pt.multiplicity == 4:
            a, b, c, d = ls
            rel = word(a, b, a, -d, -c, -d)
        elif pt.multiplicity == 5:
            a, b, c, d, e = ls
            rel = word(a, b, a, -d, -e, -c, -e, -d)
        elif pt.multiplicity == 6:
            if not extra or extra_used:
                raise UnsupportedCaseError(
                    f"inner 6-point at vertex {pt.vertex}: relators must come from catalogue data"
                )
            out.extend((tuple(w), pt.vertex) for w in extra)
            extra_used = True
            continue
        else:
            raise UnsupportedCaseError(
                f"inner {pt.multiplicity}-point at vertex {pt.vertex} is outside the supported range"
            )
        out.append((rel, pt.vertex))
    return tuple(out)


class Presentation(NamedTuple):
    """<g_1..g_L | g_i^2, (g_i g_j)^3 for each tangent pair, (g_i g_j)^2 for
    every other pair, words>, each tangent pair ascending.

    `kinds` lists the relator kinds once, in the module docstring's order;
    `relators` spells their items (triples in `tangent` order, commutators in
    `combinations` order), `annotations` tags each relator and `counts` takes
    each kind's length, spelling no word and leaving out an empty kind.
    """

    generators: tuple[int, ...]
    tangent: tuple[tuple[int, int], ...]
    words: tuple[Word, ...]

    def commuting(self) -> list[tuple[int, int]]:
        """The pairs of generators that are not tangent, in `combinations` order."""
        is_tangent = set(self.tangent)
        return [p for p in combinations(self.generators, 2) if p not in is_tangent]

    def kinds(self) -> tuple[tuple[str, Sequence, Callable[..., Word]], ...]:
        """Each relator kind in `relators` order: its tag, the generators, pairs
        or words its relators are spelled from, and the spelling of one."""
        return (
            ("involution", self.generators, lambda i: word(i, i)),
            ("triple", self.tangent, lambda p: word(p[0], p[1], p[0], -p[1], -p[0], -p[1])),
            ("commutator", self.commuting(), lambda p: word(p[0], p[1], -p[0], -p[1])),
            ("inner-point", self.words, lambda w: w),
        )

    @property
    def relators(self) -> tuple[Word, ...]:
        return tuple(spell(x) for _, items, spell in self.kinds() for x in items)

    @property
    def annotations(self) -> tuple[str, ...]:
        return tuple(tag for tag, items, _ in self.kinds() for _ in items)

    def counts(self) -> dict[str, int]:
        return {tag: len(items) for tag, items, _ in self.kinds() if items}


def reduced_presentation(
    complex_: PlanarComplex,
    *,
    inner6_relators: Sequence[Word] | None = None,
) -> Presentation:
    """The presentation of the plane-identified quotient of the monodromy group.

    Generators are the line indices; the presented group surjects onto the
    symmetric group on the planes by sending each line to the transposition
    of its two planes.  An inner-point relator that names a generator which
    is not a line (possible only in catalogue data) is refused with
    `UnsupportedCaseError`.
    """
    points = complex_.classify_vertices()
    tangent = tangent_pairs(complex_)
    words = []
    for rel, vertex in inner_point_relators(points, extra=inner6_relators):
        if stray := [g for g, _ in rel if g not in complex_.line_numbering]:
            raise UnsupportedCaseError(
                f"inner-point relator {word_text(rel)} at vertex {vertex}"
                f" names g{stray[0]}, which is not a line"
            )
        words.append(rel)
    return Presentation(tuple(sorted(complex_.line_numbering)), tangent, tuple(words))


# -- serialization ---------------------------------------------------------------


def word_text(w: Word) -> str:
    return " ".join(f"g{g}" if e == 1 else f"g{g}^-1" for g, e in w) or "1"


def presentation_text(p: Presentation) -> str:
    lines = ["generators: " + " ".join(f"g{g}" for g in p.generators)]
    relators = iter(p.relators)
    for tag, n in p.counts().items():
        lines.append(f"# {tag}")
        lines += [word_text(next(relators)) for _ in range(n)]
    return "\n".join(lines) + "\n"


def presentation_json(p: Presentation) -> dict:
    return {
        "format": "degen-presentation/1",
        "generators": list(p.generators),
        "relators": [
            {"word": [[g, e] for g, e in rel], "annotation": tag}
            for rel, tag in zip(p.relators, p.annotations)
        ],
    }
