"""Relators induced by a degeneration's line combinatorics.

After regeneration, each line ``i`` contributes two braid-monodromy
generators that the plane identification collapses to a single involution
``g_i``.  Two lines are tangent when they bound a common plane; every other
pair commutes, whether the two lines cross at a singular point or, sharing
no vertex, meet parasitically after regeneration.  The induced relators are:

* ``g_i g_i`` for every line (involution),
* the braid relation ``g_i g_j g_i g_j^-1 g_i^-1 g_j^-1`` for tangent pairs,
* the commutator ``[g_i, g_j]`` for every other pair,
* one equation per inner k-point tying the two "ends" of its closed fan.

Both pair rules read `PlanarComplex.plane_lines`.  The enumerated
presentation has no fork relators: a plane whose three sides are lines is
read by the pipeline's fork certificate, not turned into a relator.

The projective relation is omitted throughout: under the plane
identification and the involutions it freely reduces to the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .complexes import PlanarComplex, SingularPoint

# A word is a tuple of (generator, exponent) letters with exponent +1 or -1.
Letter = tuple[int, int]
Word = tuple[Letter, ...]


class UnsupportedCaseError(ValueError):
    """Raised for vertex configurations outside the catalogued range."""


def word(*letters: int) -> Word:
    """Build a word from signed generator indices: ``word(1, -2)`` is g1 g2^-1."""
    return tuple((abs(g), 1 if g > 0 else -1) for g in letters)


def inverse(w: Word) -> Word:
    return tuple((g, -e) for g, e in reversed(w))


def free_reduce(w: Word) -> Word:
    out: list[Letter] = []
    for g, e in w:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def involution_relator(i: int) -> Word:
    return ((i, 1), (i, 1))


def triple_relator(i: int, j: int) -> Word:
    """Braid relation for a tangent pair, in commutator-like form."""
    if i > j:
        i, j = j, i
    return ((i, 1), (j, 1), (i, 1), (j, -1), (i, -1), (j, -1))


def commutator_relator(i: int, j: int) -> Word:
    if i > j:
        i, j = j, i
    return ((i, 1), (j, 1), (i, -1), (j, -1))


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
    """
    out: list[tuple[Word, int]] = []
    extra_used = False
    for pt in sorted(points, key=lambda p: p.vertex):
        if pt.kind != "inner":
            continue
        ls = sorted(pt.lines_cyclic)
        if pt.multiplicity == 3:
            a, b, c = ls
            rel = free_reduce(word(a, b, a) + inverse(word(c)))
        elif pt.multiplicity == 4:
            a, b, c, d = ls
            rel = free_reduce(word(a, b, a) + inverse(word(d, c, d)))
        elif pt.multiplicity == 5:
            a, b, c, d, e = ls
            rel = free_reduce(word(a, b, a) + inverse(word(d, e, c, e, d)))
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


@dataclass(frozen=True)  # a NamedTuple cannot run the arity check on construction
class Presentation:
    """A finite presentation with one annotation tag per relator."""

    generators: tuple[int, ...]
    relators: tuple[Word, ...]
    annotations: tuple[str, ...]

    def __post_init__(self):
        if len(self.relators) != len(self.annotations):
            raise ValueError("each relator needs exactly one annotation")

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for tag in self.annotations:
            out[tag] = out.get(tag, 0) + 1
        return out


def reduced_presentation(
    complex_: PlanarComplex,
    *,
    inner6_relators: Sequence[Word] | None = None,
) -> Presentation:
    """The presentation of the plane-identified quotient of the monodromy group.

    Generators are the line indices; the presented group surjects onto the
    symmetric group on the planes by sending each line to the transposition
    of its two planes.  Every generator's square is a relator.  An inner-point
    relator that names a generator which is not a line (possible only in
    catalogue data) is refused with `UnsupportedCaseError`.
    """
    points = complex_.classify_vertices()
    generators = tuple(sorted(complex_.line_numbering))
    tangent = tangent_pairs(complex_)
    relators = [involution_relator(i) for i in generators]
    relators += [triple_relator(i, j) for i, j in tangent]
    is_tangent = set(tangent)
    relators += [
        commutator_relator(i, j)
        for i, j in combinations(generators, 2)
        if (i, j) not in is_tangent
    ]
    tags = ["involution"] * len(generators) + ["triple"] * len(tangent)
    tags += ["commutator"] * (len(relators) - len(tags))
    for rel, vertex in inner_point_relators(points, extra=inner6_relators):
        for g, _ in rel:
            if g not in complex_.line_numbering:
                raise UnsupportedCaseError(
                    f"inner-point relator {word_text(rel)} at vertex {vertex}"
                    f" names g{g}, which is not a line"
                )
        relators.append(rel)
        tags.append("inner-point")
    return Presentation(generators, tuple(relators), tuple(tags))


# -- serialization ---------------------------------------------------------------


def word_text(w: Word) -> str:
    return " ".join(f"g{g}" if e == 1 else f"g{g}^-1" for g, e in w) or "1"


def presentation_text(p: Presentation) -> str:
    lines = ["generators: " + " ".join(f"g{g}" for g in p.generators)]
    last_tag = None
    for rel, tag in zip(p.relators, p.annotations):
        if tag != last_tag:
            lines.append(f"# {tag}")
            last_tag = tag
        lines.append(word_text(rel))
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


def word_from_json(data: Sequence[Sequence[int]]) -> Word:
    w = tuple((int(g), int(e)) for g, e in data)
    if any(e not in (1, -1) for _, e in w):
        raise ValueError(f"exponents must be +-1: {data}")
    return w
