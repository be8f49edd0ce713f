"""Decision pipeline for triviality of the cover's fundamental group.

The verdict combines three ingredients, applied strictly in this order:

1. A branch certificate: a plane whose three sides are lines and whose
   corners all lie on the boundary lies on no cycle of the line-dual graph,
   which forces a nontrivial group regardless of any generator equalities.
2. Equality propagation: local rules at low-multiplicity singular points
   (optionally extended by catalogued hints) establish which lines have
   their two regenerated generators identified.  Only when every line is
   covered does the reduced presentation present the group in question.
3. Coset enumeration of the reduced presentation over the subgroup of a
   chain of k lines that obey the Coxeter relations of type A_k, which has
   order (k+1)!: the group order is the index times (k+1)!.  Order n! means
   the group is the symmetric group and the cover's fundamental group is
   trivial; a larger order certifies nontriviality; running out of the
   `fpgroup.DEFAULT_MAX_COSETS` budget leaves the case undecided.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Iterable, Mapping, NamedTuple, Sequence

from .complexes import PlanarComplex, SingularPoint
from .fpgroup import EnumerationStats, first_broken_relator, todd_coxeter
from .relations import (
    Presentation,
    UnsupportedCaseError,
    Word,
    inner_point_relators,
    reduced_presentation,
    word,
    word_text,
)

if TYPE_CHECKING:
    from .catalog import CaseHint


class PipelineError(ValueError):
    """Inconsistent pipeline state (for example an impossible coset count)."""


class DerivationStep(NamedTuple):
    """One established equality and the rule application that produced it."""

    line: int
    rule: str
    vertex: int | None
    used: tuple[int, ...]
    citation: str | None = None

    def to_json(self) -> dict:
        out = {"line": self.line, "rule": self.rule, "used": list(self.used)}
        if self.vertex is not None:
            out["vertex"] = self.vertex
        if self.citation is not None:
            out["citation"] = self.citation
        return out


class EqualityFacts(NamedTuple):
    """Fixed point of equality propagation, with a replayable log."""

    lines: frozenset[int]
    established: frozenset[int]
    steps: tuple[DerivationStep, ...]
    stale_hints: tuple[CaseHint, ...]

    @property
    def complete(self) -> bool:
        return self.established >= self.lines

    def to_json(self) -> dict:
        return {
            "lines": sorted(self.lines),
            "established": sorted(self.established),
            "complete": self.complete,
            "steps": [s.to_json() for s in self.steps],
            "stale_hints": [h.to_json() for h in self.stale_hints],
        }


def propagate_equalities(
    points: Iterable[SingularPoint],
    hints: Iterable[CaseHint] = (),
) -> EqualityFacts:
    """Close the equality set under the local rules and applicable hints.

    Rules fire per singular point on its sorted line indices l1 < l2 < ...:
    a branch point of one line gives l1; a two-line point transfers an
    equality to the other line; an inner triple point gives l1 outright and
    transfers between l2 and l3; an outer triple point gives all three once
    l1 or l2 is known.  Points of four or more lines propagate nothing on
    their own; printed derivations for them arrive as hints.  Iteration
    order is fixed (vertices ascending, then hints in catalog order) so the
    step log is reproducible.
    """
    pts = [(p, sorted(p.lines_cyclic)) for p in sorted(points, key=lambda p: p.vertex)]
    pending = list(hints)
    lines = frozenset(i for _, srt in pts for i in srt)
    eq: set[int] = set()
    steps: list[DerivationStep] = []

    def establish(line: int, rule: str, vertex: int | None, used: Iterable[int],
                  citation: str | None = None) -> bool:
        if line in eq:
            return False
        eq.add(line)
        steps.append(DerivationStep(line, rule, vertex, tuple(sorted(used)), citation))
        return True

    changed = True
    while changed:
        changed = False
        for p, srt in pts:
            if p.kind == "outer" and p.multiplicity == 1:
                changed |= establish(srt[0], "one-point", p.vertex, ())
            elif p.kind == "outer" and p.multiplicity == 2:
                a, b = srt
                if a in eq and b not in eq:
                    changed |= establish(b, "two-point", p.vertex, (a,))
                elif b in eq and a not in eq:
                    changed |= establish(a, "two-point", p.vertex, (b,))
            elif p.kind == "inner" and p.multiplicity == 3:
                a, b, c = srt
                changed |= establish(a, "inner-three-point", p.vertex, ())
                if b in eq and c not in eq:
                    changed |= establish(c, "inner-three-point", p.vertex, (b,))
                elif c in eq and b not in eq:
                    changed |= establish(b, "inner-three-point", p.vertex, (c,))
            elif p.kind == "outer" and p.multiplicity == 3:
                a, b, c = srt
                if (a in eq or b in eq) and not {a, b, c} <= eq:
                    seed = a if a in eq else b
                    for x in (a, b, c):
                        if x not in eq:
                            changed |= establish(
                                x, "outer-three-point", p.vertex, (seed,)
                            )
        for h in list(pending):
            if h.preconditions <= eq:
                pending.remove(h)
                changed |= establish(
                    h.line, "hint", None, h.preconditions, h.citation
                )
    return EqualityFacts(
        lines=lines,
        established=frozenset(eq),
        steps=tuple(steps),
        stale_hints=tuple(pending),
    )


# ----------------------------------------------------------------------
# Branch certificate.
# ----------------------------------------------------------------------


class ForkVertex(NamedTuple):
    """A plane of line-valency 3 lying on no cycle of the dual graph."""

    plane: int
    lines: tuple[int, int, int]

    def to_json(self) -> dict:
        return {"kind": "fork-vertex", "plane": self.plane, "lines": list(self.lines)}


class CosetOrder(NamedTuple):
    """The enumerated order of the reduced group."""

    order: int

    def to_json(self) -> dict:
        return {"kind": "coset-order", "order": self.order}


def fork_certificate(complex_: PlanarComplex) -> ForkVertex | None:
    """First plane (by number) whose three sides are lines and corners all outer.

    On a triangulated disk these are the planes of line-valency 3 on no dual
    cycle.  The fan around an inner vertex is a dual cycle through each plane
    at it.  Conversely, a dual cycle crosses each of its lines once, so one
    end of each such line lies inside the cycle, off the boundary, and each
    plane on the cycle has two such lines as sides.
    """
    inner = {p.vertex for p in complex_.classify_vertices() if p.kind == "inner"}
    for plane, lines in complex_.plane_lines().items():
        if len(lines) == 3 and inner.isdisjoint(complex_.triangles[plane]):
            return ForkVertex(plane=plane, lines=lines)
    return None


# ----------------------------------------------------------------------
# Verdict assembly.
# ----------------------------------------------------------------------


class Verdict(NamedTuple):
    """Outcome of the pipeline together with everything needed to audit it.

    `subgroup` is the line chain whose cosets were enumerated, and
    `presentation` the presentation they were enumerated in, which a report
    reads its relator counts from; `to_json` writes `subgroup` as
    `enumeration.subgroup` and leaves `presentation` out.
    """

    outcome: str
    reason: str
    engine_mode: str
    certificate: ForkVertex | CosetOrder | None
    equalities: EqualityFacts
    enumeration: EnumerationStats | None = None
    subgroup: tuple[int, ...] = ()
    presentation: Presentation | None = None

    def to_json(self) -> dict:
        out = {
            "outcome": self.outcome,
            "reason": self.reason,
            "engine_mode": self.engine_mode,
            "certificate": self.certificate.to_json() if self.certificate else None,
            "equalities": self.equalities.to_json(),
        }
        if self.enumeration is not None:
            s = self.enumeration
            out["enumeration"] = {
                "cosets_defined": s.cosets_defined,
                "live_cosets": s.live_cosets,
                "coincidences": s.coincidences,
                "subgroup": list(self.subgroup),
            }
        return out


def enumeration_verdict(stats: EnumerationStats, expected_order: int, *,
                        engine_mode: str, equalities: EqualityFacts,
                        subgroup: tuple[int, ...] = ()) -> Verdict:
    """Map an enumeration result to a verdict; exposed for direct testing.

    `stats` counts the cosets of the `subgroup` chain, of order (k+1)!.
    """
    if not stats.completed:
        verdict, certificate = "undecided", None
        reason = f"enumeration overflowed at {stats.cosets_defined} cosets"
    else:
        order = stats.live_cosets * math.factorial(len(subgroup) + 1)
        if order < expected_order:
            raise PipelineError(
                f"enumerated order {order} is below the symmetric image"
                f" order {expected_order}"
            )
        verdict = "trivial" if order == expected_order else "nontrivial"
        certificate = CosetOrder(order)
        reason = f"reduced group has order {order}"
        if order > expected_order:
            reason += f", exceeding {expected_order}"
    return Verdict(
        outcome=verdict,
        reason=reason,
        engine_mode=engine_mode,
        certificate=certificate,
        equalities=equalities,
        enumeration=stats,
        subgroup=subgroup,
    )


def _coxeter_chain(line_planes: Mapping[int, tuple[int, int]]) -> tuple[int, ...]:
    """Longest line chain l1..lk whose generators obey the relations of A_k.

    `line_planes` maps each line to its two plane ids, ascending, as
    `PlanarComplex.line_planes` gives them.  The chain is the first longest
    simple path of the dual graph, whose vertices are the planes and whose
    edges are the lines, searched from the planes in ascending id order; a
    depth-first search stops once one path passes through every plane.
    `reduced_presentation` holds every relator the chain needs, by
    construction:

    * it has g_l g_l for every line;
    * consecutive chain lines both bound the plane between them, so they are
      tangent and get the braid relator;
    * non-consecutive chain lines have disjoint plane pairs on a simple path,
      so they bound no common plane and get the commutator.
    """
    adj: dict[int, list[tuple[int, int]]] = {}
    for line, (p, q) in sorted(line_planes.items()):
        adj.setdefault(p, []).append((line, q))
        adj.setdefault(q, []).append((line, p))
    best: tuple[int, ...] = ()
    for root in sorted(adj):
        path, chain = [root], []
        todo = [iter(adj[root])]  # the untried (line, plane) steps of each plane on the path
        while todo:
            for line, q in todo[-1]:
                if q not in path:
                    path.append(q)
                    chain.append(line)
                    if len(chain) > len(best):
                        best = tuple(chain)
                        if len(best) == len(adj) - 1:
                            return best
                    todo.append(iter(adj[q]))
                    break
            else:  # every step from the last plane is tried: back up one plane
                todo.pop()
                if todo:
                    path.pop()
                    chain.pop()
    return best


def decide(source, *, use_hints: bool = True) -> Verdict:
    """Run the full pipeline on a complex or a catalog record.

    `source` is either a `PlanarComplex` or any object carrying `.complex`,
    `.hints`, and `.extra_inner_relators` attributes (a catalog record).
    With `use_hints=False` the catalogued hints are ignored, which reports
    what the local rules alone can settle.  A line numbering under which
    some relator fails in the symmetric image is refused with
    `UnsupportedCaseError` before any coset is enumerated.  Only an
    inner-point relator can fail, so only those are checked: each line maps
    to the transposition t_l of its two planes, and under every numbering
    g_i g_i maps to t_i t_i = 1; two lines that bound a common plane map to
    (a b) and (b c), whose product is a 3-cycle, so the braid relator maps to
    (t_i t_j)^3 = 1, or, sharing both planes, to one transposition six times;
    and two lines with no common plane map to disjoint transpositions, which
    commute.  The first broken relator, its refusal text and its vertex are
    those a check of every relator finds.  The fork rule runs before that
    check, and may: it reads only the plane table and which corners are
    inner, never the presentation, and neither depends on the line
    numbering, so a fork disk whose numbering breaks a relator is still
    nontrivial by its fork.

    The enumeration runs over H = <g_l1, ..., g_lk> for the chain that
    `_coxeter_chain` picks, and the group order is the index of H times
    (k+1)!.  That is exact for either verdict: the reduced presentation holds
    the relations of type A_k on the chain (proved in `_coxeter_chain`), so H
    is a quotient of that Coxeter group, S_{k+1} (Moore), and |H| <= (k+1)!;
    and since no relator is broken, the map sending each line to the
    transposition of its planes is defined on the group and carries H onto
    the symmetric group of the chain's k+1 planes, so |H| >= (k+1)!.  The
    empty chain is the trivial subgroup.  The relator check and the chain
    both read `PlanarComplex.line_planes`, labelled by plane id.
    """
    complex_ = getattr(source, "complex", source)
    if not isinstance(complex_, PlanarComplex):
        raise PipelineError(f"cannot decide on {type(source).__name__}")
    hints: Sequence[CaseHint] = getattr(source, "hints", ())
    extra: Sequence[Word] | None = getattr(source, "extra_inner_relators", None)
    engine_mode = "with-hints" if use_hints else "lemmas-only"

    points = complex_.classify_vertices()
    facts = propagate_equalities(points, hints if use_hints else ())

    fork = fork_certificate(complex_)
    if fork is not None:
        return Verdict(
            outcome="nontrivial",
            reason=(
                f"plane {fork.plane} meets lines"
                f" {', '.join(map(str, fork.lines))} and lies on no dual cycle"
            ),
            engine_mode=engine_mode,
            certificate=fork,
            equalities=facts,
        )

    if not facts.complete:
        missing = sorted(facts.lines - facts.established)
        return Verdict(
            outcome="undecided",
            reason=f"no equality derived for lines {', '.join(map(str, missing))}",
            engine_mode=engine_mode,
            certificate=None,
            equalities=facts,
        )

    pres = reduced_presentation(complex_, inner6_relators=extra)
    n = len(complex_.triangles)
    line_planes = complex_.line_planes()
    broken = first_broken_relator(pres.words, line_planes)
    if broken is not None:
        rel, vertex = inner_point_relators(points, extra)[broken]
        raise UnsupportedCaseError(
            f"line numbering breaks the inner-point relator {word_text(rel)}"
            f" at vertex {vertex}: it is not the identity in S_{n}"
        )
    chain = _coxeter_chain(line_planes)
    stats = todd_coxeter(pres, [word(l) for l in chain])
    return enumeration_verdict(
        stats, math.factorial(n), engine_mode=engine_mode, equalities=facts,
        subgroup=chain,
    )._replace(presentation=pres)
