"""Enumeration helpers that only the tests use: level counts and catalog matching."""

from dataclasses import dataclass
from typing import Iterable, Sequence

from degen.enumerator import (
    MAX_TRIANGLES_GUARD,
    CombinatorialMap,
    canonical_form,
    enumerate_maps,
)


def enumeration_counts(
    up_to: int, *, guard: int = MAX_TRIANGLES_GUARD
) -> tuple[int, ...]:
    """Class counts for 1..up_to triangles."""
    return tuple(len(enumerate_maps(n, guard=guard)) for n in range(1, up_to + 1))


@dataclass(frozen=True)
class MatchReport:
    """Pairing of enumerated maps with catalog records via canonical forms."""

    matched: tuple[tuple[int, str], ...]
    unmatched_maps: tuple[int, ...]
    unmatched_records: tuple[str, ...]

    @property
    def is_bijection(self) -> bool:
        return not self.unmatched_maps and not self.unmatched_records


def match_catalog(
    maps: Sequence[CombinatorialMap], records: Iterable
) -> MatchReport:
    """Pair maps with catalog records; duplicates on either side break the pairing."""
    by_form: dict[tuple[int, ...], list[int]] = {}
    for i, m in enumerate(maps):
        by_form.setdefault(canonical_form(m), []).append(i)
    matched = []
    unmatched_records = []
    used: set[int] = set()
    for record in records:
        form = canonical_form(CombinatorialMap.from_complex(record.complex))
        bucket = by_form.get(form, [])
        free = [i for i in bucket if i not in used]
        if free:
            matched.append((free[0], record.name))
            used.add(free[0])
        else:
            unmatched_records.append(record.name)
    unmatched_maps = tuple(i for i in range(len(maps)) if i not in used)
    return MatchReport(
        matched=tuple(matched),
        unmatched_maps=unmatched_maps,
        unmatched_records=tuple(unmatched_records),
    )
