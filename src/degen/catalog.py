"""Access to the bundled catalog of the 29 degenerations.

Cases live as JSON files next to a manifest with SHA-256 checksums.  Lookup
accepts both the published name (`U_{4∪3,1}`, with or without TeX markup)
and the sanitized file alias (`u-4cup3-1`).  The directory can be overridden
with the ``DEGEN_CATALOG_DIR`` environment variable, which is how alternative
catalogs are fed to the command-line tools.
"""

from __future__ import annotations

import hashlib
import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Mapping, NamedTuple

from .complexes import PlanarComplex
from .relations import Word, word_from_json

ENV_CATALOG_DIR = "DEGEN_CATALOG_DIR"

CASE_FORMAT = "degen-case/1"
MANIFEST_FORMAT = "degen-catalog/1"


class CatalogError(ValueError):
    """Missing case, malformed file, or checksum mismatch."""


class ExpectedResults(NamedTuple):
    """Published values a recomputation is checked against."""

    pi1: str
    m: int
    mu: int
    d: int
    rho: int
    c1_sq_coeff: Fraction
    c2_coeff: Fraction
    chi_coeff: Fraction
    points: tuple[tuple[int, str, int, tuple[int, ...]], ...]
    parasitic: tuple[tuple[int, int], ...]
    triples: tuple[tuple[int, int], ...] | None
    commutators: tuple[tuple[int, int], ...] | None
    inner_relators: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] | None
    forks: tuple[tuple[int, int, int], ...] | None
    forks_complete: bool

    @classmethod
    def from_json(cls, data: Mapping) -> "ExpectedResults":
        def pairs(key):
            if data[key] is None:
                return None
            return tuple(tuple(int(x) for x in item) for item in data[key])

        inner = None
        if data["inner_relators"] is not None:
            inner = tuple(
                (tuple(int(x) for x in lhs), tuple(int(x) for x in rhs))
                for lhs, rhs in data["inner_relators"]
            )
        return cls(
            pi1=str(data["pi1"]),
            m=int(data["m"]),
            mu=int(data["mu"]),
            d=int(data["d"]),
            rho=int(data["rho"]),
            c1_sq_coeff=Fraction(data["c1_sq_coeff"]),
            c2_coeff=Fraction(data["c2_coeff"]),
            chi_coeff=Fraction(data["chi_coeff"]),
            points=tuple(
                (int(v), str(kind), int(k), tuple(int(x) for x in lines))
                for v, kind, k, lines in data["points"]
            ),
            parasitic=pairs("parasitic"),
            triples=pairs("triples"),
            commutators=pairs("commutators"),
            inner_relators=inner,
            forks=pairs("forks"),
            forks_complete=bool(data["forks_complete"]),
        )


class CaseHint(NamedTuple):
    """A catalogued equality with the conditions under which it applies.

    `citation` names the printed derivation the equality is lifted from so a
    verdict can always be traced back to its source.
    """

    line: int
    preconditions: frozenset[int]
    citation: str

    @classmethod
    def from_json(cls, data: Mapping) -> "CaseHint":
        return cls(
            line=int(data["line"]),
            preconditions=frozenset(int(x) for x in data["preconditions"]),
            citation=str(data["citation"]),
        )

    def to_json(self) -> dict:
        return {
            "line": self.line,
            "preconditions": sorted(self.preconditions),
            "citation": self.citation,
        }


class CaseRecord(NamedTuple):
    """One catalogued degeneration, ready for the pipeline."""

    name: str
    aliases: tuple[str, ...]
    external_result: bool
    complex: PlanarComplex
    hints: tuple[CaseHint, ...]
    extra_inner_relators: tuple[Word, ...]
    expected: ExpectedResults
    notes: tuple[str, ...]

    @classmethod
    def from_json(cls, data: Mapping) -> "CaseRecord":
        if data.get("format") != CASE_FORMAT:
            raise CatalogError(f"unsupported case format {data.get('format')!r}")
        return cls(
            name=str(data["name"]),
            aliases=tuple(str(a) for a in data["aliases"]),
            external_result=bool(data["external_result"]),
            complex=PlanarComplex.from_json(data["complex"]),
            hints=tuple(CaseHint.from_json(h) for h in data["hints"]),
            extra_inner_relators=tuple(
                word_from_json(w) for w in data["extra_inner_relators"]
            ),
            expected=ExpectedResults.from_json(data["expected"]),
            notes=tuple(str(n) for n in data["notes"]),
        )


_SEPARATORS = str.maketrans("", "", "$\\{}_ \t,-")


def _normalize(name: str) -> str:
    """Collapse TeX markup, separators, and case so lookups are forgiving."""
    return name.strip().lower().translate(_SEPARATORS).replace("cup", "∪")


class Catalog:
    """A manifest plus lazily loaded case files."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        manifest_path = self.root / "manifest.json"
        if not manifest_path.is_file():
            raise CatalogError(f"no manifest.json under {self.root}")
        try:
            manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise CatalogError(f"manifest {manifest_path} is not UTF-8 JSON: {exc}") from exc
        if not isinstance(manifest, dict):
            raise CatalogError(f"manifest {manifest_path} is not a JSON object")
        if manifest.get("format") != MANIFEST_FORMAT:
            raise CatalogError(
                f"unsupported manifest format {manifest.get('format')!r}"
            )
        if not isinstance(manifest.get("cases"), list):
            raise CatalogError(f"manifest {manifest_path} has no list of cases")
        self.entries: list[dict] = list(manifest["cases"])
        self._by_key: dict[str, dict] = {}
        for pos, entry in enumerate(self.entries):
            where = f"manifest {manifest_path}: cases[{pos}]"
            if not isinstance(entry, dict):
                raise CatalogError(f"{where} is not an object")
            for key in ("name", "file", "sha256"):
                if not isinstance(entry.get(key), str):
                    raise CatalogError(f"{where} has no string {key!r}")
            key = _normalize(entry["name"])
            if key in self._by_key:
                raise CatalogError(f"ambiguous case label {entry['name']!r}")
            self._by_key[key] = entry

    def names(self) -> tuple[str, ...]:
        """Case names in manifest order, no case file read; `perfbench` calls it."""
        return tuple(e["name"] for e in self.entries)

    def _read(self, entry: dict) -> CaseRecord:
        path = self.root / entry["file"]
        blob = path.read_bytes()
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise CatalogError(f"checksum mismatch for {entry['name']} ({path.name})")
        try:
            record = CaseRecord.from_json(json.loads(blob.decode("utf-8")))
            # records skip `validate`, but building the complex refused any
            # plane or line without a complex's shape; the line → planes table
            # refuses a line on no interior edge or on another line's edge
            record.complex.line_planes()  # cached: the group layer reads it again for free
        except (KeyError, TypeError, ValueError) as exc:  # ComplexError is a ValueError
            fault = f"missing key {exc}" if type(exc) is KeyError else exc
            raise CatalogError(f"malformed case {entry['name']} ({path.name}): {fault}") from exc
        return record

    def load(self, name: str) -> CaseRecord:
        key = _normalize(name)
        entry = self._by_key.get(key)
        if entry is None:
            # fall back to filename stems
            for cand in self.entries:
                stem = Path(cand["file"]).stem
                if _normalize(stem) == key:
                    entry = cand
                    break
        if entry is None:
            raise CatalogError(f"no case named {name!r}")
        return self._read(entry)

    def __iter__(self) -> Iterator[CaseRecord]:
        for entry in self.entries:
            yield self._read(entry)


def catalog_root() -> Path:
    """Resolve the catalog directory: ``DEGEN_CATALOG_DIR``, else the bundled data."""
    env = os.environ.get(ENV_CATALOG_DIR)
    if env:
        return Path(env)
    return Path(__file__).resolve().parent / "data"


def open_catalog() -> Catalog:
    return Catalog(catalog_root())


def load_case(name: str) -> CaseRecord:
    return open_catalog().load(name)
