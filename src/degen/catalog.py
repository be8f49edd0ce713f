"""Access to the bundled catalog of the 29 degenerations.

Cases live as JSON files next to a manifest with SHA-256 checksums.  Lookup
accepts both the published name (`U_{4∪3,1}`, with or without TeX markup)
and the sanitized file alias (`u-4cup3-1`).  The directory can be overridden
with the ``DEGEN_CATALOG_DIR`` environment variable, which is how alternative
catalogs are fed to the command-line tools.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple

from .complexes import PlanarComplex
from .relations import Word, word_from_json

ENV_CATALOG_DIR = "DEGEN_CATALOG_DIR"

CASE_FORMAT = "degen-case/1"
MANIFEST_FORMAT = "degen-catalog/1"


class CatalogError(ValueError):
    """Missing case, malformed file, or checksum mismatch."""


_KINDS = {int: "an integer", str: "a string", bool: "true or false", list: "a list",
          dict: "an object", Fraction: "a fraction in a string"}
_PI1 = ("trivial", "nontrivial", "undecided")


def _json(field, value, shape):
    """``value``, its lists made tuples, if it has ``shape``; else a refusal
    that names ``field``.  A type matches exactly, so ``true`` is no integer;
    `Fraction` matches a string it reads, such as ``"-4/3"``; ``[s]`` is a list
    of entries of shape ``s``, and a tuple of shapes a list of one entry each.
    A field inside another is the pair (that field, its key or index), so its
    path, such as ``expected.points[2][3]``, is worded only on refusal."""
    if type(shape) is list:  # one entry shape for every entry
        kinds, s = type(value) is list and {*map(type, value)}, shape[0]
        if kinds and type(s) is type and kinds <= {s}:  # a column of one type, checked at once
            return tuple(value)
        if kinds == {list} and type(s) is list and {type(x) for v in value for x in v} <= {s[0]}:
            return tuple(map(tuple, value))  # and a table of one cell type
        shape = (s,) * len(value) if type(value) is list else list
    if shape is Fraction and type(value) is str:
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    elif type(shape) is type and type(value) is shape:
        return value
    elif type(shape) is tuple and type(value) is list and len(value) == len(shape):
        return tuple([x if type(x) is s else _json((field, i), x, s)
                      for i, (x, s) in enumerate(zip(value, shape))])
    what = f"a list of {len(shape)} entries" if type(shape) is tuple else _KINDS[shape]
    path = ""
    while type(field) is tuple:
        field, at = field
        path = (f".{at}" if type(at) is str else f"[{at}]") + path
    raise CatalogError(f"{field}{path} is {json.dumps(value)}, not {what}")


_EXPECTED = {  # the shape of each field of a case's "expected" object but pi1
    "m": int, "mu": int, "d": int, "rho": int, "forks_complete": bool,
    "c1_sq_coeff": Fraction, "c2_coeff": Fraction, "chi_coeff": Fraction,
    "points": [(int, str, int, [int])], "parasitic": [[int]], "triples": [[int]],
    "commutators": [[int]], "inner_relators": [([int], [int])], "forks": [[int]],
}
_NULLABLE = {"triples", "commutators", "inner_relators", "forks"}  # a case may leave open


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
        if _json("expected", data, dict)["pi1"] not in _PI1:
            pi1 = json.dumps(data["pi1"])
            raise CatalogError(f"expected.pi1 is {pi1}, not one of {', '.join(_PI1)}")
        return cls(pi1=data["pi1"], **{
            key: None if data[key] is None and key in _NULLABLE
            else _json(("expected", key), data[key], shape)
            for key, shape in _EXPECTED.items()
        })


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
            line=_json("hint.line", _json("hint", data, dict)["line"], int),
            preconditions=frozenset(_json("hint.preconditions", data["preconditions"], [int])),
            citation=_json("hint.citation", data["citation"], str),
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
        """Read a case file's object, refusing by name a field of the wrong JSON type."""
        if _json("case", data, dict).get("format") != CASE_FORMAT:
            raise CatalogError(f"unsupported case format {data.get('format')!r}")
        words = _json("extra_inner_relators", data["extra_inner_relators"], list)
        return cls(
            name=_json("name", data["name"], str),
            aliases=_json("aliases", data["aliases"], [str]),
            external_result=_json("external_result", data["external_result"], bool),
            complex=PlanarComplex.from_json(data["complex"]),
            hints=tuple(map(CaseHint.from_json, _json("hints", data["hints"], list))),
            extra_inner_relators=tuple(map(word_from_json, words)),
            expected=ExpectedResults.from_json(data["expected"]),
            notes=_json("notes", data["notes"], [str]),
        )


_SEPARATORS = str.maketrans("", "", "$\\{}_ \t,-")


def _normalize(name: str) -> str:
    """Collapse TeX markup, separators, and case so lookups are forgiving."""
    return name.strip().lower().translate(_SEPARATORS).replace("cup", "∪")


# a path open() finds no regular file at: absent, a directory, or a symlink loop
_NO_FILE = frozenset({errno.ENOENT, errno.EISDIR, errno.ENOTDIR, errno.ELOOP})


class Catalog:
    """A manifest plus lazily loaded case files."""

    def __init__(self, root: str) -> None:
        self.root = root
        manifest_path = os.path.join(root, "manifest.json")
        try:  # text mode, as a refusal words its position in the text
            with open(manifest_path, encoding="utf-8") as fh:
                manifest = json.loads(fh.read())
        except ValueError as exc:  # UnicodeDecodeError or JSONDecodeError
            raise CatalogError(f"manifest {manifest_path} is not UTF-8 JSON: {exc}") from exc
        except OSError as exc:
            if exc.errno not in _NO_FILE:
                raise
            raise CatalogError(f"no manifest.json under {root}") from None
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
            if not isinstance(entry, dict):
                raise CatalogError(f"manifest {manifest_path}: cases[{pos}] is not an object")
            for key in ("name", "file", "sha256"):
                if not isinstance(entry.get(key), str):
                    raise CatalogError(
                        f"manifest {manifest_path}: cases[{pos}] has no string {key!r}"
                    )
            key = _normalize(entry["name"])
            if (other := self._by_key.get(key)) is not None:
                raise CatalogError(
                    f"manifest {manifest_path}: ambiguous case label {entry['name']!r}:"
                    f" cases[{pos}] and cases[{self.entries.index(other)}] {other['name']!r}"
                    " look up alike"
                )
            self._by_key[key] = entry

    def names(self) -> tuple[str, ...]:
        """Case names in manifest order, no case file read; `perfbench` calls it."""
        return tuple(e["name"] for e in self.entries)

    def _read(self, entry: dict) -> CaseRecord:
        path = os.path.join(self.root, entry["file"])
        try:
            with open(path, "rb") as fh:
                blob = fh.read()
        except OSError as exc:
            if exc.errno not in _NO_FILE:
                raise
            raise CatalogError(
                f"missing case file for {entry['name']} ({os.path.basename(path)})"
            ) from None
        if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
            raise CatalogError(
                f"checksum mismatch for {entry['name']} ({os.path.basename(path)})"
            )
        try:
            record = CaseRecord.from_json(json.loads(blob.decode("utf-8")))
            if record.name != entry["name"]:
                raise CatalogError(f"its file names it {record.name}")
            record.complex.check_embedded()  # construction certified the rest
            return record
        except (KeyError, TypeError, ValueError) as exc:  # ComplexError is a ValueError
            fault = f"missing key {exc}" if type(exc) is KeyError else exc
            raise CatalogError(
                f"malformed case {entry['name']} ({os.path.basename(path)}): {fault}"
            ) from exc

    def load(self, name: str) -> CaseRecord:
        key = _normalize(name)
        entry = self._by_key.get(key)
        if entry is None:
            # fall back to filename stems
            for cand in self.entries:
                stem = os.path.splitext(os.path.basename(cand["file"]))[0]
                if _normalize(stem) == key:
                    entry = cand
                    break
        if entry is None:
            raise CatalogError(f"no case named {name!r}")
        return self._read(entry)

    def __iter__(self) -> Iterator[CaseRecord]:
        for entry in self.entries:
            yield self._read(entry)


def catalog_root() -> str:
    """The catalog directory: ``DEGEN_CATALOG_DIR`` as set, else the bundled data."""
    return os.environ.get(ENV_CATALOG_DIR) or os.path.join(
        os.path.dirname(os.path.realpath(__file__)), "data"
    )


def open_catalog() -> Catalog:
    return Catalog(catalog_root())


def load_case(name: str) -> CaseRecord:
    return open_catalog().load(name)
