"""The benchmark's three workloads and their correctness oracles.

Each workload has four steps:

* ``build(mods)``: the program calls that make the inputs; timed as set-up.
* ``prepare(mods, built, rng, workdir)``: the benchmark's own work on those
  inputs (seeded relabeling, files, oracle keys); not timed.
* ``run(mods, item)``: one item of the timed phase.
* ``check(item, outcome)``: the oracle; returns a problem or ``None``.

The seed relabels vertex ids and plane ids and orders the items.  Line
numbers are never permuted: which line numberings the inner-point relators
accept depends on them, so permuting them would change verdicts with the
seed.  Seed 0 keeps the program's own labels (the shipped catalog files are
copied byte for byte).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from random import Random
from types import SimpleNamespace
from typing import Any

HERE = Path(__file__).resolve().parent

# Errors the program raises on purpose for inputs outside its range.
NAMED_REFUSALS = ("UnsupportedCaseError", "InvariantError")
DECIDED = ("trivial", "nontrivial")
TC_COUNTERS = ("cosets_defined", "live_cosets", "coincidences")
CHERN_KEYS = ("c1_sq_coeff", "c2_coeff", "chi_coeff")


class OracleError(RuntimeError):
    """The inputs or the reference the oracles rely on are not as recorded."""


@dataclass
class Item:
    id: str
    payload: Any
    expected: Any
    units: int = 1  # items of work this call completes (classes for classify9)


@dataclass
class Outcome:
    """What one item produced, reduced to what the oracles and metrics read."""

    pipeline: str | None = None  # decide's outcome, "refused" or "failed"
    order: int | None = None
    chern: tuple[str, str, str] | None = None
    error: str | None = None  # exception class name, named refusal or not
    failed: bool = False  # raised something other than a named refusal
    decided_units: int = 0
    tc: dict[str, int] = field(default_factory=dict)
    detail: Any = None


def _tc_counts(verdict_json: dict) -> dict[str, int]:
    enum = verdict_json.get("enumeration")
    if enum is None:
        return {}
    return {"todd_coxeter_runs": 1, **{k: int(enum[k]) for k in TC_COUNTERS}}


def relabel_complex(data: dict, rng: Random) -> dict[int, int]:
    """Permute vertex ids and plane ids of ``degen-complex/1`` data in place.

    Returns the vertex map so callers can remap vertex references elsewhere.
    """
    vids = [v for v, _ in data["vertices"]]
    pids = [p for p, _ in data["triangles"]]
    vmap = dict(zip(vids, rng.sample(vids, len(vids))))
    pmap = dict(zip(pids, rng.sample(pids, len(pids))))
    data["vertices"] = sorted([vmap[v], xy] for v, xy in data["vertices"])
    data["triangles"] = sorted(
        [pmap[p], [vmap[v] for v in tri]] for p, tri in data["triangles"]
    )
    data["line_numbering"] = [
        [i, [vmap[v] for v in pair]] for i, pair in data["line_numbering"]
    ]
    return vmap


# ----------------------------------------------------------------------
# catalog: `degen analyze <case> --format json` on the 29 shipped cases.
# ----------------------------------------------------------------------


class Catalog:
    name = "catalog"
    expected_spans = frozenset({
        "cli.main", "catalog.open_catalog", "catalog.load", "pipeline.decide",
        "pipeline.propagate_equalities", "pipeline.fork_certificate",
        "relations.reduced_presentation", "fpgroup.todd_coxeter",
        "complexes.classify_vertices", "complexes.edge_planes",
        "invariants.branch_stats", "invariants.chern",
    })

    def build(self, mods):
        return mods.catalog.open_catalog().names()

    def prepare(self, mods, names, rng: Random | None, workdir: Path) -> list[Item]:
        src = Path(mods.catalog.catalog_root())
        dst = workdir / "catalog"
        (dst / "cases").mkdir(parents=True)
        manifest = json.loads((src / "manifest.json").read_text(encoding="utf-8"))
        if [e["name"] for e in manifest["cases"]] != list(names):
            raise OracleError("catalog manifest disagrees with open_catalog().names()")
        items = []
        for entry in manifest["cases"]:
            blob = (src / entry["file"]).read_bytes()
            case = json.loads(blob)
            if rng is not None:
                vmap = relabel_complex(case["complex"], rng)
                case["expected"]["points"] = sorted(
                    [vmap[v], kind, k, lines]
                    for v, kind, k, lines in case["expected"]["points"]
                )
                blob = (json.dumps(case, indent=1, ensure_ascii=False) + "\n").encode()
                entry["sha256"] = hashlib.sha256(blob).hexdigest()
            (dst / entry["file"]).write_bytes(blob)
            exp = case["expected"]
            items.append(Item(entry["name"], entry["name"], (
                exp["pi1"], tuple(Fraction(exp[k]) for k in CHERN_KEYS),
            )))
        if rng is None:
            shutil.copyfile(src / "manifest.json", dst / "manifest.json")
        else:
            text = json.dumps(manifest, indent=1, ensure_ascii=False) + "\n"
            (dst / "manifest.json").write_text(text, encoding="utf-8")
        os.environ[mods.catalog.ENV_CATALOG_DIR] = str(dst)
        return items

    def run(self, mods, item: Item) -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = mods.cli.main(["analyze", item.payload, "--format", "json"])
            if code not in (0, 2):  # 2 still prints the report, flagged inconsistent
                return Outcome(pipeline="failed", failed=True, error=f"exit {code}",
                               detail=err.getvalue().strip())
            report = json.loads(out.getvalue())
        except Exception as exc:  # the item boundary: report, keep running
            return _failure(exc)
        verdict = report["verdict"]
        ch = report["chern"]
        return Outcome(
            pipeline=verdict["outcome"],
            order=(verdict["certificate"] or {}).get("order"),
            chern=tuple(ch[k] for k in CHERN_KEYS),
            decided_units=int(verdict["outcome"] in DECIDED),
            tc=_tc_counts(verdict),
            detail=(code, report["consistent"]),
        )

    def check(self, item: Item, got: Outcome) -> str | None:
        pi1, chern = item.expected
        if got.failed:
            return f"failed: {got.error} {got.detail or ''}".strip()
        if got.detail != (0, True):
            return f"exit code and consistency {got.detail}, expected (0, True)"
        if got.pipeline != pi1:
            return f"outcome {got.pipeline}, catalog says {pi1}"
        if tuple(Fraction(c) for c in got.chern) != chern:
            return f"chern {got.chern}, catalog says {tuple(map(str, chern))}"
        return None


def _failure(exc: BaseException) -> Outcome:
    name = type(exc).__name__
    if name in NAMED_REFUSALS:
        return Outcome(pipeline="refused", error=name, detail=str(exc))
    return Outcome(pipeline="failed", error=name, failed=True, detail=str(exc))


# ----------------------------------------------------------------------
# survey7: every 7-triangle disk, lemmas only, as `analyze <file> --no-hints`.
# ----------------------------------------------------------------------

SURVEY_TRIANGLES = 7
SURVEY_CLASSES = 73
REFERENCE = HERE / "survey7_reference.json"


def form_key(form) -> str:
    """A label-free key for a disk: the hash of its canonical form."""
    return hashlib.sha256(",".join(map(str, form)).encode()).hexdigest()[:16]


def survey_item(mods, text: str) -> Outcome:
    """loads, validate, decide(use_hints=False), branch_stats, chern."""
    got = Outcome()
    try:
        complex_ = mods.complexes.PlanarComplex.loads(text)
        report = complex_.validate()
        if not report.ok:
            raise mods.complexes.ComplexError("; ".join(report.errors + report.violations))
        verdict = mods.pipeline.decide(complex_, use_hints=False)
    except Exception as exc:  # the item boundary: report, keep running
        return _failure(exc)
    got.pipeline = verdict.outcome
    got.decided_units = int(verdict.outcome in DECIDED)
    data = verdict.to_json()
    got.order = (data["certificate"] or {}).get("order")
    got.tc = _tc_counts(data)
    try:
        ch = mods.invariants.chern(mods.invariants.branch_stats(complex_))
    except Exception as exc:  # the item boundary: report, keep running
        refusal = _failure(exc)
        got.error, got.failed, got.detail = refusal.error, refusal.failed, refusal.detail
        return got
    got.chern = tuple(str(getattr(ch, k)) for k in CHERN_KEYS)
    return got


def reference_entry(got: Outcome) -> dict:
    return {"outcome": got.pipeline, "order": got.order,
            "chern": list(got.chern) if got.chern else None, "error": got.error}


class Survey7:
    name = "survey7"
    expected_spans = frozenset({
        "enumerator.enumerate_maps", "enumerator.canonical_form", "enumerator.embed",
        "complexes.validate", "pipeline.decide", "pipeline.propagate_equalities",
        "pipeline.fork_certificate", "relations.reduced_presentation",
        "fpgroup.todd_coxeter", "complexes.classify_vertices", "complexes.edge_planes",
        "invariants.branch_stats", "invariants.chern",
    })

    def build(self, mods):
        en = mods.enumerator
        maps = en.enumerate_maps(SURVEY_TRIANGLES)
        return maps, [en.embed(m).dumps() for m in maps]

    def prepare(self, mods, built, rng: Random | None, workdir: Path) -> list[Item]:
        maps, texts = built
        if len(maps) != SURVEY_CLASSES:
            raise OracleError(f"enumerate_maps(7) gave {len(maps)} classes, not 73")
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        items = []
        for map_, text in zip(maps, texts):
            key = form_key(mods.enumerator.canonical_form(map_))
            if key not in reference:
                raise OracleError(f"disk {key} is missing from {REFERENCE.name}")
            if rng is not None:
                data = json.loads(text)
                relabel_complex(data, rng)
                text = json.dumps(data, indent=2) + "\n"
            items.append(Item(key, text, reference[key]))
        if len({i.id for i in items}) != SURVEY_CLASSES:
            raise OracleError("two enumerated disks share a canonical form")
        return items

    def run(self, mods, item: Item) -> Outcome:
        return survey_item(mods, item.payload)

    def check(self, item: Item, got: Outcome) -> str | None:
        ref = item.expected
        if ref["error"] is not None and ref["error"] not in NAMED_REFUSALS:
            return None  # a standing failure may become anything but a wrong answer
        if got.failed:
            return f"failed with {got.error}: {got.detail}"
        if got.pipeline in DECIDED and ref["outcome"] in DECIDED:
            if got.pipeline != ref["outcome"]:
                return f"outcome {got.pipeline}, reference {ref['outcome']}"
            if None not in (got.order, ref["order"]) and got.order != ref["order"]:
                return f"group order {got.order}, reference {ref['order']}"
        if got.chern and ref["chern"] and list(got.chern) != ref["chern"]:
            return f"chern {got.chern}, reference {ref['chern']}"
        return None


# ----------------------------------------------------------------------
# classify9: enumerate_maps(9) count only.
# ----------------------------------------------------------------------

CLASS_COUNTS = {6: 28, 7: 73, 8: 244, 9: 782}


class Classify9:
    name = "classify9"
    expected_spans = frozenset({"enumerator.enumerate_maps", "enumerator.canonical_form"})

    def build(self, mods):
        return None

    def prepare(self, mods, built, rng: Random | None, workdir: Path) -> list[Item]:
        for n in (6, 7, 8):
            got = len(mods.enumerator.enumerate_maps(n))
            if got != CLASS_COUNTS[n]:
                raise OracleError(f"enumerate_maps({n}) gave {got} classes, not {CLASS_COUNTS[n]}")
        return [Item("enumerate_maps(9)", 9, CLASS_COUNTS[9], units=CLASS_COUNTS[9])]

    def run(self, mods, item: Item) -> Outcome:
        try:
            count = len(mods.enumerator.enumerate_maps(item.payload, guard=item.payload))
        except Exception as exc:  # the item boundary: report, keep running
            return _failure(exc)
        # every class found is a definite answer once the total is exact
        return Outcome(decided_units=item.units if count == item.expected else 0,
                       detail=count)

    def check(self, item: Item, got: Outcome) -> str | None:
        if got.failed:
            return f"failed with {got.error}: {got.detail}"
        if got.detail != item.expected:
            return f"{got.detail} classes, expected {item.expected}"
        return None


WORKLOADS = {w.name: w for w in (Catalog, Survey7, Classify9)}


def modules() -> SimpleNamespace:
    """The program's modules, imported by name from ``sys.path``."""
    names = ("catalog", "cli", "complexes", "enumerator", "fpgroup",
             "invariants", "pipeline", "relations")
    return SimpleNamespace(**{n: importlib.import_module(f"degen.{n}") for n in names})
