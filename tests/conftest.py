import hashlib
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

import degen.catalog
import degen.complexes
from degen.catalog import open_catalog
from degen.enumerator import embed, enumerate_maps


@pytest.fixture(scope="session")
def records():
    return tuple(open_catalog())


@pytest.fixture(scope="session")
def by_name(records):
    return {rec.name: rec for rec in records}


@pytest.fixture
def edited_catalog(tmp_path, monkeypatch):
    """`edited_catalog(stem, edit)` copies the shipped catalog to
    ``tmp_path/catalog`` unless a copy is there, rewrites case `stem` in it,
    re-hashes that file in the manifest, points ``DEGEN_CATALOG_DIR`` at the
    copy and returns the copy's directory.  `edit` is either the file's new
    bytes or a function that edits the case's JSON object in place."""
    root = tmp_path / "catalog"

    def edit_case(stem, edit):
        if not root.exists():
            shutil.copytree(Path(degen.catalog.__file__).parent / "data", root)
        case = root / "cases" / f"{stem}.json"
        if callable(edit):
            data = json.loads(case.read_text(encoding="utf-8"))
            edit(data)
            edit = json.dumps(data, ensure_ascii=False).encode("utf-8")
        case.write_bytes(edit)
        manifest_path = root / "manifest.json"
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        for entry in manifest["cases"]:
            if entry["file"].endswith(f"/{stem}.json"):
                entry["sha256"] = hashlib.sha256(edit).hexdigest()
        manifest_path.write_text(json.dumps(manifest, ensure_ascii=False), encoding="utf-8")
        monkeypatch.setenv(degen.catalog.ENV_CATALOG_DIR, str(root))
        return root

    return edit_case


@pytest.fixture(scope="session")
def small_complexes(records):
    """The 29 catalog complexes, then an embedding of every disk of up to 8
    triangles (392 complexes)."""
    return [rec.complex for rec in records] + [
        embed(m) for n in range(1, 9) for m in enumerate_maps(n)
    ]


@pytest.fixture
def derivation_calls(monkeypatch):
    """Count builds of a complex's edge-to-planes map (`PlanarComplex.edge_planes`),
    of its oriented planes (`orient_disk`) and of its fans (`vertex_fans`), and
    the ``Fraction``s made, all through `degen.complexes`."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("orient_disk", "vertex_fans", "Fraction"):
        monkeypatch.setattr(
            degen.complexes, name, counted(name, getattr(degen.complexes, name))
        )
    edge_planes = degen.complexes.PlanarComplex.edge_planes
    monkeypatch.setattr(
        degen.complexes.PlanarComplex, "edge_planes", counted("edge_planes", edge_planes)
    )
    return calls


@pytest.fixture
def segment_calls(monkeypatch):
    """Count calls to `segments_conflict` made through `degen.complexes`."""
    calls = Counter()
    original = degen.complexes.segments_conflict

    def counted(*args):
        calls["segments_conflict"] += 1
        return original(*args)

    monkeypatch.setattr(degen.complexes, "segments_conflict", counted)
    return calls
