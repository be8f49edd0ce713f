import hashlib
import json
import shutil
from pathlib import Path

import pytest

import degen.catalog
from catalog_oracle import verify_catalog
from degen.catalog import CatalogError, load_case, open_catalog
from degen.cli import main

DATA_DIR = Path(degen.catalog.__file__).parent / "data"


@pytest.fixture
def catalog_copy(tmp_path):
    dst = tmp_path / "catalog"
    shutil.copytree(DATA_DIR, dst)
    return dst


def test_twenty_nine_records_in_manifest_order(records):
    manifest = json.loads((DATA_DIR / "manifest.json").read_text())
    assert manifest["format"] == "degen-catalog/1"
    assert [r.name for r in records] == [c["name"] for c in manifest["cases"]]
    assert len(records) == 29


def test_names_listing_matches_catalog_order(records):
    assert open_catalog().names() == tuple(r.name for r in records)


@pytest.mark.parametrize(
    "alias",
    ["U_{4∪3,1}", "u-4cup3-1", "U_{4\\cup 3,1}"],
)
def test_lookup_accepts_notation_variants(alias):
    assert load_case(alias).name == "U_{4∪3,1}"


def test_lookup_is_case_insensitive_on_short_names():
    assert load_case("u6").name == "U_6"
    assert load_case("U_6").name == "U_6"


def test_listed_aliases_never_register(catalog_copy):
    """Lookup is by name or file stem, whether or not the case was read."""
    data = json.loads((catalog_copy / "cases" / "u-6.json").read_text())
    data["aliases"].append("hexa")
    rewrite_case(catalog_copy, json.dumps(data, ensure_ascii=False).encode(), stem="u-6")
    catalog = open_catalog(catalog_copy)
    with pytest.raises(CatalogError, match="no case named"):
        catalog.load("hexa")
    assert len(list(catalog)) == 29
    with pytest.raises(CatalogError, match="no case named"):
        catalog.load("hexa")
    assert catalog.load("U_6").name == catalog.load("u-6").name == "U_6"


def test_unknown_name_raises():
    with pytest.raises(CatalogError, match="no case named"):
        load_case("no-such-case")


def test_environment_variable_overrides_directory(catalog_copy, monkeypatch):
    monkeypatch.setenv("DEGEN_CATALOG_DIR", str(catalog_copy))
    assert len(tuple(open_catalog())) == 29
    monkeypatch.setenv("DEGEN_CATALOG_DIR", str(catalog_copy / "missing"))
    with pytest.raises(CatalogError):
        tuple(open_catalog())


def test_tampered_case_file_fails_checksum(catalog_copy):
    victim = catalog_copy / "cases" / "u-0-4.json"
    data = json.loads(victim.read_text())
    victim.write_text(json.dumps(data))
    with pytest.raises(CatalogError, match="checksum mismatch"):
        load_case("U_{0,4}", catalog_dir=catalog_copy)
    report = verify_catalog(catalog_dir=catalog_copy)
    assert len(report.problems) == 1
    assert "U_{0,4}" in report.problems[0]


def rewrite_case(catalog_dir, blob, stem="u-0-4"):
    """Replace `stem`.json with `blob` and re-hash it in the manifest."""
    victim = catalog_dir / "cases" / f"{stem}.json"
    victim.write_bytes(blob)
    manifest_path = catalog_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["cases"]:
        if entry["file"].endswith(f"/{stem}.json"):
            entry["sha256"] = hashlib.sha256(blob).hexdigest()
    manifest_path.write_text(json.dumps(manifest, ensure_ascii=False))


def drop_expected_key(catalog_dir, key):
    data = json.loads((catalog_dir / "cases" / "u-0-4.json").read_text())
    del data["expected"][key]
    rewrite_case(catalog_dir, json.dumps(data, ensure_ascii=False).encode())


def test_case_missing_a_key_is_a_named_error(catalog_copy, monkeypatch, capsys):
    drop_expected_key(catalog_copy, "rho")
    monkeypatch.setenv("DEGEN_CATALOG_DIR", str(catalog_copy))
    assert main(["analyze", "U_{0,4}"]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("degen: error:")
    assert "u-0-4.json" in err_lines[0]


def test_verify_names_the_case_missing_a_key(catalog_copy):
    drop_expected_key(catalog_copy, "rho")
    report = verify_catalog(catalog_dir=catalog_copy)
    assert len(report.problems) == 1
    assert report.problems[0].startswith("U_{0,4}:")


def test_undecodable_case_file_is_a_named_error(catalog_copy):
    rewrite_case(catalog_copy, b"\xff not utf-8")
    with pytest.raises(CatalogError, match=r"u-0-4\.json"):
        load_case("U_{0,4}", catalog_dir=catalog_copy)


def test_manifest_without_cases_is_a_catalog_error(catalog_copy):
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["cases"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CatalogError, match="no list of cases"):
        open_catalog(catalog_copy)


@pytest.mark.parametrize(
    "key, message",
    [
        ("name", "has no string 'name'"),
        ("file", "has no string 'file'"),
        ("sha256", "has no string 'sha256'"),
        (None, "is not an object"),
    ],
    ids=["name", "file", "sha256", "not-an-object"],
)
def test_malformed_manifest_entry_is_a_catalog_error(
    catalog_copy, monkeypatch, capsys, key, message
):
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["cases"][3]
    manifest["cases"][3] = (
        entry["name"] if key is None else {k: v for k, v in entry.items() if k != key}
    )
    manifest_path.write_text(json.dumps(manifest, ensure_ascii=False))
    with pytest.raises(CatalogError) as info:
        open_catalog(catalog_copy)
    assert str(info.value) == f"manifest {manifest_path}: cases[3] {message}"
    monkeypatch.setenv("DEGEN_CATALOG_DIR", str(catalog_copy))
    assert main(["list"]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("degen: error:")


@pytest.mark.parametrize(
    "blob, reason",
    [
        (b"[]", "is not a JSON object"),
        (b"\xff", "is not UTF-8 JSON: "),
        (b"{", "is not UTF-8 JSON: "),
    ],
    ids=["list", "not-utf8", "malformed"],
)
def test_manifest_that_is_not_a_json_object_is_a_catalog_error(
    catalog_copy, monkeypatch, capsys, blob, reason
):
    manifest_path = catalog_copy / "manifest.json"
    manifest_path.write_bytes(blob)
    with pytest.raises(CatalogError) as info:
        open_catalog(catalog_copy)
    assert str(info.value).startswith(f"manifest {manifest_path} {reason}")
    monkeypatch.setenv("DEGEN_CATALOG_DIR", str(catalog_copy))
    assert main(["list"]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("degen: error:")


def test_removed_manifest_entry_shrinks_catalog(catalog_copy):
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["cases"] = [c for c in manifest["cases"] if c["name"] != "U_5"]
    manifest_path.write_text(json.dumps(manifest))
    records = tuple(open_catalog(catalog_copy))
    assert len(records) == 28
    assert "U_5" not in {r.name for r in records}
    with pytest.raises(CatalogError):
        load_case("U_5", catalog_dir=catalog_copy)


def test_shipped_catalog_verifies_clean():
    assert verify_catalog().problems == ()


def test_records_expose_complex_and_expectations(records):
    for rec in records:
        assert rec.complex.validate().ok, rec.name
        assert rec.expected.pi1 in {"trivial", "nontrivial", "undecided"}, rec.name
        assert rec.name.startswith("U_")
        assert all(a == a.lower() for a in rec.aliases), rec.name
