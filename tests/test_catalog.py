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
def catalog_copy(tmp_path, monkeypatch):
    """A copy of the shipped catalog, which `DEGEN_CATALOG_DIR` selects."""
    dst = tmp_path / "catalog"
    shutil.copytree(DATA_DIR, dst)
    monkeypatch.setenv("DEGEN_CATALOG_DIR", str(dst))
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
    catalog = open_catalog()
    with pytest.raises(CatalogError, match="no case named"):
        catalog.load("hexa")
    assert len(list(catalog)) == 29
    with pytest.raises(CatalogError, match="no case named"):
        catalog.load("hexa")
    assert catalog.load("U_6").name == catalog.load("u-6").name == "U_6"


def test_a_file_stem_that_no_manifest_name_has_finds_its_case(catalog_copy, capsys):
    """Lookup falls back to the case file's stem: `U_6` renamed to `hexa.json`,
    its manifest entry pointed there (the bytes, so the checksum, unchanged),
    is found as `hexa`, which looks up no manifest name."""
    (catalog_copy / "cases" / "u-6.json").rename(catalog_copy / "cases" / "hexa.json")
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    [entry] = [e for e in manifest["cases"] if e["file"] == "cases/u-6.json"]
    entry["file"] = "cases/hexa.json"
    manifest_path.write_text(json.dumps(manifest, ensure_ascii=False))
    for command in ("analyze", "export"):
        assert main([command, "hexa", "--format", "json"]) == 0
        by_stem = capsys.readouterr()
        assert main([command, "U_6", "--format", "json"]) == 0
        assert by_stem == capsys.readouterr()
        assert by_stem.out and not by_stem.err


def test_a_relative_catalog_directory_is_read_and_printed_as_set(
    catalog_copy, capsys, monkeypatch
):
    monkeypatch.chdir(catalog_copy.parent)
    monkeypatch.setenv("DEGEN_CATALOG_DIR", "catalog")
    assert main(["analyze", "U_6"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("DEGEN_CATALOG_DIR", "missing")
    assert main(["list"]) == 1
    assert capsys.readouterr() == ("", "degen: error: no manifest.json under missing\n")
    monkeypatch.setenv("DEGEN_CATALOG_DIR", "catalog")
    (catalog_copy / "manifest.json").write_bytes(b"[]")
    assert main(["list"]) == 1
    assert capsys.readouterr() == (
        "", "degen: error: manifest catalog/manifest.json is not a JSON object\n"
    )


def test_a_catalog_directory_with_a_trailing_slash_is_read(catalog_copy, capsys, monkeypatch):
    """A case refusal prints only the file's name, and a manifest refusal the
    root joined to ``manifest.json``, with no second slash."""
    monkeypatch.setenv("DEGEN_CATALOG_DIR", f"{catalog_copy}/")
    assert main(["analyze", "U_6"]) == 0
    capsys.readouterr()
    _unmake_file(catalog_copy / "cases" / "u-0-4.json", "missing")
    assert main(["analyze", "U_{0,4}"]) == 1
    assert capsys.readouterr() == (
        "", "degen: error: missing case file for U_{0,4} (u-0-4.json)\n"
    )
    (catalog_copy / "manifest.json").write_bytes(b"[]")
    assert main(["list"]) == 1
    assert capsys.readouterr() == (
        "", f"degen: error: manifest {catalog_copy}/manifest.json is not a JSON object\n"
    )


@pytest.mark.parametrize("root", ["./missing/", "missing/"])
def test_a_catalog_root_is_printed_as_set(catalog_copy, capsys, monkeypatch, root):
    """`DEGEN_CATALOG_DIR` is printed as the user set it: a trailing ``/`` and a
    ``./`` prefix stay in the refusal."""
    monkeypatch.chdir(catalog_copy)
    monkeypatch.setenv("DEGEN_CATALOG_DIR", root)
    assert main(["list"]) == 1
    assert capsys.readouterr() == ("", f"degen: error: no manifest.json under {root}\n")


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
        load_case("U_{0,4}")
    report = verify_catalog(catalog_copy)
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


def test_record_must_carry_its_manifest_name(catalog_copy, capsys):
    data = json.loads((catalog_copy / "cases" / "u-0-4.json").read_text())
    data["name"] = "U_{9,9}"
    rewrite_case(catalog_copy, json.dumps(data, ensure_ascii=False).encode())
    refusal = "degen: error: malformed case U_{0,4} (u-0-4.json): its file names it U_{9,9}\n"
    for argv in (["list"], ["analyze", "U_{0,4}"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", refusal)
    assert main(["analyze", "U_{9,9}"]) == 1
    assert "no case named 'U_{9,9}'" in capsys.readouterr().err


def test_manifest_refuses_two_entries_that_look_up_alike(catalog_copy):
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    pos = next(i for i, c in enumerate(manifest["cases"]) if c["name"] == "U_{0,4}")
    manifest["cases"].insert(pos + 1, {**manifest["cases"][pos], "name": "U_{04}"})
    manifest_path.write_text(json.dumps(manifest, ensure_ascii=False))
    with pytest.raises(CatalogError) as info:
        open_catalog()
    assert str(info.value) == (
        f"manifest {manifest_path}: ambiguous case label 'U_{{04}}':"
        f" cases[{pos + 1}] and cases[{pos}] 'U_{{0,4}}' look up alike"
    )


def test_case_missing_a_key_is_a_named_error(catalog_copy, capsys):
    drop_expected_key(catalog_copy, "rho")
    assert main(["analyze", "U_{0,4}"]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("degen: error:")
    assert "u-0-4.json" in err_lines[0]


def test_verify_names_the_case_missing_a_key(catalog_copy):
    drop_expected_key(catalog_copy, "rho")
    report = verify_catalog(catalog_copy)
    assert len(report.problems) == 1
    assert report.problems[0].startswith("U_{0,4}:")


def test_case_whose_vertices_share_a_point_is_refused_by_name(catalog_copy, capsys):
    """A record is certified as an embedded disk where it is read."""
    data = json.loads((catalog_copy / "cases" / "u-0-4.json").read_text())
    vertices = dict(data["complex"]["vertices"])
    vertices[2] = vertices[1]
    data["complex"]["vertices"] = [[v, c] for v, c in sorted(vertices.items())]
    rewrite_case(catalog_copy, json.dumps(data, ensure_ascii=False).encode())
    assert main(["analyze", "U_{0,4}"]) == 1
    assert capsys.readouterr().err == (
        "degen: error: malformed case U_{0,4} (u-0-4.json): vertices 1 and 2 share"
        " coordinates (0, 0); plane 1 is degenerate (collinear):"
        " (1, 2, 6)\n"
    )


def test_undecodable_case_file_is_a_named_error(catalog_copy):
    rewrite_case(catalog_copy, b"\xff not utf-8")
    with pytest.raises(CatalogError, match=r"u-0-4\.json"):
        load_case("U_{0,4}")


def test_utf16_case_file_is_refused_as_not_utf8(catalog_copy):
    """A case file is decoded as UTF-8 only, so a UTF-16 copy of it, with its
    byte order mark, is refused though `json.loads` would read its bytes."""
    text = (catalog_copy / "cases" / "u-0-4.json").read_text(encoding="utf-8")
    rewrite_case(catalog_copy, text.encode("utf-16"))
    with pytest.raises(CatalogError) as info:
        load_case("U_{0,4}")
    assert str(info.value).startswith(
        "malformed case U_{0,4} (u-0-4.json): 'utf-8' codec can't decode byte 0x"
    )


def _unmake_file(path, instead):
    """Remove the file at ``path`` and leave ``instead`` in its place: nothing,
    a directory, or a symlink to itself, which no open() can follow."""
    path.unlink()
    if instead == "a-directory":
        path.mkdir()
    elif instead == "a-symlink-loop":
        path.symlink_to(path.name)


NO_FILE = ["missing", "a-directory", "a-symlink-loop"]


@pytest.mark.parametrize("instead", NO_FILE)
def test_missing_case_file_is_refused_by_name(catalog_copy, capsys, instead):
    _unmake_file(catalog_copy / "cases" / "u-0-4.json", instead)
    refusal = "degen: error: missing case file for U_{0,4} (u-0-4.json)\n"
    for argv in (["analyze", "U_{0,4}"], ["table"], ["list"]):
        assert main(argv) == 1
        assert capsys.readouterr() == ("", refusal)


@pytest.mark.parametrize("instead", NO_FILE)
def test_catalog_without_a_manifest_file_is_refused(catalog_copy, capsys, instead):
    _unmake_file(catalog_copy / "manifest.json", instead)
    with pytest.raises(CatalogError) as info:
        open_catalog()
    assert str(info.value) == f"no manifest.json under {catalog_copy}"
    assert main(["list"]) == 1
    assert capsys.readouterr() == ("", f"degen: error: no manifest.json under {catalog_copy}\n")


def test_manifest_without_cases_is_a_catalog_error(catalog_copy):
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    del manifest["cases"]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(CatalogError, match="no list of cases"):
        open_catalog()


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
def test_malformed_manifest_entry_is_a_catalog_error(catalog_copy, capsys, key, message):
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["cases"][3]
    manifest["cases"][3] = (
        entry["name"] if key is None else {k: v for k, v in entry.items() if k != key}
    )
    manifest_path.write_text(json.dumps(manifest, ensure_ascii=False))
    with pytest.raises(CatalogError) as info:
        open_catalog()
    assert str(info.value) == f"manifest {manifest_path}: cases[3] {message}"
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
        # a manifest `json.loads` would read from its bytes
        ('{"format": "degen-catalog/1", "cases": []}'.encode("utf-16"),
         "is not UTF-8 JSON: 'utf-8' codec can't decode byte 0x"),
    ],
    ids=["list", "not-utf8", "malformed", "utf-16"],
)
def test_manifest_that_is_not_a_json_object_is_a_catalog_error(
    catalog_copy, capsys, blob, reason
):
    manifest_path = catalog_copy / "manifest.json"
    manifest_path.write_bytes(blob)
    with pytest.raises(CatalogError) as info:
        open_catalog()
    assert str(info.value).startswith(f"manifest {manifest_path} {reason}")
    assert main(["list"]) == 1
    err_lines = capsys.readouterr().err.splitlines()
    assert len(err_lines) == 1
    assert err_lines[0].startswith("degen: error:")


def test_removed_manifest_entry_shrinks_catalog(catalog_copy):
    manifest_path = catalog_copy / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["cases"] = [c for c in manifest["cases"] if c["name"] != "U_5"]
    manifest_path.write_text(json.dumps(manifest))
    records = tuple(open_catalog())
    assert len(records) == 28
    assert "U_5" not in {r.name for r in records}
    with pytest.raises(CatalogError):
        load_case("U_5")


def test_shipped_catalog_verifies_clean():
    assert verify_catalog(DATA_DIR).problems == ()


def test_records_expose_complex_and_expectations(records):
    for rec in records:
        assert rec.complex.validate().ok, rec.name
        assert rec.expected.pi1 in {"trivial", "nontrivial", "undecided"}, rec.name
        assert rec.name.startswith("U_")
        assert all(a == a.lower() for a in rec.aliases), rec.name
