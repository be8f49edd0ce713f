import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import degen.catalog
from degen.cli import main
from degen.complexes import PlanarComplex

DATA_DIR = Path(degen.catalog.__file__).parent / "data"
SRC = Path(degen.catalog.__file__).parents[1]


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_list_renders_every_case(capsys):
    rc, out, _ = run(capsys, "list", "--format", "json")
    rows = json.loads(out)
    assert rc == 0
    assert len(rows) == 29
    assert rows[0] == {"name": "U_{0,4}", "pi1": "trivial", "chi_coeff": "-4/3"}


def test_list_markdown_has_header_and_rows(capsys):
    rc, out, _ = run(capsys, "list")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "| case | pi1 | chi/6! |"
    assert len([l for l in lines if l.startswith("| U_")]) == 29


def test_analyze_single_case_json(capsys):
    rc, out, _ = run(capsys, "analyze", "U_{0,5,3}", "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["consistent"] is True
    assert data["verdict"]["outcome"] == "nontrivial"
    assert data["verdict"]["certificate"]["kind"] == "fork-vertex"


def test_analyze_accepts_sanitized_alias(capsys):
    rc, out, _ = run(capsys, "analyze", "u-0-5-3", "--format", "json")
    assert rc == 0
    assert json.loads(out)["name"] == "U_{0,5,3}"


def test_analyze_all_cases_consistent(capsys):
    rc, out, _ = run(capsys, "analyze", "--all", "--format", "json")
    rows = json.loads(out)
    assert rc == 0
    assert len(rows) == 29
    assert all(row["consistent"] for row in rows)


def test_analyze_without_hints_reports_undecided_not_mismatch(capsys):
    rc, out, _ = run(
        capsys, "analyze", "--all", "--no-hints", "--format", "json"
    )
    rows = json.loads(out)
    assert rc == 0
    undecided = {r["name"] for r in rows if r["verdict"]["outcome"] == "undecided"}
    assert len(undecided) == 8
    assert all(row["consistent"] for row in rows)


def test_analyze_flags_tampered_expectation(capsys, tmp_path, monkeypatch):
    dst = tmp_path / "catalog"
    shutil.copytree(DATA_DIR, dst)
    case_path = dst / "cases" / "u-0-4.json"
    data = json.loads(case_path.read_text())
    data["expected"]["pi1"] = "nontrivial"
    text = json.dumps(data, ensure_ascii=False, indent=1)
    case_path.write_text(text)
    manifest_path = dst / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    import hashlib

    for entry in manifest["cases"]:
        if entry["file"].endswith("u-0-4.json"):
            entry["sha256"] = hashlib.sha256(case_path.read_bytes()).hexdigest()
    manifest_path.write_text(json.dumps(manifest, ensure_ascii=False))
    monkeypatch.setenv("DEGEN_CATALOG_DIR", str(dst))
    rc, out, _ = run(capsys, "analyze", "U_{0,4}", "--format", "json")
    assert rc == 2
    assert json.loads(out)["consistent"] is False


def test_analyze_accepts_complex_file(capsys, tmp_path):
    case = json.loads((DATA_DIR / "cases" / "u-0-4.json").read_text())
    pc = PlanarComplex.from_json(case["complex"])
    target = tmp_path / "standalone.json"
    target.write_text(pc.dumps())
    rc, out, _ = run(capsys, "analyze", str(target), "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["verdict"]["outcome"] == "trivial"
    assert "expected_pi1" not in data or data["expected_pi1"] is None


def test_analyze_case_classifies_each_vertex_once(capsys, fan_gap_calls):
    vertices = degen.catalog.load_case("U_{0,6,1}").complex.vertices
    rc, _, _ = run(capsys, "analyze", "U_{0,6,1}", "--format", "json")
    assert rc == 0
    assert fan_gap_calls == {v: 1 for v in vertices}


def test_analyze_file_validates_and_classifies_each_vertex_once(
    capsys, tmp_path, fan_gap_calls
):
    case = json.loads((DATA_DIR / "cases" / "u-0-6-1.json").read_text())
    target = tmp_path / "standalone.json"
    target.write_text(json.dumps(case["complex"]))
    rc, _, _ = run(capsys, "analyze", str(target), "--format", "json")
    assert rc == 0
    assert set(fan_gap_calls) == {v for v, _ in case["complex"]["vertices"]}
    assert max(fan_gap_calls.values()) <= 2


def test_analyze_missing_file_fails_cleanly(capsys, tmp_path):
    rc, _, err = run(capsys, "analyze", str(tmp_path / "absent.json"))
    assert rc == 1
    assert "error" in err


def test_table_matches_catalog(capsys):
    rc, out, _ = run(capsys, "table")
    assert rc == 0
    assert out.splitlines()[-1] == "diffs against catalog: none"


def test_table_json_carries_exact_fractions(capsys):
    rc, out, _ = run(capsys, "table", "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["diffs"] == []
    by_name = {r["name"]: r for r in data["rows"]}
    assert by_name["U_{0,7}"]["c2_coeff"] == "11/2"


def test_enumerate_count_only(capsys):
    rc, out, _ = run(capsys, "enumerate", "--triangles", "6", "--count-only")
    assert rc == 0
    assert out.strip() == "28"


def test_enumerate_writes_loadable_complexes(capsys, tmp_path):
    out_dir = tmp_path / "maps"
    rc, out, _ = run(
        capsys, "enumerate", "--triangles", "4", "--out-dir", str(out_dir)
    )
    assert rc == 0
    files = sorted(out_dir.glob("map-*.json"))
    assert len(files) == 5
    for path in files:
        assert PlanarComplex.loads(path.read_text()).validate().ok


def test_enumerate_without_out_dir_fails(capsys):
    rc, _, err = run(capsys, "enumerate", "--triangles", "4")
    assert rc == 1
    assert "out-dir" in err


def test_export_text_presentation(capsys):
    rc, out, _ = run(capsys, "export", "u-0-6-1")
    lines = out.splitlines()
    assert rc == 0
    assert lines[0] == "generators: g1 g2 g3 g4 g5"
    assert "# involution" in lines
    assert sum(1 for l in lines if l and not l.startswith(("#", "generators"))) == 15


def test_export_json_round_trips(capsys):
    rc, out, _ = run(capsys, "export", "U_{0,4}", "--format", "json")
    data = json.loads(out)
    assert rc == 0
    assert data["format"] == "degen-presentation/1"
    assert data["generators"] == [1, 2, 3, 4, 5]


def test_unknown_case_is_an_operational_error(capsys):
    rc, _, err = run(capsys, "analyze", "definitely-not-a-case")
    assert rc == 1
    assert "no case named" in err


def test_bad_flag_exits_one():
    proc = subprocess.run(
        [sys.executable, "-m", "degen.cli", "list", "--format", "yaml"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 1


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "degen", "list", "--format", "json"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 29


def test_console_entry_point():
    proc = subprocess.run(
        ["degen", "list", "--format", "json"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert len(json.loads(proc.stdout)) == 29
