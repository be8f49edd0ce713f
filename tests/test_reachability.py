"""Every function in `src/degen` runs under the commands a user types.

A fixed list of `degen` commands, `analyze` on a catalog disk written to a
file, the README's library example, a stale catalog hint and a catalog Chern
coefficient that the computation contradicts run in process under
`sys.setprofile`, which records the code object of every Python call.
Each `def` in the package, nested ones too, is keyed by its file and first
line (the first decorator's line for a decorated one), so the check needs no
`co_qualname`, which Python 3.10 lacks.  The functions that never ran must
be exactly `ALLOWED`: benchmark entry points, each named with its call site
in `perfbench/workloads.py`.  A function that loses its last caller fails the
test, and so does an entry that runs again.
"""

import ast
import json
import re
import sys
from pathlib import Path

import degen.catalog
import degen.cli

PACKAGE = Path(degen.cli.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"

# (file, qualified name) -> its call site in perfbench/workloads.py
ALLOWED = {
    ("catalog.py", "Catalog.names"): "mods.catalog.open_catalog().names()",
    ("complexes.py", "PlanarComplex.loads"): "mods.complexes.PlanarComplex.loads(text)",
}

# a disk whose vertices 1 and 4 lie on one point, which `validate` names
SHARED_POINT = {
    "format": "degen-complex/1",
    "vertices": [[1, [0, 0, 1, 1]], [2, [1, 0, 1, 1]], [3, [0, 1, 1, 1]], [4, [0, 0, 1, 1]]],
    "triangles": [[1, [1, 2, 3]], [2, [2, 4, 3]]],
    "line_numbering": [[1, [2, 3]]],
}
SHARED = "<shared-point file>"

# (argv, exit code); `None` stands for the directory `enumerate` writes to and
# SHARED for a file holding SHARED_POINT
COMMANDS = [
    (["list"], 0),
    (["list", "--format", "json"], 0),
    (["table"], 0),
    (["table", "--format", "json"], 0),
    (["analyze", "--all"], 0),
    (["analyze", "--all", "--format", "json"], 0),
    (["analyze", "--all", "--no-hints", "--verbose"], 0),
    (["export", "u-0-6-1"], 0),
    (["export", "U_6", "--format", "json"], 0),
    (["enumerate", "--triangles", "6"], 0),
    (["enumerate", "--triangles", "6", "--out-dir", None], 0),
    (["enumerate", "--triangles", "6", "--out-dir", SHARED], 1),
    (["analyze", SHARED], 1),
    (["analyze", "--all", "U_6"], 1),
    (["analyze", "no-such-case"], 1),
    (["no-such-command"], 1),
]


def defined_functions() -> dict[tuple[str, int], str]:
    """Every `def` in the package, keyed (file, first line), to its dotted name."""
    found = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[(str(path), first)] = prefix + child.name
                visit(child, path, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{prefix}{child.name}.")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, "")
    return found


def run_main(argv: list[str]) -> int:
    try:
        return degen.cli.main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def exercise(tmp_path: Path, edited_catalog) -> None:
    paths = {None: tmp_path / "maps", SHARED: tmp_path / "shared-point.json"}
    paths[SHARED].write_text(json.dumps(SHARED_POINT), encoding="utf-8")
    for argv, code in COMMANDS:
        argv = [str(paths[a]) if a in paths else a for a in argv]
        assert run_main(argv) == code, argv
    out_dir = paths[None]
    # one of the 28 disks has an inner 6-point, which only catalog data can relate
    codes = [run_main(["analyze", str(p)]) for p in sorted(out_dir.glob("map-*.json"))]
    assert sorted(codes) == [0] * 27 + [1]
    # a catalog disk whose boundary is not strictly convex, so validate tests
    # its boundary edge pairs
    by_name = {rec.name: rec for rec in degen.catalog.open_catalog()}
    nonconvex = tmp_path / "u-0-4.json"
    nonconvex.write_text(by_name["U_{0,4}"].complex.dumps(), encoding="utf-8")
    assert run_main(["analyze", str(nonconvex)]) == 0
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(example, "README.md", "exec"), {})
    # `U_{0,6,2}` with a hint on a line it lacks
    edited_catalog(
        "u-0-6-2",
        lambda data: data["hints"].append(
            {"line": 1, "preconditions": [99], "citation": "15-vert3"}
        ),
    )
    assert run_main(["analyze", "U_{0,6,2}", "--format", "json"]) == 0
    # `U_{0,4}` with a Chern coefficient the computation does not give
    edited_catalog("u-0-4", lambda data: data["expected"].update(chi_coeff="-5/3"))
    assert run_main(["table"]) == run_main(["analyze", "U_{0,4}"]) == 2


def test_every_function_runs_or_is_a_named_benchmark_entry(tmp_path, edited_catalog, capsys):
    # a cached module-level function would not run again after an earlier test
    for module in [m for name, m in sys.modules.items() if name.startswith("degen.")]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                value.cache_clear()
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        exercise(tmp_path, edited_catalog)
    finally:
        sys.setprofile(previous)
    capsys.readouterr()

    ran = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in codes}
    functions = defined_functions()
    never = {
        (Path(path).name, name): line
        for (path, line), name in functions.items()
        if (path, line) not in ran
    }
    unexpected = sorted(set(never) - set(ALLOWED), key=lambda k: (k[0], never[k]))
    stale = sorted(set(ALLOWED) - set(never))
    assert not unexpected and not stale, "\n".join(
        [f"src/degen/{f}:{never[f, n]} {n} never runs" for f, n in unexpected]
        + [f"src/degen/{f} {n} runs, yet is allowed as unreached" for f, n in stale]
        + [
            "Give each unreached function a caller that a command reaches, move it"
            " to tests/ if only tests call it, or add it to ALLOWED with its call"
            " site in perfbench/workloads.py."
        ]
    )
    workloads = WORKLOADS.read_text(encoding="utf-8")
    for site in ALLOWED.values():
        assert site in workloads, f"{site} is not called in perfbench/workloads.py"
