"""Module layering: the lower layers load without the decision pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(module: str, *flags: str) -> set[str]:
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "module, absent",
    [
        ("degen.enumerator", {"degen.catalog", "degen.pipeline"}),
        ("degen.catalog", {"degen.pipeline", "degen.fpgroup", "degen.invariants"}),
        (
            "degen.complexes",
            {
                "degen.enumerator",
                "degen.relations",
                "degen.fpgroup",
                "degen.pipeline",
                "degen.catalog",
            },
        ),
        ("degen.pipeline", {"degen.catalog", "degen.enumerator"}),
        (
            "degen.relations",
            {"degen.fpgroup", "degen.pipeline", "degen.catalog", "degen.enumerator"},
        ),
        (
            "degen.fpgroup",
            {
                "degen.catalog",
                "degen.pipeline",
                "degen.enumerator",
                "degen.invariants",
                "degen.cli",
            },
        ),
    ],
)
def test_import_does_not_load_upper_layers(module, absent):
    loaded = loaded_modules(module)
    assert module in loaded
    assert not loaded & absent


def test_import_loads_no_resource_loader_and_no_dataclasses():
    """Records and verdicts are NamedTuples, so degen loads no `dataclasses`
    (nor the `inspect` it pulls in), and no resource loader either.

    ``-S`` keeps site hooks from preloading modules, so what the program
    imports itself shows.
    """
    modules = sorted(
        f"degen.{p.stem}" for p in (SRC / "degen").glob("*.py") if p.stem != "__init__"
    )
    code = (
        "import importlib, sys\n"
        f"mods = [importlib.import_module(m) for m in {modules!r}]\n"
        "print('importlib.resources' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    assert proc.stdout == "False\n"
    loaded = loaded_modules("degen.cli", "-S")
    assert "degen.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}


def test_cli_import_loads_no_pathlib():
    """degen keeps paths as `os.path` strings, so no command pays for `pathlib`
    and the `urllib.parse` and `ipaddress` it pulls in."""
    loaded = loaded_modules("degen.cli", "-S")
    assert "degen.cli" in loaded
    assert not loaded & {"pathlib", "urllib.parse", "ipaddress"}
