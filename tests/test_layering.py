"""Module layering: the lower layers load without the decision pipeline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


def loaded_modules(module: str) -> set[str]:
    code = f"import sys, {module}; print(' '.join(sorted(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
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
        ("degen.catalog", {"degen.pipeline", "degen.fpgroup"}),
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
