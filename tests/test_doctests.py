"""Run the docstring examples of every degen module."""

import doctest
import importlib
import pkgutil

import degen

MODULES = sorted(
    info.name
    for info in pkgutil.iter_modules(degen.__path__, prefix="degen.")
    if info.name != "degen.__main__"
)


def test_docstring_examples_pass():
    results = {name: doctest.testmod(importlib.import_module(name)) for name in MODULES}
    assert {name: r.failed for name, r in results.items() if r.failed} == {}
    assert sum(r.attempted for r in results.values()) >= 1
