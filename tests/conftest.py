from collections import Counter

import pytest

import degen.complexes
from degen.catalog import load_all
from degen.enumerator import embed, enumerate_maps


@pytest.fixture(scope="session")
def records():
    return load_all()


@pytest.fixture(scope="session")
def by_name(records):
    return {rec.name: rec for rec in records}


@pytest.fixture(scope="session")
def small_complexes(records):
    """The 29 catalog complexes, then an embedding of every disk of up to 8
    triangles (392 complexes)."""
    return [rec.complex for rec in records] + [
        embed(m) for n in range(1, 9) for m in enumerate_maps(n)
    ]


@pytest.fixture
def orient_disk_calls(monkeypatch):
    """Count calls to `orient_disk` made through `degen.complexes`."""
    calls = Counter()
    original = degen.complexes.orient_disk

    def counted(*args):
        calls["orient_disk"] += 1
        return original(*args)

    monkeypatch.setattr(degen.complexes, "orient_disk", counted)
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
