from collections import Counter

import pytest

import degen.complexes
from degen.catalog import load_all


@pytest.fixture(scope="session")
def records():
    return load_all()


@pytest.fixture(scope="session")
def by_name(records):
    return {rec.name: rec for rec in records}


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
