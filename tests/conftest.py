from collections import Counter

import pytest

import degen.complexes
from degen.catalog import load_all
from degen.complexes import PlanarComplex


@pytest.fixture(scope="session")
def records():
    return load_all()


@pytest.fixture(scope="session")
def by_name(records):
    return {rec.name: rec for rec in records}


@pytest.fixture
def fan_gap_calls(monkeypatch):
    """Count `PlanarComplex._fan_gaps` calls per vertex while a test runs."""
    calls: Counter = Counter()
    original = PlanarComplex._fan_gaps

    def counted(self, v):
        calls[v] += 1
        return original(self, v)

    monkeypatch.setattr(PlanarComplex, "_fan_gaps", counted)
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
