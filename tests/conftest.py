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
def derivation_calls(monkeypatch):
    """Count builds of a complex's edge-to-planes map (`PlanarComplex.edge_planes`)
    and of its oriented planes (`orient_disk`, through `degen.complexes`)."""
    calls = Counter()
    orient_disk = degen.complexes.orient_disk
    edge_planes = degen.complexes.PlanarComplex.edge_planes

    def counted_orient_disk(*args):
        calls["orient_disk"] += 1
        return orient_disk(*args)

    def counted_edge_planes(self):
        calls["edge_planes"] += 1
        return edge_planes(self)

    monkeypatch.setattr(degen.complexes, "orient_disk", counted_orient_disk)
    monkeypatch.setattr(degen.complexes.PlanarComplex, "edge_planes", counted_edge_planes)
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
