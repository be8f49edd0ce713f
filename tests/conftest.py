from collections import Counter

import pytest

import degen.complexes
from degen.catalog import open_catalog
from degen.enumerator import embed, enumerate_maps


@pytest.fixture(scope="session")
def records():
    return tuple(open_catalog())


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
    """Count builds of a complex's edge-to-planes map (`PlanarComplex.edge_planes`),
    of its oriented planes (`orient_disk`) and of its fans (`vertex_fans`), and
    the ``Fraction``s made, all through `degen.complexes`."""
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    for name in ("orient_disk", "vertex_fans", "Fraction"):
        monkeypatch.setattr(
            degen.complexes, name, counted(name, getattr(degen.complexes, name))
        )
    edge_planes = degen.complexes.PlanarComplex.edge_planes
    monkeypatch.setattr(
        degen.complexes.PlanarComplex, "edge_planes", counted("edge_planes", edge_planes)
    )
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
