"""Unit tests for the semantic measures of Section 4.3 / Table 1."""

import pytest

from repro.semantics.documents import DocumentSet
from repro.semantics.measures import (
    CachedMeasure,
    ExactMeasure,
    NonThematicMeasure,
    ThematicMeasure,
)
from repro.semantics.pvsm import ParametricVectorSpace

TOY = DocumentSet.from_texts(
    [
        "energy power consumption grid",
        "energy usage power meter",
        "parking garage street car",
    ]
)


@pytest.fixture(scope="module")
def toy_space():
    return ParametricVectorSpace(TOY)


class TestExactMeasure:
    def test_identical(self):
        assert ExactMeasure().score("Energy ", (), "energy", ()) == 1.0

    def test_different(self):
        assert ExactMeasure().score("energy", (), "power", ()) == 0.0

    def test_ignores_themes(self):
        assert ExactMeasure().score("a1", ("x",), "a1", ("y",)) == 1.0


class TestNonThematicMeasure:
    def test_identical_short_circuits(self, toy_space):
        assert NonThematicMeasure(toy_space).score("zebra", (), "zebra", ()) == 1.0

    def test_ignores_themes(self, toy_space):
        measure = NonThematicMeasure(toy_space)
        assert measure.score("power", ("parking",), "meter", ("street",)) == (
            measure.score("power", (), "meter", ())
        )

    def test_range(self, toy_space):
        value = NonThematicMeasure(toy_space).score("power", (), "garage", ())
        assert 0.0 <= value <= 1.0


class TestThematicMeasure:
    def test_uses_themes(self, toy_space):
        measure = ThematicMeasure(toy_space)
        themed = measure.score("power", ("grid",), "meter", ("grid",))
        assert themed == 0.0  # meter absent from the grid doc
        full = measure.score("power", (), "meter", ())
        assert full > 0.0

    def test_identical_short_circuits(self, toy_space):
        assert ThematicMeasure(toy_space).score("power", ("grid",), "power", ()) == 1.0

    def test_mode_forwarded(self, toy_space):
        own = ThematicMeasure(toy_space, mode="own")
        common = ThematicMeasure(toy_space, mode="common")
        args = ("power", ("energy", "parking"), "meter", ("meter",))
        assert own.score(*args) != common.score(*args) or common.score(*args) == 0.0


class TestCachedMeasure:
    def test_caches_and_counts(self, toy_space):
        cached = CachedMeasure(NonThematicMeasure(toy_space))
        first = cached.score("power", (), "meter", ())
        second = cached.score("power", (), "meter", ())
        assert first == second
        assert cached.cache.hits == 1
        assert cached.cache.misses == 1

    def test_symmetric_key(self, toy_space):
        cached = CachedMeasure(NonThematicMeasure(toy_space))
        cached.score("power", (), "meter", ())
        assert cached.score("meter", (), "power", ()) == cached.score(
            "power", (), "meter", ()
        )
        assert len(cached.cache) == 1

    def test_theme_in_key(self, toy_space):
        cached = CachedMeasure(ThematicMeasure(toy_space))
        a = cached.score("power", ("grid",), "consumption", ("grid",))
        b = cached.score("power", (), "consumption", ())
        assert len(cached.cache) == 2
        assert a != b
