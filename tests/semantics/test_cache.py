"""Unit tests for the relatedness memo, empty and pre-filled."""

from repro.semantics.cache import (
    RelatednessCache,
    cache_key,
    precompute_scores,
)


class _CountingMeasure:
    """Fake measure recording how many times it was asked."""

    def __init__(self):
        self.calls = 0

    def score(self, term_s, theme_s, term_e, theme_e):
        self.calls += 1
        return 0.5


class TestRelatednessCache:
    def test_put_get_roundtrip(self):
        cache = RelatednessCache()
        key = cache_key("a1", (), "b1", ())
        cache.put(key, 0.7)
        assert cache.get(key) == 0.7

    def test_symmetric_keys(self):
        assert cache_key("a1", ("t",), "b1", ()) == cache_key("b1", (), "a1", ("t",))

    def test_normalized_keys(self):
        assert cache_key("Energy ", (), "b1", ()) == cache_key("energy", (), "b1", ())

    def test_equal_halves_are_one_object(self):
        first = cache_key("power", ("energy",), "meter", ("grid",))
        second = cache_key("Power ", frozenset({"Energy"}), "parking", ())
        half = ("power", ("energy",))
        assert first[1] == second[1] == half
        assert first[1] is second[1]

    def test_counters(self):
        cache = RelatednessCache()
        key = cache_key("a1", (), "b1", ())
        assert cache.get(key) is None
        cache.put(key, 0.1)
        cache.get(key)
        assert cache.misses == 1
        assert cache.hits == 1

    def test_clear(self):
        cache = RelatednessCache()
        cache.put(cache_key("a1", (), "b1", ()), 0.1)
        cache.clear()
        assert len(cache) == 0
        assert cache.hits == 0

    def test_hit_rate(self):
        cache = RelatednessCache()
        key = cache_key("a1", (), "b1", ())
        assert cache.hit_rate == 0.0
        cache.get(key)  # miss
        cache.put(key, 0.1)
        cache.get(key)  # hit
        cache.get(key)  # hit
        assert cache.hit_rate == 2 / 3

    def test_unbounded_by_default(self):
        cache = RelatednessCache()
        for i in range(1000):
            cache.put(cache_key(f"t{i}", (), "b1", ()), 0.1)
        assert len(cache) == 1000


class TestBoundedCache:
    def _key(self, i):
        return cache_key(f"t{i}", (), "z1", ())

    def test_max_entries_evicts_oldest(self):
        cache = RelatednessCache(max_entries=2)
        cache.put(self._key(0), 0.0)
        cache.put(self._key(1), 0.1)
        cache.put(self._key(2), 0.2)
        assert len(cache) == 2
        assert cache.get(self._key(0)) is None
        assert cache.get(self._key(2)) == 0.2

    def test_get_refreshes_recency(self):
        cache = RelatednessCache(max_entries=2)
        cache.put(self._key(0), 0.0)
        cache.put(self._key(1), 0.1)
        cache.get(self._key(0))  # now most-recent
        cache.put(self._key(2), 0.2)
        assert cache.get(self._key(0)) == 0.0
        assert cache.get(self._key(1)) is None

    def test_put_existing_key_does_not_evict(self):
        cache = RelatednessCache(max_entries=2)
        cache.put(self._key(0), 0.0)
        cache.put(self._key(1), 0.1)
        cache.put(self._key(0), 0.5)  # update in place
        assert len(cache) == 2
        assert cache.get(self._key(0)) == 0.5
        assert cache.get(self._key(1)) == 0.1

    def test_invalid_bound_rejected(self):
        import pytest

        with pytest.raises(ValueError):
            RelatednessCache(max_entries=0)


class TestPrecomputeScores:
    def test_covers_cross_product(self):
        measure = _CountingMeasure()
        table = precompute_scores(measure, ["a1", "b1"], ["c1", "d1"])
        assert len(table) == 4
        assert measure.calls == 4

    def test_no_duplicate_computation_for_shared_terms(self):
        measure = _CountingMeasure()
        table = precompute_scores(measure, ["a1", "b1"], ["a1", "b1"])
        # Symmetric keys collapse (a,b) and (b,a); (a,a) and (b,b) included.
        assert len(table) == 3

    def test_lookup_respects_themes(self):
        measure = _CountingMeasure()
        table = precompute_scores(
            measure, ["a1"], ["b1"], theme_s=("x",), theme_e=("y",)
        )
        assert table.get(cache_key("a1", ("x",), "b1", ("y",))) == 0.5
        assert table.get(cache_key("a1", (), "b1", ())) is None

    def test_symmetric_lookup(self):
        measure = _CountingMeasure()
        table = precompute_scores(measure, ["a1"], ["b1"])
        assert table.get(cache_key("b1", (), "a1", ())) == 0.5
