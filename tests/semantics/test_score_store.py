"""PersistentScoreStore, the memo it backs, and the offline warmer.

The precomputed scores' contract, property-checked over a toy corpus:

* the hashed/sorted array store answers exactly like the dict memo it
  was built from, for hits and misses alike, regardless of argument
  order (keys are symmetric);
* one tier order for every configuration: a
  :class:`~repro.semantics.measures.CachedMeasure` resolves memo ->
  backing store -> wrapped measure, for ``score`` and ``score_batch``,
  over a pre-filled memo, a store-backed memo, or both;
* a save/load round trip is bit-identical, memory-mapped, and guarded
  by magic, layout version, endianness and corpus digest;
* the warmer's planned cross-product deduplicates symmetric pairs and
  scores them with the online scalar measure, so a warmed engine never
  sees a score the unwarmed engine would not have produced.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.language import parse_event, parse_subscription
from repro.obs import MetricsRegistry
from repro.semantics.cache import (
    PersistentScoreStore,
    RelatednessCache,
    cache_key,
    precompute_scores,
)
from repro.semantics.documents import DocumentSet
from repro.semantics.measures import CachedMeasure, ExactMeasure, ThematicMeasure
from repro.semantics.persistence import (
    SCORE_STORE_FORMAT_VERSION,
    corpus_digest,
    load_score_store,
    save_score_store,
)
from repro.semantics.pvsm import ParametricVectorSpace
from repro.semantics.warm import (
    build_score_store,
    plan_lookups,
    warm_score_table,
    workload_vocabulary,
)

TOY = DocumentSet.from_texts(
    [
        "energy power grid consumption meter",
        "parking street car transport spot",
        "weather storm rain wind forecast",
        "energy meter building office monitor",
        "car engine power fuel energy",
        "office building room computer energy",
        "storm damage power outage grid",
        "computer laptop device office desk",
    ]
)

DIGEST = corpus_digest(TOY)

terms = st.sampled_from(
    ("energy", "power", "car", "storm", "office", "laptop", "grid")
)
themes = st.sets(
    st.sampled_from(("energy", "street", "office", "city")), max_size=2
).map(tuple)


@pytest.fixture(scope="module")
def toy_space():
    return ParametricVectorSpace(TOY)


TAGS = ("energy", "office")


@pytest.fixture(scope="module")
def reference(toy_space):
    """A dict-filled memo plus the store built from it, over real scores."""
    table = precompute_scores(
        ThematicMeasure(toy_space),
        ("energy", "power", "car", "storm"),
        ("office", "laptop", "grid", "rain"),
        theme_s=TAGS,
    )
    store = PersistentScoreStore.build(table.scores, corpus_digest=DIGEST)
    return table, store


def stored(store, term_s, theme_s, term_e, theme_e):
    """One-lookup probe of a bare store."""
    return store.probe([cache_key(term_s, theme_s, term_e, theme_e)])[0]


class TestStoreLookup:
    def test_every_table_entry_reads_back_bitwise(self, reference):
        table, store = reference
        assert len(store) == len(table) == 16
        for key, score in table.scores.items():
            assert store.probe([key]) == [score]

    def test_lookup_is_symmetric(self, reference):
        _, store = reference
        assert stored(store, "power", TAGS, "grid", ()) == stored(
            store, "grid", (), "power", TAGS
        )

    def test_miss_returns_none(self, reference):
        _, store = reference
        assert stored(store, "zzz", (), "qqq", ()) is None

    def test_theme_sets_distinguish_entries(self, reference):
        _, store = reference
        # Same terms, different themes: not in the table -> miss.
        assert stored(store, "power", (), "grid", ()) is None

    def test_counters_track_hits_and_misses(self, reference):
        table, _ = reference
        registry = MetricsRegistry()
        store = PersistentScoreStore.build(
            table.scores, corpus_digest=DIGEST, registry=registry
        )
        stored(store, "power", TAGS, "grid", ())
        stored(store, "zzz", (), "qqq", ())
        counters = registry.snapshot()["counters"]
        assert counters["score_store.hits"] == 1
        assert counters["score_store.misses"] == 1

    def test_get_batch_matches_per_key_gets(self, reference):
        _, store = reference
        keys = [
            cache_key("power", TAGS, "grid", ()),  # hit
            cache_key("zzz", (), "qqq", ()),  # miss
            cache_key("grid", (), "power", TAGS),  # symmetric repeat
            cache_key("storm", TAGS, "rain", ()),  # hit
        ]
        registry = MetricsRegistry()
        fresh = PersistentScoreStore(
            **store.arrays(), corpus_digest=DIGEST, registry=registry
        )
        batch = fresh.probe(keys)
        assert batch == [store.probe([key])[0] for key in keys]
        counters = registry.snapshot()["counters"]
        assert counters["score_store.hits"] == 3
        assert counters["score_store.misses"] == 1
        # The memo in front answers a batch exactly as it answers singles.
        assert RelatednessCache(backing=store).get_many(keys) == batch
        single = RelatednessCache(backing=store)
        assert [single.get(key) for key in keys] == batch

    def test_empty_store_and_empty_batch(self, reference):
        _, store = reference
        empty = PersistentScoreStore.build({}, corpus_digest=DIGEST)
        assert empty.probe([cache_key("power", TAGS, "grid", ())]) == [None]
        assert store.probe([]) == []

    @settings(deadline=None)
    @given(
        entries=st.dictionaries(
            st.tuples(terms, themes, terms, themes),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=1,
            max_size=24,
        ),
        absent=st.lists(st.tuples(terms, themes, terms, themes), max_size=6),
    )
    def test_store_agrees_with_dict_table_on_any_contents(
        self, entries, absent
    ):
        scores = {
            cache_key(*lookup): score for lookup, score in entries.items()
        }
        filled = RelatednessCache(dict(scores))
        backed = RelatednessCache(
            backing=PersistentScoreStore.build(scores, corpus_digest=DIGEST)
        )
        keys = [cache_key(*lookup) for lookup in (*entries, *absent)]
        for key in keys:
            assert backed.get(key) == filled.get(key)
        # Second pass: store hits were written back, answers unchanged.
        assert backed.get_many(keys) == filled.get_many(keys)
        assert set(backed.scores) == set(scores)


class TestPersistence:
    def test_round_trip_is_bit_identical(self, reference, tmp_path):
        table, store = reference
        path = tmp_path / "scores.bin"
        save_score_store(store, path)
        loaded = load_score_store(path, expected_digest=DIGEST)
        assert len(loaded) == len(store)
        keys = list(table.scores)
        assert loaded.probe(keys) == store.probe(keys)
        assert loaded.probe(keys) == list(table.scores.values())

    def test_save_creates_parent_directories(self, reference, tmp_path):
        _, store = reference
        path = tmp_path / "artifacts" / "warm" / "scores.bin"
        save_score_store(store, path)
        loaded = load_score_store(path, expected_digest=DIGEST)
        assert len(loaded) == len(store)

    def test_wrong_digest_is_rejected(self, reference, tmp_path):
        _, store = reference
        path = tmp_path / "scores.bin"
        save_score_store(store, path)
        with pytest.raises(ValueError, match="digest mismatch"):
            load_score_store(path, expected_digest="0" * 64)

    def test_wrong_magic_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.bin"
        path.write_bytes(b"NOTASTORE" + b"\x00" * 128)
        with pytest.raises(ValueError, match="not a repro score-store"):
            load_score_store(path)

    def test_load_returns_read_only_memory_mapped_views(
        self, reference, tmp_path
    ):
        _, store = reference
        path = tmp_path / "scores.bin"
        save_score_store(store, path)
        loaded = load_score_store(path)
        for name, array in store.arrays().items():
            view = loaded.arrays()[name]
            assert isinstance(view, np.memmap)
            assert not view.flags.writeable
            assert view.dtype == array.dtype
            assert np.array_equal(view, array)

    def test_rejects_future_layout_version(self, reference, tmp_path):
        _, store = reference
        path = tmp_path / "scores.bin"
        save_score_store(store, path)
        raw = bytearray(path.read_bytes())
        raw[8:10] = struct.pack("=H", SCORE_STORE_FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="layout version"):
            load_score_store(path)

    def test_rejects_opposite_endianness(self, reference, tmp_path):
        _, store = reference
        path = tmp_path / "scores.bin"
        save_score_store(store, path)
        raw = bytearray(path.read_bytes())
        raw[10:12] = bytes(reversed(raw[10:12]))  # byte-swapped probe
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="endianness"):
            load_score_store(path)

    def test_save_requires_a_real_digest(self, reference, tmp_path):
        table, _ = reference
        store = PersistentScoreStore.build(table.scores, corpus_digest="abc")
        with pytest.raises(ValueError, match="64-char"):
            save_score_store(store, tmp_path / "scores.bin")

    def test_store_save_load_methods_round_trip(self, reference, tmp_path):
        _, store = reference
        path = tmp_path / "scores.bin"
        store.save(path)
        loaded = PersistentScoreStore.load(path, expected_digest=DIGEST)
        assert stored(loaded, "power", TAGS, "grid", ()) == stored(
            store, "power", TAGS, "grid", ()
        )

    def test_warm_materializes_and_still_answers(self, reference, tmp_path):
        _, store = reference
        path = tmp_path / "scores.bin"
        save_score_store(store, path)
        loaded = load_score_store(path, expected_digest=DIGEST)
        warmed = loaded.warm()
        assert warmed is loaded
        assert stored(warmed, "power", TAGS, "grid", ()) == stored(
            store, "power", TAGS, "grid", ()
        )


MEMO_SCORE, STORE_SCORE, SHADOWED_SCORE, INNER_SCORE = 0.9, 0.8, 0.1, 0.25
MEMO_PAIR = ("power", TAGS, "grid", ())
STORE_PAIR = ("storm", TAGS, "rain", ())
UNKNOWN_PAIR = ("laptop", ("office",), "desk", ("office",))


class CountingStore:
    """A real store that records every key probed."""

    def __init__(self, scores):
        self.store = PersistentScoreStore.build(scores, corpus_digest=DIGEST)
        self.probes = 0
        self.probed = []

    def probe(self, keys):
        self.probes += 1
        self.probed.extend(keys)
        return self.store.probe(keys)


class CountingInner:
    """Measure double recording every key that reaches it.

    The scalar form has only ``score``; the ``vectorized`` form also has
    ``score_batch`` and counts the bulk calls it receives.
    """

    vectorized = False

    def __init__(self):
        self.seen = []
        self.batches = 0

    def score(self, *lookup):
        self.seen.append(cache_key(*lookup))
        return INNER_SCORE


class VectorizedCountingInner(CountingInner):
    vectorized = True

    def score_batch(self, lookups):
        self.batches += 1
        return [self.score(*lookup) for lookup in lookups]


@pytest.fixture(params=["memo", "store", "both"])
def tiers(request):
    """``(cache, store double or None, {pair: expected score})``.

    ``memo``: pre-filled, no backing. ``store``: empty memo over a
    store. ``both``: the memo holds one pair, the store another — and a
    different score for the memo's pair, which must stay shadowed.
    """
    memo = {cache_key(*MEMO_PAIR): MEMO_SCORE}
    if request.param == "memo":
        return RelatednessCache(memo), None, {MEMO_PAIR: MEMO_SCORE}
    if request.param == "store":
        store = CountingStore({cache_key(*STORE_PAIR): STORE_SCORE})
        return RelatednessCache(backing=store), store, {STORE_PAIR: STORE_SCORE}
    store = CountingStore(
        {
            cache_key(*STORE_PAIR): STORE_SCORE,
            cache_key(*MEMO_PAIR): SHADOWED_SCORE,
        }
    )
    return (
        RelatednessCache(memo, backing=store),
        store,
        {MEMO_PAIR: MEMO_SCORE, STORE_PAIR: STORE_SCORE},
    )


@pytest.fixture(params=["score", "batch"])
def ask(request):
    """``ask(measure, lookups) -> scores`` through one of the two calls."""
    if request.param == "score":
        return lambda measure, lookups: [measure.score(*lo) for lo in lookups]
    return lambda measure, lookups: measure.score_batch(lookups)


@pytest.fixture(
    params=[CountingInner, VectorizedCountingInner], ids=["scalar", "kernel"]
)
def inner(request):
    return request.param()


def swapped(lookup):
    term_s, theme_s, term_e, theme_e = lookup
    return (term_e, theme_e, term_s, theme_s)


class TestTierOrder:
    """memo -> store -> inner, the same for every configuration."""

    def test_memo_then_store_then_inner(self, tiers, ask, inner):
        cache, store, known = tiers
        measure = CachedMeasure(inner, cache)
        lookups = [*known, UNKNOWN_PAIR]
        assert ask(measure, lookups) == [*known.values(), INNER_SCORE]
        # Only what no tier above knew reached the wrapped measure ...
        assert inner.seen == [cache_key(*UNKNOWN_PAIR)]
        # ... and the store was asked only for what the memo lacked.
        if store is not None:
            assert cache_key(*MEMO_PAIR) not in store.probed
            assert cache_key(*STORE_PAIR) in store.probed

    def test_batch_misses_go_down_in_one_call(self, tiers, inner):
        cache, store, known = tiers
        other = ("car", TAGS, "office", ())
        lookups = [*known, UNKNOWN_PAIR, other]
        CachedMeasure(inner, cache).score_batch(lookups)
        assert inner.seen == [cache_key(*UNKNOWN_PAIR), cache_key(*other)]
        assert inner.batches == (1 if inner.vectorized else 0)
        if store is not None:
            # One probe carried every memo miss of the batch.
            assert store.probes == 1
            assert store.probed == [
                cache_key(*lookup) for lookup in lookups if lookup != MEMO_PAIR
            ]

    def test_write_back_not_asked_twice(self, tiers, ask, inner):
        cache, store, known = tiers
        measure = CachedMeasure(inner, cache)
        lookups = [*known, UNKNOWN_PAIR]
        first = ask(measure, lookups)
        assert ask(measure, lookups) == first
        assert all(cache_key(*lookup) in cache.scores for lookup in lookups)
        assert inner.seen == [cache_key(*UNKNOWN_PAIR)]
        if store is not None:
            assert len(set(store.probed)) == len(store.probed)

    def test_key_symmetry_and_themes(self, tiers, ask, inner):
        cache, _, known = tiers
        measure = CachedMeasure(inner, cache)
        for lookup, expected in known.items():
            assert ask(measure, [swapped(lookup)]) == [expected]
        assert inner.seen == []
        for term_s, _, term_e, _ in known:
            # Same terms under other themes: a different entry.
            assert ask(measure, [(term_s, ("city",), term_e, ())]) == [
                INNER_SCORE
            ]
        assert len(inner.seen) == len(known)

    def test_identical_terms_score_one(self, tiers, ask):
        cache, _, _ = tiers
        measure = CachedMeasure(ExactMeasure(), cache)
        lookups = [("x1", (), "x1", ()), ("Energy ", TAGS, "energy", ())]
        assert ask(measure, lookups) == [1.0, 1.0]

    def test_unknown_pair_over_exact_scores_0(self, tiers, ask):
        cache, _, known = tiers
        measure = CachedMeasure(ExactMeasure(), cache)
        assert ask(measure, [UNKNOWN_PAIR, *known]) == [0.0, *known.values()]

    def test_batch_equals_per_lookup_scores(
        self, reference, toy_space
    ):
        table, store = reference
        lookups = [
            ("power", TAGS, "grid", ()),  # in table and store
            UNKNOWN_PAIR,  # scored by the wrapped measure
            ("energy", (), "energy", ()),  # identical -> 1.0
        ]
        for cache in (
            RelatednessCache(dict(table.scores)),
            RelatednessCache(backing=store),
        ):
            measure = CachedMeasure(ThematicMeasure(toy_space), cache)
            batch = measure.score_batch(lookups)
            assert batch[0] == table.scores[cache_key(*lookups[0])]
            assert batch[1] == ThematicMeasure(toy_space).score(*UNKNOWN_PAIR)
            assert batch[2] == 1.0
            assert batch == [measure.score(*lookup) for lookup in lookups]


class TestBoundedBackedCache:
    def test_store_misses_stay_under_the_bound(self, reference):
        """No per-miss state survives outside the bounded memo."""
        _, store = reference
        bound = 8
        cache = RelatednessCache(max_entries=bound, backing=store)
        inner = CountingInner()
        measure = CachedMeasure(inner, cache)
        misses = [(f"t{i}", ("city",), "zzz", ()) for i in range(5 * bound)]
        for start in range(0, len(misses), 5):
            chunk = misses[start : start + 5]
            assert measure.score_batch(chunk) == [INNER_SCORE] * len(chunk)
            assert measure.score(*chunk[0]) == INNER_SCORE
            assert len(cache) <= bound
        assert len(inner.seen) == len(misses)
        # Store entries still resolve from the store, bound or not.
        assert measure.score("power", TAGS, "grid", ()) == stored(
            store, "power", TAGS, "grid", ()
        )
        assert len(cache) <= bound


class TestWarmer:
    def test_workload_vocabulary_collects_both_sides(self):
        sub = parse_subscription("({office}, {device~= laptop~})")
        event = parse_event("({office}, {device: computer, floor: 3})")
        sub_terms, event_terms = workload_vocabulary([sub], [event])
        assert sub_terms == ("device", "laptop")
        assert event_terms == ("computer", "device", "floor")

    def test_plan_lookups_skips_identical_and_symmetric_pairs(self):
        lookups = plan_lookups(
            ("energy", "power"),
            ("power", "energy"),
            [((), ())],
        )
        # 4 raw pairs: 2 identical skipped, (energy, power) and
        # (power, energy) collapse to one.
        assert len(lookups) == 1

    def test_plan_lookups_distinguishes_theme_pairs(self):
        lookups = plan_lookups(
            ("energy",), ("power",), [((), ()), (("office",), ())]
        )
        assert len(lookups) == 2

    def test_warm_table_matches_online_measure_exactly(self, toy_space):
        lookups = plan_lookups(
            ("energy", "power", "car", "desk", "laptop"),
            ("storm", "office", "grid", "computer", "desk lamp"),
            [(("energy",), ("energy", "office")), ((), ())],
        )
        table = warm_score_table(toy_space, lookups)
        online = ThematicMeasure(toy_space)
        assert len(table.scores) == len(lookups)
        for lookup in lookups:
            assert table.scores[cache_key(*lookup)] == online.score(*lookup)

    def test_build_score_store_end_to_end(self, toy_space):
        sub = parse_subscription("({office}, {device~= laptop~})")
        event = parse_event("({office}, {device: computer})")
        store = build_score_store(
            toy_space,
            [sub.with_theme(("office",))],
            [event.with_theme(("office",))],
            [(("office",), ("office",))],
        )
        assert store.corpus_digest == corpus_digest(toy_space.documents)
        online = ThematicMeasure(toy_space)
        got = stored(store, "laptop", ("office",), "computer", ("office",))
        assert got == online.score(
            "laptop", ("office",), "computer", ("office",)
        )
