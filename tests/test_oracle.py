"""Every host × anchor mode × score source × durability against one oracle.

Each :data:`CASES` row names a host — ``ThematicEventEngine.process`` or
``process_batch``, ``ThematicBroker``, ``ThreadedBroker`` or a
``ShardedBroker`` layout — an anchor mode, a score source, ``k``, a
threshold, durability and a callback fault. Two drivers run every row
against :mod:`tests.oracle`: the tiny workload's approximate
subscriptions × its first 120 events (with an unsubscribe that makes
size-balanced shards move subscriptions, three replayed late subscribers
— two of them filtered by the semantic anchors — and a clean close +
reopen when durable), and :class:`OracleMachine`.
Comparisons are exact on every field of a signature: callbacks in global
order, inboxes per subscriber, and a faulted subscriber's successful
callbacks plus dead letters. ``ann@0.25`` must deliver an order-keeping
subset of the semantic oracle's stream.
"""

import itertools
import tempfile
from typing import NamedTuple

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle, RuleBasedStateMachine, consumes, initialize, invariant,
    precondition, rule, run_state_machine_as_test,
)

from repro.baselines import ExactMatcher, RewritingMatcher
from repro.broker import BrokerConfig, ShardedBroker, ThematicBroker, ThreadedBroker
from repro.broker.durability import DurabilityPolicy
from repro.core.engine import EngineConfig, ThematicEventEngine
from repro.core.language import parse_event, parse_subscription
from repro.core.matcher import ThematicMatcher
from repro.obs.clock import FakeClock
from repro.semantics.measures import CachedMeasure, ThematicMeasure
from repro.semantics.persistence import save_score_store
from repro.semantics.warm import build_score_store
from tests.oracle import AnchorRule, MemoMeasure, Oracle, Reference, signature

#: Not the default, so a store wrapper that dropped the knob would show.
STORE_MIN_RELATEDNESS = 0.3
#: The rewriting matcher rebuilds its exact index per batch; this bounds it.
REWRITES = 50


class Case(NamedTuple):
    host: str
    mode: str  # "exact", "semantic", "ann" (recall 1.0) or "ann@0.25"
    source: str
    k: int
    threshold: float
    durable: bool = False
    fault: str = "none"
    layout: tuple = (1, 1, "hash", 0)  # shards, max_batch, strategy, workers

    def __str__(self):
        parts = [self.host, self.mode, self.source, f"k{self.k}", f"t{self.threshold}"]
        if self.host == "sharded":
            parts.append("s{}b{}{}w{}".format(*self.layout))
        return "-".join(parts + ["durable"] * self.durable + [self.fault] * (self.fault != "none"))


#: Every host × every score source; the thematic sources take the four
#: anchor modes in a different order per host, the Boolean baselines run
#: in "exact" (their only mode). Each host sees both k and both thresholds
#: (exact-mode thematic rows mostly at 0.0, where zero scores deliver);
#: each broker runs durable and not, and every fault; the sharded layouts
#: cover shards 2-3 × max_batch 1/8 × hash/size × workers 0/2.
CASES = [
    Case("process", "exact", "scalar", 1, 0.0),
    Case("process", "semantic", "cached", 2, 0.5),
    Case("process", "ann", "kernel", 1, 0.5),
    Case("process", "ann@0.25", "store", 2, 0.0),
    Case("process", "exact", "exact", 1, 0.5),
    Case("process", "exact", "rewriting", 2, 0.5),
    Case("process_batch", "semantic", "scalar", 2, 0.5),
    Case("process_batch", "ann", "cached", 1, 0.5),
    Case("process_batch", "ann@0.25", "kernel", 2, 0.0),
    Case("process_batch", "exact", "store", 1, 0.0),
    Case("process_batch", "exact", "exact", 2, 0.5),
    Case("process_batch", "exact", "rewriting", 1, 0.0),
    Case("inline", "ann", "scalar", 1, 0.5),
    Case("inline", "ann@0.25", "cached", 2, 0.0, True, "flaky"),
    Case("inline", "exact", "kernel", 1, 0.5, False, "raise"),
    Case("inline", "semantic", "store", 2, 0.5, True),
    Case("inline", "exact", "exact", 1, 0.0, False, "flaky"),
    Case("inline", "exact", "rewriting", 2, 0.5, True, "raise"),
    Case("threaded", "ann@0.25", "scalar", 2, 0.0),
    Case("threaded", "exact", "cached", 1, 0.0, True, "flaky"),
    Case("threaded", "semantic", "kernel", 2, 0.5, False, "raise"),
    Case("threaded", "ann", "store", 1, 0.0, True),
    Case("threaded", "exact", "exact", 2, 0.5, False, "flaky"),
    Case("threaded", "exact", "rewriting", 1, 0.5, True, "raise"),
    Case("sharded", "exact", "scalar", 1, 0.0, layout=(3, 8, "hash", 0)),
    Case("sharded", "semantic", "cached", 2, 0.0, True, "flaky", (2, 8, "size", 2)),
    Case("sharded", "ann", "kernel", 1, 0.0, False, "raise", (2, 1, "size", 2)),
    Case("sharded", "ann@0.25", "store", 2, 0.5, True, layout=(2, 8, "hash", 0)),
    Case("sharded", "exact", "exact", 1, 0.5, False, "flaky", (3, 1, "size", 0)),
    Case("sharded", "exact", "rewriting", 2, 0.0, True, "raise", (3, 8, "size", 2)),
]


class Env:
    """Builds each case's host and its :class:`Reference` over one space."""

    def __init__(self, space, thesaurus, store_path):
        self.space, self.thesaurus, self.store_path = space, thesaurus, store_path
        self.anchors = AnchorRule(space)
        # One memo per measure kind and one oracle per reference matcher.
        self.memos = {kernel: MemoMeasure(ThematicMeasure(space, vectorized=kernel))
                      for kernel in (False, True)}
        self.oracles = {}

    def matcher(self, case, oracle=False):
        """The case's matcher; with ``oracle`` its reference twin: same
        knobs over the memoized measure (the kernel, for a store)."""
        if case.source == "exact":
            return ExactMatcher()
        if case.source == "rewriting":
            return RewritingMatcher(self.thesaurus, max_rewrites=REWRITES)
        kernel = case.source in ("kernel", "store")
        if oracle:
            measure = self.memos[kernel]
        else:
            measure = ThematicMeasure(self.space, vectorized=kernel)
            if case.source == "cached":
                measure = CachedMeasure(measure)
        relatedness = STORE_MIN_RELATEDNESS if case.source == "store" else 0.0
        return ThematicMatcher(measure, k=case.k, threshold=case.threshold,
                               min_relatedness=relatedness)

    def reference(self, case):
        key = case.source
        if key not in ("exact", "rewriting"):
            key = (key in ("kernel", "store"), key == "store", case.k, case.threshold)
        if key not in self.oracles:
            self.oracles[key] = Oracle(self.matcher(case, oracle=True))
        return Reference(self.oracles[key], None if case.mode == "exact" else self.anchors)

    def host(self, case, directory):
        store = case.source == "store"
        fields = dict(
            prefilter_mode=case.mode.partition("@")[0],
            ann_recall_target=0.25 if case.mode == "ann@0.25" else 1.0,
            score_store_path=str(self.store_path) if store else None,
            warm_on_start=store,
        )
        if case.host.startswith("process"):
            engine = ThematicEventEngine(self.matcher(case), EngineConfig(**fields))
            return EngineHost(engine, batched=case.host == "process_batch")
        shards, max_batch, strategy, workers = case.layout
        config = BrokerConfig(
            shards=shards, max_batch=max_batch, strategy=strategy, workers=workers,
            linger=0.01, **fields,
            durability=DurabilityPolicy(directory, fsync="never") if case.durable else None,
        )
        front_end = {"inline": ThematicBroker, "threaded": ThreadedBroker,
                     "sharded": ShardedBroker}[case.host]
        clock = FakeClock()  # retry backoff advances it; nothing sleeps
        return BrokerHost(lambda: front_end(self.matcher(case), config, clock=clock),
                          case.fault)


class EngineHost:
    """An engine driven like a broker: every subscriber is a callback and
    a delivery's sequence is its event's publish index."""

    replay = durable = False
    raising = frozenset()

    def __init__(self, engine, batched):
        self.engine, self.batched = engine, batched
        self.handles, self.log, self.sequence, self._fired = {}, [], 0, []

    @property
    def callback_ids(self):
        return set(self.handles)

    def subscribe(self, subscription, callback=True, replay=False):
        sub_id = len(self.handles)
        self.handles[sub_id] = self.engine.subscribe(
            subscription, lambda result: self._fired.append((sub_id, result)))
        assert self.handles[sub_id].id == sub_id
        return sub_id

    def unsubscribe(self, sub_id):
        assert self.engine.unsubscribe(self.handles[sub_id])

    def publish(self, events):
        if self.batched:
            blocks = self.engine.process_batch(list(events))
        else:
            blocks = [self.engine.process(event) for event in events]
        returned = [(j, result) for j, block in enumerate(blocks) for result in block]
        for (sub_id, fired), (j, result) in zip(self._fired, returned, strict=True):
            assert fired is result  # callbacks fire in the returned order
            self.log.append(signature(sub_id, self.sequence + j, result))
        self._fired.clear()
        self.sequence += len(blocks)

    def inbox(self, sub_id):
        return [entry for entry in self.log if entry[0] == sub_id]

    def settle(self):
        pass

    def dead_letters(self):
        return []

    def close(self):
        pass


def scripted_callback(kind, sub_id, log):
    """Clean, failing every other invocation ("flaky"), or always ("raise")."""
    calls = itertools.count()

    def callback(delivery):
        if kind == "raise" or (kind == "flaky" and next(calls) % 2 == 0):
            raise RuntimeError(f"scripted {kind} callback")
        log.append(signature(sub_id, delivery.sequence, delivery.result))

    return callback


class BrokerHost:
    """A broker front-end that ``make`` can build again on reopen. Every
    fourth subscriber from id 1 with a callback carries the case's fault."""

    replay = True

    def __init__(self, make, fault):
        self.make, self.fault, self.broker = make, fault, make()
        self.durable = self.broker.durability is not None
        self.handles, self.callbacks, self.live = {}, {}, set()
        self.raising, self.log = set(), []

    @property
    def callback_ids(self):
        return set(self.callbacks)

    def subscribe(self, subscription, callback=False, replay=False):
        sub_id = len(self.handles)
        if callback:
            kind = self.fault if sub_id % 4 == 1 else "none"
            self.callbacks[sub_id] = scripted_callback(kind, sub_id, self.log)
            if kind == "raise":
                self.raising.add(sub_id)
        self.settle()  # the oracle matches an event against who is live
        handle = self.broker.subscribe(subscription, self.callbacks.get(sub_id),
                                       replay=replay)
        assert handle.id == sub_id
        self.handles[sub_id] = handle
        self.live.add(sub_id)
        return sub_id

    def unsubscribe(self, sub_id):
        self.settle()
        assert self.broker.unsubscribe(self.handles[sub_id])
        self.live.remove(sub_id)

    def publish(self, events):
        for event in events:
            self.broker.publish(event)

    def settle(self):
        assert self.broker.flush(timeout=60)

    def reopen(self):
        """Clean close, recover from the journal, reattach callbacks."""
        self.settle()
        self.broker.close()
        self.broker = self.make()
        assert set(self.broker.recovered) == self.live
        for sub_id, handle in self.broker.recovered.items():
            handle.callback = self.callbacks.get(sub_id)
            self.handles[sub_id] = handle
        assert self.broker.recover_pending() == 0

    def inbox(self, sub_id):
        return [signature(sub_id, d.sequence, d.result) for d in self.handles[sub_id].inbox]

    def dead_letters(self):
        return [signature(r.subscriber_id, r.delivery.sequence, r.delivery.result)
                for r in self.broker.dead_letters.peek()]

    def close(self):
        self.broker.close()


def assert_agrees(host, reference, subset):
    """Each observed stream equals the oracle's (or, with ``subset``, keeps
    some of its entries, in order, and no others)."""
    host.settle()

    def check(got, want):
        assert got == ([entry for entry in want if entry in set(got)] if subset else want)
        assert set(got) <= set(want)

    want, callbacks = reference.stream, host.callback_ids
    check(host.log, [e for e in want if e[0] in callbacks - host.raising])
    check(host.dead_letters(), [e for e in want if e[0] in host.raising])
    for sub_id in host.handles:
        if sub_id in callbacks:  # the inbox records consumed deliveries
            assert host.inbox(sub_id) == [e for e in host.log if e[0] == sub_id]
        else:
            check(host.inbox(sub_id), reference.of(sub_id))


#: An exact anchor that most events lack while still carrying a
#: zero-score mapping: delivered at threshold 0.0 in "exact" mode only.
ANCHORED = parse_subscription("({office}, {office= room 112})")


@pytest.fixture(scope="module")
def workload(tiny_workload):
    """The fixed workload, and the state machine's pool: exact-anchored,
    approximate and themed subscriptions, workload and themed events."""
    subs = tiny_workload.subscriptions
    pool_subs = [*subs.exact[:3], *subs.approximate[:5], ANCHORED, *map(parse_subscription, (
        "({energy}, {type= increased energy usage event~, device~= laptop~})",
        "({energy, office}, {device~= computer~, reading > 10})",
        "({street}, {type~= traffic incident~})"))]
    pool_events = [*tiny_workload.events[:16], *map(parse_event, (
        "({energy, office}, {type: increased energy consumption event,"
        " device: computer, office: room 112})",
        "({energy}, {device: laptop, reading: 42})",
        "({office}, {type: door open event, office: room 7})",
        "({street}, {type: traffic jam, street: main street})"))]
    return (subs.approximate[:12], tiny_workload.events[:120]), (pool_subs, pool_events)


@pytest.fixture(scope="module")
def env(tiny_workload, thesaurus, workload, tmp_path_factory):
    """The store is warmed over the fixed workload; the state machine's
    themed lookups miss it and fall through to the kernel."""
    (subs, events), _ = workload
    path = tmp_path_factory.mktemp("store") / "scores.bin"
    save_score_store(build_score_store(tiny_workload.space, subs, events, [((), ())]), path)
    return Env(tiny_workload.space, thesaurus, path)


#: Leave mid-stream; every size-balanced layout above then moves a subscriber.
LEAVERS = (0, 3, 4, 6)


@pytest.mark.parametrize("case", CASES, ids=str)
def test_fixed_workload(env, workload, case, tmp_path):
    (subs, events), _ = workload
    host, reference = env.host(case, str(tmp_path)), env.reference(case)

    def publish(batch):
        host.publish(batch)
        for event in batch:
            reference.publish(event)

    try:
        for index, subscription in enumerate(subs):
            reference.subscribe(host.subscribe(subscription, callback=index % 2 == 1),
                                subscription)
        publish(events[:60])
        if host.durable:
            host.reopen()
        for sub_id in LEAVERS:
            host.unsubscribe(sub_id)
            reference.unsubscribe(sub_id)
        for subscription in (subs[1], subs[4], subs[6]) if host.replay else ():
            sub_id = host.subscribe(subscription, callback=True, replay=True)
            reference.subscribe(sub_id, subscription, replay=True)
        publish(events[60:])
        assert reference.stream
        assert_agrees(host, reference, subset=case.mode == "ann@0.25")
    finally:
        host.close()


class OracleMachine(RuleBasedStateMachine):
    """Random operations on one host, mirrored on its :class:`Reference`."""

    subscribers = Bundle("subscribers")

    def __init__(self, env, case, pool, directory):
        super().__init__()
        self.case, (self.subs, self.events) = case, pool
        self.host = env.host(case, tempfile.mkdtemp(dir=directory))
        self.reference = env.reference(case)

    @initialize(target=subscribers)
    def anchored_subscriber(self):
        sub_id = self.host.subscribe(ANCHORED)
        self.reference.subscribe(sub_id, ANCHORED)
        return sub_id

    @rule(target=subscribers, data=st.data(), callback=st.booleans(), replay=st.booleans())
    def subscribe(self, data, callback, replay):
        subscription = data.draw(st.sampled_from(self.subs))
        replay = replay and self.host.replay
        sub_id = self.host.subscribe(subscription, callback=callback, replay=replay)
        self.reference.subscribe(sub_id, subscription, replay=replay)
        return sub_id

    @rule(sub_id=consumes(subscribers))
    def unsubscribe(self, sub_id):
        self.host.unsubscribe(sub_id)
        self.reference.unsubscribe(sub_id)

    @rule(data=st.data())
    def publish(self, data):
        burst = data.draw(st.lists(st.sampled_from(self.events), min_size=1, max_size=6))
        self.host.publish(burst)
        for event in burst:
            self.reference.publish(event)

    @precondition(lambda self: self.host.durable)
    @rule()
    def reopen(self):
        self.host.reopen()

    @invariant()
    def agrees_with_the_oracle(self):
        assert_agrees(self.host, self.reference, subset=self.case.mode == "ann@0.25")

    def teardown(self):
        self.host.close()


@pytest.mark.parametrize("case", CASES, ids=str)
def test_state_machine(env, workload, case, tmp_path):
    run_state_machine_as_test(
        lambda: OracleMachine(env, case, workload[1], str(tmp_path)),
        settings=settings(max_examples=4, stateful_step_count=8, deadline=None),
    )
