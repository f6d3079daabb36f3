"""The one reference delivery stream every host is checked against.

The paper defines matching per (subscription, event) pair (§3.5), so the
reference is the per-pair loop, :func:`~repro.core.api.pairwise_match_batch`,
over a fresh matcher of the host's configuration and the subscriptions
live when each event is published. However a host filters, batches,
shards, caches, journals or replays, its deliveries must equal that
stream, minus only the ``"semantic"`` / ``"ann"`` modes' :class:`AnchorRule`.
"""

from collections import deque

from repro.core.api import pairwise_match_batch
from repro.semantics.index import ApproxNeighborIndex
from repro.semantics.tokenize import normalize_term, tokenize


def signature(sub_id, sequence, result):
    """What a subscriber observes of one delivery."""
    mapping = result.mapping
    return (sub_id, sequence, result.score, mapping.assignment(),
            mapping.probability, mapping.weight, len(result.alternatives))


def _same(left, right):
    if isinstance(left, str) and isinstance(right, str):
        return normalize_term(left) == normalize_term(right)
    return left == right


class AnchorRule:
    """The anchor modes' pruning rule, per pair, as ``core/pipeline.py``
    documents it: every non-approximated ``=`` predicate finds its literal
    (attribute, value) tuple, and every predicate approximated on both
    sides with a string value has a full-space neighborhood of its value
    sharing a token with the event's attributes and string values."""

    def __init__(self, space):
        self.neighborhoods = ApproxNeighborIndex(space, recall_target=1.0)
        self._tokens = {}

    def admits(self, subscription, event):
        if event not in self._tokens:
            self._tokens[event] = {
                token
                for av in event.payload
                for text in (av.attribute, av.value) if isinstance(text, str)
                for token in tokenize(text)
            }
        for p in subscription.predicates:
            if p.operator == "=" and not (p.approx_attribute or p.approx_value):
                if not any(_same(p.attribute, av.attribute) and _same(p.value, av.value)
                           for av in event.payload):
                    return False
            elif p.approx_attribute and p.approx_value and isinstance(p.value, str):
                if self.neighborhoods.neighbors(p.value).isdisjoint(self._tokens[event]):
                    return False
        return True


class MemoMeasure:
    """A measure's answers kept per exact lookup, so the per-pair loop stays
    affordable over the kernel without the caching code under test."""

    def __init__(self, measure):
        self.measure, self.scores = measure, {}

    def score(self, term_s, theme_s, term_e, theme_e):
        key = (term_s, frozenset(theme_s), term_e, frozenset(theme_e))
        if key not in self.scores:
            self.scores[key] = self.measure.score(term_s, theme_s, term_e, theme_e)
        return self.scores[key]


class Oracle:
    """Per-pair results of one matcher; a pair seen before is not re-run."""

    def __init__(self, matcher):
        self.matcher, self._results = matcher, {}

    def match(self, subscription, event):
        """The pair's result when it clears the threshold, else ``None``."""
        if (subscription, event) not in self._results:
            result = pairwise_match_batch(self.matcher, [subscription], [event]).result(0, 0)
            if result is not None and not result.is_match(self.matcher.threshold):
                result = None
            self._results[(subscription, event)] = result
        return self._results[(subscription, event)]


class Reference:
    """One host's expected deliveries, mirrored operation by operation.

    :attr:`stream` is in global order: events in publish order, each in
    registration order, and replays where their subscribe happened.
    """

    def __init__(self, oracle, anchors=None, replay_capacity=256):
        self.oracle, self.anchors = oracle, anchors
        self.live, self.stream, self.sequence = {}, [], 0
        self.ring = deque(maxlen=replay_capacity)

    def subscribe(self, sub_id, subscription, replay=False):
        self.live[sub_id] = subscription
        for sequence, event in self.ring if replay else ():
            self._deliver(sub_id, subscription, sequence, event)

    def unsubscribe(self, sub_id):
        del self.live[sub_id]

    def publish(self, event):
        for sub_id, subscription in self.live.items():
            self._deliver(sub_id, subscription, self.sequence, event)
        self.ring.append((self.sequence, event))
        self.sequence += 1

    def _deliver(self, sub_id, subscription, sequence, event):
        result = self.oracle.match(subscription, event)
        if result is not None and (
            self.anchors is None or self.anchors.admits(subscription, event)
        ):
            self.stream.append(signature(sub_id, sequence, result))

    def of(self, sub_id):
        """One subscriber's expected deliveries, in order."""
        return [entry for entry in self.stream if entry[0] == sub_id]
