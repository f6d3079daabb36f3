"""Seeded inputs for the ledger workloads.

Everything the program under test receives — themed ``Event`` and
``Subscription`` objects — is generated here; the program never sees a
seed. The *dataset* (seed events, their expansion, the subscriptions, the
ground truth, the theme tags) is ``WorkloadConfig.small()`` with its own
fixed seeds; ``--seed`` drives the *traffic*: the order the steady event
set cycles in, which (event, theme) the theme mix draws when, and which
events the oracle samples. The same seed always gives the same inputs.

Deriving the dataset from ``--seed`` too was tried and dropped: across ten
seeds it moved ``throughput_eps`` by 17%, ``max_f1`` by 12% and
``journal_bytes_per_event`` by 11% (inter-quartile, as a share of the
median), so no bound below those could have told a regression from a
reseed.
"""

from __future__ import annotations

import bisect
import random
import zlib
from dataclasses import dataclass

from repro.evaluation import WorkloadConfig, build_workload
from repro.evaluation.subscriptions import SubscriptionConfig, generate_subscriptions
from repro.evaluation.themes import theme_pool

DEFAULT_SEED = 7
#: Not used while the benchmark was written; a claim must also hold here.
HELD_OUT_SEED = 1013

SUBSCRIPTION_THEME_TAGS = 12
STEADY_EVENT_THEME_TAGS = 4
MIX_SUBSCRIPTION_THEMES = 6
MIX_EVENT_THEMES = 400
MIX_EVENT_THEME_SIZES = (2, 7)
ORACLE_SAMPLE = 200


def derive(seed: int | str, label: str) -> int:
    """A stable sub-seed: independent streams from one seed."""
    return zlib.crc32(f"{seed}:{label}".encode())


def workload_config(*, smoke: bool = False) -> WorkloadConfig:
    return WorkloadConfig.tiny() if smoke else WorkloadConfig.small()


@dataclass(frozen=True)
class Inputs:
    """One workload's generated inputs.

    ``grid_events`` is the base event set under this workload's theme
    assignment (index-aligned with the ground truth, used for ``max_f1``);
    ``warmup`` + ``timed`` is the published traffic.
    """

    workload: object
    subscriptions: tuple
    reserve: tuple
    grid_events: tuple
    warmup: tuple
    timed: tuple
    oracle_sample: tuple[int, ...]


def _zipf_sampler(rng: random.Random, n: int, s: float = 1.0):
    cumulative = []
    total = 0.0
    for rank in range(1, n + 1):
        total += 1.0 / rank**s
        cumulative.append(total)

    def draw() -> int:
        return bisect.bisect_left(cumulative, rng.random() * total)

    return draw


def build_inputs(
    name: str, seed: int, *, warmup: int, timed: int, smoke: bool = False, workload=None
) -> Inputs:
    """Inputs for workload ``name``; ``warmup``/``timed`` are event counts."""
    wl = workload if workload is not None else build_workload(
        workload_config(smoke=smoke)
    )
    pool = list(theme_pool(wl.thesaurus))
    rng = random.Random(derive("dataset", "themes"))
    traffic = random.Random(derive(seed, "traffic"))
    approximate = wl.subscriptions.approximate
    if name == "theme_mix_inline":
        sub_themes = [
            tuple(rng.sample(pool, SUBSCRIPTION_THEME_TAGS))
            for _ in range(MIX_SUBSCRIPTION_THEMES)
        ]
        subscriptions = tuple(
            sub.with_theme(sub_themes[i % len(sub_themes)])
            for i, sub in enumerate(approximate)
        )
        low, high = MIX_EVENT_THEME_SIZES
        event_themes = [
            tuple(rng.sample(rng.choice(sub_themes), rng.randint(low, high)))
            for _ in range(MIX_EVENT_THEMES)
        ]
        draw_theme = _zipf_sampler(rng, len(event_themes))
        grid_events = tuple(
            event.with_theme(event_themes[draw_theme()]) for event in wl.events
        )
        draw_theme = _zipf_sampler(traffic, len(event_themes))
        stream = [
            traffic.choice(wl.events).with_theme(event_themes[draw_theme()])
            for _ in range(warmup + timed)
        ]
    else:
        sub_theme = tuple(rng.sample(pool, SUBSCRIPTION_THEME_TAGS))
        event_theme = tuple(rng.sample(sub_theme, STEADY_EVENT_THEME_TAGS))
        subscriptions = tuple(sub.with_theme(sub_theme) for sub in approximate)
        grid_events = tuple(event.with_theme(event_theme) for event in wl.events)
        # Steady traffic cycles the themed event set in a seeded order:
        # after one full cycle every (term, theme pair) has been seen, so
        # warm-up should cover at least len(grid_events).
        order = list(range(len(grid_events)))
        traffic.shuffle(order)
        stream = [grid_events[order[i % len(order)]] for i in range(warmup + timed)]
    reserve: tuple = ()
    if name == "durable_churn_inline":
        spare = generate_subscriptions(
            wl.seeds,
            SubscriptionConfig(
                count=len(approximate), seed=derive("dataset", "reserve")
            ),
        )
        reserve = tuple(sub.with_theme(sub_theme) for sub in spare.approximate)
    sample = tuple(sorted(traffic.sample(range(timed), min(ORACLE_SAMPLE, timed))))
    return Inputs(
        workload=wl,
        subscriptions=subscriptions,
        reserve=reserve,
        grid_events=grid_events,
        warmup=tuple(stream[:warmup]),
        timed=tuple(stream[warmup:]),
        oracle_sample=sample,
    )
