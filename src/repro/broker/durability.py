"""Durable broker state: CRC-framed write-ahead log + snapshots.

PR 4's no-loss invariant (inbox deliveries + dead letters == matched
count) dies with the process: a broker crash loses every registration,
inbox cursor, and dead letter it was holding. This module makes the
guarantee survive a crash:

* every state transition — subscription registered/removed, event
  published, delivery consumed, delivery dead-lettered, inbox drained,
  event fully dispatched — is appended to a **write-ahead log** before
  the in-memory effect becomes observable, as a CRC32-framed JSON
  record;
* a periodic **snapshot** (atomic tmp+rename, CRC-guarded) bounds
  recovery time: restart loads the newest valid snapshot and replays
  only the journal records written after it;
* replay rebuilds a :class:`DurableState` mirror from which a broker
  restores its registrations (with their original ids and stable
  :attr:`~repro.core.engine.SubscriptionHandle.key` strings), undrained
  inboxes, dead letters, replay ring, and sequence counter — and
  re-dispatches events that were published but not fully dispatched;
* the **idempotency key** of a delivery is ``(subscriber id, event
  sequence)``. An ``ack`` record is written *after* the callback
  succeeds but *before* the inbox append, so a key that reached either
  terminal state (inbox or DLQ) before the crash is suppressed on
  re-dispatch — at-least-once retries compose with recovery into
  effectively-once consumption.

Write ordering is what makes the composition sound:

====  =========================================================
when  record
====  =========================================================
1     ``pub`` — before the event is matched (the redo record)
2     ``ack`` — after the callback succeeded, before the inbox
      append (the idempotency barrier)
2'    ``dlq`` — before the in-memory dead-letter append
3     ``done`` — after every delivery of the event dispatched
====  =========================================================

A crash between 2 and the inbox append is the PR-4 at-least-once edge:
the callback ran, the inbox never heard about it. On recovery the key
is settled, the callback is *not* re-invoked, and the delivery is
restored straight into the inbox by deterministically re-matching the
journaled event.

Torn writes are expected, not exceptional: the reader stops at a short
or CRC-mismatching frame, reports it
(:attr:`RecoveryReport.truncated_tail` /
:attr:`RecoveryReport.corrupt_records`), and recovery continues from
the last complete record. Nothing past a corrupt frame is replayed —
a bit flip is surfaced, never silently interpreted.

Fault injection: :meth:`BrokerDurability.arm_kill` plants a
:class:`SimulatedCrash` at a WAL byte offset (see
:class:`~repro.broker.faults.KillFault`). ``SimulatedCrash`` derives
from :class:`BaseException` on purpose — broker dispatcher loops guard
batches with ``except Exception``, and a process death must not be
swallowed by a batch-error guard.

All timing flows through the injectable
:class:`~repro.obs.clock.Clock`; this module never touches ``time``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
import zlib
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.broker.reliability import DeliveryPolicy
from repro.core.events import AttributeValue, Event
from repro.core.subscriptions import Predicate, Subscription
from repro.obs import MetricsRegistry
from repro.obs.clock import MONOTONIC_CLOCK, Clock

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.broker.reliability import DeadLetterRecord
    from repro.core.engine import SubscriptionHandle

__all__ = [
    "BrokerDurability",
    "DurabilityPolicy",
    "RecoveryReport",
    "SegmentScan",
    "SimulatedCrash",
    "WriteAheadLog",
    "read_wal_segment",
]

#: Segment header: magic + format version. A segment that does not
#: start with this is not replayed (wrong format beats wrong data).
SEGMENT_HEADER = b"RWAL1\n"

#: Frame prefix: little-endian (payload length, payload crc32).
_FRAME = struct.Struct("<II")

_FSYNC_MODES = ("always", "batch", "never")
_KILL_MODES = ("before", "torn", "after")

SNAPSHOT_FORMAT = "repro.wal-snapshot/v1"


class SimulatedCrash(BaseException):
    """A scripted broker death at a WAL offset (fault injection).

    Deliberately a :class:`BaseException`: dispatcher threads guard
    micro-batches with ``except Exception``, and a simulated process
    death must kill the thread the way a real one would, not be
    absorbed into a batch-error counter.
    """


@dataclass(frozen=True)
class DurabilityPolicy:
    """How a broker journals its state.

    Parameters
    ----------
    directory:
        Journal home. One broker per directory; segments are named
        ``wal-<generation>.log``, snapshots ``snap-<generation>.json``.
    fsync:
        ``"always"`` — fsync after every record (strongest, slowest);
        ``"batch"`` — fsync every ``fsync_batch_records`` records (the
        default: bounded loss window, near-``"never"`` throughput —
        see ``benchmarks/bench_wal_overhead.py``);
        ``"never"`` — flush to the OS, let the kernel decide.
    fsync_batch_records:
        Records between fsyncs in ``"batch"`` mode.
    snapshot_every:
        Journal records between snapshots (and segment rotations);
        ``0`` disables periodic snapshots (the log grows unbounded and
        recovery replays it all).
    """

    directory: str
    fsync: str = "batch"
    fsync_batch_records: int = 32
    snapshot_every: int = 512

    def __post_init__(self) -> None:
        if not self.directory:
            raise ValueError("directory must be a non-empty path")
        if self.fsync not in _FSYNC_MODES:
            raise ValueError(
                f"unknown fsync mode {self.fsync!r} (expected {_FSYNC_MODES})"
            )
        if self.fsync_batch_records < 1:
            raise ValueError("fsync_batch_records must be >= 1")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0 (0 disables)")


# -- serialization helpers (events/subscriptions/policies <-> JSON) --------


def event_to_dict(event: Event) -> dict[str, Any]:
    return {
        "theme": sorted(event.theme),
        "payload": [[av.attribute, av.value] for av in event.payload],
    }


def event_from_dict(data: dict[str, Any]) -> Event:
    return Event(
        theme=frozenset(data["theme"]),
        payload=tuple(
            AttributeValue(attribute, value)
            for attribute, value in data["payload"]
        ),
    )


def subscription_to_dict(subscription: Subscription) -> dict[str, Any]:
    return {
        "theme": sorted(subscription.theme),
        "predicates": [
            [p.attribute, p.value, p.approx_attribute, p.approx_value, p.operator]
            for p in subscription.predicates
        ],
    }


def subscription_from_dict(data: dict[str, Any]) -> Subscription:
    return Subscription(
        theme=frozenset(data["theme"]),
        predicates=tuple(
            Predicate(attribute, value, bool(approx_a), bool(approx_v), operator)
            for attribute, value, approx_a, approx_v, operator in data["predicates"]
        ),
    )


def policy_to_dict(policy: DeliveryPolicy) -> dict[str, Any]:
    return {
        "deadline": policy.deadline,
        "max_retries": policy.max_retries,
        "backoff_base": policy.backoff_base,
        "backoff_multiplier": policy.backoff_multiplier,
        "backoff_cap": policy.backoff_cap,
        "jitter": policy.jitter,
        "breaker_threshold": policy.breaker_threshold,
        "breaker_reset": policy.breaker_reset,
        "seed": policy.seed,
    }


def policy_from_dict(data: dict[str, Any]) -> DeliveryPolicy:
    return DeliveryPolicy(**data)


def _encode(record: dict[str, Any]) -> bytes:
    # Canonical form: sorted keys, no whitespace — byte-identical
    # re-runs give byte-identical journals, which the effectively-once
    # test relies on to target a kill offset discovered in a clean run.
    return json.dumps(record, sort_keys=True, separators=(",", ":")).encode("utf-8")


# -- the framed log --------------------------------------------------------


@dataclass
class SegmentScan:
    """Result of reading one WAL segment from disk."""

    records: list[dict[str, Any]]
    #: Absolute in-file byte offset where each record's frame starts.
    offsets: list[int]
    #: Bytes of the segment that parsed cleanly (header + whole frames).
    valid_bytes: int
    #: Trailing bytes formed an incomplete frame (torn write).
    truncated_tail: bool
    #: A complete frame failed its CRC (bit rot / overwrite). Nothing
    #: after it is returned — a corrupt prefix poisons what follows.
    corrupt_records: int
    #: Segment header missing or wrong version; nothing was read.
    bad_header: bool


def read_wal_segment(path: Path) -> SegmentScan:
    """Parse one segment, stopping at the first torn or corrupt frame."""
    data = path.read_bytes()
    scan = SegmentScan(
        records=[],
        offsets=[],
        valid_bytes=0,
        truncated_tail=False,
        corrupt_records=0,
        bad_header=False,
    )
    if not data.startswith(SEGMENT_HEADER):
        scan.bad_header = True
        return scan
    offset = len(SEGMENT_HEADER)
    scan.valid_bytes = offset
    total = len(data)
    while offset < total:
        if offset + _FRAME.size > total:
            scan.truncated_tail = True
            break
        length, crc = _FRAME.unpack_from(data, offset)
        start = offset + _FRAME.size
        end = start + length
        if end > total:
            scan.truncated_tail = True
            break
        payload = data[start:end]
        if zlib.crc32(payload) != crc:
            scan.corrupt_records += 1
            break
        try:
            record = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            # CRC matched but the payload is not a record we wrote —
            # treat as corruption, same containment rule.
            scan.corrupt_records += 1
            break
        scan.records.append(record)
        scan.offsets.append(offset)
        offset = end
        scan.valid_bytes = offset
    return scan


class WriteAheadLog:
    """Append-only CRC-framed segment writer for one journal directory.

    Not thread-safe on its own: :class:`BrokerDurability` serializes
    every append under its journal lock; standalone users (the WAL
    overhead bench) are single-threaded.

    ``offset`` counts every byte this writer has appended across all
    segments it opened (headers included) — the coordinate system for
    :meth:`arm_kill`.
    """

    def __init__(
        self,
        directory: Path,
        *,
        fsync: str = "batch",
        fsync_batch_records: int = 32,
        fsync_counter: Any | None = None,
    ) -> None:
        if fsync not in _FSYNC_MODES:
            raise ValueError(
                f"unknown fsync mode {fsync!r} (expected {_FSYNC_MODES})"
            )
        self.directory = directory
        self.fsync = fsync
        self.fsync_batch_records = fsync_batch_records
        self.offset = 0
        self.crashed = False
        self._file: Any | None = None
        self._current_path: Path | None = None
        self._since_fsync = 0
        self._fsync_counter = fsync_counter
        self._kill_at: int | None = None
        self._kill_mode = "before"

    def arm_kill(self, at: int, mode: str = "before") -> None:
        """Crash with :class:`SimulatedCrash` at cumulative offset ``at``.

        ``mode`` decides what the append that crosses ``at`` leaves on
        disk: ``"before"`` nothing, ``"torn"`` a partial frame (the torn
        write the reader must survive), ``"after"`` the whole frame,
        fsynced (the record is durable, its in-memory effect is not).
        """
        if at < 0:
            raise ValueError("kill offset must be >= 0")
        if mode not in _KILL_MODES:
            raise ValueError(
                f"unknown kill mode {mode!r} (expected {_KILL_MODES})"
            )
        self._kill_at = at
        self._kill_mode = mode

    def open_segment(self, generation: int) -> Path:
        """Close the current segment and start ``wal-<generation>.log``."""
        self.close()
        path = self.directory / f"wal-{generation:08d}.log"
        self._file = open(path, "wb")
        self._file.write(SEGMENT_HEADER)
        self._file.flush()
        self._current_path = path
        self.offset += len(SEGMENT_HEADER)
        self._since_fsync = 0
        return path

    def append(self, record: dict[str, Any]) -> int:
        """Frame and append one record; returns the bytes written.

        Raises :class:`SimulatedCrash` when an armed kill offset is
        crossed (and on every append after it — a dead broker stays
        dead).
        """
        if self.crashed:
            raise SimulatedCrash("write-ahead log already crashed")
        if self._file is None:
            if self._current_path is None:
                raise RuntimeError("no open segment (call open_segment first)")
            # A drain (or other late journaling) after close(): reopen
            # the segment for appending so shutdown-time consumption is
            # still durable instead of raising on a closed journal.
            self._file = open(self._current_path, "ab")
        payload = _encode(record)
        frame = _FRAME.pack(len(payload), zlib.crc32(payload)) + payload
        if self._kill_at is not None and self.offset + len(frame) > self._kill_at:
            self._simulate_crash(frame)
        self._file.write(frame)
        self._file.flush()
        self.offset += len(frame)
        self._since_fsync += 1
        if self.fsync == "always" or (
            self.fsync == "batch"
            and self._since_fsync >= self.fsync_batch_records
        ):
            self.sync()
        return len(frame)

    def sync(self) -> None:
        """fsync the current segment (no-op when nothing is open)."""
        if self._file is None:
            return
        self._file.flush()
        os.fsync(self._file.fileno())
        self._since_fsync = 0
        if self._fsync_counter is not None:
            self._fsync_counter.inc()

    def close(self) -> None:
        if self._file is not None:
            if not self.crashed:
                self._file.flush()
                if self.fsync != "never":
                    os.fsync(self._file.fileno())
            self._file.close()
            self._file = None

    def _simulate_crash(self, frame: bytes) -> None:
        self.crashed = True
        assert self._file is not None
        if self._kill_mode == "torn":
            # Leave a partial frame on disk: at least one byte, never
            # the whole thing — the reader must stop at it cleanly.
            cut = max(1, min(len(frame) - 1, (self._kill_at or 0) - self.offset))
            self._file.write(frame[:cut])
            self._file.flush()
            os.fsync(self._file.fileno())
        elif self._kill_mode == "after":
            self._file.write(frame)
            self._file.flush()
            os.fsync(self._file.fileno())
        raise SimulatedCrash(
            f"simulated crash at WAL offset {self.offset} "
            f"(mode={self._kill_mode!r})"
        )


# -- the replayable state mirror -------------------------------------------


class DurableState:
    """Pure state machine over journal records.

    The same :meth:`apply` runs in two places: live (under the journal
    lock, as each record is appended) and during recovery (replaying a
    snapshot plus the journal delta). Whatever path built it, the state
    is a deterministic function of the record sequence.
    """

    def __init__(self, replay_capacity: int) -> None:
        self.replay_capacity = replay_capacity
        self.next_sequence = 0
        self.next_id = 0
        #: id -> {"key": str, "s": subscription dict, "policy": dict|None}
        self.subs: dict[int, dict[str, Any]] = {}
        #: id -> consumed-but-not-drained sequences, in inbox order.
        self.live: dict[int, list[int]] = {}
        #: in-flight events: seq -> {"acked": set[id], "dead": set[id]}
        self.pending: dict[int, dict[str, set[int]]] = {}
        #: retained event bodies: seq -> event dict.
        self.events: dict[int, dict[str, Any]] = {}
        #: dead letters, oldest first (JSON-safe dicts).
        self.dlq: list[dict[str, Any]] = []

    # -- record application ------------------------------------------------

    def apply(self, record: dict[str, Any]) -> None:
        kind = record["t"]
        if kind == "sub":
            sub_id = int(record["id"])
            self.subs[sub_id] = {
                "key": record["key"],
                "s": record["s"],
                "policy": record.get("policy"),
            }
            self.live.setdefault(sub_id, [])
            self.next_id = max(self.next_id, sub_id + 1)
        elif kind == "unsub":
            sub_id = int(record["id"])
            self.subs.pop(sub_id, None)
            self.live.pop(sub_id, None)
        elif kind == "pub":
            seq = int(record["seq"])
            self.events[seq] = record["e"]
            self.pending[seq] = {"acked": set(), "dead": set()}
            self.next_sequence = max(self.next_sequence, seq + 1)
        elif kind == "ack":
            sub_id = int(record["id"])
            seq = int(record["seq"])
            self.live.setdefault(sub_id, []).append(seq)
            entry = self.pending.get(seq)
            if entry is not None:
                entry["acked"].add(sub_id)
        elif kind == "dlq":
            seq = int(record["seq"])
            sub_id = int(record["id"])
            self.dlq.append({k: v for k, v in record.items() if k != "t"})
            entry = self.pending.get(seq)
            if entry is not None:
                entry["dead"].add(sub_id)
        elif kind == "drain":
            drained = self.live.get(int(record["id"]))
            if drained is not None:
                del drained[: int(record["n"])]
        elif kind == "dlqdrain":
            del self.dlq[: int(record["n"])]
        elif kind == "done":
            self.pending.pop(int(record["seq"]), None)
        else:
            raise ValueError(f"unknown journal record type {kind!r}")

    def is_settled(self, sub_id: int, sequence: int) -> bool:
        """Did ``(sub_id, sequence)`` reach a terminal state already?

        Only meaningful for in-flight sequences — exactly the ones a
        recovery re-dispatch can offer again. A settled key must not be
        re-consumed (inbox) nor re-parked (DLQ).
        """
        entry = self.pending.get(sequence)
        if entry is None:
            return False
        return sub_id in entry["acked"] or sub_id in entry["dead"]

    def prune_events(self) -> None:
        """Drop event bodies nothing references (run at snapshot time).

        Retained while: in flight, inside the replay-ring window,
        referenced by an undrained inbox entry, or referenced by a dead
        letter.
        """
        keep: set[int] = set(self.pending)
        window_low = max(0, self.next_sequence - self.replay_capacity)
        keep.update(s for s in self.events if s >= window_low)
        for seqs in self.live.values():
            keep.update(seqs)
        keep.update(int(entry["seq"]) for entry in self.dlq)
        self.events = {s: e for s, e in self.events.items() if s in keep}

    # -- snapshot round trip -----------------------------------------------

    def to_snapshot(self) -> dict[str, Any]:
        self.prune_events()
        return {
            "next_sequence": self.next_sequence,
            "next_id": self.next_id,
            "replay_capacity": self.replay_capacity,
            "subs": {str(k): v for k, v in self.subs.items()},
            "live": {str(k): list(v) for k, v in self.live.items()},
            "pending": {
                str(seq): {
                    "acked": sorted(entry["acked"]),
                    "dead": sorted(entry["dead"]),
                }
                for seq, entry in self.pending.items()
            },
            "events": {str(k): v for k, v in self.events.items()},
            "dlq": list(self.dlq),
        }

    def load_snapshot(self, data: dict[str, Any]) -> None:
        self.next_sequence = int(data["next_sequence"])
        self.next_id = int(data["next_id"])
        self.subs = {int(k): v for k, v in data["subs"].items()}
        self.live = {int(k): [int(s) for s in v] for k, v in data["live"].items()}
        self.pending = {
            int(seq): {
                "acked": {int(i) for i in entry["acked"]},
                "dead": {int(i) for i in entry["dead"]},
            }
            for seq, entry in data["pending"].items()
        }
        self.events = {int(k): v for k, v in data["events"].items()}
        self.dlq = list(data["dlq"])

    # -- typed accessors for broker restore --------------------------------

    def subscription_entries(
        self,
    ) -> list[tuple[int, str, Subscription, DeliveryPolicy | None]]:
        """Registered subscriptions, in id (= registration) order."""
        out: list[tuple[int, str, Subscription, DeliveryPolicy | None]] = []
        for sub_id in sorted(self.subs):
            spec = self.subs[sub_id]
            policy_spec = spec.get("policy")
            out.append(
                (
                    sub_id,
                    str(spec["key"]),
                    subscription_from_dict(spec["s"]),
                    policy_from_dict(policy_spec) if policy_spec else None,
                )
            )
        return out

    def live_entries(self) -> list[tuple[int, list[int]]]:
        """Per subscriber, consumed-but-undrained sequences in order."""
        return [
            (sub_id, list(seqs))
            for sub_id, seqs in sorted(self.live.items())
            if seqs
        ]

    def event(self, sequence: int) -> Event | None:
        data = self.events.get(sequence)
        return event_from_dict(data) if data is not None else None

    def dead_letter_entries(self) -> list[dict[str, Any]]:
        return list(self.dlq)

    def ring_entries(self) -> list[tuple[int, Event]]:
        """The replay-ring window, oldest first."""
        window_low = max(0, self.next_sequence - self.replay_capacity)
        return [
            (seq, event_from_dict(self.events[seq]))
            for seq in sorted(self.events)
            if seq >= window_low
        ]

    def entries(self, sequences: Iterable[int]) -> list[tuple[int, Event]]:
        """``(sequence, event)`` for each of ``sequences`` still journaled."""
        return [
            (seq, event) for seq in sequences if (event := self.event(seq)) is not None
        ]

    def pending_entries(self) -> list[tuple[int, Event]]:
        """Events published but not fully dispatched, oldest first."""
        return self.entries(sorted(self.pending))


# -- recovery --------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What a restart found on disk and rebuilt from it."""

    snapshot_generation: int | None
    segments_replayed: int
    records_replayed: int
    corrupt_records: int
    truncated_tail: bool
    restored_subscriptions: int
    restored_pending: int

    def to_dict(self) -> dict[str, Any]:
        return {
            "snapshot_generation": self.snapshot_generation,
            "segments_replayed": self.segments_replayed,
            "records_replayed": self.records_replayed,
            "corrupt_records": self.corrupt_records,
            "truncated_tail": self.truncated_tail,
            "restored_subscriptions": self.restored_subscriptions,
            "restored_pending": self.restored_pending,
        }


def _scan_generations(directory: Path, prefix: str, suffix: str) -> list[int]:
    generations: list[int] = []
    for path in directory.glob(f"{prefix}*{suffix}"):
        stem = path.name[len(prefix) : -len(suffix)]
        if stem.isdigit():
            generations.append(int(stem))
    return sorted(generations)


def load_snapshot_file(path: Path) -> dict[str, Any] | None:
    """Load and CRC-verify one snapshot; ``None`` when unusable."""
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError):
        return None
    if not isinstance(document, dict):
        return None
    if document.get("format") != SNAPSHOT_FORMAT:
        return None
    state = document.get("state")
    if not isinstance(state, dict):
        return None
    if zlib.crc32(_encode(state)) != document.get("crc"):
        return None
    return state


class BrokerDurability:
    """One broker's journal: logging facade + live state mirror + recovery.

    Constructing it *is* the recovery: the newest valid snapshot is
    loaded, journal segments after it are replayed (stopping cleanly at
    torn or corrupt frames), and — when anything was found — a fresh
    snapshot and segment are started so the repaired state is durable
    before the broker accepts new work. :attr:`report` is ``None`` for
    a pristine directory and a :class:`RecoveryReport` otherwise.

    Thread-safety: one internal lock serializes every append with its
    mirror update, so :attr:`state` is always consistent with what is
    on disk (minus an armed ``"after"``-mode kill, where the broker is
    dead anyway). The lock is never held across user callbacks and
    nothing inside it sleeps or re-enters the broker.
    """

    def __init__(
        self,
        policy: DurabilityPolicy,
        *,
        replay_capacity: int = 256,
        registry: MetricsRegistry | None = None,
        clock: Clock | None = None,
    ) -> None:
        self.policy = policy
        self.directory = Path(policy.directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._clock = clock if clock is not None else MONOTONIC_CLOCK
        registry = registry if registry is not None else MetricsRegistry()
        self._records = registry.counter("durability.records")
        self._bytes = registry.counter("durability.bytes")
        self._fsyncs = registry.counter("durability.fsyncs")
        self._snapshots = registry.counter("durability.snapshots")
        self._recoveries = registry.counter("durability.recoveries")
        self._replayed = registry.counter("durability.replayed_records")
        self._corrupt = registry.counter("durability.corrupt_records")
        self._truncated = registry.counter("durability.truncated_tails")
        self._suppressed = registry.counter("durability.duplicates_suppressed")
        self._restore_misses = registry.counter("durability.restore_misses")
        self._append_seconds = registry.histogram("durability.append_seconds")
        self._lock = threading.Lock()
        self._records_since_snapshot = 0
        self.state = DurableState(replay_capacity)
        self.wal = WriteAheadLog(
            self.directory,
            fsync=policy.fsync,
            fsync_batch_records=policy.fsync_batch_records,
            fsync_counter=self._fsyncs,
        )
        self.report = self._recover()

    # -- recovery ----------------------------------------------------------

    def _recover(self) -> RecoveryReport | None:
        snapshot_gens = _scan_generations(self.directory, "snap-", ".json")
        wal_gens = _scan_generations(self.directory, "wal-", ".log")
        base_generation: int | None = None
        for generation in reversed(snapshot_gens):
            snapshot = load_snapshot_file(
                self.directory / f"snap-{generation:08d}.json"
            )
            if snapshot is not None:
                self.state.load_snapshot(snapshot)
                base_generation = generation
                break
        replay_from = base_generation if base_generation is not None else 0
        segments = 0
        replayed = 0
        corrupt = 0
        truncated = False
        for generation in wal_gens:
            if generation < replay_from:
                continue
            scan = read_wal_segment(self.directory / f"wal-{generation:08d}.log")
            for record in scan.records:
                self.state.apply(record)
                replayed += 1
            segments += 1
            corrupt += scan.corrupt_records
            truncated = truncated or scan.truncated_tail
            if scan.corrupt_records:
                # A corrupt frame poisons everything after it in *this
                # broker's history*, not just this segment: later
                # segments were written after the corrupted state.
                break
        if base_generation is None and not wal_gens:
            self._generation = 0
            self.wal.open_segment(0)
            return None
        next_generation = max([replay_from, *wal_gens]) + 1
        report = RecoveryReport(
            snapshot_generation=base_generation,
            segments_replayed=segments,
            records_replayed=replayed,
            corrupt_records=corrupt,
            truncated_tail=truncated,
            restored_subscriptions=len(self.state.subs),
            restored_pending=len(self.state.pending),
        )
        self._recoveries.inc()
        if replayed:
            self._replayed.inc(replayed)
        if corrupt:
            self._corrupt.inc(corrupt)
        if truncated:
            self._truncated.inc()
        # Make the repaired state durable *before* accepting new work:
        # a snapshot at the new generation supersedes any torn tail, so
        # fresh records never append after garbage bytes.
        self._generation = next_generation
        self._write_snapshot(next_generation)
        self.wal.open_segment(next_generation)
        return report

    # -- journaling facade -------------------------------------------------

    def log_subscribe(self, handle: "SubscriptionHandle") -> None:
        policy = handle.policy
        self._append(
            {
                "t": "sub",
                "id": handle.id,
                "key": handle.key,
                "s": subscription_to_dict(handle.subscription),
                "policy": policy_to_dict(policy) if policy is not None else None,
            }
        )

    def log_unsubscribe(self, sub_id: int) -> None:
        self._append({"t": "unsub", "id": sub_id})

    def log_publish(self, sequence: int, event: Event) -> None:
        self._append({"t": "pub", "seq": sequence, "e": event_to_dict(event)})

    def log_done(self, sequence: int) -> None:
        self._append({"t": "done", "seq": sequence})

    def log_ack(self, sub_id: int, sequence: int) -> None:
        self._append({"t": "ack", "id": sub_id, "seq": sequence})

    def log_dead_letter(self, record: "DeadLetterRecord") -> None:
        self._append(
            {
                "t": "dlq",
                "id": record.subscriber_id,
                "seq": record.delivery.sequence,
                "reason": record.reason,
                "attempts": record.attempts,
                "error": record.error,
                "timestamp": record.timestamp,
                "trace_id": record.trace_id,
            }
        )

    def log_drain(self, sub_id: int, count: int) -> None:
        self._append({"t": "drain", "id": sub_id, "n": count})

    def log_dlq_drain(self, count: int) -> None:
        self._append({"t": "dlqdrain", "n": count})

    # -- idempotency + fault hooks -----------------------------------------

    def is_settled(self, sub_id: int, sequence: int) -> bool:
        with self._lock:
            return self.state.is_settled(sub_id, sequence)

    def note_suppressed(self) -> None:
        self._suppressed.inc()

    def note_restore_miss(self) -> None:
        self._restore_misses.inc()

    def arm_kill(self, at: int, mode: str = "before") -> None:
        self.wal.arm_kill(at, mode)

    @property
    def crashed(self) -> bool:
        return self.wal.crashed

    # -- lifecycle ---------------------------------------------------------

    def snapshot_now(self) -> None:
        """Force a snapshot + segment rotation (tests, shutdown hooks)."""
        with self._lock:
            self._rotate()

    def close(self) -> None:
        with self._lock:
            self.wal.close()

    # -- internals ---------------------------------------------------------

    def _append(self, record: dict[str, Any]) -> None:
        with self._lock:
            started = self._clock.monotonic()
            written = self.wal.append(record)
            self.state.apply(record)
            self._records.inc()
            self._bytes.inc(written)
            self._append_seconds.record(self._clock.monotonic() - started)
            self._records_since_snapshot += 1
            if (
                self.policy.snapshot_every
                and self._records_since_snapshot >= self.policy.snapshot_every
            ):
                self._rotate()

    def _rotate(self) -> None:
        """Snapshot the mirror and start a new segment (lock held)."""
        self._generation += 1
        self._write_snapshot(self._generation)
        self.wal.open_segment(self._generation)
        self._records_since_snapshot = 0

    def _write_snapshot(self, generation: int) -> None:
        state = self.state.to_snapshot()
        document = {
            "format": SNAPSHOT_FORMAT,
            "generation": generation,
            "crc": zlib.crc32(_encode(state)),
            "state": state,
        }
        path = self.directory / f"snap-{generation:08d}.json"
        tmp = path.with_suffix(".json.tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(document, fh, sort_keys=True)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
        self._snapshots.inc()
