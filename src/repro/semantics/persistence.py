"""Save/load the distributional substrate.

Indexing a corpus is the expensive, one-off part of deployment; matchers
should boot from a snapshot. This module serializes a
:class:`~repro.semantics.documents.DocumentSet` (and therefore any space
built over it) to a single JSON file, versioned and checksummed.

Only the corpus is persisted in the JSON snapshot — spaces rebuild their
indexes deterministically from it, and caches re-warm on use. That keeps
the format trivial to inspect and independent of internal cache layouts.

A second, binary format family serves zero-copy attach: named numpy
arrays written as one versioned file whose payloads map back via
read-only ``np.memmap`` — consumers share the page cache instead of
materializing copies. Two snapshot kinds use it, each with its own
magic and version: the columnar CSR arrays of a built space
(:mod:`repro.semantics.columnar`, attached by ``repro warm-cache``
workers)
and the persistent precomputed-score store
(:class:`~repro.semantics.cache.PersistentScoreStore`, produced by
``repro warm-cache``). Shared layout::

    bytes 0..7    magic  (b"REPROCOL" columnar / b"REPROSCT" score store)
    bytes 8..9    format version   (uint16, native order)
    bytes 10..11  endianness probe (uint16 0xFEFF, native order — a
                  snapshot written on a machine of the other endianness
                  reads back as 0xFFFE and is rejected)
    bytes 12..75  corpus digest    (64 hex ascii bytes, ties the arrays
                  to the exact corpus they were built from)
    bytes 76..79  TOC length       (uint32)
    ...           JSON TOC: kind-specific metadata plus per-array
                  {dtype, shape, offset} entries (offsets 16-aligned)
    ...           raw array bytes

Array weights are bit-exact across the round trip (raw buffer copies,
no re-serialization), so a kernel over a loaded snapshot scores
identically to one over the in-memory build — the property the
persistence suite pins down, and likewise a loaded score
store answers bit-identically to the in-memory table it was built from.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path
from typing import Any

import numpy as np

from repro.obs import MetricsRegistry
from repro.semantics.cache import PersistentScoreStore
from repro.semantics.columnar import ColumnarIndex
from repro.semantics.documents import Document, DocumentSet
from repro.semantics.pvsm import ParametricVectorSpace

__all__ = [
    "FORMAT_VERSION",
    "COLUMNAR_FORMAT_VERSION",
    "SCORE_STORE_FORMAT_VERSION",
    "save_corpus",
    "load_corpus",
    "load_space",
    "corpus_digest",
    "save_columnar",
    "load_columnar",
    "save_score_store",
    "load_score_store",
]

FORMAT_VERSION = 1

#: Version of the binary columnar layout (bumped on any layout change).
COLUMNAR_FORMAT_VERSION = 1

#: Version of the binary score-store layout (bumped on any layout change).
SCORE_STORE_FORMAT_VERSION = 1

_COLUMNAR_MAGIC = b"REPROCOL"
_SCORE_MAGIC = b"REPROSCT"
#: Written in native byte order; reads back byte-swapped on the other
#: endianness, which is exactly the rejection we want (the raw array
#: payloads would be byte-swapped too).
_ENDIAN_PROBE = 0xFEFF
_ALIGN = 16


def corpus_digest(documents: DocumentSet) -> str:
    """Stable content digest of a corpus (sha256 over names and texts)."""
    hasher = hashlib.sha256()
    for doc in documents:
        hasher.update(doc.name.encode())
        hasher.update(b"\x00")
        hasher.update(doc.text.encode())
        hasher.update(b"\x01")
    return hasher.hexdigest()


def save_corpus(documents: DocumentSet, path: str | Path) -> None:
    """Write the corpus snapshot to ``path`` (JSON)."""
    payload = {
        "format": "repro-corpus",
        "version": FORMAT_VERSION,
        "digest": corpus_digest(documents),
        "documents": [
            {"name": doc.name, "text": doc.text} for doc in documents
        ],
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_corpus(path: str | Path) -> DocumentSet:
    """Read a corpus snapshot; verifies format, version and digest."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != "repro-corpus":
        raise ValueError(f"{path}: not a repro corpus snapshot")
    if payload.get("version") != FORMAT_VERSION:
        raise ValueError(
            f"{path}: snapshot version {payload.get('version')} "
            f"(this build reads {FORMAT_VERSION})"
        )
    documents = DocumentSet.from_documents(
        [Document(d["name"], d["text"]) for d in payload["documents"]]
    )
    digest = corpus_digest(documents)
    if digest != payload.get("digest"):
        raise ValueError(f"{path}: digest mismatch, snapshot is corrupt")
    return documents


def load_space(path: str | Path, **space_kwargs: Any) -> ParametricVectorSpace:
    """Load a snapshot and build a parametric space over it."""
    return ParametricVectorSpace(load_corpus(path), **space_kwargs)


# -- binary array snapshots (zero-copy attach) ------------------------------


def _write_snapshot(
    path: str | Path,
    *,
    magic: bytes,
    version: int,
    digest: str,
    meta: dict,
    arrays: dict[str, np.ndarray],
) -> None:
    """Write one named-array snapshot in the shared binary layout."""
    if len(digest) != 64:
        raise ValueError("digest must be a 64-char sha256 hexdigest")
    header_probe_len = len(magic) + 2 + 2 + 64 + 4
    # The TOC length depends on the offsets, which depend on the TOC
    # length; offsets are computed against a fixed-width rendering so
    # one pass suffices.
    offset_field = "{:>12d}"
    entries = {}
    for name, array in arrays.items():
        entries[name] = {
            "dtype": str(array.dtype),
            "shape": list(array.shape),
            "offset": offset_field.format(0),
        }
    skeleton = dict(meta)
    skeleton["arrays"] = entries
    toc_len = len(json.dumps(skeleton).encode())
    cursor = header_probe_len + toc_len
    for name, array in arrays.items():
        cursor += (-cursor) % _ALIGN
        entries[name]["offset"] = offset_field.format(cursor)
        cursor += array.nbytes
    payload = json.dumps(skeleton).encode()
    if len(payload) != toc_len:
        raise AssertionError("snapshot TOC length drifted during layout")
    with open(path, "wb") as handle:
        handle.write(magic)
        handle.write(struct.pack("=HH", version, _ENDIAN_PROBE))
        handle.write(digest.encode("ascii"))
        handle.write(struct.pack("=I", toc_len))
        handle.write(payload)
        for name, array in arrays.items():
            offset = int(entries[name]["offset"])
            handle.write(b"\x00" * (offset - handle.tell()))
            handle.write(np.ascontiguousarray(array).tobytes())


def _read_snapshot(
    path: str | Path,
    *,
    magic: bytes,
    version: int,
    kind: str,
    expected_digest: str | None = None,
) -> tuple[dict, dict[str, np.ndarray], str]:
    """Attach one snapshot zero-copy; returns ``(toc, views, digest)``.

    Array payloads come back as read-only ``np.memmap`` views. Verifies
    magic, layout version, endianness probe, and (when
    ``expected_digest`` is given) the corpus digest.
    """
    path = Path(path)
    with open(path, "rb") as handle:
        found = handle.read(len(magic))
        if found != magic:
            raise ValueError(f"{path}: not a repro {kind} snapshot")
        found_version, probe = struct.unpack("=HH", handle.read(4))
        if probe != _ENDIAN_PROBE:
            raise ValueError(
                f"{path}: endianness mismatch — snapshot written on a "
                "machine of the opposite byte order"
            )
        if found_version != version:
            raise ValueError(
                f"{path}: {kind} layout version {found_version} "
                f"(this build reads {version})"
            )
        digest = handle.read(64).decode("ascii")
        (toc_len,) = struct.unpack("=I", handle.read(4))
        toc = json.loads(handle.read(toc_len).decode())
    if expected_digest is not None and digest != expected_digest:
        raise ValueError(
            f"{path}: corpus digest mismatch — snapshot was built from a "
            "different corpus"
        )
    views: dict[str, np.ndarray] = {}
    for name, entry in toc["arrays"].items():
        views[name] = np.memmap(
            path,
            dtype=np.dtype(entry["dtype"]),
            mode="r",
            offset=int(entry["offset"]),
            shape=tuple(entry["shape"]),
        )
    return toc, views, digest


def save_columnar(
    columnar: ColumnarIndex, path: str | Path, *, digest: str
) -> None:
    """Write the columnar arrays as one binary snapshot (see module doc).

    ``digest`` must be the :func:`corpus_digest` of the corpus the
    arrays were built from; :func:`load_columnar` verifies it so workers
    can never attach to a space built over a different corpus.
    """
    _write_snapshot(
        path,
        magic=_COLUMNAR_MAGIC,
        version=COLUMNAR_FORMAT_VERSION,
        digest=digest,
        meta={
            "corpus_size": columnar.corpus_size,
            "vocabulary": list(columnar.vocabulary),
        },
        arrays=columnar.arrays(),
    )


def load_columnar(
    path: str | Path, *, expected_digest: str | None = None
) -> tuple[ColumnarIndex, str]:
    """Attach a columnar snapshot zero-copy; returns ``(index, digest)``.

    Array payloads come back as read-only ``np.memmap`` views — worker
    processes share the page cache instead of materializing copies.
    Verifies magic, layout version, endianness probe, and (when
    ``expected_digest`` is given) the corpus digest.
    """
    toc, views, digest = _read_snapshot(
        path,
        magic=_COLUMNAR_MAGIC,
        version=COLUMNAR_FORMAT_VERSION,
        kind="columnar",
        expected_digest=expected_digest,
    )
    columnar = ColumnarIndex(
        tuple(toc["vocabulary"]),
        views["indptr"],
        views["doc_ids"],
        views["freqs"],
        views["tfidf"],
        views["max_frequency"],
        int(toc["corpus_size"]),
    )
    return columnar, digest


def save_score_store(store: PersistentScoreStore, path: str | Path) -> None:
    """Write a score store as one binary snapshot (see module doc).

    The store's own :attr:`~PersistentScoreStore.corpus_digest` goes in
    the header, so the loader can refuse a store warmed against a
    different corpus. Parent directories are created as needed — the
    warmer CLI points ``--out`` at artifact paths that may not exist
    yet.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    _write_snapshot(
        path,
        magic=_SCORE_MAGIC,
        version=SCORE_STORE_FORMAT_VERSION,
        digest=store.corpus_digest,
        meta={"entries": len(store)},
        arrays=store.arrays(),
    )


def load_score_store(
    path: str | Path,
    *,
    expected_digest: str | None = None,
    registry: MetricsRegistry | None = None,
) -> PersistentScoreStore:
    """Attach a score-store snapshot zero-copy.

    The key/score columns come back as read-only ``np.memmap`` views —
    pages load on first probe. Call
    :meth:`~PersistentScoreStore.warm` to materialize them into RAM.
    """
    _toc, views, digest = _read_snapshot(
        path,
        magic=_SCORE_MAGIC,
        version=SCORE_STORE_FORMAT_VERSION,
        kind="score-store",
        expected_digest=expected_digest,
    )
    return PersistentScoreStore(
        views["key_hi"],
        views["key_lo"],
        views["scores"],
        corpus_digest=digest,
        registry=registry,
    )
