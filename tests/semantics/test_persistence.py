"""Tests for corpus snapshots (save/load/verify)."""

import json

import pytest

from repro.semantics.documents import DocumentSet
from repro.semantics.persistence import (
    FORMAT_VERSION,
    corpus_digest,
    load_corpus,
    load_space,
    save_corpus,
)

TOY = DocumentSet.from_texts(["energy power grid", "parking street car"])


class TestDigest:
    def test_deterministic(self):
        assert corpus_digest(TOY) == corpus_digest(TOY)

    def test_sensitive_to_content(self):
        other = DocumentSet.from_texts(["energy power grid", "parking street"])
        assert corpus_digest(TOY) != corpus_digest(other)

    def test_sensitive_to_order(self):
        reordered = DocumentSet.from_documents(
            [TOY[1], TOY[0]]
        )
        assert corpus_digest(TOY) != corpus_digest(reordered)


class TestRoundTrip:
    def test_save_load(self, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(TOY, path)
        loaded = load_corpus(path)
        assert loaded.names() == TOY.names()
        assert [d.text for d in loaded] == [d.text for d in TOY]

    def test_load_space_builds_equivalent_space(self, tmp_path):
        path = tmp_path / "corpus.json"
        save_corpus(TOY, path)
        space = load_space(path)
        assert space.relatedness("parking", "street") > 0

    def test_default_corpus_roundtrip(self, tmp_path, corpus):
        path = tmp_path / "default.json"
        save_corpus(corpus, path)
        assert corpus_digest(load_corpus(path)) == corpus_digest(corpus)


class TestValidation:
    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "something-else"}))
        with pytest.raises(ValueError, match="not a repro corpus"):
            load_corpus(path)

    def test_rejects_wrong_version(self, tmp_path):
        path = tmp_path / "old.json"
        save_corpus(TOY, path)
        payload = json.loads(path.read_text())
        payload["version"] = FORMAT_VERSION + 1
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="version"):
            load_corpus(path)

    def test_rejects_tampered_content(self, tmp_path):
        path = tmp_path / "tampered.json"
        save_corpus(TOY, path)
        payload = json.loads(path.read_text())
        payload["documents"][0]["text"] = "tampered text"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="digest"):
            load_corpus(path)


class TestColumnarSnapshot:
    """Binary zero-copy layout for the warm-cache spawn workers."""

    @staticmethod
    def _write(tmp_path):
        import numpy as np

        from repro.semantics.columnar import ColumnarIndex
        from repro.semantics.index import InvertedIndex
        from repro.semantics.persistence import save_columnar

        columnar = ColumnarIndex.build(InvertedIndex.build(TOY))
        path = tmp_path / "space.repro-col"
        save_columnar(columnar, path, digest=corpus_digest(TOY))
        return columnar, path, np

    def test_round_trip_is_bit_identical_and_memory_mapped(self, tmp_path):
        from repro.semantics.persistence import load_columnar

        columnar, path, np = self._write(tmp_path)
        loaded, digest = load_columnar(path)
        assert digest == corpus_digest(TOY)
        assert loaded.vocabulary == columnar.vocabulary
        assert loaded.corpus_size == columnar.corpus_size
        for name, array in columnar.arrays().items():
            view = loaded.arrays()[name]
            assert isinstance(view, np.memmap)
            assert view.dtype == array.dtype
            assert np.array_equal(view, array)

    def test_kernel_over_snapshot_scores_identically(self, tmp_path):
        from repro.semantics.kernel import KernelMeasure, RelatednessKernel
        from repro.semantics.persistence import load_columnar

        columnar, path, _ = self._write(tmp_path)
        loaded, _ = load_columnar(path)
        lookups = [
            ("energy", ("energy",), "power", ("energy", "street")),
            ("car", (), "street", ()),
        ]
        in_memory = KernelMeasure(RelatednessKernel(columnar))
        mapped = KernelMeasure(RelatednessKernel(loaded))
        assert in_memory.score_batch(lookups) == mapped.score_batch(lookups)

    def test_rejects_digest_mismatch(self, tmp_path):
        from repro.semantics.persistence import load_columnar

        _, path, _ = self._write(tmp_path)
        with pytest.raises(ValueError, match="digest mismatch"):
            load_columnar(path, expected_digest="0" * 64)

    def test_rejects_bad_magic(self, tmp_path):
        from repro.semantics.persistence import load_columnar

        _, path, _ = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"NOTACOLF"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not a repro columnar"):
            load_columnar(path)

    def test_rejects_future_layout_version(self, tmp_path):
        import struct

        from repro.semantics.persistence import (
            COLUMNAR_FORMAT_VERSION,
            load_columnar,
        )

        _, path, _ = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[8:10] = struct.pack("=H", COLUMNAR_FORMAT_VERSION + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="layout version"):
            load_columnar(path)

    def test_rejects_opposite_endianness(self, tmp_path):
        from repro.semantics.persistence import load_columnar

        _, path, _ = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[10:12] = bytes(reversed(raw[10:12]))  # byte-swapped probe
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="endianness"):
            load_columnar(path)

    def test_save_requires_a_real_digest(self, tmp_path):
        from repro.semantics.columnar import ColumnarIndex
        from repro.semantics.index import InvertedIndex
        from repro.semantics.persistence import save_columnar

        columnar = ColumnarIndex.build(InvertedIndex.build(TOY))
        with pytest.raises(ValueError, match="64-char"):
            save_columnar(columnar, tmp_path / "x.col", digest="abc")
