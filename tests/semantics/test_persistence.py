"""Tests for corpus snapshots (save/load/verify)."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro

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
    """Snapshot guards on the binary layout the columnar index used.

    The columnar snapshot kind is retired; its framing (magic, version,
    endianness probe, corpus digest) lives on for the score store. A
    columnar file left on disk must be refused, not misread, and the
    header digest must tie a snapshot to the corpus it was built from.
    """

    @staticmethod
    def _write(tmp_path, documents=TOY):
        from repro.semantics.cache import PersistentScoreStore, cache_key
        from repro.semantics.persistence import save_score_store

        scores = {cache_key("energy", (), "power", ()): 0.5}
        store = PersistentScoreStore.build(
            scores, corpus_digest=corpus_digest(documents)
        )
        path = tmp_path / "space.repro-col"
        save_score_store(store, path)
        return path

    def test_rejects_digest_mismatch(self, tmp_path):
        from repro.semantics.persistence import load_score_store

        path = self._write(tmp_path)
        other = DocumentSet.from_texts(["energy power grid", "parking street"])
        with pytest.raises(ValueError, match="digest mismatch"):
            load_score_store(path, expected_digest=corpus_digest(other))
        loaded = load_score_store(path, expected_digest=corpus_digest(TOY))
        assert loaded.corpus_digest == corpus_digest(TOY)

    def test_rejects_bad_magic(self, tmp_path):
        from repro.semantics.persistence import load_score_store

        path = self._write(tmp_path)
        raw = bytearray(path.read_bytes())
        raw[:8] = b"REPROCOL"  # the retired columnar kind's magic
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not a repro score-store"):
            load_score_store(path)


def test_import_repro_does_not_load_the_columnar_index():
    """The columnar arrays are the opt-in kernel's alone: importing the
    package (persistence included) must not pull them in."""
    src = pathlib.Path(repro.__file__).resolve().parent.parent
    probe = "import sys, repro; print('repro.semantics.columnar' in sys.modules)"
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.strip() == "False"
