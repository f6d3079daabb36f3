"""Tests for span recognition, rewriting, and canonicalization."""

import sys
import threading

import pytest

from repro.knowledge.eurovoc import build_eurovoc
from repro.knowledge.rewrite import (
    Canonicalizer,
    find_term_spans,
    replace_span,
    single_replacements,
)
from repro.knowledge.thesaurus import Concept
from repro.semantics.tokenize import normalize_term


class TestFindTermSpans:
    def test_finds_multiword_term(self, thesaurus):
        spans = find_term_spans(
            "increased energy consumption event", thesaurus
        )
        terms = {span.term for span in spans}
        assert "energy consumption" in terms
        assert "increased" in terms

    def test_longest_match_wins(self, thesaurus):
        spans = find_term_spans("energy consumption", thesaurus)
        assert any(span.term == "energy consumption" for span in spans)
        # 'energy' alone must not be matched inside the longer span.
        assert not any(span.term == "energy" for span in spans)

    def test_spans_do_not_overlap(self, thesaurus):
        spans = find_term_spans(
            "increased energy consumption event in galway city", thesaurus
        )
        for left, right in zip(spans, spans[1:], strict=False):
            assert left.end <= right.start

    def test_unknown_text_has_no_spans(self, thesaurus):
        assert find_term_spans("zebra quagga xylophone", thesaurus) == ()

    def test_domain_restriction(self, thesaurus):
        spans = find_term_spans("parking", thesaurus, domains=["energy"])
        assert spans == ()

    def test_replacements_exclude_self(self, thesaurus):
        spans = find_term_spans("parking", thesaurus)
        for span in spans:
            assert span.term not in span.replacements


class TestSpanTableCompiledOnce:
    def test_second_call_walks_no_concept(self, monkeypatch):
        thesaurus = build_eurovoc()
        first = find_term_spans("energy consumption", thesaurus, ["energy"])
        walked = []
        original = Concept.expansion_terms

        def counting(concept):
            walked.append(concept)
            return original(concept)

        monkeypatch.setattr(Concept, "expansion_terms", counting)
        second = find_term_spans("energy consumption", thesaurus, ["energy"])
        assert second == first
        assert walked == []
        assert second[0].replacements is first[0].replacements

    def test_concurrent_first_calls_share_one_table(self):
        thesaurus = build_eurovoc()
        barrier = threading.Barrier(4)
        seen = []

        def first_call():
            barrier.wait(timeout=10)
            seen.append(find_term_spans("parking", thesaurus)[0].replacements)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=first_call) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(seen) == 4
        assert all(replacements is seen[0] for replacements in seen)

    def test_each_key_gets_its_own_table(self):
        thesaurus = build_eurovoc()
        with_related = find_term_spans("parking", thesaurus)
        synonyms_only = find_term_spans("parking", thesaurus, include_related=False)
        assert find_term_spans("parking", thesaurus, domains=["energy"]) == ()
        assert set(synonyms_only[0].replacements) < set(with_related[0].replacements)
        # Building the narrower tables left the all-domain one untouched.
        assert find_term_spans("parking", thesaurus) == with_related


class TestReplaceSpan:
    def test_roundtrip(self, thesaurus):
        text = "increased energy consumption event"
        span = next(
            s for s in find_term_spans(text, thesaurus)
            if s.term == "energy consumption"
        )
        rewritten = replace_span(text, span, "electricity usage")
        assert rewritten == "increased electricity usage event"


class TestSingleReplacements:
    def test_variants_differ_from_original(self, thesaurus):
        variants = single_replacements("energy consumption", thesaurus)
        assert variants
        assert normalize_term("energy consumption") not in variants

    def test_variants_unique(self, thesaurus):
        variants = single_replacements(
            "increased energy consumption event", thesaurus
        )
        assert len(variants) == len(set(variants))

    def test_unknown_text_yields_nothing(self, thesaurus):
        assert single_replacements("zebra", thesaurus) == ()


class TestCanonicalizer:
    @pytest.fixture(scope="class")
    def canon(self, thesaurus):
        return Canonicalizer(thesaurus)

    def test_synonyms_equivalent(self, canon):
        assert canon.equivalent("energy consumption", "electricity usage")

    def test_related_terms_equivalent(self, canon):
        # 'garage' is related to 'parking' and its own concept; expansion
        # may replace one with the other, so the ground truth must too.
        assert canon.equivalent("parking", "garage")

    def test_contrasts_not_equivalent(self, canon):
        assert not canon.equivalent("increased", "decreased")
        assert not canon.equivalent("occupied", "free")
        assert not canon.equivalent("galway", "dublin")

    def test_embedded_spans_canonicalize(self, canon):
        assert canon.equivalent(
            "increased energy consumption event",
            "rising electricity usage event",
        )

    def test_unknown_tokens_preserved(self, canon):
        assert not canon.equivalent("room 112", "room 113")
        assert canon.equivalent("room 112", "indoor space 112")

    def test_canonical_term_is_fixed_point(self, canon, thesaurus):
        for term in list(thesaurus.vocabulary())[:50]:
            rep = canon.canonical_term(term)
            assert canon.canonical_term(rep) == rep

    def test_canonicalize_idempotent(self, canon):
        text = "increased energy consumption event"
        once = canon.canonicalize(text)
        assert canon.canonicalize(once) == once

    def test_resegmenting_replacement_stays_equivalent(self, canon):
        # Replacing "city bus" with its related term "bus" makes the
        # preceding standalone "city" token merge into a *new* "city
        # bus" span on the next recognition pass. Canonicalization must
        # iterate to a fixed point for the two texts to stay equivalent.
        assert canon.equivalent("ac unit city city bus", "ac unit city bus")
        fixed = canon.canonicalize("city city bus")
        assert canon.canonicalize(fixed) == fixed

    def test_equivalence_is_symmetric(self, canon):
        pairs = [
            ("computer", "laptop"),
            ("galway", "galway city"),
            ("kilowatt hour", "kwh"),
        ]
        for a, b in pairs:
            assert canon.equivalent(a, b) == canon.equivalent(b, a)
