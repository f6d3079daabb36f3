"""Thesaurus structures mirroring EuroVoc's organization.

EuroVoc (the thesaurus the paper uses, Section 5.2) is organized as
*micro-thesauri*, one per domain, each holding *concepts*. A concept has
a preferred term, alternative terms (synonyms, EuroVoc's "used-for"
relation), and related terms (links to sibling concepts). Each
micro-thesaurus exposes *top terms* — the broad terms the paper samples
theme tags from (Section 5.2.4).

The evaluation uses the thesaurus for three operations, all provided
here: term expansion (semantic expansion of seed events, Section 5.2.2),
top-term sampling (theme generation), and membership queries (ground
truth). The concrete six-domain dataset lives in
:mod:`repro.knowledge.eurovoc`.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from types import MappingProxyType

from repro.semantics.tokenize import normalize_term

__all__ = ["Concept", "MicroThesaurus", "Thesaurus"]


@dataclass(frozen=True)
class Concept:
    """One thesaurus concept: a preferred term and its lexical variants.

    ``alternatives`` are interchangeable synonyms; ``related`` are terms
    of semantically close sibling concepts (EuroVoc "RT" links). Both are
    legitimate replacements during semantic expansion, which is exactly
    how the paper builds its heterogeneous event set ("replacing one or
    more terms ... by synonyms or related terms from the thesaurus").
    """

    preferred: str
    alternatives: tuple[str, ...] = ()
    related: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not normalize_term(self.preferred):
            raise ValueError("concept needs a non-empty preferred term")

    def terms(self) -> tuple[str, ...]:
        """Preferred term plus alternatives (the synonym ring)."""
        return (self.preferred, *self.alternatives)

    def expansion_terms(self) -> tuple[str, ...]:
        """Every term usable as a replacement: synonyms plus related."""
        return (*self.terms(), *self.related)


@dataclass(frozen=True)
class MicroThesaurus:
    """A domain of the thesaurus: its concepts and its top terms."""

    name: str
    top_terms: tuple[str, ...]
    concepts: tuple[Concept, ...]

    def __post_init__(self) -> None:
        if not self.top_terms:
            raise ValueError(f"micro-thesaurus {self.name!r} needs top terms")
        seen: set[str] = set()
        for concept in self.concepts:
            key = normalize_term(concept.preferred)
            if key in seen:
                raise ValueError(
                    f"duplicate concept {concept.preferred!r} in {self.name!r}"
                )
            seen.add(key)

    def all_terms(self) -> tuple[str, ...]:
        """Every synonym-ring term in the domain (no related, no tops)."""
        out: list[str] = []
        for concept in self.concepts:
            out.extend(concept.terms())
        return tuple(out)


class Thesaurus:
    """A set of micro-thesauri with normalized-term lookup.

    Lookup structures are built once at construction; the thesaurus is
    immutable afterwards. The span table that term rewriting
    (:mod:`repro.knowledge.rewrite`) scans against is compiled lazily,
    once per ``(domains, include_related)`` key, and shared read-only by
    every later reader.
    """

    def __init__(self, micro_thesauri: Sequence[MicroThesaurus]):
        self.micro_thesauri: dict[str, MicroThesaurus] = {}
        self._term_index: dict[str, list[tuple[str, Concept]]] = {}
        for micro in micro_thesauri:
            if micro.name in self.micro_thesauri:
                raise ValueError(f"duplicate micro-thesaurus {micro.name!r}")
            self.micro_thesauri[micro.name] = micro
            for concept in micro.concepts:
                for term in concept.terms():
                    key = normalize_term(term)
                    self._term_index.setdefault(key, []).append((micro.name, concept))
        self._span_lock = threading.Lock()
        self._span_tables: dict[
            tuple[tuple[str, ...], bool], Mapping[str, tuple[str, ...]]
        ] = {}

    # -- queries -----------------------------------------------------------

    def domains(self) -> tuple[str, ...]:
        return tuple(self.micro_thesauri)

    def micro(self, domain: str) -> MicroThesaurus:
        return self.micro_thesauri[domain]

    def concepts_of(
        self, term: str, domains: Iterable[str] | None = None
    ) -> list[tuple[str, Concept]]:
        """(domain, concept) pairs whose synonym ring contains ``term``."""
        hits = self._term_index.get(normalize_term(term), [])
        if domains is None:
            return list(hits)
        wanted = set(domains)
        return [(dom, con) for dom, con in hits if dom in wanted]

    def expansions(
        self,
        term: str,
        domains: Iterable[str] | None = None,
        *,
        include_related: bool = True,
    ) -> tuple[str, ...]:
        """All replacement terms for ``term``, excluding ``term`` itself.

        Deterministic order: domain order, then concept term order.
        Returns ``()`` for out-of-thesaurus terms, which the expansion
        stage then leaves untouched.
        """
        key = normalize_term(term)
        out: list[str] = []
        seen: set[str] = {key}
        for _, concept in self.concepts_of(term, domains):
            pool = concept.expansion_terms() if include_related else concept.terms()
            for candidate in pool:
                ckey = normalize_term(candidate)
                if ckey not in seen:
                    seen.add(ckey)
                    out.append(candidate)
        return tuple(out)

    def _span_table(
        self, domains: Iterable[str] | None, include_related: bool
    ) -> Mapping[str, tuple[str, ...]]:
        """Normalized term -> sorted replacement terms over ``domains``.

        Compiled on first use per key and memoised; the thesaurus is
        immutable, so the table never goes stale.
        """
        names = tuple(domains) if domains is not None else self.domains()
        key = (names, include_related)
        with self._span_lock:
            table = self._span_tables.get(key)
            if table is None:
                table = self._compile_span_table(names, include_related)
                self._span_tables[key] = table
        return table

    def _compile_span_table(
        self, names: tuple[str, ...], include_related: bool
    ) -> Mapping[str, tuple[str, ...]]:
        buckets: dict[str, set[str]] = {}
        for name in names:
            for concept in self.micro_thesauri[name].concepts:
                ring = concept.expansion_terms() if include_related else concept.terms()
                normalized_ring = [normalize_term(t) for t in ring]
                for term in normalized_ring:
                    bucket = buckets.setdefault(term, set())
                    bucket.update(t for t in normalized_ring if t != term)
        return MappingProxyType(
            {term: tuple(sorted(reps)) for term, reps in buckets.items()}
        )

    def synonymous(self, term_a: str, term_b: str) -> bool:
        """True if the two terms share a concept's synonym ring."""
        concepts_a = {id(c) for _, c in self.concepts_of(term_a)}
        return any(id(c) in concepts_a for _, c in self.concepts_of(term_b))

    def top_terms(self, domains: Iterable[str] | None = None) -> tuple[str, ...]:
        """Theme-tag pool: top terms of the selected domains, in order."""
        names = tuple(domains) if domains is not None else self.domains()
        out: list[str] = []
        for name in names:
            out.extend(self.micro_thesauri[name].top_terms)
        return tuple(out)

    def vocabulary(self) -> frozenset[str]:
        """Every normalized synonym-ring term across all domains."""
        return frozenset(self._term_index)

    def __contains__(self, term: str) -> bool:
        return normalize_term(term) in self._term_index

    def __len__(self) -> int:
        return sum(len(m.concepts) for m in self.micro_thesauri.values())
