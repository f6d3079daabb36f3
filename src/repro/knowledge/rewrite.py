"""Term-level rewriting of event/subscription text against a thesaurus.

Three consumers share this machinery:

* **semantic expansion** (Section 5.2.2) replaces a thesaurus term
  embedded in a value ("increased *energy consumption* event") with a
  synonym or related term;
* the **concept-based rewriting baseline** (Section 1.2.2 / [16]'s
  WordNet comparator) enumerates such variants of subscription terms;
* the **ground truth** (Section 5.2.3) must decide whether two surface
  terms are expansion-equivalent, which it does by *canonicalizing*
  every recognized span back to a representative term.

Spans are found by greedy longest-match over normalized tokens, so
multi-word thesaurus terms win over their single-word prefixes. The
normalized term -> replacements table they are matched against is
compiled once per ``(thesaurus, domains, include_related)`` and held by
the :class:`~repro.knowledge.thesaurus.Thesaurus`, so expansion, the
ground truth and the rewriting baseline all share one copy.

Canonicalization uses an equivalence relation over concepts: two
concepts merge when one lists a term of the other as *related* (the
paper's expansion treats synonyms and related terms alike, so the ground
truth must too). The relation is computed once per
:class:`Canonicalizer` with a union–find pass.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.knowledge.thesaurus import Thesaurus
from repro.semantics.tokenize import normalize_term

__all__ = ["TermSpan", "find_term_spans", "replace_span", "single_replacements", "Canonicalizer"]

#: Longest multi-word term we try to match, in tokens.
_MAX_SPAN = 4


@dataclass(frozen=True)
class TermSpan:
    """A recognized thesaurus term occurrence inside a longer text.

    ``start``/``end`` index the normalized token sequence (``end`` is
    exclusive); ``term`` is the normalized matched term; ``replacements``
    are the normalized alternative surface forms usable in its place.
    """

    start: int
    end: int
    term: str
    replacements: tuple[str, ...]


def find_term_spans(
    text: str,
    thesaurus: Thesaurus,
    domains: Iterable[str] | None = None,
    *,
    include_related: bool = True,
) -> tuple[TermSpan, ...]:
    """Greedy longest-match recognition of thesaurus terms in ``text``.

    Matches never overlap; scanning is left-to-right and prefers the
    longest term starting at each position.
    """
    table = thesaurus._span_table(domains, include_related)
    tokens = normalize_term(text).split()
    spans: list[TermSpan] = []
    i = 0
    while i < len(tokens):
        matched = False
        for length in range(min(_MAX_SPAN, len(tokens) - i), 0, -1):
            candidate = " ".join(tokens[i : i + length])
            replacements = table.get(candidate)
            if replacements is not None:
                spans.append(
                    TermSpan(
                        start=i,
                        end=i + length,
                        term=candidate,
                        replacements=replacements,
                    )
                )
                i += length
                matched = True
                break
        if not matched:
            i += 1
    return tuple(spans)


def replace_span(text: str, span: TermSpan, replacement: str) -> str:
    """Rewrite ``text`` with ``replacement`` substituted at ``span``.

    Output is in normalized form (the spans index normalized tokens).
    """
    tokens = normalize_term(text).split()
    rebuilt = tokens[: span.start] + replacement.split() + tokens[span.end :]
    return " ".join(rebuilt)


def single_replacements(
    text: str,
    thesaurus: Thesaurus,
    domains: Iterable[str] | None = None,
    *,
    include_related: bool = True,
) -> tuple[str, ...]:
    """Every variant of ``text`` with exactly one span replaced.

    Deterministic order (span order, then replacement order); never
    includes ``text`` itself.
    """
    variants: list[str] = []
    seen: set[str] = {normalize_term(text)}
    for span in find_term_spans(
        text, thesaurus, domains, include_related=include_related
    ):
        for replacement in span.replacements:
            variant = replace_span(text, span, replacement)
            if variant not in seen:
                seen.add(variant)
                variants.append(variant)
    return tuple(variants)


class Canonicalizer:
    """Maps surface text to a canonical form that expansion cannot change.

    Every recognized thesaurus span is replaced by the representative
    term of its concept-equivalence class (union–find over synonym rings
    and related-term links). Two texts are expansion-equivalent exactly
    when their canonical forms coincide — the ground-truth relation of
    Section 5.2.3.
    """

    def __init__(
        self, thesaurus: Thesaurus, domains: Iterable[str] | None = None
    ):
        self.thesaurus = thesaurus
        self.domains = tuple(domains) if domains is not None else thesaurus.domains()
        self._representative = self._build_representatives()
        self._cache: dict[str, str] = {}

    def _build_representatives(self) -> dict[str, str]:
        parent: dict[str, str] = {}

        def find(term: str) -> str:
            root = term
            while parent.setdefault(root, root) != root:
                root = parent[root]
            while parent[term] != root:  # path compression
                parent[term], term = root, parent[term]
            return root

        def union(a: str, b: str) -> None:
            parent[find(a)] = find(b)

        for name in self.domains:
            for concept in self.thesaurus.micro(name).concepts:
                anchor = normalize_term(concept.preferred)
                for term in concept.expansion_terms():
                    union(normalize_term(term), anchor)
        # Deterministic representative: lexicographically smallest member.
        members: dict[str, list[str]] = {}
        for term in list(parent):
            members.setdefault(find(term), []).append(term)
        representative: dict[str, str] = {}
        for group in members.values():
            rep = min(group)
            for term in group:
                representative[term] = rep
        return representative

    def canonical_term(self, term: str) -> str:
        """Representative of ``term``'s equivalence class (or itself)."""
        key = normalize_term(term)
        return self._representative.get(key, key)

    def _rewrite_once(self, key: str) -> str:
        """One left-to-right pass replacing spans with representatives."""
        spans = find_term_spans(
            key, self.thesaurus, self.domains, include_related=True
        )
        tokens = key.split()
        out: list[str] = []
        i = 0
        for span in spans:
            out.extend(tokens[i : span.start])
            out.extend(self.canonical_term(span.term).split())
            i = span.end
        out.extend(tokens[i:])
        return " ".join(out)

    def canonicalize(self, text: str) -> str:
        """Replace every recognized span with its class representative.

        Substituting a representative can merge a neighbouring token
        into a longer thesaurus term ("city | city bus" -> "city bus"
        after "city bus" -> "bus"), so one rewrite pass is not a fixed
        point. Iterate until the text stabilizes; should the rewrite
        ever cycle, the lexicographically smallest member of the cycle
        is the canonical form (deterministic, so ``equivalent`` remains
        an equivalence relation).
        """
        key = normalize_term(text)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        trajectory = [key]
        current = key
        while True:
            rewritten = self._rewrite_once(current)
            if rewritten == current:
                break
            if rewritten in trajectory:
                cycle = trajectory[trajectory.index(rewritten) :]
                current = min(cycle)
                break
            trajectory.append(rewritten)
            current = rewritten
        # Every intermediate form reaches the same fixed point, so the
        # whole trajectory can share one cache entry.
        for form in trajectory:
            self._cache[form] = current
        return current

    def equivalent(self, text_a: str, text_b: str) -> bool:
        """True when the two texts are expansion-equivalent."""
        return self.canonicalize(text_a) == self.canonicalize(text_b)
