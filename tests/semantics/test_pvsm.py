"""Unit tests for the Parametric Vector Space Model and Algorithm 1."""

import math

import pytest

from repro.semantics.documents import DocumentSet
from repro.semantics.pvsm import ParametricVectorSpace, theme_key
from repro.semantics.weighting import augmented_tf, idf

TOY = DocumentSet.from_texts(
    [
        "energy power consumption grid supply",          # 0 energy
        "energy meter usage power bill",                 # 1 energy
        "parking garage street car transport",           # 2 transport
        "parking transport spot city street",            # 3 transport
        "power struggle politics power government",      # 4 the other 'power'
        "generic filler words common phrases",           # 5 noise
    ]
)


@pytest.fixture(scope="module")
def pvsm():
    return ParametricVectorSpace(TOY)


class TestThemeKey:
    def test_order_and_case_insensitive(self):
        assert theme_key(["Energy", "power"]) == theme_key(("POWER", "energy"))

    def test_drops_empty_tags(self):
        assert theme_key(["", "energy"]) == ("energy",)

    def test_deduplicates(self):
        assert theme_key(["energy", "Energy "]) == ("energy",)

    def test_accepts_frozenset(self):
        assert theme_key(frozenset({"energy"})) == ("energy",)


class TestThemeBasis:
    def test_empty_theme_spans_corpus(self, pvsm):
        assert pvsm.theme_basis(()) == frozenset(range(len(TOY)))

    def test_basis_is_tag_support_union(self, pvsm):
        assert pvsm.theme_basis(["grid"]) == frozenset({0})
        assert pvsm.theme_basis(["grid", "garage"]) == frozenset({0, 2})

    def test_unknown_tags_span_nothing(self, pvsm):
        assert pvsm.theme_basis(["zebra"]) == frozenset()

    def test_basis_cached(self, pvsm):
        assert pvsm.theme_basis(["grid"]) is pvsm.theme_basis(("grid",))


class TestProjection:
    def test_support_within_basis(self, pvsm):
        theme = ["energy"]
        basis = pvsm.theme_basis(theme)
        projected = pvsm.project("power", theme)
        assert projected.support() <= basis

    def test_empty_theme_is_plain_vector(self, pvsm):
        assert pvsm.project("power", ()) == pvsm.term_vector("power")

    def test_disambiguation(self, pvsm):
        # 'power' under an energy theme loses its politics sense.
        projected = pvsm.project("power", ["energy"])
        assert 4 not in projected.support()
        full = pvsm.term_vector("power")
        assert 4 in full.support()

    def test_out_of_theme_term_projects_to_zero(self, pvsm):
        assert not pvsm.project("parking", ["grid"])

    def test_unknown_term_projects_to_zero(self, pvsm):
        assert not pvsm.project("zebra", ["energy"])

    def test_idf_recomputed_over_basis(self, pvsm):
        # Algorithm 1 line 9: idf = log(|B| / df_in_basis).
        theme = ["energy"]           # basis = docs 0 and 1
        projected = pvsm.project("grid", theme)   # grid only in doc 0
        expected = augmented_tf(1, 1) * idf(2, 1)
        assert math.isclose(projected[0], expected)

    def test_term_in_all_basis_docs_gets_zero_weight(self, pvsm):
        # 'energy' appears in both basis docs -> sub-corpus idf is 0.
        assert not pvsm.project("energy", ["energy"])

    def test_multiword_projection_additive(self, pvsm):
        combined = pvsm.project("power grid", ["energy"])
        expected = pvsm.project("power", ["energy"]).add(
            pvsm.project("grid", ["energy"])
        )
        assert combined == expected

    def test_projection_cached(self, pvsm):
        assert pvsm.project("power", ["energy"]) is pvsm.project(
            "power", ("energy",)
        )


class TestThematicRelatedness:
    def test_bounds_and_symmetry(self, pvsm):
        a = pvsm.thematic_relatedness("power", ["energy"], "meter", ["energy"])
        b = pvsm.thematic_relatedness("meter", ["energy"], "power", ["energy"])
        assert 0.0 <= a <= 1.0
        assert math.isclose(a, b)

    def test_zero_when_term_outside_theme(self, pvsm):
        assert (
            pvsm.thematic_relatedness("parking", ["grid"], "garage", ["grid"])
            == 0.0
        )

    def test_modes_differ_for_asymmetric_themes(self, pvsm):
        # Sub theme includes the politics document (where 'power' also
        # occurs); event theme does not. In common mode the politics
        # dimension is dropped from the subscription vector; in own mode
        # it stays and pays a norm penalty.
        sub_theme = ["energy", "politics", "transport"]
        common = pvsm.thematic_relatedness(
            "power", sub_theme, "meter", ["energy"], mode="common"
        )
        own = pvsm.thematic_relatedness(
            "power", sub_theme, "meter", ["energy"], mode="own"
        )
        assert common > own > 0.0

    def test_common_mode_restricts_to_intersection(self, pvsm):
        # Disjoint bases -> empty intersection -> relatedness 0.
        assert (
            pvsm.thematic_relatedness(
                "power", ["grid"], "parking", ["garage"], mode="common"
            )
            == 0.0
        )

    def test_unknown_mode_rejected(self, pvsm):
        with pytest.raises(ValueError):
            pvsm.thematic_relatedness("a", (), "b", (), mode="weird")

    @pytest.mark.parametrize("metric", ["euclidean", "cosine"])
    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("mode", ["common", "own"])
    def test_bit_identical_to_the_definition(self, mode, normalize, metric):
        # Empty, unknown-tag, equal, nested (energy inside the wide
        # theme) and disjoint (grid / garage) theme pairs, in both orders.
        themes = [
            (),
            ("zebra",),
            ("energy",),
            ("energy", "politics", "transport"),
            ("grid",),
            ("garage",),
        ]
        terms = ["power", "meter", "parking", "energy consumption", "street", "zebra"]
        scored = ParametricVectorSpace(TOY, normalize=normalize, metric=metric)
        reference = ParametricVectorSpace(TOY, normalize=normalize, metric=metric)
        for theme_s in themes:
            for theme_e in themes:
                key_s, key_e = theme_key(theme_s), theme_key(theme_e)
                common = reference.theme_basis(key_s) & reference.theme_basis(key_e)
                for term_s in terms:
                    for term_e in terms:
                        left = reference.project(term_s, key_s)
                        right = reference.project(term_e, key_e)
                        if mode == "common" and key_s != key_e:
                            left, right = left.restrict(common), right.restrict(common)
                        expected = reference.vector_relatedness(left, right)
                        got = scored.thematic_relatedness(
                            term_s, theme_s, term_e, theme_e, mode=mode
                        )
                        assert got == expected, (term_s, theme_s, term_e, theme_e)

    def test_common_basis_symmetric_and_cached(self, pvsm):
        ab = pvsm.common_basis(["energy"], ["grid"])
        ba = pvsm.common_basis(["grid"], ["energy"])
        assert ab == ba == frozenset({0})


class TestCacheStats:
    def test_reports_all_caches(self, pvsm):
        stats = pvsm.cache_stats()
        for key in (
            "bases",
            "common_bases",
            "projections",
            "restricted",
            "term_vectors",
            "token_vectors",
        ):
            assert key in stats
            assert stats[key] >= 0


class TestPreparedMemo:
    def test_one_cross_theme_score_stores_only_its_two_operands(self):
        space = ParametricVectorSpace(TOY)
        wide, narrow = ["energy", "politics", "transport"], ["energy"]
        space.thematic_relatedness("power", wide, "meter", narrow, mode="common")
        stats = space.cache_stats()
        assert stats["common_bases"] == 0
        assert stats["restricted"] == 2
        # 'meter' projects inside the energy documents, which the wide
        # basis contains: its operand is the projection's own unit vector.
        operand = space._restricted[("meter", theme_key(narrow), theme_key(wide))]
        assert operand is space.project("meter", narrow).normalized()


class TestOnDefaultCorpus:
    def test_projection_boosts_in_theme_synonyms(self, space):
        theme = {"energy", "energy policy", "electricity supply"}
        themed = space.thematic_relatedness(
            "energy consumption", theme, "electricity usage", theme
        )
        assert themed > 0.5

    def test_contrast_pair_deflated_in_theme(self, space):
        theme = {
            "energy", "pollution", "communications", "information technology",
            "social affairs", "regions",
        }
        full = space.relatedness("increased", "decreased")
        themed = space.thematic_relatedness("increased", theme, "decreased", theme)
        assert themed < full
