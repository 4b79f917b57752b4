import pytest

from references import generic_posteriors

from recipetext.corpus import Corpus, LabelKind, Recipe
from recipetext.errors import DataError
from recipetext.extraction import (
    build_lexicon,
    canonical_form,
    extract,
    extract_candidates,
    fold_token,
    load_lexicon,
    load_run,
    resolve_generics,
    save_lexicon,
    save_run,
)
from recipetext.textnorm import NormConfig, analyze


def _lexicon_of(recipes):
    corpus = Corpus(recipes, LabelKind.NONE)
    config = NormConfig()
    return build_lexicon(corpus, {r.id: analyze(r, config) for r in corpus}, config)


def _analysis(recipe):
    return analyze(recipe, NormConfig())


@pytest.fixture(scope="module")
def lexicon(mini6_dish, analyze_all):
    return build_lexicon(mini6_dish, analyze_all(mini6_dish), NormConfig())


class TestFolding:
    def test_fold_token(self):
        assert fold_token("oeufs") == "oeuf"
        assert fold_token("eaux") == "eau"
        assert fold_token("os") == "os"          # too short to fold
        assert fold_token("riz") == "riz"

    def test_canonical_form(self):
        config = NormConfig()
        assert canonical_form("Oeufs", config) == "oeuf"
        assert canonical_form("pommes de terre", config) == "pomme de terre"
        assert canonical_form("Crème fraîche", config) == "crème fraîche"


class TestBuildLexicon:
    def test_plural_fold_unifies_entries(self):
        recipes = [
            Recipe("1", "a", "des oeufs battus.", gold_ingredients=["oeufs"]),
            Recipe("2", "b", "un oeuf entier.", gold_ingredients=["oeuf"]),
        ]
        lex = _lexicon_of(recipes)
        assert "oeuf" in lex.entries
        assert "oeufs" not in lex.entries  # folded to the canonical form

    def test_requires_gold_lists(self):
        recipes = [Recipe("1", "a", "rien ici.")]
        with pytest.raises(DataError):
            _lexicon_of(recipes)

    def test_generic_without_text_mentions_has_empty_table(self):
        recipes = [Recipe("1", "a", "du chocolat noir.", gold_ingredients=["chocolat"])]
        lex = _lexicon_of(recipes)
        assert lex.specializations["viande"] == {}

    def test_fixture_specializations_match_bruteforce(self, mini6_dish, lexicon):
        config = NormConfig()
        from recipetext.textnorm import normalize
        for generic in lexicon.generic_terms:
            expected = {}
            for recipe in mini6_dish:
                tokens = {fold_token(t) for t in
                          normalize(recipe.title + "\n" + recipe.body, config)}
                if generic not in tokens:
                    continue
                for item in recipe.gold_ingredients or []:
                    form = canonical_form(item, config)
                    expected[form] = expected.get(form, 0) + 1
            assert lexicon.specializations[generic] == expected

    def test_generics_never_entries(self, lexicon):
        assert not (lexicon.generic_terms & lexicon.entries)

    def test_roundtrip(self, tmp_path, lexicon):
        path = tmp_path / "lexicon.tsv"
        save_lexicon(lexicon, path)
        reloaded = load_lexicon(path)
        assert reloaded.entries == lexicon.entries
        assert reloaded.generic_terms == lexicon.generic_terms
        assert reloaded.specializations == lexicon.specializations
        assert reloaded.pair_counts == lexicon.pair_counts


class TestExtractCandidates:
    def test_direct_hit(self, lexicon):
        recipe = Recipe("x", "Salade", "Émincer un oignon rouge.")
        candidates, generics = extract_candidates(_analysis(recipe), lexicon)
        assert "oignon" in candidates.ingredients()
        assert generics == frozenset()

    def test_no_lexicon_hit_gives_empty_list(self, lexicon):
        recipe = Recipe("x", "Mystère", "mélanger énergiquement tous les ingrédients")
        candidates, generics = extract_candidates(_analysis(recipe), lexicon)
        assert candidates.ingredients() == []
        assert generics == frozenset()

    def test_multiword_entry_single_candidate(self, lexicon):
        recipe = Recipe("x", "Quiche", "Verser la crème fraîche sur la pâte brisée.")
        candidates, _ = extract_candidates(_analysis(recipe), lexicon)
        items = candidates.ingredients()
        assert "crème fraîche" in items
        assert "crème" not in items and "fraîche" not in items
        assert "pâte brisée" in items

    def test_plural_text_matches_singular_entry(self, lexicon):
        recipe = Recipe("x", "Omelette", "Casser trois oeufs sur les lardons.")
        candidates, _ = extract_candidates(_analysis(recipe), lexicon)
        assert "oeuf" in candidates.ingredients()
        assert "lardon" in candidates.ingredients()

    def test_generic_carried_not_emitted(self, lexicon):
        recipe = Recipe("x", "Grillade", "Saisir la viande avec du beurre.")
        candidates, generics = extract_candidates(_analysis(recipe), lexicon)
        assert "viande" in generics
        assert "viande" not in candidates.ingredients()

    def test_idempotent_and_deterministic(self, lexicon, mini6_dish):
        for recipe in mini6_dish:
            first = extract(_analysis(recipe), lexicon)
            second = extract(_analysis(recipe), lexicon)
            assert first.items == second.items

    def test_ranked_by_confidence_then_name(self, lexicon):
        recipe = Recipe("x", "Mix", "beurre et sucre, sucre encore, beurre beurre.")
        candidates, _ = extract_candidates(_analysis(recipe), lexicon)
        items = candidates.items
        assert items == sorted(items, key=lambda c: (-c.confidence, c.ingredient))


class TestResolveGenerics:
    def _lexicon(self):
        recipes = [
            Recipe("1", "tartiflette", "préparer la viande en dés.",
                   gold_ingredients=["jambon"]),
            Recipe("2", "salade", "mélanger le jambon aux lardons.",
                   gold_ingredients=["jambon", "lardons"]),
            Recipe("3", "gratin", "râper le fromage sur le plat.",
                   gold_ingredients=["gruyère", "pommes de terre"]),
            Recipe("4", "quiche", "garnir de lardons.",
                   gold_ingredients=["lardons", "reblochon"]),
        ]
        return _lexicon_of(recipes)

    def test_no_generic_is_identity(self, lexicon):
        recipe = Recipe("x", "Salade", "Couper un oignon.")
        candidates, generics = extract_candidates(_analysis(recipe), lexicon)
        resolved = resolve_generics(candidates, generics, lexicon)
        assert resolved.items == candidates.items

    def test_injects_cooccurring_specific(self):
        lex = self._lexicon()
        recipe = Recipe("x", "Plat", "faire revenir la viande avec lardons et reblochon.")
        candidates, generics = extract_candidates(_analysis(recipe), lex)
        assert "viande" in generics
        resolved = resolve_generics(candidates, generics, lex)
        # specifics of "viande": jambon, lardons (from recipe 1's text mention);
        # "lardon" candidate co-occurs with jambon in gold lists -> inject jambon
        assert "jambon" in resolved.ingredients()

    def test_zero_evidence_drops_generic(self):
        lex = self._lexicon()
        recipe = Recipe("x", "Plat", "cuire la viande avec du gruyère.")
        candidates, generics = extract_candidates(_analysis(recipe), lex)
        resolved = resolve_generics(candidates, generics, lex)
        # gruyère never co-occurs with jambon or lardons in gold lists
        assert set(resolved.ingredients()) == set(candidates.ingredients())

    def test_never_removes_candidates(self, lexicon, mini6_dish):
        for recipe in mini6_dish:
            candidates, generics = extract_candidates(_analysis(recipe), lexicon)
            resolved = resolve_generics(candidates, generics, lexicon)
            assert set(candidates.ingredients()) <= set(resolved.ingredients())

    def test_posteriors_sum_to_one(self):
        lex = self._lexicon()
        recipe = Recipe("x", "Plat", "la viande et les lardons.")
        candidates, _ = extract_candidates(_analysis(recipe), lex)
        posteriors = generic_posteriors("viande", candidates, lex)
        assert posteriors
        assert sum(posteriors.values()) == pytest.approx(1.0, abs=1e-12)

    def test_closed_world(self, lexicon, mini6_dish):
        specifics = {x for table in lexicon.specializations.values() for x in table}
        for recipe in mini6_dish:
            for item in extract(_analysis(recipe), lexicon).ingredients():
                assert item in lexicon.entries or item in specifics


class TestRunIo:
    def test_run_roundtrip(self, tmp_path, lexicon, mini6_dish):
        run = {r.id: extract(_analysis(r), lexicon) for r in mini6_dish}
        path = tmp_path / "run.tsv"
        save_run(run, path)
        loaded = load_run(path)
        for rid, candidates in run.items():
            if candidates.items:
                assert loaded[rid] == candidates.ingredients()
