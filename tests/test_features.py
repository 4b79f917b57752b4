import math

import pytest

from oracles import gini_oracle, mi_oracle
from references import (
    by_id,
    context_stats,
    gini,
    perfbench_corpus,
    recipe_vector,
    table_vectors,
    term_counts,
)

from recipetext.cli import TASK_LABEL_KIND, _analyze_corpus, load_config
from recipetext.corpus import Corpus, LabelKind, Recipe, load_corpus, stratified_split
from recipetext.cosine import default_hierarchy, train_cosine
from recipetext.errors import ConfigError
from recipetext.features import (
    Feed,
    build_stats,
    feed_tokens,
    group_stats,
    load_stats,
    mutual_information,
    mutual_information_select,
    numeric_features,
    save_stats,
    tfidf_vector,
)
from recipetext.textnorm import NormConfig, analyze, normalize


def _corpus(docs: dict[str, tuple[str, str]]) -> Corpus:
    """docs: id -> (text, dish class name)."""
    from recipetext.corpus import DishType
    recipes = [Recipe(rid, f"titre {rid}", text, dish_type=DishType[cls])
               for rid, (text, cls) in docs.items()]
    return Corpus(recipes, LabelKind.DISH_TYPE)


@pytest.fixture(scope="module")
def small_stats(analyze_all):
    corpus = _corpus({
        "a": ("chocolat sucre beurre", "Dessert"),
        "b": ("chocolat vanille sucre", "Dessert"),
        "c": ("salade tomate huile", "Entree"),
        "d": ("salade oignon", "Entree"),
        "e": ("poulet riz oignon", "PlatPrincipal"),
        "f": ("poulet sauce beurre", "PlatPrincipal"),
    })
    return corpus, build_stats(corpus, corpus, analyze_all(corpus))


class TestBuildStats:
    def test_df_consistency(self, small_stats):
        corpus, stats = small_stats
        for term, info in term_counts(stats).items():
            assert sum(info.df_class.values()) == info.df_train
            assert info.df >= info.df_train >= 1

    def test_idf_zero_iff_everywhere(self, small_stats):
        corpus, stats = small_stats
        # "titre" appears in every title, hence every document
        assert stats.idf["titre"] == 0.0
        assert stats.idf["chocolat"] == pytest.approx(math.log(6 / 2), abs=0)

    def test_pure_term_gini_is_one(self, small_stats):
        _, stats = small_stats
        assert gini(stats, "chocolat") == 1.0
        assert gini(stats, "poulet") == 1.0

    def test_uniform_term_gini_is_one_third(self, analyze_all):
        corpus = _corpus({
            "a": ("sel", "Dessert"), "b": ("sel", "Entree"), "c": ("sel", "PlatPrincipal"),
            "d": ("x", "Dessert"), "e": ("x", "Entree"), "f": ("x", "PlatPrincipal"),
        })
        stats = build_stats(corpus, corpus, analyze_all(corpus))
        assert gini(stats, "sel") == pytest.approx(1 / 3, abs=1e-15)

    def test_gini_matches_bruteforce(self, mini6_dish, analyze_all):
        config = NormConfig()
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish, config))
        doc_terms = {r.id: set(normalize(r.title + "\n" + r.body, config))
                     for r in mini6_dish}
        labels = mini6_dish.labels()
        for term in stats.terms:
            expected = gini_oracle(doc_terms, labels, term)
            got = gini(stats, term)
            if expected is None:
                assert got is None
            else:
                assert got == pytest.approx(expected, abs=1e-12)
                assert 1 / 3 - 1e-12 <= got <= 1 + 1e-12

    def test_unseen_in_train_has_no_gini(self, mini6_dish, analyze_all):
        train = Corpus(mini6_dish.recipes[:3], LabelKind.DISH_TYPE)
        stats = build_stats(train, mini6_dish, analyze_all(mini6_dish))
        # "cannelle" occurs only in r5, which is not in the train slice
        assert term_counts(stats)["cannelle"].df_train == 0
        assert gini(stats, "cannelle") is None

    def test_roundtrip(self, tmp_path, small_stats):
        _, stats = small_stats
        path = tmp_path / "stats.tsv"
        save_stats(stats, path)
        assert load_stats(path) == stats


class TestGroupStats:
    @pytest.mark.parametrize("task", ["T1", "T2"])
    @pytest.mark.parametrize("source", ["golden60", "corpusgen"])
    def test_equals_the_context_counted_from_the_recipes(self, fixtures_dir, task, source):
        # every context and feed of the task's default hierarchy, on the
        # training split of the task's golden config
        config = load_config(fixtures_dir / f"golden_config_{task.lower()}.json")
        kind = TASK_LABEL_KIND[task]
        full = (load_corpus(fixtures_dir / "golden60.xml", kind) if source == "golden60"
                else perfbench_corpus(7, 300, kind))
        analyses, _ = _analyze_corpus(full, config.norm_config)
        train, _ = stratified_split(full, config.dev_fraction, config.seed)
        contexts = default_hierarchy(task).contexts()
        for feed in Feed:
            stats = build_stats(train, full, analyses, feed)
            for grouping in contexts.values():
                assert group_stats(stats, grouping) == context_stats(
                    train, full, analyses, feed, grouping)


class TestTfidf:
    def test_everywhere_terms_drop_out(self, analyze_all):
        corpus = _corpus({
            "a": ("sel poivre", "Dessert"), "b": ("sel poivre", "Dessert"),
            "c": ("sel poivre", "Entree"), "d": ("sel poivre", "Entree"),
        })
        analyses = analyze_all(corpus)
        stats = build_stats(corpus, corpus, analyses)
        vector = tfidf_vector(analyses["a"], stats)
        assert "sel" not in vector and "poivre" not in vector

    def test_weight_is_tf_times_idf(self, small_stats):
        corpus, stats = small_stats
        recipe = Recipe("x", "chocolat", "chocolat encore du chocolat")
        vector = tfidf_vector(analyze(recipe, NormConfig()), stats)
        assert vector["chocolat"] == pytest.approx(3 * math.log(6 / 2), abs=1e-15)

    def test_out_of_lexicon_dropped(self, small_stats):
        _, stats = small_stats
        recipe = Recipe("x", "inconnu", "mot jamais vu")
        assert tfidf_vector(analyze(recipe, NormConfig()), stats) == {}

    def test_monotone_decreasing_in_df(self, small_stats):
        _, stats = small_stats
        # same tf, more documents -> smaller weight
        r = Recipe("x", "t", "chocolat oignon")
        vector = tfidf_vector(analyze(r, NormConfig()), stats)
        counts = term_counts(stats)
        assert counts["chocolat"].df == counts["oignon"].df
        r2 = Recipe("y", "t", "chocolat salade")  # salade df=2 too
        assert all(w >= 0 for w in vector.values())

    def test_fixture_vector_matches_hand_computation(self, mini6_dish, analyze_all):
        config = NormConfig()
        analyses = analyze_all(mini6_dish, config)
        stats = build_stats(mini6_dish, mini6_dish, analyses)
        recipe = by_id(mini6_dish, "r1")
        vector = tfidf_vector(analyses["r1"], stats)
        tokens = normalize(recipe.title + "\n" + recipe.body, config)
        counts = term_counts(stats)
        for term, weight in vector.items():
            tf = tokens.count(term)
            expected = tf * math.log(len(mini6_dish) / counts[term].df)
            assert weight == pytest.approx(expected, abs=1e-12)
        # every everywhere-term is absent
        for term in tokens:
            if counts[term].df == len(mini6_dish):
                assert term not in vector


class TestGiniVectors:
    def test_threshold_filters_vocab(self, small_stats):
        _, stats = small_stats
        everything = list(train_cosine(stats, 0.0).terms)
        strict = list(train_cosine(stats, 0.45).terms)
        top = list(train_cosine(stats, 1.0).terms)
        assert set(top) <= set(strict) <= set(everything)
        assert set(everything) == {t for t in stats.terms if gini(stats, t) is not None}
        for term in strict:
            assert gini(stats, term) >= 0.45

    def test_bruteforce_survivors(self, mini6_dish, analyze_all):
        config = NormConfig()
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish, config))
        doc_terms = {r.id: set(normalize(r.title + "\n" + r.body, config))
                     for r in mini6_dish}
        labels = mini6_dish.labels()
        expected = sorted(
            t for t in stats.terms
            if gini_oracle(doc_terms, labels, t) is not None
            and gini_oracle(doc_terms, labels, t) >= 0.5)
        assert list(train_cosine(stats, 0.5).terms) == expected

    def test_vector_weights(self, small_stats):
        corpus, stats = small_stats
        analysis = analyze(corpus.recipes[0], NormConfig())
        model = train_cosine(stats, 0.45)
        v_r = recipe_vector(model, analysis)
        v_c = table_vectors(model)["Dessert"]
        for term, weight in v_r.items():
            g = gini(stats, term)
            assert g >= 0.45
            tokens = feed_tokens(analysis, stats.feed)
            assert weight == pytest.approx(
                tokens.count(term) * stats.idf[term] * g, abs=1e-15)
        counts = term_counts(stats)
        for term, weight in v_c.items():
            assert weight == pytest.approx(
                counts[term].df_class["Dessert"] * stats.idf[term] * gini(stats, term),
                abs=1e-15)


class TestMutualInformation:
    def test_matches_bruteforce(self, mini6_dish, analyze_all):
        config = NormConfig()
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish, config))
        doc_terms = {r.id: set(normalize(r.title + "\n" + r.body, config))
                     for r in mini6_dish}
        labels = mini6_dish.labels()
        for term, info in term_counts(stats).items():
            for cls in stats.classes:
                got = mutual_information(info.df_class[cls], info.df_train,
                                         stats.class_sizes[cls], stats.train_size)
                assert got == pytest.approx(
                    mi_oracle(doc_terms, labels, term, cls), abs=1e-12)

    def test_prefix_stability(self, mini6_dish, analyze_all):
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish))
        sizes = [1, 3, 5, 10, 50, 10_000]
        selections = [mutual_information_select(stats, k) for k in sizes]
        for smaller, larger in zip(selections, selections[1:]):
            assert smaller == larger[:len(smaller)]

    def test_k_beyond_vocab_returns_all(self, mini6_dish, analyze_all):
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish))
        everything = mutual_information_select(stats, 10_000)
        assert len(everything) == len(
            [t for t, info in term_counts(stats).items() if info.df_train > 0])

    def test_top5_matches_oracle_ranking(self, mini6_dish, analyze_all):
        config = NormConfig()
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish, config))
        doc_terms = {r.id: set(normalize(r.title + "\n" + r.body, config))
                     for r in mini6_dish}
        labels = mini6_dish.labels()
        scored = sorted(
            ((-max(mi_oracle(doc_terms, labels, t, c) for c in stats.classes), t)
             for t in stats.terms),
        )
        expected = [t for _, t in scored[:5]]
        assert mutual_information_select(stats, 5) == expected

    def test_invalid_k(self, mini6_dish, analyze_all):
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish))
        with pytest.raises(ConfigError):
            mutual_information_select(stats, 0)


class TestNumericFeatures:
    def test_sentence_and_separator_counts(self):
        recipe = Recipe("x", "Titre", "A. B. C.")
        feats = numeric_features(analyze(recipe, NormConfig()), [])
        assert feats["sentences"] == 3
        assert feats["separators"] == 3

    def test_trailing_segment_counts(self):
        recipe = Recipe("x", "Titre", "Premier point. ensuite sans point final")
        assert numeric_features(analyze(recipe, NormConfig()), [])["sentences"] == 2

    def test_empty_ingredient_list(self):
        analysis = analyze(Recipe("x", "T", "B."), NormConfig())
        feats = numeric_features(analysis, [])
        assert feats["ingredient_count"] == 0
        assert numeric_features(analysis, ["a", "b"])["ingredient_count"] == 2

    def test_fixture_recipe_counts(self, mini6_dish, plain_norm):
        recipe = by_id(mini6_dish, "r2")
        feats = numeric_features(analyze(recipe, plain_norm), ["chocolat", "beurre"])
        assert feats["title_words"] == len(normalize(recipe.title, plain_norm))
        assert feats["body_words"] == len(normalize(recipe.body, plain_norm))
        # hand-count on the r2 body: three '.'-terminated sentences
        assert feats["sentences"] == 3
        assert feats["separators"] == recipe.body.count(".") + recipe.body.count(",")
        assert feats["ingredient_count"] == 2

    def test_all_non_negative(self, mini6_dish):
        for recipe in mini6_dish:
            feats = numeric_features(analyze(recipe, NormConfig()),
                                     recipe.gold_ingredients or [])
            assert min(feats.values()) >= 0


class TestFeeds:
    def test_title_only_feed(self, mini6_dish, analyze_all):
        stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish),
                            feed=Feed.TITLE_ONLY)
        assert "reblochon" not in stats.terms  # body-only word
        assert "quiche" in stats.terms
