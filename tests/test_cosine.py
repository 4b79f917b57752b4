import dataclasses
import math

import pytest

from references import by_id, gini, table_vectors, term_counts

from recipetext.corpus import Corpus, DishType, LabelKind, Recipe
from recipetext.cosine import (
    LITERAL,
    STANDARD,
    CosineConfig,
    HierarchySpec,
    HierarchyStage,
    classify_hierarchical,
    default_hierarchy,
    load_hierarchical,
    load_hierarchy_spec,
    save_hierarchical,
    score_cosine,
    train_cosine,
    train_hierarchical,
)
from recipetext.errors import ConfigError
from recipetext.features import Feed, build_stats
from recipetext.textnorm import NormConfig, analyze, normalize


def _analysis(recipe):
    return analyze(recipe, NormConfig())


def _leaf_stats(corpus, analyses):
    """Each feed's statistics of ``corpus`` trained on itself."""
    return {feed: build_stats(corpus, corpus, analyses, feed) for feed in Feed}


@pytest.fixture(scope="module")
def fixture_model(mini6_dish, analyze_all):
    stats = build_stats(mini6_dish, mini6_dish, analyze_all(mini6_dish))
    return mini6_dish, stats, train_cosine(stats, 0.45)


class TestTrainCosine:
    def test_class_vectors_cover_filtered_vocab_only(self, fixture_model):
        corpus, stats, model = fixture_model
        for term in model.terms:
            assert gini(stats, term) >= 0.45

    def test_one_class_corpus_gini_is_one(self, analyze_all):
        recipes = [Recipe(f"d{i}", "tarte sucre", "sucre farine beurre.",
                          dish_type=DishType.Dessert) for i in range(3)]
        corpus = Corpus(recipes, LabelKind.DISH_TYPE)
        stats = build_stats(corpus, corpus, analyze_all(corpus))
        model = train_cosine(stats, 0.0)
        counts = term_counts(stats)
        for term, weight in table_vectors(model)["Dessert"].items():
            assert gini(stats, term) == 1.0
            assert weight == pytest.approx(counts[term].df_class["Dessert"] * stats.idf[term],
                                           abs=1e-15)

    def test_fixture_weights_match_direct_formula(self, fixture_model):
        corpus, stats, model = fixture_model
        counts = term_counts(stats)
        for cls in corpus.classes():
            for term, weight in table_vectors(model)[cls].items():
                expected = (counts[term].df_class.get(cls, 0)
                            * stats.idf[term] * gini(stats, term))
                assert weight == pytest.approx(expected, abs=1e-12)

    def test_threshold_monotonicity(self, fixture_model):
        corpus, stats, _ = fixture_model
        previous = None
        for step in range(0, 21):
            threshold = step / 20
            model = train_cosine(stats, threshold)
            support = {cls: set(v) for cls, v in table_vectors(model).items()}
            if previous is not None:
                for cls in support:
                    assert support[cls] <= previous[cls]
            previous = support

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigError, match="denominator mode 'cosinus'"):
            CosineConfig(denominator_mode="cosinus")


class TestScoreCosine:
    def test_standard_scores_in_unit_interval(self, fixture_model):
        corpus, _, model = fixture_model
        for recipe in corpus:
            vector = score_cosine(model, _analysis(recipe))
            for value in vector.scores.values():
                assert -1e-12 <= value <= 1.0 + 1e-12

    def test_parallel_vectors_score_one(self, analyze_all):
        # recipe and class vectors are parallel when the class's docs all
        # share the recipe's exact term profile
        recipes = [
            Recipe("a", "unique", "mot rare.", dish_type=DishType.Dessert),
            Recipe("b", "unique", "mot rare.", dish_type=DishType.Dessert),
            Recipe("c", "autre", "chose differente.", dish_type=DishType.Entree),
            Recipe("d", "autre", "chose differente.", dish_type=DishType.Entree),
        ]
        corpus = Corpus(recipes, LabelKind.DISH_TYPE)
        analyses = analyze_all(corpus)
        stats = build_stats(corpus, corpus, analyses)
        model = train_cosine(stats, 0.0)
        score = score_cosine(model, analyses["a"]).scores["Dessert"]
        assert score == pytest.approx(1.0, abs=1e-12)

    def test_empty_recipe_vector_scores_zero(self, fixture_model):
        corpus, _, model = fixture_model
        ghost = Recipe("ghost", "zzz", "mots totalement inconnus ici")
        vector = score_cosine(model, _analysis(ghost))
        assert all(v == 0.0 for v in vector.scores.values())
        assert vector.top_class() == sorted(vector.scores)[0]

    def test_literal_denominator_matches_printed_formula(self, fixture_model):
        corpus, stats, _ = fixture_model
        model = train_cosine(stats, 0.45, mode=LITERAL)
        config = NormConfig()
        for recipe in corpus:
            tokens = normalize(recipe.title + "\n" + recipe.body, config)
            got = score_cosine(model, _analysis(recipe))
            for cls, v_c in table_vectors(model).items():
                v_r = {}
                for term in set(tokens):
                    g = gini(stats, term)
                    if g is not None and g >= 0.45:
                        w = tokens.count(term) * stats.idf[term] * g
                        if w != 0.0:
                            v_r[term] = w
                shared = sorted(set(v_r) & set(v_c))
                numerator = sum(v_r[t] * v_c[t] for t in shared)
                if numerator == 0.0:
                    assert got.scores[cls] == 0.0
                    continue
                denominator = math.sqrt(sum((v_r[t] * v_c[t]) ** 2 for t in shared))
                assert got.scores[cls] == pytest.approx(numerator / denominator,
                                                        abs=1e-12)

    def test_standard_matches_direct_formula(self, fixture_model):
        corpus, stats, model = fixture_model
        config = NormConfig()
        for recipe in corpus:
            tokens = normalize(recipe.title + "\n" + recipe.body, config)
            got = score_cosine(model, _analysis(recipe))
            v_r = {}
            for term in set(tokens):
                g = gini(stats, term)
                if g is not None and g >= 0.45:
                    w = tokens.count(term) * stats.idf[term] * g
                    if w != 0.0:
                        v_r[term] = w
            norm_r = math.sqrt(sum(w * w for w in v_r.values()))
            for cls, v_c in table_vectors(model).items():
                numerator = sum(v_r[t] * v_c[t] for t in set(v_r) & set(v_c))
                norm_c = math.sqrt(sum(w * w for w in v_c.values()))
                expected = numerator / (norm_r * norm_c) if numerator != 0.0 else 0.0
                assert got.scores[cls] == pytest.approx(expected, abs=1e-12)

    def test_argmax_invariant_under_global_scaling(self, fixture_model):
        corpus, stats, model = fixture_model
        # df_c and df_T times 7.5 leave idf and G as they are, so every class
        # weight df_c*idf*G scales by 7.5; the new model's norms follow
        scaled_stats = dataclasses.replace(
            stats, df_train=[n * 7.5 for n in stats.df_train],
            df_class=[[n * 7.5 for n in column] for column in stats.df_class])
        scaled = train_cosine(scaled_stats, model.gini_threshold)
        assert table_vectors(scaled) == {
            cls: {term: pytest.approx(w * 7.5, rel=1e-15) for term, w in vector.items()}
            for cls, vector in table_vectors(model).items()}
        for recipe in corpus:
            analysis = _analysis(recipe)
            assert (score_cosine(model, analysis).top_class()
                    == score_cosine(scaled, analysis).top_class())


class TestHierarchy:
    def test_default_specs(self):
        t2 = default_hierarchy("T2")
        assert t2.stages[0].grouping == {
            "Dessert": "DESSERT", "Entree": "AUTRE", "PlatPrincipal": "AUTRE"}
        t1 = default_hierarchy("T1")
        assert t1.stages[0].grouping["TresFacile"] == "FACILE"
        assert t1.stages[0].grouping["Difficile"] == "DIFFICILE"
        assert len(t1.stages) == 2

    def test_spec_validation(self):
        with pytest.raises(ConfigError):
            HierarchySpec((HierarchyStage({"a": "X", "b": "X"}),))  # no identity tail
        with pytest.raises(ConfigError):
            HierarchySpec((
                HierarchyStage({"a": "X", "b": "Y", "c": "Y"}),
                HierarchyStage({"a": "a", "b": "b", "c": "c", "d": "d"}),
            ))

    def test_spec_file_roundtrip(self, tmp_path):
        spec = default_hierarchy("T2")
        path = tmp_path / "hier.tsv"
        path.write_text(
            "stage\talpha=0.5\tDessert=DESSERT\tEntree=AUTRE\tPlatPrincipal=AUTRE\n"
            "stage\talpha=0.5\tDessert=Dessert\tEntree=Entree\tPlatPrincipal=PlatPrincipal\n",
            encoding="utf-8")
        reloaded = load_hierarchy_spec(path)
        assert reloaded == spec

    def test_stage_scores_sum_to_one_and_leaves_nonnegative(self, mini6_dish, analyze_all):
        spec = default_hierarchy("T2")
        model = train_hierarchical(spec, _leaf_stats(mini6_dish, analyze_all(mini6_dish)), 0.3)
        for recipe in mini6_dish:
            vector = classify_hierarchical(model, _analysis(recipe))
            assert set(vector.scores) == {"Dessert", "Entree", "PlatPrincipal"}
            assert all(v >= 0.0 for v in vector.scores.values())
            # leaf scores are products of stage distributions, each summing
            # to 1: dessert + autre-subtree total must be 1
            dessert = vector.scores["Dessert"]
            autre = vector.scores["Entree"] + vector.scores["PlatPrincipal"]
            assert dessert + autre == pytest.approx(1.0, abs=1e-9)

    def test_alpha_one_uses_title_models_only(self, mini6_dish, analyze_all):
        spec_title = HierarchySpec(tuple(
            HierarchyStage(s.grouping, 1.0) for s in default_hierarchy("T2").stages))
        model = train_hierarchical(spec_title, _leaf_stats(mini6_dish, analyze_all(mini6_dish)),
                                   0.0)
        # mutate every title+body model: with alpha=1 the output must not change
        import copy
        mutated = copy.deepcopy(model)
        for per_feed in mutated.stage_models.values():
            sub = per_feed[Feed.TITLE_AND_BODY]
            sub.terms = {term: (*entry[:2], *(w * 123.0 for w in entry[2:]))
                         for term, entry in sub.terms.items()}
        for recipe in mini6_dish:
            a = classify_hierarchical(model, _analysis(recipe))
            b = classify_hierarchical(mutated, _analysis(recipe))
            assert a.scores == b.scores

    def test_product_form_of_leaf_scores(self, mini6_dish, analyze_all):
        from recipetext.features import Feed
        from recipetext.fusion import normalize_scores
        spec = default_hierarchy("T2")
        model = train_hierarchical(spec, _leaf_stats(mini6_dish, analyze_all(mini6_dish)), 0.3)
        analysis = _analysis(by_id(mini6_dish, "r3"))
        vector = classify_hierarchical(model, analysis)
        per_feed = model.stage_models[(0, "__root__")]
        title = normalize_scores(score_cosine(per_feed[Feed.TITLE_ONLY], analysis)).scores
        both = normalize_scores(score_cosine(per_feed[Feed.TITLE_AND_BODY], analysis)).scores
        p1 = {g: 0.5 * title[g] + 0.5 * both[g] for g in ("DESSERT", "AUTRE")}
        sub = model.stage_models[(1, "AUTRE")]
        title2 = normalize_scores(score_cosine(sub[Feed.TITLE_ONLY], analysis)).scores
        both2 = normalize_scores(score_cosine(sub[Feed.TITLE_AND_BODY], analysis)).scores
        p2 = {g: 0.5 * title2[g] + 0.5 * both2[g] for g in ("Entree", "PlatPrincipal")}
        assert vector.scores["Dessert"] == pytest.approx(p1["DESSERT"], abs=1e-12)
        assert vector.scores["Entree"] == pytest.approx(p1["AUTRE"] * p2["Entree"],
                                                        abs=1e-12)
        assert vector.scores["PlatPrincipal"] == pytest.approx(
            p1["AUTRE"] * p2["PlatPrincipal"], abs=1e-12)

    def test_hierarchical_roundtrip(self, tmp_path, mini6_dish, analyze_all):
        spec = default_hierarchy("T2")
        config = NormConfig()
        model = train_hierarchical(spec, _leaf_stats(mini6_dish, analyze_all(mini6_dish, config)),
                                   0.3)
        path = tmp_path / "hier.model"
        save_hierarchical(model, path)
        reloaded = load_hierarchical(path)
        for recipe in mini6_dish:
            analysis = analyze(recipe, config)
            assert (classify_hierarchical(model, analysis).scores
                    == classify_hierarchical(reloaded, analysis).scores)

    def test_t1_hierarchy_on_difficulty(self, mini6_difficulty, analyze_all):
        spec = default_hierarchy("T1")
        model = train_hierarchical(
            spec, _leaf_stats(mini6_difficulty, analyze_all(mini6_difficulty)), 0.0)
        recipe = by_id(mini6_difficulty, "r1")
        vector = classify_hierarchical(model, _analysis(recipe))
        assert set(vector.scores) == {
            "TresFacile", "Facile", "MoyennementDifficile", "Difficile"}
