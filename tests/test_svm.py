import pytest

from oracles import sgd_pair_oracle
from references import margin

from recipetext.corpus import Corpus, DishType, LabelKind, Recipe
from recipetext.errors import DataError
from recipetext.features import build_stats, mutual_information_select, tfidf_vector
from recipetext.rng import SplitMix64, mix64
from recipetext.svm import (
    SvmConfig,
    load_ovo,
    save_ovo,
    score_ovo,
    train_ovo,
    train_pair,
)
from recipetext.textnorm import NormConfig, analyze

DISHES = ["Dessert", "Entree", "PlatPrincipal"]

WORD_POOLS = {
    "Dessert": ["chocolat", "sucre", "vanille", "caramel", "biscuit", "tarte"],
    "Entree": ["salade", "tomate", "concombre", "radis", "vinaigrette", "terrine"],
    "PlatPrincipal": ["poulet", "boeuf", "riz", "gratin", "sauce", "lardons"],
}
SHARED = ["sel", "poivre", "huile", "beurre", "eau", "cuire", "servir"]


def _analysis(recipe):
    return analyze(recipe, NormConfig())


def _analyses(corpus):
    return {r.id: _analysis(r) for r in corpus}


def synthetic_corpus(n_per_class: int, seed: int, classes=DISHES) -> Corpus:
    rng = SplitMix64(seed)
    recipes = []
    idx = 0
    for cls in classes:
        pool = WORD_POOLS[cls]
        for _ in range(n_per_class):
            words = []
            for _ in range(6 + rng.below(6)):
                source = pool if rng.uniform() < 0.7 else SHARED
                words.append(source[rng.below(len(source))])
            title = " ".join(pool[rng.below(len(pool))] for _ in range(2))
            recipes.append(Recipe(f"s{idx:03d}", title, " ".join(words) + ".",
                                  dish_type=DishType[cls]))
            idx += 1
    return Corpus(recipes, LabelKind.DISH_TYPE)


@pytest.fixture(scope="module")
def trained():
    corpus = synthetic_corpus(8, seed=42)
    analyses = _analyses(corpus)
    stats = build_stats(corpus, corpus, analyses)
    config = SvmConfig(regularization=1e-2, epochs=10, seed=7)
    return corpus, stats, config, train_ovo(corpus, analyses, stats, config)


class TestTrainOvo:
    def test_pair_count(self, trained):
        _, _, _, model = trained
        assert len(model.pair_models) == 3
        assert [m.class_pair for m in model.pair_models] == [
            ("Dessert", "Entree"), ("Dessert", "PlatPrincipal"),
            ("Entree", "PlatPrincipal")]

    def test_separable_toy_reaches_perfect_accuracy(self):
        recipes = []
        for i in range(10):
            recipes.append(Recipe(f"a{i}", "gateau", "chocolat sucre farine.",
                                  dish_type=DishType.Dessert))
            recipes.append(Recipe(f"b{i}", "salade", "tomate huile vinaigre.",
                                  dish_type=DishType.Entree))
        corpus = Corpus(recipes, LabelKind.DISH_TYPE)
        analyses = _analyses(corpus)
        stats = build_stats(corpus, corpus, analyses)
        model = train_ovo(corpus, analyses, stats,
                          SvmConfig(regularization=1e-2, epochs=10, seed=1))
        correct = sum(
            1 for r in corpus
            if score_ovo(model, analyses[r.id], stats).top_class() == r.label(LabelKind.DISH_TYPE))
        assert correct == len(corpus)

    def test_determinism_bytewise(self, tmp_path, trained):
        corpus, stats, config, model = trained
        again = train_ovo(corpus, _analyses(corpus), stats, config)
        p1, p2 = tmp_path / "m1.model", tmp_path / "m2.model"
        save_ovo(model, p1)
        save_ovo(again, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_single_class_rejected(self):
        recipes = [Recipe(f"x{i}", "t", "corps.", dish_type=DishType.Dessert)
                   for i in range(4)]
        corpus = Corpus(recipes, LabelKind.DISH_TYPE)
        analyses = _analyses(corpus)
        stats = build_stats(corpus, corpus, analyses)
        with pytest.raises(DataError):
            train_ovo(corpus, analyses, stats, SvmConfig())

    def test_matches_independent_sgd_oracle(self, trained):
        corpus, stats, config, model = trained
        labels = corpus.labels()
        vectors = {r.id: tfidf_vector(_analysis(r), stats) for r in corpus}
        pair_idx = 0
        for i, first in enumerate(DISHES):
            for second in DISHES[i + 1:]:
                docs = []
                for r in corpus:
                    if labels[r.id] == first:
                        docs.append((r.id, vectors[r.id], +1))
                    elif labels[r.id] == second:
                        docs.append((r.id, vectors[r.id], -1))
                weights, bias = sgd_pair_oracle(
                    docs, config.regularization, config.epochs,
                    mix64(config.seed + pair_idx))
                got = model.pair_models[pair_idx]
                assert got.class_pair == (first, second)
                assert got.bias == pytest.approx(bias, abs=1e-12)
                assert set(got.weights) == set(weights)
                for term, w in weights.items():
                    assert got.weights[term] == pytest.approx(w, abs=1e-12)
                # decisions agree on every document
                for rid, vector, _y in docs:
                    oracle_margin = sum(
                        weights.get(t, 0.0) * vector[t] for t in sorted(vector)) + bias
                    assert margin(got, vector) == pytest.approx(oracle_margin, abs=1e-12)
                pair_idx += 1


class TestScoreOvo:
    def test_two_class_antisymmetry(self):
        corpus = synthetic_corpus(6, seed=3, classes=["Dessert", "Entree"])
        analyses = _analyses(corpus)
        stats = build_stats(corpus, corpus, analyses)
        model = train_ovo(corpus, analyses, stats,
                          SvmConfig(regularization=1e-2, epochs=5, seed=2))
        for r in corpus:
            scores = score_ovo(model, analyses[r.id], stats).scores
            assert scores["Dessert"] == -scores["Entree"]

    def test_mirrored_pair_training_negates_margins(self, trained):
        corpus, stats, config, _ = trained
        labels = corpus.labels()
        docs_fwd, docs_rev = [], []
        for r in corpus:
            vector = tfidf_vector(_analysis(r), stats)
            if labels[r.id] == "Dessert":
                docs_fwd.append((r.id, vector, +1))
                docs_rev.append((r.id, vector, -1))
            elif labels[r.id] == "Entree":
                docs_fwd.append((r.id, vector, -1))
                docs_rev.append((r.id, vector, +1))
        seed = mix64(config.seed)
        fwd = train_pair(docs_fwd, config, ("Dessert", "Entree"), seed)
        rev = train_pair(docs_rev, config, ("Entree", "Dessert"), seed)
        rng = SplitMix64(99)
        vocab = sorted(stats.terms)
        for _ in range(100):
            probe = {vocab[rng.below(len(vocab))]: rng.uniform() * 3
                     for _ in range(1 + rng.below(8))}
            m_fwd = margin(fwd, probe)
            m_rev = margin(rev, probe)
            assert abs(m_fwd + m_rev) <= 1e-12

    def test_empty_vector_scores_bias_sums(self, trained):
        corpus, stats, _, model = trained
        ghost = Recipe("ghost", "zzz", "inconnu absent.")
        scores = score_ovo(model, _analysis(ghost), stats).scores
        expected = {c: 0.0 for c in DISHES}
        for pair_model in model.pair_models:
            first, second = pair_model.class_pair
            expected[first] += pair_model.bias
            expected[second] -= pair_model.bias
        # ghost words share "zzz" with nothing: tf-idf vector is empty
        assert tfidf_vector(_analysis(ghost), stats) == {}
        for cls in DISHES:
            assert scores[cls] == pytest.approx(expected[cls], abs=1e-15)

    def test_vocab_filter_limits_weight_support(self):
        corpus = synthetic_corpus(6, seed=9)
        analyses = _analyses(corpus)
        stats = build_stats(corpus, corpus, analyses)
        selected = frozenset(mutual_information_select(stats, 10))
        model = train_ovo(corpus, analyses, stats, SvmConfig(epochs=5, seed=4), selected)
        for pair_model in model.pair_models:
            assert set(pair_model.weights) <= selected

    def test_scaling_counts_preserves_signs_for_bias_free_models(self, trained):
        # with bias zeroed, scaling a recipe's raw weights scales the
        # margin linearly, so no pair decision can flip
        corpus, stats, _, model = trained
        import copy
        bias_free = copy.deepcopy(model)
        for pair_model in bias_free.pair_models:
            pair_model.bias = 0.0
        rng = SplitMix64(13)
        vocab = sorted(stats.terms)
        for _ in range(50):
            probe = {vocab[rng.below(len(vocab))]: rng.uniform() * 2
                     for _ in range(1 + rng.below(10))}
            k = 0.125 * (1 + rng.below(64))
            scaled = {t: k * w for t, w in probe.items()}
            for pair_model in bias_free.pair_models:
                a = margin(pair_model, probe)
                b = margin(pair_model, scaled)
                assert (a > 0) == (b > 0) or abs(a) < 1e-12


class TestSerialization:
    def test_roundtrip(self, tmp_path, trained):
        corpus, stats, _, model = trained
        path = tmp_path / "svm.model"
        save_ovo(model, path)
        reloaded = load_ovo(path)
        assert reloaded.classes == model.classes
        for a, b in zip(model.pair_models, reloaded.pair_models):
            assert a.class_pair == b.class_pair
            assert a.bias == b.bias
            assert a.weights == b.weights
        for r in corpus:
            analysis = _analysis(r)
            assert (score_ovo(model, analysis, stats).scores
                    == score_ovo(reloaded, analysis, stats).scores)
