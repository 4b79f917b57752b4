"""The scoring path against its straight-line references, bit for bit.

``normalize`` maps each token-pattern match through a per-config memo,
``score_cosine`` and ``score_ovo`` walk one sorted (term, tf) list per
feed through per-model term tables, and ``with_agglutination`` merges
the joined stream once. Each must give exactly (``==``, not approx)
what the plain computation in ``references.py`` gives.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

import pytest

import references
from recipetext.cli import load_config, main
from recipetext.corpus import Corpus, DishType, LabelKind, Recipe, load_corpus
from recipetext.cosine import (
    LITERAL,
    STANDARD,
    CosineModel,
    classify_hierarchical,
    load_cosine,
    load_hierarchical,
    score_cosine,
    train_cosine,
)
from recipetext.features import build_stats, feed_counts, load_stats
from recipetext.rng import SplitMix64
from recipetext.svm import OvoModel, PairModel, SvmConfig, load_ovo, score_ovo, train_ovo
from recipetext.textnorm import (
    AgglutinationModel,
    Analysis,
    NormConfig,
    analyze,
    load_agglutination_model,
    merge_ngrams,
    normalize,
    with_agglutination,
)

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(scope="module", params=["T1", "T2"])
def golden(request, tmp_path_factory):
    """A golden60 model directory trained with the task's golden config,
    its loaded models, and the analyses of golden60 under that config."""
    task = request.param
    tmp = tmp_path_factory.mktemp(task.lower())
    config_path = FIXTURES / f"golden_config_{task.lower()}.json"
    corpus_path = str(FIXTURES / "golden60.xml")
    models = tmp / "models"
    assert main(["--config", str(config_path), "--train-xml", corpus_path,
                 "--model-dir", str(models), "train"]) == 0
    norm = load_config(config_path).norm_config
    agglut = None
    if norm.agglutinate:
        agglut = load_agglutination_model(models / "agglutination.txt")
    stats = load_stats(models / "stats.tsv")
    hier = load_hierarchical(models / "cosine_hier.model")
    cosine_models = [m for per_feed in hier.stage_models.values() for m in per_feed.values()]
    if task == "T2":
        cosine_models.append(load_cosine(models / "cosine_flat.model", stats))
    analyses = [analyze(r, norm, agglut)
                for r in load_corpus(FIXTURES / "golden60.xml", LabelKind.NONE)]
    return {"stats": stats, "hier": hier, "cosine": cosine_models,
            "svm": load_ovo(models / "svm.model"), "analyses": analyses}


def _random_analyses(vocabulary: list[str], seed: int, count: int = 200) -> list[Analysis]:
    """Recipes drawn from a model vocabulary plus unknown words, with
    repeated terms, empty titles and empty bodies."""
    rng = SplitMix64(seed)
    words = vocabulary + ["inconnu", "zzz"]
    out = []
    for i in range(count):
        title = tuple(words[rng.below(len(words))] for _ in range(rng.below(4)))
        body = tuple(words[rng.below(len(words))] for _ in range(rng.below(40)))
        joined = title + body
        out.append(Analysis(Recipe(f"r{i}", "", ""), joined, len(title), title, body, joined))
    return out


def _with_mode(model: CosineModel, mode: str) -> CosineModel:
    return dataclasses.replace(model, denominator_mode=mode)


# --------------------------------------------------------------------
# cosine
# --------------------------------------------------------------------

def test_gini_and_idf_equal_reference(golden):
    # stats.tsv and every cosine_hier.model block
    for stats in [golden["stats"]] + [m.stats for m in golden["cosine"]]:
        assert (stats.gini, stats.idf) == references.gini_and_idf(stats)


@pytest.mark.parametrize("mode", [STANDARD, LITERAL])
def test_cosine_equals_reference_on_golden_models(golden, mode):
    vocabulary = sorted(golden["stats"].terms)
    analyses = golden["analyses"] + _random_analyses(vocabulary, 17)
    for model in [_with_mode(m, mode) for m in golden["cosine"]]:
        assert references.table_vectors(model) == references.class_vectors(model)
        for analysis in analyses:
            expected = references.score_cosine(model, analysis).scores
            assert score_cosine(model, analysis).scores == expected
            assert score_cosine(model, analysis, feed_counts(analysis)).scores == expected


@pytest.mark.parametrize("mode", [STANDARD, LITERAL])
def test_cosine_with_class_boosts_equals_reference(golden, mode):
    stats = golden["stats"]
    kept = [t for t in sorted(stats.terms) if (references.gini(stats, t) or 0.0) >= 0.45]
    rng = SplitMix64(23)
    boosts = {(kept[rng.below(len(kept))], cls): 1 + rng.below(5)
              for cls in stats.classes for _ in range(6)}
    boosts[(kept[0], stats.classes[0])] = 0
    model = train_cosine(stats, 0.45, mode, class_boosts=boosts)
    assert model.terms != train_cosine(stats, 0.45, mode).terms
    assert references.table_vectors(model) == references.class_vectors(model)
    for analysis in golden["analyses"] + _random_analyses(kept, 29):
        assert score_cosine(model, analysis).scores == references.score_cosine(
            model, analysis).scores


def test_hierarchical_scores_do_not_depend_on_shared_counts(golden):
    for analysis in golden["analyses"]:
        assert (classify_hierarchical(golden["hier"], analysis, feed_counts(analysis)).scores
                == classify_hierarchical(golden["hier"], analysis).scores)


# --------------------------------------------------------------------
# one-vs-one SVM
# --------------------------------------------------------------------

def test_svm_equals_per_pair_margins(golden):
    stats, model = golden["stats"], golden["svm"]
    vocabulary = sorted(stats.terms)
    analyses = golden["analyses"] + _random_analyses(vocabulary, 31)
    # every third term kept, as training and load_ovo keep the weights
    # inside the filter: a filtered-out term must add nothing
    kept = frozenset(vocabulary[::3])
    filtered = OvoModel([PairModel(p.class_pair, {t: w for t, w in p.weights.items() if t in kept},
                                   p.bias) for p in model.pair_models], model.classes, kept)
    for ovo in (model, filtered):
        for analysis in analyses:
            expected = references.score_ovo(ovo, analysis, stats).scores
            assert score_ovo(ovo, analysis, stats).scores == expected
            assert score_ovo(ovo, analysis, stats, feed_counts(analysis)).scores == expected


def test_zero_and_negative_idf_terms_equal_reference():
    # "sel" is in every recipe (idf 0, Gini 0.5 over two balanced
    # classes, so kept); against a smaller full corpus, df > N gives
    # negative idf
    words = {"Dessert": ["sucre", "vanille", "tarte"], "Entree": ["radis", "salade", "terrine"]}
    rng = SplitMix64(7)
    recipes = []
    for i in range(12):
        cls = "Dessert" if i % 2 else "Entree"
        body = " ".join(["sel"] + [words[cls][rng.below(3)] for _ in range(4)]
                        + [words["Dessert" if cls == "Entree" else "Entree"][rng.below(3)]])
        recipes.append(Recipe(f"r{i}", cls.lower(), body, dish_type=DishType[cls]))
    train = Corpus(recipes, LabelKind.DISH_TYPE)
    config = NormConfig()
    analyses = {r.id: analyze(r, config) for r in recipes}
    probes = list(analyses.values()) + _random_analyses(["sel", *words["Dessert"],
                                                         *words["Entree"]], 41)
    for full in (train, Corpus(recipes[:4], LabelKind.DISH_TYPE)):
        stats = build_stats(train, full, analyses)
        assert min(stats.idf.values()) <= 0.0
        ovo = train_ovo(train, analyses, stats, SvmConfig(regularization=0.01, epochs=3))
        for mode in (STANDARD, LITERAL):
            model = train_cosine(stats, 0.45, mode)
            assert any(entry[0] <= 0.0 for entry in model.terms.values())
            for analysis in probes:
                assert score_cosine(model, analysis).scores == references.score_cosine(
                    model, analysis).scores
        for analysis in probes:
            assert score_ovo(ovo, analysis, stats).scores == references.score_ovo(
                ovo, analysis, stats).scores


# --------------------------------------------------------------------
# normalization memo
# --------------------------------------------------------------------

EDGE_TEXTS = [
    "",
    "   \n\t ",
    "!!! ... ???",
    "L'oignon jusqu'à l'aube",
    "qu'l'on'd'eau aujourd'hui l'",       # chained clitics, a trailing apostrophe
    "L’huile d’olive",                    # typographic apostrophes
    "2 cs de sucre, 1 dz d'œufs, 1 cc",   # multi-token and digit expansions
    "3,5 kg 0,75 cl 1000 g 3,5,7 1,2000 999 12cl 40cl",
    "CRÈME ÉPAISSE ΣΟΦΌΣ",          # case folding, NFC composition, final sigma
    "pré-cuire 2 fois à th 6 ; 12h30",
]

TABLES = {
    "builtin": None,
    "expanding": {"cs": "cuillère à soupe", "dz": "12", "cc": "3,5 cuillères",
                  "kg": "kilo gramme", "l'": "le"},
}


@pytest.mark.parametrize("table", list(TABLES))
@pytest.mark.parametrize("number_conversion", [True, False])
def test_memoized_normalize_equals_the_plain_steps(table, number_conversion):
    options = {} if TABLES[table] is None else {"abbrev_table": TABLES[table]}
    config = NormConfig(number_conversion=number_conversion, **options)
    for _ in range(2):  # cold memo, then warm
        for text in EDGE_TEXTS:
            got = normalize(text, config)
            assert got == references.normalize(text, config)
            assert all(token is sys.intern(token) for token in got)
    assert normalize("", config) == []


def test_each_config_keeps_its_own_memo():
    a = NormConfig(abbrev_table={"cs": "cuillère à soupe"})
    b = NormConfig(abbrev_table={"cs": "cuillère à café"})
    plain = NormConfig(abbrev_table={}, number_conversion=False)
    text = "3 cs"
    assert normalize(text, a) == ["trois", "cuillère", "à", "soupe"]
    assert normalize(text, b) == ["trois", "cuillère", "à", "café"]
    assert normalize(text, plain) == ["3", "cs"]
    assert normalize(text, a) == ["trois", "cuillère", "à", "soupe"]
    assert a.piece_memo is a.piece_memo
    assert a.piece_memo is not NormConfig(abbrev_table={"cs": "cuillère à soupe"}).piece_memo


# --------------------------------------------------------------------
# one merge scan for the title, the body and the joined stream
# --------------------------------------------------------------------

AGGLUTINATION = AgglutinationModel({
    ("il", "y"), ("il", "y", "a"), ("y", "a"), ("a", "du"), ("y", "a", "du"),
    ("du", "sel"), ("sel", "poivre"), ("il", "y", "a", "du"),
})
WORDS = ["il", "y", "a", "du", "sel", "poivre", "four"]


@pytest.mark.parametrize("max_n", [2, 3, 4])
def test_joint_split_equals_separate_merges(max_n):
    config = NormConfig(agglutinate=True, agglutination_max_n=max_n)
    rng = SplitMix64(max_n + 40)
    for _ in range(300):
        title = tuple(WORDS[rng.below(len(WORDS))] for _ in range(rng.below(6)))
        body = tuple(WORDS[rng.below(len(WORDS))] for _ in range(rng.below(12)))
        joined = title + body
        plain = Analysis(Recipe("r", "", ""), joined, len(title), title, body, joined)
        merged = with_agglutination(plain, config, AGGLUTINATION)
        assert list(merged.title) == merge_ngrams(title, AGGLUTINATION, max_n)
        assert list(merged.body) == merge_ngrams(body, AGGLUTINATION, max_n)
        assert list(merged.title_body) == merge_ngrams(joined, AGGLUTINATION, max_n)
