"""The scoring path against its straight-line references, bit for bit.

``normalize`` maps each token-pattern match through a per-config memo,
``score_cosine`` and ``score_ovo`` walk one sorted (term, tf) list per
feed through per-model term tables, ``classify_hierarchical`` scores
its contexts as lists along leaf paths built once per model, and
``with_agglutination`` merges the joined stream once. Each must give exactly (``==``, not approx)
what the plain computation in ``references.py`` gives. A loaded
hierarchical model must equal the one ``train`` fitted, so the checks
on loaded models hold for the fitted ones.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

import references
from recipetext import cosine
from recipetext.cli import load_config, main
from recipetext.corpus import Corpus, DishType, LabelKind, Recipe, load_corpus, save_corpus
from recipetext.cosine import (
    LITERAL,
    STANDARD,
    CosineModel,
    HierarchicalCosineModel,
    classify_hierarchical,
    default_hierarchy,
    load_cosine,
    load_hierarchical,
    score_cosine,
    train_cosine,
    train_hierarchical,
)
from recipetext.features import Feed, build_stats, feed_counts, load_stats
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


def _load_hier(models: Path) -> HierarchicalCosineModel:
    """A model directory's hierarchical model, built from its statistics."""
    return load_hierarchical(models / "cosine_hier.model", {
        Feed.TITLE_AND_BODY: load_stats(models / "stats.tsv"),
        Feed.TITLE_ONLY: load_stats(models / "stats_title.tsv")})


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
    hier = _load_hier(models)
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
    # stats.tsv and the statistics of every hierarchical context and feed
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


# --------------------------------------------------------------------
# hierarchical cosine
# --------------------------------------------------------------------

# no term of any model: every context's cosines are 0.0
EMPTY = Analysis(Recipe("empty", "", ""), (), 0, (), (), ())


def _spec_text(*stages: tuple[str, ...]) -> str:
    return "".join("stage\t" + "\t".join(cells) + "\n" for cells in stages)


# name -> (hierarchy spec file, its modelled contexts, each leaf's path length)
SPECS = {
    # TresFacile and Facile pass three modelled contexts, Difficile one:
    # the rest of its path is modelless. Each stage has its own alpha.
    "three_stages": (_spec_text(
        ("alpha=0.3", "Difficile=DIFFICILE", "Facile=FACILE",
         "MoyennementDifficile=FACILE", "TresFacile=FACILE"),
        ("alpha=0.7", "Difficile=Difficile", "Facile=EASY",
         "MoyennementDifficile=MoyennementDifficile", "TresFacile=EASY"),
        ("alpha=0.25", "Difficile=Difficile", "Facile=Facile",
         "MoyennementDifficile=MoyennementDifficile", "TresFacile=TresFacile")),
        [(0, "__root__"), (1, "FACILE"), (2, "EASY")],
        {"Difficile": 1, "Facile": 3, "MoyennementDifficile": 2, "TresFacile": 3}),
    # a context with three groups: its sum has an order, its uniform is 1/3
    "three_groups": (_spec_text(
        ("alpha=0.6", "Difficile=DIFFICILE", "Facile=FACILE",
         "MoyennementDifficile=FACILE", "TresFacile=FACILE"),
        ("alpha=0.4", "Difficile=Difficile", "Facile=Facile",
         "MoyennementDifficile=MoyennementDifficile", "TresFacile=TresFacile")),
        [(0, "__root__"), (1, "FACILE")],
        {"Difficile": 1, "Facile": 2, "MoyennementDifficile": 2, "TresFacile": 2}),
}


def _hier_with_mode(model: HierarchicalCosineModel, mode: str) -> HierarchicalCosineModel:
    return HierarchicalCosineModel(model.spec, {
        key: {feed: _with_mode(sub, mode) for feed, sub in per_feed.items()}
        for key, per_feed in model.stage_models.items()}, model.method_id)


def _assert_hierarchy_equals_reference(model: HierarchicalCosineModel, analyses) -> None:
    for analysis in analyses:
        expected = references.classify_hierarchical(model, analysis).scores
        got = classify_hierarchical(model, analysis, feed_counts(analysis)).scores
        assert got == expected
        assert list(got) == list(expected)


def test_hierarchical_scores_do_not_depend_on_shared_counts(golden):
    for analysis in golden["analyses"]:
        assert (classify_hierarchical(golden["hier"], analysis, feed_counts(analysis)).scores
                == classify_hierarchical(golden["hier"], analysis).scores)


@pytest.mark.parametrize("mode", [STANDARD, LITERAL])
def test_hierarchical_equals_reference_on_golden_models(golden, mode):
    analyses = golden["analyses"] + _random_analyses(sorted(golden["stats"].terms), 37)
    _assert_hierarchy_equals_reference(_hier_with_mode(golden["hier"], mode),
                                       analyses + [EMPTY])


def test_all_zero_contexts_score_uniform_groups(golden):
    model = golden["hier"]
    for per_feed in model.stage_models.values():
        for sub in per_feed.values():
            assert set(score_cosine(sub, EMPTY).scores.values()) == {0.0}
    # each modelled context on a leaf's path gives it 1 / (its group count)
    expected = dict.fromkeys(model.spec.leaves(), 1.0)
    for key, grouping in model.spec.contexts().items():
        if key in model.stage_models:
            for leaf in grouping:
                expected[leaf] *= 1.0 / len(set(grouping.values()))
    assert classify_hierarchical(model, EMPTY).scores == expected
    _assert_hierarchy_equals_reference(model, [EMPTY])


def test_hierarchical_equals_reference_on_a_perfbench_corpus():
    # the t1-plain workload's settings: T1, the CLI's default normalization
    corpus = references.perfbench_corpus(7, 120, LabelKind.DIFFICULTY)
    norm = load_config(None, task="T1").norm_config
    analyses = {r.id: analyze(r, norm) for r in corpus}
    stats = {feed: build_stats(corpus, corpus, analyses, feed)
             for feed in (Feed.TITLE_ONLY, Feed.TITLE_AND_BODY)}
    model = train_hierarchical(default_hierarchy("T1"), stats, 0.45)
    _assert_hierarchy_equals_reference(model, analyses.values())


@pytest.mark.parametrize("spec", list(SPECS))
@pytest.mark.parametrize("mode", [STANDARD, LITERAL])
def test_spec_file_hierarchy_equals_reference(tmp_path, spec, mode):
    text, contexts, path_lengths = SPECS[spec]
    spec_path = tmp_path / "hierarchy.tsv"
    spec_path.write_text(text, encoding="utf-8")
    models = tmp_path / "models"
    config = json.loads((FIXTURES / "golden_config_t1.json").read_text(encoding="utf-8"))
    config["cosine"]["denominator_mode"] = mode
    config.update(hierarchy_spec=str(spec_path), train_xml=str(FIXTURES / "golden60.xml"),
                  model_dir=str(models))
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["--config", str(config_path), "train"]) == 0
    model = _load_hier(models)
    assert {sub.denominator_mode for per_feed in model.stage_models.values()
            for sub in per_feed.values()} == {mode}
    assert sorted(model.stage_models) == contexts
    assert {leaf: len(path) for leaf, path in model.paths.items()} == path_lengths
    norm = load_config(FIXTURES / "golden_config_t1.json").norm_config
    agglut = load_agglutination_model(models / "agglutination.txt")
    analyses = [analyze(r, norm, agglut)
                for r in load_corpus(FIXTURES / "golden60.xml", LabelKind.NONE)]
    _assert_hierarchy_equals_reference(model, analyses + [EMPTY])


def _training(case: str, tmp_path: Path) -> list[str]:
    """The arguments of ``train`` for each case of the loaded-equals-fitted test."""
    config = json.loads((FIXTURES / f"golden_config_{case[:2].lower()}.json")
                        .read_text(encoding="utf-8"))
    corpus = FIXTURES / "golden60.xml"
    if case == "T1-spec":
        spec_path = tmp_path / "hierarchy.tsv"
        spec_path.write_text(SPECS["three_stages"][0], encoding="utf-8")
        config["hierarchy_spec"] = str(spec_path)
    elif case == "T2-perfbench":
        corpus = tmp_path / "train.xml"
        save_corpus(references.perfbench_corpus(7, 150, LabelKind.DISH_TYPE), corpus)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    return ["--config", str(config_path), "--train-xml", str(corpus),
            "--model-dir", str(tmp_path / "models"), "train"]


@pytest.mark.parametrize("case", ["T1", "T2", "T1-spec", "T2-perfbench"])
def test_loaded_hierarchy_equals_the_fitted_one(tmp_path, monkeypatch, case):
    fitted = []
    fit = cosine.train_hierarchical
    with monkeypatch.context() as patch:
        patch.setattr(cosine, "train_hierarchical",
                      lambda *args: fitted.append(fit(*args)) or fitted[-1])
        assert main(_training(case, tmp_path)) == 0
    [model] = fitted
    loaded = _load_hier(tmp_path / "models")
    assert (loaded.spec, loaded.method_id) == (model.spec, model.method_id)
    assert list(loaded.stage_models) == list(model.stage_models)
    for key, per_feed in model.stage_models.items():
        assert list(loaded.stage_models[key]) == list(per_feed)
        for feed, sub in per_feed.items():
            # the dataclass fields (stats, classes, threshold, mode...) and the table
            assert loaded.stage_models[key][feed] == sub
            assert loaded.stage_models[key][feed].terms == sub.terms


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
