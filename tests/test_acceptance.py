"""Acceptance suite: one test per release criterion, each printing a
PASS line when its assertions hold.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import math
import time
from pathlib import Path

import pytest

from oracles import (
    adaboost_oracle,
    ap_oracle,
    electre_oracle,
    linear_oracle,
    map_oracle,
    mean_distance_oracle,
    prf_oracle,
)
from references import generic_posteriors, gini, table_vectors, term_counts

from recipetext.boost import (
    BoostConfig,
    margins,
    recipe_boost_features,
    score_boost,
    train_boost,
)
from recipetext.corpus import Corpus, DishType, LabelKind, Recipe, load_corpus
from recipetext.cosine import score_cosine, train_cosine
from recipetext.evaluation import (
    QrelSet,
    average_precision,
    mean_average_precision,
    report_from_pairs,
)
from recipetext.extraction import build_lexicon, extract, extract_candidates
from recipetext.features import build_stats, mutual_information_select, tfidf_vector
from recipetext.fusion import ElectreParams, fuse_electre, normalize_scores
from recipetext.rng import SplitMix64
from recipetext.scores import ScoreVector
from recipetext.svm import SvmConfig, save_ovo, train_ovo
from recipetext.textnorm import NormConfig, analyze, normalize

FIXTURES = Path(__file__).parent / "fixtures"


def _done(n: int, label: str):
    print(f"ACCEPTANCE {n} PASS: {label}")


def test_criterion_1_fusion_oracle_equivalence():
    """1000 random instances: ELECTRE decision and kernel match the
    brute-force reading of the concordance/veto/kernel definitions."""
    rng = SplitMix64(10_001)
    started = time.perf_counter()
    for _ in range(1000):
        n_classes = 3 + rng.below(2)
        n_methods = 3 + rng.below(2)
        classes = [f"c{i}" for i in range(n_classes)]
        methods = [f"m{i}" for i in range(n_methods)]
        vectors = [
            normalize_scores(ScoreVector("r", m, {c: rng.uniform() for c in classes}))
            for m in methods
        ]
        sc = rng.uniform()
        veto = rng.uniform()
        params = ElectreParams.uniform(methods, sc, veto)
        decision, relation = fuse_electre(vectors, params)

        table = {v.method_id: v.scores for v in vectors}
        edges, kernel, oracle_decision = electre_oracle(
            table, {m: 1.0 for m in methods}, sc, {m: veto for m in methods})
        assert relation.edges == edges
        assert relation.kernel == kernel
        expected = oracle_decision if oracle_decision is not None else linear_oracle(table)
        assert decision == expected
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"fusion oracle sweep took {elapsed:.2f}s"
    _done(1, f"fusion oracle equivalence on 1000 instances in {elapsed:.2f}s")


def test_criterion_2_normalization_invariants():
    """1000 random raw vectors: output sums to 1 within 1e-12 and is
    exactly invariant under positive scaling of non-negative inputs
    (exactness is assertable for power-of-two factors, which scale
    IEEE doubles without rounding; other factors are checked to 1e-12)."""
    rng = SplitMix64(10_002)
    for trial in range(1000):
        n_classes = 2 + rng.below(3)
        classes = [f"c{i}" for i in range(n_classes)]
        negative = trial % 4 == 0
        raw = {c: rng.uniform() * 4 - (2 if negative else 0) for c in classes}
        out = normalize_scores(ScoreVector("r", "m", raw)).scores
        assert abs(sum(out.values()) - 1.0) <= 1e-12
        if not negative:
            for k in (0.25, 2.0, 64.0, 2.0 ** 40):
                scaled = normalize_scores(
                    ScoreVector("r", "m", {c: k * v for c, v in raw.items()})).scores
                assert scaled == out
            arbitrary = 3.7
            close = normalize_scores(
                ScoreVector("r", "m", {c: arbitrary * v for c, v in raw.items()})).scores
            for c in classes:
                assert close[c] == pytest.approx(out[c], abs=1e-12)
    _done(2, "normalization sums to 1 and is scaling-invariant")


def test_criterion_3_boosting_properties():
    """40-doc fixture over 50 rounds: the Z product never increases,
    every weak hypothesis beats chance, a separable toy is solved by
    round 3, and the whole train+score path matches the straight-line
    oracle to 1e-12."""
    corpus = load_corpus(FIXTURES / "boost40.xml", LabelKind.DIFFICULTY)
    config = NormConfig()
    feats = {r.id: recipe_boost_features(
                 analyze(r, config),
                 [normalize(item, config) for item in r.gold_ingredients or []])
             for r in corpus}
    boost_config = BoostConfig(max_rounds=50, smoothing_epsilon=1e-3)
    model = train_boost(corpus, None, feats, boost_config)

    product = 1.0
    for info in model.history:
        assert info.weighted_error < 0.5
        assert info.z <= 1.0 + 1e-12
        next_product = product * info.z
        assert next_product <= product + 1e-12
        product = next_product

    # separable toy: one discriminating token
    toy = []
    for i in range(6):
        toy.append(Recipe(f"a{i}", "plat magique", f"etape numero {i}.",
                          dish_type=DishType.Dessert))
        toy.append(Recipe(f"b{i}", "plat banal", f"etape numero {i}.",
                          dish_type=DishType.Entree))
    toy_corpus = Corpus(toy, LabelKind.DISH_TYPE)
    toy_feats = {r.id: recipe_boost_features(analyze(r, config), []) for r in toy_corpus}
    toy_model = train_boost(toy_corpus, None, toy_feats, BoostConfig(max_rounds=3))
    toy_labels = toy_corpus.labels()
    wrong = sum(1 for r in toy_corpus
                if score_boost(toy_model, toy_feats[r.id]).top_class() != toy_labels[r.id])
    assert wrong == 0

    # full oracle equivalence
    from recipetext.boost import NUMERIC_FIELDS, TEXT_FIELDS
    ids = [r.id for r in corpus.recipes]
    doc_features = [{"text": dict(feats[rid].text), "numeric": dict(feats[rid].numeric)}
                    for rid in ids]
    candidates = []
    for field_idx, (field_name, _n) in enumerate(TEXT_FIELDS):
        df = {}
        for rid in ids:
            for gram in feats[rid].text[field_name]:
                df[gram] = df.get(gram, 0) + 1
        for gram in sorted(df):
            if df[gram] >= 2:
                candidates.append({"key": (field_idx, gram), "kind": "text",
                                   "field": field_name, "ngram": gram})
    base = len(TEXT_FIELDS)
    for offset, field_name in enumerate(NUMERIC_FIELDS):
        values = sorted({feats[rid].numeric[field_name] for rid in ids})
        for lo, hi in zip(values, values[1:]):
            candidates.append({"key": (base + offset, (lo + hi) / 2.0),
                               "kind": "numeric", "field": field_name,
                               "theta": (lo + hi) / 2.0})
    labels = [corpus.labels()[rid] for rid in ids]
    picked, z_list, err_list, oracle_margins = adaboost_oracle(
        doc_features, labels, model.classes, candidates, 50, 1e-3)
    assert len(picked) == len(model.rounds)
    for hyp, (kind, field, gram, theta, vp, va) in zip(model.rounds, picked):
        assert (hyp.kind, hyp.field, hyp.ngram, hyp.threshold) == (kind, field, gram, theta)
        for ci, cls in enumerate(model.classes):
            assert abs(hyp.votes_present[cls] - vp[ci]) <= 1e-12
            assert abs(hyp.votes_absent[cls] - va[ci]) <= 1e-12
    for info, z, err in zip(model.history, z_list, err_list):
        assert abs(info.z - z) <= 1e-12
        assert abs(info.weighted_error - err) <= 1e-12
    for i, rid in enumerate(ids):
        got = margins(model, feats[rid])
        scores = score_boost(model, feats[rid]).scores
        for ci, cls in enumerate(model.classes):
            assert abs(got[cls] - oracle_margins[i][ci]) <= 1e-12
            m = oracle_margins[i][ci]
            ref = (1.0 / (1.0 + math.exp(-2.0 * m)) if m >= 0
                   else math.exp(2.0 * m) / (1.0 + math.exp(2.0 * m)))
            assert abs(scores[cls] - ref) <= 1e-12
    _done(3, f"boosting invariants + oracle match over {len(model.rounds)} rounds")


def test_criterion_4_cosine_gini_correctness():
    """Standard-mode scores in [0,1]; fixture Gini equals the brute
    force to 1e-12; class-vector support shrinks monotonically over a
    0.0 -> 1.0 threshold sweep."""
    for fixture, kind in (("mini6.xml", LabelKind.DISH_TYPE),
                          ("boost40.xml", LabelKind.DIFFICULTY)):
        corpus = load_corpus(FIXTURES / fixture, kind)
        config = NormConfig()
        analyses = {r.id: analyze(r, config) for r in corpus}
        stats = build_stats(corpus, corpus, analyses)

        doc_terms = {r.id: set(normalize(r.title + "\n" + r.body, config))
                     for r in corpus}
        labels = corpus.labels()
        classes = sorted(set(labels.values()))
        for term, info in term_counts(stats).items():
            if info.df_train == 0:
                assert gini(stats, term) is None
                continue
            containing = [rid for rid in doc_terms if term in doc_terms[rid]]
            brute = sum(
                (sum(1 for rid in containing if labels[rid] == c) / len(containing)) ** 2
                for c in classes)
            assert abs(gini(stats, term) - brute) <= 1e-12

        model = train_cosine(stats, 0.45)
        for recipe in corpus:
            for value in score_cosine(model, analyses[recipe.id]).scores.values():
                assert -1e-12 <= value <= 1.0 + 1e-12

        previous = None
        for step in range(0, 21):
            threshold = step * 0.05
            support = {cls: set(v) for cls, v in
                       table_vectors(train_cosine(stats, min(threshold, 1.0))).items()}
            if previous is not None:
                for cls in support:
                    assert support[cls] <= previous[cls]
            previous = support
    _done(4, "cosine score range, Gini brute force, threshold monotonicity")


def _svm_synthetic_corpus(n_terms_per_doc=200, n_docs_per_class=30):
    """Two classes, ~12 000 distinct terms (mostly document-unique)."""
    recipes = []
    term_id = 0
    for ci, cls in enumerate(("Dessert", "Entree")):
        marker = f"marker{ci}"
        for d in range(n_docs_per_class):
            words = [marker] * 4
            for _ in range(n_terms_per_doc):
                words.append(f"w{term_id:05d}")
                term_id += 1
            recipes.append(Recipe(f"{cls[:1]}{d:03d}", f"titre {marker}",
                                  " ".join(words) + ".", dish_type=DishType[cls]))
    return Corpus(recipes, LabelKind.DISH_TYPE)


def test_criterion_5_svm_determinism_antisymmetry_filter():
    """Same seed -> byte-identical models; pair-margin antisymmetry to
    1e-12 on 100 random recipes; with the MI filter at k=10 000 over a
    ~12 000-term vocabulary every nonzero weight indexes a filtered term."""
    import tempfile

    from recipetext.rng import mix64
    from references import margin
    from recipetext.svm import train_pair

    corpus = _svm_synthetic_corpus()
    norm = NormConfig(number_conversion=False)
    analyses = {r.id: analyze(r, norm) for r in corpus}
    stats = build_stats(corpus, corpus, analyses)
    vocab_size = sum(1 for t in term_counts(stats).values() if t.df_train > 0)
    assert vocab_size >= 12_000

    selected = frozenset(mutual_information_select(stats, 10_000))
    assert len(selected) == 10_000
    config = SvmConfig(regularization=1e-2, epochs=5, seed=11)
    model = train_ovo(corpus, analyses, stats, config, selected)
    for pair_model in model.pair_models:
        assert pair_model.weights
        assert set(pair_model.weights) <= selected

    with tempfile.TemporaryDirectory() as tmp:
        p1, p2 = Path(tmp) / "a.model", Path(tmp) / "b.model"
        save_ovo(model, p1)
        save_ovo(train_ovo(corpus, analyses, stats, config, selected), p2)
        assert p1.read_bytes() == p2.read_bytes()

    # antisymmetry: mirrored pair training negates margins on random recipes
    labels = corpus.labels()
    docs_fwd, docs_rev = [], []
    for r in corpus:
        vector = {t: w for t, w in tfidf_vector(analyses[r.id], stats).items()
                  if t in selected}
        y = +1 if labels[r.id] == "Dessert" else -1
        docs_fwd.append((r.id, vector, y))
        docs_rev.append((r.id, vector, -y))
    seed = mix64(config.seed)
    fwd = train_pair(docs_fwd, config, ("Dessert", "Entree"), seed)
    rev = train_pair(docs_rev, config, ("Entree", "Dessert"), seed)
    rng = SplitMix64(31)
    vocab = sorted(selected)
    for _ in range(100):
        probe = {vocab[rng.below(len(vocab))]: rng.uniform() * 5
                 for _ in range(1 + rng.below(30))}
        assert abs(margin(fwd, probe) + margin(rev, probe)) <= 1e-12
    _done(5, f"svm determinism + antisymmetry + MI filter over {vocab_size} terms")


def test_criterion_6_metrics_oracle():
    """micro/macro F, mean distance and MAP match brute force to 1e-12
    on 200 random 20-recipe instances; AP anchors hold."""
    rng = SplitMix64(10_006)
    labels = ["A", "B", "C", "D"]
    ranks = {c: i for i, c in enumerate(labels)}
    pool = [f"ing{j}" for j in range(15)]
    for _ in range(200):
        gold = {f"r{i}": labels[rng.below(4)] for i in range(20)}
        predicted = {rid: labels[rng.below(4)] for rid in gold}
        report = report_from_pairs(gold, predicted, ranks)
        micro, macro, _ = prf_oracle(gold, predicted)
        assert abs(report.micro_f - micro) <= 1e-12
        assert abs(report.macro_f - macro) <= 1e-12
        assert abs(report.mean_distance
                   - mean_distance_oracle(gold, predicted, ranks)) <= 1e-12

        qrels = {}
        run = {}
        for i in range(20):
            rid = f"r{i}"
            qrels[rid] = {pool[rng.below(15)] for _ in range(1 + rng.below(4))}
            ranked = list(pool)
            rng.shuffle(ranked)
            run[rid] = ranked[:rng.below(12)]
        got = mean_average_precision(run, QrelSet(qrels))
        assert abs(got - map_oracle(run, qrels)) <= 1e-12

    assert average_precision(["a", "b"], {"a", "b"}) == 1.0
    assert average_precision(["x", "a"], {"a", "b"}) == 0.25
    assert ap_oracle(["x", "a"], {"a", "b"}) == 0.25
    _done(6, "metrics match brute force on 200 random instances")


def test_criterion_7_extraction_closed_world():
    """Fixture extraction stays inside lexicon entries + specialization
    tables; the no-lexicon-hit sentence yields an empty list; generic
    posteriors sum to 1."""
    config = NormConfig()
    for fixture, kind in (("mini6.xml", LabelKind.DISH_TYPE),
                          ("golden60.xml", LabelKind.DISH_TYPE)):
        corpus = load_corpus(FIXTURES / fixture, kind)
        analyses = {r.id: analyze(r, config) for r in corpus}
        lexicon = build_lexicon(corpus, analyses, config)
        specifics = {x for table in lexicon.specializations.values() for x in table}
        for recipe in corpus:
            for item in extract(analyses[recipe.id], lexicon).ingredients():
                assert item in lexicon.entries or item in specifics

    mini6 = load_corpus(FIXTURES / "mini6.xml", LabelKind.DISH_TYPE)
    lexicon = build_lexicon(mini6, {r.id: analyze(r, config) for r in mini6}, config)
    ghost = Recipe("ghost", "Mystère", "mélanger énergiquement tous les ingrédients")
    candidates, generics = extract_candidates(analyze(ghost, config), lexicon)
    assert candidates.ingredients() == []
    assert generics == frozenset()

    probe = Recipe("p", "Plat", "saisir la viande, râper le fromage sur les lardons.")
    cands, found = extract_candidates(analyze(probe, config), lexicon)
    checked = 0
    for generic in found:
        posteriors = generic_posteriors(generic, cands, lexicon)
        if posteriors:
            assert abs(sum(posteriors.values()) - 1.0) <= 1e-12
            checked += 1
    assert checked >= 1
    _done(7, "extraction closed world, empty no-hit list, posterior mass 1")


def test_criterion_8_end_to_end_golden(tmp_path):
    """The --runs paper pipeline on the committed 60-recipe corpus
    reproduces the committed golden files byte for byte, in under 60 s."""
    from recipetext.cli import main

    started = time.perf_counter()
    corpus = str(FIXTURES / "golden60.xml")
    compared = 0
    for task in ("T1", "T2"):
        golden_dir = FIXTURES / "golden" / task.lower()
        config = str(FIXTURES / f"golden_config_{task.lower()}.json")
        model_dir = tmp_path / task / "models"
        run_dir = tmp_path / task / "runs"
        base = ["--config", config, "--train-xml", corpus, "--test-xml", corpus,
                "--model-dir", str(model_dir), "--run-dir", str(run_dir)]
        assert main(base + ["train"]) == 0
        assert main(base + ["classify"]) == 0
        assert main(base + ["fuse", "--runs", "paper"]) == 0
        if task == "T2":
            assert main(base + ["extract"]) == 0

        for golden in sorted(golden_dir.iterdir()):
            produced = (model_dir if golden.name == "manifest.json"
                        else run_dir) / golden.name
            assert produced.exists(), f"missing {task} output {golden.name}"
            assert produced.read_bytes() == golden.read_bytes(), \
                f"{task}/{golden.name} deviates from the committed golden"
            compared += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0, f"end-to-end run took {elapsed:.1f}s"

    # the golden runs stay meaningful: fused decisions beat a majority baseline
    report = json.loads((FIXTURES / "golden" / "t2" / "manifest.json").read_text())
    assert report["task"] == "T2"
    _done(8, f"end-to-end golden: {compared} files byte-identical in {elapsed:.1f}s")
