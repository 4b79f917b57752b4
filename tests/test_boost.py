import math
from dataclasses import replace
from itertools import accumulate

import pytest

from oracles import adaboost_oracle
from references import perfbench_corpus

import recipetext.boost as boost_mod
from recipetext.boost import (
    _BOUND_SLACK,
    NUMERIC_FIELDS,
    TEXT_FIELDS,
    BoostConfig,
    _bound_margin,
    _bound_terms,
    _candidates,
    _class_split,
    _closed_form,
    _numeric_sweeps,
    _swept_closed_forms,
    _votes,
    load_boost,
    margins,
    recipe_boost_features,
    save_boost,
    score_boost,
    train_boost,
)
from recipetext.corpus import Corpus, DishType, LabelKind, Recipe, load_corpus
from recipetext.errors import DataError, ModelMismatchError
from recipetext.rng import SplitMix64
from recipetext.summation import ordered_sum
from recipetext.textnorm import NormConfig, analyze, normalize


def _features_for(corpus, config=None):
    config = config or NormConfig()
    return {r.id: recipe_boost_features(
                analyze(r, config),
                [normalize(item, config) for item in r.gold_ingredients or []])
            for r in corpus}


def _oracle_inputs(corpus, feats):
    """Rebuild the candidate inventory from its documented definition."""
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
            theta = (lo + hi) / 2.0
            candidates.append({"key": (base + offset, theta), "kind": "numeric",
                               "field": field_name, "theta": theta})
    return ids, doc_features, candidates


def _toy_separable():
    recipes = []
    for i in range(5):
        recipes.append(Recipe(f"a{i}", "plat magique", f"preparation numero {i}.",
                              dish_type=DishType.Dessert))
        recipes.append(Recipe(f"b{i}", "plat banal", f"preparation numero {i}.",
                              dish_type=DishType.Entree))
    return Corpus(recipes, LabelKind.DISH_TYPE)


class TestTrainBoost:
    def test_separable_toy_errorless_after_round_one(self):
        corpus = _toy_separable()
        feats = _features_for(corpus)
        model = train_boost(corpus, None, feats, BoostConfig(max_rounds=1))
        labels = corpus.labels()
        wrong = sum(1 for r in corpus
                    if score_boost(model, feats[r.id]).top_class() != labels[r.id])
        assert wrong == 0

    def test_every_round_beats_chance(self, boost40):
        feats = _features_for(boost40)
        model = train_boost(boost40, None, feats, BoostConfig(max_rounds=20))
        assert model.history
        for info in model.history:
            assert info.weighted_error < 0.5

    def test_z_bound_non_increasing(self, boost40):
        feats = _features_for(boost40)
        model = train_boost(boost40, None, feats, BoostConfig(max_rounds=20))
        product = 1.0
        previous = 1.0
        for info in model.history:
            assert info.z <= 1.0 + 1e-12
            product *= info.z
            assert product <= previous + 1e-12
            previous = product

    def test_matches_oracle_end_to_end(self, boost40):
        feats = _features_for(boost40)
        config = BoostConfig(max_rounds=12, smoothing_epsilon=1e-3)
        model = train_boost(boost40, None, feats, config)
        ids, doc_features, candidates = _oracle_inputs(boost40, feats)
        labels = [boost40.labels()[rid] for rid in ids]
        picked, z_list, err_list, oracle_margins = adaboost_oracle(
            doc_features, labels, model.classes, candidates, 12, 1e-3)

        assert len(model.rounds) == len(picked)
        for hyp, (kind, field, gram, theta, vp, va) in zip(model.rounds, picked):
            assert (hyp.kind, hyp.field) == (kind, field)
            assert hyp.ngram == gram
            if theta is None:
                assert hyp.threshold is None
            else:
                assert hyp.threshold == pytest.approx(theta, abs=0)
            for ci, cls in enumerate(model.classes):
                assert hyp.votes_present[cls] == pytest.approx(vp[ci], abs=1e-12)
                assert hyp.votes_absent[cls] == pytest.approx(va[ci], abs=1e-12)
        for info, z in zip(model.history, z_list):
            assert info.z == pytest.approx(z, abs=1e-12)
        for info, err in zip(model.history, err_list):
            assert info.weighted_error == pytest.approx(err, abs=1e-12)

        for i, rid in enumerate(ids):
            got = margins(model, feats[rid])
            scores = score_boost(model, feats[rid]).scores
            for ci, cls in enumerate(model.classes):
                assert got[cls] == pytest.approx(oracle_margins[i][ci], abs=1e-12)
                m = oracle_margins[i][ci]
                expected = (1.0 / (1.0 + math.exp(-2.0 * m)) if m >= 0
                            else math.exp(2.0 * m) / (1.0 + math.exp(2.0 * m)))
                assert scores[cls] == pytest.approx(expected, abs=1e-12)

    def test_dev_early_stopping_truncates(self, boost40):
        train = Corpus(boost40.recipes[:28], LabelKind.DIFFICULTY)
        dev = Corpus(boost40.recipes[28:], LabelKind.DIFFICULTY)
        feats = _features_for(boost40)
        config = BoostConfig(max_rounds=30, dev_patience=3)
        model = train_boost(train, dev, feats, config)
        assert 1 <= len(model.rounds) <= 30
        dev_f = [info.dev_micro_f for info in model.history]
        best = max(dev_f)
        assert dev_f[len(model.rounds) - 1] == best

    def test_single_class_rejected(self):
        recipes = [Recipe(f"x{i}", "titre", "corps.", dish_type=DishType.Dessert)
                   for i in range(4)]
        corpus = Corpus(recipes, LabelKind.DISH_TYPE)
        with pytest.raises(DataError):
            train_boost(corpus, None, _features_for(corpus), BoostConfig())

    def test_determinism(self, tmp_path, boost40):
        feats = _features_for(boost40)
        config = BoostConfig(max_rounds=8)
        m1 = train_boost(boost40, None, feats, config)
        m2 = train_boost(boost40, None, feats, config)
        p1, p2 = tmp_path / "m1", tmp_path / "m2"
        save_boost(m1, p1)
        save_boost(m2, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _mirror_tie():
    """Two title words, "poivre" and "sucre", each in two desserts and one
    starter; every other word is in every recipe or in one recipe only,
    and all numeric features are equal. The two stumps have the same
    block sizes, so in round one their block sums, and so their exact Z,
    are equal bit for bit."""
    words = ["poivre", "poivre", "sucre", "sucre", "poivre", "sucre", "miel", "thym"]
    return Corpus([Recipe(f"r{i}", word, "melanger le tout.",
                          dish_type=DishType.Dessert if i < 4 else DishType.Entree)
                   for i, word in enumerate(words)], LabelKind.DISH_TYPE)


def _exact_z(present, labels, classes, eps):
    """Round-one Z of a stump, straight from its definition."""
    n, k = len(labels), len(classes)
    z = 0.0
    for block in (present, [i for i in range(n) if i not in present]):
        for cls in classes:
            wp = sum(1.0 / (n * k) for i in block if labels[i] == cls)
            wm = sum(1.0 / (n * k) for i in block if labels[i] != cls)
            v = 0.5 * math.log((wp + eps) / (wm + eps))
            z += wp * math.exp(-v) + wm * math.exp(v)
    return z


def _golden60_fit(fixtures_dir, kind):
    corpus = load_corpus(fixtures_dir / "golden60.xml", kind)
    feats = _features_for(corpus)
    return corpus, feats, train_boost(corpus, None, feats, BoostConfig(max_rounds=30))


class TestRoundKernel:
    def test_exact_z_tie_picks_the_smaller_sort_key(self):
        corpus = _mirror_tie()
        feats = _features_for(corpus)
        ids = [r.id for r in corpus.recipes]
        labels = [corpus.labels()[rid] for rid in ids]
        title = {c.ngram: c for c in _candidates(ids, feats) if c.field == "title"}
        assert set(title) == {"poivre", "sucre"}
        first, second = title["poivre"], title["sucre"]
        assert first.sort_key < second.sort_key and first.present != second.present
        z = {gram: _exact_z(c.present, labels, sorted(set(labels)), 1e-3)
             for gram, c in title.items()}
        assert z["poivre"] == z["sucre"]
        model = train_boost(corpus, None, feats, BoostConfig(max_rounds=1))
        assert (model.rounds[0].field, model.rounds[0].ngram) == ("title", "poivre")
        assert model.history[0].z < 1.0

    def test_slack_keeps_the_exact_winner_of_a_near_tie(self, monkeypatch):
        # "body_words > 2.5" has the smaller exact Z here, by a few ulps,
        # but the larger closed-form Z than "title_words > 2.5"; both have
        # four present docs, so the scan reaches "title_words" first
        rows = [("thym poivre", "lait.", DishType.Entree),
                ("beurre miel poivre", "miel.", DishType.Dessert),
                ("creme sucre", "sel.", DishType.Entree),
                ("miel oeuf sel", "farine sel creme oeuf.", DishType.Dessert),
                ("sucre", "poivre sucre farine oeuf.", DishType.PlatPrincipal),
                ("sucre miel", "sel miel miel sel.", DishType.PlatPrincipal),
                ("sucre sel beurre", "farine sel.", DishType.Dessert),
                ("beurre creme farine", "beurre sel farine.", DishType.PlatPrincipal)]
        corpus = Corpus([Recipe(f"r{i}", title, body, dish_type=dish)
                         for i, (title, body, dish) in enumerate(rows)], LabelKind.DISH_TYPE)
        feats = _features_for(corpus)

        def first_pick():
            hyp = train_boost(corpus, None, feats, BoostConfig(max_rounds=1)).rounds[0]
            return hyp.field, hyp.threshold

        assert first_pick() == ("body_words", 2.5)
        monkeypatch.setattr(boost_mod, "_Z_SLACK", math.inf)
        assert first_pick() == ("body_words", 2.5)
        monkeypatch.setattr(boost_mod, "_Z_SLACK", 1.0)
        assert first_pick() == ("title_words", 2.5)

    def test_golden60_picks_match_oracle(self, fixtures_dir):
        corpus, feats, model = _golden60_fit(fixtures_dir, LabelKind.DISH_TYPE)
        ids, doc_features, candidates = _oracle_inputs(corpus, feats)
        labels = [corpus.labels()[rid] for rid in ids]
        picked, _, _, _ = adaboost_oracle(doc_features, labels, model.classes,
                                          candidates, 30, 1e-3)
        assert len(model.rounds) == len(picked) == 30
        assert ([(h.kind, h.field, h.ngram, h.threshold) for h in model.rounds]
                == [p[:4] for p in picked])

    @pytest.mark.parametrize("kind", [LabelKind.DIFFICULTY, LabelKind.DISH_TYPE])
    def test_filter_never_changes_a_pick(self, fixtures_dir, monkeypatch, kind):
        # an infinite slack lets every candidate through to its exact Z
        _, _, filtered = _golden60_fit(fixtures_dir, kind)
        monkeypatch.setattr(boost_mod, "_Z_SLACK", math.inf)
        _, _, unfiltered = _golden60_fit(fixtures_dir, kind)
        assert len(filtered.rounds) == 30
        assert filtered.rounds == unfiltered.rounds
        assert filtered.history == unfiltered.history


class TestCandidates:
    def test_one_candidate_per_document_set(self, boost40):
        feats = _features_for(boost40)
        ids = [r.id for r in boost40.recipes]
        kept = _candidates(ids, feats)
        sets = [tuple(c.present) for c in kept]
        assert len(set(sets)) == len(sets)
        # the survivor of each document set is its first candidate in sort order
        _, _, inventory = _oracle_inputs(boost40, feats)
        first_key = {}
        for cand in inventory:
            if cand["kind"] == "text":
                docs = tuple(i for i, rid in enumerate(ids)
                             if cand["ngram"] in feats[rid].text[cand["field"]])
            else:
                docs = tuple(i for i, rid in enumerate(ids)
                             if feats[rid].numeric[cand["field"]] > cand["theta"])
            first_key.setdefault(docs, cand["key"])
        assert len(inventory) > len(kept)
        assert [c.sort_key for c in kept] == list(first_key.values())

    def test_cooccurring_ngrams_keep_the_smaller(self, tmp_path):
        # "banal" and "plat banal" mark the same documents, as do
        # "magique" and "plat magique"
        corpus = _toy_separable()
        feats = _features_for(corpus)
        ngrams = [c.ngram for c in _candidates([r.id for r in corpus], feats)]
        assert "banal" in ngrams and "plat banal" not in ngrams
        assert "magique" in ngrams and "plat magique" not in ngrams
        model = train_boost(corpus, None, feats, BoostConfig(max_rounds=1))
        assert (model.rounds[0].field, model.rounds[0].ngram) == ("title", "banal")
        path = tmp_path / "boost.model"
        save_boost(model, path)
        assert load_boost(path).rounds[0].ngram == "banal"

    def test_stump_present_everywhere_has_empty_absent_block(self):
        corpus = _toy_separable()
        feats = _features_for(corpus)
        n = len(corpus.recipes)
        everywhere = [c for c in _candidates([r.id for r in corpus], feats)
                      if c.present == list(range(n))]
        assert [c.ngram for c in everywhere] == ["plat"]
        # a corpus whose only candidate is present everywhere picks it,
        # with an absent block of exactly 0.0 weight and neutral votes
        same = Corpus([Recipe(f"r{i}", "plat", "preparation.",
                              dish_type=DishType.Entree if i == 0 else DishType.Dessert)
                       for i in range(4)], LabelKind.DISH_TYPE)
        same_feats = _features_for(same)
        assert [c.present for c in _candidates([r.id for r in same], same_feats)] == [
            [0, 1, 2, 3]]
        hyp = train_boost(same, None, same_feats, BoostConfig(max_rounds=1)).rounds[0]
        assert hyp.ngram == "plat"
        assert set(hyp.votes_absent.values()) == {0.0}
        assert all(math.isfinite(v) for v in hyp.votes_present.values())


class TestScoreBoost:
    def test_zero_margin_confidence_half(self, boost40):
        feats = _features_for(boost40)
        model = train_boost(boost40, None, feats, BoostConfig(max_rounds=2))
        from recipetext.boost import _confidence
        assert _confidence(0.0) == 0.5

    def test_extreme_margins_saturate(self):
        from recipetext.boost import _confidence
        assert _confidence(500.0) == pytest.approx(1.0, abs=1e-15)
        assert _confidence(-500.0) == pytest.approx(0.0, abs=1e-15)
        assert _confidence(-500.0) >= 0.0

    def test_confidence_monotone_argmax_stable(self, boost40):
        feats = _features_for(boost40)
        model = train_boost(boost40, None, feats, BoostConfig(max_rounds=6))
        for rid, f in feats.items():
            m = margins(model, f)
            s = score_boost(model, f).scores
            ranked_by_margin = sorted(model.classes, key=lambda c: (-m[c], c))
            ranked_by_conf = sorted(model.classes, key=lambda c: (-s[c], c))
            assert ranked_by_margin == ranked_by_conf

    def test_schema_mismatch(self, tmp_path, boost40):
        """A model whose rounds or #field lines do not fit the boost
        features is refused when it is loaded, so scoring never meets it."""
        feats = _features_for(boost40)
        model = train_boost(boost40, None, feats, BoostConfig(max_rounds=2))
        path = tmp_path / "boost.model"
        first = model.rounds[0]
        for kind, field_name, ngram, threshold in (
                ("text", "titre", "tarte", None), ("text", "sentences", "tarte", None),
                ("numeric", "title", None, 2.5), ("numeric", "temps", None, 2.5)):
            model.rounds[0] = replace(first, kind=kind, field=field_name, ngram=ngram,
                                      threshold=threshold)
            save_boost(model, path)
            with pytest.raises(ModelMismatchError, match=f"{field_name!r} is not a {kind}"):
                load_boost(path)
        model.rounds[0] = first
        save_boost(model, path)
        load_boost(path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("#field\tbody\t4\n", "#field\tbody\t3\n"),
                        encoding="utf-8")
        with pytest.raises(ModelMismatchError, match="#field lines"):
            load_boost(path)


class TestSerialization:
    def test_roundtrip_bitwise(self, tmp_path, boost40):
        feats = _features_for(boost40)
        model = train_boost(boost40, None, feats, BoostConfig(max_rounds=6))
        path = tmp_path / "boost.model"
        save_boost(model, path)
        reloaded = load_boost(path)
        assert reloaded.classes == model.classes
        for rid, f in feats.items():
            assert score_boost(model, f).scores == score_boost(reloaded, f).scores
        again = tmp_path / "again.model"
        save_boost(reloaded, again)
        assert again.read_bytes() == path.read_bytes()


def _round_inputs(corpus, feats, seed, power):
    """The candidates and a seeded weight distribution over a corpus,
    with the weight columns and per-class totals a round computes from
    it. Weights drawn as u**power have a heavier tail as the power
    grows, like the weights of later rounds."""
    ids = [r.id for r in corpus.recipes]
    labels = corpus.labels()
    classes = sorted(set(labels.values()))
    label_of = [classes.index(labels[rid]) for rid in ids]
    n, k = len(ids), len(classes)
    rng = SplitMix64(seed)
    raw = [[rng.uniform() ** power + 1e-300 for _ in range(k)] for _ in range(n)]
    total = sum(map(sum, raw))
    dist = [[w / total for w in row] for row in raw]
    cols = list(zip(*dist))
    totals = [(ordered_sum(map(col.__getitem__, pos)), ordered_sum(map(col.__getitem__, neg)))
              for (pos, neg), col in zip(_class_split(range(n), label_of, k), cols)]
    return ids, label_of, dist, cols, totals, _candidates(ids, feats)


def _summed_closed_form(present, label_of, cols, totals, eps):
    """The closed-form Z of a stump as a round computes it, from its
    present block summed in ascending doc order."""
    split = _class_split(present, label_of, len(cols))
    w1p = [ordered_sum(col[i] for i in pos) for (pos, _), col in zip(split, cols)]
    w1m = [ordered_sum(col[i] for i in neg) for (_, neg), col in zip(split, cols)]
    return _closed_form(w1p, w1m, totals, eps)


@pytest.fixture(scope="module")
def bound_corpora(fixtures_dir, boost40):
    corpora = [boost40] + [load_corpus(fixtures_dir / "golden60.xml", kind)
                           for kind in (LabelKind.DIFFICULTY, LabelKind.DISH_TYPE)]
    return [(corpus, _features_for(corpus)) for corpus in corpora]


class TestBound:
    def test_bound_never_exceeds_the_closed_form(self, bound_corpora):
        gaps = []
        for corpus, feats in bound_corpora:
            for seed, power in [(s, p) for s in range(3) for p in (1, 4, 16)]:
                _, label_of, dist, cols, totals, cands = _round_inputs(corpus, feats, seed, power)
                z0, q = _bound_terms(dist, label_of, totals)
                largest = list(accumulate(sorted(q, reverse=True), initial=0.0))
                for cand in cands:
                    fz = _summed_closed_form(cand.present, label_of, cols, totals, 1e-3)
                    bound = z0 - sum(q[i] for i in cand.present)
                    assert bound <= fz, (cand.sort_key, seed, power)
                    # the scan's stop by block size bounds the bound
                    assert z0 - largest[len(cand.present)] <= bound + 1e-15
                    gaps.append((fz - bound) / fz)
        # the bound is tight enough to prune: some candidates come within 5%
        assert min(gaps) < 0.05

    def test_the_tangent_slope_breaks_the_bound(self, bound_corpora):
        # the tangent of sqrt((1-x)(1-y)) at 0 is 1 - x/2 - y/2: half of
        # each q_i. It lies above the square root, so its "bound" can
        # exceed the closed form.
        corpus, feats = bound_corpora[2]
        _, label_of, dist, cols, totals, cands = _round_inputs(corpus, feats, 0, 1)
        z0, q = _bound_terms(dist, label_of, totals)
        broken = [cand for cand in cands
                  if z0 - 0.5 * sum(q[i] for i in cand.present)
                  > _summed_closed_form(cand.present, label_of, cols, totals, 1e-3)]
        assert broken

    def test_swept_closed_forms_stay_within_the_margin(self, bound_corpora):
        for corpus, feats in bound_corpora:
            for seed, power in [(s, p) for s in range(3) for p in (1, 4, 16)]:
                ids, label_of, dist, cols, totals, cands = _round_inputs(
                    corpus, feats, seed, power)
                k = len(cols)
                sweeps = _numeric_sweeps(cands, feats, ids, label_of, k)
                swept = _swept_closed_forms(sweeps, cols, totals, 1e-3)
                assert sorted(swept) == [i for i, c in enumerate(cands) if c.kind == "numeric"]
                margin = _bound_margin(len(ids), k, 1e-3)
                for idx, approx in swept.items():
                    fz = _summed_closed_form(cands[idx].present, label_of, cols, totals, 1e-3)
                    assert abs(approx - fz) <= margin + fz * (_BOUND_SLACK - 1.0)

    @pytest.mark.parametrize("kind", [LabelKind.DIFFICULTY, LabelKind.DISH_TYPE])
    @pytest.mark.parametrize("eps", [1e-3, 1e-9])
    def test_bound_never_changes_a_fit(self, fixtures_dir, monkeypatch, kind, eps):
        corpus = load_corpus(fixtures_dir / "golden60.xml", kind)
        feats = _features_for(corpus)
        config = BoostConfig(max_rounds=30, smoothing_epsilon=eps)
        bounded = train_boost(corpus, None, feats, config)
        monkeypatch.setattr(boost_mod, "_BOUND_SLACK", math.inf)
        unbounded = train_boost(corpus, None, feats, config)
        assert len(bounded.rounds) == 30
        assert bounded.rounds == unbounded.rounds
        assert bounded.history == unbounded.history
        # the bound, not the closed-form filter, is what skips the summing
        assert (sum(info.summed for info in bounded.history)
                < sum(info.summed for info in unbounded.history))

    def test_bound_never_changes_a_perfbench_fit(self, monkeypatch):
        corpus = perfbench_corpus(7, 160, LabelKind.DISH_TYPE)
        train = Corpus(corpus.recipes[:120], LabelKind.DISH_TYPE)
        dev = Corpus(corpus.recipes[120:], LabelKind.DISH_TYPE)
        feats = _features_for(corpus)
        config = BoostConfig(max_rounds=30, dev_patience=30)
        bounded = train_boost(train, dev, feats, config)
        monkeypatch.setattr(boost_mod, "_BOUND_SLACK", math.inf)
        unbounded = train_boost(train, dev, feats, config)
        assert len(bounded.history) == 30
        assert bounded.rounds == unbounded.rounds
        assert bounded.history == unbounded.history

    def test_summed_counts_repeat(self, fixtures_dir):
        corpus = load_corpus(fixtures_dir / "golden60.xml", LabelKind.DISH_TYPE)
        feats = _features_for(corpus)
        inventory = len(_candidates([r.id for r in corpus.recipes], feats))
        counts = [[info.summed for info in train_boost(
            corpus, None, feats, BoostConfig(max_rounds=30)).history] for _ in range(2)]
        assert counts[0] == counts[1]
        assert all(1 <= c < inventory for c in counts[0])
