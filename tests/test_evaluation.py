import pytest

from oracles import ap_oracle, map_oracle, mean_distance_oracle, prf_oracle
from references import skipped_ids

from recipetext import evaluation
from recipetext.corpus import Corpus, Difficulty, LabelKind, Recipe, load_corpus
from recipetext.errors import DataError
from recipetext.evaluation import (
    QrelSet,
    average_precision,
    classification_report,
    load_qrels,
    mean_average_precision,
    qrels_from_corpus,
    report_from_pairs,
)
from recipetext.extraction import canonical_form
from recipetext.rng import SplitMix64
from recipetext.textnorm import NormConfig


class TestClassificationReport:
    def test_perfect_predictions(self):
        gold = {f"r{i}": ("A" if i % 2 else "B") for i in range(10)}
        report = report_from_pairs(gold, dict(gold), {"A": 0, "B": 1})
        assert report.micro_f == 1.0
        assert report.macro_f == 1.0
        assert report.mean_distance == 0.0

    def test_all_one_class_on_balanced_set(self):
        gold = {f"r{i}": ("A" if i < 5 else "B") for i in range(10)}
        predicted = {rid: "A" for rid in gold}
        report = report_from_pairs(gold, predicted)
        assert report.micro_f == pytest.approx(0.5, abs=1e-15)
        # per-class F1: A = 2*.5*1/(1.5) = 2/3, B = 0
        assert report.macro_f == pytest.approx((2 / 3) / 2, abs=1e-12)
        assert report.per_class["A"][2] == pytest.approx(2 / 3, abs=1e-12)
        assert report.per_class["B"] == (0.0, 0.0, 0.0)

    def test_constant_ordinal_offset(self):
        levels = [d.name for d in Difficulty]
        ranks = {d.name: d.rank for d in Difficulty}
        gold = {f"r{i}": levels[i % 3] for i in range(9)}
        predicted = {rid: levels[levels.index(cls) + 1] for rid, cls in gold.items()}
        report = report_from_pairs(gold, predicted, ranks)
        assert report.mean_distance == pytest.approx(1.0, abs=1e-15)

    def test_micro_equals_accuracy(self):
        rng = SplitMix64(1)
        labels = ["A", "B", "C"]
        gold = {f"r{i}": labels[rng.below(3)] for i in range(50)}
        predicted = {rid: labels[rng.below(3)] for rid in gold}
        accuracy = sum(1 for rid in gold if gold[rid] == predicted[rid]) / len(gold)
        report = report_from_pairs(gold, predicted)
        assert report.micro_f == pytest.approx(accuracy, abs=1e-15)

    def test_macro_between_min_and_max_f1(self):
        rng = SplitMix64(2)
        labels = ["A", "B", "C", "D"]
        gold = {f"r{i}": labels[rng.below(4)] for i in range(60)}
        predicted = {rid: labels[rng.below(4)] for rid in gold}
        report = report_from_pairs(gold, predicted)
        f1s = [f for _, _, f in report.per_class.values()]
        assert min(f1s) - 1e-12 <= report.macro_f <= max(f1s) + 1e-12

    def test_missing_prediction_rejected(self):
        with pytest.raises(DataError):
            report_from_pairs({"a": "A", "b": "B"}, {"a": "A"})

    def test_matches_oracle_random_instances(self):
        rng = SplitMix64(99)
        labels = ["A", "B", "C", "D"]
        ranks = {c: i for i, c in enumerate(labels)}
        for _ in range(100):
            n = 20
            gold = {f"r{i}": labels[rng.below(4)] for i in range(n)}
            predicted = {rid: labels[rng.below(4)] for rid in gold}
            report = report_from_pairs(gold, predicted, ranks)
            micro, macro, per_class = prf_oracle(gold, predicted)
            assert report.micro_f == pytest.approx(micro, abs=1e-12)
            assert report.macro_f == pytest.approx(macro, abs=1e-12)
            for cls, prf in per_class.items():
                for got, want in zip(report.per_class[cls], prf):
                    assert got == pytest.approx(want, abs=1e-12)
            assert report.mean_distance == pytest.approx(
                mean_distance_oracle(gold, predicted, ranks), abs=1e-12)

    def test_corpus_wrapper_with_ordinal(self):
        recipes = [
            Recipe("1", "t", "b.", difficulty=Difficulty.Facile),
            Recipe("2", "t", "b.", difficulty=Difficulty.Difficile),
        ]
        corpus = Corpus(recipes, LabelKind.DIFFICULTY)
        report = classification_report(
            corpus, {"1": "TresFacile", "2": "Difficile"}, ordinal=True)
        assert report.mean_distance == pytest.approx(0.5, abs=1e-15)


class TestAveragePrecision:
    def test_perfect_run(self):
        assert average_precision(["a", "b"], {"a", "b"}) == 1.0

    def test_gold_ab_predicted_xa(self):
        assert average_precision(["x", "a"], {"a", "b"}) == pytest.approx(0.25, abs=0)

    def test_empty_prediction(self):
        assert average_precision([], {"a"}) == 0.0

    def test_duplicate_rejected(self):
        with pytest.raises(DataError):
            average_precision(["a", "a"], {"a"})

    def test_pushing_relevant_down_never_helps(self):
        rng = SplitMix64(5)
        for _ in range(100):
            items = [f"i{j}" for j in range(8)]
            gold = {items[rng.below(8)] for _ in range(3)}
            order = list(items)
            rng.shuffle(order)
            base = ap_oracle(order, gold)
            for k in range(len(order) - 1):
                if order[k] in gold and order[k + 1] not in gold:
                    swapped = list(order)
                    swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
                    assert ap_oracle(swapped, gold) < base + 1e-15


class TestMap:
    def test_map_matches_oracle(self):
        rng = SplitMix64(17)
        pool = [f"ing{j}" for j in range(12)]
        for _ in range(100):
            qrels = {}
            run = {}
            for i in range(20):
                rid = f"r{i}"
                qrels[rid] = {pool[rng.below(12)] for _ in range(1 + rng.below(4))}
                ranked = list(pool)
                rng.shuffle(ranked)
                run[rid] = ranked[:1 + rng.below(10)]
            got = mean_average_precision(run, QrelSet(qrels))
            assert got == pytest.approx(map_oracle(run, qrels), abs=1e-12)

    def test_empty_gold_recipes_skipped(self):
        qrels = QrelSet({"a": {"x"}, "b": set()})
        assert qrels.scored_ids() == ["a"]
        assert skipped_ids(qrels) == ["b"]
        assert mean_average_precision({"a": ["x"]}, qrels) == 1.0

    def test_run_outside_qrels_rejected(self):
        with pytest.raises(DataError):
            mean_average_precision({"zz": ["x"]}, QrelSet({"a": {"x"}}))

    def test_recipe_missing_from_run_scores_zero(self):
        qrels = QrelSet({"a": {"x"}, "b": {"y"}})
        assert mean_average_precision({"a": ["x"]}, qrels) == pytest.approx(0.5, abs=0)

    def test_permutation_invariance(self):
        qrels = {"a": {"x"}, "b": {"y", "z"}, "c": {"w"}}
        run = {"a": ["x"], "b": ["q", "y"], "c": []}
        base = mean_average_precision(run, QrelSet(qrels))
        reordered = mean_average_precision(
            {k: run[k] for k in reversed(sorted(run))}, QrelSet(dict(reversed(list(qrels.items())))))
        assert base == reordered

    def test_accent_matching_modes(self):
        config = NormConfig()
        qrels = QrelSet({"a": {"crème fraîche"}})
        run = {"a": ["creme fraiche"]}
        strict = mean_average_precision(run, qrels, config)
        relaxed = mean_average_precision(run, qrels, config, deaccent=True)
        assert strict == 0.0
        assert relaxed == 1.0


class TestQrelIo:
    def test_roundtrip(self, tmp_path):
        qrels = QrelSet({"r1": {"oeuf", "sucre"}, "r2": {"sel"}})
        path = tmp_path / "qrels.tsv"
        path.write_text("r1\t0\toeuf\t1\nr1\t0\tsucre\t1\nr2\t0\tsel\t1\n",
                        encoding="utf-8")
        assert load_qrels(path).gold == qrels.gold

    def test_from_corpus_canonicalizes_each_item_once(self, fixtures_dir, monkeypatch):
        corpus = load_corpus(fixtures_dir / "golden60.xml")
        norm = NormConfig(agglutinate=True)
        items = [item for r in corpus for item in r.gold_ingredients or []]
        expected = {r.id: {canonical_form(i, norm) for i in r.gold_ingredients or []} - {""}
                    for r in corpus}
        calls = []

        def counting(item, config):
            calls.append(item)
            return canonical_form(item, config)

        monkeypatch.setattr(evaluation, "canonical_form", counting)
        assert qrels_from_corpus(corpus, norm).gold == expected
        assert len(items) > len(set(items))
        assert sorted(calls) == sorted(set(items))

    def test_from_corpus(self, mini6_dish):
        config = NormConfig()
        qrels = qrels_from_corpus(mini6_dish, config)
        assert qrels.gold["r1"] == {"oeuf", "crème fraîche", "lardon", "pâte brisée"}
