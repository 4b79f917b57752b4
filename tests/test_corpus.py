from collections import Counter

import pytest

from recipetext.corpus import (
    Corpus,
    Difficulty,
    DishType,
    LabelKind,
    Recipe,
    load_corpus,
    save_corpus,
    stratified_split,
)
from recipetext.errors import CorpusParseError, CorpusSchemaError, DataError


def _write(tmp_path, body: str):
    path = tmp_path / "corpus.xml"
    path.write_text(body, encoding="utf-8")
    return path


def test_single_recipe_parse(tmp_path):
    path = _write(tmp_path, """<?xml version='1.0' encoding='utf-8'?>
<recettes>
  <recette id="1">
    <titre>Quiche</titre>
    <preparation>Battre les oeufs.</preparation>
    <niveau>Facile</niveau>
  </recette>
</recettes>""")
    corpus = load_corpus(path, LabelKind.DIFFICULTY)
    assert len(corpus) == 1
    recipe = corpus.recipes[0]
    assert recipe.id == "1"
    assert recipe.title == "Quiche"
    assert recipe.body == "Battre les oeufs."
    assert recipe.difficulty is Difficulty.Facile


def test_duplicate_id_rejected(tmp_path):
    path = _write(tmp_path, """<recettes>
  <recette id="7"><titre>A</titre><preparation>B.</preparation></recette>
  <recette id="7"><titre>C</titre><preparation>D.</preparation></recette>
</recettes>""")
    with pytest.raises(CorpusSchemaError, match="duplicate"):
        load_corpus(path)


def test_malformed_xml(tmp_path):
    path = _write(tmp_path, "<recettes><recette id='1'>")
    with pytest.raises(CorpusParseError):
        load_corpus(path)


def test_unknown_label_string(tmp_path):
    path = _write(tmp_path, """<recettes>
  <recette id="1"><titre>A</titre><preparation>B.</preparation>
    <niveau>Impossible</niveau></recette>
</recettes>""")
    with pytest.raises(CorpusSchemaError, match="unknown difficulty"):
        load_corpus(path)


def test_empty_body_is_load_error(tmp_path):
    path = _write(tmp_path, """<recettes>
  <recette id="1"><titre>A</titre><preparation>   </preparation></recette>
</recettes>""")
    with pytest.raises(CorpusSchemaError, match="preparation"):
        load_corpus(path)


def test_empty_corpus_rejected(tmp_path):
    path = _write(tmp_path, "<recettes></recettes>")
    with pytest.raises(CorpusSchemaError, match="empty"):
        load_corpus(path)


def test_missing_label_for_kind(tmp_path):
    path = _write(tmp_path, """<recettes>
  <recette id="1"><titre>A</titre><preparation>B.</preparation></recette>
</recettes>""")
    with pytest.raises(DataError):
        load_corpus(path, LabelKind.DISH_TYPE)


def test_fixture_class_counts(mini6_dish):
    counts = Counter(mini6_dish.labels().values())
    assert counts == {"Dessert": 2, "Entree": 2, "PlatPrincipal": 2}


def test_difficulty_ordinal_ranks():
    ranks = [d.rank for d in Difficulty]
    assert ranks == [0, 1, 2, 3]
    assert Difficulty.TresFacile.rank == 0
    assert Difficulty.Difficile.rank == 3


def test_roundtrip(tmp_path, mini6_dish):
    out = tmp_path / "roundtrip.xml"
    save_corpus(mini6_dish, out)
    reloaded = load_corpus(out, LabelKind.DISH_TYPE)
    assert len(reloaded) == len(mini6_dish)
    for a, b in zip(mini6_dish, reloaded):
        assert (a.id, a.title, a.body) == (b.id, b.title, b.body)
        assert a.difficulty is b.difficulty
        assert a.dish_type is b.dish_type
        assert a.gold_ingredients == b.gold_ingredients


def _toy_corpus(counts: dict[str, int]) -> Corpus:
    recipes = []
    i = 0
    for dish, n in counts.items():
        for _ in range(n):
            recipes.append(Recipe(f"d{i}", f"Titre {i}", f"Corps {i}.",
                                  dish_type=DishType[dish]))
            i += 1
    return Corpus(recipes, LabelKind.DISH_TYPE)


def test_split_rounding_rule():
    corpus = _toy_corpus({"Dessert": 60, "Entree": 40})
    train, dev = stratified_split(corpus, 0.25, 1)
    dev_counts = Counter(dev.labels().values())
    assert dev_counts == {"Dessert": 15, "Entree": 10}
    assert len(train) + len(dev) == 100


def test_split_determinism_and_partition():
    corpus = _toy_corpus({"Dessert": 13, "Entree": 9, "PlatPrincipal": 21})
    train1, dev1 = stratified_split(corpus, 0.3, 99)
    train2, dev2 = stratified_split(corpus, 0.3, 99)
    assert [r.id for r in train1] == [r.id for r in train2]
    assert [r.id for r in dev1] == [r.id for r in dev2]
    ids = {r.id for r in train1} | {r.id for r in dev1}
    assert len(ids) == len(corpus)
    assert not ({r.id for r in train1} & {r.id for r in dev1})


def test_split_seed_changes_membership_not_sizes():
    corpus = _toy_corpus({"Dessert": 13, "Entree": 9})
    _, dev_a = stratified_split(corpus, 0.4, 1)
    _, dev_b = stratified_split(corpus, 0.4, 2)
    assert Counter(dev_a.labels().values()) == Counter(dev_b.labels().values())
    assert {r.id for r in dev_a} != {r.id for r in dev_b}


def test_split_clamps_to_keep_both_sides():
    corpus = _toy_corpus({"Dessert": 2, "Entree": 50})
    train, dev = stratified_split(corpus, 0.01, 0)
    dev_counts = Counter(dev.labels().values())
    train_counts = Counter(train.labels().values())
    assert dev_counts["Dessert"] == 1 and train_counts["Dessert"] == 1
    assert dev_counts["Entree"] == 1  # round(0.5) clamps up to 1


def test_split_rejects_singleton_class():
    corpus = _toy_corpus({"Dessert": 1, "Entree": 5})
    with pytest.raises(DataError, match="at least 2"):
        stratified_split(corpus, 0.5, 0)


def test_split_target_size_within_class_count_of_paper_ratio():
    # 13 684 recipes at dev_fraction 3863/13684: per-class rounding keeps the
    # dev size within one of the target per class.
    corpus = _toy_corpus({"Dessert": 6684, "Entree": 4000, "PlatPrincipal": 3000})
    fraction = 3863 / 13684
    _, dev = stratified_split(corpus, fraction, 5)
    assert abs(len(dev) - 3863) <= 3

