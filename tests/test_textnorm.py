from collections import Counter

import pytest

from recipetext.corpus import LabelKind, Recipe, load_corpus
from recipetext.errors import ConfigError
from recipetext.rng import SplitMix64
from recipetext.textnorm import (
    AgglutinationModel,
    NormConfig,
    analyze,
    default_french_numbers,
    fit_agglutinator,
    load_abbrev_table,
    load_agglutination_model,
    merge_ngrams,
    ngram_set,
    normalize,
    save_agglutination_model,
)


def _plain_analyses(corpus, config):
    return {r.id: analyze(r, config) for r in corpus}


def _merged(text, config, model):
    return merge_ngrams(normalize(text, config), model, config.agglutination_max_n)


class TestNormalize:
    def test_punctuation_and_clitics(self, plain_norm):
        assert normalize("et couper l'oignon.", plain_norm) == ["et", "couper", "l'", "oignon"]

    def test_abbreviation_replacement(self, plain_norm):
        assert normalize("kg", plain_norm) == ["kilogramme"]
        assert normalize("Th 7", plain_norm) == ["thermostat", "sept"]

    def test_empty_input(self, plain_norm):
        assert normalize("", plain_norm) == []

    def test_number_conversion(self, plain_norm):
        assert normalize("3 oeufs", plain_norm) == ["trois", "oeufs"]
        assert normalize("3,5 litres", plain_norm) == ["trois", "virgule", "cinq", "litres"]
        assert normalize("3,5", plain_norm) == ["trois", "virgule", "cinq"]
        assert normalize("a3", plain_norm) == ["a", "trois"]  # the tokenizer splits the digit off
        assert normalize("²", plain_norm) == ["²"]  # a digit, but not an ASCII one

    def test_large_numbers_pass_through(self, plain_norm):
        assert normalize("1500 grammes", plain_norm) == ["1500", "grammes"]

    def test_number_conversion_off(self):
        config = NormConfig(number_conversion=False)
        assert normalize("3 oeufs", config) == ["3", "oeufs"]

    def test_case_insensitive(self, plain_norm):
        texts = ["Préchauffer LE Four à 200 degrés!", "l'Oignon ÉMINCÉ"]
        for text in texts:
            assert normalize(text.upper(), plain_norm) == normalize(text, plain_norm)

    def test_idempotent_without_agglutination(self, plain_norm):
        texts = [
            "Battre 3 oeufs avec 25 cl de crème, puis l'étaler.",
            "Cuire au four (th 6) pendant 45 minutes ; servir tiède.",
            "Pot-au-feu de grand-mère : 1,5 kg de boeuf.",
        ]
        for text in texts:
            once = normalize(text, plain_norm)
            again = normalize(" ".join(once), plain_norm)
            assert again == once

    def test_tokens_have_no_whitespace_or_empties(self, plain_norm):
        tokens = normalize("Mélanger  ,  puis    verser; c'est tout?!", plain_norm)
        assert all(tok and not any(ch.isspace() for ch in tok) for tok in tokens)

    def test_never_merges(self):
        # step 4 is merge_ngrams: normalize ignores the agglutinate flag
        config = NormConfig(agglutinate=True, agglutination_min_count=2)
        assert normalize("il y a du sel", config) == ["il", "y", "a", "du", "sel"]
        assert normalize("four chaud", config) == normalize("four chaud", NormConfig())


class TestAgglutinator:
    def test_frequent_trigram_merged(self, mini6_dish):
        config = NormConfig(agglutinate=True, agglutination_min_count=2,
                            agglutination_max_n=3)
        # synthetic corpus: "il y a" repeated often
        from recipetext.corpus import Corpus, Recipe, LabelKind
        recipes = [Recipe(str(i), "Titre exemple", "il y a une astuce ici.")
                   for i in range(12)]
        corpus = Corpus(recipes, LabelKind.NONE)
        model = fit_agglutinator(_plain_analyses(corpus, config), config)
        assert ("il", "y", "a") in model
        tokens = _merged("il y a une astuce", config, model)
        assert tokens[0] == "il_y_a"

    def test_threshold_above_max_gives_identity(self, mini6_dish):
        config = NormConfig(agglutinate=True, agglutination_min_count=50)
        model = fit_agglutinator(_plain_analyses(mini6_dish, config), config)
        assert model == frozenset()
        text = "verser sur la pâte brisée"
        assert _merged(text, config, model) == normalize(text, NormConfig())

    def test_fixture_four_chaud(self, mini6_dish):
        config = NormConfig(agglutinate=True, agglutination_min_count=3)
        model = fit_agglutinator(_plain_analyses(mini6_dish, config), config)
        assert model == frozenset({("four", "chaud")})
        tokens = _merged("enfourner à four chaud vingt minutes", config, model)
        assert "four_chaud" in tokens

    def test_longer_ngram_subsumes_equal_count_shorter(self):
        from recipetext.corpus import Corpus, Recipe, LabelKind
        recipes = [Recipe(str(i), "x", "on sert le plat du jour ici.") for i in range(5)]
        config = NormConfig(agglutinate=True, agglutination_min_count=5,
                            agglutination_max_n=3)
        corpus = Corpus(recipes, LabelKind.NONE)
        model = fit_agglutinator(_plain_analyses(corpus, config), config)
        # "plat du" and "du jour" occur exactly as often as "plat du jour":
        # only the trigram (and other maximal ones) survive
        assert ("plat", "du", "jour") in model
        assert ("plat", "du") not in model
        assert ("du", "jour") not in model

    def test_conservativity(self, mini6_dish):
        config = NormConfig(agglutinate=True, agglutination_min_count=2)
        model = fit_agglutinator(_plain_analyses(mini6_dish, config), config)
        plain = NormConfig()
        for recipe in mini6_dish:
            merged = _merged(recipe.body, config, model)
            unmerged = [part for tok in merged for part in tok.split("_")]
            assert Counter(unmerged) == Counter(normalize(recipe.body, plain))

    def test_model_roundtrip(self, tmp_path, mini6_dish):
        config = NormConfig(agglutinate=True, agglutination_min_count=2)
        model = fit_agglutinator(_plain_analyses(mini6_dish, config), config)
        path = tmp_path / "agglutination.txt"
        save_agglutination_model(model, path)
        assert load_agglutination_model(path) == model


BOUNDARY_PAIRS = [
    ("Tarte fine de l'", "oignon confit au four."),
    ("Cake 3,", "5 kg de farine, 2,5 l de lait."),
    ("Purée de pomme", "\u0301crasée à la fourchette."),
    ("Soupe ΟΔΟΣ", "Σ servie chaude."),
    ("Salade à l\u2019", "\u2019huile d\u2019olive."),
]


class TestAnalysis:
    @pytest.mark.parametrize("number_conversion", [True, False])
    @pytest.mark.parametrize("fixture", ["golden60.xml", "mini6.xml", "boost40.xml"])
    def test_plain_is_the_joined_text(self, fixtures_dir, fixture, number_conversion):
        config = NormConfig(number_conversion=number_conversion)
        for recipe in load_corpus(fixtures_dir / fixture, LabelKind.NONE):
            analysis = analyze(recipe, config)
            assert analysis.plain == tuple(
                normalize(recipe.title + "\n" + recipe.body, config))
            assert analysis.title == tuple(normalize(recipe.title, config))
            assert analysis.body == tuple(normalize(recipe.body, config))
            assert analysis.title_body == analysis.plain

    @pytest.mark.parametrize("number_conversion", [True, False])
    @pytest.mark.parametrize("title,body", BOUNDARY_PAIRS)
    def test_plain_is_the_joined_text_at_hard_boundaries(self, title, body,
                                                         number_conversion):
        config = NormConfig(number_conversion=number_conversion)
        analysis = analyze(Recipe("x", title, body), config)
        assert analysis.plain == tuple(normalize(title + "\n" + body, config))
        assert analysis.plain[:analysis.title_end] == tuple(normalize(title, config))

    def test_views_share_one_string_per_token(self):
        config = NormConfig(agglutinate=True)
        model = AgglutinationModel({("four", "chaud")})
        first = analyze(Recipe("a", "Gratin au four", "four chaud."), config, model)
        second = analyze(Recipe("b", "Four chaud", "gratin."), config, model)
        assert first.title[0] is second.body[0] == "gratin"
        assert first.title[2] is first.plain[3] is second.plain[0] == "four"
        assert first.body[0] is first.title_body[3] is second.title[0] == "four_chaud"

    def test_ngram_spanning_the_boundary_merges_in_title_body_only(self):
        config = NormConfig(agglutinate=True)
        model = AgglutinationModel({("four", "chaud")})
        recipe = Recipe("x", "Gratin au four", "chaud et doré.")
        analysis = analyze(recipe, config, model)
        assert analysis.title == ("gratin", "au", "four")
        assert analysis.body == ("chaud", "et", "doré")
        assert analysis.title_body == ("gratin", "au", "four_chaud", "et", "doré")
        assert analysis.title_body != analysis.title + analysis.body
        assert analysis.title_body == tuple(
            _merged(recipe.title + "\n" + recipe.body, config, model))

    def test_without_model_equals_the_plain_analysis(self):
        recipe = Recipe("x", "Gratin au four", "il y a four chaud.")
        plain = analyze(recipe, NormConfig())
        assert analyze(recipe, NormConfig(agglutinate=True)) == plain
        assert analyze(recipe, NormConfig(agglutinate=True), None) == plain


class TestNgrams:
    def test_definition(self):
        assert ngram_set(["a", "b", "c"], 2) == {"a", "b", "c", "a b", "b c"}

    def test_short_stream(self):
        assert ngram_set(["a"], 3) == {"a"}

    def test_count_formula(self, mini6_dish, plain_norm):
        # no mini6 title repeats a token, so each window is its own n-gram
        for recipe in mini6_dish:
            tokens = normalize(recipe.title, plain_norm)
            assert len(set(tokens)) == len(tokens)
            length = len(tokens)
            for max_n in (1, 2, 3):
                expected = sum(max(0, length - k + 1) for k in range(1, max_n + 1))
                assert len(ngram_set(tokens, max_n)) == expected

    def test_title_trigram_count_is_3l_minus_3(self, mini6_dish, plain_norm):
        for recipe in mini6_dish:
            tokens = normalize(recipe.title, plain_norm)
            if len(tokens) >= 3:
                assert len(ngram_set(tokens, 3)) == 3 * len(tokens) - 3

    def test_multiplicities(self):
        # a window that repeats is one n-gram
        assert ngram_set(["la", "la", "la"], 2) == {"la", "la la"}

    def test_random_streams_match_the_windows(self):
        rng = SplitMix64(11)
        for _ in range(200):
            stream = ["abc"[rng.below(3)] for _ in range(rng.below(8))]
            for max_n in (1, 3, 4):
                assert ngram_set(stream, max_n) == {
                    " ".join(stream[i:i + n]) for n in range(1, max_n + 1)
                    for i in range(len(stream) - n + 1)}

    def test_invalid_max_n(self):
        with pytest.raises(ConfigError):
            ngram_set(["a"], 0)


class TestFrenchNumbers:
    def test_key_values(self):
        words = default_french_numbers()
        assert words[0] == "zéro"
        assert words[21] == "vingt-et-un"
        assert words[71] == "soixante-et-onze"
        assert words[80] == "quatre-vingts"
        assert words[95] == "quatre-vingt-quinze"
        assert words[100] == "cent"
        assert words[200] == "deux-cents"
        assert words[347] == "trois-cent-quarante-sept"

    def test_all_single_tokens(self):
        for word in default_french_numbers().values():
            assert word and " " not in word


class TestAbbrevTable:
    def test_load_and_validate(self, tmp_path):
        path = tmp_path / "abbrev.tsv"
        path.write_text("cas\tcuillère à soupe\n", encoding="utf-8")
        table = load_abbrev_table(path)
        assert table == {"cas": "cuillère à soupe"}
        config = NormConfig(abbrev_table=table)
        assert normalize("2 cas de farine", config) == [
            "deux", "cuillère", "à", "soupe", "de", "farine"]

    def test_rejects_uppercase_key(self, tmp_path):
        path = tmp_path / "abbrev.tsv"
        path.write_text("KG\tkilogramme\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_abbrev_table(path)


def test_splitmix_reference_sequence():
    # known-answer test: splitmix64 from seed 1234567 (reference values
    # from the published algorithm)
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]
