"""The indexed scans of the scoring path against the straightforward scans.

Each index only rules out positions that cannot match, so every scan
must give exactly what the plain left-to-right scan gives: the
reference implementations below try every window at every position.
"""

from __future__ import annotations

import pytest

from recipetext.boost import (
    BoostModel,
    WeakHypothesis,
    presence_index,
    recipe_boost_features,
    score_boost,
)
from recipetext.corpus import Recipe
from recipetext.extraction import (
    GENERIC_TERMS,
    IngredientLexicon,
    extract_candidates,
    fold_token,
)
from recipetext.features import numeric_features
from recipetext.rng import SplitMix64
from recipetext.textnorm import (
    AgglutinationModel,
    Analysis,
    NormConfig,
    analyze,
    load_agglutination_model,
    merge_ngrams,
    save_agglutination_model,
    with_agglutination,
)

WORDS = ["il", "y", "a", "du", "sel", "poivre", "four"]


def _stream(rng: SplitMix64, words=WORDS, longest=30) -> tuple[str, ...]:
    return tuple(words[rng.below(len(words))] for _ in range(rng.below(longest + 1)))


def _analysis(title: tuple[str, ...], body: tuple[str, ...], body_text: str = "") -> Analysis:
    joined = title + body
    return Analysis(Recipe("r", " ".join(title), body_text), joined, len(title),
                    title, body, joined)


# --------------------------------------------------------------------
# agglutination merge
# --------------------------------------------------------------------

def _reference_merge(tokens, model, max_n):
    out = []
    i = 0
    while i < len(tokens):
        for n in range(max_n, 1, -1):
            if i + n <= len(tokens) and tuple(tokens[i:i + n]) in model:
                out.append("_".join(tokens[i:i + n]))
                i += n
                break
        else:
            out.append(tokens[i])
            i += 1
    return out


# overlapping 2- and 3-grams, two sharing their first token, one 4-gram
AGGLUTINATION = AgglutinationModel({
    ("il", "y"), ("il", "y", "a"), ("y", "a"), ("a", "du"), ("y", "a", "du"),
    ("du", "sel"), ("sel", "poivre"), ("il", "y", "a", "du"),
})


class TestMergeNgrams:
    @pytest.mark.parametrize("max_n", [2, 3, 4])
    def test_random_streams(self, max_n):
        rng = SplitMix64(max_n)
        for _ in range(300):
            tokens = _stream(rng)
            assert merge_ngrams(tokens, AGGLUTINATION, max_n) == _reference_merge(
                tokens, AGGLUTINATION, max_n)

    def test_ngram_at_the_end_of_the_stream(self):
        for tokens in [("four", "il", "y"), ("four", "il", "y", "a"), ("il",), ("y", "a")]:
            assert merge_ngrams(tokens, AGGLUTINATION, 3) == _reference_merge(
                tokens, AGGLUTINATION, 3)
        assert merge_ngrams(("four", "il", "y", "a"), AGGLUTINATION, 3) == ["four", "il_y_a"]

    def test_model_with_a_single_token_gram(self):
        model = AgglutinationModel(AGGLUTINATION | {("sel",)})
        tokens = ("sel", "poivre", "sel")
        assert merge_ngrams(tokens, model, 3) == _reference_merge(tokens, model, 3)

    def test_no_model_merges_nothing(self):
        assert merge_ngrams(("il", "y", "a"), None, 3) == ["il", "y", "a"]

    def test_loaded_model_keeps_its_index(self, tmp_path):
        save_agglutination_model(AGGLUTINATION, tmp_path / "agglutination.txt")
        model = load_agglutination_model(tmp_path / "agglutination.txt")
        assert model == AGGLUTINATION
        assert model.starts is model.starts
        assert model.starts["il"] == {"y"} and model.starts["y"] == {"a"}

    def test_merge_across_the_title_body_joint(self):
        config = NormConfig(agglutinate=True, agglutination_max_n=3)
        plain = analyze(Recipe("r", "Il y", "a du sel."), config)
        merged = with_agglutination(plain, config, AGGLUTINATION)
        assert merged.title == ("il_y",)
        assert merged.body == ("a_du", "sel")
        assert list(merged.title_body) == _reference_merge(plain.plain, AGGLUTINATION, 3)
        assert merged.title_body == ("il_y_a", "du_sel")

    def test_random_joints(self):
        config = NormConfig(agglutinate=True, agglutination_max_n=3)
        rng = SplitMix64(11)
        for _ in range(200):
            plain = _analysis(_stream(rng, longest=6), _stream(rng))
            merged = with_agglutination(plain, config, AGGLUTINATION)
            for view, stream in ((merged.title, plain.title), (merged.body, plain.body),
                                 (merged.title_body, plain.plain)):
                assert list(view) == _reference_merge(stream, AGGLUTINATION, 3)


# --------------------------------------------------------------------
# lexicon scan
# --------------------------------------------------------------------

def _reference_extract(analysis, lexicon):
    tokens = [fold_token(t) for t in analysis.plain]
    counts = {}
    generics_found = set()
    i = 0
    while i < len(tokens):
        for width in range(3, 0, -1):
            if i + width > len(tokens):
                continue
            form = " ".join(tokens[i:i + width])
            if form in lexicon.entries:
                counts[form] = counts.get(form, 0) + 1
                i += width
                break
        else:
            if tokens[i] in lexicon.generic_terms:
                generics_found.add(tokens[i])
            i += 1
    return counts, frozenset(generics_found)


SCAN_WORDS = ["crème", "fraîche", "fromage", "blanc", "sel", "de", "poivre", "viande",
              "haché", "le"]


def _scan_lexicon():
    entries = {
        "crème fraîche", "crème", "crème fraîche épaisse",   # shared first token
        "fromage blanc", "fromage blanc de chèvre",          # starts with a generic
        "sel de poivre le blanc",                            # longer than 3 tokens
        "sel", "de poivre", "poivre", "viande haché",
    }
    generics = frozenset(fold_token(g) for g in GENERIC_TERMS)
    return IngredientLexicon(entries, generics, {g: {} for g in generics}, {})


class TestExtractCandidates:
    def test_random_streams(self):
        lexicon = _scan_lexicon()
        rng = SplitMix64(3)
        for _ in range(400):
            analysis = _analysis((), _stream(rng, SCAN_WORDS, 25))
            candidates, generics = extract_candidates(analysis, lexicon)
            counts, expected_generics = _reference_extract(analysis, lexicon)
            assert generics == expected_generics
            assert {c.ingredient: c.confidence for c in candidates.items} == {
                form: min(1.0, tf / 2 + 0.5) for form, tf in counts.items()}

    @pytest.mark.parametrize("tokens", [
        ("fromage", "blanc", "de", "sel"),      # an entry that starts with a generic
        ("sel", "de", "poivre", "le", "blanc"),  # a 5-token entry never matches
        ("crème", "fraîche", "crème"),
        ("le", "sel", "fromage"),               # a generic at the end of the stream
        ("poivre", "viande"),
        ("viande", "haché"),
        (),
    ])
    def test_edge_streams(self, tokens):
        lexicon = _scan_lexicon()
        analysis = _analysis((), tokens)
        candidates, generics = extract_candidates(analysis, lexicon)
        counts, expected_generics = _reference_extract(analysis, lexicon)
        assert generics == expected_generics
        assert sorted(candidates.ingredients()) == sorted(counts)

    def test_generic_found_only_outside_matches(self):
        lexicon = _scan_lexicon()
        _, generics = extract_candidates(_analysis((), ("fromage", "blanc")), lexicon)
        assert generics == frozenset()
        _, generics = extract_candidates(_analysis((), ("sel", "fromage")), lexicon)
        assert generics == {"fromage"}


# --------------------------------------------------------------------
# boost presence tests
# --------------------------------------------------------------------

def _boost_model(rng: SplitMix64) -> BoostModel:
    classes = ["Dessert", "Entree", "PlatPrincipal"]
    rounds = [
        ("text", "title", "il y a du"),      # longer than the title's max n
        ("text", "title", ""),               # an empty n-gram cell
        ("text", "title", "il"),
        ("text", "title", "il y"),           # repeated first tokens
        ("text", "title", "il y a"),
        ("text", "title", "il sel"),
        ("text", "body", "du sel poivre four"),
        ("text", "body", "du sel"),
        ("text", "body", "du"),
        ("text", "body", "sel poivre four il y"),
        ("text", "ingredients", "sel"),
        ("text", "ingredients", "poivre four"),
        ("numeric", "body_words", 12.5),
        ("numeric", "sentences", 1.5),
    ]
    hyps = []
    for kind, field, value in rounds:
        votes = [{c: rng.uniform() - 0.5 for c in classes} for _ in range(2)]
        hyps.append(WeakHypothesis(kind, field, value if kind == "text" else None,
                                   value if kind == "numeric" else None, *votes))
    return BoostModel(hyps, classes)


def test_indexed_boost_scores_equal_full_features():
    rng = SplitMix64(5)
    model = _boost_model(rng)
    index = presence_index(model)
    assert index["title"] == {"il": (1, 2, 3), "": (1,)}
    for _ in range(300):
        analysis = _analysis(_stream(rng, longest=5), _stream(rng),
                             body_text="Cuire. Servir ! " * rng.below(3))
        items = [list(_stream(rng, longest=3)) for _ in range(rng.below(4))]
        full = score_boost(model, recipe_boost_features(analysis, items))
        indexed = score_boost(model, recipe_boost_features(analysis, items, index))
        assert indexed == full


# --------------------------------------------------------------------
# numeric features
# --------------------------------------------------------------------

def _reference_counts(body: str) -> tuple[int, int]:
    sentences = 0
    segment_has_content = False
    for ch in body:
        if ch in ".!?":
            if segment_has_content:
                sentences += 1
            segment_has_content = False
        elif not ch.isspace():
            segment_has_content = True
    if segment_has_content:
        sentences += 1
    return sentences, sum(1 for ch in body if ch in ".,:;!?")


@pytest.mark.parametrize("body", [
    "", ".", "?!.", "...", "  .  ! ", "Cuire", "Cuire. Servir", "Cuire.\n Servir. ",
    "Quoi?!... Oui!!", "a, b; c: d.", " . ! ", "x ", " x. y",
    "Fin.\n\t", "\u00a0", "Cuire.\u00a0Servir", "\u2009.\u2009!", "a.\u2009",
    "\u3000\u00a0", "Cuire.\u2009",
])
def test_numeric_counts_match_the_character_loop(body):
    features = numeric_features(_analysis((), (), body_text=body), [])
    assert (features["sentences"], features["separators"]) == _reference_counts(body)
