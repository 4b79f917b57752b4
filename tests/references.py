"""Straight-line forms of the scoring path, kept as test references,
and the lookups and constructors only tests need.

The package computes the same values with per-config memos and
per-model term tables (see ``test_scoring_path.py``); these functions
do the work the plain way, one recipe, one model and one token at a
time, in the accumulation order the package must reproduce bit for bit.
"""

from __future__ import annotations

import math
import types
import unicodedata
from collections import Counter
from pathlib import Path
from typing import NamedTuple

from recipetext.corpus import Corpus, LabelKind, Recipe
from recipetext.cosine import (
    STANDARD,
    CosineModel,
    HierarchicalCosineModel,
    _context_of,
    score_cosine as package_score_cosine,
)
from recipetext.evaluation import QrelSet
from recipetext.extraction import CandidateList, IngredientLexicon, _generic_counts
from recipetext.features import Feed, LexiconStats, feed_tokens, tfidf_vector
from recipetext.fusion import ElectreParams
from recipetext.scores import ScoreVector
from recipetext.summation import ordered_sum
from recipetext.textnorm import (
    _FRENCH_NUMBERS,
    _TOKEN_RE,
    NormConfig,
    _apply_abbrev,
    _apply_numbers,
)


def gini(stats: LexiconStats, term: str) -> float | None:
    """G(t) in [1/|C|, 1], or None for terms unseen in training."""
    return stats.gini.get(term)


class Counts(NamedTuple):
    df: int
    df_train: int
    df_class: dict[str, int]  # every class of the statistics


def term_counts(stats: LexiconStats) -> dict[str, Counts]:
    """Each term's counts, read off the statistics' columns."""
    return {term: Counts(df, df_train, dict(zip(stats.classes, per_class)))
            for term, df, df_train, *per_class
            in zip(stats.terms, stats.df, stats.df_train, *stats.df_class)}


def gini_and_idf(stats: LexiconStats) -> tuple[dict[str, float], dict[str, float]]:
    """G(t) per training term and idf per corpus term, one term at a time;
    ``LexiconStats`` computes both down its columns, bit for bit the same."""
    gini, idf = {}, {}
    for term, info in term_counts(stats).items():
        if info.df > 0:
            idf[term] = math.log(stats.corpus_size / info.df)
        if info.df_train == 0:
            continue
        total = 0.0
        for cls in stats.classes:
            ratio = info.df_class[cls] / info.df_train
            total += ratio * ratio
        gini[term] = total
    return gini, idf


def context_stats(train: Corpus, full: Corpus, analyses, feed: Feed,
                  grouping: dict[str, str]) -> LexiconStats:
    """The statistics of one hierarchy context counted from the recipes:
    the training recipes whose class is a key of ``grouping``, each
    labelled by its group, df over ``full``."""
    labels = {rid: grouping[leaf] for rid, leaf in train.labels().items() if leaf in grouping}
    members = [recipe for recipe in train if recipe.id in labels]
    by_group: dict[str, Counter] = {}
    df_train = Counter()
    for recipe in members:
        terms = set(feed_tokens(analyses[recipe.id], feed))
        by_group.setdefault(labels[recipe.id], Counter()).update(terms)
        df_train.update(terms)
    df_full = Counter()
    for recipe in full:
        df_full.update(set(feed_tokens(analyses[recipe.id], feed)))
    terms = sorted(df_full.keys() | df_train.keys())
    groups = sorted(by_group)
    return LexiconStats(
        corpus_size=len(full),
        train_size=len(members),
        classes=groups,
        class_sizes={g: sum(1 for r in members if labels[r.id] == g) for g in groups},
        terms=terms,
        df=[max(df_full[t], df_train[t]) for t in terms],
        df_train=[df_train[t] for t in terms],
        df_class=[[by_group[g][t] for t in terms] for g in groups],
        feed=feed,
    )


def uniform_electre(methods: list[str], concordance_threshold: float,
                    veto: float = 0.5) -> ElectreParams:
    """ELECTRE parameters weighting every method 1 with one veto value."""
    return ElectreParams(
        method_weights={m: 1.0 for m in methods},
        concordance_threshold=concordance_threshold,
        veto_values={m: veto for m in methods},
    )


CORPUSGEN = Path(__file__).resolve().parents[1] / "perfbench" / "corpusgen.py"


def perfbench_corpus(seed: int, n: int, label_kind: LabelKind) -> Corpus:
    """A training corpus of the benchmark's generator, run from its
    source text so that nothing is written next to it."""
    module = types.ModuleType("perfbench_corpusgen")
    exec(compile(CORPUSGEN.read_text(encoding="utf-8"), str(CORPUSGEN), "exec"),
         module.__dict__)
    corpus = module.generate(CORPUSGEN.parents[1], seed, "tr", n)
    return Corpus(corpus.recipes, label_kind)


def by_id(corpus: Corpus, recipe_id: str) -> Recipe:
    return next(r for r in corpus if r.id == recipe_id)


def skipped_ids(qrels: QrelSet) -> list[str]:
    """The qrel recipes with an empty gold set."""
    return sorted(rid for rid, items in qrels.gold.items() if not items)


def generic_posteriors(generic: str, candidates: CandidateList,
                       lexicon: IngredientLexicon) -> dict[str, float]:
    """The full smoothed posterior over a generic's specifics (sums to 1)."""
    counts, denom = _generic_counts(generic, candidates, lexicon)
    return {x: (count + 1) / denom for x, count in counts.items()}


def base_tokens(text: str) -> list[str]:
    """Step 1: strip punctuation, isolate words, split clitics, lowercase."""
    text = unicodedata.normalize("NFC", text).replace("’", "'").lower()
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        piece = match.group(0)
        while "'" in piece[:-1]:
            cut = piece.index("'") + 1
            tokens.append(piece[:cut])
            piece = piece[cut:]
        if piece:
            tokens.append(piece)
    return tokens


def normalize(text: str, config: NormConfig) -> list[str]:
    """Steps 1-3 over the whole token stream of the text, no memo."""
    tokens = _apply_abbrev(base_tokens(text), config.abbrev_table)
    if config.number_conversion:
        tokens = _apply_numbers(tokens, _FRENCH_NUMBERS)
    return tokens


def recipe_vector(model: CosineModel, analysis) -> dict[str, float]:
    """tf*idf*G over the recipe's terms whose G reaches the threshold."""
    stats = model.stats
    vector = {}
    for term, tf in Counter(feed_tokens(analysis, stats.feed)).items():
        g = gini(stats, term)
        if g is None or g < model.gini_threshold:
            continue
        weight = tf * stats.idf[term] * g
        if weight != 0.0:
            vector[term] = weight
    return vector


def class_vectors(model: CosineModel) -> dict[str, dict[str, float]]:
    """(df_c + boost)*idf*G per class over the terms whose G reaches the
    threshold, built from the model's statistics; zeros dropped."""
    stats, boosts = model.stats, model.class_boosts
    counts = term_counts(stats)
    vectors = {}
    for cls in stats.classes:
        vector = {}
        for term in sorted(counts):
            g = gini(stats, term)
            if g is None or g < model.gini_threshold:
                continue
            df_c = counts[term].df_class.get(cls, 0) + boosts.get((term, cls), 0)
            weight = df_c * stats.idf[term] * g
            if weight != 0.0:
                vector[term] = weight
        vectors[cls] = vector
    return vectors


def table_vectors(model: CosineModel) -> dict[str, dict[str, float]]:
    """The class vectors the model's term table holds; zeros dropped."""
    return {cls: {term: entry[col] for term, entry in model.terms.items() if entry[col] != 0.0}
            for col, cls in enumerate(model.stats.classes, 2)}


def score_cosine(model: CosineModel, analysis) -> ScoreVector:
    """The cosine of each class vector with the recipe vector, one class
    at a time over the shared terms in sorted order."""
    v_r = recipe_vector(model, analysis)
    terms = sorted(v_r)
    norm_r = math.sqrt(ordered_sum(v_r[t] * v_r[t] for t in terms))
    scores = {}
    for cls, v_c in class_vectors(model).items():
        norm_c = math.sqrt(ordered_sum(v_c[t] * v_c[t] for t in sorted(v_c)))
        shared = [t for t in terms if t in v_c]
        numerator = ordered_sum(v_r[t] * v_c[t] for t in shared)
        if numerator == 0.0:
            scores[cls] = 0.0
            continue
        if model.denominator_mode == STANDARD:
            denominator = norm_r * norm_c
        else:
            denominator = math.sqrt(ordered_sum((v_r[t] * v_c[t]) ** 2 for t in shared))
        scores[cls] = numerator / denominator if denominator != 0.0 else 0.0
    return ScoreVector(analysis.recipe.id, "cosine_flat", scores)


def normalize_scores(vector: ScoreVector) -> ScoreVector:
    """Scores shifted by -min when it is below zero, then divided by
    their sum in sorted class order (uniform on a zero sum); keys in the
    vector's order."""
    values = vector.scores
    low = min(values.values())
    shifted = {c: v - low for c, v in values.items()} if low < 0 else dict(values)
    total = ordered_sum(shifted[c] for c in sorted(shifted))
    if total == 0.0:
        normalized = {c: 1.0 / len(shifted) for c in shifted}
    else:
        normalized = {c: v / total for c, v in shifted.items()}
    return ScoreVector(vector.recipe_id, vector.method_id, normalized)


def classify_hierarchical(model: HierarchicalCosineModel, analysis) -> ScoreVector:
    """Each context's two feeds scored (``score_cosine``, itself checked
    against ``score_cosine`` above), normalized and mixed as score
    dicts; then each leaf's product over the stages of its path's
    context scores, walked by ``_context_of``."""
    spec = model.spec
    mixed: dict[tuple[int, str], dict[str, float]] = {}
    for (stage_idx, context), per_feed in model.stage_models.items():
        alpha = spec.stages[stage_idx].alpha
        title = normalize_scores(package_score_cosine(per_feed[Feed.TITLE_ONLY],
                                                      analysis)).scores
        both = normalize_scores(package_score_cosine(per_feed[Feed.TITLE_AND_BODY],
                                                     analysis)).scores
        mixed[(stage_idx, context)] = {
            group: alpha * title[group] + (1.0 - alpha) * both[group] for group in title}
    leaf_scores = {}
    for leaf in spec.leaves():
        product = 1.0
        for stage_idx, stage in enumerate(spec.stages):
            scores = mixed.get((stage_idx, _context_of(spec, stage_idx, leaf)))
            if scores is not None:
                product *= scores[stage.grouping[leaf]]
        leaf_scores[leaf] = product
    return ScoreVector(analysis.recipe.id, "cosine_hier", leaf_scores)


def margin(model, vector: dict[str, float]) -> float:
    """w.x + b of one pair model, accumulated over the vector's terms in
    sorted order."""
    total = 0.0
    for term in sorted(vector):
        w = model.weights.get(term)
        if w is not None:
            total += w * vector[term]
    return total + model.bias


def score_ovo(model, analysis, stats) -> ScoreVector:
    """Each pair's margin on the (vocab-filtered) tf-idf vector, added to
    its first class and subtracted from its second."""
    vector = tfidf_vector(analysis, stats)
    if model.vocab_filter is not None:
        vector = {t: w for t, w in vector.items() if t in model.vocab_filter}
    scores = {cls: 0.0 for cls in model.classes}
    for pair_model in model.pair_models:
        first, second = pair_model.class_pair
        m = margin(pair_model, vector)
        scores[first] += m
        scores[second] -= m
    return ScoreVector(analysis.recipe.id, "svm", scores)
