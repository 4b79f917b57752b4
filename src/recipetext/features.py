"""Lexicon statistics and recipe vectorization.

Terms are unigrams of the normalized token stream (composite
agglutinated tokens count as single terms). Document frequencies are
kept twice on purpose: df over the full corpus drives idf, while df_T
and the per-class df_c over the training corpus drive the Gini purity
index G(t) = sum_c (df_c(t)/df_T(t))^2.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigError, DataError, ModelMismatchError
from .textnorm import Analysis
from .tsv import Header, Row, read_rows, write_lines

SparseVector = dict[str, float]


class Feed(Enum):
    """Which part of a recipe feeds the vectorizers."""

    TITLE_ONLY = "title"
    TITLE_AND_BODY = "title_body"


def feed_tokens(analysis: Analysis, feed: Feed) -> tuple[str, ...]:
    """The analysis view a feed reads."""
    if feed is Feed.TITLE_ONLY:
        return analysis.title
    return analysis.title_body


@dataclass
class TermStats:
    df: int = 0          # docs containing the term, full corpus
    df_train: int = 0    # docs containing the term, training corpus
    df_class: dict[str, int] = field(default_factory=dict)


@dataclass
class LexiconStats:
    corpus_size: int
    train_size: int
    classes: list[str]
    class_sizes: dict[str, int]
    terms: dict[str, TermStats]
    feed: Feed = Feed.TITLE_AND_BODY
    # G(t) per training term and idf per corpus term, computed once from ``terms``
    _gini: dict[str, float] = field(init=False, repr=False, compare=False)
    _idf: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._gini = {}
        self._idf = {}
        for term, stats in self.terms.items():
            if stats.df > 0:
                self._idf[term] = math.log(self.corpus_size / stats.df)
            if stats.df_train == 0:
                continue
            total = 0.0
            for cls in self.classes:
                ratio = stats.df_class.get(cls, 0) / stats.df_train
                total += ratio * ratio
            self._gini[term] = total

    def tokenize(self, analysis: Analysis) -> tuple[str, ...]:
        return feed_tokens(analysis, self.feed)

    def idf(self, term: str) -> float:
        idf = self._idf.get(term)
        if idf is None:
            raise DataError(f"term {term!r} not in lexicon")
        return idf

    def gini(self, term: str) -> float | None:
        """G(t) in [1/|C|, 1], or None for terms unseen in training."""
        return self._gini.get(term)


def build_stats(train: Corpus, full: Corpus, analyses: Mapping[str, Analysis],
                feed: Feed = Feed.TITLE_AND_BODY,
                labels: dict[str, str] | None = None) -> LexiconStats:
    """Collect df/df_T/df_c statistics.

    df is counted over ``full``; df_T and df_c over ``train``, whose
    gold labels may be overridden through ``labels`` (used by the
    hierarchical classifier to train on superclass groupings).
    ``analyses`` maps every recipe id of both corpora to its analysis.
    """
    if len(train) == 0:
        raise DataError("build_stats needs a non-empty training corpus")
    if labels is None:
        labels = train.labels()

    terms: dict[str, TermStats] = {}
    train_ids = set()
    for recipe in train:
        train_ids.add(recipe.id)
        seen = set(feed_tokens(analyses[recipe.id], feed))
        cls = labels[recipe.id]
        for term in seen:
            stats = terms.setdefault(term, TermStats())
            stats.df_train += 1
            stats.df_class[cls] = stats.df_class.get(cls, 0) + 1

    for recipe in full:
        seen = set(feed_tokens(analyses[recipe.id], feed))
        for term in seen:
            stats = terms.setdefault(term, TermStats())
            stats.df += 1

    for term, stats in terms.items():
        if stats.df < stats.df_train:
            # train not a subset of full: count the missing docs into df
            stats.df = stats.df_train

    class_sizes: dict[str, int] = {}
    for rid in sorted(train_ids):
        cls = labels[rid]
        class_sizes[cls] = class_sizes.get(cls, 0) + 1

    return LexiconStats(
        corpus_size=len(full),
        train_size=len(train),
        classes=sorted(class_sizes),
        class_sizes=class_sizes,
        terms=terms,
        feed=feed,
    )


def tfidf_vector(analysis: Analysis, stats: LexiconStats) -> SparseVector:
    """tf * idf weights over the recipe's in-lexicon terms; zeros dropped."""
    counts = Counter(stats.tokenize(analysis))
    vector: SparseVector = {}
    for term, tf in counts.items():
        idf = stats._idf.get(term)
        if idf is None:
            continue
        weight = tf * idf
        if weight != 0.0:
            vector[term] = weight
    return vector


def gini_filtered_vocabulary(stats: LexiconStats, gini_threshold: float) -> list[str]:
    """Training terms with G(t) >= threshold, sorted."""
    if not 0.0 <= gini_threshold <= 1.0:
        raise ConfigError("gini_threshold must lie in [0, 1]")
    vocab = []
    for term in sorted(stats.terms):
        g = stats.gini(term)
        if g is not None and g >= gini_threshold:
            vocab.append(term)
    return vocab


def class_vector(cls: str, stats: LexiconStats, vocab) -> SparseVector:
    vector: SparseVector = {}
    for term in vocab:
        info = stats.terms[term]
        df_c = info.df_class.get(cls, 0)
        if df_c == 0:
            continue
        weight = df_c * stats.idf(term) * stats.gini(term)
        if weight != 0.0:
            vector[term] = weight
    return vector


def mutual_information(stats: LexiconStats, term: str, cls: str) -> float:
    """2x2 mutual information between term presence and class membership."""
    info = stats.terms.get(term)
    if info is None or info.df_train == 0:
        return 0.0
    n = stats.train_size
    n11 = info.df_class.get(cls, 0)
    n10 = info.df_train - n11
    n01 = stats.class_sizes[cls] - n11
    n00 = n - info.df_train - stats.class_sizes[cls] + n11
    n1_ = info.df_train
    n0_ = n - n1_
    n_1 = stats.class_sizes[cls]
    n_0 = n - n_1
    total = 0.0
    for nij, ni, nj in ((n11, n1_, n_1), (n10, n1_, n_0),
                        (n01, n0_, n_1), (n00, n0_, n_0)):
        if nij == 0 or ni == 0 or nj == 0:
            continue
        total += (nij / n) * math.log(n * nij / (ni * nj))
    return total


def mutual_information_select(stats: LexiconStats, k: int) -> list[str]:
    """Up to k training terms ranked by max-over-classes MI.

    The ranking is computed once and truncated, so select(k1) is a
    prefix of select(k2) whenever k1 <= k2. Ties break lexicographically.
    """
    if k < 1:
        raise ConfigError("k must be >= 1")
    scored = []
    for term in sorted(stats.terms):
        if stats.terms[term].df_train == 0:
            continue
        best = max(mutual_information(stats, term, cls) for cls in stats.classes)
        scored.append((-best, term))
    scored.sort()
    return [term for _, term in scored[:k]]


@dataclass(frozen=True)
class NumericFeatures:
    title_word_count: int
    body_word_count: int
    sentence_count: int
    separator_count: int
    ingredient_list_size: int

    def as_mapping(self) -> dict[str, float]:
        return {
            "title_words": float(self.title_word_count),
            "body_words": float(self.body_word_count),
            "sentences": float(self.sentence_count),
            "separators": float(self.separator_count),
            "ingredient_count": float(self.ingredient_list_size),
        }


NUMERIC_FIELDS = ["title_words", "body_words", "sentences", "separators", "ingredient_count"]

_SEPARATORS = ".,:;!?"


def numeric_features(analysis: Analysis, ingredients: list) -> NumericFeatures:
    """The five continuous features: word counts on the analyzed title
    and body, sentence and separator counts on the raw body, and the
    number of ingredient items.

    Sentences are the maximal body segments ended by '.', '!' or '?';
    a trailing segment without terminator counts as one sentence.
    """
    recipe = analysis.recipe
    title_words = len(analysis.title)
    body_words = len(analysis.body)

    sentences = 0
    segment_has_content = False
    for ch in recipe.body:
        if ch in ".!?":
            if segment_has_content:
                sentences += 1
            segment_has_content = False
        elif not ch.isspace():
            segment_has_content = True
    if segment_has_content:
        sentences += 1

    separators = sum(1 for ch in recipe.body if ch in _SEPARATORS)
    return NumericFeatures(title_words, body_words, sentences, separators, len(ingredients))


def stats_lines(stats: LexiconStats) -> list[str]:
    """The statistics table as diff-friendly TSV lines."""
    lines = [
        "#lexstats\tv1",
        f"#corpus_size\t{stats.corpus_size}",
        f"#train_size\t{stats.train_size}",
        "#classes\t" + ",".join(stats.classes),
        "#class_sizes\t" + ",".join(str(stats.class_sizes[c]) for c in stats.classes),
        f"#feed\t{stats.feed.value}",
        "#columns\tterm\tdf\tdf_train\t" + "\t".join("df:" + c for c in stats.classes),
    ]
    for term in sorted(stats.terms):
        info = stats.terms[term]
        row = [term, str(info.df), str(info.df_train)]
        row += [str(info.df_class.get(c, 0)) for c in stats.classes]
        lines.append("\t".join(row))
    return lines


def stats_from_rows(rows: list[Row], where) -> LexiconStats:
    """The statistics in the rows of a stats_lines table, its magic line
    first; ``where`` names the table in errors."""
    if not rows or rows[0] != ["#lexstats", "v1"]:
        raise ModelMismatchError(f"{where}: not a v1 lexstats table")
    header, body = Header.split(rows[1:], where)
    classes = header["classes"][1].split(",")
    sizes = header["class_sizes"].parse(1, lambda cell: [int(n) for n in cell.split(",")])
    if len(sizes) != len(classes):
        raise header["class_sizes"].fail(f"expected one size per class {classes}")
    terms: dict[str, TermStats] = {}
    width = 3 + len(classes)
    for row in body:
        df, df_train, *per_class = row.ints(1, width)
        df_class = {cls: n for cls, n in zip(classes, per_class) if n > 0}
        row.put(terms, row[0], TermStats(df=df, df_train=df_train, df_class=df_class))
    return LexiconStats(
        corpus_size=header["corpus_size"].int(1),
        train_size=header["train_size"].int(1),
        classes=classes,
        class_sizes=dict(zip(classes, sizes)),
        terms=terms,
        feed=header["feed"].parse(1, Feed),
    )


def save_stats(stats: LexiconStats, path: str | Path) -> None:
    write_lines(path, stats_lines(stats))


def load_stats(path: str | Path) -> LexiconStats:
    return stats_from_rows(read_rows(path), path)


__all__ = [
    "Feed",
    "LexiconStats",
    "NumericFeatures",
    "NUMERIC_FIELDS",
    "SparseVector",
    "TermStats",
    "build_stats",
    "class_vector",
    "feed_tokens",
    "gini_filtered_vocabulary",
    "load_stats",
    "mutual_information",
    "mutual_information_select",
    "numeric_features",
    "save_stats",
    "stats_from_rows",
    "stats_lines",
    "tfidf_vector",
]
