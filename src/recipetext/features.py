"""Lexicon statistics and recipe vectorization.

Terms are unigrams of the normalized token stream (composite
agglutinated tokens count as single terms). Document frequencies are
kept twice on purpose: df over the full corpus drives idf, while df_T
and the per-class df_c over the training corpus drive the Gini purity
index G(t) = sum_c (df_c(t)/df_T(t))^2.
"""

from __future__ import annotations

import math
import re
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


TermCounts = list[tuple[str, int]]


def feed_counts(analysis: Analysis) -> dict[Feed, TermCounts]:
    """Each feed's (term, tf) pairs, in sorted term order."""
    return {feed: sorted(Counter(feed_tokens(analysis, feed)).items()) for feed in Feed}


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

    by_class: dict[str, Counter] = {}
    for recipe in train:
        by_class.setdefault(labels[recipe.id], Counter()).update(
            set(feed_tokens(analyses[recipe.id], feed)))
    df_full = Counter()
    for recipe in full:
        df_full.update(set(feed_tokens(analyses[recipe.id], feed)))
    df_train = Counter()
    for counts in by_class.values():
        df_train.update(counts)

    terms: dict[str, TermStats] = {}
    for term in df_full.keys() | df_train.keys():
        n_train = df_train[term]
        terms[term] = TermStats(
            # train not a subset of full: count the missing docs into df
            df=max(df_full[term], n_train), df_train=n_train,
            df_class={cls: counts[term] for cls, counts in by_class.items() if term in counts})

    class_sizes = dict(sorted(Counter(labels[recipe.id] for recipe in train).items()))

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


NUMERIC_FIELDS = ["title_words", "body_words", "sentences", "separators", "ingredient_count"]

_SEPARATORS = ".,:;!?"
_TERMINATORS = re.compile(r"[.!?]")


def numeric_features(analysis: Analysis, ingredients: list) -> dict[str, float]:
    """The five continuous features: word counts on the analyzed title
    and body, sentence and separator counts on the raw body, and the
    number of ingredient items; keyed by NUMERIC_FIELDS, in its order.

    Sentences are the body segments between '.', '!' and '?' that hold
    a non-whitespace character, so a trailing segment without
    terminator counts as one sentence and runs like "?!." add none.
    """
    body = analysis.recipe.body
    sentences = sum(1 for segment in _TERMINATORS.split(body)
                    if segment and not segment.isspace())
    separators = sum(map(body.count, _SEPARATORS))
    counts = (len(analysis.title), len(analysis.body), sentences, separators, len(ingredients))
    return dict(zip(NUMERIC_FIELDS, map(float, counts)))


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
    "NUMERIC_FIELDS",
    "SparseVector",
    "TermCounts",
    "TermStats",
    "build_stats",
    "feed_counts",
    "feed_tokens",
    "load_stats",
    "mutual_information",
    "mutual_information_select",
    "numeric_features",
    "save_stats",
    "stats_from_rows",
    "stats_lines",
    "tfidf_vector",
]
