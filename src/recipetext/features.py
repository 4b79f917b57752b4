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
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import chain, repeat
from operator import le, lt
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigError, DataError, ModelMismatchError
from .textnorm import Analysis
from .tsv import Header, check_widths, read_rows, write_lines

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
class LexiconStats:
    """The statistics as columns over ``terms``, which are in strictly
    ascending order: ``df`` and ``df_train`` per term, and one
    ``df_class`` column per class in ``classes`` order."""

    corpus_size: int
    train_size: int
    classes: list[str]
    class_sizes: dict[str, int]
    terms: list[str]
    df: list[int]          # docs containing the term, full corpus
    df_train: list[int]    # docs containing the term, training corpus
    df_class: list[list[int]]
    feed: Feed = Feed.TITLE_AND_BODY
    # G(t) per training term and idf per corpus term, computed once from the columns
    gini: dict[str, float] = field(init=False, repr=False, compare=False)
    idf: dict[str, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.corpus_size
        self.idf = {term: math.log(n / df) for term, df in zip(self.terms, self.df) if df > 0}
        # G = 0.0 + r*r over the classes in order, r = df_c / df_T
        totals = [0.0] * len(self.terms)
        for column in self.df_class:
            totals = [total + (r := df_c / df_t) * r if df_t else total
                      for total, df_c, df_t in zip(totals, column, self.df_train)]
        self.gini = {term: total for term, total, df_t in zip(self.terms, totals, self.df_train)
                     if df_t}


def build_stats(train: Corpus, full: Corpus, analyses: Mapping[str, Analysis],
                feed: Feed = Feed.TITLE_AND_BODY) -> LexiconStats:
    """Collect df/df_T/df_c statistics: df over ``full``, df_T and df_c
    over ``train`` by gold label. ``analyses`` maps every recipe id of
    both corpora to its analysis.
    """
    if len(train) == 0:
        raise DataError("build_stats needs a non-empty training corpus")
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

    terms = sorted(df_full.keys() | df_train.keys())
    class_sizes = dict(sorted(Counter(labels[recipe.id] for recipe in train).items()))
    train_column = [df_train[term] for term in terms]
    return LexiconStats(
        corpus_size=len(full),
        train_size=len(train),
        classes=sorted(class_sizes),
        class_sizes=class_sizes,
        terms=terms,
        # train not a subset of full: count the missing docs into df
        df=[max(df_full[term], n) for term, n in zip(terms, train_column)],
        df_train=train_column,
        df_class=[[by_class[cls][term] for term in terms] for cls in class_sizes],
        feed=feed,
    )


def group_stats(stats: LexiconStats, grouping: Mapping[str, str]) -> LexiconStats:
    """The statistics of the training docs whose class is a key of
    ``grouping``, each labelled by its group. A doc has one class, so a
    group's df_c column and size are the sums of its classes', and df_T
    sums the group columns; terms, df, the corpus size and the feed are
    shared with ``stats``."""
    by_class = dict(zip(stats.classes, stats.df_class))
    groups = sorted(set(grouping.values()))
    members = [[cls for cls in grouping if grouping[cls] == group] for group in groups]
    sizes = [sum(stats.class_sizes[cls] for cls in classes) for classes in members]
    df_class = [list(map(sum, zip(*[by_class[cls] for cls in classes]))) for classes in members]
    return replace(stats, train_size=sum(sizes), classes=groups,
                   class_sizes=dict(zip(groups, sizes)),
                   df_train=list(map(sum, zip(*df_class))), df_class=df_class)


def tfidf_vector(analysis: Analysis, stats: LexiconStats) -> SparseVector:
    """tf * idf weights over the recipe's in-lexicon terms; zeros dropped."""
    counts = Counter(feed_tokens(analysis, stats.feed))
    vector: SparseVector = {}
    for term, tf in counts.items():
        idf = stats.idf.get(term)
        if idf is None:
            continue
        weight = tf * idf
        if weight != 0.0:
            vector[term] = weight
    return vector


def mutual_information(n11: int, n1_: int, n_1: int, n: int) -> float:
    """2x2 mutual information between term presence and class membership,
    from n11 training docs of the class holding the term, n1_ training
    docs holding it, n_1 docs of the class and n docs in all."""
    n10 = n1_ - n11
    n01 = n_1 - n11
    n00 = n - n1_ - n_1 + n11
    n0_ = n - n1_
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
    n = stats.train_size
    sizes = [stats.class_sizes[cls] for cls in stats.classes]
    scored = [(-max(map(mutual_information, per_class, repeat(df_t), sizes, repeat(n))), term)
              for term, df_t, *per_class in zip(stats.terms, stats.df_train, *stats.df_class)
              if df_t]
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


def save_stats(stats: LexiconStats, path: str | Path) -> None:
    """Write the statistics as diff-friendly TSV lines (see ``load_stats``)."""
    lines = [
        "#lexstats\tv1",
        f"#corpus_size\t{stats.corpus_size}",
        f"#train_size\t{stats.train_size}",
        "#classes\t" + ",".join(stats.classes),
        "#class_sizes\t" + ",".join(str(stats.class_sizes[c]) for c in stats.classes),
        f"#feed\t{stats.feed.value}",
        "#columns\tterm\tdf\tdf_train\t" + "\t".join("df:" + c for c in stats.classes),
    ]
    lines += map("\t".join, zip(stats.terms, *[map(str, column) for column in
                                              (stats.df, stats.df_train, *stats.df_class)]))
    write_lines(path, lines)


def _well_formed(terms: list[str], columns: list[list[int]]) -> bool:
    """Terms are not empty, and the count columns (df, df_train, then one
    per class) hold 0 <= df_c <= df_train <= df on every row."""
    df, df_train, *df_class = columns
    return (all(terms) and all(min(column, default=0) >= 0 for column in df_class)
            and all(map(le, df_train, df))
            and all(all(map(le, column, df_train)) for column in df_class))


def load_stats(path: str | Path) -> LexiconStats:
    """The statistics in a ``save_stats`` file. All rows are checked at
    once; only a failure goes row by row, to name the first bad one."""
    rows = read_rows(path)
    if not rows or rows[0] != ["#lexstats", "v1"]:
        raise ModelMismatchError(f"{path}: not a v1 lexstats table")
    header, body = Header.split(rows[1:], path, {
        "#corpus_size": 2, "#train_size": 2, "#classes": 2, "#class_sizes": 2, "#feed": 2,
        "#columns": None})
    classes = header["classes"][1].split(",")
    if not all(map(lt, ["", *classes], classes)):  # "" first: no class is empty
        raise header["classes"].fail("classes must be non-empty and strictly ascending")
    sizes = header["class_sizes"].parse(1, lambda cell: [int(n) for n in cell.split(",")])
    if len(sizes) != len(classes):
        raise header["class_sizes"].fail(f"expected one size per class {classes}")
    m = 2 + len(classes)
    cells = list(chain.from_iterable(check_widths(body, 1 + m)))
    terms = cells[::1 + m]
    del cells[::1 + m]
    try:
        counts = list(map(int, cells))
    except ValueError:
        counts = []
    columns = [counts[c::m] for c in range(m)]
    if (len(counts) < len(cells) or not _well_formed(terms, columns)
            or not all(map(lt, terms, terms[1:]))):
        previous = ""
        for row in body:
            if not _well_formed(row[:1], [[row.int(i)] for i in range(1, 1 + m)]):
                raise row.fail("empty term, or counts outside 0 <= df_c <= df_train <= df")
            if row[0] <= previous:
                raise row.fail(f"repeated key {row[0]!r}" if row[0] == previous else
                               f"term {row[0]!r} after {previous!r}: terms must be in "
                               "strictly ascending order")
            previous = row[0]
    df, df_train, *df_class = columns
    return LexiconStats(
        corpus_size=header["corpus_size"].int(1),
        train_size=header["train_size"].int(1),
        classes=classes,
        class_sizes=dict(zip(classes, sizes)),
        terms=terms,
        df=df,
        df_train=df_train,
        df_class=df_class,
        feed=header["feed"].parse(1, Feed),
    )


__all__ = [
    "Feed",
    "LexiconStats",
    "NUMERIC_FIELDS",
    "SparseVector",
    "TermCounts",
    "build_stats",
    "feed_counts",
    "feed_tokens",
    "group_stats",
    "load_stats",
    "mutual_information",
    "mutual_information_select",
    "numeric_features",
    "save_stats",
    "tfidf_vector",
]
