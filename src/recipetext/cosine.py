"""Gini-weighted cosine classifier, flat and hierarchical.

Flat mode matches a recipe vector (tf*idf*G per term) against one bag
vector per class (df_c*idf*G), over the vocabulary of terms whose Gini
purity reaches the configured threshold. Two denominators ship:

* standard  -- ||v_r|| * ||v_c||, each norm over the vector's full
  support; this is the cosine of the angle between the vectors;
* literal   -- sqrt(sum over shared terms of w_r^2 * w_c^2), the
  product-of-squares form kept for comparison.

Each model compiles one table, on its first score: Gini-kept term ->
(idf, G, w_c of every class), with 0.0 for a class whose vector lacks
the term. ``score_cosine`` reads a recipe as one list of (term, tf)
pairs in sorted term order (``features.feed_counts``; ``classify``
counts each feed once per recipe and hands the same lists to the flat
model and to every hierarchical context). One pass over that list
accumulates ||v_r||^2 and every class's numerator (and, for the
literal denominator, its sum of squared products). Each sum adds the
shared terms' products in sorted order, as a scan per class would.
The table's zeros, and recipe weights that are 0.0 (a term in every
document), add exact zeros, which change nothing: a sum that starts
at +0.0 never becomes -0.0, and adding a zero to any other float
leaves it as it is. So no score changes by a bit.

Hierarchical mode stacks two (or more) flat stages: each stage scores
superclass groups with two models fed from different views (title
only / title plus body), mixes the two normalized score vectors
linearly, and the final leaf score is the product of its path's stage
scores, so a full distribution over leaves comes out.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigError, DataError, ModelMismatchError, check_types, is_number
from .features import (
    Feed,
    LexiconStats,
    SparseVector,
    TermCounts,
    build_stats,
    class_vector,
    feed_counts,
    gini_filtered_vocabulary,
    stats_from_rows,
    stats_lines,
)
from .fusion import normalize_scores
from .scores import ScoreVector
from .summation import ordered_sum
from .textnorm import Analysis
from .tsv import Header, Row, read_rows, write_lines

STANDARD = "standard"
LITERAL = "literal"


def _check_alpha(alpha) -> None:
    if not is_number(alpha) or not 0.0 <= alpha <= 1.0:
        raise ConfigError(f"feed mix alpha {alpha!r} is not a number in [0, 1]")


@dataclass(frozen=True)
class CosineConfig:
    gini_threshold: float = 0.45
    denominator_mode: str = STANDARD
    alpha: float | None = None  # every hierarchy stage's feed mix, when set

    def __post_init__(self):
        check_types(self)
        if not 0.0 <= self.gini_threshold <= 1.0:
            raise ConfigError(f"gini_threshold {self.gini_threshold!r} is not in [0, 1]")
        if self.denominator_mode not in (STANDARD, LITERAL):
            raise ConfigError(f"unknown denominator mode {self.denominator_mode!r}")
        if self.alpha is not None:
            _check_alpha(self.alpha)


@dataclass
class CosineModel:
    class_vectors: dict[str, SparseVector]
    stats: LexiconStats
    gini_threshold: float
    denominator_mode: str = STANDARD
    method_id: str = "cosine"
    # ||v_c|| per class, classes in sorted order, each summed over the
    # vector's terms in sorted order
    class_norms: dict[str, float] = field(init=False, repr=False)

    def __post_init__(self):
        vectors = self.class_vectors
        self.class_norms = {
            cls: math.sqrt(ordered_sum(w * w for _, w in sorted(vectors[cls].items())))
            for cls in sorted(vectors)}

    @cached_property
    def terms(self) -> dict[str, tuple[float, ...]]:
        """Gini-kept term -> (idf, G, w_c of each class in class_norms
        order, 0.0 where the class vector lacks the term); built on the
        model's first score."""
        ordered = [self.class_vectors[cls] for cls in self.class_norms]
        return {term: (self.stats.idf(term), g, *(v_c.get(term, 0.0) for v_c in ordered))
                for term, g in self.stats._gini.items() if g >= self.gini_threshold}

    def classes(self) -> list[str]:
        return list(self.class_norms)


def build_class_vectors(stats: LexiconStats, classes: list[str], gini_threshold: float,
                        class_boosts: dict[tuple[str, str], int] | None = None,
                        ) -> dict[str, SparseVector]:
    """df_c*idf*G vectors over the Gini-filtered vocabulary, one per class.

    The construction is a pure function of the statistics, so a model
    reloaded from its stats rebuilds bit-identical vectors.
    """
    vocab = gini_filtered_vocabulary(stats, gini_threshold)
    vectors = {}
    for cls in classes:
        vector = class_vector(cls, stats, vocab)
        if class_boosts:
            for (term, boost_cls), extra in sorted(class_boosts.items()):
                if boost_cls != cls or term not in stats.terms:
                    continue
                g = stats.gini(term)
                if g is None or g < gini_threshold:
                    continue
                df_c = stats.terms[term].df_class.get(cls, 0) + extra
                vector[term] = df_c * stats.idf(term) * g
        vectors[cls] = vector
    return vectors


def train_cosine(stats: LexiconStats, gini_threshold: float, mode: str = STANDARD,
                 class_boosts: dict[tuple[str, str], int] | None = None,
                 method_id: str = "cosine") -> CosineModel:
    """One bag-of-words vector per class of ``stats`` over the
    Gini-filtered vocabulary.

    ``class_boosts`` optionally adds fictitious df_c counts for chosen
    (term, class) pairs before weighting, to reinforce pure high-coverage
    terms; a class whose vector comes out empty is kept (it scores 0).
    """
    vectors = build_class_vectors(stats, stats.classes, gini_threshold, class_boosts)
    return CosineModel(vectors, stats, gini_threshold, mode, method_id)


def score_cosine(model: CosineModel, analysis: Analysis,
                 counts: Mapping[Feed, TermCounts] | None = None) -> ScoreVector:
    """Similarity of the recipe to each class; empty overlaps score 0.

    ``counts`` is the recipe's ``feed_counts`` when the caller shares
    them across models; the model reads its own feed's pairs.
    """
    pairs = (feed_counts(analysis) if counts is None else counts)[model.stats.feed]
    literal = model.denominator_mode == LITERAL
    classes = range(len(model.class_norms))
    numerators = [0.0] * len(classes)
    products = [0.0] * len(classes)     # literal mode: sum of (w_r * w_c)^2
    squares = 0.0                       # ||v_r||^2
    table = model.terms
    for term, tf in pairs:
        entry = table.get(term)
        if entry is None:
            continue
        w_r = tf * entry[0] * entry[1]
        squares += w_r * w_r
        for ci in classes:
            product = w_r * entry[2 + ci]
            numerators[ci] += product
            if literal:
                products[ci] += product ** 2
    norm_r = math.sqrt(squares)
    scores = {}
    for ci, (cls, norm_c) in enumerate(model.class_norms.items()):
        numerator = numerators[ci]
        if numerator == 0.0:
            scores[cls] = 0.0
            continue
        denominator = math.sqrt(products[ci]) if literal else norm_r * norm_c
        scores[cls] = numerator / denominator if denominator != 0.0 else 0.0
    return ScoreVector(analysis.recipe.id, model.method_id, scores)


# --------------------------------------------------------------------
# Hierarchical strategy
# --------------------------------------------------------------------

@dataclass(frozen=True)
class HierarchyStage:
    grouping: dict[str, str]  # leaf class -> group label at this stage
    alpha: float = 0.5        # weight of the title-only feed

    def __post_init__(self):
        _check_alpha(self.alpha)


@dataclass(frozen=True)
class HierarchySpec:
    stages: tuple[HierarchyStage, ...]

    def __post_init__(self):
        if not self.stages:
            raise ConfigError("hierarchy needs at least one stage")
        leaves = set(self.stages[0].grouping)
        for i, stage in enumerate(self.stages):
            if set(stage.grouping) != leaves:
                raise ConfigError(f"stage {i} does not map every leaf class")
        final = self.stages[-1].grouping
        for leaf, group in final.items():
            if group != leaf:
                raise ConfigError("final stage must map each leaf to itself")
        for i in range(1, len(self.stages)):
            prev, cur = self.stages[i - 1].grouping, self.stages[i].grouping
            for a in leaves:
                for b in leaves:
                    if cur[a] == cur[b] and prev[a] != prev[b]:
                        raise ConfigError(
                            f"stage {i} group {cur[a]!r} straddles stage {i-1} groups")

    def leaves(self) -> list[str]:
        return sorted(self.stages[0].grouping)

    def contexts(self) -> dict[tuple[int, str], tuple[list[str], list[str]]]:
        """(stage index, context) -> the sorted leaves inside the context
        and the sorted groups they go to at that stage, keys in sorted
        order."""
        leaves: dict[tuple[int, str], list[str]] = {}
        for stage_idx in range(len(self.stages)):
            for leaf in self.leaves():
                leaves.setdefault((stage_idx, _context_of(self, stage_idx, leaf)), []).append(leaf)
        out = {}
        for (stage_idx, context), members in sorted(leaves.items()):
            grouping = self.stages[stage_idx].grouping
            out[(stage_idx, context)] = (members, sorted({grouping[leaf] for leaf in members}))
        return out


def default_hierarchy(task: str) -> HierarchySpec:
    """The shipped two-stage hierarchies.

    Difficulty (T1): easy vs hard first, then the two sublevels inside
    each branch. Dish type (T2): dessert vs everything else first, then
    starter vs main dish inside the second branch.
    """
    if task == "T1":
        stage1 = HierarchyStage({
            "TresFacile": "FACILE", "Facile": "FACILE",
            "MoyennementDifficile": "DIFFICILE", "Difficile": "DIFFICILE",
        })
        stage2 = HierarchyStage({c: c for c in
                                 ("TresFacile", "Facile", "MoyennementDifficile", "Difficile")})
        return HierarchySpec((stage1, stage2))
    if task == "T2":
        stage1 = HierarchyStage({
            "Dessert": "DESSERT", "Entree": "AUTRE", "PlatPrincipal": "AUTRE",
        })
        stage2 = HierarchyStage({c: c for c in ("Dessert", "Entree", "PlatPrincipal")})
        return HierarchySpec((stage1, stage2))
    raise ConfigError(f"no default hierarchy for task {task!r}")


@dataclass
class HierarchicalCosineModel:
    spec: HierarchySpec
    # (stage index, context group) -> feed -> CosineModel; a context with
    # a single outgoing group carries no models (probability 1).
    stage_models: dict[tuple[int, str], dict[Feed, CosineModel]]
    method_id: str = "cosine_hier"

    ROOT = "__root__"


def _context_of(spec: HierarchySpec, stage_idx: int, leaf: str) -> str:
    if stage_idx == 0:
        return HierarchicalCosineModel.ROOT
    return spec.stages[stage_idx - 1].grouping[leaf]


def train_hierarchical(train: Corpus, full: Corpus, spec: HierarchySpec,
                       analyses: Mapping[str, Analysis],
                       gini_threshold: float,
                       mode: str = STANDARD) -> HierarchicalCosineModel:
    """Fit one cosine model per (stage, context, feed).

    Each stage/context model sees only the training recipes whose leaf
    label falls inside that context, relabeled by the stage grouping;
    its lexicon statistics are rebuilt on that subset (df still over
    the full corpus). Contexts with a single outgoing group are left
    modelless and contribute probability 1.
    """
    leaf_labels = train.labels()
    missing = sorted(set(leaf_labels.values()) - set(spec.leaves()))
    if missing:
        raise DataError(f"training labels {missing} absent from the hierarchy spec")

    stage_models: dict[tuple[int, str], dict[Feed, CosineModel]] = {}
    for (stage_idx, context), (member_leaves, groups) in spec.contexts().items():
        if len(groups) < 2:
            continue
        stage = spec.stages[stage_idx]
        subset_ids = {rid for rid, leaf in leaf_labels.items() if leaf in member_leaves}
        subset = Corpus([r for r in train.recipes if r.id in subset_ids],
                        train.label_kind)
        group_labels = {rid: stage.grouping[leaf_labels[rid]] for rid in subset_ids}
        per_feed = {}
        for feed in (Feed.TITLE_ONLY, Feed.TITLE_AND_BODY):
            stats = build_stats(subset, full, analyses, feed=feed,
                                labels=group_labels)
            per_feed[feed] = train_cosine(stats, gini_threshold, mode)
        stage_models[(stage_idx, context)] = per_feed
    return HierarchicalCosineModel(spec, stage_models)


def classify_hierarchical(model: HierarchicalCosineModel, analysis: Analysis,
                          counts: Mapping[Feed, TermCounts] | None = None) -> ScoreVector:
    """Full leaf distribution: each leaf scores the product of its own
    path's mixed stage scores. The two feeds are mixed once per modelled
    context; a context with a single group has no model and contributes
    1.0. Every context reads the same ``counts`` (see ``score_cosine``),
    counted here when not given."""
    spec = model.spec
    if counts is None:
        counts = feed_counts(analysis)
    mixed: dict[tuple[int, str], dict[str, float]] = {}
    for (stage_idx, context), per_feed in model.stage_models.items():
        alpha = spec.stages[stage_idx].alpha
        title = normalize_scores(score_cosine(per_feed[Feed.TITLE_ONLY], analysis,
                                              counts)).scores
        both = normalize_scores(score_cosine(per_feed[Feed.TITLE_AND_BODY], analysis,
                                             counts)).scores
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
    return ScoreVector(analysis.recipe.id, model.method_id, leaf_scores)


# --------------------------------------------------------------------
# Serialization. Class vectors are a pure function of the statistics,
# so model files store the stats plus the few scalars and the vectors
# are rebuilt on load, which keeps the files small and diff-able.
# --------------------------------------------------------------------

def _scalar_lines(magic: str, threshold: float, mode: str, method_id: str) -> list[str]:
    return [magic, f"#threshold\t{threshold:.17g}", f"#mode\t{mode}",
            f"#method_id\t{method_id}"]


def _scalars(header: Header) -> tuple[float, str, str]:
    """The threshold, mode and method id on a model file's _scalar_lines."""
    threshold = header["threshold"].float(1)
    if not 0.0 <= threshold <= 1.0:
        raise header["threshold"].fail(f"threshold {threshold!r} outside [0, 1]")
    mode = header["mode"][1]
    if mode not in (STANDARD, LITERAL):
        raise header["mode"].fail(f"unknown denominator mode {mode!r}")
    return threshold, mode, header["method_id"][1]


def save_cosine(model: CosineModel, path: str | Path,
                class_boosts: dict[tuple[str, str], int] | None = None) -> None:
    lines = _scalar_lines("#cosine\tv1", model.gini_threshold, model.denominator_mode,
                          model.method_id)
    lines.append("#classes\t" + ",".join(model.classes()))
    if class_boosts:
        for (term, cls), extra in sorted(class_boosts.items()):
            lines.append(f"boost\t{term}\t{cls}\t{extra}")
    write_lines(path, lines)


def load_cosine(path: str | Path, stats: LexiconStats) -> CosineModel:
    header, body = Header.split(read_rows(path, "#cosine\tv1"), path)
    boosts: dict[tuple[str, str], int] = {}
    for row in body:
        if row[0] != "boost":
            raise row.fail(f"unknown row kind {row[0]!r}")
        row.put(boosts, (row[1], row[2]), row.int(3))
    classes = header["classes"][1].split(",")
    threshold, mode, method_id = _scalars(header)
    vectors = build_class_vectors(stats, classes, threshold, boosts or None)
    return CosineModel(vectors, stats, threshold, mode, method_id)


def save_hierarchical(model: HierarchicalCosineModel, path: str | Path) -> None:
    first = next(iter(model.stage_models.values()), None)
    threshold = first[Feed.TITLE_ONLY].gini_threshold if first else 0.0
    mode = first[Feed.TITLE_ONLY].denominator_mode if first else STANDARD
    lines = _scalar_lines("#cosine_hier\tv1", threshold, mode, model.method_id)
    lines += ["\t".join(["#stage"] + _stage_cells(stage)) for stage in model.spec.stages]
    for (stage_idx, context) in sorted(model.stage_models):
        per_feed = model.stage_models[(stage_idx, context)]
        for feed in (Feed.TITLE_ONLY, Feed.TITLE_AND_BODY):
            sub = per_feed[feed]
            lines.append("#begin_context\t" + "\t".join(
                [str(stage_idx), context, feed.value, ",".join(sub.classes())]))
            lines.extend(stats_lines(sub.stats))
            lines.append("#end_context")
    write_lines(path, lines)


def load_hierarchical(path: str | Path) -> HierarchicalCosineModel:
    header = Header(path)
    stages: list[HierarchyStage] = []
    contexts: list[tuple[Row, list[Row]]] = []  # (#begin_context row, its stats rows)
    block = None
    for row in read_rows(path, "#cosine_hier\tv1"):
        tag = row[0]
        if tag == "#begin_context":
            block = []
            contexts.append((row, block))
        elif tag == "#end_context":
            block = None
        elif block is not None:
            block.append(row)
        elif tag == "#stage":
            stages.append(_parse_stage(row))
        elif tag.startswith("#"):
            header.put(row)
        else:
            raise row.fail("row outside a #begin_context block")
    threshold, mode, method_id = _scalars(header)
    try:
        spec = HierarchySpec(tuple(stages))
    except ConfigError as exc:
        raise ModelMismatchError(f"{path}: #stage lines: {exc}") from None
    expected = {key: groups for key, (_, groups) in spec.contexts().items()
                if len(groups) > 1}
    stage_models: dict[tuple[int, str], dict[Feed, CosineModel]] = {}
    for begin, rows in contexts:
        stats = stats_from_rows(rows, f"{path}:{begin.lineno}")
        key, classes = (begin.int(1), begin[2]), begin[4].split(",")
        if classes != expected.get(key) or stats.classes != classes:
            raise begin.fail(f"context classes {classes} do not match the #stage "
                             f"groups {expected.get(key)}")
        vectors = build_class_vectors(stats, classes, threshold)
        begin.put(stage_models.setdefault(key, {}), begin.parse(3, Feed),
                  CosineModel(vectors, stats, threshold, mode, method_id))
    missing = [key for key in expected if len(stage_models.get(key, ())) < 2]
    if missing:
        raise ModelMismatchError(f"{path}: no title and title_body models for {missing}")
    return HierarchicalCosineModel(spec, stage_models, method_id)


# --------------------------------------------------------------------
# Hierarchy spec file format: one "stage" line per stage, holding
# alpha and leaf=GROUP assignments, tab-separated; the hierarchical
# model file stores its stages on "#stage" lines of the same form.
# --------------------------------------------------------------------

def _stage_cells(stage: HierarchyStage) -> list[str]:
    return [f"alpha={stage.alpha!r}"] + [
        f"{leaf}={group}" for leaf, group in sorted(stage.grouping.items())]


def _parse_stage(row: Row) -> HierarchyStage:
    """The stage in the cells after a row's first (see _stage_cells)."""
    pairs = [cell.partition("=") for cell in row[1:]]
    try:
        if len(pairs) < 2 or pairs[0][0] != "alpha" or not all(k and v for k, _, v in pairs):
            raise ValueError("expected 'stage<TAB>alpha=...<TAB>leaf=GROUP...'")
        return HierarchyStage({k: v for k, _, v in pairs[1:]}, float(pairs[0][2]))
    except (ConfigError, ValueError) as exc:
        raise row.fail(str(exc)) from None


def load_hierarchy_spec(path: str | Path) -> HierarchySpec:
    stages = []
    for row in read_rows(path, error=ConfigError, comments=True):
        if row[0] != "stage":
            raise row.fail("expected 'stage<TAB>alpha=...<TAB>leaf=GROUP...'")
        stages.append(_parse_stage(row))
    return HierarchySpec(tuple(stages))


__all__ = [
    "LITERAL",
    "STANDARD",
    "CosineConfig",
    "CosineModel",
    "HierarchicalCosineModel",
    "HierarchySpec",
    "HierarchyStage",
    "build_class_vectors",
    "classify_hierarchical",
    "default_hierarchy",
    "load_cosine",
    "load_hierarchical",
    "load_hierarchy_spec",
    "save_cosine",
    "save_hierarchical",
    "score_cosine",
    "train_cosine",
    "train_hierarchical",
]
