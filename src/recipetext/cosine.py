"""Gini-weighted cosine classifier, flat and hierarchical.

Flat mode matches a recipe vector (tf*idf*G per term) against one bag
vector per class (df_c*idf*G), over the vocabulary of terms whose Gini
purity reaches the configured threshold. Two denominators ship:

* standard  -- ||v_r|| * ||v_c||, each norm over the vector's full
  support; this is the cosine of the angle between the vectors;
* literal   -- sqrt(sum over shared terms of w_r^2 * w_c^2), the
  product-of-squares form kept for comparison.

A model's only form is one table, built from the statistics when the
model first scores: Gini-kept term -> (idf, G, w_c of every class),
w_c = (df_c + boost) * idf * G, with every zero stored as the one
float 0.0 (a class that never saw the term holds it); ||v_c|| sums the
squares of a class's column in sorted term order. ``score_cosine`` reads a recipe as one list of (term, tf)
pairs in sorted term order (``features.feed_counts``; ``classify``
counts each feed once per recipe and hands the same lists to the flat
model and to every hierarchical context). One pass over that list
accumulates ||v_r||^2 and every class's numerator (and, for the
literal denominator, its sum of squared products). Each sum adds the
shared terms' products in sorted order, as a scan per class would.
The table's zeros, and recipe weights that are 0.0 (a term in every
document), add exact zeros, which change nothing: a sum that starts
at +0.0 never becomes -0.0, and adding a zero to any other float
leaves it as it is. So no score depends on whether a zero is stored.

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
from itertools import repeat
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigError, DataError, ModelMismatchError, check_types, is_number
from .features import (
    Feed,
    LexiconStats,
    TermCounts,
    build_stats,
    feed_counts,
    stats_from_rows,
    stats_lines,
)
from .fusion import normalize_scores
from .scores import ScoreVector
from .summation import ordered_sum
from .textnorm import Analysis
from .tsv import Header, Row, check_widths, read_rows, write_lines

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
    stats: LexiconStats
    classes: list[str]  # sorted, once each, on construction
    gini_threshold: float
    denominator_mode: str = STANDARD
    method_id: str = "cosine"
    # fictitious df_c counts added for chosen (term, class) pairs
    class_boosts: dict[tuple[str, str], int] = field(default_factory=dict)

    def __post_init__(self):
        self.classes = sorted(set(self.classes))

    @cached_property
    def terms(self) -> dict[str, tuple[float, ...]]:
        """Gini-kept term -> (idf, G, w_c of each class in ``classes``
        order; a zero w_c is the shared 0.0, which keeps the zeros'
        memory small). Built on first use: ``train`` writes the model
        from its statistics and never scores it."""
        stats, boosts = self.stats, self.class_boosts
        by_class = dict(zip(stats.classes, stats.df_class))
        # a class the statistics never saw has df_c 0 throughout
        columns = [by_class.get(cls, repeat(0)) for cls in self.classes]
        table = {}
        for term, *df_class in zip(stats.terms, *columns):
            g = stats.gini.get(term, -1.0)  # -1.0: unseen in training
            if g < self.gini_threshold:
                continue
            idf_t = stats.idf[term]
            table[term] = (idf_t, g, *[
                (df_c + boosts.get((term, cls), 0)) * idf_t * g or 0.0
                for df_c, cls in zip(df_class, self.classes)])
        return table

    @cached_property
    def class_norms(self) -> dict[str, float]:
        """||v_c|| per class, in ``classes`` order."""
        table = self.terms
        return {cls: math.sqrt(ordered_sum(entry[col] * entry[col] for entry in table.values()))
                for col, cls in enumerate(self.classes, 2)}


def train_cosine(stats: LexiconStats, gini_threshold: float, mode: str = STANDARD,
                 class_boosts: dict[tuple[str, str], int] | None = None,
                 method_id: str = "cosine") -> CosineModel:
    """One df_c*idf*G column per class of ``stats`` over the
    Gini-filtered vocabulary.

    ``class_boosts`` optionally adds fictitious df_c counts for chosen
    (term, class) pairs before weighting, to reinforce pure high-coverage
    terms; a class whose column comes out all zeros is kept (it scores 0).
    """
    return CosineModel(stats, stats.classes, gini_threshold, mode, method_id,
                       dict(class_boosts or {}))


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
# Serialization. A model's table is a pure function of its statistics,
# so model files store the stats, the few scalars and the boosts, and
# the table is rebuilt after loading, which keeps the files small and
# diffable.
# --------------------------------------------------------------------

_SCALAR_WIDTHS = {"#threshold": 2, "#mode": 2, "#method_id": 2}


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


def save_cosine(model: CosineModel, path: str | Path) -> None:
    lines = _scalar_lines("#cosine\tv1", model.gini_threshold, model.denominator_mode,
                          model.method_id)
    lines.append("#classes\t" + ",".join(model.classes))
    for (term, cls), extra in sorted(model.class_boosts.items()):
        lines.append(f"boost\t{term}\t{cls}\t{extra}")
    write_lines(path, lines)


def load_cosine(path: str | Path, stats: LexiconStats) -> CosineModel:
    header, body = Header.split(read_rows(path, "#cosine\tv1"), path,
                                {**_SCALAR_WIDTHS, "#classes": 2})
    boosts: dict[tuple[str, str], int] = {}
    for row in check_widths(body, {"boost": 4}):
        row.put(boosts, (row[1], row[2]), row.int(3))
    threshold, mode, method_id = _scalars(header)
    return CosineModel(stats, header["classes"][1].split(","), threshold, mode, method_id,
                       boosts)


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
                [str(stage_idx), context, feed.value, ",".join(sub.classes)]))
            lines.extend(stats_lines(sub.stats))
            lines.append("#end_context")
    write_lines(path, lines)


def load_hierarchical(path: str | Path) -> HierarchicalCosineModel:
    outer: list[Row] = []                       # the rows outside the stats blocks
    contexts: list[tuple[Row, list[Row]]] = []  # (#begin_context row, its stats rows)
    block = None
    for row in read_rows(path, "#cosine_hier\tv1"):
        if row[0] == "#begin_context":
            block = []
            contexts.append((row, block))
        elif row[0] == "#end_context":
            block = None
        elif block is not None:
            block.append(row)
            continue
        outer.append(row)
    check_widths(outer, {**_SCALAR_WIDTHS, "#stage": None, "#begin_context": 5,
                         "#end_context": 1})
    header, _ = Header.split([row for row in outer if row[0] in _SCALAR_WIDTHS], path,
                             _SCALAR_WIDTHS)
    stages = [_parse_stage(row) for row in outer if row[0] == "#stage"]
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
        rows.clear()  # the parsed rows are not held while the next block is parsed
        key, classes = (begin.int(1), begin[2]), begin[4].split(",")
        if classes != expected.get(key) or stats.classes != classes:
            raise begin.fail(f"context classes {classes} do not match the #stage "
                             f"groups {expected.get(key)}")
        begin.put(stage_models.setdefault(key, {}), begin.parse(3, Feed),
                  CosineModel(stats, classes, threshold, mode, method_id))
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
    rows = check_widths(read_rows(path, error=ConfigError, comments=True), {"stage": None})
    stages = [_parse_stage(row) for row in rows]
    try:
        return HierarchySpec(tuple(stages))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


__all__ = [
    "LITERAL",
    "STANDARD",
    "CosineConfig",
    "CosineModel",
    "HierarchicalCosineModel",
    "HierarchySpec",
    "HierarchyStage",
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
