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
scores, so a full distribution over leaves comes out. Every context's
statistics are the leaf statistics' columns summed by group, so
``train`` counts each feed over the corpus once.

A recipe is scored through plain lists in class order. Each modelled
context's two feeds give their cosines (the list core that
``score_cosine`` wraps). ``fusion.normalized`` normalizes each list as
``normalize_scores`` does: min, a shift when it is below 0, the sum in
class order, the division. The two lists are mixed as
alpha*t + (1-alpha)*b, and each leaf multiplies its path's entries,
1.0 * s_0 * s_1 ... in stage order. The contexts and the leaf paths,
as list positions, are built once per model. These are the same
operations in the same order as scoring and normalizing one score
vector per context, so no bit changes.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import repeat
from pathlib import Path

from .errors import ConfigError, DataError, ModelMismatchError, check_types, is_number
from .features import Feed, LexiconStats, TermCounts, feed_counts, group_stats
from .fusion import normalized
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
    if counts is None:
        counts = feed_counts(analysis)
    return ScoreVector(analysis.recipe.id, model.method_id,
                       dict(zip(model.classes, _cosines(model, counts))))


def _cosines(model: CosineModel, counts: Mapping[Feed, TermCounts]) -> list[float]:
    """The recipe's cosine with each class, in ``classes`` order, from
    the pairs of the model's feed in ``counts``."""
    literal = model.denominator_mode == LITERAL
    classes = range(len(model.class_norms))
    numerators = [0.0] * len(classes)
    products = [0.0] * len(classes)     # literal mode: sum of (w_r * w_c)^2
    squares = 0.0                       # ||v_r||^2
    table = model.terms
    for term, tf in counts[model.stats.feed]:
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
    scores = []
    for numerator, squared, norm_c in zip(numerators, products, model.class_norms.values()):
        if numerator == 0.0:
            scores.append(0.0)
            continue
        denominator = math.sqrt(squared) if literal else norm_r * norm_c
        scores.append(numerator / denominator if denominator != 0.0 else 0.0)
    return scores


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

    def check_leaves(self, classes: list[str]) -> None:
        """Refuse training classes (sorted) that are not the leaves."""
        if classes != self.leaves():
            raise DataError(f"training classes {classes} are not the hierarchy leaves "
                            f"{self.leaves()}")

    def contexts(self) -> dict[tuple[int, str], dict[str, str]]:
        """(stage index, context) -> {leaf: its group at that stage} for
        the leaves inside the context, keys in sorted order."""
        out: dict[tuple[int, str], dict[str, str]] = {}
        for stage_idx, stage in enumerate(self.stages):
            for leaf in self.leaves():
                out.setdefault((stage_idx, _context_of(self, stage_idx, leaf)),
                               {})[leaf] = stage.grouping[leaf]
        return dict(sorted(out.items()))


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

    @cached_property
    def mixes(self) -> list[tuple[CosineModel, CosineModel, float]]:
        """(title model, title_body model, alpha) of each modelled
        context, in ``stage_models`` order."""
        return [(per_feed[Feed.TITLE_ONLY], per_feed[Feed.TITLE_AND_BODY],
                 self.spec.stages[stage_idx].alpha)
                for (stage_idx, _), per_feed in self.stage_models.items()]

    @cached_property
    def paths(self) -> dict[str, list[tuple[int, int]]]:
        """Each leaf, in sorted order -> its path, in stage order: the
        position in ``mixes`` of every modelled context it passes, with
        the position of its group among that context's classes."""
        position = {key: i for i, key in enumerate(self.stage_models)}
        paths: dict[str, list[tuple[int, int]]] = {}
        for leaf in self.spec.leaves():
            path = paths[leaf] = []
            for stage_idx, stage in enumerate(self.spec.stages):
                i = position.get((stage_idx, _context_of(self.spec, stage_idx, leaf)))
                if i is not None:
                    path.append((i, self.mixes[i][0].classes.index(stage.grouping[leaf])))
        return paths


def _context_of(spec: HierarchySpec, stage_idx: int, leaf: str) -> str:
    if stage_idx == 0:
        return HierarchicalCosineModel.ROOT
    return spec.stages[stage_idx - 1].grouping[leaf]


def train_hierarchical(spec: HierarchySpec, stats: Mapping[Feed, LexiconStats],
                       gini_threshold: float,
                       mode: str = STANDARD) -> HierarchicalCosineModel:
    """Fit one cosine model per (stage, context, feed) from each feed's
    leaf statistics, whose classes must be the spec's leaves. A context's
    statistics are its leaves' columns summed by stage group
    (``features.group_stats``), df still over the full corpus. Contexts
    with a single outgoing group are left modelless and contribute
    probability 1.
    """
    for feed_stats in stats.values():
        spec.check_leaves(feed_stats.classes)
    stage_models: dict[tuple[int, str], dict[Feed, CosineModel]] = {}
    for key, grouping in spec.contexts().items():
        if len(set(grouping.values())) > 1:
            stage_models[key] = {
                feed: train_cosine(group_stats(stats[feed], grouping), gini_threshold, mode)
                for feed in (Feed.TITLE_ONLY, Feed.TITLE_AND_BODY)}
    return HierarchicalCosineModel(spec, stage_models)


def classify_hierarchical(model: HierarchicalCosineModel, analysis: Analysis,
                          counts: Mapping[Feed, TermCounts] | None = None) -> ScoreVector:
    """Full leaf distribution: each leaf scores the product of its own
    path's mixed stage scores. Each modelled context's two feeds are
    scored, normalized and mixed once, as lists in class order; a
    context with a single group has no model and contributes 1.0. Every
    context reads the same ``counts`` (see ``score_cosine``), counted
    here when not given."""
    if counts is None:
        counts = feed_counts(analysis)
    mixed = []
    for title_model, both_model, alpha in model.mixes:
        title = normalized(_cosines(title_model, counts))
        both = normalized(_cosines(both_model, counts))
        mixed.append([alpha * t + (1.0 - alpha) * b for t, b in zip(title, both)])
    leaf_scores = {}
    for leaf, path in model.paths.items():
        product = 1.0
        for context, group in path:
            product *= mixed[context][group]
        leaf_scores[leaf] = product
    return ScoreVector(analysis.recipe.id, model.method_id, leaf_scores)


# --------------------------------------------------------------------
# Serialization. A model's table is a pure function of its statistics,
# and each hierarchical context's statistics of the leaf statistics, so
# model files store only the few scalars, the classes and boosts or the
# stages. The loaders rebuild the rest from the statistics they are
# given (``stats.tsv`` and ``stats_title.tsv``), which keeps the files
# small and diffable and leaves no second copy of the statistics to
# disagree with the first.
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
    write_lines(path, lines)


def load_hierarchical(path: str | Path,
                      leaf_stats: Mapping[Feed, LexiconStats]) -> HierarchicalCosineModel:
    """The model fitted by ``train_hierarchical`` from the file's stages
    and scalars and from each feed's leaf statistics, so a context is
    built by the same code at load as at fit."""
    rows = read_rows(path, "#cosine_hier\tv1")
    # a #stage line holds alpha and one cell per leaf class
    check_widths(rows, {**_SCALAR_WIDTHS,
                        "#stage": 2 + len(leaf_stats[Feed.TITLE_AND_BODY].classes)})
    header, _ = Header.split([row for row in rows if row[0] != "#stage"], path, _SCALAR_WIDTHS)
    stages = [_parse_stage(row) for row in rows if row[0] == "#stage"]
    threshold, mode, method_id = _scalars(header)
    try:
        model = train_hierarchical(HierarchySpec(tuple(stages)), leaf_stats, threshold, mode)
    except (ConfigError, DataError) as exc:
        raise ModelMismatchError(f"{path}: {exc}") from None
    return replace(model, method_id=method_id)


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
