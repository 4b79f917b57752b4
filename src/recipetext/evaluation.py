"""Evaluation: micro/macro F-score, ordinal distance, MAP over qrels.

Conventions pinned here because they vary across toolkits: macro-F is
the unweighted mean of per-class F1 (not the F of averaged P/R, which
is also exposed); any 0/0 ratio is 0; the average-precision
denominator is the full gold-set size, so unretrieved relevant items
are penalized; recipes with an empty gold set are skipped and counted.
"""

from __future__ import annotations

import functools
import unicodedata
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus, Difficulty, LabelKind
from .errors import DataError
from .extraction import canonical_form
from .summation import ordered_sum
from .textnorm import NormConfig
from .tsv import check_widths, read_rows


@dataclass
class ClassificationReport:
    micro_f: float
    macro_f: float
    macro_f_pr: float                      # F1 of macro-averaged P and R
    per_class: dict[str, tuple[float, float, float]]
    mean_distance: float | None = None

    def lines(self) -> list[str]:
        out = [f"micro_f\t{self.micro_f:.6f}",
               f"macro_f\t{self.macro_f:.6f}",
               f"macro_f_pr\t{self.macro_f_pr:.6f}"]
        if self.mean_distance is not None:
            out.append(f"mean_distance\t{self.mean_distance:.6f}")
        for cls in sorted(self.per_class):
            p, r, f1 = self.per_class[cls]
            out.append(f"class\t{cls}\t{p:.6f}\t{r:.6f}\t{f1:.6f}")
        return out


def _safe_div(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def report_from_pairs(gold: dict[str, str], predicted: dict[str, str],
                      ordinal_ranks: dict[str, int] | None = None,
                      ) -> ClassificationReport:
    """Compute the report from id->label mappings.

    ``predicted`` must cover every gold id; unknown prediction labels
    are allowed (they enter the class set with zero gold support).
    """
    missing = sorted(set(gold) - set(predicted))
    if missing:
        raise DataError(f"missing predictions for ids {missing[:5]}")
    classes = sorted(set(gold.values()) | {predicted[rid] for rid in gold})

    per_class = {}
    pooled_tp = pooled_fp = pooled_fn = 0
    precisions, recalls = [], []
    for cls in classes:
        tp = sum(1 for rid in gold if gold[rid] == cls and predicted[rid] == cls)
        fp = sum(1 for rid in gold if gold[rid] != cls and predicted[rid] == cls)
        fn = sum(1 for rid in gold if gold[rid] == cls and predicted[rid] != cls)
        precision = _safe_div(tp, tp + fp)
        recall = _safe_div(tp, tp + fn)
        f1 = _safe_div(2 * precision * recall, precision + recall)
        per_class[cls] = (precision, recall, f1)
        precisions.append(precision)
        recalls.append(recall)
        pooled_tp += tp
        pooled_fp += fp
        pooled_fn += fn

    micro_p = _safe_div(pooled_tp, pooled_tp + pooled_fp)
    micro_r = _safe_div(pooled_tp, pooled_tp + pooled_fn)
    micro_f = _safe_div(2 * micro_p * micro_r, micro_p + micro_r)
    macro_f = ordered_sum(f1 for _, _, f1 in per_class.values()) / len(classes)
    macro_p = ordered_sum(precisions) / len(classes)
    macro_r = ordered_sum(recalls) / len(classes)
    macro_f_pr = _safe_div(2 * macro_p * macro_r, macro_p + macro_r)

    mean_distance = None
    if ordinal_ranks is not None:
        total = 0
        for rid in gold:
            try:
                total += abs(ordinal_ranks[predicted[rid]] - ordinal_ranks[gold[rid]])
            except KeyError as exc:
                raise DataError(f"label {exc} has no ordinal rank") from exc
        mean_distance = total / len(gold)

    return ClassificationReport(micro_f, macro_f, macro_f_pr, per_class, mean_distance)


def classification_report(gold: Corpus, predicted: dict[str, str],
                          ordinal: bool = False) -> ClassificationReport:
    """Score predictions against a labeled corpus.

    With ``ordinal`` the mean distance on the 4-level difficulty scale
    is included (contiguous levels are 1 apart).
    """
    ranks = None
    if ordinal:
        if gold.label_kind is not LabelKind.DIFFICULTY:
            raise DataError("ordinal distance needs a difficulty-labeled corpus")
        ranks = {d.name: d.rank for d in Difficulty}
    return report_from_pairs(gold.labels(), predicted, ranks)


@dataclass
class QrelSet:
    gold: dict[str, set[str]]

    def scored_ids(self) -> list[str]:
        return sorted(rid for rid, items in self.gold.items() if items)


def _deaccent(text: str) -> str:
    decomposed = unicodedata.normalize("NFD", text)
    return "".join(ch for ch in decomposed if not unicodedata.combining(ch))


def _canonicalizer(norm: NormConfig | None, deaccent: bool = False):
    """item -> the form it is matched by, each distinct item computed
    once (items repeat across recipes)."""
    @functools.cache
    def canon(item: str) -> str:
        form = canonical_form(item, norm) if norm is not None else item
        return _deaccent(form) if deaccent else form
    return canon


def average_precision(predicted: list[str], gold: set[str]) -> float:
    """AP with the |gold| denominator; raises on duplicate predictions."""
    if len(set(predicted)) != len(predicted):
        dupes = sorted({p for p in predicted if predicted.count(p) > 1})
        raise DataError(f"duplicate ingredient(s) at multiple ranks: {dupes}")
    if not gold:
        raise DataError("average_precision needs a non-empty gold set")
    hits = 0
    total = 0.0
    for rank, item in enumerate(predicted, start=1):
        if item in gold:
            hits += 1
            total += hits / rank
    return total / len(gold)


def mean_average_precision(run: dict[str, list[str]], qrels: QrelSet,
                           norm: NormConfig | None = None,
                           deaccent: bool = False) -> float:
    """MAP over the qrel recipes with a non-empty gold set.

    Run and gold items are matched after the extraction normalization
    (accent-preserving unless ``deaccent``); a qrel recipe absent from
    the run scores 0.
    """
    unknown = sorted(set(run) - set(qrels.gold))
    if unknown:
        raise DataError(f"run contains ids outside the qrels: {unknown[:5]}")

    canon = _canonicalizer(norm, deaccent)
    scored = qrels.scored_ids()
    if not scored:
        raise DataError("qrels contain no recipe with a non-empty gold set")
    total = 0.0
    for rid in scored:
        gold = {canon(item) for item in qrels.gold[rid]}
        predicted = []
        seen = set()
        for item in run.get(rid, []):
            c = canon(item)
            if c in seen:
                raise DataError(f"recipe {rid!r}: duplicate ingredient {c!r} in run")
            seen.add(c)
            predicted.append(c)
        total += average_precision(predicted, gold)
    return total / len(scored)


def load_qrels(path: str | Path) -> QrelSet:
    """TREC-like qrel lines: recipe_id<TAB>0<TAB>ingredient<TAB>relevance."""
    gold: dict[str, set[str]] = {}
    for row in check_widths(read_rows(path, error=DataError), 4):
        items = gold.setdefault(row[0], set())
        if row[3] != "0":
            items.add(row[2])
    return QrelSet(gold)


def qrels_from_corpus(corpus: Corpus, norm: NormConfig | None = None) -> QrelSet:
    """Gold ingredient sets from a corpus carrying gold lists."""
    canon = _canonicalizer(norm)
    gold = {}
    for recipe in corpus:
        forms = {canon(item) for item in recipe.gold_ingredients or []}
        if norm is not None:
            forms.discard("")
        gold[recipe.id] = forms
    return QrelSet(gold)


__all__ = [
    "ClassificationReport",
    "QrelSet",
    "average_precision",
    "classification_report",
    "load_qrels",
    "mean_average_precision",
    "qrels_from_corpus",
    "report_from_pairs",
]
