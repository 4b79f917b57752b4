"""Multi-class boosting over text n-grams and continuous features.

Real-valued AdaBoost.MH: a weight distribution runs over (example,
class) pairs; each round picks the weak hypothesis minimizing the
exponential bound Z on the weighted Hamming loss, among

* text presence stumps -- does the field contain this n-gram? (title
  n-grams up to 3 words, body up to 4, ingredient unigrams; candidates
  seen in fewer than 2 training documents are pruned), and
* numeric threshold stumps -- is the field value above a midpoint of
  consecutive distinct observed values?

Block votes are 0.5*ln((W+ + eps)/(W- + eps)); well-classified pairs
shed weight each round and misclassified pairs gain it. The round
count is chosen on the dev corpus by micro-F with a patience window.

Each round sums the per-class weight totals W+/W- over all training
documents once; a candidate then accumulates only its present block
and takes its absent block as the complement (Schapire & Singer,
1999), so a round costs O(sum of present-block sizes) rather than
O(candidates * documents). Candidates that mark the same documents
would score the same Z bit for bit, so only the first of them in sort
order is kept. Each candidate's present block, and the full document
range, are split once per fit into per-class index lists (docs with
the class, docs without it), so a block sum is one loop over a weight
column.

With smoothed votes Z has a closed form: exp(-v) = r with
r = sqrt((W- + eps)/(W+ + eps)), so each block and class adds
W+*r + W-/r, one ``sqrt`` instead of a ``log`` and two ``exp``. That
closed form is only a filter. A round walks the candidates in sort
order with a cutoff, the smallest closed-form Z so far times
(1 + 1e-9); a candidate above the cutoff is skipped, and the others
get the exact Z (the log/exp formula below) and compete on
(Z, sort key). Both forms are sums of non-negative terms that agree to
a few ulps, far inside the 1e-9 slack, so the exact argmin, and every
candidate tied with it, always passes the cutoff: the filter changes
no pick and no bit of the model. Ranking on the closed form itself
would, since it can order a near-tie the other way.

Everything is accumulated in a documented deterministic order (totals
over docs ascending, the present block over docs ascending, the absent
block as total - present clamped at 0.0, classes in sorted order) and
ties in Z break toward the lexicographically smallest feature, so
identical inputs give identical models across runs and
implementations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigError, DataError, ModelMismatchError
from .features import NUMERIC_FIELDS, numeric_features
from .scores import ScoreVector
from .summation import ordered_sum
from .textnorm import Analysis, ngrams
from .tsv import Header, read_rows, write_lines

TEXT_FIELDS = [("title", 3), ("body", 4), ("ingredients", 1)]
# the #field lines of boost.model: text field -> max n, numeric field -> 0
_FIELD_SCHEMA = dict(TEXT_FIELDS) | dict.fromkeys(NUMERIC_FIELDS, 0)
# closed-form and exact Z differ by a few ulps; see the module docstring
_Z_SLACK = 1.0 + 1e-9


@dataclass
class BoostFeatures:
    recipe_id: str
    text: dict[str, frozenset[str]]
    numeric: dict[str, float]


def recipe_boost_features(analysis: Analysis, ingredients: list[list[str]],
                          ) -> BoostFeatures:
    """Extract the boosting feature view of one recipe; ``ingredients``
    holds each ingredient item's token stream, normalized like the
    recipe text."""
    text = {
        "title": frozenset(ngrams(analysis.title, 3)),
        "body": frozenset(ngrams(analysis.body, 4)),
        "ingredients": frozenset(tok for item in ingredients for tok in item),
    }
    numbers = numeric_features(analysis, ingredients)
    return BoostFeatures(analysis.recipe.id, text, numbers.as_mapping())


@dataclass(frozen=True)
class BoostConfig:
    max_rounds: int = 100
    smoothing_epsilon: float = 1e-3
    dev_patience: int = 10

    def __post_init__(self):
        if self.max_rounds < 1:
            raise ConfigError("max_rounds must be >= 1")
        if self.smoothing_epsilon <= 0:
            raise ConfigError("smoothing_epsilon must be > 0")
        if self.dev_patience < 1:
            raise ConfigError("dev_patience must be >= 1")


@dataclass
class WeakHypothesis:
    kind: str                      # "text" or "numeric"
    field: str
    ngram: str | None
    threshold: float | None
    votes_present: dict[str, float]
    votes_absent: dict[str, float]


@dataclass
class RoundInfo:
    z: float
    weighted_error: float
    dev_micro_f: float | None


@dataclass
class BoostModel:
    rounds: list[WeakHypothesis]
    classes: list[str]
    history: list[RoundInfo] = dc_field(default_factory=list)


@dataclass
class _Candidate:
    sort_key: tuple
    kind: str
    field: str
    ngram: str | None
    threshold: float | None
    present: list[int]       # ascending doc indices


def _candidates(ids, feats: dict[str, BoostFeatures]) -> list[_Candidate]:
    """Candidate stumps with their 'present' doc index lists, ordered
    by (field order, feature value), keeping only the first candidate
    for each distinct present document set."""
    out = []
    seen: set[tuple[int, ...]] = set()

    def add(sort_key, kind, field_name, gram, theta, present):
        docs = tuple(present)
        if docs in seen:
            return
        seen.add(docs)
        out.append(_Candidate(sort_key, kind, field_name, gram, theta, present))

    for field_idx, (field_name, _max_n) in enumerate(TEXT_FIELDS):
        by_ngram: dict[str, list[int]] = {}
        for i, rid in enumerate(ids):
            for gram in feats[rid].text[field_name]:
                by_ngram.setdefault(gram, []).append(i)
        for gram in sorted(by_ngram):
            present = by_ngram[gram]
            if len(present) < 2:
                continue
            add((field_idx, gram), "text", field_name, gram, None, present)
    base = len(TEXT_FIELDS)
    for offset, field_name in enumerate(NUMERIC_FIELDS):
        values = [feats[rid].numeric[field_name] for rid in ids]
        distinct = sorted(set(values))
        for lo, hi in zip(distinct, distinct[1:]):
            theta = (lo + hi) / 2.0
            present = [i for i, v in enumerate(values) if v > theta]
            add((base + offset, theta), "numeric", field_name, None, theta, present)
    return out


def _class_split(docs, label_of, k):
    """Per class, the ascending docs labelled with it and the ascending
    docs that are not."""
    return [([i for i in docs if label_of[i] == ci], [i for i in docs if label_of[i] != ci])
            for ci in range(k)]


def _votes(w_plus, w_minus, eps):
    return [0.5 * math.log((wp + eps) / (wm + eps)) for wp, wm in zip(w_plus, w_minus)]


def train_boost(train: Corpus, dev: Corpus | None, features: dict[str, BoostFeatures],
                config: BoostConfig, labels: dict[str, str] | None = None,
                dev_labels: dict[str, str] | None = None) -> BoostModel:
    """Fit the boosted model; the returned round list is truncated to
    the dev-best round when a dev corpus is given."""
    if labels is None:
        labels = train.labels()
    if dev is not None and dev_labels is None:
        dev_labels = dev.labels()

    ids = [r.id for r in train.recipes]
    if not ids:
        raise DataError("empty training corpus")
    classes = sorted(set(labels.values()))
    if len(classes) < 2:
        raise DataError("boosting needs at least 2 classes")
    n, k = len(ids), len(classes)
    class_index = {c: ci for ci, c in enumerate(classes)}
    for rid in ids:
        if rid not in features:
            raise DataError(f"no features supplied for training recipe {rid!r}")

    label_of = [class_index[labels[rid]] for rid in ids]
    dist = [[1.0 / (n * k)] * k for _ in range(n)]
    candidates = _candidates(ids, features)
    if not candidates:
        raise DataError("no candidate weak hypotheses (corpus too small or uniform)")
    everyone = _class_split(range(n), label_of, k)
    splits = [_class_split(cand.present, label_of, k) for cand in candidates]
    eps = config.smoothing_epsilon
    sqrt = math.sqrt

    dev_ids = [r.id for r in dev.recipes] if dev is not None else []
    for rid in dev_ids:
        if rid not in features:
            raise DataError(f"no features supplied for dev recipe {rid!r}")
    dev_margins = {rid: [0.0] * k for rid in dev_ids}

    model = BoostModel([], classes)
    best_dev_f = -1.0
    best_round = 0

    for round_no in range(1, config.max_rounds + 1):
        cols = list(zip(*dist))
        totals = [(ordered_sum(map(col.__getitem__, pos)),
                   ordered_sum(map(col.__getitem__, neg)))
                  for (pos, neg), col in zip(everyone, cols)]
        best_key = None
        cutoff = math.inf
        for cand, split in zip(candidates, splits):
            # Per class, (W+, W-) of the present block (its docs added in
            # ascending order) and of the absent block (total - present,
            # 0.0 unless positive: rounding can push it below 0.0), and
            # the closed-form Z, a filter only (see the module docstring).
            w1p, w1m, w0p, w0m = [], [], [], []
            fz = 0.0
            for (pos, neg), col, (tp, tm) in zip(split, cols, totals):
                wp = 0.0
                for i in pos:
                    wp += col[i]
                wm = 0.0
                for i in neg:
                    wm += col[i]
                ap = tp - wp
                if not ap > 0.0:
                    ap = 0.0
                am = tm - wm
                if not am > 0.0:
                    am = 0.0
                w1p.append(wp)
                w1m.append(wm)
                w0p.append(ap)
                w0m.append(am)
                r = sqrt((wm + eps) / (wp + eps))
                r0 = sqrt((am + eps) / (ap + eps))
                fz += wp * r + wm / r + ap * r0 + am / r0
            if fz > cutoff:
                continue
            cutoff = min(cutoff, fz * _Z_SLACK)
            vp = _votes(w1p, w1m, eps)
            va = _votes(w0p, w0m, eps)
            z = 0.0
            for ci in range(k):
                z += w1p[ci] * math.exp(-vp[ci])
                z += w1m[ci] * math.exp(vp[ci])
            for ci in range(k):
                z += w0p[ci] * math.exp(-va[ci])
                z += w0m[ci] * math.exp(va[ci])
            key = (z, cand.sort_key)
            if best_key is None or key < best_key:
                best_key = key
                best_cand = cand
                best_votes = (vp, va, w1p, w1m, w0p, w0m)

        vp, va, w1p, w1m, w0p, w0m = best_votes
        err = 0.0
        for ci in range(k):
            for v, wp, wm in ((vp[ci], w1p[ci], w1m[ci]), (va[ci], w0p[ci], w0m[ci])):
                if v > 0.0:
                    err += wm
                elif v < 0.0:
                    err += wp
                else:
                    err += 0.5 * (wp + wm)
        if err >= 0.5:
            if not model.rounds:
                raise DataError("no weak hypothesis beats chance on this corpus")
            break

        hypothesis = WeakHypothesis(
            best_cand.kind, best_cand.field, best_cand.ngram, best_cand.threshold,
            votes_present={c: vp[class_index[c]] for c in classes},
            votes_absent={c: va[class_index[c]] for c in classes},
        )
        model.rounds.append(hypothesis)

        present = set(best_cand.present)
        z_actual = 0.0
        for i in range(n):
            votes = vp if i in present else va
            row = dist[i]
            li = label_of[i]
            for ci in range(k):
                row[ci] *= math.exp(-votes[ci] if ci == li else votes[ci])
                z_actual += row[ci]
        for i in range(n):
            for ci in range(k):
                dist[i][ci] /= z_actual

        dev_f = None
        if dev_ids:
            for rid in dev_ids:
                block = vp if _is_present(features[rid], best_cand.kind, best_cand.field,
                                          best_cand.ngram, best_cand.threshold) else va
                margins = dev_margins[rid]
                for ci in range(k):
                    margins[ci] += block[ci]
            correct = 0
            for rid in dev_ids:
                margins = dev_margins[rid]
                pred = min(range(k), key=lambda ci: (-margins[ci], classes[ci]))
                if classes[pred] == dev_labels[rid]:
                    correct += 1
            dev_f = correct / len(dev_ids)
            if dev_f > best_dev_f:
                best_dev_f = dev_f
                best_round = round_no
        model.history.append(RoundInfo(z_actual, err, dev_f))

        if dev_ids and round_no - best_round >= config.dev_patience:
            break

    if dev_ids and best_round >= 1:
        model.rounds = model.rounds[:best_round]
    return model


def _is_present(feats: BoostFeatures, kind: str, field_name: str,
                gram: str | None, theta: float | None) -> bool:
    if kind == "text":
        return gram in feats.text[field_name]
    return feats.numeric[field_name] > theta


def margins(model: BoostModel, feats: BoostFeatures) -> dict[str, float]:
    """Summed votes per class across all rounds."""
    totals = {c: 0.0 for c in model.classes}
    for hyp in model.rounds:
        votes = hyp.votes_present if _is_present(
            feats, hyp.kind, hyp.field, hyp.ngram, hyp.threshold) else hyp.votes_absent
        for c in model.classes:
            totals[c] += votes[c]
    return totals


def _confidence(margin: float) -> float:
    # logistic of twice the margin, overflow-safe
    if margin >= 0.0:
        return 1.0 / (1.0 + math.exp(-2.0 * margin))
    e = math.exp(2.0 * margin)
    return e / (1.0 + e)


def score_boost(model: BoostModel, feats: BoostFeatures,
                method_id: str = "boost") -> ScoreVector:
    """Per-class confidence in [0, 1], strictly monotone in the margin."""
    totals = margins(model, feats)
    return ScoreVector(feats.recipe_id, method_id,
                       {c: _confidence(m) for c, m in totals.items()})


def save_boost(model: BoostModel, path: str | Path) -> None:
    lines = ["#boost\tv1", "#classes\t" + ",".join(model.classes)]
    lines += [f"#field\t{name}\t{max_n}" for name, max_n in _FIELD_SCHEMA.items()]
    for hyp in model.rounds:
        if hyp.kind == "text":
            cells = ["text", hyp.field, hyp.ngram]
        else:
            cells = ["numeric", hyp.field, f"{hyp.threshold:.17g}"]
        cells += [f"{hyp.votes_present[c]:.17g}" for c in model.classes]
        cells += [f"{hyp.votes_absent[c]:.17g}" for c in model.classes]
        lines.append("\t".join(cells))
    write_lines(path, lines)


def load_boost(path: str | Path) -> BoostModel:
    rows = read_rows(path, "#boost\tv1")
    fields = [row[1:] for row in rows if row[0] == "#field"]
    if fields != [[name, str(max_n)] for name, max_n in _FIELD_SCHEMA.items()]:
        raise ModelMismatchError(f"{path}: #field lines differ from {_FIELD_SCHEMA}")
    header, body = Header.split((row for row in rows if row[0] != "#field"), path)
    classes = header["classes"][1].split(",")
    k = len(classes)
    rounds: list[WeakHypothesis] = []
    for row in body:
        kind = row[0]
        if kind not in ("text", "numeric"):
            raise row.fail(f"unknown row kind {kind!r}")
        if row[1] not in _FIELD_SCHEMA or (_FIELD_SCHEMA[row[1]] > 0) != (kind == "text"):
            raise row.fail(f"{row[1]!r} is not a {kind} field")
        votes = row.floats(3, 3 + 2 * k)
        rounds.append(WeakHypothesis(
            kind=kind,
            field=row[1],
            ngram=row[2] if kind == "text" else None,
            threshold=row.float(2) if kind == "numeric" else None,
            votes_present=dict(zip(classes, votes[:k])),
            votes_absent=dict(zip(classes, votes[k:])),
        ))
    if not rounds:
        raise ModelMismatchError(f"{path}: model has no rounds")
    return BoostModel(rounds, classes)


__all__ = [
    "BoostConfig",
    "BoostFeatures",
    "BoostModel",
    "RoundInfo",
    "WeakHypothesis",
    "load_boost",
    "margins",
    "recipe_boost_features",
    "save_boost",
    "score_boost",
    "train_boost",
]
