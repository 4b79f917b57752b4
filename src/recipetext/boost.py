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

Each round sums the per-class weight totals T+/T- over all training
documents once; a candidate then accumulates only its present block
(W+/W-) and takes its absent block (A+/A-) as the complement (Schapire
& Singer, 1999), so a round costs O(sum of present-block sizes) rather
than O(candidates * documents). Candidates that mark the same
documents would score the same Z bit for bit, so only the first of
them in sort order is kept. The full document range is split once per
fit into per-class index lists (docs with the class, docs without
it), and a candidate's present block on its first evaluation, so a
block sum is one loop over a weight column.

With smoothed votes Z has a closed form: exp(-v) = r with
r = sqrt((W- + eps)/(W+ + eps)), so each block and class adds
W+*r + W-/r, one ``sqrt`` instead of a ``log`` and two ``exp``. That
closed form is only a filter. A round keeps a cutoff, the smallest
closed-form Z so far times (1 + 1e-9); a summed candidate above the
cutoff is dropped, and the others get the exact Z (the log/exp formula
below) and compete on (Z, sort key). Both forms are sums of
non-negative terms that agree to a few ulps, far inside the 1e-9
slack, so the exact argmin, and every candidate tied with it, always
passes the cutoff, in whatever order the candidates come: the filter
changes no pick and no bit of the model. Ranking on the closed form
itself would, since it can order a near-tie the other way.

Most candidates are never summed: a cheap lower bound on their
closed-form Z already exceeds the cutoff (the pruning of Appel, Fuchs,
Dollár & Perona, ICML 2013). Let Z0 = sum over classes of
2*sqrt(T+ * T-), and give each document i, of class y, the mass

    q_i = 2 * (d[i][y] * sqrt(T-_y / T+_y)
               + sum over classes c != y of d[i][c] * sqrt(T+_c / T-_c)),

a square root counting 0 where its denominator is 0. A stump whose
present block is P has a closed-form Z of at least Z0 - (sum of q_i
over P):

* every present term W+*r + W-/r is >= 0;
* every absent term A+*r + A-/r is >= 2*sqrt(A+ * A-), whatever r
  (AM-GM);
* with x = W+/T+ and y = W-/T- in [0, 1], sqrt((1-x)(1-y)) >= 1-x-y
  (trivial when 1-x-y <= 0; else (1-x)(1-y) = 1-x-y+xy >= 1-x-y
  >= (1-x-y)^2), so 2*sqrt(A+ * A-) >= 2*sqrt(T+ * T-)
  - 2*(W+ * sqrt(T-/T+) + W- * sqrt(T+/T-)); summed over the classes,
  the subtracted parts are the q_i of the docs in P. (The tangent
  1 - x/2 - y/2 lies above the square root and bounds nothing.)

A candidate whose bound exceeds the cutoff by a margin is skipped
unsummed. The margin covers rounding, so the exact argmin is never
skipped and no pick moves. The weights sum to 1, so every weight sum
is within n * 2**-53 of its exact value and every W and A within
(2n + 1) * 2**-53. The closed form moves by at most
2 * (1 + 1/sqrt(eps)) per unit change of any of its 4k inputs, and
the bound's own sums carry less error than that. The margin is
64 * k * (n + 1) * 2**-53 * (1 + 1/sqrt(eps)), which covers a bound
and the closed form it is compared with both being off by that much,
plus 1e-9 of the cutoff for the closed form's own few ulps.

Candidates are scanned by descending present-block size, an order
fixed once per fit. The sum of q_i over P is at most the sum of the
|P| largest q_i, so the scan stops at the first size m where Z0 minus
the sum of the m largest q_i exceeds the widened cutoff: no block of
m docs or fewer can pass.

One field's numeric stumps are nested: a threshold's present block is
a prefix of the docs in descending value order. One prefix-sum sweep
per field and class gives every threshold's W+/W- at once, added in
another order than the ascending block sum, so the closed form over
them is approximate, a few rounding errors of the weight sums off.
It serves only as that threshold's bound, with the same margin, and
its minimum, widened by both margins, seeds the round's cutoff, so
the large numeric blocks are rarely summed. ``RoundInfo.summed``
counts the candidates summed in each round; it is history only, never
written to the model.

Scoring reads only the model's n-grams: ``presence_index`` maps each
text field's first tokens to the lengths of the model n-grams they
start, and a recipe's scoring view holds only the windows that could
be one of them (see recipe_boost_features).

Everything is accumulated in a documented deterministic order (totals
over docs ascending, the present block over docs ascending, the absent
block as total - present clamped at 0.0, classes in sorted order) and
ties in Z break toward the lexicographically smallest feature, so
identical inputs give identical models across runs and
implementations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from operator import mul
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigError, DataError, ModelMismatchError, check_types
from .features import NUMERIC_FIELDS, numeric_features
from .scores import ScoreVector
from .summation import ordered_sum
from .textnorm import Analysis, ngram_set
from .tsv import Header, check_widths, read_rows, write_lines

TEXT_FIELDS = [("title", 3), ("body", 4), ("ingredients", 1)]
# the #field lines of boost.model: text field -> max n, numeric field -> 0
_FIELD_SCHEMA = dict(TEXT_FIELDS) | dict.fromkeys(NUMERIC_FIELDS, 0)
# closed-form and exact Z differ by a few ulps; see the module docstring
_Z_SLACK = 1.0 + 1e-9
# the relative margin of the bounds over the closed-form Z they bound;
# with the absolute one in train_boost, it covers their rounding (see
# the module docstring)
_BOUND_SLACK = 1.0 + 1e-9


@dataclass
class BoostFeatures:
    recipe_id: str
    text: dict[str, frozenset[str]]
    numeric: dict[str, float]


# text field -> first token -> the token counts of the model n-grams on
# that field that it starts (see presence_index)
PresenceIndex = dict[str, dict[str, tuple[int, ...]]]


def recipe_boost_features(analysis: Analysis, ingredients: list[list[str]],
                          index: PresenceIndex | None = None) -> BoostFeatures:
    """Extract the boosting feature view of one recipe; ``ingredients``
    holds each ingredient item's token stream, normalized like the
    recipe text.

    Fitting needs every candidate n-gram. Scoring only asks whether the
    model's n-grams are present: with the model's ``presence_index``
    each text field holds only the windows that start at a model
    n-gram's first token and are as long as one, which gives every
    model n-gram the same answer as the full view."""
    if index is None:
        text = {
            "title": ngram_set(analysis.title, 3),
            "body": ngram_set(analysis.body, 4),
            "ingredients": frozenset(tok for item in ingredients for tok in item),
        }
    else:
        streams = {"title": [analysis.title], "body": [analysis.body],
                   "ingredients": ingredients}
        text = {name: _indexed_ngrams(streams[name], index[name]) for name, _ in TEXT_FIELDS}
    return BoostFeatures(analysis.recipe.id, text, numeric_features(analysis, ingredients))


def _indexed_ngrams(streams, lengths: dict[str, tuple[int, ...]]) -> frozenset[str]:
    grams = set()
    for stream in streams:
        end = len(stream)
        for i, token in enumerate(stream):
            for n in lengths.get(token, ()):
                if i + n <= end:
                    grams.add(" ".join(stream[i:i + n]))
    return frozenset(grams)


@dataclass(frozen=True)
class BoostConfig:
    max_rounds: int = 100
    smoothing_epsilon: float = 1e-3
    dev_patience: int = 10

    def __post_init__(self):
        check_types(self)
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
    # candidates whose present blocks were summed: a cost, not an outcome
    summed: int = dc_field(compare=False)


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
        sets = [feats[rid].text[field_name] for rid in ids]
        df = Counter()
        for grams in sets:
            df.update(grams)
        frequent = {gram for gram, count in df.items() if count >= 2}
        by_ngram: dict[str, list[int]] = {gram: [] for gram in sorted(frequent)}
        for i, grams in enumerate(sets):
            for gram in grams & frequent:
                by_ngram[gram].append(i)
        for gram, present in by_ngram.items():
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


def _closed_form(w1p, w1m, totals, eps) -> float:
    """The closed-form Z of a stump whose present block sums to ``w1p``
    (W+) and ``w1m`` (W-) per class, with the absent block as in
    ``_absent`` (a filter only; see the module docstring)."""
    sqrt = math.sqrt
    fz = 0.0
    for wp, wm, (tp, tm) in zip(w1p, w1m, totals):
        ap = tp - wp
        if not ap > 0.0:
            ap = 0.0
        am = tm - wm
        if not am > 0.0:
            am = 0.0
        r = sqrt((wm + eps) / (wp + eps))
        r0 = sqrt((am + eps) / (ap + eps))
        fz += wp * r + wm / r + ap * r0 + am / r0
    return fz


def _absent(w1p, w1m, totals):
    """Per class, (W+, W-) of the absent block: total - present, 0.0
    unless positive (rounding can push it below 0.0)."""
    w0p = [tp - wp if tp - wp > 0.0 else 0.0 for wp, (tp, _) in zip(w1p, totals)]
    w0m = [tm - wm if tm - wm > 0.0 else 0.0 for wm, (_, tm) in zip(w1m, totals)]
    return w0p, w0m


def _bound_margin(n, k, eps) -> float:
    """The absolute margin of the bounds over the closed-form Z for n
    docs and k classes; see the module docstring."""
    return 64 * k * (n + 1) * 2.0 ** -53 * (1.0 + 1.0 / math.sqrt(eps))


def _bound_terms(dist, label_of, totals):
    """Z0 and each document's mass q_i: every stump whose present block
    is P has a closed-form Z of at least Z0 - sum of q_i over P (see
    the module docstring)."""
    sqrt = math.sqrt
    z0 = 0.0
    # per class, the factor of a positive weight and of a negative one
    up, down = [], []
    for tp, tm in totals:
        z0 += 2.0 * sqrt(tp * tm)
        up.append(sqrt(tm / tp) if tp > 0.0 else 0.0)
        down.append(sqrt(tp / tm) if tm > 0.0 else 0.0)
    q = []
    for row, li in zip(dist, label_of):
        # every class's weight times its negative factor, but the doc's
        # own class's times its positive one
        mass = sum(map(mul, row, down)) - row[li] * down[li] + row[li] * up[li]
        q.append(2.0 * mass)
    return z0, q


def _numeric_sweeps(candidates, features, ids, label_of, k):
    """Per numeric field, the docs of each class and the docs of the
    other classes in descending value order, and the field's candidates
    as (index, per class the number of present docs with the class,
    per class the number without it). A threshold's present docs lead
    both orders."""
    sweeps = {}
    for idx, cand in enumerate(candidates):
        if cand.kind != "numeric":
            continue
        if cand.field not in sweeps:
            values = [features[rid].numeric[cand.field] for rid in ids]
            desc = sorted(range(len(ids)), key=values.__getitem__, reverse=True)
            sweeps[cand.field] = (_class_split(desc, label_of, k), [])
        with_class = Counter(label_of[i] for i in cand.present)
        size = len(cand.present)
        sweeps[cand.field][1].append((idx, [with_class[ci] for ci in range(k)],
                                      [size - with_class[ci] for ci in range(k)]))
    return list(sweeps.values())


def _swept_closed_forms(sweeps, cols, totals, eps) -> dict[int, float]:
    """Candidate index -> closed-form Z of each numeric candidate, from
    per-class prefix sums over its field's docs in descending value
    order. The sums add the same weights as the present block in
    another order, so this Z is approximate: a bound with a margin
    only, never a pick."""
    approx = {}
    getitem = list.__getitem__
    for orders, field_candidates in sweeps:
        plus = [list(accumulate(map(col.__getitem__, pos), initial=0.0))
                for (pos, _), col in zip(orders, cols)]
        minus = [list(accumulate(map(col.__getitem__, neg), initial=0.0))
                 for (_, neg), col in zip(orders, cols)]
        for idx, with_class, without in field_candidates:
            approx[idx] = _closed_form(map(getitem, plus, with_class),
                                       map(getitem, minus, without), totals, eps)
    return approx


def _votes(w_plus, w_minus, eps):
    return [0.5 * math.log((wp + eps) / (wm + eps)) for wp, wm in zip(w_plus, w_minus)]


def train_boost(train: Corpus, dev: Corpus | None, features: dict[str, BoostFeatures],
                config: BoostConfig) -> BoostModel:
    """Fit the boosted model; the returned round list is truncated to
    the dev-best round when a dev corpus is given."""
    labels = train.labels()
    dev_labels = dev.labels() if dev is not None else None

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
    # split on a candidate's first evaluation
    splits: list[list | None] = [None] * len(candidates)
    # largest present blocks first; see the module docstring
    scan = sorted(((idx, cand.present, cand.kind == "numeric")
                   for idx, cand in enumerate(candidates)), key=lambda item: -len(item[1]))
    sweeps = _numeric_sweeps(candidates, features, ids, label_of, k)
    eps = config.smoothing_epsilon
    rounding = _bound_margin(n, k, eps)

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
        z0, q = _bound_terms(dist, label_of, totals)
        # z0 - largest[m] bounds every stump with m present docs or fewer
        largest = list(accumulate(sorted(q, reverse=True), initial=0.0))
        swept = _swept_closed_forms(sweeps, cols, totals, eps)
        cutoff = (min(swept.values(), default=math.inf) + rounding) * _BOUND_SLACK * _Z_SLACK
        limit = cutoff * _BOUND_SLACK + rounding
        best_key = None
        summed = 0
        for idx, present, numeric in scan:
            if z0 - largest[len(present)] > limit:
                break
            if numeric:
                bound = swept[idx]
            else:
                bound = z0
                for i in present:
                    bound -= q[i]
            if bound > limit:
                continue
            split = splits[idx]
            if split is None:
                split = splits[idx] = _class_split(present, label_of, k)
            summed += 1
            # Per class, (W+, W-) of the present block, its docs added
            # in ascending order.
            w1p, w1m = [], []
            for (pos, neg), col in zip(split, cols):
                wp = 0.0
                for i in pos:
                    wp += col[i]
                wm = 0.0
                for i in neg:
                    wm += col[i]
                w1p.append(wp)
                w1m.append(wm)
            fz = _closed_form(w1p, w1m, totals, eps)
            if fz > cutoff:
                continue
            if fz * _Z_SLACK < cutoff:
                cutoff = fz * _Z_SLACK
                limit = cutoff * _BOUND_SLACK + rounding
            cand = candidates[idx]
            w0p, w0m = _absent(w1p, w1m, totals)
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
        model.history.append(RoundInfo(z_actual, err, dev_f, summed))

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


def presence_index(model: BoostModel) -> PresenceIndex:
    """Per text field, first token -> the token counts of the model's
    n-grams on that field that start with it. An n-gram longer than
    the field's max n is left out: no feature view ever holds it."""
    max_n = dict(TEXT_FIELDS)
    lengths: dict[str, dict[str, set[int]]] = {name: {} for name in max_n}
    for hyp in model.rounds:
        if hyp.kind == "text":
            tokens = hyp.ngram.split(" ")
            if len(tokens) <= max_n[hyp.field]:
                lengths[hyp.field].setdefault(tokens[0], set()).add(len(tokens))
    return {name: {first: tuple(sorted(ns)) for first, ns in by_first.items()}
            for name, by_first in lengths.items()}


def reads_ingredients(model: BoostModel) -> bool:
    """Whether a round tests the recipe's ingredient items (a stump on
    the ``ingredients`` text field or on ``ingredient_count``). Without
    one, no score depends on the items, so scoring may pass none."""
    return any(hyp.field in ("ingredients", "ingredient_count") for hyp in model.rounds)


def _confidence(margin: float) -> float:
    # logistic of twice the margin, overflow-safe
    if margin >= 0.0:
        return 1.0 / (1.0 + math.exp(-2.0 * margin))
    e = math.exp(2.0 * margin)
    return e / (1.0 + e)


def score_boost(model: BoostModel, feats: BoostFeatures) -> ScoreVector:
    """Per-class confidence in [0, 1], strictly monotone in the margin."""
    totals = margins(model, feats)
    return ScoreVector(feats.recipe_id, "boost",
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
    header, body = Header.split((row for row in rows if row[0] != "#field"), path,
                                {"#classes": 2})
    classes = header["classes"][1].split(",")
    k = len(classes)
    rounds: list[WeakHypothesis] = []
    for row in check_widths(body, {"text": 3 + 2 * k, "numeric": 3 + 2 * k}):
        kind = row[0]
        if row[1] not in _FIELD_SCHEMA or (_FIELD_SCHEMA[row[1]] > 0) != (kind == "text"):
            raise row.fail(f"{row[1]!r} is not a {kind} field")
        votes = row.floats(3)
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
    "PresenceIndex",
    "RoundInfo",
    "WeakHypothesis",
    "load_boost",
    "margins",
    "presence_index",
    "reads_ingredients",
    "recipe_boost_features",
    "save_boost",
    "score_boost",
    "train_boost",
]
