"""One-vs-one linear SVM over tf-idf vectors.

One binary hinge-loss classifier per unordered class pair, trained by
primal stochastic subgradient descent with step 1/(lambda*t) and a
seed-controlled epoch shuffle (splitmix64 Fisher-Yates), so two runs
with the same seed produce identical weights bit for bit. Multi-class
decisions aggregate the |C|-1 signed margins oriented toward each
class and take the argmax.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus
from .errors import ConfigError, DataError, ModelMismatchError
from .features import LexiconStats, SparseVector, tfidf_vector
from .rng import SplitMix64, mix64
from .scores import ScoreVector
from .textnorm import Analysis
from .tsv import Header, read_rows, write_lines


@dataclass(frozen=True)
class SvmConfig:
    regularization: float = 1e-4
    epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if self.regularization <= 0:
            raise ConfigError("regularization must be > 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")


@dataclass
class PairModel:
    class_pair: tuple[str, str]
    weights: SparseVector
    bias: float


@dataclass
class OvoModel:
    pair_models: list[PairModel]
    classes: list[str]
    vocab_filter: frozenset[str] | None = None


def _restrict(vector: SparseVector, vocab: frozenset[str] | None) -> SparseVector:
    if vocab is None:
        return vector
    return {t: w for t, w in vector.items() if t in vocab}


def margin(model: PairModel, vector: SparseVector) -> float:
    """w.x + b, accumulated over the vector's terms in sorted order."""
    total = 0.0
    for term in sorted(vector):
        w = model.weights.get(term)
        if w is not None:
            total += w * vector[term]
    return total + model.bias


def train_pair(docs: list[tuple[str, SparseVector, int]], config: SvmConfig,
               pair: tuple[str, str], pair_seed: int) -> PairModel:
    """SGD on the hinge loss for one class pair.

    ``docs`` holds (recipe id, tf-idf vector, label +1/-1) with +1 for
    the pair's first class. Steps run in shuffled epoch order; on a
    margin violation the example is added with step weight, and the
    whole weight vector decays by (1 - eta*lambda) every step. The
    bias follows violations unregularized.
    """
    lam = config.regularization
    # w is held as slot[term] -> index into vals, slots in first-use order
    slot: dict[str, int] = {}
    vals: list[float] = []
    bias = 0.0
    rng = SplitMix64(pair_seed)
    items = [(sorted(vector.items()), y) for _, vector, y in docs]
    order = list(range(len(docs)))
    t = 0
    for _ in range(config.epochs):
        rng.shuffle(order)
        for idx in order:
            t += 1
            eta = 1.0 / (lam * t)
            terms, y = items[idx]
            total = 0.0
            for term, x in terms:
                j = slot.get(term)
                if j is not None:
                    total += vals[j] * x
            violated = y * (total + bias) < 1.0
            decay = 1.0 - eta * lam
            vals = [w * decay for w in vals]
            if violated:
                step = eta * y
                for term, x in terms:
                    j = slot.get(term)
                    if j is None:
                        slot[term] = len(vals)
                        vals.append(0.0 + step * x)
                    else:
                        vals[j] += step * x
                bias += step
    weights = {term: vals[j] for term, j in slot.items() if vals[j] != 0.0}
    return PairModel(pair, weights, bias)


def train_ovo(train: Corpus, analyses: Mapping[str, Analysis], stats: LexiconStats,
              config: SvmConfig, vocab_filter: frozenset[str] | None = None,
              labels: dict[str, str] | None = None) -> OvoModel:
    """One PairModel per unordered class pair, classes in sorted order;
    ``analyses`` maps each training recipe id to its analysis."""
    if labels is None:
        labels = train.labels()
    classes = sorted(set(labels.values()))
    if len(classes) < 2:
        raise DataError("one-vs-one training needs at least 2 classes")
    vectors = {r.id: _restrict(tfidf_vector(analyses[r.id], stats), vocab_filter)
               for r in train}

    by_class: dict[str, list[str]] = {c: [] for c in classes}
    for recipe in train:
        by_class[labels[recipe.id]].append(recipe.id)
    for cls in classes:
        if not by_class[cls]:
            raise DataError(f"class {cls!r} has no training documents")

    pair_models = []
    pair_idx = 0
    for i, first in enumerate(classes):
        for second in classes[i + 1:]:
            docs = []
            for recipe in train:
                cls = labels[recipe.id]
                if cls == first:
                    docs.append((recipe.id, vectors[recipe.id], +1))
                elif cls == second:
                    docs.append((recipe.id, vectors[recipe.id], -1))
            pair_seed = mix64(config.seed + pair_idx)
            pair_models.append(train_pair(docs, config, (first, second), pair_seed))
            pair_idx += 1
    return OvoModel(pair_models, classes, vocab_filter)


def score_ovo(model: OvoModel, analysis: Analysis, stats: LexiconStats,
              method_id: str = "svm") -> ScoreVector:
    """Aggregate margins: each pair's margin counts positively for its
    first class and negatively for its second."""
    vector = _restrict(tfidf_vector(analysis, stats), model.vocab_filter)
    scores = {cls: 0.0 for cls in model.classes}
    for pair_model in model.pair_models:
        first, second = pair_model.class_pair
        m = margin(pair_model, vector)
        scores[first] += m
        scores[second] -= m
    return ScoreVector(analysis.recipe.id, method_id, scores)


def save_ovo(model: OvoModel, path: str | Path) -> None:
    lines = ["#ovo\tv1", "#classes\t" + ",".join(model.classes)]
    if model.vocab_filter is not None:
        lines.append("#vocab_filter\t" + ",".join(sorted(model.vocab_filter)))
    for pair_model in model.pair_models:
        first, second = pair_model.class_pair
        lines.append(f"pair\t{first}\t{second}\t{pair_model.bias:.17g}")
        for term in sorted(pair_model.weights):
            lines.append(f"w\t{term}\t{pair_model.weights[term]:.17g}")
    write_lines(path, lines)


def load_ovo(path: str | Path) -> OvoModel:
    header, body = Header.split(read_rows(path, "#ovo\tv1"), path)
    pair_models: list[PairModel] = []
    for row in body:
        if row[0] == "w":
            if not pair_models:
                raise row.fail("weight line before any pair header")
            row.put(pair_models[-1].weights, row[1], row.float(2))
        elif row[0] == "pair":
            pair_models.append(PairModel((row[1], row[2]), {}, row.float(3)))
        else:
            raise row.fail(f"unknown row kind {row[0]!r}")
    classes = header["classes"][1].split(",")
    vocab_filter = None
    if "vocab_filter" in header:
        vocab_filter = frozenset(header["vocab_filter"][1].split(","))
    expected = [(a, b) for i, a in enumerate(classes) for b in classes[i + 1:]]
    if [model.class_pair for model in pair_models] != expected:
        raise ModelMismatchError(
            f"{path}: {len(pair_models)} pair models do not match classes {classes}")
    return OvoModel(pair_models, classes, vocab_filter)


__all__ = [
    "OvoModel",
    "PairModel",
    "SvmConfig",
    "load_ovo",
    "margin",
    "save_ovo",
    "score_ovo",
    "train_ovo",
    "train_pair",
]
