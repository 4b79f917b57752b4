"""Score normalization and the two fusion strategies.

Per-method score vectors are first rescaled to sum to 1 over the
classes. Fusion then either sums the normalized scores per class
(linear combination) or builds an outranking relation between classes
(concordance threshold + per-method veto), keeps the kernel of
non-outranked classes, and falls back to the linear winner whenever
the kernel is not a singleton.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import ConfigError, DataError, is_number
from .scores import ScoreVector
from .summation import ordered_sum


def normalize_scores(vector: ScoreVector) -> ScoreVector:
    """Rescale scores to sum to 1.

    Raw scores may be negative (SVM margins): if any score is below
    zero, all scores are first shifted by -min so the minimum lands at
    0; order is preserved. A zero-sum vector normalizes to uniform.
    """
    values = vector.scores
    if not values:
        raise DataError(f"empty score vector for recipe {vector.recipe_id!r}")
    low = min(values.values())
    shifted = {c: v - low for c, v in values.items()} if low < 0 else dict(values)
    total = ordered_sum(shifted[c] for c in sorted(shifted))
    if total == 0.0:
        uniform = 1.0 / len(shifted)
        normalized = {c: uniform for c in shifted}
    else:
        normalized = {c: v / total for c, v in shifted.items()}
    return ScoreVector(vector.recipe_id, vector.method_id, normalized)


def _check_alignment(vectors: list[ScoreVector]) -> list[str]:
    if not vectors:
        raise DataError("fusion needs at least one score vector")
    classes = vectors[0].classes()
    for v in vectors[1:]:
        if v.classes() != classes:
            raise DataError(
                f"class-set mismatch between methods {vectors[0].method_id!r} "
                f"and {v.method_id!r}")
    return classes


def fuse_linear(vectors: list[ScoreVector]) -> tuple[str, ScoreVector]:
    """Component-wise sum of the normalized vectors; argmax wins."""
    classes = _check_alignment(vectors)
    fused = {c: ordered_sum(v.scores[c] for v in vectors) for c in classes}
    result = ScoreVector(vectors[0].recipe_id, "linear", fused)
    return result.top_class(), result


@dataclass(frozen=True)
class ElectreParams:
    method_weights: dict[str, float]
    concordance_threshold: float
    veto_values: dict[str, float]

    def __post_init__(self):
        if not self.method_weights:
            raise ConfigError("ELECTRE needs at least one method weight")
        for method, weight in self.method_weights.items():
            if not is_number(weight) or weight <= 0:
                raise ConfigError(f"method weight for {method!r} must be a number > 0, "
                                  f"got {weight!r}")
        sc = self.concordance_threshold
        if not is_number(sc) or not 0.0 <= sc <= 1.0:
            raise ConfigError(f"concordance threshold {sc!r} is not a number in [0, 1]")
        for method, veto in self.veto_values.items():
            if not is_number(veto) or not 0.0 <= veto <= 1.0:
                raise ConfigError(f"veto value for {method!r} must be a number in [0, 1], "
                                  f"got {veto!r}")

    @classmethod
    def uniform(cls, methods: list[str], concordance_threshold: float,
                veto: float = 0.5) -> "ElectreParams":
        return cls(
            method_weights={m: 1.0 for m in methods},
            concordance_threshold=concordance_threshold,
            veto_values={m: veto for m in methods},
        )


@dataclass
class OutrankingRelation:
    edges: set[tuple[str, str]] = field(default_factory=set)
    kernel: set[str] = field(default_factory=set)


def electre_relation(vectors: list[ScoreVector], params: ElectreParams) -> OutrankingRelation:
    """Build the outranking relation over classes for one recipe.

    c outranks c' when the weight share of methods on which c dominates
    c' (non-strictly: ties count both ways) reaches the concordance
    threshold AND no method sees c trail c' by at least that method's
    veto value.
    """
    classes = _check_alignment(vectors)
    total_weight = ordered_sum(params.method_weights[v.method_id] for v in vectors)

    relation = OutrankingRelation()
    for c in classes:
        for c_prime in classes:
            if c == c_prime:
                continue
            concordant = 0.0
            veto = False
            for v in vectors:
                s_c = v.scores[c]
                s_cp = v.scores[c_prime]
                if s_c >= s_cp:
                    concordant += params.method_weights[v.method_id]
                elif s_cp - s_c >= params.veto_values[v.method_id]:
                    veto = True
            concordance = concordant / total_weight
            if concordance >= params.concordance_threshold and not veto:
                relation.edges.add((c, c_prime))

    outranked = {target for _, target in relation.edges}
    relation.kernel = {c for c in classes if c not in outranked}
    return relation


def fuse_electre(vectors: list[ScoreVector],
                 params: ElectreParams) -> tuple[str, OutrankingRelation]:
    """Singleton kernel decides; otherwise the linear combination does."""
    relation = electre_relation(vectors, params)
    if len(relation.kernel) == 1:
        return next(iter(relation.kernel)), relation
    winner, _ = fuse_linear(vectors)
    return winner, relation


# Concordance thresholds the difficulty and dish-type tasks ship with;
# veto is 0.5 for every method on both tasks.
DEFAULT_CONCORDANCE = {"T1": 0.7, "T2": 0.6}
DEFAULT_VETO = 0.5


__all__ = [
    "DEFAULT_CONCORDANCE",
    "DEFAULT_VETO",
    "ElectreParams",
    "OutrankingRelation",
    "ScoreVector",
    "electre_relation",
    "fuse_electre",
    "fuse_linear",
    "normalize_scores",
]
