"""The benchmark's workloads: corpus sizes, pipeline settings and the
CLI command sequence one iteration runs.

Sizes are chosen so one iteration takes a few seconds on a 2-core
machine, which leaves several iterations per measured run for a
median. Fitting grows faster than linearly in the corpus size (boost
candidates x documents, agglutinator candidate pairs), so each layer's
share of an iteration depends on these sizes; see README.md for the
shares they give.
"""

from __future__ import annotations

from dataclasses import dataclass

# golden_config_t2.json's pipeline settings, except that boosting's
# patience equals its round budget: every seed then fits the same number
# of rounds, where early stopping would make fitting time a property of
# the seed (see PLAIN_T1).
GOLDEN_T2 = {
    "task": "T2",
    "seed": 42,
    "dev_fraction": 0.25,
    "norm": {"agglutinate": True, "agglutination_min_count": 4, "agglutination_max_n": 3},
    "boost": {"max_rounds": 30, "dev_patience": 30},
    "svm": {"regularization": 0.01, "epochs": 10},
    "cosine": {"gini_threshold": 0.45},
    "mi_k": 10000,
}

# T1 with the CLI's default normalization (no agglutination). Patience
# equals the round budget so every seed runs the same number of rounds:
# early stopping on the 4 ordinal classes otherwise stops anywhere from
# round 9 to 20, and fitting time with it.
PLAIN_T1 = {
    "task": "T1",
    "seed": 42,
    "dev_fraction": 0.25,
    "boost": {"max_rounds": 20, "dev_patience": 20},
    "svm": {"regularization": 0.01, "epochs": 10},
    "cosine": {"gini_threshold": 0.45},
}


# Every workload scores, fuses, extracts and evaluates the test corpus.
SCORING_COMMANDS = ("classify", "fuse", "extract", "evaluate", "evaluate-map")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    n_train: int
    n_test: int
    train_in_loop: bool

    @property
    def task(self) -> str:
        return self.config["task"]

    def iteration_commands(self) -> tuple[str, ...]:
        return (("train",) if self.train_in_loop else ()) + SCORING_COMMANDS


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="t2-train",
            why="T2 with golden settings, fitting in the loop: train dominates, so "
                "boost, SVM, agglutinator and lexicon-stats changes show here",
            config=GOLDEN_T2, n_train=160, n_test=200, train_in_loop=True),
        Workload(
            name="t2-score",
            why="T2 models fitted once in set-up; the loop classifies, fuses and "
                "extracts a large test set, so scoring changes show and fitting "
                "changes must not",
            config=GOLDEN_T2, n_train=150, n_test=600, train_in_loop=False),
        Workload(
            name="t1-plain",
            why="T1, 4 ordinal classes, no agglutination: bypasses the agglutinator, "
                "doubles the SVM pairs and adds ordinal evaluation",
            config=PLAIN_T1, n_train=120, n_test=300, train_in_loop=True),
    )
}
