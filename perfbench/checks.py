"""Output checks. Each returns a list of error strings; empty means pass.

The golden replay reads ``tests/fixtures/`` and never writes there.
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import Counter
from pathlib import Path

LABEL_RUNS = ("run1.tsv", "run2.tsv", "run3.tsv", "fused_linear.tsv", "fused_electre.tsv")
# Files every iteration rewrites; repeated iterations must match byte for byte.
REPEATABLE = LABEL_RUNS + ("fusion_details.tsv", "ingredients.tsv")


def replay_golden(root: Path, work: Path) -> list[str]:
    """The golden60 T1/T2 paper pipeline against tests/fixtures/golden/."""
    from recipetext.cli import main

    fixtures = root / "tests" / "fixtures"
    corpus = str(fixtures / "golden60.xml")
    errors = []
    for task in ("T1", "T2"):
        model_dir, run_dir = work / task / "models", work / task / "runs"
        base = ["--config", str(fixtures / f"golden_config_{task.lower()}.json"),
                "--train-xml", corpus, "--test-xml", corpus,
                "--model-dir", str(model_dir), "--run-dir", str(run_dir)]
        commands = [["train"], ["classify"], ["fuse", "--runs", "paper"]]
        if task == "T2":
            commands.append(["extract"])
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [main(base + cmd) for cmd in commands]
        if any(codes):
            errors.append(f"golden {task}: exit codes {codes}")
            continue
        for golden in sorted((fixtures / "golden" / task.lower()).iterdir()):
            produced = (model_dir if golden.name == "manifest.json" else run_dir) / golden.name
            if not produced.exists() or produced.read_bytes() != golden.read_bytes():
                errors.append(f"golden {task}/{golden.name} differs")
    return errors


def _rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if line and not line.startswith("#")]


def run_files(run_dir: Path, ids: set[str], classes: set[str],
              methods: list[str]) -> list[str]:
    """Every id once per label run and score file, known classes, finite scores."""
    errors = []
    for name in LABEL_RUNS:
        rows = _rows(run_dir / name)
        counts = Counter(row[0] for row in rows)
        if set(counts) != ids or any(c != 1 for c in counts.values()):
            errors.append(f"{name}: ids differ from the test corpus or repeat")
        unknown = {row[1] for row in rows} - classes
        if unknown:
            errors.append(f"{name}: unknown classes {sorted(unknown)}")
    for method in methods:
        name = f"scores_{method}.tsv"
        rows = _rows(run_dir / name)
        if Counter(row[0] for row in rows) != Counter(ids):
            errors.append(f"{name}: ids differ from the test corpus or repeat")
        if not all(math.isfinite(float(x)) for row in rows for x in row[1:]):
            errors.append(f"{name}: non-finite score")
    return errors


def ingredient_run(path: Path, ids: set[str]) -> list[str]:
    """Known ids, ranks 1..k per recipe, confidences in (0, 1]."""
    errors = []
    ranks: dict[str, list[int]] = {}
    for rid, rank, _item, confidence in _rows(path):
        ranks.setdefault(rid, []).append(int(rank))
        if not 0.0 < float(confidence) <= 1.0:
            errors.append(f"{path.name}: confidence {confidence} of {rid} outside (0, 1]")
    if not set(ranks) <= ids:
        errors.append(f"{path.name}: ids outside the test corpus")
    if any(r != list(range(1, len(r) + 1)) for r in ranks.values()):
        errors.append(f"{path.name}: ranks not 1..k")
    return errors


def same_bytes(first: Path, second: Path, names) -> list[str]:
    return [f"{name} differs between {first.name} and {second.name}"
            for name in names if (first / name).read_bytes() != (second / name).read_bytes()]


def majority_share(labels: dict[str, str]) -> float:
    return max(Counter(labels.values()).values()) / len(labels)
