"""Run one workload in this process and write its result as JSON.

run.py starts this file as a child process, so the child's peak RSS is
the workload's own. The CLI runs in-process through
``recipetext.cli.main``; nothing here starts a thread or a process.

Order of work: replay the golden60 pipeline, set the workload up five
times (corpus generation, plus the one-off ``train`` where fitting is
not in the loop), then run iterations of the workload's command
sequence until ``--seconds`` have passed and at least two have run.
With ``--trace 1`` the set-ups are traced and iterations alternate
untraced and traced; each per-layer metric covers one set-up plus one
traced iteration.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import corpusgen  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from recipetext.cli import TASK_LABEL_KIND, TASK_METHODS, main as cli_main  # noqa: E402
from recipetext.corpus import Difficulty, LabelKind, load_corpus  # noqa: E402

SETUPS = 5
MIN_ITERATIONS = 2


class Bench:
    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, check, *args) -> None:
        """Count one check; ``check(*args)`` returns its error strings.

        A check that cannot read what it checks (a command failed before
        writing it) fails rather than stopping the run.
        """
        self.attempted += 1
        try:
            errors = check(*args)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            errors = [f"{getattr(check, '__name__', 'check')}: {type(exc).__name__}: {exc}"]
        if errors:
            self.failed += 1
            self.failures.extend(errors)

    def command(self, name: str, setup_dir: Path, model_dir: Path,
                run_dir: Path) -> tuple[float, str]:
        """Run one CLI command; returns its wall time and its stdout."""
        argv = ["--config", str(setup_dir / "config.json"),
                "--train-xml", str(setup_dir / "train.xml"),
                "--test-xml", str(setup_dir / "test.xml"),
                "--model-dir", str(model_dir), "--run-dir", str(run_dir)]
        argv += {
            "train": ["train"],
            "classify": ["classify"],
            "fuse": ["fuse", "--runs", "paper"],
            "extract": ["extract"],
            "evaluate": ["evaluate", str(run_dir / "run2.tsv")],
            "evaluate-map": ["--task", "T4", "evaluate", str(run_dir / "ingredients.tsv")],
        }[name]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli_main(argv)
        except Exception as exc:  # a traceback is a failed command, not a crash
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        self.check(lambda: [] if code == 0 else [f"{name}: exit {code} {err.getvalue().strip()}"])
        return elapsed, out.getvalue()

    def setup(self, index: int) -> tuple[Path, float, float | None]:
        """Generate the corpora (and fit, when fitting is not in the loop)."""
        w = self.workload
        target = self.work / f"setup{index}"
        target.mkdir(parents=True)
        start = time.perf_counter()
        corpusgen.write(ROOT, self.seed, "tr", w.n_train, target / "train.xml")
        corpusgen.write(ROOT, self.seed, "te", w.n_test, target / "test.xml")
        (target / "config.json").write_text(json.dumps(w.config), encoding="utf-8")
        train_s = None
        if not w.train_in_loop:
            train_s, _ = self.command("train", target, target / "models", target / "runs")
        return target, time.perf_counter() - start, train_s


def _value(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        cells = line.split("\t")
        if cells[0] == key:
            return float(cells[1])
    raise ValueError(f"no {key!r} line in evaluate output")


def _gold_checks(bench: Bench, setup_dir: Path, stdout: str) -> list[str]:
    """run2 beats the majority class; on T1 also its mean ordinal distance."""
    task = bench.workload.task
    gold = load_corpus(setup_dir / "test.xml", TASK_LABEL_KIND[task]).labels()
    micro_f, majority = _value(stdout, "micro_f"), checks.majority_share(gold)
    if micro_f <= majority:
        return [f"run2 micro-F {micro_f:.4f} <= majority share {majority:.4f}"]
    if task == "T1":
        rank = {d.name: d.rank for d in Difficulty}
        top = max(sorted(set(gold.values())), key=list(gold.values()).count)
        baseline = statistics.fmean(abs(rank[g] - rank[top]) for g in gold.values())
        distance = _value(stdout, "mean_distance")
        if distance >= baseline:
            return [f"run2 mean distance {distance:.4f} >= majority {baseline:.4f}"]
    return []


def run(workload_name: str, seed: int, seconds: float, trace: bool, work: Path,
        spans_path: Path) -> dict:
    w = WORKLOADS[workload_name]
    bench = Bench(w, seed, work)
    bench.check(checks.replay_golden, ROOT, work / "golden")

    # Traced set-ups carry negative iteration ids; on t2-score they hold
    # the only fitting, so the fitting layers are measured there.
    tracer = tracing.Tracer()
    setups = []
    for index in range(SETUPS):
        if trace:
            tracer.iteration = -1 - index
            tracer.install()
        try:
            setups.append(bench.setup(index))
        finally:
            tracer.remove()
    setup_dir = setups[0][0]
    for other, _, _ in setups[1:]:
        names = ["train.xml", "test.xml"]
        if not w.train_in_loop:
            names.append("models/manifest.json")
        bench.check(checks.same_bytes, setup_dir, other, names)
        shutil.rmtree(other)

    test_ids = {r.id for r in load_corpus(setup_dir / "test.xml", LabelKind.NONE)}
    classes = set(load_corpus(setup_dir / "train.xml", TASK_LABEL_KIND[w.task]).classes())
    methods = TASK_METHODS[w.task]
    repeatable = list(checks.REPEATABLE) + [f"scores_{m}.tsv" for m in methods]

    times: dict[str, list[float]] = {"pipeline": [], "traced": []}
    quality: dict[str, float] = {}
    first = None
    started = time.perf_counter()
    i = 0
    while i < MIN_ITERATIONS or time.perf_counter() - started < seconds:
        it_dir = work / f"it{i}"
        model_dir = it_dir / "models" if w.train_in_loop else setup_dir / "models"
        run_dir = it_dir / "runs"
        traced = trace and i % 2 == 1
        if traced:
            tracer.iteration = i
            tracer.install()
        gc.collect()
        outputs = {}
        start = time.perf_counter()
        try:
            for name in w.iteration_commands():
                elapsed, outputs[name] = bench.command(name, setup_dir, model_dir, run_dir)
                times.setdefault(name, []).append(elapsed)
            times["traced" if traced else "pipeline"].append(time.perf_counter() - start)
        finally:
            tracer.remove()

        bench.check(checks.run_files, run_dir, test_ids, classes, methods)
        bench.check(checks.ingredient_run, run_dir / "ingredients.tsv", test_ids)
        if first is None:
            first = it_dir
            bench.check(_gold_checks, bench, setup_dir, outputs["evaluate"])
            quality["run2_micro_f"] = _value(outputs["evaluate"], "micro_f")
            quality["ingredients_map"] = _value(outputs["evaluate-map"], "map")
        else:
            bench.check(checks.same_bytes, first / "runs", run_dir, repeatable)
            if w.train_in_loop:
                bench.check(checks.same_bytes, first / "models", model_dir, ["manifest.json"])
            shutil.rmtree(it_dir)
        i += 1

    if trace:
        bench.check(tracer.nesting_errors)
        tracer.write_spans(spans_path)
        traced_iterations = sorted({span[4] for span in tracer.spans if span[4] >= 0})
        metrics = tracer.layer_metrics(traced_iterations, [-1 - k for k in range(SETUPS)])
        metrics["trace.overhead_s"] = (statistics.median(times["traced"])
                                       - statistics.median(times["pipeline"]))
    else:
        train_times = times["train"] if w.train_in_loop else [s[2] for s in setups]
        metrics = {
            "setup_s": statistics.median(s[1] for s in setups),
            "pipeline_s": statistics.median(times["pipeline"]),
            "train_s": statistics.median(train_times),
            "classify_s": statistics.median(times["classify"]),
            **quality,
        }
    return {
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures,
        "iterations": i,
        "metrics": metrics,
        "samples": {name: values for name, values in times.items() if values},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.work,
                 args.spans)
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
