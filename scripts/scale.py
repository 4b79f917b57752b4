#!/usr/bin/env python3
"""Scaling curve of `train`, `classify`, `fuse` and `extract` over corpus size.

For each n in SIZES, one size at a time, this generates a training
corpus of n recipes and a test corpus of n/2 with perfbench's corpus
generator at seed SEED, then runs `train`, `classify`, `fuse` and
`extract` with perfbench's T2 golden settings (GOLDEN_T2). Each command
runs REPEATS times in a row, each time as its own `python -m
recipetext.cli` child process, so its wall time and peak RSS
(ru_maxrss, from wait4) are its own; a command's report holds the
median of each and every sample, since single runs on a shared machine
move by up to about 20%. After its timed runs, each command runs
REPEATS times more with perfbench's tracer (perfbench/tracing.py)
installed around `recipetext.cli.main` in the child, with four more
layers for the per-recipe work around the scorers (TRACED_CHILD); the
median of each layer's self time (s) and counters over those runs goes
under the command's "layers" (a layer a run does not report reads 0
there) and feeds no timed figure. The report's "layer_growth" gives each layer's
ratio per 4x in n, and
"top_layers" the three layers with the most self time at the largest
n. The result goes to BENCH_scale_<label>.json in --out-dir, with the
sha256 of the corpora, of every model file, of the four score files
`classify` writes ("scores") and of the files `fuse` and `extract`
write ("outputs").

    python3 scripts/scale.py --label after
    python3 scripts/scale.py --label before --src /path/to/other/checkout/src

--src picks the package the commands run (default: this checkout's
src/); corpora always come from this checkout's generator, so two
labels see the same bytes. After writing, the script compares the
corpus and model hashes with every other BENCH_scale_*.json in
--out-dir, size by size, and the score and output hashes with every
such report that has them (older reports do not), and exits 1 if any
of them differs; the traced figures are not compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpusgen  # noqa: E402
from workloads import GOLDEN_T2  # noqa: E402

SIZES = (300, 1200, 4800)
SEED = 7
REPEATS = 3
COMMANDS = ("train", "classify", "fuse", "extract")
# run-directory files hashed under each key of a size's report
RUN_FILES = {"scores": ("scores_*.tsv",),
             "outputs": ("fused_*.tsv", "fusion_details.tsv", "ingredients.tsv")}
COMPARED = ("boost.model", "svm.model", "manifest.json")
# The traced run's child: argv is the output path, then the CLI's argv.
# Besides perfbench's layers it times the per-recipe work that `classify`
# does outside them, so cli.classify's self time is named. A wrapper
# around the generator corpus.iter_recipes would time only its creation,
# so that one is left out.
TRACED_CHILD = """
import json, sys
import recipetext.cli
import tracing
from tracing import Tracer
tracing.TRACED.extend([
    ("textnorm", "analyze", "textnorm.analyze", None),
    ("textnorm", "with_agglutination", "textnorm.with_agglutination", None),
    ("features", "feed_counts", "features.feed_counts", None),
    ("cli", "_save_score_tsv", "cli.save_score_tsv", None),
])
tracing.LAYER_METRICS.update({
    "textnorm.analyze_s": "s", "textnorm.analyze_calls": "count",
    "textnorm.with_agglutination_s": "s", "features.feed_counts_s": "s",
    "cli.save_score_tsv.self_s": "s",
})
tracer = Tracer()
tracer.install()
code = recipetext.cli.main(sys.argv[2:])
tracer.remove()
metrics = tracer.unit_metrics({None}, tracer.self_times())
with open(sys.argv[1], "w", encoding="utf-8") as out:
    json.dump({"exit": code, "nesting_errors": tracer.nesting_errors(),
               "layers": {name: value for name, value in metrics.items() if value}}, out)
"""


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _run(src: Path, argv: list[str]) -> dict:
    """One CLI command in a child process: wall time and peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    child = subprocess.Popen([sys.executable, "-m", "recipetext.cli", *argv], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    stderr = child.stderr.read()
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - start
    child.returncode = code = os.waitstatus_to_exitcode(status)  # reaped by wait4
    if code != 0:
        raise SystemExit(f"{argv[-1]} exited {code}: {stderr.decode().strip()}")
    # ru_maxrss is in KiB on Linux
    return {"wall_s": round(wall, 3), "maxrss_mb": round(usage.ru_maxrss / 1024, 1)}


def _traced(src: Path, argv: list[str], out: Path) -> dict:
    """One CLI command in a child process under the tracer: the run's
    nonzero layer metrics (self times in s, counters)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(ROOT / "perfbench")]))
    subprocess.run([sys.executable, "-c", TRACED_CHILD, str(out), *argv], env=env,
                   stdout=subprocess.DEVNULL, check=True)
    result = json.loads(out.read_text(encoding="utf-8"))
    if result["exit"] != 0 or result["nesting_errors"]:
        raise SystemExit(f"traced {argv[-1]}: {result}")
    return {name: round(value, 4) for name, value in sorted(result["layers"].items())}


def layer_growth(sizes: dict) -> tuple[dict, dict]:
    """Each command's layers with their ratio per 4x in n (one ratio per
    step between consecutive sizes), and the three layers with the most
    self time at the largest n."""
    growth, top = {}, {}
    ordered = [sizes[n] for n in sorted(sizes, key=int)]
    for command in COMMANDS:
        layers = [size[command]["layers"] for size in ordered]
        growth[command] = {name: [round(b[name] / a[name], 2) if a.get(name) else None
                                  for a, b in zip(layers, layers[1:])]
                           for name in layers[-1]}
        times = [name for name in layers[-1] if name.endswith("_s")]
        top[command] = sorted(times, key=layers[-1].get, reverse=True)[:3]
    return growth, top


def measure(n: int, src: Path, work: Path) -> dict:
    size_dir = work / f"n{n}"
    size_dir.mkdir(parents=True)
    train_xml = corpusgen.write(ROOT, SEED, "tr", n, size_dir / "train.xml")
    test_xml = corpusgen.write(ROOT, SEED, "te", n // 2, size_dir / "test.xml")
    config = size_dir / "config.json"
    config.write_text(json.dumps(GOLDEN_T2), encoding="utf-8")
    model_dir = size_dir / "models"
    base = ["--config", str(config), "--train-xml", str(train_xml), "--test-xml",
            str(test_xml), "--model-dir", str(model_dir), "--run-dir", str(size_dir / "runs")]
    result = {"n_train": n, "n_test": n // 2,
              "corpus_sha256": {p.name: _sha256(p) for p in (train_xml, test_xml)}}
    for command in COMMANDS:
        samples = [_run(src, base + [command]) for _ in range(REPEATS)]
        result[command] = {"wall_s": statistics.median(s["wall_s"] for s in samples),
                           "maxrss_mb": statistics.median(s["maxrss_mb"] for s in samples),
                           "samples": samples}
        traced = [_traced(src, base + [command], size_dir / "traced.json")
                  for _ in range(REPEATS)]
        result[command]["layers"] = {name: statistics.median(t.get(name, 0) for t in traced)
                                     for name in sorted(set().union(*traced))}
        print(f"n={n} {command}: {result[command]}", flush=True)
    result["models"] = {p.name: _sha256(p) for p in sorted(model_dir.iterdir())}
    for key, patterns in RUN_FILES.items():
        result[key] = {p.name: _sha256(p) for pattern in patterns
                       for p in sorted((size_dir / "runs").glob(pattern))}
    return result


def compare(report: dict, out_dir: Path, own: Path) -> list[str]:
    """Corpora, model files, score files and outputs that differ from
    another label's."""
    problems = []
    for other_path in sorted(out_dir.glob("BENCH_scale_*.json")):
        if other_path == own:
            continue
        other = json.loads(other_path.read_text(encoding="utf-8"))
        for size, mine in report["sizes"].items():
            theirs = other["sizes"][size]
            if theirs["corpus_sha256"] != mine["corpus_sha256"]:
                problems.append(f"n={size}: corpora differ from {other_path.name}")
                continue
            for name in COMPARED:
                same = mine["models"].get(name) == theirs["models"].get(name)
                print(f"n={size} {name} vs {other['label']}: {'same' if same else 'DIFFERS'}")
                if not same:
                    problems.append(f"n={size}: {name} differs from {other_path.name}")
            for key in RUN_FILES:
                if key not in theirs:
                    continue
                for name in sorted(mine[key].keys() | theirs[key].keys()):
                    same = mine[key].get(name) == theirs[key].get(name)
                    print(f"n={size} {name} vs {other['label']}: "
                          f"{'same' if same else 'DIFFERS'}")
                    if not same:
                        problems.append(f"n={size}: {name} differs from {other_path.name}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--src", type=Path, default=ROOT / "src",
                        help="directory holding the recipetext package to run")
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args()

    report = {"label": args.label, "seed": SEED, "config": GOLDEN_T2,
              "python": platform.python_version(), "cpus": os.cpu_count(), "sizes": {}}
    with tempfile.TemporaryDirectory(prefix="recipetext-scale-") as tmp:
        for n in SIZES:
            report["sizes"][str(n)] = measure(n, args.src.resolve(), Path(tmp))
    report["layer_growth"], report["top_layers"] = layer_growth(report["sizes"])
    for command, names in report["top_layers"].items():
        print(f"top layers of {command} at n={SIZES[-1]}: " + ", ".join(
            f"{name} ({report['layer_growth'][command][name]} per 4x)" for name in names))
    path = args.out_dir / f"BENCH_scale_{args.label}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    problems = compare(report, args.out_dir, path)
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
