#!/usr/bin/env python3
"""recipetext benchmark: end-to-end timings per workload, or a traced
per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload t2-train --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

One workload runs in a child process (perfbench/worker.py) whose peak
RSS is read with wait4. Human-readable lines go first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones. ``--workload all``
runs every workload untraced and then traced.

Scratch files live under ``.perfbench_work/`` and are removed at exit;
the traced run's spans are kept in ``.perfbench_out/spans-<workload>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s", "pipeline_s": "s", "train_s": "s", "classify_s": "s",
    "peak_rss_mb": "MB", "run2_micro_f": "ratio", "ingredients_map": "ratio",
}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child process and return its result."""
    work = ROOT / ".perfbench_work" / f"{name}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    result_path = work / "result.json"
    try:
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
             "--work", str(work / "run"), "--result", str(result_path),
             "--spans", str(ROOT / ".perfbench_out" / f"spans-{name}.jsonl")],
            stdout=sys.stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise RuntimeError(f"worker for {name} exited with {proc.returncode}")
        result = json.loads(result_path.read_text(encoding="utf-8"))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not trace:
        result["metrics"]["peak_rss_mb"] = usage.ru_maxrss / 1024  # Linux: KiB
    return result


def report(name: str, trace: int, result: dict) -> dict:
    """Print one workload's metrics; return them in the result-line form."""
    units = LAYER_METRICS if trace else END_TO_END_UNITS
    kind = "per-layer (traced)" if trace else "end-to-end"
    print(f"== {name}: {kind}, {result['iterations']} iterations, "
          f"error_rate {result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"   FAIL {failure}")
    for key, values in sorted(result["samples"].items()):
        print(f"   samples {key:<13} n={len(values):<3} "
              + " ".join(f"{v:.3f}" for v in values))
    metrics = {}
    for metric, unit in units.items():
        value = result["metrics"][metric]
        print(f"   {metric:<32} {value:>14.6f} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="recipetext benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    missing = [p for p in ("src/recipetext/cli.py", "scripts/gen_fixtures.py",
                           "tests/fixtures/golden") if not (ROOT / p).exists()]
    if missing:
        print(f"error: not a recipetext checkout, missing {missing}", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    attempted = failed = 0
    metrics = {}
    for name, trace in runs:
        result = run_workload(name, args.seed, args.seconds, trace)
        attempted += result["attempted"]
        failed += result["failed"]
        shown = report(name, trace, result)
        if len(runs) == 1:
            metrics = shown
        else:
            metrics.update({f"{name}/{key}": value for key, value in shown.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
