#!/usr/bin/env python3
"""Regenerate, or check, the committed golden pipeline outputs.

Runs the paper-preset pipeline for both classification tasks on the
committed 60-recipe corpus and stores every run file (plus the model
manifest, which pins the byte digests of all trained models) under
tests/fixtures/golden/. The end-to-end acceptance test replays the
same commands into a scratch directory and compares byte for byte.

    python scripts/gen_goldens.py           # rewrite the goldens
    python scripts/gen_goldens.py --check   # replay and compare, write nothing

--check needs only the standard library, so any supported interpreter
can run it; it exits 1 and names every file that differs.
"""

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "tests" / "fixtures"

sys.path.insert(0, str(ROOT / "src"))

from recipetext.cli import main  # noqa: E402

TASKS = ("T1", "T2")


def run_task(task: str, work_dir: Path) -> dict[str, bytes]:
    """Run the golden pipeline for one task under work_dir and return
    the golden file set: every run file plus manifest.json."""
    corpus = str(FIXTURES / "golden60.xml")
    config = str(FIXTURES / f"golden_config_{task.lower()}.json")
    model_dir = work_dir / "models"
    run_dir = work_dir / "runs"
    base = ["--config", config, "--train-xml", corpus, "--test-xml", corpus,
            "--model-dir", str(model_dir), "--run-dir", str(run_dir)]
    commands = [["train"], ["classify"], ["fuse", "--runs", "paper"]]
    if task == "T2":
        commands.append(["extract"])
    for command in commands:
        if main(base + command) != 0:
            raise SystemExit(f"{task}: {' '.join(command)} failed")
    outputs = {p.name: p.read_bytes() for p in run_dir.iterdir()}
    outputs["manifest.json"] = (model_dir / "manifest.json").read_bytes()
    return outputs


def differences(task: str, produced: dict[str, bytes]) -> list[str]:
    golden_dir = FIXTURES / "golden" / task.lower()
    golden = {p.name: p.read_bytes() for p in golden_dir.iterdir()}
    out = []
    for name in sorted(set(golden) | set(produced)):
        if name not in produced:
            out.append(f"{task.lower()}/{name}: not produced")
        elif name not in golden:
            out.append(f"{task.lower()}/{name}: produced but not committed")
        elif produced[name] != golden[name]:
            out.append(f"{task.lower()}/{name}: bytes differ")
    return out


def write_golden(task: str, produced: dict[str, bytes]) -> None:
    golden_dir = FIXTURES / "golden" / task.lower()
    if golden_dir.exists():
        shutil.rmtree(golden_dir)
    golden_dir.mkdir(parents=True)
    for name, data in produced.items():
        (golden_dir / name).write_bytes(data)
    print(f"{task}: {sorted(produced)}")


def main_(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: gen_goldens.py [--check]", file=sys.stderr)
        return 2
    check = argv == ["--check"]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for task in TASKS:
            produced = run_task(task, Path(tmp) / task)
            if check:
                failures += differences(task, produced)
            else:
                write_golden(task, produced)
    if not check:
        return 0
    version = sys.version.split()[0]
    for line in failures:
        print(line)
    print(f"golden check on Python {version}: "
          + (f"{len(failures)} file(s) differ" if failures else "all files byte-identical"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main_(sys.argv[1:]))
