"""Single-file edits of a golden60 T2 run, each fed to the command that
reads the edited file.

A fixed-seed stream of edits (delete, duplicate or swap a line; replace,
insert or drop a cell; truncate the file) hits the eight model files
(manifest re-hashed, then ``classify``), the four score files
(``fuse``), the test XML (``classify``) and ``run2.tsv``
(``evaluate``). Many edits leave a legal file (swapped rows outside
the statistics, whose terms must ascend, or the agglutination n-grams,
which are a free list), so an edit may pass.
None may crash: every command exits 0, 2, 3 or 4 with at most one
``error:`` line and no traceback. The edits that each reader must
refuse by its stated row widths, counts and keys are checked one by
one: each exits 3 or 4 and names the edited row's ``file:line``.
"""

import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from recipetext.cli import main
from recipetext.corpus import Corpus, load_corpus, save_corpus
from recipetext.rng import SplitMix64

FIXTURES = Path(__file__).parent / "fixtures"
MODEL_FILES = ("agglutination.txt", "boost.model", "cosine_flat.model", "cosine_hier.model",
               "lexicon.tsv", "stats.tsv", "stats_title.tsv", "svm.model")
SCORE_FILES = tuple(f"scores_{m}.tsv" for m in ("boost", "cosine_flat", "cosine_hier", "svm"))
TARGETS = MODEL_FILES + SCORE_FILES + ("test.xml", "run2.tsv")
SEED = 1
EDITS_PER_FILE = 25
CELLS = ("", "x", "-1", "0", "2.5", "nan", "1e309", "Dessert", "#classes")
TEST_RECIPES = 12  # classify time grows with the test corpus


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Models trained on golden60, and the score files and runs of its
    first TEST_RECIPES recipes."""
    base = tmp_path_factory.mktemp("probe")
    golden = load_corpus(FIXTURES / "golden60.xml")
    save_corpus(Corpus(golden.recipes[:TEST_RECIPES]), base / "test.xml")
    for command in (["train"], ["classify"], ["fuse", "--runs", "paper"]):
        assert main(_argv(base, base / "models", base / "runs", *command)) == 0
    return base


def _argv(base, model_dir, run_dir, *command):
    return ["--config", str(FIXTURES / "golden_config_t2.json"),
            "--train-xml", str(FIXTURES / "golden60.xml"), "--test-xml", str(base / "test.xml"),
            "--model-dir", str(model_dir), "--run-dir", str(run_dir), *command]


def _edit(lines: list[str], rng: SplitMix64) -> list[str]:
    """One random edit of a non-empty list of lines."""
    lines = list(lines)
    op, i = rng.below(7), rng.below(len(lines))
    if op == 0:
        del lines[i]
    elif op == 1:
        lines.insert(i, lines[i])
    elif op == 2:
        j = (i + 1) % len(lines)
        lines[i], lines[j] = lines[j], lines[i]
    elif op == 6:
        del lines[i:]
    else:
        cells = lines[i].split("\t")
        j = rng.below(len(cells))
        if op == 3:
            cells[j] = CELLS[rng.below(len(CELLS))]
        elif op == 4:
            cells.insert(j + rng.below(2), CELLS[rng.below(len(CELLS))])
        else:
            del cells[j]
        lines[i] = "\t".join(cells)
    return lines


def _path(root: Path, name: str) -> Path:
    """Where ``name`` lies in a run."""
    if name == "test.xml":
        return root / name
    return root / ("models" if name in MODEL_FILES else "runs") / name


def _lines(run, name):
    return _path(run, name).read_text(encoding="utf-8").splitlines()


def _feed(run, tmp_path, name, lines):
    """The edited file fed to the command that reads it, in a fresh copy
    of the run: the exit code and the edited file's path."""
    shutil.copytree(run, tmp_path, dirs_exist_ok=True)
    target = _path(tmp_path, name)
    target.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    if name in MODEL_FILES:
        manifest = json.loads((tmp_path / "models/manifest.json").read_text(encoding="utf-8"))
        manifest["files"][name] = hashlib.sha256(target.read_bytes()).hexdigest()
        (tmp_path / "models/manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    if name in SCORE_FILES:
        command = ["fuse"]
    elif name == "run2.tsv":
        command = ["evaluate", str(target)]
    else:
        command = ["--run-dir", str(tmp_path / "out"), "classify"]
    return main(_argv(tmp_path, tmp_path / "models", tmp_path / "runs", *command)), target


def test_no_edit_crashes(run, tmp_path, capsys):
    rng = SplitMix64(SEED)
    codes = []
    for name in TARGETS:
        original = _lines(run, name)
        for k in range(EDITS_PER_FILE):
            capsys.readouterr()
            code, _ = _feed(run, tmp_path / f"{name}-{k}", name, _edit(original, rng))
            err = capsys.readouterr().err
            assert code in (0, 2, 3, 4), (name, k, err)
            assert sum(line.startswith("error:") for line in err.splitlines()) <= 1, (name, k)
            assert "Traceback" not in err, (name, k)
            codes.append(code)
    assert len(codes) == len(TARGETS) * EDITS_PER_FILE and set(codes) - {0}


def _change_line(find, change):
    """The edit that applies ``change`` to the line at ``find(lines)``."""
    def edit(lines):
        i = find(lines)
        return lines[:i] + [change(lines[i])] + lines[i + 1:]
    return edit


def _first(prefix="", data=False):
    """The index of the first line that starts with ``prefix`` (or, with
    ``data``, of the first line past the "#" header lines)."""
    return lambda lines: next(i for i, line in enumerate(lines)
                              if (not line.startswith("#") if data else line.startswith(prefix)))


def _swap_next(find):
    """The edit that swaps the line at ``find(lines)`` with the next one."""
    def edit(lines):
        i = find(lines)
        return lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:]
    return edit


# Edits each reader once accepted with exit 0.
REFUSED = {
    "score_row_extra_cell": ("scores_svm.tsv", _change_line(_first(data=True),
                                                           lambda line: line + "\t0.5")),
    "run_empty_label": ("run2.tsv", _change_line(
        _first(), lambda line: line.split("\t")[0] + "\t")),
    "stats_negative_class_count": ("stats.tsv", _change_line(
        _first(data=True), lambda line: line.rsplit("\t", 1)[0] + "\t-1")),
    "stats_extra_cell": ("stats.tsv", _change_line(_first(data=True), lambda line: line + "\t1")),
    "hier_stats_extra_cell": ("stats_title.tsv", _change_line(
        lambda lines: len(lines) - 1, lambda line: line + "\t1")),
    "stats_rows_swapped": ("stats.tsv", _swap_next(_first(data=True))),
    "hier_stats_rows_swapped": ("stats_title.tsv", _swap_next(_first(data=True))),
    "svm_weight_outside_filter": ("svm.model", _change_line(
        _first("w\tajouter\t"), lambda line: line.replace("ajouter", "zzzz"))),
    "lexicon_empty_entry": ("lexicon.tsv", lambda lines: lines + ["entry\t"]),
    "flat_threshold_trailing_cell": ("cosine_flat.model", _change_line(
        _first("#threshold\t"), lambda line: line + "\t")),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_refused_edit_names_its_row(run, tmp_path, capsys, case):
    name, edit = REFUSED[case]
    capsys.readouterr()
    code, target = _feed(run, tmp_path, name, edit(_lines(run, name)))
    err = capsys.readouterr().err
    assert code in (3, 4) and len(err.splitlines()) == 1
    assert re.search(re.escape(str(target)) + r":\d+: ", err), err
