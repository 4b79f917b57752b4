"""Fault injection on a trained model directory, and the user tables'
short rows.

Each fault edits one artifact of a freshly trained golden60 T2 model
directory. ``classify`` must refuse every edited directory with exactly
one ``error:model-mismatch:`` line (exit 4) before it writes anything;
the manifest check stops it first, so the artifact loaders are also
called directly on each faulted file.
"""

import hashlib
import json
import re
import shutil
from pathlib import Path

import pytest

from recipetext import boost, cosine, extraction, features, svm
from recipetext.cli import _load_label_run, main
from recipetext.errors import DataError, ModelMismatchError
from recipetext.evaluation import load_qrels

FIXTURES = Path(__file__).parent / "fixtures"
ARTIFACTS = ("agglutination.txt", "boost.model", "cosine_flat.model",
             "cosine_hier.model", "lexicon.tsv", "stats.tsv", "svm.model")


def _is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _last(lines, test):
    return max((i for i, line in enumerate(lines) if test(line)), default=None)


def _set_last_number(lines, value):
    """Replace the last cell of the last line whose last cell is a number."""
    i = _last(lines, lambda line: _is_number(line.split("\t")[-1]))
    if i is not None:
        lines[i] = lines[i].rsplit("\t", 1)[0] + "\t" + value
    return lines


def _truncate(lines):
    i = _last(lines, lambda line: "\t" in line)
    if i is not None:
        lines[i] = lines[i].rsplit("\t", 1)[0]
    return lines


def _duplicate(lines):
    i = _last(lines, lambda line: not line.startswith("#"))
    if i is not None:
        lines.insert(i, lines[i])
    return lines


def _drop_classes(lines):
    i = next((i for i, line in enumerate(lines) if line.startswith("#classes\t")), None)
    return lines if i is None else lines[:i] + lines[i + 1:]


def _flip_count(lines):
    i = _last(lines, lambda line: line.split("\t")[-1].isdigit())
    if i is not None:
        head, _, count = lines[i].rpartition("\t")
        lines[i] = f"{head}\t{int(count) + 1}"
    return lines


FAULTS = {
    "drop_magic": lambda lines: lines[1:],
    "truncate_row": _truncate,
    "nan_cell": lambda lines: _set_last_number(lines, "nan"),
    "bad_number": lambda lines: _set_last_number(lines, "1.2.3"),
    "duplicate_row": _duplicate,
    "drop_classes": _drop_classes,
    "empty_file": lambda lines: [],
    "flip_count": _flip_count,
}
ROW_FAULTS = {"truncate_row", "nan_cell", "bad_number", "duplicate_row"}

# Edits that leave a well-formed file, so only the manifest's sha256
# catches them: a changed count is still a count, agglutination.txt is a
# free list of n-grams, and boosting may pick the same stump twice.
PARSE_BLIND = {(fault, "agglutination.txt") for fault in FAULTS}
PARSE_BLIND |= {("flip_count", name) for name in ARTIFACTS}
PARSE_BLIND.add(("duplicate_row", "boost.model"))


def _argv(model_dir, *command):
    return ["--config", str(FIXTURES / "golden_config_t2.json"),
            "--train-xml", str(FIXTURES / "golden60.xml"),
            "--test-xml", str(FIXTURES / "golden60.xml"),
            "--model-dir", str(model_dir), *command]


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """A golden60 T2 model directory, trained once."""
    model_dir = tmp_path_factory.mktemp("faults") / "models"
    assert main(_argv(model_dir, "train")) == 0
    return model_dir


def _faulted_text(models, name, fault):
    """The faulted file's text, or None when the fault changes nothing."""
    original = (models / name).read_text(encoding="utf-8")
    lines = FAULTS[fault](original.splitlines())
    text = "".join(line + "\n" for line in lines)
    return None if text == original else text


PAIRS = [(fault, name) for fault in FAULTS for name in ARTIFACTS]


@pytest.mark.parametrize("fault,name", PAIRS)
def test_classify_rejects_faulted_artifact(models, tmp_path, capsys, fault, name):
    text = _faulted_text(models, name, fault)
    if text is None:
        pytest.skip("the fault leaves this file unchanged")
    faulted = tmp_path / "models"
    shutil.copytree(models, faulted)
    (faulted / name).write_text(text, encoding="utf-8")
    capsys.readouterr()
    code = main(_argv(faulted, "--run-dir", str(tmp_path / "runs"), "classify"))
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("error:model-mismatch:")
    assert name in err and "Traceback" not in err
    assert not list(tmp_path.glob("runs/scores_*.tsv"))


def _load(path, models):
    loaders = {
        "boost.model": boost.load_boost,
        "cosine_flat.model": lambda p: cosine.load_cosine(
            p, features.load_stats(models / "stats.tsv")),
        "cosine_hier.model": cosine.load_hierarchical,
        "lexicon.tsv": extraction.load_lexicon,
        "stats.tsv": features.load_stats,
        "svm.model": svm.load_ovo,
    }
    return loaders[path.name](path)


@pytest.mark.parametrize("fault,name", [p for p in PAIRS if p not in PARSE_BLIND])
def test_loader_rejects_faulted_artifact(models, tmp_path, fault, name):
    text = _faulted_text(models, name, fault)
    if text is None:
        pytest.skip("the fault leaves this file unchanged")
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ModelMismatchError) as info:
        _load(path, models)
    if fault in ROW_FAULTS:
        assert re.search(re.escape(str(path)) + r":\d+: ", str(info.value))


def _replace_line(prefix, new):
    """Replace the first line starting with ``prefix`` by ``new``."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        return lines[:i] + [new] + lines[i + 1:]
    return edit


def _drop_last_context(lines):
    start = _last(lines, lambda line: line.startswith("#begin_context\t"))
    end = lines.index("#end_context", start)
    return lines[:start] + lines[end + 1:]


# Well-formed cosine models whose parts disagree with each other or lie
# out of range; the manifest is re-hashed, so only the loader can catch them.
INCONSISTENT = {
    "swapped_stage_groups": ("cosine_hier.model", _replace_line(
        "#stage\t", "#stage\talpha=0.5\tDessert=AUTRE\tEntree=DESSERT\tPlatPrincipal=AUTRE")),
    "final_stage_not_leaves": ("cosine_hier.model", _replace_line(
        "#stage\talpha=0.5\tDessert=Dessert",
        "#stage\talpha=0.5\tDessert=Dessert\tEntree=PlatPrincipal\tPlatPrincipal=PlatPrincipal")),
    "stage_missing_leaf": ("cosine_hier.model", _replace_line(
        "#stage\talpha=0.5\tDessert=Dessert",
        "#stage\talpha=0.5\tDessert=Dessert\tEntree=Entree")),
    "context_classes": ("cosine_hier.model", _replace_line(
        "#begin_context\t0\t__root__\ttitle\t",
        "#begin_context\t0\t__root__\ttitle\tAUTRE,DESSERT,Entree")),
    "missing_context": ("cosine_hier.model", _drop_last_context),
    "hier_threshold_above_one": ("cosine_hier.model", _replace_line("#threshold\t",
                                                                    "#threshold\t1.5")),
    "flat_threshold_negative": ("cosine_flat.model", _replace_line("#threshold\t",
                                                                   "#threshold\t-0.25")),
    "flat_unknown_mode": ("cosine_flat.model", _replace_line("#mode\t", "#mode\tcosine")),
}


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_classify_rejects_inconsistent_cosine_model(models, tmp_path, capsys, case):
    name, edit = INCONSISTENT[case]
    faulted = tmp_path / "models"
    shutil.copytree(models, faulted)
    lines = edit((faulted / name).read_text(encoding="utf-8").splitlines())
    (faulted / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    manifest = json.loads((faulted / "manifest.json").read_text(encoding="utf-8"))
    manifest["files"][name] = hashlib.sha256((faulted / name).read_bytes()).hexdigest()
    (faulted / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    with pytest.raises(ModelMismatchError, match=re.escape(str(faulted / name))):
        _load(faulted / name, models)
    capsys.readouterr()
    code = main(_argv(faulted, "--run-dir", str(tmp_path / "runs"), "classify"))
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("error:model-mismatch:")
    assert name in err and "Traceback" not in err
    assert not list(tmp_path.glob("runs/scores_*.tsv"))


def test_intact_artifacts_load(models):
    for name in ARTIFACTS[1:]:
        _load(models / name, models)


@pytest.mark.parametrize("load,text", [
    (extraction.load_run, "r1\t1\toeuf\t1.000000\nr1\t2\n"),
    (load_qrels, "r1\t0\toeuf\t1\nr2\t0\tsel\n"),
    (_load_label_run, "r1\tDessert\nr2\n"),
])
def test_user_table_short_row_is_data_error(tmp_path, load, text):
    path = tmp_path / "table.tsv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(DataError, match=re.escape(f"{path}:2: ")):
        load(path)
