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

from recipetext import boost, cosine, extraction, features, svm, textnorm
from recipetext.cli import _load_label_run, _norm_settings, load_config, main
from recipetext.errors import DataError, ModelMismatchError
from recipetext.features import Feed
from recipetext.evaluation import load_qrels

FIXTURES = Path(__file__).parent / "fixtures"
ARTIFACTS = ("agglutination.txt", "boost.model", "cosine_flat.model", "cosine_hier.model",
             "lexicon.tsv", "stats.tsv", "stats_title.tsv", "svm.model")


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
# free list of n-grams, and boosting may pick the same stump twice. The
# last count of boost.model is on a #field line, which its loader checks.
PARSE_BLIND = {(fault, "agglutination.txt") for fault in FAULTS}
PARSE_BLIND |= {("flip_count", name) for name in ARTIFACTS if name != "boost.model"}
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


# cosine_flat.model names classes only on its boost rows (its class list
# is the statistics'), and the golden60 file has none: its drop_classes
# case is a boost row that lost its class cell.
RETARGETED = {("drop_classes", "cosine_flat.model"): lambda lines: lines + ["boost\tsucre\t3"]}


def _faulted_text(models, name, fault):
    """The faulted file's text, or None when the fault changes nothing."""
    original = (models / name).read_text(encoding="utf-8")
    lines = RETARGETED.get((fault, name), FAULTS[fault])(original.splitlines())
    text = "".join(line + "\n" for line in lines)
    return None if text == original else text


# cosine_hier.model holds header lines only: no #classes line, data row
# or count for these faults to edit. They edit the statistics it is
# built from in stats.tsv and stats_title.tsv.
NO_TARGET = {(fault, "cosine_hier.model") for fault in ("drop_classes", "duplicate_row",
                                                        "flip_count")}
PAIRS = [(fault, name) for fault in FAULTS for name in ARTIFACTS
         if (fault, name) not in NO_TARGET]


def _assert_classify_refuses(model_dir, tmp_path, capsys, name, *argv):
    """classify exits 4 with one line naming ``name`` and writes no score file."""
    capsys.readouterr()
    code = main(_argv(model_dir, *argv, "--run-dir", str(tmp_path / "runs"), "classify"))
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("error:model-mismatch:")
    assert name in err and "Traceback" not in err
    assert not list(tmp_path.glob("runs/scores_*.tsv"))


@pytest.mark.parametrize("fault,name", PAIRS)
def test_classify_rejects_faulted_artifact(models, tmp_path, capsys, fault, name):
    text = _faulted_text(models, name, fault)
    if text is None:
        pytest.skip("the fault leaves this file unchanged")
    faulted = tmp_path / "models"
    shutil.copytree(models, faulted)
    (faulted / name).write_text(text, encoding="utf-8")
    _assert_classify_refuses(faulted, tmp_path, capsys, name)


def _load(path, models):
    loaders = {
        "boost.model": boost.load_boost,
        "cosine_flat.model": lambda p: cosine.load_cosine(
            p, features.load_stats(models / "stats.tsv")),
        "cosine_hier.model": lambda p: cosine.load_hierarchical(p, {
            Feed.TITLE_AND_BODY: features.load_stats(models / "stats.tsv"),
            Feed.TITLE_ONLY: features.load_stats(models / "stats_title.tsv")}),
        "lexicon.tsv": extraction.load_lexicon,
        "stats.tsv": features.load_stats,
        "stats_title.tsv": features.load_stats,
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


def _replace_prefix(prefix, new):
    """Replace ``prefix`` by ``new`` on the first line starting with it."""
    def edit(lines):
        i = next(i for i, line in enumerate(lines) if line.startswith(prefix))
        return lines[:i] + [new + lines[i][len(prefix):]] + lines[i + 1:]
    return edit


def _drop_last_stage(lines):
    return lines[:_last(lines, lambda line: line.startswith("#stage\t"))]


def _rename_leaf(lines):
    """Entree becomes Starter on every #stage line: a well-formed
    hierarchy whose leaves are not the statistics' classes."""
    return [line.replace("Entree", "Starter") if line.startswith("#stage\t") else line
            for line in lines]


# Well-formed models whose parts disagree with each other, lie out of
# range or name fields the boost features lack; the manifest is
# re-hashed, so only the loader can catch them.
INCONSISTENT = {
    "boost_text_round_unknown_field": ("boost.model", _replace_prefix("text\ttitle\t",
                                                                      "text\ttitre\t")),
    "boost_numeric_round_text_field": ("boost.model", _replace_prefix("numeric\tbody_words\t",
                                                                      "numeric\ttitle\t")),
    "boost_field_line": ("boost.model", _replace_line("#field\tbody\t", "#field\tbody\t3")),
    "final_stage_not_leaves": ("cosine_hier.model", _replace_line(
        "#stage\talpha=0.5\tDessert=Dessert",
        "#stage\talpha=0.5\tDessert=Dessert\tEntree=PlatPrincipal\tPlatPrincipal=PlatPrincipal")),
    "stage_missing_leaf": ("cosine_hier.model", _replace_line(
        "#stage\talpha=0.5\tDessert=Dessert",
        "#stage\talpha=0.5\tDessert=Dessert\tEntree=Entree")),
    "context_classes": ("cosine_hier.model", _rename_leaf),
    "missing_context": ("cosine_hier.model", _drop_last_stage),
    "hier_threshold_above_one": ("cosine_hier.model", _replace_line("#threshold\t",
                                                                    "#threshold\t1.5")),
    "flat_threshold_negative": ("cosine_flat.model", _replace_line("#threshold\t",
                                                                   "#threshold\t-0.25")),
    "flat_unknown_mode": ("cosine_flat.model", _replace_line("#mode\t", "#mode\tcosine")),
    # a boost that would change no score, refused at load as at fit
    "flat_boost_unknown_class": ("cosine_flat.model",
                                 lambda lines: lines + ["boost\tsucre\tFoo\t3"]),
    "flat_boost_term_not_kept": ("cosine_flat.model",
                                 lambda lines: lines + ["boost\tzzzz\tDessert\t3"]),
    # the copies the model files no longer keep are unknown row kinds
    "flat_classes_line": ("cosine_flat.model",
                          lambda lines: lines + ["#classes\tDessert,Entree,PlatPrincipal"]),
    "flat_method_id_line": ("cosine_flat.model", lambda lines: lines + ["#method_id\tfoo"]),
    "hier_method_id_line": ("cosine_hier.model", lambda lines: lines + ["#method_id\tfoo"]),
}


def _rehashed_copy(models, tmp_path, name, edit):
    """A copy of the model directory with ``edit`` applied to the lines
    of ``name`` and the manifest hash updated to match."""
    faulted = tmp_path / "models"
    shutil.copytree(models, faulted)
    lines = edit((faulted / name).read_text(encoding="utf-8").splitlines())
    (faulted / name).write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    manifest = json.loads((faulted / "manifest.json").read_text(encoding="utf-8"))
    manifest["files"][name] = hashlib.sha256((faulted / name).read_bytes()).hexdigest()
    (faulted / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    return faulted


@pytest.mark.parametrize("case", sorted(INCONSISTENT))
def test_classify_rejects_inconsistent_cosine_model(models, tmp_path, capsys, case):
    name, edit = INCONSISTENT[case]
    faulted = _rehashed_copy(models, tmp_path, name, edit)
    with pytest.raises(ModelMismatchError, match=re.escape(str(faulted / name))):
        _load(faulted / name, models)
    _assert_classify_refuses(faulted, tmp_path, capsys, name)


def test_classify_rejects_swapped_stage_groups_by_the_manifest_hash(models, tmp_path, capsys):
    # swapped groups still form a hierarchy of the same leaves, so the
    # model loads (as another model): only the manifest's sha256 sees it
    faulted = tmp_path / "models"
    shutil.copytree(models, faulted)
    path = faulted / "cosine_hier.model"
    edit = _replace_line("#stage\t",
                         "#stage\talpha=0.5\tDessert=AUTRE\tEntree=DESSERT\tPlatPrincipal=AUTRE")
    lines = edit(path.read_text(encoding="utf-8").splitlines())
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    assert _load(path, models).spec != _load(models / path.name, models).spec
    _assert_classify_refuses(faulted, tmp_path, capsys, path.name)


# Well-formed statistics of the wrong feed, or of another split than the
# other statistics file: only classify, which reads both, can catch them.
SPLIT_FAULTS = {
    "stats_feed_title": ("stats.tsv", _replace_line("#feed\t", "#feed\ttitle")),
    "stats_title_feed_title_body": ("stats_title.tsv", _replace_line(
        "#feed\t", "#feed\ttitle_body")),
    "stats_title_corpus_size": ("stats_title.tsv", _replace_line("#corpus_size\t",
                                                                 "#corpus_size\t61")),
    "stats_train_size": ("stats.tsv", _replace_line("#train_size\t", "#train_size\t44")),
    "stats_title_classes": ("stats_title.tsv", _replace_prefix("#classes\tDessert",
                                                               "#classes\tDesserts")),
    "stats_title_class_sizes": ("stats_title.tsv", _replace_line("#class_sizes\t",
                                                                 "#class_sizes\t16,14,15")),
}


@pytest.mark.parametrize("case", sorted(SPLIT_FAULTS))
def test_classify_rejects_statistics_of_another_feed_or_split(models, tmp_path, capsys, case):
    name, edit = SPLIT_FAULTS[case]
    faulted = _rehashed_copy(models, tmp_path, name, edit)
    features.load_stats(faulted / name)  # well formed on its own
    _assert_classify_refuses(faulted, tmp_path, capsys, name)


def test_classify_rejects_classes_that_differ_across_models(models, tmp_path, capsys):
    # svm.model is consistent on its own: only the cross-file check sees it
    faulted = _rehashed_copy(models, tmp_path, "svm.model",
                             lambda lines: [line.replace("Entree", "Starter") for line in lines])
    assert svm.load_ovo(faulted / "svm.model").classes == ["Dessert", "Starter", "PlatPrincipal"]
    _assert_classify_refuses(faulted, tmp_path, capsys, "svm.model")


@pytest.mark.parametrize("classes", ["Entree,Dessert,PlatPrincipal",
                                     "Dessert,Dessert,PlatPrincipal", "Dessert,,PlatPrincipal",
                                     ""], ids=["unsorted", "repeated", "empty_name", "empty"])
def test_stats_classes_must_be_strictly_ascending(models, tmp_path, capsys, classes):
    # the flat model's classes are the statistics', in their order
    faulted = _rehashed_copy(models, tmp_path, "stats.tsv",
                             _replace_line("#classes\t", f"#classes\t{classes}"))
    path = faulted / "stats.tsv"
    with pytest.raises(ModelMismatchError, match=re.escape(str(path)) + r":\d+: classes "):
        features.load_stats(path)
    _assert_classify_refuses(faulted, tmp_path, capsys, "stats.tsv")


def test_classify_rejects_agglutinated_models_without_agglutination(models, tmp_path, capsys):
    config = json.loads((FIXTURES / "golden_config_t2.json").read_text(encoding="utf-8"))
    assert config.pop("norm")["agglutinate"]
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(config), encoding="utf-8")
    _assert_classify_refuses(models, tmp_path, capsys, "norm.agglutinate", "--config", str(plain))


# Models trained with another normalization than the config's, or with
# none recorded: classify and extract compare the manifest's norm block
# with the config before anything else is read or written.
NORM_CASES = {
    "number_conversion_off": ({"number_conversion": False}, "norm.number_conversion "),
    "agglutination_max_n_2": ({"agglutination_max_n": 2}, "norm.agglutination_max_n "),
    "other_abbreviations": ({}, "norm.abbrev_table_sha256 "),
    "no_norm_block": ({}, "no norm block"),
}


@pytest.mark.parametrize("command", ["classify", "extract"])
@pytest.mark.parametrize("case", sorted(NORM_CASES))
def test_models_of_another_normalization_are_refused(models, tmp_path, capsys, case, command):
    norm, words = NORM_CASES[case]
    config = json.loads((FIXTURES / "golden_config_t2.json").read_text(encoding="utf-8"))
    config["norm"].update(norm)
    model_dir = models
    if case == "other_abbreviations":
        table = tmp_path / "abbrev.tsv"
        table.write_text("kg\tkilogramme\n", encoding="utf-8")
        config["abbreviations_tsv"] = str(table)
    elif case == "no_norm_block":
        model_dir = tmp_path / "models"
        shutil.copytree(models, model_dir)
        manifest = json.loads((model_dir / "manifest.json").read_text(encoding="utf-8"))
        del manifest["norm"]
        (model_dir / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    capsys.readouterr()
    code = main(_argv(model_dir, "--config", str(config_path),
                      "--run-dir", str(tmp_path / "runs"), command))
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1 and err.startswith("error:model-mismatch:")
    assert str(model_dir / "manifest.json") in err and words in err
    assert not (tmp_path / "runs").exists()


def test_builtin_and_copied_abbreviation_tables_hash_the_same(models, tmp_path):
    builtin = Path(textnorm.__file__).parent / "data" / "abbreviations.tsv"
    copy = tmp_path / "copy.tsv"
    shutil.copyfile(builtin, copy)
    # the hash is over the sorted pairs: row order and comments do not count
    reordered = tmp_path / "reordered.tsv"
    reordered.write_text("# reordered\n" + "".join(reversed(
        builtin.read_text(encoding="utf-8").splitlines(keepends=True))), encoding="utf-8")
    settings = [_norm_settings(load_config(None, abbreviations_tsv=path).norm_config)
                for path in (None, str(copy), str(reordered))]
    assert settings[0] == settings[1] == settings[2]
    config = json.loads((FIXTURES / "golden_config_t2.json").read_text(encoding="utf-8"))
    config["abbreviations_tsv"] = str(copy)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(_argv(models, "--config", str(config_path),
                      "--run-dir", str(tmp_path / "runs"), "extract")) == 0


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
