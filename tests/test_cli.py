import ast
import json
import shutil
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from recipetext import boost, cli, extraction, textnorm
from recipetext.cli import _load_score_tsv, load_config, main
from recipetext.corpus import LabelKind, load_corpus
from recipetext.cosine import score_cosine, train_cosine
from recipetext.features import load_stats

FIXTURES = Path(__file__).parent / "fixtures"


def _config(tmp_path: Path, task: str = "T2", **extra) -> Path:
    payload = {
        "task": task,
        "seed": 42,
        "train_xml": str(FIXTURES / "golden60.xml"),
        "test_xml": str(FIXTURES / "golden60.xml"),
        "model_dir": str(tmp_path / "models"),
        "run_dir": str(tmp_path / "runs"),
        "dev_fraction": 0.25,
        "norm": {"agglutinate": True, "agglutination_min_count": 4,
                 "agglutination_max_n": 3},
        "boost": {"max_rounds": 12, "dev_patience": 5},
        "svm": {"regularization": 0.01, "epochs": 5},
        "cosine": {"gini_threshold": 0.45},
        "mi_k": 10000,
    }
    payload.update(extra)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("t2_pipeline")
    config = _config(tmp)
    assert main(["--config", str(config), "train"]) == 0
    assert main(["--config", str(config), "classify"]) == 0
    assert main(["--config", str(config), "fuse", "--runs", "paper"]) == 0
    assert main(["--config", str(config), "extract"]) == 0
    return tmp, config


class TestTrain:
    def test_artifact_inventory(self, pipeline):
        tmp, _ = pipeline
        names = {p.name for p in (tmp / "models").iterdir()}
        assert {"boost.model", "svm.model", "cosine_flat.model", "cosine_hier.model",
                "stats.tsv", "stats_title.tsv", "lexicon.tsv", "agglutination.txt",
                "manifest.json"} <= names

    def test_manifest_contents(self, pipeline):
        tmp, _ = pipeline
        manifest = json.loads((tmp / "models" / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["train_size"] + manifest["dev_size"] == 60
        assert set(manifest["files"])  # digests recorded
        assert manifest["classes"] == ["Dessert", "Entree", "PlatPrincipal"]
        # every NormConfig option but the table, which is recorded by its hash
        assert sorted(manifest["norm"]) == [
            "abbrev_table_sha256", "agglutinate", "agglutination_max_n",
            "agglutination_min_count", "number_conversion"]
        assert manifest["norm"]["agglutination_min_count"] == 4

    def test_rerun_is_byte_identical(self, tmp_path, pipeline):
        src, _ = pipeline
        config = _config(tmp_path)
        assert main(["--config", str(config), "train"]) == 0
        for child in sorted((src / "models").iterdir()):
            twin = tmp_path / "models" / child.name
            assert twin.read_bytes() == child.read_bytes(), child.name

    def test_missing_abbrev_file_is_config_error(self, tmp_path, capsys):
        # every command reads the abbreviation file, with the config
        config = _config(tmp_path, abbreviations_tsv=str(tmp_path / "absent.tsv"))
        for command in ("train", "classify", "fuse", "extract"):
            assert main(["--config", str(config), command]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:config:")
            assert "absent.tsv" in err


BOOSTS = {("sucre", "Dessert"): 3, ("salade", "PlatPrincipal"): 4, ("poulet", "Entree"): 2}


class TestClassBoosts:
    def test_boosts_reach_the_flat_model_and_its_scores(self, tmp_path, pipeline):
        src, _ = pipeline
        boosts = tmp_path / "boosts.tsv"
        boosts.write_text("# term, class, extra df_c\n" + "".join(
            f"{term}\t{cls}\t{extra}\n" for (term, cls), extra in BOOSTS.items()),
            encoding="utf-8")
        config = _config(tmp_path, class_boosts_tsv=str(boosts))
        assert main(["--config", str(config), "train"]) == 0
        assert main(["--config", str(config), "classify"]) == 0
        models = tmp_path / "models"
        rows = [line for line in (models / "cosine_flat.model").read_text(
            encoding="utf-8").splitlines() if line.startswith("boost\t")]
        assert rows == [f"boost\t{term}\t{cls}\t{extra}"
                        for (term, cls), extra in sorted(BOOSTS.items())]

        # the same scores, bit for bit, as the model fitted in-process
        norm = load_config(config).norm_config
        agglut = textnorm.load_agglutination_model(models / "agglutination.txt")
        model = train_cosine(load_stats(models / "stats.tsv"), 0.45, class_boosts=BOOSTS)
        expected = [score_cosine(model, textnorm.analyze(recipe, norm, agglut)).scores
                    for recipe in load_corpus(FIXTURES / "golden60.xml", LabelKind.NONE)]
        path = tmp_path / "runs" / "scores_cosine_flat.tsv"
        assert [v.scores for v in _load_score_tsv(path, "cosine_flat")] == expected
        assert path.read_bytes() != (src / "runs" / "scores_cosine_flat.tsv").read_bytes()


    @pytest.mark.parametrize("row, pair", [
        ("sucre\tDesert\t30", "('sucre', 'Desert')"),
        ("zzzz\tDessert\t5", "('zzzz', 'Dessert')"),
    ], ids=["unknown_class", "term_not_kept"])
    def test_boost_that_changes_no_score_is_data_error(self, tmp_path, capsys, row, pair):
        boosts = tmp_path / "boosts.tsv"
        boosts.write_text(f"sucre\tDessert\t3\n{row}\n", encoding="utf-8")
        config = _config(tmp_path, class_boosts_tsv=str(boosts))
        assert main(["--config", str(config), "train"]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:data:")
        assert "boosts.tsv" in err and pair in err
        assert not (tmp_path / "models" / "manifest.json").exists()

    @pytest.mark.parametrize("task", ["T1", "T4"])
    def test_boost_file_without_a_flat_model_is_config_error(self, tmp_path, capsys, task):
        boosts = tmp_path / "boosts.tsv"
        boosts.write_text("sucre\tDessert\t3\n", encoding="utf-8")
        config = _config(tmp_path, task=task, class_boosts_tsv=str(boosts))
        for command in ("train", "classify", "extract"):
            assert main(["--config", str(config), command]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error:config:")
            assert "class_boosts_tsv" in err
        assert not (tmp_path / "models").exists() and not (tmp_path / "runs").exists()


class TestClassify:
    def test_score_files(self, pipeline):
        tmp, _ = pipeline
        for method in ("boost", "svm", "cosine_flat", "cosine_hier"):
            path = tmp / "runs" / f"scores_{method}.tsv"
            lines = path.read_text(encoding="utf-8").splitlines()
            assert lines[0] == "#scores\tv1"
            data = [l for l in lines if not l.startswith("#")]
            assert len(data) == 60

    def test_t4_task_rejected(self, tmp_path, capsys):
        config = _config(tmp_path, task="T4")
        assert main(["--config", str(config), "classify"]) == 2

    def test_model_for_another_task_rejected(self, tmp_path, pipeline, capsys):
        src, _ = pipeline
        config = _config(tmp_path, task="T1", model_dir=str(src / "models"))
        assert main(["--config", str(config), "classify"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:model-mismatch:")
        assert not (tmp_path / "runs").exists()

    def test_missing_manifest_rejected(self, tmp_path, pipeline, capsys):
        src, _ = pipeline
        config = _config(tmp_path)
        models = tmp_path / "models"
        models.mkdir()
        for child in (src / "models").iterdir():
            if child.name != "manifest.json":
                (models / child.name).write_bytes(child.read_bytes())
        assert main(["--config", str(config), "classify"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:model-mismatch:")

    def test_missing_model_file_rejected(self, tmp_path, pipeline, capsys):
        src, _ = pipeline
        config = _config(tmp_path)
        shutil.copytree(src / "models", tmp_path / "models")
        (tmp_path / "models" / "stats.tsv").unlink()
        assert main(["--config", str(config), "classify"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:model-mismatch:")
        assert "stats.tsv" in err[0]

    @staticmethod
    def _counted_classify(monkeypatch, args) -> tuple[int, int]:
        """The normalize and extraction.extract calls of one classify."""
        calls = {"normalize": 0, "extract": 0}

        def counting(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        original = textnorm.normalize
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("recipetext"):
                if getattr(module, "normalize", None) is original:
                    monkeypatch.setattr(module, "normalize", counting("normalize", original))
        monkeypatch.setattr(extraction, "extract", counting("extract", extraction.extract))
        assert main(args + ["classify"]) == 0
        return calls["normalize"], calls["extract"]

    def test_recipe_normalized_once_per_field_without_an_ingredient_round(
            self, tmp_path, pipeline, monkeypatch):
        # no boost round reads the ingredients: two normalize calls per
        # test recipe (title, body) and no extraction
        src, config = pipeline
        model = boost.load_boost(src / "models" / "boost.model")
        assert not boost.reads_ingredients(model)
        assert self._counted_classify(monkeypatch, [
            "--config", str(config), "--run-dir", str(tmp_path / "runs")]) == (2 * 60, 0)

    def test_extracted_items_normalized_once_when_a_round_reads_them(
            self, tmp_path, monkeypatch):
        # the golden T2 model has an ingredients round: one more normalize
        # call per extracted item, and one extraction per test recipe
        corpus = str(FIXTURES / "golden60.xml")
        args = ["--config", str(FIXTURES / "golden_config_t2.json"), "--train-xml", corpus,
                "--test-xml", corpus, "--model-dir", str(tmp_path / "models"),
                "--run-dir", str(tmp_path / "runs")]
        assert main(args + ["train"]) == 0
        assert main(args + ["extract"]) == 0
        model = boost.load_boost(tmp_path / "models" / "boost.model")
        assert [hyp.field for hyp in model.rounds].count("ingredients") == 1
        assert boost.reads_ingredients(model)
        items = (tmp_path / "runs" / "ingredients.tsv").read_text(
            encoding="utf-8").splitlines()
        assert self._counted_classify(monkeypatch, args) == (2 * 60 + len(items), 60)


class TestFuse:
    def test_paper_preset_files(self, pipeline):
        tmp, _ = pipeline
        for name in ("run1.tsv", "run2.tsv", "run3.tsv", "fused_linear.tsv",
                     "fused_electre.tsv", "fusion_details.tsv"):
            assert (tmp / "runs" / name).exists()
        run1 = (tmp / "runs" / "run1.tsv").read_text(encoding="utf-8").splitlines()
        assert len(run1) == 60
        assert all(len(line.split("\t")) == 2 for line in run1)

    def test_details_carry_kernel_and_decisions(self, pipeline):
        tmp, _ = pipeline
        for line in (tmp / "runs" / "fusion_details.tsv").read_text().splitlines():
            assert "kernel=" in line and "linear=" in line and "electre=" in line

    def test_score_file_of_another_method_rejected(self, pipeline, tmp_path, capsys):
        # with its own #method line, svm's vectors would get boost's weight
        src, _ = pipeline
        (tmp_path / "runs").mkdir()
        for path in (src / "runs").glob("scores_*.tsv"):
            shutil.copy(path, tmp_path / "runs" / path.name)
        svm = tmp_path / "runs" / "scores_svm.tsv"
        svm.write_text(svm.read_text(encoding="utf-8").replace(
            "#method\tsvm\n", "#method\tboost\n"), encoding="utf-8")
        fusion = {"method_weights": {"boost": 5.0, "cosine_flat": 1.0, "cosine_hier": 1.5,
                                     "svm": 0.5}}
        config = _config(tmp_path, fusion=fusion)
        assert main(["--config", str(config), "fuse"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:model-mismatch:")
        assert "scores_svm.tsv:2:" in err[0]
        assert not list((tmp_path / "runs").glob("fused_*"))


class TestExtractAndEvaluate:
    def test_ingredient_run_format(self, pipeline):
        tmp, _ = pipeline
        lines = (tmp / "runs" / "ingredients.tsv").read_text(
            encoding="utf-8").splitlines()
        assert lines
        for line in lines:
            rid, rank, ingredient, confidence = line.split("\t")
            assert rid.startswith("g")
            assert int(rank) >= 1
            assert 0.0 < float(confidence) <= 1.0

    def test_evaluate_perfect_run_scores_one(self, pipeline, tmp_path, capsys):
        tmp, config = pipeline
        from recipetext.corpus import LabelKind, load_corpus
        gold = load_corpus(FIXTURES / "golden60.xml", LabelKind.DISH_TYPE)
        perfect = tmp_path / "perfect.tsv"
        perfect.write_text(
            "".join(f"{rid}\t{cls}\n" for rid, cls in sorted(gold.labels().items())),
            encoding="utf-8")
        assert main(["--config", str(config), "evaluate", str(perfect)]) == 0
        out = capsys.readouterr().out
        assert "micro_f\t1.000000" in out
        assert "macro_f\t1.000000" in out

    def test_evaluate_map(self, pipeline, capsys):
        tmp, config = pipeline
        code = main(["--config", str(config), "--task", "T4", "evaluate",
                     str(tmp / "runs" / "ingredients.tsv")])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("map\t")
        assert 0.0 <= float(out.split("\t")[1]) <= 1.0

    def test_extract_checks_hashes_not_task(self, pipeline, tmp_path, capsys):
        src, _ = pipeline
        config = _config(tmp_path, task="T4")
        shutil.copytree(src / "models", tmp_path / "models")
        assert main(["--config", str(config), "extract"]) == 0
        with open(tmp_path / "models" / "agglutination.txt", "a", encoding="utf-8") as f:
            f.write("pâte brisée maison\n")
        capsys.readouterr()
        assert main(["--config", str(config), "extract"]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "agglutination.txt" in err[0]

    def test_t4_train_extract_evaluate(self, tmp_path, capsys):
        config = _config(tmp_path, task="T4")
        assert main(["--config", str(config), "train"]) == 0
        names = {p.name for p in (tmp_path / "models").iterdir()}
        assert "lexicon.tsv" in names and "manifest.json" in names
        assert main(["--config", str(config), "extract"]) == 0
        code = main(["--config", str(config), "evaluate",
                     str(tmp_path / "runs" / "ingredients.tsv")])
        assert code == 0
        out = capsys.readouterr().out
        map_line = [l for l in out.splitlines() if l.startswith("map\t")][-1]
        assert 0.0 <= float(map_line.split("\t")[1]) <= 1.0

    def test_t1_ordinal_distance_reported(self, tmp_path, capsys):
        config = _config(tmp_path, task="T1")
        assert main(["--config", str(config), "train"]) == 0
        assert main(["--config", str(config), "classify"]) == 0
        assert main(["--config", str(config), "fuse", "--runs", "paper"]) == 0
        assert main(["--config", str(config), "evaluate",
                     str(tmp_path / "runs" / "run2.tsv")]) == 0
        out = capsys.readouterr().out
        assert "mean_distance\t" in out


class TestSweep:
    def test_gini_sweep(self, tmp_path, capsys):
        config = _config(tmp_path)
        code = main(["--config", str(config), "sweep", "--param", "gini_threshold",
                     "--start", "0.3", "--stop", "0.6", "--step", "0.15"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "gini_threshold\tdev_macro_f"
        assert len(lines) == 4  # header + 0.30, 0.45, 0.60

    def test_gini_sweep_checks_every_value_before_printing(self, tmp_path, capsys):
        config = _config(tmp_path)
        code = main(["--config", str(config), "sweep", "--param", "gini_threshold",
                     "--start", "0.9", "--stop", "1.2", "--step", "0.1"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:config: gini_threshold")

    @pytest.mark.parametrize("start, stop, step", [
        ("0.6", "0.4", "0.1"), ("0.4", "nan", "0.1"), ("nan", "0.6", "0.1"),
        ("0.4", "inf", "0.1"), ("-inf", "0.6", "0.1"), ("0.4", "0.6", "0"),
        ("0.4", "0.6", "-0.1"), ("0.4", "0.6", "nan"), ("0.4", "0.6", "inf"),
    ], ids=["start_above_stop", "stop_nan", "start_nan", "stop_inf", "start_minus_inf",
            "step_zero", "step_negative", "step_nan", "step_inf"])
    @pytest.mark.parametrize("param", ["gini_threshold", "concordance_threshold"])
    def test_empty_or_unbounded_range_is_config_error(self, tmp_path, capsys, param, start,
                                                      stop, step):
        # refused before any corpus is read: the named corpora do not exist
        config = _config(tmp_path, train_xml=str(tmp_path / "absent.xml"),
                         test_xml=str(tmp_path / "absent.xml"))
        code = main(["--config", str(config), "sweep", "--param", param,
                     f"--start={start}", f"--stop={stop}", f"--step={step}"])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error:config: sweep ")

    def test_concordance_sweep_uses_fusion_config(self, pipeline, tmp_path, capsys):
        src, _ = pipeline
        shutil.copytree(src / "runs", tmp_path / "runs")
        # with equal weights the sweep would give 0.983333 at 0.5, fuse 0.966667
        fusion = {"method_weights": {"boost": 5.0, "cosine_flat": 1.0, "cosine_hier": 1.5,
                                     "svm": 0.5},
                  "veto": {"boost": 0.9, "cosine_flat": 0.8, "cosine_hier": 0.9, "svm": 0.85}}
        config = _config(tmp_path, fusion=fusion)
        capsys.readouterr()
        assert main(["--config", str(config), "sweep", "--param", "concordance_threshold",
                     "--start", "0.5", "--stop", "0.7", "--step", "0.2"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "concordance_threshold\tmicro_f" and len(lines) == 3
        for line in lines[1:]:
            sc, micro_f = line.split("\t")
            config = _config(tmp_path, fusion={**fusion, "concordance_threshold": float(sc)})
            assert main(["--config", str(config), "fuse"]) == 0
            assert main(["--config", str(config), "evaluate",
                         str(tmp_path / "runs" / "fused_electre.tsv")]) == 0
            assert f"micro_f\t{micro_f}\n" in capsys.readouterr().out


class TestErrorCodes:
    @pytest.mark.parametrize("extra", [
        {"boost": {"rounds": 3}},
        {"svm": {"seed": 3}},
        {"cosine": {"gini_threshold": "x"}},
        {"seed": "abc"},
        {"cosine": {"gini_threshold": 1.5}},
        {"cosine": {"alpha": "x"}},
    ], ids=["boost_unknown_option", "svm_seed", "gini_threshold_string", "seed_string",
            "gini_threshold_above_one", "alpha_string"])
    def test_bad_config_value_is_config_error(self, tmp_path, capsys, extra):
        config = _config(tmp_path, **extra)
        assert main(["--config", str(config), "train"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:config:")

    @pytest.mark.parametrize("extra", [
        {"dev_fraction": "x"},
        {"dev_fraction": 1.5},
        {"dev_fraction": 1.0},
        {"mi_k": "x"},
        {"mi_k": -1},
        {"norm": {"agglutinate": True, "agglutination_min_count": "x"}},
        {"norm": {"agglutinate": True, "agglutination_max_n": 2.5}},
        {"norm": {"number_conversion": "x"}},
        {"fusion": {"veto": "x"}},
        {"fusion": {"veto": {"svm": "x"}}},
        {"fusion": "x"},
        {"model_dir": 5},
        {"task": ["T2"]},
        {"hierarchy_spec": 1},
    ], ids=["dev_fraction_string", "dev_fraction_above_one", "dev_fraction_one",
            "mi_k_string", "mi_k_negative",
            "agglutination_min_count_string", "agglutination_max_n_float",
            "number_conversion_string", "veto_string", "veto_dict_string", "fusion_string",
            "model_dir_number", "task_list", "hierarchy_spec_number"])
    def test_wrong_type_is_config_error_before_any_output(self, tmp_path, capsys, extra):
        config = _config(tmp_path, **extra)
        assert main(["--config", str(config), "train"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("error:config:")
        assert not (tmp_path / "models").exists() and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("extra", [
        {"boost": {"max_rounds": 3.5}},
        {"svm": {"epochs": 2.5}},
        {"fusion": {"concordance_threshold": "x"}},
        {"fusion": {"method_weights": {"boost": "x", "cosine_flat": 1, "cosine_hier": 1,
                                       "svm": 1}}},
        {"fusion": {"bogus": 1}},
        {"cosine": {"gini_threshold": 0.45, "bogus": 1}},
        {"cosine": {"denominator_mode": "cosinus"}},
        {"cosine": {"alpha": 1.5}},
        {"norm": {"bogus": 1}},
    ], ids=["max_rounds_float", "epochs_float", "concordance_string", "method_weight_string",
            "fusion_unknown_option", "cosine_unknown_option", "cosine_unknown_mode",
            "alpha_above_one", "norm_unknown_option"])
    def test_bad_option_is_config_error_when_the_config_is_read(self, tmp_path, capsys,
                                                                 extra):
        # classify and extract would exit 4 on the missing models, and fuse
        # 2 on the missing score files, if the config were accepted
        (section,) = extra
        config = _config(tmp_path, **extra)
        for command in (["train"], ["classify"], ["fuse"], ["extract"],
                        ["evaluate", str(tmp_path / "run.tsv")]):
            assert main(["--config", str(config), *command]) == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("error:config:")
            assert f" {section}: " in err or f" unknown {section} options: " in err
        assert not (tmp_path / "models").exists() and not (tmp_path / "runs").exists()

    def test_config_sections_are_read_where_the_config_is_built(self):
        # every command takes the option objects PipelineConfig builds, so
        # every command checks a section the same way
        tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
        config_class = next(node for node in tree.body
                            if isinstance(node, ast.ClassDef) and node.name == "PipelineConfig")
        post_init = next(node for node in config_class.body
                         if isinstance(node, ast.FunctionDef) and node.name == "__post_init__")
        allowed = {id(node) for node in ast.walk(post_init)}
        sections = {"norm", "cosine", "boost", "svm", "fusion"}
        reads = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                 and node.attr in sections and id(node) not in allowed]
        assert reads == []

    def test_bad_norm_option_writes_no_run_dir(self, tmp_path, pipeline, capsys):
        src, _ = pipeline
        config = _config(tmp_path, model_dir=str(src / "models"),
                         norm={"agglutinate": True, "agglutination_min_count": "x"})
        for command in ("classify", "extract"):
            assert main(["--config", str(config), command]) == 2
        assert capsys.readouterr().err.count("error:config:") == 2
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("name, text, key, code, message", [
        ("boosts.tsv", "sucre\tDessert\tx\n", "class_boosts_tsv", 3, "boosts.tsv:1: bad cell 3"),
        ("boosts.tsv", None, "class_boosts_tsv", 2, "class boost file not found"),
        ("boosts.tsv", "sucre\tDessert\t3\nsucre\tDessert\t5\n", "class_boosts_tsv", 3,
         "boosts.tsv:2: repeated key ('sucre', 'Dessert')"),
        ("hier.tsv", "stage\talpha=0.5\tDessert=DESSERT\tEntree=AUTRE\tPlatPrincipal=AUTRE\n",
         "hierarchy_spec", 2, "hier.tsv: final stage must map each leaf to itself"),
        ("abbrev.tsv", "kg\tkilogramme\nkg\tkilo\n", "abbreviations_tsv", 3,
         "abbrev.tsv:2: repeated key 'kg'"),
    ], ids=["boost_count_string", "boost_file_missing", "boost_repeated",
            "spec_final_stage", "abbreviation_repeated"])
    def test_bad_table_file_fails_before_any_output(self, tmp_path, capsys, name, text, key,
                                                    code, message):
        table = tmp_path / name
        if text is not None:
            table.write_text(text, encoding="utf-8")
        config = _config(tmp_path, **{key: str(table)})
        for command in ("train", "classify"):
            assert main(["--config", str(config), command]) == code
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and message in err
        assert not (tmp_path / "models").exists() and not (tmp_path / "runs").exists()

    def test_repeated_recipe_in_run_file_is_data_error(self, tmp_path, capsys):
        run = tmp_path / "run2.tsv"
        run.write_text("g000\tDessert\ng001\tEntree\ng000\tDessert\n", encoding="utf-8")
        config = _config(tmp_path)
        assert main(["--config", str(config), "evaluate", str(run)]) == 3
        err = capsys.readouterr().err
        assert err == f"error:data: {run}:3: repeated key 'g000'\n"

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        config = _config(tmp_path)
        assert main(["--config", str(config), "--dev-fraction", "0", "train"]) == 2
        assert capsys.readouterr().err.startswith("error:config: dev_fraction")
        assert not (tmp_path / "models").exists()

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/conf.json", "train"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_bad_xml_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<recettes><recette id='1'>", encoding="utf-8")
        config = _config(tmp_path, train_xml=str(bad))
        assert main(["--config", str(config), "train"]) == 3
        assert capsys.readouterr().err.startswith("error:data:")

    @pytest.mark.parametrize("dropped, absent", [
        (("Difficile",), ["Difficile"]),
        (("Difficile", "Moyennement difficile"), ["Difficile", "MoyennementDifficile"]),
    ])
    def test_training_split_without_a_hierarchy_leaf_is_data_error(self, tmp_path, capsys,
                                                                   dropped, absent):
        tree = ET.parse(FIXTURES / "golden60.xml")
        root = tree.getroot()
        for recipe in root.findall("recette"):
            if recipe.findtext("niveau") in dropped:
                root.remove(recipe)
        train_xml = tmp_path / "train.xml"
        tree.write(train_xml, encoding="utf-8", xml_declaration=True)
        config = json.loads((FIXTURES / "golden_config_t1.json").read_text(encoding="utf-8"))
        config.update(train_xml=str(train_xml), test_xml=str(train_xml),
                      model_dir=str(tmp_path / "models"), run_dir=str(tmp_path / "runs"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["--config", str(path), "train"]) == 3
        err = capsys.readouterr().err
        leaves = ["Difficile", "Facile", "MoyennementDifficile", "TresFacile"]
        classes = [leaf for leaf in leaves if leaf not in absent]
        assert err == (f"error:data: training classes {classes} are not the hierarchy "
                       f"leaves {leaves}\n")
        # refused before any model is fitted or written
        assert list((tmp_path / "models").glob("*")) == []

    def test_corrupt_model_is_mismatch_error(self, tmp_path, pipeline, capsys):
        src, _ = pipeline
        config = _config(tmp_path)
        models = tmp_path / "models"
        models.mkdir()
        for child in (src / "models").iterdir():
            (models / child.name).write_bytes(child.read_bytes())
        (models / "boost.model").write_text("#boost\tv999\n", encoding="utf-8")
        assert main(["--config", str(config), "classify"]) == 4
        assert capsys.readouterr().err.startswith("error:model-mismatch:")

    def test_unexpected_exception_is_one_internal_line(self, monkeypatch, capsys):
        def broken(config):
            raise RuntimeError("boom")
        monkeypatch.setattr(cli, "cmd_train", broken)
        assert main(["train"]) == 1
        assert capsys.readouterr().err == "error:internal: RuntimeError: boom\n"

    @pytest.mark.parametrize("text", ["5", "null", '[["task", "T2"]]', '"T2"'],
                             ids=["number", "null", "list_of_pairs", "string"])
    def test_config_that_is_not_an_object_is_config_error(self, tmp_path, capsys, text):
        path = tmp_path / "config.json"
        path.write_text(text, encoding="utf-8")
        for command in (["train"], ["classify"], ["fuse"], ["extract"],
                        ["evaluate", str(tmp_path / "run.tsv")],
                        ["sweep", "--param", "gini_threshold", "--start", "0.4",
                         "--stop", "0.5", "--step", "0.1"]):
            assert main(["--config", str(path), *command]) == 2
            err = capsys.readouterr().err
            assert err == f"error:config: {path}: the config is not a JSON object\n"
        assert not (tmp_path / "models").exists() and not (tmp_path / "runs").exists()

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        payload = {"task": "T2", "mystery_knob": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["--config", str(path), "train"]) == 2
