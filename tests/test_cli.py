import json
import shutil
import sys
from pathlib import Path

import pytest

from recipetext import cli, textnorm
from recipetext.cli import main

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
                "stats.tsv", "lexicon.tsv", "agglutination.txt",
                "manifest.json"} <= names

    def test_manifest_contents(self, pipeline):
        tmp, _ = pipeline
        manifest = json.loads((tmp / "models" / "manifest.json").read_text())
        assert manifest["seed"] == 42
        assert manifest["train_size"] + manifest["dev_size"] == 60
        assert set(manifest["files"])  # digests recorded
        assert manifest["classes"] == ["Dessert", "Entree", "PlatPrincipal"]

    def test_rerun_is_byte_identical(self, tmp_path, pipeline):
        src, _ = pipeline
        config = _config(tmp_path)
        assert main(["--config", str(config), "train"]) == 0
        for child in sorted((src / "models").iterdir()):
            twin = tmp_path / "models" / child.name
            assert twin.read_bytes() == child.read_bytes(), child.name

    def test_missing_abbrev_file_is_config_error(self, tmp_path, capsys):
        config = _config(tmp_path, abbreviations_tsv=str(tmp_path / "absent.tsv"))
        assert main(["--config", str(config), "train"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:config:")
        assert "absent.tsv" in err


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

    def test_each_recipe_normalized_once_per_field(self, tmp_path, pipeline, monkeypatch):
        # two normalize calls per test recipe (title, body), plus one per
        # extracted ingredient for the boost features
        src, config = pipeline
        calls = []
        original = textnorm.normalize

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("recipetext"):
                if getattr(module, "normalize", None) is original:
                    monkeypatch.setattr(module, "normalize", counting)
        assert main(["--config", str(config), "--run-dir", str(tmp_path / "runs"),
                     "classify"]) == 0
        ingredients = (src / "runs" / "ingredients.tsv").read_text(
            encoding="utf-8").splitlines()
        assert len(calls) == 2 * 60 + len(ingredients)


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

    def test_missing_config_file(self, capsys):
        assert main(["--config", "/nonexistent/conf.json", "train"]) == 2
        assert capsys.readouterr().err.startswith("error:config:")

    def test_bad_xml_is_data_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.xml"
        bad.write_text("<recettes><recette id='1'>", encoding="utf-8")
        config = _config(tmp_path, train_xml=str(bad))
        assert main(["--config", str(config), "train"]) == 3
        assert capsys.readouterr().err.startswith("error:data:")

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

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        payload = {"task": "T2", "mystery_knob": 1}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert main(["--config", str(path), "train"]) == 2
