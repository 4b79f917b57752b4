"""Command-line pipeline: train, classify, fuse, extract, evaluate, sweep.

One JSON config file drives a run; command-line flags override config
values. Every command is deterministic for a fixed config and seed,
down to the bytes of the files it writes. Exit codes: 0 ok, 2 config
error, 3 data error, 4 model mismatch.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from . import boost as boost_mod
from . import cosine as cosine_mod
from . import extraction as extraction_mod
from . import svm as svm_mod
from .corpus import Corpus, LabelKind, iter_recipes, load_corpus, stratified_split
from .errors import ConfigError, DataError, ModelMismatchError, check_types
from .evaluation import (
    classification_report,
    load_qrels,
    mean_average_precision,
    qrels_from_corpus,
)
from .features import (
    Feed,
    LexiconStats,
    build_stats,
    feed_counts,
    load_stats,
    mutual_information_select,
    save_stats,
)
from .fusion import (
    DEFAULT_CONCORDANCE,
    DEFAULT_VETO,
    ElectreParams,
    fuse_electre,
    fuse_linear,
    normalize_scores,
)
from .scores import ScoreVector
from .textnorm import (
    Analysis,
    NormConfig,
    analyze,
    builtin_abbreviations,
    fit_agglutinator,
    load_abbrev_table,
    load_agglutination_model,
    merge_ngrams,
    normalize,
    save_agglutination_model,
    with_agglutination,
)
from .tsv import Header, check_widths, read_rows, write_lines

TASK_LABEL_KIND = {
    "T1": LabelKind.DIFFICULTY,
    "T2": LabelKind.DISH_TYPE,
    "T4": LabelKind.NONE,
}

# Method inventory per classification task; sorted ids keep every
# downstream iteration deterministic.
TASK_METHODS = {
    "T1": ["boost", "cosine_hier", "svm"],
    "T2": ["boost", "cosine_flat", "cosine_hier", "svm"],
}

# The single-method run each task's run1 is built from.
RUN1_METHOD = {"T1": "svm", "T2": "cosine_hier"}


@dataclass
class PipelineConfig:
    task: str = "T2"
    seed: int = 0
    train_xml: str | None = None
    test_xml: str | None = None
    model_dir: str = "models"
    run_dir: str = "runs"
    dev_fraction: float = 0.28
    abbreviations_tsv: str | None = None
    hierarchy_spec: str | None = None
    class_boosts_tsv: str | None = None
    norm: dict = field(default_factory=dict)
    boost: dict = field(default_factory=dict)
    svm: dict = field(default_factory=dict)
    cosine: dict = field(default_factory=dict)
    mi_k: int | None = 10000
    fusion: dict = field(default_factory=dict)
    # built from the option sections above, so every command checks them
    norm_config: NormConfig = field(init=False, repr=False)
    boost_config: boost_mod.BoostConfig = field(init=False, repr=False)
    svm_config: svm_mod.SvmConfig = field(init=False, repr=False)
    cosine_config: cosine_mod.CosineConfig = field(init=False, repr=False)
    electre: ElectreParams | None = field(init=False, repr=False)  # None for T4
    # read from the files named above
    class_boosts: dict[tuple[str, str], int] | None = field(init=False, repr=False)
    hierarchy: cosine_mod.HierarchySpec | None = field(init=False, repr=False)  # None for T4

    def __post_init__(self):
        check_types(self)
        if self.task not in TASK_LABEL_KIND:
            raise ConfigError(f"unknown task {self.task!r} (expected T1, T2 or T4)")
        if not 0.0 < self.dev_fraction < 1.0:
            raise ConfigError(f"dev_fraction {self.dev_fraction!r} is not a number in (0, 1)")
        if self.mi_k is not None and self.mi_k < 0:
            raise ConfigError(f"mi_k {self.mi_k!r} is not a count (0 or null: no MI filter)")
        if self.abbreviations_tsv is None:
            table = builtin_abbreviations()
        else:
            table = load_abbrev_table(_require_file(self.abbreviations_tsv, "abbreviation file"))
        self.norm_config = _options(NormConfig, self.norm, "norm", abbrev_table=table)
        self.boost_config = _options(boost_mod.BoostConfig, self.boost, "boost")
        self.svm_config = _options(svm_mod.SvmConfig, self.svm, "svm", seed=self.seed)
        self.cosine_config = _options(cosine_mod.CosineConfig, self.cosine, "cosine")
        self.electre = None if self.task == "T4" else _electre_params(self.task, self.fusion)
        if self.class_boosts_tsv is not None and self.task != "T2":
            raise ConfigError(f"class_boosts_tsv applies to task T2 only (its flat cosine "
                              f"model), not {self.task}")
        self.class_boosts = None if self.class_boosts_tsv is None else _load_class_boosts(
            _require_file(self.class_boosts_tsv, "class boost file"))
        self.hierarchy = None if self.task == "T4" else _hierarchy(
            self.task, self.hierarchy_spec, self.cosine_config.alpha)


def _options(cls, options: dict, section: str, **fixed):
    """``cls`` built from a config section; ``fixed`` fields are not options."""
    unknown = set(options) - ({f.name for f in fields(cls)} - set(fixed))
    if unknown:
        raise ConfigError(f"unknown {section} options: {sorted(unknown)}")
    return _built(section, cls, **fixed, **options)


def _built(section: str, cls, **values):
    """``cls(**values)``; a bad value's error names the config section."""
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{section}: {exc}") from None


def _electre_params(task: str, fusion: dict) -> ElectreParams:
    methods = TASK_METHODS[task]
    options = dict(fusion)
    sc = options.pop("concordance_threshold", None)
    veto = options.pop("veto", DEFAULT_VETO)
    weights = options.pop("method_weights", None)
    if options:
        raise ConfigError(f"unknown fusion options: {sorted(options)}")
    if weights is None:
        weights = dict.fromkeys(methods, 1.0)
    if type(weights) is not dict:
        raise ConfigError(f"fusion method_weights {weights!r} is not a JSON object")
    vetoes = dict(veto) if type(veto) is dict else dict.fromkeys(methods, veto)
    missing = [m for m in methods if m not in weights or m not in vetoes]
    if missing:
        raise ConfigError(f"fusion weights or vetoes missing methods {missing}")
    return _built("fusion", ElectreParams, method_weights=weights, veto_values=vetoes,
                  concordance_threshold=DEFAULT_CONCORDANCE[task] if sc is None else sc)


def _hierarchy(task: str, spec_path: str | None, alpha: float | None
               ) -> cosine_mod.HierarchySpec:
    """The spec file's hierarchy, or the task's default, with ``alpha``
    (when set) as every stage's feed mix."""
    spec = (cosine_mod.default_hierarchy(task) if spec_path is None else
            cosine_mod.load_hierarchy_spec(_require_file(spec_path, "hierarchy spec")))
    if alpha is None:
        return spec
    return cosine_mod.HierarchySpec(tuple(
        cosine_mod.HierarchyStage(stage.grouping, alpha) for stage in spec.stages))


def _load_class_boosts(path: Path) -> dict[tuple[str, str], int]:
    boosts: dict[tuple[str, str], int] = {}
    for row in check_widths(read_rows(path, error=DataError, comments=True), 3):
        row.put(boosts, (row[0], row[1]), row.int(2))
    return boosts


def load_config(path: str | Path | None, **overrides) -> PipelineConfig:
    """The config of the JSON file at ``path`` (the defaults for None),
    with ``overrides`` (the command-line flags) replacing its values."""
    raw = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        if type(raw) is not dict:
            raise ConfigError(f"{path}: the config is not a JSON object")
        unknown = set(raw) - {f.name for f in fields(PipelineConfig) if f.init}
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
    return PipelineConfig(**{**raw, **overrides})


def _require_file(path: str | Path | None, what: str) -> Path:
    if path is None:
        raise ConfigError(f"no {what} configured")
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    return p


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _norm_settings(norm: NormConfig) -> dict:
    """The normalization a model directory is trained with, as its
    manifest records it: every ``NormConfig`` option, and the sha256 of
    the abbreviation table's sorted ``short<TAB>long`` lines."""
    settings = {f.name: getattr(norm, f.name) for f in fields(NormConfig)
                if f.name != "abbrev_table"}
    table = "".join(f"{short}\t{long}\n" for short, long in sorted(norm.abbrev_table.items()))
    settings["abbrev_table_sha256"] = hashlib.sha256(table.encode("utf-8")).hexdigest()
    return settings


def _write_manifest(model_dir: Path, payload: dict) -> None:
    files = {}
    for child in sorted(model_dir.iterdir()):
        if child.name == "manifest.json" or child.is_dir():
            continue
        files[child.name] = _sha256(child)
    payload["files"] = files
    manifest = json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=True)
    (model_dir / "manifest.json").write_text(manifest + "\n", encoding="utf-8")


def _analyze_corpus(corpus: Corpus, norm: NormConfig):
    """Every recipe's analysis by id, and the agglutination model (or
    None). The model is fitted on the plain streams, which are then
    merged without being normalized again."""
    analyses = {r.id: analyze(r, norm) for r in corpus}
    if not norm.agglutinate:
        return analyses, None
    agglut = fit_agglutinator(analyses, norm)
    return {rid: with_agglutination(a, norm, agglut) for rid, a in analyses.items()}, agglut


def _boost_features(analysis: Analysis, lexicon, norm: NormConfig, agglut,
                    index: boost_mod.PresenceIndex | None = None) -> boost_mod.BoostFeatures:
    """Boost features over the recipe's extracted ingredients (none without
    a lexicon), each item normalized like the recipe text; ``index``
    restricts the text fields to a model's n-grams."""
    items = []
    if lexicon is not None:
        items = [merge_ngrams(normalize(item, norm), agglut, norm.agglutination_max_n)
                 for item in extraction_mod.extract(analysis, lexicon).ingredients()]
    return boost_mod.recipe_boost_features(analysis, items, index)


# --------------------------------------------------------------------
# train
# --------------------------------------------------------------------

def cmd_train(config: PipelineConfig) -> int:
    train_path = _require_file(config.train_xml, "training corpus")
    norm, cosine = config.norm_config, config.cosine_config
    full = load_corpus(train_path, TASK_LABEL_KIND[config.task])
    if config.task != "T4":
        train, dev = stratified_split(full, config.dev_fraction, config.seed)
        # refused before anything is fitted or written
        config.hierarchy.check_leaves(train.classes())
    model_dir = Path(config.model_dir)
    model_dir.mkdir(parents=True, exist_ok=True)

    analyses, agglut = _analyze_corpus(full, norm)
    if agglut is not None:
        save_agglutination_model(agglut, model_dir / "agglutination.txt")

    if config.task == "T4":
        lexicon = extraction_mod.build_lexicon(full, analyses, norm)
        extraction_mod.save_lexicon(lexicon, model_dir / "lexicon.tsv")
        _write_manifest(model_dir, {
            "task": config.task, "seed": config.seed, "norm": _norm_settings(norm),
            "train_size": len(full), "dev_size": 0,
        })
        print(f"trained T4 lexicon on {len(full)} recipes -> {model_dir}")
        return 0

    lexicon = None
    if any(r.gold_ingredients for r in train):
        lexicon = extraction_mod.build_lexicon(train, analyses, norm)
        extraction_mod.save_lexicon(lexicon, model_dir / "lexicon.tsv")

    stats = build_stats(train, full, analyses, feed=Feed.TITLE_AND_BODY)
    save_stats(stats, model_dir / "stats.tsv")

    feats = {rid: _boost_features(a, lexicon, norm, agglut) for rid, a in analyses.items()}
    boost_model = boost_mod.train_boost(train, dev, feats, config.boost_config)
    boost_mod.save_boost(boost_model, model_dir / "boost.model")

    vocab_filter = None
    if config.task == "T2" and config.mi_k:
        # the top mi_k of every training term (each has a G) are all of them
        vocab_filter = frozenset(stats.gini if config.mi_k >= len(stats.gini)
                                 else mutual_information_select(stats, config.mi_k))
    svm_model = svm_mod.train_ovo(train, analyses, stats, config.svm_config, vocab_filter)
    svm_mod.save_ovo(svm_model, model_dir / "svm.model")

    if config.task == "T2":
        try:
            flat = cosine_mod.train_cosine(stats, cosine.gini_threshold,
                                           cosine.denominator_mode, config.class_boosts)
        except DataError as exc:
            raise DataError(f"{config.class_boosts_tsv}: {exc}") from None
        cosine_mod.save_cosine(flat, model_dir / "cosine_flat.model")

    title_stats = build_stats(train, full, analyses, Feed.TITLE_ONLY)
    save_stats(title_stats, model_dir / "stats_title.tsv")
    leaf_stats = {Feed.TITLE_AND_BODY: stats, Feed.TITLE_ONLY: title_stats}
    hier = cosine_mod.train_hierarchical(config.hierarchy, leaf_stats, cosine.gini_threshold,
                                         cosine.denominator_mode)
    cosine_mod.save_hierarchical(hier, model_dir / "cosine_hier.model")

    _write_manifest(model_dir, {
        "task": config.task, "seed": config.seed, "norm": _norm_settings(norm),
        "train_size": len(train), "dev_size": len(dev),
        "boost_rounds": len(boost_model.rounds),
        "classes": stats.classes,
    })
    print(f"trained {len(TASK_METHODS[config.task])} classifiers "
          f"on {len(train)}+{len(dev)} recipes -> {model_dir}")
    return 0


# --------------------------------------------------------------------
# classify
# --------------------------------------------------------------------

def _verified_manifest(model_dir: Path, norm: NormConfig) -> dict:
    """The model directory's manifest, once it records ``norm``'s settings
    and every file it lists is present and matches its recorded sha256."""
    path = model_dir / "manifest.json"
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
        files = manifest["files"].items()
    except (OSError, ValueError, LookupError, TypeError, AttributeError) as exc:
        raise ModelMismatchError(f"{path}: unreadable manifest ({exc!r})") from exc
    recorded, expected = manifest.get("norm"), _norm_settings(norm)
    if type(recorded) is not dict:
        raise ModelMismatchError(f"{path}: no norm block (the models' normalization)")
    for key in sorted(recorded.keys() | expected.keys()):
        if recorded.get(key) != expected.get(key):
            raise ModelMismatchError(f"{path}: norm.{key} is {recorded.get(key)!r} in the "
                                     f"models, {expected.get(key)!r} in the config")
    for name, digest in files:
        if not (model_dir / name).is_file():
            raise ModelMismatchError(f"{model_dir / name} is listed in {path} but missing")
        if _sha256(model_dir / name) != digest:
            raise ModelMismatchError(f"{model_dir / name} does not match its sha256 in {path}")
    return manifest


def _save_score_tsv(vectors: list[ScoreVector], classes: list[str], method: str,
                    path: Path) -> None:
    lines = ["#scores\tv1", f"#method\t{method}", "#classes\t" + ",".join(classes)]
    for v in vectors:
        cells = [v.recipe_id] + [f"{v.scores[c]:.17g}" for c in classes]
        lines.append("\t".join(cells))
    write_lines(path, lines)


def _load_score_tsv(path: Path, method: str) -> list[ScoreVector]:
    header, rows = Header.split(read_rows(path, "#scores\tv1"), path,
                                {"#method": 2, "#classes": 2})
    if header["method"][1] != method:
        raise header["method"].fail(f"scores of method {header['method'][1]!r}, "
                                    f"expected {method!r}")
    classes = header["classes"][1].split(",")
    return [ScoreVector(row[0], method, dict(zip(classes, row.floats(1))))
            for row in check_widths(rows, 1 + len(classes))]


def _load_leaf_stats(model_dir: Path) -> dict[Feed, LexiconStats]:
    """Each feed's leaf statistics (``stats.tsv``, ``stats_title.tsv``),
    once each file holds its own feed and both describe one split."""
    paths = {Feed.TITLE_AND_BODY: model_dir / "stats.tsv",
             Feed.TITLE_ONLY: model_dir / "stats_title.tsv"}
    leaf_stats = {}
    for feed, path in paths.items():
        stats = leaf_stats[feed] = load_stats(path)
        if stats.feed is not feed:
            raise ModelMismatchError(f"{path}: statistics of feed {stats.feed.value!r}, "
                                     f"expected {feed.value!r}")
    both, title = leaf_stats.values()
    if ((both.corpus_size, both.train_size, both.classes, both.class_sizes)
            != (title.corpus_size, title.train_size, title.classes, title.class_sizes)):
        raise ModelMismatchError(f"{paths[Feed.TITLE_ONLY]}: corpus size, training size, "
                                 f"classes or class sizes differ from "
                                 f"{paths[Feed.TITLE_AND_BODY]}")
    return leaf_stats


def cmd_classify(config: PipelineConfig) -> int:
    if config.task == "T4":
        raise ConfigError("classify applies to tasks T1 and T2; use extract for T4")
    test_path = _require_file(config.test_xml, "test corpus")
    model_dir = Path(config.model_dir)
    norm = config.norm_config
    manifest = _verified_manifest(model_dir, norm)
    if manifest.get("task") != config.task:
        raise ModelMismatchError(
            f"{model_dir} holds models trained for task {manifest.get('task')!r}, "
            f"config asks for {config.task!r}")
    agglut = None
    if norm.agglutinate:
        agglut = load_agglutination_model(model_dir / "agglutination.txt")
    lexicon = None
    if "lexicon.tsv" in manifest["files"]:
        lexicon = extraction_mod.load_lexicon(model_dir / "lexicon.tsv")
    leaf_stats = _load_leaf_stats(model_dir)
    stats = leaf_stats[Feed.TITLE_AND_BODY]
    methods = TASK_METHODS[config.task]
    boost_model = boost_mod.load_boost(model_dir / "boost.model")
    if not boost_mod.reads_ingredients(boost_model):
        lexicon = None  # the items would change no score: extract none
    svm_model = svm_mod.load_ovo(model_dir / "svm.model")
    hier_model = cosine_mod.load_hierarchical(model_dir / "cosine_hier.model", leaf_stats)
    flat_model = None
    if "cosine_flat" in methods:
        flat_model = cosine_mod.load_cosine(model_dir / "cosine_flat.model", stats)
    # every method scores the classes of boost.model, or nothing is scored
    classes = sorted(boost_model.classes)
    for name, model_classes in (("svm.model", svm_model.classes), ("stats.tsv", stats.classes)):
        if sorted(model_classes) != classes:
            raise ModelMismatchError(f"{model_dir / name}: classes {sorted(model_classes)} "
                                     f"differ from {classes} in boost.model")
    run_dir = Path(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)

    # Recipe-major: each recipe is read, and its analysis dropped, once
    # every method has scored it.
    per_method: dict[str, list[ScoreVector]] = {m: [] for m in methods}
    boost_index = boost_mod.presence_index(boost_model)
    for recipe in iter_recipes(test_path):
        analysis = analyze(recipe, norm, agglut)
        counts = feed_counts(analysis)
        feats = _boost_features(analysis, lexicon, norm, agglut, boost_index)
        per_method["boost"].append(boost_mod.score_boost(boost_model, feats))
        per_method["svm"].append(svm_mod.score_ovo(svm_model, analysis, stats, counts))
        per_method["cosine_hier"].append(
            cosine_mod.classify_hierarchical(hier_model, analysis, counts))
        if flat_model is not None:
            per_method["cosine_flat"].append(
                cosine_mod.score_cosine(flat_model, analysis, counts))

    for method in methods:
        _save_score_tsv(per_method[method], classes, method,
                        run_dir / f"scores_{method}.tsv")
    print(f"wrote {len(methods)} score files for {len(per_method['boost'])} recipes "
          f"-> {run_dir}")
    return 0


# --------------------------------------------------------------------
# fuse
# --------------------------------------------------------------------

def _load_score_files(run_dir: Path, methods: list[str]) -> dict[str, list[ScoreVector]]:
    """Each recipe's normalized score vectors in ``methods`` order, by
    recipe id in sorted order; every score file must hold the same ids."""
    by_method = []
    for method in methods:
        path = _require_file(run_dir / f"scores_{method}.tsv", "score file (run classify first)")
        by_method.append({v.recipe_id: v for v in _load_score_tsv(path, method)})
    ids = sorted(by_method[0])
    for method, vectors in zip(methods, by_method):
        if sorted(vectors) != ids:
            raise DataError(f"score files disagree on recipe ids ({method!r})")
    return {rid: [normalize_scores(vectors[rid]) for vectors in by_method] for rid in ids}


def cmd_fuse(config: PipelineConfig, runs_preset: str | None) -> int:
    if config.task == "T4":
        raise ConfigError("fuse applies to tasks T1 and T2")
    run_dir = Path(config.run_dir)
    methods = TASK_METHODS[config.task]
    by_recipe = _load_score_files(run_dir, methods)

    linear_rows, electre_rows, detail_rows = [], [], []
    for rid, vectors in by_recipe.items():
        linear_winner, _ = fuse_linear(vectors)
        electre_winner, relation = fuse_electre(vectors, config.electre)
        linear_rows.append(f"{rid}\t{linear_winner}")
        electre_rows.append(f"{rid}\t{electre_winner}")
        cells = [rid]
        for method, vector in zip(methods, vectors):
            for cls in sorted(vector.scores):
                cells.append(f"{method}:{cls}={vector.scores[cls]:.6f}")
        kernel = ",".join(sorted(relation.kernel)) or "-"
        cells.append(f"kernel={kernel}")
        cells.append(f"linear={linear_winner}")
        cells.append(f"electre={electre_winner}")
        detail_rows.append("\t".join(cells))

    write_lines(run_dir / "fused_linear.tsv", linear_rows)
    write_lines(run_dir / "fused_electre.tsv", electre_rows)
    write_lines(run_dir / "fusion_details.tsv", detail_rows)

    if runs_preset == "paper":
        single = RUN1_METHOD[config.task]
        run1 = [f"{rid}\t{vectors[methods.index(single)].top_class()}"
                for rid, vectors in by_recipe.items()]
        write_lines(run_dir / "run1.tsv", run1)
        write_lines(run_dir / "run2.tsv", electre_rows)
        write_lines(run_dir / "run3.tsv", linear_rows)
        print(f"wrote run1 ({single}), run2 (electre), run3 (linear) -> {run_dir}")
    else:
        print(f"wrote linear and electre fusion runs for {len(by_recipe)} recipes -> {run_dir}")
    return 0


# --------------------------------------------------------------------
# extract / evaluate / sweep
# --------------------------------------------------------------------

def cmd_extract(config: PipelineConfig) -> int:
    test_path = _require_file(config.test_xml, "test corpus")
    model_dir = Path(config.model_dir)
    # extraction reads only the plain view
    norm = config.norm_config
    _verified_manifest(model_dir, norm)
    # every task's model directory carries the lexicon, the only file read
    lexicon = extraction_mod.load_lexicon(model_dir / "lexicon.tsv")
    run_dir = Path(config.run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    test = load_corpus(test_path, LabelKind.NONE)
    run = {r.id: extraction_mod.extract(analyze(r, norm), lexicon) for r in test}
    extraction_mod.save_run(run, run_dir / "ingredients.tsv")
    total = sum(len(cl.items) for cl in run.values())
    print(f"extracted {total} candidates over {len(test)} recipes -> {run_dir}")
    return 0


def _load_label_run(path: Path) -> dict[str, str]:
    predicted = {}
    for row in check_widths(read_rows(path, error=DataError), 2):
        if not row[1]:
            raise row.fail("empty label")
        row.put(predicted, row[0], row[1])
    return predicted


def cmd_evaluate(config: PipelineConfig, run_file: str, qrels_file: str | None,
                 deaccent: bool = False) -> int:
    run_path = _require_file(run_file, "run file")
    if config.task == "T4":
        norm = config.norm_config
        run = extraction_mod.load_run(run_path)
        if qrels_file is not None:
            qrels = load_qrels(_require_file(qrels_file, "qrels file"))
        else:
            gold_path = _require_file(config.test_xml, "test corpus (for gold lists)")
            qrels = qrels_from_corpus(load_corpus(gold_path, LabelKind.NONE), norm)
        score = mean_average_precision(run, qrels, norm, deaccent=deaccent)
        print(f"map\t{score:.6f}")
        return 0

    gold_path = _require_file(config.test_xml, "test corpus (with gold labels)")
    gold = load_corpus(gold_path, TASK_LABEL_KIND[config.task])
    predicted = _load_label_run(run_path)
    report = classification_report(gold, predicted, ordinal=(config.task == "T1"))
    for line in report.lines():
        print(line)
    return 0


def cmd_sweep(config: PipelineConfig, param: str, start: float, stop: float,
              step: float) -> int:
    if not (all(map(math.isfinite, (start, stop, step))) and step > 0 and start <= stop):
        raise ConfigError(f"sweep needs finite start <= stop, step > 0: {start}, {stop}, {step}")
    values = []
    v = start
    while v <= stop + 1e-12:
        values.append(round(v, 10))
        v += step

    train_path = _require_file(config.train_xml, "training corpus")
    label_kind = TASK_LABEL_KIND[config.task]
    if label_kind is LabelKind.NONE:
        raise ConfigError("sweep applies to classification tasks")
    full = load_corpus(train_path, label_kind)
    train, dev = stratified_split(full, config.dev_fraction, config.seed)

    # every swept value is checked before the first line is printed
    if param == "gini_threshold":
        settings = [replace(config.cosine_config, gini_threshold=v) for v in values]
        analyses, _ = _analyze_corpus(full, config.norm_config)
        stats = build_stats(train, full, analyses)
        print("gini_threshold\tdev_macro_f")
        for cosine in settings:
            model = cosine_mod.train_cosine(stats, cosine.gini_threshold, cosine.denominator_mode)
            predicted = {r.id: cosine_mod.score_cosine(model, analyses[r.id]).top_class()
                         for r in dev}
            report = classification_report(dev, predicted)
            print(f"{cosine.gini_threshold:.6f}\t{report.macro_f:.6f}")
        return 0
    if param == "concordance_threshold":
        settings = [replace(config.electre, concordance_threshold=v) for v in values]
        by_recipe = _load_score_files(Path(config.run_dir), TASK_METHODS[config.task])
        gold = load_corpus(_require_file(config.test_xml, "test corpus"), label_kind)
        print("concordance_threshold\tmicro_f")
        for params in settings:
            predicted = {rid: fuse_electre(vectors, params)[0]
                         for rid, vectors in by_recipe.items()}
            report = classification_report(gold, predicted)
            print(f"{params.concordance_threshold:.6f}\t{report.micro_f:.6f}")
        return 0
    raise ConfigError(f"unknown sweep parameter {param!r}")


# --------------------------------------------------------------------
# entry point
# --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="recipetext",
        description="Recipe classification and ingredient extraction pipeline.")
    parser.add_argument("--config", help="JSON pipeline config file")
    parser.add_argument("--task", choices=sorted(TASK_LABEL_KIND))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--train-xml", dest="train_xml")
    parser.add_argument("--test-xml", dest="test_xml")
    parser.add_argument("--model-dir", dest="model_dir")
    parser.add_argument("--run-dir", dest="run_dir")
    parser.add_argument("--dev-fraction", dest="dev_fraction", type=float)

    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("train", help="fit all models for the task")
    sub.add_parser("classify", help="emit per-method score files for the test corpus")
    fuse = sub.add_parser("fuse", help="combine score files into final runs")
    fuse.add_argument("--runs", choices=["paper"], default=None,
                      help="also emit the run1/run2/run3 preset")
    sub.add_parser("extract", help="emit the ranked ingredient run")
    ev = sub.add_parser("evaluate", help="score a run file")
    ev.add_argument("run_file")
    ev.add_argument("--qrels", default=None, help="qrels file (T4)")
    ev.add_argument("--deaccent", action="store_true",
                    help="strip accents before matching ingredients (T4, comparison only)")
    sw = sub.add_parser("sweep", help="grid-sweep one parameter: gini_threshold by dev "
                        "macro-F, concordance_threshold by micro-F against the gold labels "
                        "of test_xml")
    sw.add_argument("--param", required=True,
                    choices=["gini_threshold", "concordance_threshold"])
    sw.add_argument("--start", type=float, required=True)
    sw.add_argument("--stop", type=float, required=True)
    sw.add_argument("--step", type=float, required=True)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        flags = ("task", "seed", "train_xml", "test_xml", "model_dir", "run_dir", "dev_fraction")
        config = load_config(args.config or None, **{
            flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None})
        if args.command == "train":
            return cmd_train(config)
        if args.command == "classify":
            return cmd_classify(config)
        if args.command == "fuse":
            return cmd_fuse(config, args.runs)
        if args.command == "extract":
            return cmd_extract(config)
        if args.command == "evaluate":
            return cmd_evaluate(config, args.run_file, args.qrels, args.deaccent)
        if args.command == "sweep":
            return cmd_sweep(config, args.param, args.start, args.stop, args.step)
        parser.error(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error:config: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error:data: {exc}", file=sys.stderr)
        return 3
    except ModelMismatchError as exc:
        print(f"error:model-mismatch: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a bug, not bad input: one line, never a traceback
        print(f"error:internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
