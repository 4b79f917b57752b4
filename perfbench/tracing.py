"""Spans and counters around the recipetext layers, from outside the package.

``Tracer.install`` replaces each traced function with a wrapper in
every ``recipetext`` module that binds it (``cli`` imports
``build_stats`` by name, ``features`` imports ``normalize``, and so on),
and ``Tracer.remove`` puts the originals back. A wrapper records one
span (name, start, end, parent span, iteration) and feeds the layer's
counters from the call's arguments and return value, under the
tracer's current iteration id. Spans stay in memory until ``write_spans``.

Self time is a span's duration minus its direct children's: calls are
nested and single-threaded, so children never overlap.
"""

from __future__ import annotations

import inspect
import json
import math
import operator
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

CLI_COMMANDS = ("train", "classify", "fuse", "extract", "evaluate")
# Counters that keep their largest value instead of adding up.
MAX_COUNTS = {"features.vocabulary_terms"}


def _arg(fn, name, args, kwargs):
    return inspect.signature(fn).bind(*args, **kwargs).arguments[name]


def _count_tokens(count, fn, args, kwargs, result):
    count["textnorm.tokens_out"] += len(result)


def _count_ngrams(count, fn, args, kwargs, result):
    count["textnorm.agglutination_ngrams"] += len(result)


def _count_vocabulary(count, fn, args, kwargs, result):
    # the largest lexicon of the iteration: the full title+body feed
    count["features.vocabulary_terms"] = max(count["features.vocabulary_terms"],
                                             len(result.terms))


def _count_boost(count, fn, args, kwargs, result):
    count["boost.rounds_run"] += len(result.history)
    count["boost.rounds_kept"] += len(result.rounds)


def _count_weights(count, fn, args, kwargs, result):
    count["svm.weights_nnz"] += sum(1 for w in result.weights.values() if w != 0.0)


def _count_kernel(count, fn, args, kwargs, result):
    count["fusion.singleton_kernels"] += len(result[1].kernel) == 1


def _count_candidates(count, fn, args, kwargs, result):
    count["extraction.candidates"] += len(result[0].items)


def _count_resolutions(count, fn, args, kwargs, result):
    before = _arg(fn, "candidates", args, kwargs)
    count["extraction.generic_resolutions"] += len(result.items) - len(before.items)


# (module, function, span name or None for a counter-only wrapper, counter)
TRACED = [
    ("corpus", "load_corpus", "corpus.load", None),
    ("textnorm", "normalize", "textnorm.normalize", _count_tokens),
    ("textnorm", "fit_agglutinator", "textnorm.fit_agglutinator", _count_ngrams),
    ("features", "build_stats", "features.build_stats", _count_vocabulary),
    ("features", "mutual_information_select", "features.mi_select", None),
    ("features", "tfidf_vector", "features.tfidf_vector", None),
    ("features", "numeric_features", "features.numeric_features", None),
    ("features", "load_stats", "features.load_stats", _count_vocabulary),
    ("boost", "recipe_boost_features", "boost.features", None),
    ("boost", "train_boost", "boost.train", _count_boost),
    ("boost", "score_boost", "boost.score", None),
    ("svm", "train_pair", "svm.train_pair", _count_weights),
    ("svm", "score_ovo", "svm.score", None),
    ("cosine", "score_cosine", "cosine.score", None),
    ("cosine", "classify_hierarchical", "cosine.classify_hier", None),
    ("cosine", "train_hierarchical", "cosine.train_hier", None),
    ("cosine", "load_cosine", "cosine.load", None),
    ("cosine", "load_hierarchical", "cosine.load", None),
    ("fusion", "normalize_scores", "fusion.normalize", None),
    ("fusion", "fuse_electre", "fusion.electre", _count_kernel),
    ("fusion", "fuse_linear", "fusion.linear", None),
    ("extraction", "build_lexicon", "extraction.build_lexicon", None),
    ("extraction", "extract", "extraction.extract", None),
    ("extraction", "extract_candidates", None, _count_candidates),
    ("extraction", "resolve_generics", None, _count_resolutions),
    ("evaluation", "classification_report", "evaluation.report", None),
    ("evaluation", "mean_average_precision", "evaluation.map", None),
] + [("cli", f"cmd_{c}", f"cli.{c}", None) for c in CLI_COMMANDS]

# name -> unit, in report order. Every name is reported on every
# workload; a layer the workload does not run reads 0.
LAYER_METRICS = {
    "corpus.load_s": "s", "corpus.load_calls": "count",
    "textnorm.normalize_s": "s", "textnorm.normalize_calls": "count",
    "textnorm.tokens_out": "count",
    "textnorm.fit_agglutinator_s": "s", "textnorm.agglutination_ngrams": "count",
    "features.build_stats_s": "s", "features.build_stats_calls": "count",
    "features.vocabulary_terms": "count", "features.mi_select_s": "s",
    "features.tfidf_vector_s": "s", "features.numeric_features_s": "s",
    "features.load_stats_s": "s",
    "boost.features_s": "s", "boost.train_s": "s", "boost.rounds_run": "count",
    "boost.rounds_kept": "count", "boost.rounds_kept_share": "ratio",
    "boost.score_s": "s",
    "svm.train_pair_s": "s", "svm.pairs": "count", "svm.weights_nnz": "count",
    "svm.score_s": "s",
    "cosine.score_s": "s", "cosine.score_calls": "count",
    "cosine.classify_hier_s": "s", "cosine.train_hier_s": "s", "cosine.load_s": "s",
    "fusion.normalize_calls": "count", "fusion.electre_s": "s", "fusion.linear_s": "s",
    "fusion.singleton_kernel_share": "ratio",
    "extraction.build_lexicon_s": "s", "extraction.extract_s": "s",
    "extraction.extract_calls": "count", "extraction.candidates": "count",
    "extraction.generic_resolutions": "count",
    "evaluation.report_s": "s", "evaluation.map_s": "s",
    **{f"cli.{c}.self_s": "s" for c in CLI_COMMANDS},
    "trace.spans": "count", "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent index, iteration)
        self.counts: dict[int, defaultdict] = defaultdict(lambda: defaultdict(int))
        self.iteration: int | None = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if name is None:
                result = fn(*args, **kwargs)
            else:
                index = len(self.spans)
                parent = self._stack[-1] if self._stack else -1
                self.spans.append(None)
                self._stack.append(index)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans[index] = (name, start, end, parent, self.iteration)
            if counter is not None:
                counter(self.counts[self.iteration], fn, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "recipetext" or key.startswith("recipetext.")]
        for module_name, fn_name, span, counter in TRACED:
            original = getattr(sys.modules[f"recipetext.{module_name}"], fn_name)
            wrapper = self._wrap(original, span, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def remove(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Self time of every span, by span index."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def nesting_errors(self) -> list[str]:
        """Children that leave their parent's interval or overlap a sibling."""
        errors = []
        last_end: dict[int, float] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            if parent < 0:
                continue
            p_name, p_start, p_end, _, _ = self.spans[parent]
            if start < p_start or end > p_end:
                errors.append(f"span {index} ({name}) leaves its parent {p_name}")
            if start < last_end.get(parent, -math.inf):
                errors.append(f"span {index} ({name}) overlaps a sibling")
            last_end[parent] = end
        return errors

    def unit_metrics(self, iterations: set[int], own: list[float]) -> dict[str, float]:
        """Layer metrics over the spans and counts of the given iterations;
        ``own`` holds the self times from ``self_times``."""
        values = defaultdict(float)
        for it in iterations:
            for name, count in self.counts[it].items():
                merge = max if name in MAX_COUNTS else operator.add
                values[name] = merge(values[name], count)
        for index, (name, _, _, _, it) in enumerate(self.spans):
            if it not in iterations:
                continue
            values["trace.spans"] += 1
            if name.startswith("cli."):
                values[name + ".self_s"] += own[index]
            else:
                values[name + "_s"] += own[index]
                values[name + "_calls"] += 1
        values["svm.pairs"] = values["svm.train_pair_calls"]
        if values["boost.rounds_run"]:
            values["boost.rounds_kept_share"] = (values["boost.rounds_kept"]
                                                 / values["boost.rounds_run"])
        if values["fusion.electre_calls"]:
            values["fusion.singleton_kernel_share"] = (values["fusion.singleton_kernels"]
                                                       / values["fusion.electre_calls"])
        return {name: values[name] for name in LAYER_METRICS}

    def layer_metrics(self, iterations: list[int], setups: list[int]) -> dict[str, float]:
        """Median of each layer metric over units of one set-up plus one
        traced iteration, set-ups taken in turn."""
        units = [{it, setups[k % len(setups)]} for k, it in enumerate(iterations)]
        own = self.self_times()
        per_unit = [self.unit_metrics(unit, own) for unit in units]
        return {name: statistics.median(m[name] for m in per_unit)
                for name in LAYER_METRICS}

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: name, start, end, parent, iteration."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
