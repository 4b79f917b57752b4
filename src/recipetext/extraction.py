"""Lexicon-based ingredient extraction with generic-term resolution.

The extractor intersects the recipe's normalized tokens with a lexicon
built from training gold lists (longest match first over 1-3 token
windows, so multi-word entries like "crème fraîche" come out as one
candidate). The lexicon indexes its entries by first token, so the
scan joins and looks up only the windows that could match an entry
and walks past every other token at the cost of one dict lookup.
Generic tokens found in the text ("viande", "fromage",
"poisson") are not emitted directly: each is resolved to the specific
ingredient most probable given the candidate list, estimated from
gold-list co-occurrence counts with add-one smoothing, and injected
only when the unsmoothed evidence is non-zero.

Surface forms are canonicalized by folding a trailing "s" or "x" off
every token of three letters or more, which matches singular and
plural mentions both ways; accents are preserved end to end. The
extractor always works on the analysis's plain (non-agglutinated)
token view so lexicon entries and recipe tokens stay aligned
regardless of the agglutination model used elsewhere in the pipeline.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus
from .errors import DataError
from .textnorm import Analysis, NormConfig, normalize
from .tsv import Header, check_widths, read_rows, write_lines

GENERIC_TERMS = ("fromage", "poisson", "viande")

_MAX_WINDOW = 3


def fold_token(token: str) -> str:
    """Trailing s/x plural fold; tokens shorter than 3 chars are kept."""
    if len(token) >= 3 and token[-1] in "sx":
        return token[:-1]
    return token


def canonical_form(text: str, config: NormConfig) -> str:
    """Normalized (steps 1-3), plural-folded, space-joined surface form."""
    return " ".join(fold_token(tok) for tok in normalize(text, config))


@dataclass
class IngredientLexicon:
    entries: set[str]                                  # canonical forms
    generic_terms: frozenset[str]
    specializations: dict[str, dict[str, int]]         # generic -> specific -> count
    pair_counts: dict[str, dict[str, int]]             # specific -> candidate -> count
    # first token -> the token counts of the entries it starts, descending,
    # for the entries the scan's windows can match (see extract_candidates);
    # built from ``entries`` at construction
    starts: dict[str, tuple[int, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        widths: dict[str, set[int]] = {}
        for entry in self.entries:
            tokens = entry.split(" ")
            if len(tokens) <= _MAX_WINDOW:
                widths.setdefault(tokens[0], set()).add(len(tokens))
        self.starts = {first: tuple(sorted(w, reverse=True)) for first, w in widths.items()}


def build_lexicon(train: Corpus, analyses: Mapping[str, Analysis],
                  norm: NormConfig) -> IngredientLexicon:
    """Collect entry forms and co-occurrence tables from gold lists.

    ``analyses`` maps each training recipe id to its analysis; ``norm``
    canonicalizes the gold items (see canonical_form).

    specializations[g][x] counts training recipes whose gold list holds
    x while their text holds the generic token g; pair_counts[x][l]
    counts training recipes whose gold list holds both x and l (the
    evidence the generic resolver sums over).
    """
    generics = frozenset(fold_token(g) for g in GENERIC_TERMS)
    entries: set[str] = set()
    gold_sets: list[tuple[set[str], set[str]]] = []  # (gold canonical set, text tokens)
    for recipe in train:
        if not recipe.gold_ingredients:
            continue
        gold = {canonical_form(item, norm) for item in recipe.gold_ingredients}
        gold = {g for g in gold if g}
        tokens = {fold_token(t) for t in analyses[recipe.id].plain}
        gold_sets.append((gold, tokens))
        entries.update(g for g in gold if g not in generics)
    if not gold_sets:
        raise DataError("no training recipe carries gold ingredients")

    specializations: dict[str, dict[str, int]] = {g: {} for g in sorted(generics)}
    for gold, tokens in gold_sets:
        for generic in generics:
            if generic not in tokens:
                continue
            table = specializations[generic]
            for item in gold:
                if item in generics:
                    continue
                table[item] = table.get(item, 0) + 1

    specifics = sorted({x for table in specializations.values() for x in table})
    pair_counts: dict[str, dict[str, int]] = {x: {} for x in specifics}
    for gold, _tokens in gold_sets:
        for x in specifics:
            if x not in gold:
                continue
            row = pair_counts[x]
            for item in gold:
                row[item] = row.get(item, 0) + 1

    return IngredientLexicon(entries, generics, specializations, pair_counts)


@dataclass(frozen=True)
class Candidate:
    ingredient: str
    confidence: float


@dataclass
class CandidateList:
    items: list[Candidate]

    def __post_init__(self):
        seen = set()
        for cand in self.items:
            if cand.ingredient in seen:
                raise DataError(f"duplicate candidate {cand.ingredient!r}")
            seen.add(cand.ingredient)
            if not 0.0 < cand.confidence <= 1.0:
                raise DataError(f"confidence out of (0, 1]: {cand!r}")
        self.items.sort(key=lambda c: (-c.confidence, c.ingredient))

    def ingredients(self) -> list[str]:
        return [c.ingredient for c in self.items]


def extract_candidates(analysis: Analysis, lexicon: IngredientLexicon,
                       ) -> tuple[CandidateList, frozenset[str]]:
    """Scan the recipe for lexicon entries; returns the candidate list
    and the set of generic tokens seen (carried forward, not emitted).

    The scan walks the folded token stream left to right trying 3-, 2-
    then 1-token windows; the matched window is consumed whole. Only the
    windows as long as an entry that starts with the position's token
    are joined and looked up, which finds the same longest match: an
    entry can match a window only if its first token is the window's
    first token. The base confidence is min(1, tf/2 + 0.5) on the
    matched form's occurrence count.
    """
    tokens = [fold_token(t) for t in analysis.plain]
    entries, starts = lexicon.entries, lexicon.starts
    counts: dict[str, int] = {}
    generics_found = set()
    i = 0
    end = len(tokens)
    while i < end:
        for width in starts.get(tokens[i], ()):
            if i + width > end:
                continue
            form = " ".join(tokens[i:i + width])
            if form in entries:
                counts[form] = counts.get(form, 0) + 1
                i += width
                break
        else:
            # generics count only where no entry matched: "fromage" inside
            # the entry "fromage blanc" is not one
            if tokens[i] in lexicon.generic_terms:
                generics_found.add(tokens[i])
            i += 1
    items = [Candidate(form, min(1.0, tf / 2 + 0.5)) for form, tf in counts.items()]
    return CandidateList(items), frozenset(generics_found)


def resolve_generics(candidates: CandidateList, generics_found: frozenset[str],
                     lexicon: IngredientLexicon) -> CandidateList:
    """Inject the most probable specific ingredient for each generic.

    For generic g, p(x | candidates) is add-one smoothed over the
    specifics co-occurring with g in training: (count(x) + 1) /
    (sum_x' count(x') + #specifics) with count(x) summing, over the
    candidate items, the training recipes whose gold lists hold both.
    A generic whose best specific has zero unsmoothed count is dropped.
    """
    items = list(candidates.items)
    present = {c.ingredient for c in items}
    for generic in sorted(generics_found):
        # the evidence is the extracted list only, never an injected specific
        counts, denom = _generic_counts(generic, candidates, lexicon)
        if not counts:
            continue
        best = min(counts, key=lambda x: (-counts[x], x))
        if counts[best] == 0 or best in present:
            continue
        items.append(Candidate(best, (counts[best] + 1) / denom))
        present.add(best)
    return CandidateList(items)


def extract(analysis: Analysis, lexicon: IngredientLexicon) -> CandidateList:
    """Full extraction: candidate scan plus generic resolution."""
    candidates, generics_found = extract_candidates(analysis, lexicon)
    return resolve_generics(candidates, generics_found, lexicon)


def _generic_counts(generic: str, candidates: CandidateList,
                    lexicon: IngredientLexicon) -> tuple[dict[str, int], int]:
    """count(x) for each of the generic's specifics in sorted order, and
    the add-one denominator sum_x count(x) + #specifics."""
    counts = {}
    for x in sorted(lexicon.specializations.get(generic, {})):
        row = lexicon.pair_counts.get(x, {})
        counts[x] = sum(row.get(c.ingredient, 0) for c in candidates.items)
    return counts, sum(counts.values()) + len(counts)


def save_lexicon(lexicon: IngredientLexicon, path: str | Path) -> None:
    lines = ["#lexicon\tv1"]
    lines.append("#generics\t" + ",".join(sorted(lexicon.generic_terms)))
    for entry in sorted(lexicon.entries):
        lines.append(f"entry\t{entry}")
    for generic in sorted(lexicon.specializations):
        table = lexicon.specializations[generic]
        for x in sorted(table):
            lines.append(f"spec\t{generic}\t{x}\t{table[x]}")
    for x in sorted(lexicon.pair_counts):
        row = lexicon.pair_counts[x]
        for item in sorted(row):
            lines.append(f"pair\t{x}\t{item}\t{row[item]}")
    write_lines(path, lines)


def load_lexicon(path: str | Path) -> IngredientLexicon:
    header, body = Header.split(read_rows(path, "#lexicon\tv1"), path, {"#generics": 2})
    entries: dict[str, None] = {}
    tables: dict[str, dict[str, dict[str, int]]] = {"spec": {}, "pair": {}}
    for row in check_widths(body, {"entry": 2, "spec": 4, "pair": 4}):
        if row[0] == "entry":
            if not row[1]:
                raise row.fail("empty entry")
            row.put(entries, row[1], None)
            continue
        count = row.int(3)
        if count < 0:
            raise row.fail(f"negative count {count}")
        row.put(tables[row[0]].setdefault(row[1], {}), row[2], count)
    generics = frozenset(header["generics"][1].split(","))
    specializations = {g: {} for g in generics} | tables["spec"]
    return IngredientLexicon(set(entries), generics, specializations, tables["pair"])


def save_run(run: dict[str, CandidateList], path: str | Path) -> None:
    """Ranked run file: recipe_id<TAB>rank<TAB>ingredient<TAB>confidence."""
    lines = []
    for rid in sorted(run):
        for rank, cand in enumerate(run[rid].items, start=1):
            lines.append(f"{rid}\t{rank}\t{cand.ingredient}\t{cand.confidence:.6f}")
    write_lines(path, lines)


def load_run(path: str | Path) -> dict[str, list[str]]:
    """Ranked ingredient lists keyed by recipe id."""
    ranked: dict[str, list[tuple[int, str]]] = {}
    for row in check_widths(read_rows(path, error=DataError), 4):
        ranked.setdefault(row[0], []).append((row.int(1), row[2]))
    return {rid: [ing for _, ing in sorted(pairs)] for rid, pairs in ranked.items()}


__all__ = [
    "Candidate",
    "CandidateList",
    "GENERIC_TERMS",
    "IngredientLexicon",
    "build_lexicon",
    "canonical_form",
    "extract",
    "extract_candidates",
    "fold_token",
    "load_lexicon",
    "load_run",
    "resolve_generics",
    "save_lexicon",
    "save_run",
]
