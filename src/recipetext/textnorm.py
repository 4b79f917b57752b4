"""Text normalization, tokenization, n-grams and n-gram agglutination.

Normalization applies four steps in order:

1. punctuation is dropped, every word isolated, apostrophe clitics are
   split off ("l'oignon" -> "l'", "oignon"); output is lowercased;
2. abbreviations are replaced from a user-extendable table
   ("kg" -> "kilogramme");
3. digit sequences are rewritten as French words ("3" -> "trois",
   "3,5" -> "trois virgule cinq"); cardinals above 999 pass through;
4. frequent word n-grams are merged into composite tokens joined with
   "_" ("il y a" -> "il_y_a"), using a fitted agglutination model,
   longest match first, left to right. Every model n-gram has two
   tokens or more, and the model indexes its n-grams by first token ->
   second tokens once (``AgglutinationModel.starts``), so windows are
   looked up only where the next two tokens start a model n-gram; the
   other positions cost one dict lookup.

``normalize`` applies steps 1-3. Step 4 is ``merge_ngrams`` and runs
only where a model is given; ``NormConfig.agglutinate`` tells the CLI
to fit (``train``) or load (``classify``) the model it then passes.

Diacritics are preserved throughout: de-accenting recipe text creates
ambiguities ("pâte"/"pâté") that cost more than it saves.

A recipe is analyzed once (``analyze``) and every consumer reads the
token view it needs from the resulting ``Analysis``:

* ``plain`` -- steps 1-3 on ``title + "\n" + body``; extraction and
  the agglutinator fit read it;
* ``title``, ``body``, ``title_body`` -- steps 1-4, the last merged
  over the joined plain stream (never the merged title followed by the
  merged body: an agglutinated n-gram can span the boundary). Without
  a model they are the plain title, the plain body and ``plain``.

``with_agglutination`` merges the joined stream once and cuts the
result where the scan reaches the title/body joint. Up to the joint
that scan makes the title's own choices: it takes the longest match,
and a match that ends by the joint is also the longest the title's
scan can see. From the joint on it reads exactly the body's stream.
Only when a merged n-gram spans the joint are the title and the body
merged on their own.

Steps 1-3 run once per field. The joined stream is the plain title
stream followed by the plain body stream because "\n" is a hard
boundary for every step before merging: no token pattern matches
across it, NFC composes no mark onto it, ``lower()`` reads no
final-sigma context through it, and abbreviations and numbers are
rewritten token by token. The plain tokens and the merged n-grams are
interned, so that the analyses of a corpus held in memory share one
string per distinct token.

Steps 1-3 are memoized per token-pattern match, which is exact: NFC,
the apostrophe mapping and ``lower()`` run once over the whole text,
and everything after them is a pure function of one ``_TOKEN_RE``
match (the clitic split cuts inside the match, and abbreviations and
numbers are rewritten token by token). ``normalize`` looks each match
up in ``NormConfig.piece_memo`` and computes its tokens, kept as an
interned tuple, only the first time the match is seen. The memo
depends on the config's abbreviation table and number setting, so it
is the config's own: it is created with the config's first
``normalize``, freed with the config, and never shared between
configs. The table must not be edited after the config is built.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path
from sys import intern

from .corpus import Recipe
from .errors import ConfigError, DataError, check_types
from .tsv import read_rows, write_lines

TokenStream = list[str]

# Tokens are decimal numbers ("3,5"), digit runs, or words; hyphens stay
# word-internal, apostrophes stay on clitic prefixes, digit/letter
# boundaries split ("40cl" -> "40", "cl").  Everything else separates.
_TOKEN_RE = re.compile(
    r"[0-9]+,[0-9]+"
    r"|[0-9]+"
    r"|[^\W\d_]+(?:[-'][^\W\d_]+)*'?",
    re.UNICODE,
)
_DIGITS_RE = re.compile(r"^[0-9]+$")
_DECIMAL_RE = re.compile(r"^([0-9]+),([0-9]+)$")


def default_french_numbers() -> dict[int, str]:
    """French cardinal words for 0..999, fully hyphenated.

    Uses the 1990 rectified orthography (hyphens everywhere) so every
    number renders as a single whitespace-free token.
    """
    units = {
        0: "zéro", 1: "un", 2: "deux", 3: "trois", 4: "quatre", 5: "cinq",
        6: "six", 7: "sept", 8: "huit", 9: "neuf", 10: "dix", 11: "onze",
        12: "douze", 13: "treize", 14: "quatorze", 15: "quinze", 16: "seize",
    }
    tens = {20: "vingt", 30: "trente", 40: "quarante", 50: "cinquante", 60: "soixante"}

    def below_hundred(n: int) -> str:
        if n <= 16:
            return units[n]
        if n < 20:
            return "dix-" + units[n - 10]
        if n < 70:
            t, u = divmod(n, 10)
            base = tens[t * 10]
            if u == 0:
                return base
            if u == 1:
                return base + "-et-un"
            return base + "-" + units[u]
        if n < 80:
            if n == 71:
                return "soixante-et-onze"
            return "soixante-" + below_hundred(n - 60)
        if n == 80:
            return "quatre-vingts"
        if n < 100:
            return "quatre-vingt-" + below_hundred(n - 80)
        raise ValueError(n)

    words = {}
    for n in range(1000):
        if n < 100:
            words[n] = below_hundred(n)
            continue
        h, rest = divmod(n, 100)
        head = "cent" if h == 1 else units[h] + "-cent"
        if rest == 0:
            words[n] = head + ("s" if h > 1 else "")
        else:
            words[n] = head + "-" + below_hundred(rest)
    return words


_FRENCH_NUMBERS = default_french_numbers()


def builtin_abbreviations() -> dict[str, str]:
    """The abbreviation table shipped with the package."""
    with resources.as_file(resources.files("recipetext") / "data/abbreviations.tsv") as path:
        return load_abbrev_table(path)


def load_abbrev_table(path: str | Path) -> dict[str, str]:
    """Load a ``short<TAB>long`` abbreviation table from a TSV file."""
    table = {}
    for row in read_rows(path, error=DataError, comments=True):
        if len(row) != 2 or not row[0] or not row[1]:
            raise row.fail("expected 'short<TAB>long'")
        short = row[0]
        if short != short.lower() or any(ch.isspace() for ch in short):
            raise row.fail(f"abbreviation key {short!r} must be lowercase and whitespace-free")
        row.put(table, short, row[1])
    return table


@dataclass(frozen=True)
class NormConfig:
    abbrev_table: dict[str, str] = field(default_factory=builtin_abbreviations)
    number_conversion: bool = True
    agglutinate: bool = False
    agglutination_min_count: int = 3
    agglutination_max_n: int = 3

    def __post_init__(self):
        check_types(self)
        if self.agglutination_min_count < 2:
            raise ConfigError("agglutination_min_count must be >= 2")
        if not 2 <= self.agglutination_max_n <= 4:
            raise ConfigError("agglutination_max_n must lie in [2, 4]")

    @cached_property
    def piece_memo(self) -> dict[str, tuple[str, ...]]:
        """Token-pattern match -> its tokens after steps 1-3, filled by
        ``normalize`` (see the module docstring)."""
        return {}


class AgglutinationModel(frozenset):
    """The fitted n-grams: a frozenset of token tuples, 2 <= len <= max_n."""

    @cached_property
    def starts(self) -> dict[str, frozenset[str]]:
        """First token -> the second tokens of the n-grams it starts."""
        seconds: dict[str, set[str]] = {}
        for gram in self:
            if len(gram) >= 2:
                seconds.setdefault(gram[0], set()).add(gram[1])
        return {first: frozenset(nexts) for first, nexts in seconds.items()}


def _apply_abbrev(tokens: TokenStream, table: dict[str, str]) -> TokenStream:
    out: TokenStream = []
    for tok in tokens:
        repl = table.get(tok)
        if repl is None:
            out.append(tok)
        else:
            out.extend(repl.lower().split())
    return out


def _apply_numbers(tokens: TokenStream, words: dict[int, str]) -> TokenStream:
    out: TokenStream = []
    for tok in tokens:
        if "0" <= tok[0] <= "9":  # either pattern needs a leading ASCII digit
            decimal = _DECIMAL_RE.match(tok)
            if decimal:
                whole, frac = int(decimal.group(1)), int(decimal.group(2))
                if whole in words and frac in words:
                    out.extend([words[whole], "virgule", words[frac]])
                    continue
            if _DIGITS_RE.match(tok):
                value = int(tok)
                if value in words:
                    out.append(words[value])
                    continue
        out.append(tok)
    return out


def _merge_scan(tokens: Sequence[str], model: AgglutinationModel, max_n: int,
                cut: int = -1) -> tuple[TokenStream, int | None]:
    """Step 4 over ``tokens``, and the number of output tokens made before
    position ``cut`` (None when a merged n-gram spans ``cut``)."""
    index = model.starts
    out: TokenStream = []
    split = None
    i = 0
    end = len(tokens)
    while i < end:
        if i == cut:
            split = len(out)
        width = 1
        if i + 1 < end and tokens[i + 1] in index.get(tokens[i], ()):
            for n in range(min(max_n, end - i), 1, -1):
                if tuple(tokens[i:i + n]) in model:
                    width = n
                    break
        if width == 1:
            out.append(tokens[i])
        else:
            out.append(intern("_".join(tokens[i:i + width])))
        i += width
    if i == cut:
        split = len(out)
    return out, split


def merge_ngrams(tokens: Sequence[str], model: AgglutinationModel | None,
                 max_n: int) -> TokenStream:
    """Step 4: merge the model's n-grams of at most ``max_n`` tokens,
    longest match first, left to right; no model merges nothing."""
    if model is None:
        return list(tokens)
    return _merge_scan(tokens, model, max_n)[0]


def _piece_tokens(piece: str, config: NormConfig) -> tuple[str, ...]:
    """Steps 1-3 on one token-pattern match of the lowercased text."""
    tokens: TokenStream = []
    while "'" in piece[:-1]:  # clitics: "l'oignon" -> "l'", "oignon"
        cut = piece.index("'") + 1
        tokens.append(piece[:cut])
        piece = piece[cut:]
    if piece:
        tokens.append(piece)
    tokens = _apply_abbrev(tokens, config.abbrev_table)
    if config.number_conversion:
        tokens = _apply_numbers(tokens, _FRENCH_NUMBERS)
    return tuple(map(intern, tokens))


def normalize(text: str, config: NormConfig) -> TokenStream:
    """Apply normalization steps 1-3 to a text; total on strings."""
    text = unicodedata.normalize("NFC", text).replace("’", "'").lower()
    memo = config.piece_memo
    tokens: TokenStream = []
    for piece in _TOKEN_RE.findall(text):
        normalized = memo.get(piece)
        if normalized is None:
            normalized = memo[piece] = _piece_tokens(piece, config)
        tokens.extend(normalized)
    return tokens


@dataclass(frozen=True)
class Analysis:
    """One recipe's token views, each built once (see the module docstring)."""

    recipe: Recipe
    plain: tuple[str, ...]
    title_end: int              # plain[:title_end] is the plain title
    title: tuple[str, ...]
    body: tuple[str, ...]
    title_body: tuple[str, ...]


def analyze(recipe: Recipe, config: NormConfig,
            agglutination_model: AgglutinationModel | None = None) -> Analysis:
    """Normalize a recipe's title and body once into every token view,
    merged by ``agglutination_model`` when one is given. The plain
    tokens are interned.
    """
    title = tuple(normalize(recipe.title, config))
    body = tuple(normalize(recipe.body, config))
    joined = title + body
    analysis = Analysis(recipe, joined, len(title), title, body, joined)
    if agglutination_model is None:
        return analysis
    return with_agglutination(analysis, config, agglutination_model)


def with_agglutination(analysis: Analysis, config: NormConfig,
                       agglutination_model: AgglutinationModel) -> Analysis:
    """The analysis with step 4 applied to its plain streams, which are
    not normalized again (``analyze`` = this over a plain analysis).

    The joined stream is merged once and cut where the scan crosses the
    title/body joint; only when a merged n-gram spans the joint are the
    title and the body merged on their own."""
    max_n = config.agglutination_max_n
    plain, cut = analysis.plain, analysis.title_end
    merged, split = _merge_scan(plain, agglutination_model, max_n, cut)
    if split is None:
        title = merge_ngrams(plain[:cut], agglutination_model, max_n)
        body = merge_ngrams(plain[cut:], agglutination_model, max_n)
    else:
        title, body = merged[:split], merged[split:]
    return Analysis(analysis.recipe, plain, cut, tuple(title), tuple(body), tuple(merged))


def fit_agglutinator(analyses: Mapping[str, Analysis],
                     config: NormConfig) -> AgglutinationModel:
    """Collect the n-grams worth merging into composite tokens.

    Candidates are token n-grams (2 <= n <= agglutination_max_n) whose
    corpus frequency reaches agglutination_min_count, counted on the
    plain (steps 1-3) title and body of every analysis, each field on
    its own. A shorter candidate contained in a
    longer one survives only if it also occurs outside it, i.e. its
    frequency strictly exceeds the longer candidate's; otherwise the
    longer n-gram subsumes it. ``merge_ngrams`` then merges
    longest-match-first, left to right.
    """
    if not analyses:
        raise DataError("fit_agglutinator needs a non-empty corpus")
    counts: Counter = Counter()
    for analysis in analyses.values():
        plain, cut = analysis.plain, analysis.title_end
        for tokens in (plain[:cut], plain[cut:]):
            for n in range(2, config.agglutination_max_n + 1):
                counts.update(zip(*(tokens[i:] for i in range(n))))

    candidates = {g for g, c in counts.items() if c >= config.agglutination_min_count}
    subsumed = set()
    for longer in candidates:
        for span in range(2, len(longer)):
            for i in range(len(longer) - span + 1):
                shorter = longer[i:i + span]
                if shorter in candidates and counts[shorter] <= counts[longer]:
                    subsumed.add(shorter)
    return AgglutinationModel(candidates - subsumed)


def ngram_set(stream: Sequence[str], max_n: int) -> frozenset[str]:
    """The distinct contiguous n-grams for 1 <= n <= max_n, space-joined."""
    if max_n < 1:
        raise ConfigError("max_n must be >= 1")
    grams = set(stream)
    for n in range(2, max_n + 1):
        grams.update(map(" ".join, zip(*(stream[i:] for i in range(n)))))
    return frozenset(grams)


def save_agglutination_model(model: AgglutinationModel, path: str | Path) -> None:
    write_lines(path, sorted(" ".join(gram) for gram in model))


def load_agglutination_model(path: str | Path) -> AgglutinationModel:
    return AgglutinationModel(tuple(row[0].split()) for row in read_rows(path))


__all__ = [
    "AgglutinationModel",
    "Analysis",
    "NormConfig",
    "TokenStream",
    "analyze",
    "builtin_abbreviations",
    "default_french_numbers",
    "fit_agglutinator",
    "load_abbrev_table",
    "load_agglutination_model",
    "merge_ngrams",
    "ngram_set",
    "normalize",
    "save_agglutination_model",
    "with_agglutination",
]
