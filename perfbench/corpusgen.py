"""Deterministic synthetic recipe corpora of any size.

The corpora extend the word pools of ``scripts/gen_fixtures.py`` so
that every stage of the pipeline has work whose amount grows with the
corpus:

- an open, Zipf-like tail of made-up words, partly tied to dish types,
  so the vocabulary and the boosting candidate set grow with ``n``;
- about a quarter of the recipes borrow another dish type's words;
- adjacent difficulty levels share marker words and body lengths, so
  difficulty is learnable but never perfectly;
- digits, decimals, ``th``/``kg``/``cl`` abbreviations and clitics, so
  normalization steps 1-3 all rewrite tokens;
- stock phrases repeated across recipes, so agglutination finds n-grams;
- multi-word gold ingredients, and bodies that name meat, cheese or fish
  only generically ("la viande"), so generic resolution has work.

Every draw comes from one ``SplitMix64`` stream per corpus, seeded from
the benchmark seed and the corpus name: equal arguments give equal
bytes.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

from recipetext.corpus import Corpus, Difficulty, DishType, LabelKind, Recipe, save_corpus
from recipetext.rng import SplitMix64, mix64


def _fixture_pools(root: Path):
    """The word pools of scripts/gen_fixtures.py, imported read-only."""
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", root / "scripts" / "gen_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Ingredients beyond the fixture pools: multi-word items and the
# specifics behind each generic term.
MULTIWORD = {
    "Entree": ["huile d'olive", "saumon fumé", "vinaigre de vin", "pain de mie"],
    "PlatPrincipal": ["crème fraîche", "filet de boeuf", "bouillon de volaille",
                      "pomme de terre"],
    "Dessert": ["sucre glace", "pâte feuilletée", "crème fraîche", "lait entier"],
}
GENERIC_SPECIFICS = {
    "viande": ["veau", "agneau", "canard", "jambon"],
    "fromage": ["comté", "parmesan", "emmental", "roquefort"],
    "poisson": ["cabillaud", "thon", "sardine", "merlu"],
}
# Which generic families each dish type draws its specifics from.
DISH_GENERICS = {
    "Entree": ["fromage", "poisson"],
    "PlatPrincipal": ["viande", "poisson", "fromage"],
    "Dessert": ["fromage"],
}
# Stock phrases that recur across recipes (agglutination candidates).
PHRASES = ["il y a", "à feu doux", "sel et poivre", "jusqu'à ébullition",
           "préchauffer le four", "laisser reposer", "au bain-marie",
           "pendant quelques minutes", "en remuant sans cesse", "hors du feu"]
# Clitic-bearing words (normalization step 1 splits them).
CLITICS = ["l'oignon", "d'huile", "qu'il", "jusqu'à", "s'il", "l'eau",
           "n'est", "d'abord", "l'ensemble", "qu'elle"]
UNITS = ["kg", "cl", "g", "minutes", "cuillères"]
SYLLABLES = ["ba", "ro", "li", "mu", "ta", "ne", "vi", "so", "ga", "pe",
             "di", "cu", "lo", "ri", "fa", "zé"]

# Level frequencies: easy recipes dominate, as on recipe sites.
LEVEL_WEIGHTS = [0.30, 0.34, 0.22, 0.14]
CONFUSABLE_SHARE = 0.25
NEIGHBOUR_MARKER_SHARE = 0.15
TAIL_WORD_SHARE = 0.2


def _tail_word(rank: int) -> str:
    """The made-up word of a tail rank: its base-16 digits as syllables."""
    parts = []
    rank += 16  # at least two syllables
    while rank:
        rank, digit = divmod(rank, len(SYLLABLES))
        parts.append(SYLLABLES[digit])
    return "".join(parts)


class _Writer:
    def __init__(self, rng: SplitMix64, pools):
        self.rng = rng
        self.pools = pools
        self.dishes = list(pools.DISH_WORDS)

    def pick(self, pool):
        return pool[self.rng.below(len(pool))]

    def tail(self, dish_idx: int) -> str:
        # Pareto draw over ranks (unbounded in expectation, capped); a
        # rank owns three words, one per dish type, and the recipe's
        # own dish wins most of the time.
        rank = min(int((1.0 - self.rng.uniform()) ** -1.1), 1 << 20)
        if self.rng.uniform() >= 0.6:
            dish_idx = self.rng.below(3)
        return _tail_word(3 * rank + dish_idx)

    def marker(self, level: int) -> str:
        levels = list(Difficulty)
        if self.rng.uniform() < NEIGHBOUR_MARKER_SHARE:
            neighbours = [i for i in (level - 1, level + 1) if 0 <= i < len(levels)]
            level = self.pick(neighbours)
        return self.pick(self.pools.DIFFICULTY_WORDS[levels[level].name])

    def number_phrase(self) -> str:
        roll = self.rng.below(5)
        if roll == 0:
            return f"four th {4 + self.rng.below(5)}"
        if roll == 1:
            return f"{1 + self.rng.below(3)},{1 + self.rng.below(9)} kg"
        if roll == 2:
            return f"{10 + 5 * self.rng.below(10)}cl"
        if roll == 3:
            return f"{1 + self.rng.below(300)} {self.pick(UNITS)}"
        return f"{1 + self.rng.below(12)} {self.pick(UNITS)}"

    def sentence(self, words, dish_idx: int, level: int) -> str:
        parts = [self.pick(self.pools.VERBS)]
        for _ in range(4 + self.rng.below(5)):
            roll = self.rng.uniform()
            if roll < 0.12:
                parts.append(self.pick(self.pools.CROSS))
            elif roll < 0.27:
                parts.append(self.pick(self.pools.FILLER))
            elif roll < 0.27 + TAIL_WORD_SHARE:
                parts.append(self.tail(dish_idx))
            elif roll < 0.55:
                parts.append(self.marker(level))
            elif roll < 0.62:
                parts.append(self.pick(CLITICS))
            else:
                parts.append(self.pick(words))
        if self.rng.uniform() < 0.35:
            parts.append(self.pick(PHRASES))
        if self.rng.uniform() < 0.35:
            parts.append(self.number_phrase())
        text = " ".join(parts)
        return text[0].upper() + text[1:] + "."

    def recipe(self, rid: str, dish_idx: int, level: int) -> Recipe:
        rng = self.rng
        dish = self.dishes[dish_idx]
        words = list(self.pools.DISH_WORDS[dish])
        if rng.uniform() < CONFUSABLE_SHARE:
            other = self.pools.DISH_WORDS[self.dishes[(dish_idx + 1 + rng.below(2)) % 3]]
            words += other + other

        gold = {self.pick(self.pools.INGREDIENTS[dish]) for _ in range(1 + rng.below(3))}
        if rng.uniform() < 0.6:
            gold.add(self.pick(MULTIWORD[dish]))
        generic = None
        if rng.uniform() < 0.5:
            generic = self.pick(DISH_GENERICS[dish])
            gold.add(self.pick(GENERIC_SPECIFICS[generic]))
        gold = sorted(gold)

        title = f"{self.pick(self.pools.DISH_WORDS[dish])} {self.marker(level)}"
        if rng.uniform() < 0.3:
            title += " " + self.tail(dish_idx)
        # harder recipes run longer, with overlap between neighbours
        n_sentences = 2 + level + rng.below(3)
        body = " ".join(self.sentence(words, dish_idx, level) for _ in range(n_sentences))
        mentioned = []
        for item in gold:
            if generic and item in GENERIC_SPECIFICS[generic] and rng.uniform() < 0.6:
                body += f" Ajouter la {generic} coupée." if generic == "viande" \
                    else f" Ajouter le {generic} coupé."
            elif rng.uniform() < 0.8:
                mentioned.append(item)
        if mentioned:
            body += " Il faut " + ", ".join(mentioned) + "."
        return Recipe(rid, title, body, difficulty=list(Difficulty)[level],
                      dish_type=DishType[dish], gold_ingredients=gold)


def generate(root: Path, seed: int, name: str, n: int) -> Corpus:
    """``n`` labelled recipes, ids ``<name>00000`` upward.

    ``name`` also salts the generator, so a training and a test corpus
    drawn with the same seed do not repeat each other.
    """
    salt = int.from_bytes(name.encode("utf-8"), "little")
    rng = SplitMix64(mix64(seed) ^ mix64(salt))
    writer = _Writer(rng, _fixture_pools(root))
    # Label counts are fixed by n, only their order is drawn: the amount
    # of text (which grows with the level) then varies little by seed.
    levels = [level for level, weight in enumerate(LEVEL_WEIGHTS)
              for _ in range(round(weight * n))]
    levels = (levels + [0] * n)[:n]
    rng.shuffle(levels)
    recipes = [writer.recipe(f"{name}{i:05d}", i % 3, level)
               for i, level in enumerate(levels)]
    return Corpus(recipes, LabelKind.NONE)


def write(root: Path, seed: int, name: str, n: int, path: Path) -> Path:
    save_corpus(generate(root, seed, name, n), path)
    return path
