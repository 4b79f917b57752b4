"""Recipe corpus data model, XML ingestion and stratified splitting.

XML schema (UTF-8): root ``<recettes>``, one ``<recette id="...">`` per
document with required ``<titre>`` and ``<preparation>`` children and
optional ``<niveau>``, ``<type>`` and ``<ingredients>`` (holding one
``<ingredient>`` element per gold item).
"""

from __future__ import annotations

import enum
import xml.etree.ElementTree as ET
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError, CorpusParseError, CorpusSchemaError, DataError
from .rng import SplitMix64


class Difficulty(enum.Enum):
    """Four-level difficulty scale; enum order carries the ordinal rank."""

    TresFacile = "Très facile"
    Facile = "Facile"
    MoyennementDifficile = "Moyennement difficile"
    Difficile = "Difficile"

    @property
    def rank(self) -> int:
        return list(Difficulty).index(self)


class DishType(enum.Enum):
    Entree = "Entrée"
    PlatPrincipal = "Plat principal"
    Dessert = "Dessert"


class LabelKind(enum.Enum):
    DIFFICULTY = "difficulty"
    DISH_TYPE = "dish_type"
    NONE = "none"


_DIFFICULTY_BY_XML = {d.value: d for d in Difficulty}
_DISH_BY_XML = {d.value: d for d in DishType}


@dataclass
class Recipe:
    id: str
    title: str
    body: str
    difficulty: Difficulty | None = None
    dish_type: DishType | None = None
    gold_ingredients: list[str] | None = None

    def label(self, kind: LabelKind) -> str:
        """The recipe's class name (enum member name) for the given task."""
        if kind is LabelKind.DIFFICULTY:
            if self.difficulty is None:
                raise DataError(f"recipe {self.id!r} has no difficulty label")
            return self.difficulty.name
        if kind is LabelKind.DISH_TYPE:
            if self.dish_type is None:
                raise DataError(f"recipe {self.id!r} has no dish type label")
            return self.dish_type.name
        raise ConfigError("label() needs a concrete label kind")


@dataclass
class Corpus:
    recipes: list[Recipe]
    label_kind: LabelKind = LabelKind.NONE

    def __post_init__(self):
        if not self.recipes:
            raise CorpusSchemaError("corpus is empty")
        seen = set()
        for r in self.recipes:
            if r.id in seen:
                raise CorpusSchemaError(f"duplicate recipe id {r.id!r}")
            seen.add(r.id)
        if self.label_kind is not LabelKind.NONE:
            for r in self.recipes:
                r.label(self.label_kind)  # raises DataError if missing

    def __len__(self) -> int:
        return len(self.recipes)

    def __iter__(self):
        return iter(self.recipes)

    def labels(self) -> dict[str, str]:
        """id -> class name for every recipe (label_kind must be set)."""
        return {r.id: r.label(self.label_kind) for r in self.recipes}

    def classes(self) -> list[str]:
        """Sorted class names present in the corpus."""
        return sorted(set(self.labels().values()))


def _text_of(elem: ET.Element, tag: str, recipe_id: str) -> str:
    child = elem.find(tag)
    if child is None or child.text is None or not child.text.strip():
        raise CorpusSchemaError(f"recipe {recipe_id!r}: missing or empty <{tag}>")
    return child.text.strip()


def _recipe(elem: ET.Element, path) -> Recipe:
    rid = elem.get("id")
    if not rid:
        raise CorpusSchemaError(f"{path}: <recette> without id attribute")
    title = _text_of(elem, "titre", rid)
    body = _text_of(elem, "preparation", rid)

    difficulty = None
    niveau = elem.find("niveau")
    if niveau is not None:
        raw = (niveau.text or "").strip()
        if raw not in _DIFFICULTY_BY_XML:
            raise CorpusSchemaError(f"recipe {rid!r}: unknown difficulty {raw!r}")
        difficulty = _DIFFICULTY_BY_XML[raw]

    dish_type = None
    dish = elem.find("type")
    if dish is not None:
        raw = (dish.text or "").strip()
        if raw not in _DISH_BY_XML:
            raise CorpusSchemaError(f"recipe {rid!r}: unknown dish type {raw!r}")
        dish_type = _DISH_BY_XML[raw]

    gold = None
    ingredients = elem.find("ingredients")
    if ingredients is not None:
        gold = []
        for ing in ingredients.findall("ingredient"):
            item = (ing.text or "").strip()
            if not item:
                raise CorpusSchemaError(f"recipe {rid!r}: empty <ingredient>")
            gold.append(item)

    return Recipe(rid, title, body, difficulty, dish_type, gold)


def iter_recipes(path: str | Path) -> Iterator[Recipe]:
    """The recipes of an XML file in document order, read one at a time:
    each <recette> child of the root is dropped once its recipe is made,
    so memory does not grow with the file.

    Raises CorpusParseError for malformed XML and CorpusSchemaError for a
    schema violation (missing element, duplicate id, unknown label
    string, empty corpus), each when the reader reaches it.
    """
    seen = set()
    try:
        events = ET.iterparse(str(path), events=("start", "end"))
        _, root = next(events)
        if root.tag != "recettes":
            raise CorpusSchemaError(f"{path}: root element is <{root.tag}>, expected <recettes>")
        depth = 1
        for event, elem in events:
            depth += 1 if event == "start" else -1
            if event == "end" and depth == 1:  # a child of the root is complete
                if elem.tag == "recette":
                    recipe = _recipe(elem, path)
                    if recipe.id in seen:
                        raise CorpusSchemaError(f"duplicate recipe id {recipe.id!r}")
                    seen.add(recipe.id)
                    yield recipe
                root.clear()
    except ET.ParseError as exc:
        raise CorpusParseError(f"{path}: {exc}") from exc
    if not seen:
        raise CorpusSchemaError("corpus is empty")


def load_corpus(path: str | Path, label_kind: LabelKind = LabelKind.NONE) -> Corpus:
    """Parse a recipe XML file into a Corpus, document order preserved.

    Raises as ``iter_recipes`` does, and DataError when a recipe lacks
    the label required by ``label_kind``.
    """
    return Corpus(list(iter_recipes(path)), label_kind)


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    """Serialize a Corpus back to the XML schema (round-trip safe)."""
    root = ET.Element("recettes")
    for r in corpus.recipes:
        elem = ET.SubElement(root, "recette", {"id": r.id})
        ET.SubElement(elem, "titre").text = r.title
        ET.SubElement(elem, "preparation").text = r.body
        if r.difficulty is not None:
            ET.SubElement(elem, "niveau").text = r.difficulty.value
        if r.dish_type is not None:
            ET.SubElement(elem, "type").text = r.dish_type.value
        if r.gold_ingredients is not None:
            ing_elem = ET.SubElement(elem, "ingredients")
            for item in r.gold_ingredients:
                ET.SubElement(ing_elem, "ingredient").text = item
    ET.indent(root)
    ET.ElementTree(root).write(str(path), encoding="utf-8", xml_declaration=True)


def stratified_split(corpus: Corpus, dev_fraction: float,
                     seed: int) -> tuple[Corpus, Corpus]:
    """Deterministic per-class train/dev split.

    Per class c the dev side receives round(dev_fraction * |c|) members
    (round half up), clamped to [1, |c| - 1] so neither side loses the
    class entirely. Classes are processed in sorted name order and each
    class's members are shuffled with a single splitmix64 stream seeded
    from ``seed``, so equal inputs give equal splits.
    """
    if corpus.label_kind is LabelKind.NONE:
        raise DataError("stratified_split needs a labeled corpus")
    by_class: dict[str, list[str]] = {}
    for r in corpus.recipes:
        by_class.setdefault(r.label(corpus.label_kind), []).append(r.id)

    rng = SplitMix64(seed)
    dev_ids = set()
    for cls in sorted(by_class):
        ids = by_class[cls]
        if len(ids) < 2:
            raise DataError(f"class {cls!r} has {len(ids)} member(s); need at least 2 to split")
        n_dev = int(dev_fraction * len(ids) + 0.5)
        n_dev = min(max(n_dev, 1), len(ids) - 1)
        pool = list(ids)
        rng.shuffle(pool)
        dev_ids.update(pool[:n_dev])

    train = [r for r in corpus.recipes if r.id not in dev_ids]
    dev = [r for r in corpus.recipes if r.id in dev_ids]
    return (
        Corpus(train, corpus.label_kind),
        Corpus(dev, corpus.label_kind),
    )


__all__ = [
    "Corpus",
    "Difficulty",
    "DishType",
    "LabelKind",
    "Recipe",
    "iter_recipes",
    "load_corpus",
    "save_corpus",
    "stratified_split",
]
