"""Exception hierarchy shared by all modules, and the type check of
config dataclasses.

The CLI maps these onto process exit codes: ConfigError -> 2,
DataError -> 3, ModelMismatchError -> 4.
"""

from dataclasses import fields


class RecipetextError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(RecipetextError):
    """Invalid configuration: bad parameter value, missing file, bad spec."""


class DataError(RecipetextError):
    """Invalid input data: malformed XML, schema violation, bad run file."""


class CorpusParseError(DataError):
    """The XML document could not be parsed at all."""


class CorpusSchemaError(DataError):
    """The XML parsed but violates the corpus schema."""


class ModelMismatchError(RecipetextError):
    """A serialized model does not match the stats/schema it is used with."""


_KINDS = {"bool": (bool, "true or false"), "int": (int, "an integer"),
          "float": (float, "a number"), "str": (str, "a string"),
          "dict": (dict, "a JSON object")}


def is_number(value) -> bool:
    """An int or a float; a bool is neither."""
    return type(value) in (int, float)


def check_types(config) -> None:
    """Raise ConfigError unless every field of the dataclass ``config``
    annotated (as a string) bool, int, float, str or dict, optionally ``| None``,
    holds that type; an int passes as a float, a bool only as a bool."""
    for f in fields(config):
        kind, expected = _KINDS.get(f.type.removesuffix(" | None"), (None, ""))
        if kind is None:
            continue
        value = getattr(config, f.name)
        if value is None and f.type.endswith(" | None"):
            continue
        if not (is_number(value) if kind is float else type(value) is kind):
            raise ConfigError(f"{f.name} must be {expected}, got {value!r}")
