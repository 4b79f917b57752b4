"""The line format of every artifact and table the pipeline reads or writes.

UTF-8 text, one row per "\n"-ended line, cells separated by tabs. A
model file opens with a magic line ("#boost\tv1") and keeps its scalars
on "#key\tvalue" header lines; floats are written with 17 significant
digits, which round-trips every double. Each reader states each row
kind's width (``check_widths``); a bad row raises the error class its
reader names (ModelMismatchError for artifacts, DataError or ConfigError
for user tables) with the row's ``file:line``.
"""

from __future__ import annotations

import math
from operator import eq, itemgetter
from pathlib import Path

from .errors import ModelMismatchError


def write_lines(path, lines) -> None:
    """Write each line followed by "\n"."""
    Path(path).write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class Row(list):
    """One line's cells; a malformed cell names the row's file:line."""

    __slots__ = ("source", "lineno")   # source: (path, error class)

    def fail(self, message: str) -> Exception:
        path, error = self.source
        return error(f"{path}:{self.lineno}: {message}")

    def parse(self, index: int, convert):
        """``convert`` applied to cell ``index``; a ValueError names the row."""
        cell = self[index]
        try:
            return convert(cell)
        except ValueError:
            raise self.fail(f"bad cell {index + 1}: {cell!r}") from None

    def int(self, index: int) -> int:
        return self.parse(index, int)

    def float(self, index: int) -> float:
        value = self.parse(index, float)
        if not math.isfinite(value):
            raise self.fail(f"bad cell {index + 1}: {value!r}")
        return value

    def floats(self, start: int) -> list[float]:
        """The cells from ``start`` on as finite floats."""
        cells = self[start:]
        try:
            values = list(map(float, cells))
            if all(map(math.isfinite, values)):
                return values
        except ValueError:
            pass
        return [self.float(i) for i in range(start, start + len(cells))]  # names the bad cell

    def put(self, table: dict, key, value) -> None:
        """``table[key] = value``; a repeated key names the row."""
        if key in table:
            raise self.fail(f"repeated key {key!r}")
        table[key] = value


def read_rows(path, magic: str | None = None, error=ModelMismatchError,
              comments: bool = False) -> list[Row]:
    """The non-blank rows of a file, after its ``magic`` line when one is
    required; ``comments`` also skips lines starting with "#". A file
    that cannot be read raises ``error``."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    if magic is not None:
        if lines[:1] != [magic]:
            raise error(f"{path}:1: expected the line {magic!r}")
        lines[0] = ""  # blank: not a row
    source = (path, error)
    rows = []
    for lineno, line in enumerate(lines, 1):
        if not line.strip() or comments and line.startswith("#"):
            continue
        row = Row(line.split("\t"))
        row.source = source
        row.lineno = lineno
        rows.append(row)
    return rows


def check_widths(rows: list[Row], widths: int | dict) -> list[Row]:
    """``rows``, once each has the width stated for it: ``widths`` when
    an int, else ``widths[row[0]]`` (None: any), where a first cell that
    is not a key is an unknown row kind."""
    fixed = type(widths) is int
    expected = [widths] * len(rows) if fixed else map(widths.get, map(itemgetter(0), rows))
    if not all(map(eq, map(len, rows), expected)):
        for row in rows:  # the row to name; a None width passes
            width = widths if fixed else widths.get(row[0], -1)
            if width == -1:
                raise row.fail(f"unknown row kind {row[0]!r}")
            if width is not None and len(row) != width:
                raise row.fail(f"expected {width} cells, got {len(row)}")
    return rows


class Header(dict):
    """The "#key<TAB>value..." rows of a file by key (without the "#")."""

    def __init__(self, where):
        super().__init__()
        self.where = where

    @classmethod
    def split(cls, rows, where, widths: dict) -> tuple[Header, list[Row]]:
        """The header of the rows whose first cell starts with "#", each
        of a kind and width in ``widths`` (see check_widths), and the
        other rows; ``where`` names the file in errors."""
        header, body = cls(where), []
        for row in rows:
            if row[0].startswith("#"):
                row.put(header, row[0][1:], row)
            else:
                body.append(row)
        check_widths(list(header.values()), widths)
        return header, body

    def __missing__(self, key):
        raise ModelMismatchError(f"{self.where}: no #{key} line")


__all__ = ["Header", "Row", "check_widths", "read_rows", "write_lines"]
