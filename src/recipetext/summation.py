"""Left-to-right floating-point summation.

The builtin ``sum()`` adds floats with compensated (Neumaier) summation
from Python 3.12 on, so the same inputs give different low-order bits
on 3.10/3.11 and on 3.12+. Every float sum that reaches an artifact
goes through ``ordered_sum`` instead, which adds strictly left to right
and matches ``sum()`` bit for bit on 3.10 and 3.11.
"""

from __future__ import annotations

from typing import Iterable


def ordered_sum(values: Iterable[float]) -> float:
    """0.0 + v1 + v2 + ..., each addition rounded, in iteration order."""
    total = 0.0
    for value in values:
        total += value
    return total


__all__ = ["ordered_sum"]
