import math
import struct

from recipetext.summation import ordered_sum


def test_adds_left_to_right_without_compensation():
    # compensated summation (builtin sum() from Python 3.12 on) gives 2.0
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert ordered_sum([0.1] * 10) == 0.9999999999999999


def test_empty_and_generator_inputs():
    assert ordered_sum([]) == 0.0
    assert math.copysign(1.0, ordered_sum([])) == 1.0
    assert math.copysign(1.0, ordered_sum([-0.0])) == 1.0
    assert ordered_sum(x / 4 for x in range(4)) == 1.5


def _loop_sum(values):
    total = 0.0
    for value in values:
        total += value
    return total


def test_cancelling_sequence_matches_the_explicit_loop_bit_for_bit():
    values = [1e16, 1.0, -1e16, 0.1, 3.3, -3.3, 1e-17, 2.0 ** -60, -0.1] * 7
    values += [x / 7 for x in range(-40, 40)] + [1e308, -1e308, 5e-324]
    expected = _loop_sum(values)
    got = ordered_sum(values)
    assert struct.pack("<d", got) == struct.pack("<d", expected)
    assert got != math.fsum(values)
