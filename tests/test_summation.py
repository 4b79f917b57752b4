from recipetext.summation import ordered_sum


def test_adds_left_to_right_without_compensation():
    # compensated summation (builtin sum() from Python 3.12 on) gives 2.0
    assert ordered_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert ordered_sum([0.1] * 10) == 0.9999999999999999


def test_empty_and_generator_inputs():
    assert ordered_sum([]) == 0.0
    assert ordered_sum(x / 4 for x in range(4)) == 1.5
