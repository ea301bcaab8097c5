import random
from fractions import Fraction

import pytest

from voljump.lattice import (
    DivisorClass,
    canonical_class,
    pair,
    standard_line,
)

from helpers import exceptional, hyperplane


def linear_combination(scalars, classes):
    """sum s_j c_j by the class arithmetic, with the lengths checked."""
    if len(scalars) != len(classes) or not classes:
        raise ValueError(f"{len(scalars)} scalars for {len(classes)} classes")
    total = scalars[0] * classes[0]
    for s, c in zip(scalars[1:], classes[1:]):
        total = total + s * c
    return total


def test_pair_hyperplane_self():
    assert pair(hyperplane(), hyperplane()) == 1


def test_pair_line_self():
    lbar = standard_line()
    assert pair(lbar, lbar) == -2


def test_pair_canonical_self_and_degree():
    k = canonical_class()
    assert pair(k, k) == -1
    assert pair(k, hyperplane()) == -3


def test_pair_line_canonical_vanishes():
    # expand (H - E1 - E2 - E3).(-3H + sum E_i) term by term:
    # H-part gives -3, each E_i (i = 1..3) gives -(-1)(1) = +1
    expected = -3 + 1 + 1 + 1
    assert expected == 0
    assert pair(standard_line(), canonical_class()) == 0


def test_adjunction_bookkeeping_on_line():
    lbar = standard_line()
    assert pair(lbar, lbar) + pair(lbar, canonical_class()) == -2


def test_canonical_class_coefficients():
    assert canonical_class().coeffs == (Fraction(-3),) + (Fraction(1),) * 10


def test_standard_line_coefficients():
    assert standard_line().coeffs == tuple(
        Fraction(c) for c in (1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0)
    )


def test_disjoint_lines_meet_once():
    # H - E4 - E5 - E6 shares no point with H - E1 - E2 - E3
    other = DivisorClass((1, 0, 0, 0, -1, -1, -1, 0, 0, 0, 0))
    assert pair(standard_line(), other) == 1


def test_linear_combination_cancellation():
    h = hyperplane()
    zero = linear_combination([1, -1], [h, h])
    assert all(c == 0 for c in zero.coeffs)


def test_linear_combination_scaling():
    doubled = linear_combination([2], [standard_line()])
    assert doubled.coeffs == tuple(
        Fraction(c) for c in (2, -2, -2, -2, 0, 0, 0, 0, 0, 0, 0)
    )


def test_linear_combination_builds_anticanonical():
    combo = linear_combination(
        [3] + [-1] * 10, [hyperplane()] + [exceptional(i) for i in range(1, 11)]
    )
    assert combo == -canonical_class()


def test_linear_combination_rejects_mismatch():
    with pytest.raises(ValueError):
        linear_combination([1, 2], [hyperplane()])
    with pytest.raises(ValueError):
        linear_combination([], [])


def test_gram_matrix_signature():
    basis = [hyperplane()] + [exceptional(i) for i in range(1, 11)]
    g = [[pair(a, b) for b in basis] for a in basis]
    diag = [g[i][i] for i in range(11)]
    assert diag.count(1) == 1 and diag.count(-1) == 10
    assert all(g[i][j] == 0 for i in range(11) for j in range(11) if i != j)


def test_pair_symmetry_and_bilinearity_randomized():
    rng = random.Random(98321)

    def rand_class():
        return DivisorClass(
            Fraction(rng.randint(-50, 50), rng.randint(1, 10)) for _ in range(11)
        )

    for _ in range(100):
        a, b, c = rand_class(), rand_class(), rand_class()
        alpha = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        beta = Fraction(rng.randint(-8, 8), rng.randint(1, 5))
        assert pair(a, b) == pair(b, a)
        assert pair(alpha * a + beta * b, c) == alpha * pair(a, c) + beta * pair(b, c)


def test_class_requires_eleven_coefficients():
    with pytest.raises(ValueError):
        DivisorClass([1, 2, 3])


def test_class_rejects_floats():
    with pytest.raises(TypeError):
        DivisorClass([0.5] + [0] * 10)


def test_json_round_trip_uses_exact_fractions():
    k = canonical_class()
    encoded = k.to_json_array()
    assert encoded[0] == "-3/1"
    assert encoded[1:] == ["1/1"] * 10
    assert DivisorClass(Fraction(s) for s in encoded) == k
    third = DivisorClass([Fraction(1, 3)] + [0] * 10)
    assert DivisorClass(Fraction(s) for s in third.to_json_array()) == third


def test_str_rendering():
    assert str(standard_line()) == "H - E1 - E2 - E3"
    assert str(DivisorClass([0] * 11)) == "0"
