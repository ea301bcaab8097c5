import itertools
import random
from fractions import Fraction

import pytest

from voljump.lattice import (
    DivisorClass,
    canonical_class,
    exceptional,
    hyperplane,
    pair,
    standard_line,
)
from voljump.transform import (
    LatticeIsometry,
    apply,
    candidate_composites,
    composite_T,
    cremona_isometry,
    exceptional_shift,
    permutation_isometry,
    verify_isometry,
)


def test_cremona_action_on_hyperplane():
    image = apply(cremona_isometry(1, 2, 3), hyperplane())
    assert image == DivisorClass([2, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0])


def test_cremona_action_on_center_and_spectator():
    m = cremona_isometry(1, 2, 3)
    assert apply(m, exceptional(1)) == DivisorClass([1, 0, -1, -1, 0, 0, 0, 0, 0, 0, 0])
    assert apply(m, exceptional(4)) == exceptional(4)


def test_cremona_is_involution_for_every_triple():
    identity = LatticeIsometry.identity()
    for triple in itertools.combinations(range(1, 11), 3):
        m = cremona_isometry(*triple)
        assert m @ m == identity


@pytest.mark.parametrize("bad", [(1, 1, 2), (0, 2, 3), (8, 9, 11)])
def test_cremona_rejects_bad_centers(bad):
    with pytest.raises(ValueError):
        cremona_isometry(*bad)


def test_permutation_identity():
    assert permutation_isometry(range(11)) == LatticeIsometry.identity()


def test_permutation_rejects_non_bijection_and_moved_hyperplane():
    with pytest.raises(ValueError):
        permutation_isometry([0] * 11)
    with pytest.raises(ValueError):
        permutation_isometry([1, 0] + list(range(2, 11)))


def test_exceptional_shift_moves_slots():
    b = exceptional_shift(3)
    # content of the E1 slot comes from the old E8 slot
    assert apply(b, exceptional(8)) == exceptional(1)
    assert apply(b, exceptional(1)) == exceptional(4)
    assert apply(b, hyperplane()) == hyperplane()
    assert verify_isometry(b).ok


def test_composite_is_isometry_and_fixes_canonical():
    t = composite_T()
    assert verify_isometry(t).ok
    assert apply(t, canonical_class()) == canonical_class()
    assert t.determinant() in (-1, 1)


def test_composite_action_on_line():
    # hand matrix-vector oracle: row * (1, -1, -1, -1, 0, ..., 0)
    t = composite_T()
    expected = DivisorClass(
        [
            row[0] - row[1] - row[2] - row[3]
            for row in t.rows
        ]
    )
    image = apply(t, standard_line())
    assert image == expected
    assert image == DivisorClass([2, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0])
    assert pair(image, image) == -2


def test_apply_is_linear():
    t = composite_T()
    a = hyperplane() + exceptional(1)
    assert apply(t, a) == apply(t, hyperplane()) + apply(t, exceptional(1))


def test_verify_isometry_failure_residual():
    doubled = LatticeIsometry(
        tuple(2 if i == j else 0 for j in range(11)) for i in range(11)
    )
    check = verify_isometry(doubled)
    assert not check.ok
    # residual (2I)^T G (2I) - G = 3G
    for i in range(11):
        for j in range(11):
            expected = 3 * (1 if i == 0 else -1) if i == j else 0
            assert check.residual[i][j] == expected


def test_form_preserved_on_random_classes():
    rng = random.Random(550001)
    t = composite_T()
    for _ in range(100):
        a = DivisorClass(
            Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(11)
        )
        b = DivisorClass(
            Fraction(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(11)
        )
        assert pair(apply(t, a), apply(t, b)) == pair(a, b)


def test_candidates_are_isometries_fixing_canonical():
    candidates = candidate_composites()
    assert len(candidates) == 14  # 16 readings, two coincidences
    assert composite_T() in candidates.values()
    for matrix in candidates.values():
        assert verify_isometry(matrix).ok
        assert apply(matrix, canonical_class()) == canonical_class()
        assert matrix.determinant() in (-1, 1)


def test_power_matches_repeated_products():
    t = composite_T()
    acc = LatticeIsometry.identity()
    for n in range(9):
        assert t.power(n) == acc
        acc = acc @ t
    with pytest.raises(ValueError):
        t.power(-1)
