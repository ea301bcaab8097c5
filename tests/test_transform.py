import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from voljump.lattice import (
    DivisorClass,
    canonical_class,
    pair,
    standard_line,
)
from voljump.polynomials import faddeev_leverrier, split_cyclotomic_factors, strip_rational_root
from voljump.transform import (
    LatticeIsometry,
    apply,
    candidate_readings,
    composite_T,
    cremona_isometry,
    exceptional_shift,
    permutation_isometry,
    verify_isometry,
)

from helpers import exceptional, hyperplane


def with_entry(entry):
    rows = [[0] * 11 for _ in range(11)]
    rows[3][4] = entry
    return rows


@pytest.mark.parametrize(
    "rows", [[[0.5] * 11] * 11, with_entry(1.0), with_entry(Fraction(1, 2)), with_entry(Fraction(1))]
)
def test_isometry_rejects_non_integer_entries(rows):
    # int() would turn the all-0.5 matrix into the zero matrix
    with pytest.raises(TypeError):
        LatticeIsometry(rows)


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
    readings = candidate_readings()
    names = [n for r in readings for n in r.name.split(" = ")]
    assert len(names) == len(set(names)) == 16
    candidates = [r.matrix for r in readings]
    assert len(candidates) == len(set(candidates)) == 14  # two coincidences
    assert composite_T() in candidates
    for matrix in candidates:
        assert verify_isometry(matrix).ok
        assert apply(matrix, canonical_class()) == canonical_class()
        assert matrix.determinant() in (-1, 1)


def test_an_isometry_is_unimodular_and_anti_reciprocal_iff_det_is_one():
    """M^T G M = G with det G = 1 forces det M = +-1; in odd rank 11 the
    characteristic polynomial p of such an M is anti-reciprocal iff det M = 1,
    and then p(1) = 0, and reciprocal iff det M = -1; and the cyclotomic scan
    lists n = 1 iff (x - 1) divides p.  So the run's isometry, anti-reciprocal
    and cyclotomic-scan lines imply det M = 1 and p(1) = 0."""
    rng = random.Random(35)
    dets = set()
    for _ in range(200):
        m = LatticeIsometry.identity()
        for _ in range(rng.randint(1, 4)):
            images = [0] + rng.sample(range(1, 11), 10)
            m = m @ cremona_isometry(*sorted(rng.sample(range(1, 11), 3)))
            m = m @ rng.choice((exceptional_shift(rng.randint(1, 9)), permutation_isometry(images)))
        assert verify_isometry(m).ok
        det = m.determinant()
        assert det in (-1, 1)
        dets.add(det)
        p, _ = faddeev_leverrier(m)
        anti = p.reversed().coeffs == tuple(-c for c in p.coeffs)
        assert anti == (det == 1)
        assert (p.reversed() == p) == (det == -1)
        if anti:
            assert p(1) == 0
        k, s = strip_rational_root(p, 1)
        assert ((1, k) in split_cyclotomic_factors(k, s)) == (k >= 1)
    assert dets == {-1, 1}


def test_product_composes_the_actions():
    rng = random.Random(5)
    a, b = cremona_isometry(1, 2, 3), exceptional_shift(3)
    rows = [[rng.randint(-3, 3) for _ in range(11)] for _ in range(11)]
    for m, n in ((a, b), (b, a), (LatticeIsometry(rows), a)):
        for _ in range(5):
            c = DivisorClass(rng.randint(-5, 5) for _ in range(11))
            assert apply(m @ n, c) == apply(m, apply(n, c))


def test_power_matches_repeated_products():
    t = composite_T()
    acc = LatticeIsometry.identity()
    for n in range(9):
        assert t.power(n) == acc
        acc = acc @ t
    with pytest.raises(ValueError):
        t.power(-1)


@pytest.mark.parametrize("seed", [11, 12, 13])
def test_product_equals_the_triple_sum(seed):
    # random entries with a unit row, a -1 row, a row with one non-unit entry
    # and an all-zero row on either side; the rows of a product of tuples
    # are tuples whichever way they start
    rng = random.Random(seed)

    def matrix():
        entries = (0, 0, 0, 1, -1, rng.randint(-9, 9))
        rows = [[rng.choice(entries) for _ in range(11)] for _ in range(11)]
        special = rng.sample(range(11), 4)
        rows[special[0]] = [0] * 11
        rows[special[0]][rng.randrange(11)] = 1
        rows[special[1]] = [0] * 11
        rows[special[1]][rng.randrange(11)] = -1
        rows[special[2]] = [0] * 11
        rows[special[2]][rng.randrange(11)] = rng.choice((2, -3, 7))
        rows[special[3]] = [0] * 11
        return LatticeIsometry(rows)

    for _ in range(5):
        a, b = matrix(), matrix()
        expected = tuple(
            tuple(sum(a.rows[i][k] * b.rows[k][j] for k in range(11)) for j in range(11))
            for i in range(11)
        )
        product = a @ b
        assert product.rows == expected
        assert all(type(row) is tuple for row in product.rows)
    assert (a @ LatticeIsometry.identity()).rows == a.rows
    assert (LatticeIsometry.identity() @ a).rows == a.rows


def test_the_readings_are_pinned():
    # SHA-256 of the composite's rows and of each reading's name, matrix and
    # representative matrix, as computed by summing into zero rows
    matrices = [composite_T().rows] + [
        (r.name, r.matrix.rows, r.base.rows) for r in candidate_readings()
    ]
    digest = hashlib.sha256(repr(matrices).encode()).hexdigest()
    assert digest == "a6a31f6fd1ab76f7a7508d6d6e6abf4e42c001ca81ecc7327821a60a3e1d5d18"
