import random
from fractions import Fraction
from math import comb

import mpmath as mp
import pytest

from voljump.errors import CertificationError
from voljump.polynomials import (
    IntPoly,
    _cauchy_index,
    _count_inside_off_circle,
    _deflate,
    cauchy_root_bound,
    char_poly,
    count_roots_outside_unit_circle,
    cyclotomic,
    cyclotomic_factors,
    dominant_root,
    isolate_real_roots,
    squarefree_decomposition,
    squarefree_part,
    strip_rational_root,
    totient,
)
from voljump.transform import LatticeIsometry, composite_T


def poly_from_desc(*desc):
    return IntPoly(reversed(desc))


def x_minus(r):
    return IntPoly([-r, 1])


def poly_power(p, n):
    out = IntPoly([1])
    for _ in range(n):
        out = out * p
    return out


# -- characteristic polynomial ---------------------------------------------------


def test_char_poly_identity_is_binomial():
    p = char_poly(LatticeIsometry.identity())
    # (x - 1)^11 expanded
    expected = IntPoly(comb(11, k) * (-1) ** (11 - k) for k in range(12))
    assert p == expected


def _char_poly_by_interpolation(m):
    """Independent oracle: exact determinants det(kI - m) at 12 integer points,
    then Lagrange interpolation over the rationals."""
    points = list(range(-5, 7))
    values = []
    for k in points:
        shifted = LatticeIsometry(
            tuple((k if i == j else 0) - m.rows[i][j] for j in range(11))
            for i in range(11)
        )
        values.append(shifted.determinant())
    coeffs = [Fraction(0)] * 12
    for i, (xi, yi) in enumerate(zip(points, values)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                new[k] += c * (-xj)
                new[k + 1] += c
            basis = new
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly(int(c) for c in coeffs)


def test_char_poly_matches_interpolation_oracle():
    t = composite_T()
    assert char_poly(t) == _char_poly_by_interpolation(t)


def test_char_poly_of_composite_has_root_one(eigen):
    p = eigen.polynomial
    assert p.degree == 11
    assert p(1) == 0


def test_char_poly_anti_reciprocal(eigen):
    p = eigen.polynomial
    assert tuple(reversed(p.coeffs)) == tuple(-c for c in p.coeffs)


# -- root isolation and the dominant root ----------------------------------------


def test_dominant_root_simple_cases():
    p = x_minus(2) * poly_power(x_minus(1), 10)
    enclosure = dominant_root(p, Fraction(1, 10**20))
    assert enclosure.contains(2)
    assert enclosure.width <= Fraction(1, 10**20)


def test_dominant_root_rejects_all_unit_roots():
    with pytest.raises(CertificationError):
        dominant_root(poly_power(x_minus(1), 11), Fraction(1, 1000))


def test_dominant_root_of_composite_charpoly(eigen):
    lam = dominant_root(eigen.polynomial, Fraction(1, 10**60))
    assert lam.width <= Fraction(1, 10**60)
    assert lam.lo > 1
    # sign-change certificate on the squarefree non-unit factor
    _, factor = strip_rational_root(squarefree_part(eigen.polynomial), 1)
    lo_sign = factor(lam.lo) > 0
    hi_sign = factor(lam.hi) > 0
    assert lo_sign != hi_sign
    # independent approximation route (mpmath polyroots)
    with mp.workdps(80):
        roots = mp.polyroots(
            [mp.mpf(c) for c in reversed(eigen.polynomial.coeffs)],
            maxsteps=200,
            extraprec=200,
        )
        top = max(abs(r) for r in roots)
        assert abs(top - mp.mpf(float(lam.midpoint))) < mp.mpf("1e-12")


def test_isolation_finds_all_roots():
    p = x_minus(2) * x_minus(3) * x_minus(5)
    intervals = isolate_real_roots(p, Fraction(1), Fraction(6))
    assert len(intervals) == 3
    for (lo, hi), root in zip(intervals, (2, 3, 5)):
        assert lo <= root <= hi


def test_cauchy_bound_dominates_roots():
    p = x_minus(2) * x_minus(-7)
    assert cauchy_root_bound(p) > 7


# -- squarefree structure ---------------------------------------------------------


def test_squarefree_decomposition():
    p = poly_power(x_minus(1), 2) * x_minus(2)
    decomp = squarefree_decomposition(p)
    assert sorted((f.coeffs, m) for f, m in decomp) == [
        ((-2, 1), 1),
        ((-1, 1), 2),
    ]


def test_strip_rational_root():
    p = poly_power(x_minus(1), 3) * x_minus(4)
    count, rest = strip_rational_root(p, 1)
    assert count == 3
    assert rest == x_minus(4)


# -- cyclotomic scan ---------------------------------------------------------------


def test_small_cyclotomic_polynomials():
    assert cyclotomic(1) == IntPoly([-1, 1])
    assert cyclotomic(2) == IntPoly([1, 1])
    assert cyclotomic(3) == IntPoly([1, 1, 1])
    assert cyclotomic(6) == IntPoly([1, -1, 1])
    assert cyclotomic(12) == IntPoly([1, 0, -1, 0, 1])


def test_cyclotomic_factors_examples():
    assert cyclotomic_factors(poly_power(x_minus(1), 2)) == [(1, 2)]
    assert cyclotomic_factors(IntPoly([1, 1, 1])) == [(3, 1)]
    mixed = cyclotomic(1) * cyclotomic(4) * cyclotomic(4) * x_minus(3)
    assert cyclotomic_factors(mixed) == [(1, 1), (4, 2)]


def test_cyclotomic_scan_of_composite(eigen):
    assert cyclotomic_factors(eigen.polynomial) == [(1, 1)]


def test_totient_values():
    assert [totient(n) for n in (1, 2, 3, 4, 6, 12, 30)] == [1, 1, 2, 2, 2, 4, 8]


# -- unit-circle counting -----------------------------------------------------------


def test_count_outside_golden_ratio():
    count = count_roots_outside_unit_circle(IntPoly([-1, -1, 1]))  # x^2 - x - 1
    assert (count.outside, count.inside, count.on_circle) == (1, 1, 0)


def test_count_outside_all_unit_roots():
    count = count_roots_outside_unit_circle(poly_power(x_minus(1), 11))
    assert count.outside == 0
    assert count.on_circle == 11


def test_count_outside_mixed_rational_roots():
    count = count_roots_outside_unit_circle(x_minus(2) * x_minus(-1))
    assert (count.outside, count.inside, count.on_circle) == (1, 0, 1)


def test_count_outside_cyclotomic():
    count = count_roots_outside_unit_circle(cyclotomic(5))
    assert (count.outside, count.inside, count.on_circle) == (0, 0, 4)


def test_count_outside_composite_charpoly(eigen):
    count = count_roots_outside_unit_circle(eigen.polynomial)
    assert count.outside == 1
    assert count.inside == 1
    assert count.on_circle == 9


def _layout_by_polyroots(p):
    """Independent route: mpmath root approximations sorted by modulus."""
    tol = mp.mpf("1e-15")
    with mp.workdps(60):
        roots = mp.polyroots(
            [mp.mpf(c) for c in reversed(p.coeffs)], maxsteps=400, extraprec=400
        )
        moduli = [abs(r) for r in roots]
        return (
            sum(1 for m in moduli if m > 1 + tol),
            sum(1 for m in moduli if m < 1 - tol),
            sum(1 for m in moduli if abs(m - 1) <= tol),
        )


def _seeded_products(seed, count):
    """Random factor lists: cyclotomic, palindromic, generic, some repeated."""
    rng = random.Random(seed)
    for _ in range(count):
        factors = []
        for _ in range(rng.randint(1, 3)):
            kind = rng.choice(("cyclotomic", "palindromic", "generic"))
            if kind == "cyclotomic":
                factor = cyclotomic(rng.choice((1, 2, 3, 4, 5, 6, 7, 8, 10, 12)))
            elif kind == "palindromic":
                half = [rng.choice((1, 2))]
                half += [rng.randint(-4, 4) for _ in range(rng.randint(0, 2))]
                factor = IntPoly(half + [rng.randint(-5, 5)] + half[::-1])
            else:
                factor = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 3))] + [1])
            factors.append(factor)
            if rng.random() < 0.2:
                factors.append(factor)
        yield tuple(factors)


LEHMER = poly_from_desc(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
GOLDEN = IntPoly([-1, -1, 1])
Z2_3Z_1 = IntPoly([-1, 3, 1])  # roots 0.30 and -3.30: |a0| < |a2|, no circle root


@pytest.mark.parametrize(
    "factors",
    [
        (Z2_3Z_1,),
        (GOLDEN, cyclotomic(7)),
        (GOLDEN, cyclotomic(5), cyclotomic(1), cyclotomic(2)),
        (GOLDEN, GOLDEN, IntPoly([1, 1])),  # a squared factor
        (Z2_3Z_1, Z2_3Z_1, cyclotomic(3)),
        (IntPoly([1, -3, 1]),),  # palindromic, real roots 2.62 and 0.38
        (IntPoly([1, 1, -5, 1, 1]),),  # palindromic, four real roots off the circle
        (LEHMER, IntPoly([1, -3, 1])),
        (IntPoly([0, 1]), IntPoly([0, 1]), GOLDEN),  # a double root at 0
    ]
    + list(_seeded_products(20231, 40)),
)
def test_count_outside_matches_polyroots(factors):
    product = IntPoly([1])
    for factor in factors:
        product = product * factor
    count = count_roots_outside_unit_circle(product)
    # mpmath converges badly at repeated roots, so it sees one factor at a time
    layouts = [_layout_by_polyroots(f) for f in factors]
    assert (count.outside, count.inside, count.on_circle) == tuple(map(sum, zip(*layouts)))


#: Factors without a root on the unit circle: x^2 - x - 1 (1.62, -0.62),
#: 2x - 1, x + 3, 3x^2 + 2x + 1 (|z| = 0.58), x^2 + x + 3 (|z| = 1.73),
#: x^3 - x - 1 (1.32 and |z| = 0.87) and 5x^2 - 1.
OFF_CIRCLE = (
    GOLDEN,
    IntPoly([-1, 2]),
    IntPoly([3, 1]),
    IntPoly([1, 2, 3]),
    IntPoly([3, 1, 1]),
    IntPoly([-1, -1, 0, 1]),
    IntPoly([-1, 0, 5]),
)


def _off_circle_products(seed, count):
    rng = random.Random(seed)
    for _ in range(count):
        yield tuple(rng.choice(OFF_CIRCLE) for _ in range(rng.randint(1, 4)))


@pytest.mark.parametrize("factors", [(f,) for f in OFF_CIRCLE] + list(_off_circle_products(808, 30)))
def test_count_inside_off_circle_matches_polyroots(factors):
    product = IntPoly([1])
    for factor in factors:
        product = product * factor
    for r in (product, IntPoly(-c for c in product.coeffs)):
        # mpmath converges badly at repeated roots, so it sees one factor at a time
        assert _count_inside_off_circle(r) == sum(_layout_by_polyroots(f)[1] for f in factors)


def _real_root_count(p):
    with mp.workdps(60):
        roots = mp.polyroots([mp.mpf(c) for c in reversed(p.coeffs)], maxsteps=400, extraprec=400)
        return sum(1 for r in roots if abs(mp.im(r)) < mp.mpf("1e-20"))


@pytest.mark.parametrize("seed", range(12))
def test_cauchy_index_of_derivative_counts_real_roots(seed):
    # the Cauchy index of p'/p is the number of distinct real roots of p
    rng = random.Random(7000 + seed)
    p = IntPoly([1])
    for factor in {rng.choice(OFF_CIRCLE + (IntPoly([-2, 0, 1]), IntPoly([2, 0, 1]))) for _ in range(3)}:
        p = p * factor
    assert _cauchy_index(p, p.derivative()) == _real_root_count(p)
    assert _cauchy_index(p, IntPoly(-c for c in p.derivative().coeffs)) == -_real_root_count(p)


def test_deflation_at_non_root_raises():
    # x^2 + 1 has no root at 1; the check survives python -O
    with pytest.raises(CertificationError, match="deflation at a non-root"):
        _deflate([Fraction(1), Fraction(0), Fraction(1)], Fraction(1))
