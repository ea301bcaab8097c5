"""The integer kernels of root refinement, exact division, gcd, Descartes
isolation, Sturm chains, the adjugate column and the eigenvector against
`Fraction` and interval references kept here."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from voljump.errors import CertificationError, VerificationError
from voljump.intervals import RealEnclosure
from voljump.polynomials import (
    IntPoly,
    _cauchy_index,
    _descartes_bound,
    faddeev_leverrier,
    isolate_real_roots,
    poly_gcd,
    refine_root,
    strip_rational_root,
)
from voljump.spectral import (
    GUARD_DIGITS,
    _certify_simple_root,
    _column_values,
    _dominant_spectrum,
    _eigenvector,
    _quotient_on_grid,
)

from helpers import outward
from voljump.transform import LatticeIsometry, candidate_composites, composite_T

SEED = 20130517


def fraction_value(p, x):
    return sum(Fraction(c) * x**k for k, c in enumerate(p.coeffs))


def fraction_bisection(p, lo, hi, tol):
    """Bisection in `Fraction`s: (lo, hi), or (r, r) for an exact root r."""
    f_lo, f_hi = fraction_value(p, lo), fraction_value(p, hi)
    if f_lo == 0:
        return lo, lo
    if f_hi == 0:
        return hi, hi
    assert (f_lo > 0) != (f_hi > 0)
    while hi - lo > tol:
        mid = (lo + hi) / 2
        f_mid = fraction_value(p, mid)
        if f_mid == 0:
            return mid, mid
        if (f_mid > 0) == (f_lo > 0):
            lo = mid
        else:
            hi = mid
    return lo, hi


def fraction_division(num, den):
    """Quotient and remainder over Q, as `Fraction` lists (remainder trimmed)."""
    rem = [Fraction(c) for c in num.coeffs]
    quotient = [Fraction(0)] * max(len(rem) - den.degree, 1)
    while len(rem) > den.degree and any(rem):
        q = rem[-1] / den.leading
        shift = len(rem) - 1 - den.degree
        quotient[shift] = q
        for j, d in enumerate(den.coeffs):
            rem[shift + j] -= q * d
        rem.pop()
    while rem and rem[-1] == 0:
        rem.pop()
    return quotient, rem


def random_poly(rng, degree, bound=9):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return IntPoly(coeffs + [rng.choice([-3, -2, -1, 1, 2, 3])])


def sign_change_bracket(rng, p):
    """A bracket (lo, hi) with rational endpoints and a sign change of p, for
    p of odd degree: a random one, else one beyond every root."""
    for _ in range(200):
        lo = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        hi = lo + Fraction(rng.randint(1, 60), rng.randint(1, 12))
        f_lo, f_hi = fraction_value(p, lo), fraction_value(p, hi)
        if f_lo != 0 and f_hi != 0 and (f_lo > 0) != (f_hi > 0):
            return lo, hi
    bound = 1 + max(Fraction(abs(c), abs(p.leading)) for c in p.coeffs) + Fraction(1, 3)
    return -bound, bound


# -- root refinement -----------------------------------------------------------


def test_value_matches_fraction_horner():
    rng = random.Random(SEED - 1)
    for _ in range(100):
        p = random_poly(rng, rng.randint(0, 9))
        x = Fraction(rng.randint(-10**4, 10**4), rng.randint(1, 10**4))
        assert p(x) == fraction_value(p, x)
        assert p(x.numerator) == fraction_value(p, Fraction(x.numerator))


def test_refine_root_matches_fraction_bisection():
    rng = random.Random(SEED)
    for _ in range(60):
        p = random_poly(rng, rng.choice([1, 3, 5, 7, 9]))
        lo, hi = sign_change_bracket(rng, p)
        tol = Fraction(1, rng.choice([10, 3**7, 10**12, 2**40 * 7, 10**40]))
        enc = refine_root(p, lo, hi, tol)
        assert (enc.lo, enc.hi) == fraction_bisection(p, lo, hi, tol)
        assert enc.width <= tol


@pytest.mark.parametrize(
    "p, lo, hi, root",
    [
        # the midpoints 1/2, 1/4 of [0, 1] miss, the third is the root 3/8
        (IntPoly([-3, 8]) * IntPoly([1, 0, 1]), Fraction(0), Fraction(1), Fraction(3, 8)),
        # first midpoint of [1/3, 1/2], on the grid of step 1/12
        (IntPoly([5, -12]) * IntPoly([2, 0, 1]), Fraction(1, 3), Fraction(1, 2), Fraction(5, 12)),
        # roots at the endpoints themselves
        (IntPoly([-2, 3]), Fraction(2, 3), Fraction(5, 7), Fraction(2, 3)),
        (IntPoly([-5, 7]), Fraction(2, 3), Fraction(5, 7), Fraction(5, 7)),
    ],
)
def test_refine_root_exact_hits(p, lo, hi, root):
    enc = refine_root(p, lo, hi, Fraction(1, 10**9))
    assert (enc.lo, enc.hi) == (root, root) == fraction_bisection(p, lo, hi, Fraction(1, 10**9))


def test_refine_root_tolerance_met_on_entry():
    p = IntPoly([-2, 0, 1])
    for lo, hi in [(Fraction(4, 3), Fraction(3, 2)), (Fraction(7, 5), Fraction(10, 7))]:
        enc = refine_root(p, lo, hi, hi - lo)
        assert (enc.lo, enc.hi) == (lo, hi)
        enc = refine_root(p, lo, hi, (hi - lo) * 2)
        assert (enc.lo, enc.hi) == (lo, hi)
    # a tolerance just below the width on entry bisects once
    enc = refine_root(p, Fraction(4, 3), Fraction(3, 2), Fraction(1, 7))
    assert (enc.lo, enc.hi) == (Fraction(4, 3), Fraction(17, 12))


def test_refine_root_rejects_bracket_without_sign_change():
    with pytest.raises(CertificationError, match="no sign change"):
        refine_root(IntPoly([-2, 0, 1]), Fraction(2), Fraction(3), Fraction(1, 100))
    with pytest.raises(CertificationError, match="no sign change"):
        refine_root(IntPoly([-2, 0, 1]), Fraction(-3, 2), Fraction(3, 2), Fraction(1, 100))


# -- exact division ------------------------------------------------------------


def _division_cases():
    rng = random.Random(SEED + 1)
    cases = [
        # monic, divides
        (IntPoly([1, 1]) * IntPoly([-1, 0, 1]), IntPoly([-1, 1])),
        # non-monic, integral quotient
        (IntPoly([2, 3]) * IntPoly([1, -4, 5]), IntPoly([2, 3])),
        # divides over Q, quotient (x + 1)/2 not integral
        (IntPoly([1, 2]) * IntPoly([1, 1]), IntPoly([2, 4])),
        # does not divide at all
        (IntPoly([1, 0, 1]), IntPoly([-1, 1])),
        # non-integral at the leading step, then a nonzero remainder
        (IntPoly([1, 1, 1]), IntPoly([0, 2])),
        # degree too small; zero polynomial; constant divisor
        (IntPoly([1, 1]), IntPoly([1, 0, 1])),
        (IntPoly([0]), IntPoly([-1, 1])),
        (IntPoly([3, 6, 9]), IntPoly([3])),
        (IntPoly([3, 6, 8]), IntPoly([-3])),
    ]
    for _ in range(120):
        den = random_poly(rng, rng.randint(0, 5))
        num = den * random_poly(rng, rng.randint(0, 5))
        kind = rng.randrange(3)
        if kind == 1:  # break divisibility
            num = IntPoly((num.coeffs[0] + rng.choice([-1, 1]),) + num.coeffs[1:])
        elif kind == 2:  # scale the divisor: divides over Q, often not over Z
            den = IntPoly(rng.choice([2, 3, -4]) * c for c in den.coeffs)
        cases.append((num, den))
    return cases


@pytest.mark.parametrize("num, den", _division_cases())
def test_exact_division_matches_fraction_division(num, den):
    quotient, rem = fraction_division(num, den)
    assert num.is_multiple_of(den) == (not rem)
    if num.degree < den.degree or rem or any(q.denominator != 1 for q in quotient):
        assert num.divide_exact(den) is None
    else:
        assert num.divide_exact(den) == IntPoly(int(q) for q in quotient)


def test_division_by_zero_polynomial():
    for op in (IntPoly.divide_exact, IntPoly.is_multiple_of):
        with pytest.raises(ZeroDivisionError):
            op(IntPoly([1, 1]), IntPoly([0]))


def test_strip_rational_root_matches_fraction_deflation():
    rng = random.Random(SEED + 2)
    for _ in range(40):
        root = rng.randint(-3, 3)
        k = rng.randint(0, 4)
        rest = random_poly(rng, rng.randint(0, 5))
        if rest.degree >= 0 and fraction_value(rest, Fraction(root)) == 0:
            continue
        p = rest
        for _ in range(k):
            p = p * IntPoly([-root, 1])
        assert strip_rational_root(p, root) == (k, rest)


# -- gcd, Descartes isolation, Sturm chains ------------------------------------


def fraction_trimmed(coeffs):
    coeffs = [Fraction(c) for c in coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def fraction_remainder(num, den):
    """Remainder over Q of trimmed `Fraction` lists, trimmed; den nonzero."""
    num = list(num)
    while len(num) >= len(den):
        q = num[-1] / den[-1]
        shift = len(num) - len(den)
        for j, d in enumerate(den):
            num[shift + j] -= q * d
        num = fraction_trimmed(num[:-1])
    return num


def fraction_gcd(a, b):
    """Euclid over Q, scaled to a primitive integer polynomial with a
    positive leading coefficient."""
    fa, fb = fraction_trimmed(a.coeffs), fraction_trimmed(b.coeffs)
    while fb:
        fa, fb = fb, fraction_remainder(fa, fb)
    if not fa:
        return IntPoly([0])
    ints = [int(c * lcm(*(c.denominator for c in fa))) for c in fa]
    content = gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return IntPoly(c // content for c in ints)


def _gcd_cases():
    rng = random.Random(SEED + 6)
    square = IntPoly([-1, -1, 1]) * IntPoly([2, 0, 3])  # degree 4
    cases = [
        (IntPoly([0]), IntPoly([0])),
        (IntPoly([0]), IntPoly([6, -4])),
        (IntPoly([-4, 6]), IntPoly([0])),
        (IntPoly([6]), IntPoly([4])),
        (IntPoly([5]), IntPoly([1, 2, 3])),
        (IntPoly([6, 4, 2]), IntPoly([9, 6, 3])),  # non-primitive, equal over Q
        (IntPoly([-3, 0, -3]), IntPoly([1, 0, 1])),  # negative leading coefficient
        (square * IntPoly([1, 1]), square * IntPoly([-5, 0, -2])),
        (square * square, square * IntPoly([0, 7])),
    ]
    for _ in range(60):
        common = random_poly(rng, rng.randint(0, 4))
        cases.append(
            (
                common * random_poly(rng, rng.randint(0, 4)) * IntPoly([rng.choice([-6, -1, 2, 4])]),
                common * random_poly(rng, rng.randint(0, 4)),
            )
        )
    return cases


@pytest.mark.parametrize("a, b", _gcd_cases())
def test_poly_gcd_matches_fraction_euclid(a, b):
    expected = fraction_gcd(a, b)
    assert poly_gcd(a, b) == expected == poly_gcd(b, a)


def fraction_taylor_shift(coeffs, a):
    """Coefficients of p(x + a) from the binomial expansion."""
    out = [Fraction(0)] * len(coeffs)
    for k, c in enumerate(coeffs):
        power = [Fraction(1)]  # (x + a)^k
        for _ in range(k):
            power = [x + a * y for x, y in zip([Fraction(0)] + power, power + [Fraction(0)])]
        for j, x in enumerate(power):
            out[j] += c * x
    return out


def sign_variations(values):
    signs = [v > 0 for v in values if v != 0]
    return sum(1 for x, y in zip(signs, signs[1:]) if x != y)


def fraction_descartes_bound(p, lo, hi):
    shifted = fraction_taylor_shift([Fraction(c) for c in p.coeffs], lo)
    scaled = [c * (hi - lo) ** k for k, c in enumerate(shifted)]
    return sign_variations(fraction_taylor_shift(scaled[::-1], Fraction(1)))


def test_descartes_bound_matches_fraction_taylor_shift():
    rng = random.Random(SEED + 7)
    nonzero = 0
    for _ in range(200):
        p = random_poly(rng, rng.randint(1, 9))
        den = rng.randint(1, 64)
        a = rng.randint(-5 * den, 5 * den)
        b = a + rng.randint(1, 6 * den)
        bound = _descartes_bound(p.coeffs, a, b, den)
        assert bound == fraction_descartes_bound(p, Fraction(a, den), Fraction(b, den))
        nonzero += bound > 1
    assert nonzero >= 10


def fraction_isolation(p, lo, hi):
    """Bisection driven by `fraction_descartes_bound`, deflating exact
    midpoint roots over Q."""
    out = []

    def recurse(q, a, b):
        bound = fraction_descartes_bound(q, a, b)
        if bound == 1:
            out.append((a, b))
        if bound <= 1:
            return
        mid = (a + b) / 2
        if fraction_value(q, mid) == 0:
            out.append((mid, mid))
            quotient, rem = fraction_division(q, IntPoly([-mid.numerator, mid.denominator]))
            assert not rem and all(c.denominator == 1 for c in quotient)  # Gauss's lemma
            q = IntPoly(int(c) for c in quotient)
        recurse(q, a, mid)
        recurse(q, mid, b)

    recurse(p, lo, hi)
    return sorted(out)


@pytest.mark.parametrize(
    "p, lo, hi, expected",
    [
        # roots 1/sqrt(2) and 3/4 in (1/2, 1): the second midpoint is 3/4
        (
            IntPoly([-3, 4]) * IntPoly([-1, 0, 2]),
            Fraction(0),
            Fraction(1),
            [(Fraction(1, 2), Fraction(3, 4)), (Fraction(3, 4), Fraction(3, 4))],
        ),
        # the midpoints 5/3, then 7/6, are roots; 3/2 is left in (7/6, 5/3)
        (
            IntPoly([-5, 3]) * IntPoly([-7, 6]) * IntPoly([-3, 2]),
            Fraction(2, 3),
            Fraction(8, 3),
            [
                (Fraction(7, 6), Fraction(7, 6)),
                (Fraction(7, 6), Fraction(5, 3)),
                (Fraction(5, 3), Fraction(5, 3)),
            ],
        ),
    ],
)
def test_isolation_deflates_rational_midpoint_roots(p, lo, hi, expected):
    assert isolate_real_roots(p, lo, hi) == expected == fraction_isolation(p, lo, hi)


def test_isolation_matches_fraction_isolation():
    rng = random.Random(SEED + 8)
    for _ in range(40):
        p = IntPoly([1])
        for _ in range(rng.randint(1, 4)):
            p = p * IntPoly([rng.randint(-9, 9), rng.randint(1, 4)])
        p = p * random_poly(rng, rng.randint(0, 3))
        if poly_gcd(p, p.derivative()).degree > 0:
            continue
        lo, hi = Fraction(rng.randint(-40, 0), 7), Fraction(rng.randint(1, 40), 5)
        if fraction_value(p, lo) == 0 or fraction_value(p, hi) == 0:
            continue
        assert isolate_real_roots(p, lo, hi) == fraction_isolation(p, lo, hi)


def fraction_cauchy_index(p, q):
    """Cauchy index of q/p from the `Fraction` Sturm chain p, q, -rem, ..."""
    chain = [fraction_trimmed(p.coeffs), fraction_trimmed(q.coeffs)]
    while chain[-1]:
        chain.append([-c for c in fraction_remainder(chain[-2], chain[-1])])
    chain.pop()
    at_plus = [c[-1] for c in chain]
    at_minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return sign_variations(at_minus) - sign_variations(at_plus)


def signed_cauchy_index(p, q):
    """The same chain with each remainder scaled by lc(divisor)^steps, a
    factor of either sign."""
    chain = [list(p.coeffs), list(q.coeffs)]
    while any(chain[-1]):
        num, den = list(chain[-2]), chain[-1]
        while len(num) >= len(den):
            top = num.pop()
            shift = len(num) - len(den) + 1
            num = [den[-1] * c for c in num]
            for j, d in enumerate(den[:-1]):
                num[shift + j] -= top * d
            while num and num[-1] == 0:
                num.pop()
        chain.append([-c for c in num])
    chain.pop()
    at_plus = [c[-1] for c in chain]
    at_minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
    return sign_variations(at_minus) - sign_variations(at_plus)


@pytest.mark.parametrize(
    "p, q",
    [
        # divisors with negative leading coefficients and degree gaps, where
        # an odd number of pseudo-division steps flips a sign if lc < 0
        (IntPoly([0, -1, 0, 1]), IntPoly([1, -2])),
        (IntPoly([0, -1, 0, 1]), IntPoly([-1, -2])),
        (IntPoly([6, -11, 6, -1]), IntPoly([5, -3])),
        (IntPoly([4, 0, -5, 0, 1]), IntPoly([1, -2, -2])),
    ],
)
def test_cauchy_index_sign_sensitive_cases(p, q):
    assert _cauchy_index(p, q) == fraction_cauchy_index(p, q) != signed_cauchy_index(p, q)


def test_cauchy_index_matches_fraction_sturm_chain():
    rng = random.Random(SEED + 9)
    for _ in range(150):
        p = random_poly(rng, rng.randint(1, 8))
        q = random_poly(rng, rng.randint(0, p.degree - 1))
        if rng.random() < 0.3:  # a common factor
            common = random_poly(rng, rng.randint(1, 2))
            p, q = p * common, q * common
        assert _cauchy_index(p, q) == fraction_cauchy_index(p, q)


# -- adjugate column -----------------------------------------------------------


def leverrier_reference(m):
    """The full-matrix Faddeev-LeVerrier recurrence M_(k+1) = m M_k + c_k I."""
    rows, n = m.rows, len(m.rows)
    coeffs, column = [1], [[1 if i == 0 else 0] for i in range(n)]
    work = [list(r) for r in rows]  # m M_1
    for k in range(1, n + 1):
        ck = -Fraction(sum(work[i][i] for i in range(n)), k)
        assert ck.denominator == 1
        coeffs.append(int(ck))
        shifted = [[work[i][j] + (ck if i == j else 0) for j in range(n)] for i in range(n)]
        for i in range(n):
            column[i].append(int(shifted[i][0]))
        work = [
            [sum(rows[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
            for i in range(n)
        ]
    return IntPoly(reversed(coeffs)), tuple(IntPoly(reversed(c[:-1])) for c in column)


def test_faddeev_leverrier_matches_full_matrix_recurrence():
    rng = random.Random(SEED + 3)
    matrices = [composite_T(), *candidate_composites().values()]
    matrices += [
        LatticeIsometry([[rng.randint(-3, 3) for _ in range(11)] for _ in range(11)])
        for _ in range(6)
    ]
    for m in matrices:
        assert faddeev_leverrier(m) == leverrier_reference(m)


# -- eigenvector evaluation ----------------------------------------------------


def interval_route(column, lam, tol):
    """a(lambda) / a_0(lambda) by interval Horner sums and interval division."""
    powers = [RealEnclosure.exact(1)]
    for _ in range(max(a.degree for a in column)):
        powers.append(powers[-1] * lam)
    values = [
        sum((c * x for c, x in zip(a.coeffs, powers) if c), RealEnclosure.exact(0))
        for a in column
    ]
    bits = lam.hi.denominator.bit_length() + 64
    return values, [outward(v / values[0], bits) for v in values[1:]]


def column_enclosures(column, lam):
    """`_column_values` as enclosures: numerators over lcm(denominators)^deg."""
    scale = lcm(lam.lo.denominator, lam.hi.denominator) ** max(a.degree for a in column)
    return [
        RealEnclosure(Fraction(lo, scale), Fraction(hi, scale))
        for lo, hi in _column_values(column, lam)
    ]


@pytest.mark.parametrize("digits", [12, 60, 400])
def test_eigenvector_equals_interval_route(digits):
    # every oracle candidate at the oracle's 12 digits, the composite beyond
    matrices = [composite_T()] + (list(candidate_composites().values()) if digits == 12 else [])
    tol = Fraction(1, 10**digits)
    checked = 0
    for m in matrices:
        p, column = faddeev_leverrier(m)
        try:
            lam, s = _dominant_spectrum(p, tol / 10**GUARD_DIGITS)
        except VerificationError:
            continue
        values, quotients = interval_route(column, lam, tol)
        assert column_enclosures(column, lam) == values
        assert list(_eigenvector(m, column, s, lam, tol).coeffs[1:]) == quotients
        checked += 1
    assert checked >= 1


def test_column_values_match_interval_horner_on_random_input():
    rng = random.Random(SEED + 4)
    for _ in range(60):
        column = [random_poly(rng, rng.randint(0, 8)) for _ in range(3)]
        lo = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        lam = RealEnclosure(lo, lo + Fraction(rng.randint(0, 1000), rng.randint(1, 10**9)))
        values, _ = interval_route([IntPoly([1])] + column, lam, Fraction(1))
        assert column_enclosures(column, lam) == values[1:]


def test_quotient_on_grid_matches_interval_division():
    rng = random.Random(SEED + 5)
    edges = [
        (v, w, bits)
        for v in ([0, 0], [-5, 0], [0, 5], [-5, 7], [2, 7], [-7, -2])
        for w in ([1, 3], [-3, -1], [1, 1], [-1, -1])
        for bits in (0, 3)
    ]
    randoms = []
    for _ in range(400):
        v = sorted(rng.randint(-10**6, 10**6) for _ in range(2))
        w = sorted(rng.randint(1, 10**6) for _ in range(2))
        if rng.random() < 0.5:
            w = [-w[1], -w[0]]
        randoms.append((v, w, rng.randint(0, 40)))
    for v, w, bits in edges + randoms:
        expected = outward(RealEnclosure(*v) / RealEnclosure(*w), bits)
        lo, hi = _quotient_on_grid(tuple(v), tuple(w), bits)
        assert (Fraction(lo, 1 << bits), Fraction(hi, 1 << bits)) == (expected.lo, expected.hi)


def test_eigenvector_rejects_nonpositive_enclosure(eigen):
    column = eigen.adjugate_column
    for lam in (RealEnclosure(Fraction(-1), Fraction(3)), RealEnclosure(Fraction(0), Fraction(3))):
        with pytest.raises(CertificationError, match="positive"):
            _column_values(column, lam)
        with pytest.raises(CertificationError):
            _certify_simple_root(eigen.polynomial, lam)


def test_eigenvector_rejects_enclosure_without_sign_change(eigen):
    lam = eigen.dominant_value
    above = RealEnclosure(lam.hi + Fraction(1, 10**6), lam.hi + Fraction(1, 10**5))
    with pytest.raises(CertificationError, match="no sign change"):
        _certify_simple_root(eigen.polynomial, above)
