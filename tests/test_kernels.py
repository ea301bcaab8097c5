"""The integer kernels of root refinement, exact division, gcd, Descartes
isolation, Sturm chains, the adjugate column and the eigenvector against
`Fraction` and interval references kept here."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from voljump import polynomials
from voljump.errors import CertificationError, VerificationError
from voljump.intervals import RealEnclosure
from voljump.polynomials import (
    IntPoly,
    _cauchy_index,
    _descartes_bound,
    cauchy_root_bound,
    common_grid,
    dominant_bracket,
    faddeev_leverrier,
    isolate_real_roots,
    poly_gcd,
    refine_bracket,
    refine_isolated_root,
    strip_rational_root,
)
from voljump.spectral import (
    GUARD_DIGITS,
    _dominant_spectrum,
    _endpoint_powers,
    _quotient_on_grid,
    _spectral_core,
)

from helpers import column_values, outward, refine_root
from voljump.transform import LatticeIsometry, candidate_readings, composite_T

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


def test_refine_root_rejects_a_nonpositive_tolerance(monkeypatch):
    # no bracket is ever narrower than 0: the error comes before any evaluation
    def forbidden(*args):
        raise AssertionError("evaluated before the tolerance check")

    monkeypatch.setattr(polynomials, "_scaled_value", forbidden)
    for refine in (refine_isolated_root, refine_root):
        for tol in (Fraction(0), Fraction(-1, 100)):
            with pytest.raises(ValueError, match="tolerance must be positive"):
                refine(IntPoly([-2, 0, 1]), Fraction(1), Fraction(2), tol)


# -- refinement of an isolating bracket ----------------------------------------


def counting(monkeypatch, name):
    """Wrap `polynomials.<name>` so that its calls are counted."""
    calls = []
    original = getattr(polynomials, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(polynomials, name, counted)
    return calls


def fraction_bracket(bracket):
    """An integer bracket (a, b, den) as the pair a / den, b / den."""
    a, b, den = bracket
    return Fraction(a, den), Fraction(b, den)


def off_unit_factors():
    """s of p = (x - 1)^k s for both distinct char polys of the oracle's readings."""
    polys = {faddeev_leverrier(r.matrix)[0] for r in candidate_readings()}
    assert len(polys) == 2
    return [strip_rational_root(p, 1)[1] for p in sorted(polys, key=lambda p: p.coeffs)]


def test_refine_isolated_root_matches_fraction_bisection():
    # isolating brackets of random squarefree polynomials; rational roots among
    # them are found by the bisection over the cell index
    rng = random.Random(SEED + 7)
    checked = 0
    while checked < 60:
        p = random_poly(rng, rng.randint(1, 9))
        if poly_gcd(p, p.derivative()).degree > 0:
            continue
        bound = Fraction(*cauchy_root_bound(p))
        for lo, hi in isolate_real_roots(p, -bound, bound):
            tol = Fraction(1, rng.choice([10, 3**7, 10**12, 2**40 * 7, 10**40]))
            enc = refine_isolated_root(p, lo, hi, tol)
            assert (enc.lo, enc.hi) == (fraction_bisection(p, lo, hi, tol) if lo < hi else (lo, lo))
            checked += 1
    with pytest.raises(ValueError, match="tolerance must be positive"):
        refine_isolated_root(IntPoly([-2, 0, 1]), Fraction(1), Fraction(2), Fraction(0))


@pytest.mark.parametrize("digits", [12, 36, 84, 424])
def test_refine_isolated_root_of_the_spectrum(monkeypatch, digits):
    # lambda of both conjugacy classes, by Newton and two signs: no index
    # bisection, which alone would take 3.3 evaluations per digit; at 424
    # digits the integer bisection stands in for the Fraction one, which
    # takes 0.7 s per polynomial there
    evaluations = counting(monkeypatch, "_scaled_value")
    tol = Fraction(1, 10**digits)
    for s in off_unit_factors():
        lo, hi = fraction_bracket(dominant_bracket(s))
        del evaluations[:]
        enc = refine_isolated_root(s, lo, hi, tol)
        assert 0 < len(evaluations) < 40
        bisected = refine_root(s, lo, hi, tol)
        assert (enc.lo, enc.hi) == (bisected.lo, bisected.hi)
        if digits < 424:
            assert (enc.lo, enc.hi) == fraction_bisection(s, lo, hi, tol)
        assert enc.lo > 1 and enc.width <= tol


@pytest.mark.parametrize(
    "p, lo, hi, root",
    [
        # the first midpoint of (5, 7) is the root 6 of (x - 4)(x - 6)
        (IntPoly([-4, 1]) * IntPoly([-6, 1]), Fraction(5), Fraction(7), Fraction(6)),
        # the third midpoint of (0, 1)
        (IntPoly([-3, 8]) * IntPoly([1, 0, 1]), Fraction(0), Fraction(1), Fraction(3, 8)),
        # a point of the last grid only: tol = 2^-10 stops after 10 halvings
        (IntPoly([-1, 1024]), Fraction(0), Fraction(1), Fraction(1, 1024)),
    ],
)
def test_refine_isolated_root_falls_back_on_a_grid_root(p, lo, hi, root):
    # no cell has a strict sign change, so the cell index is bisected
    tol = Fraction(1, 1024)
    enc = refine_isolated_root(p, lo, hi, tol)
    bisected = refine_root(p, lo, hi, tol)
    assert (enc.lo, enc.hi) == (bisected.lo, bisected.hi) == (root, root)
    assert (enc.lo, enc.hi) == fraction_bisection(p, lo, hi, tol)


class WrongDerivative(IntPoly):
    """A polynomial whose `derivative` is a given wrong constant, so that the
    Newton steps of `refine_isolated_root` guess a wrong cell."""

    __slots__ = ("wrong",)

    def __init__(self, coeffs, wrong):
        super().__init__(coeffs)
        self.wrong = wrong

    def derivative(self):
        return IntPoly([self.wrong])


@pytest.mark.parametrize("wrong", [1, 1 << 1000], ids=["one", "huge"])
def test_refine_isolated_root_recovers_from_a_newton_miss(monkeypatch, wrong):
    # p' = 1 makes each step p itself; a huge p' makes every step 0 or -1, so
    # the guess stays at the midpoint 3/2, far from sqrt(2)
    p, lo, hi = WrongDerivative([-2, 0, 1], wrong), Fraction(1), Fraction(2)
    tol = Fraction(1, 10**40)
    evaluations = counting(monkeypatch, "_scaled_value")
    enc = refine_isolated_root(p, lo, hi, tol)
    # the guess and its neighbours take 6 signs on the final grid of 2^133
    # cells; the bisection over the cell index takes 133 more there
    assert sum(d == 1 << 133 for _, _, d in evaluations) == 6 + 133
    bisected = refine_root(p, lo, hi, tol)
    assert (enc.lo, enc.hi) == (bisected.lo, bisected.hi) == fraction_bisection(p, lo, hi, tol)


def test_refine_isolated_root_checks_its_bracket():
    p, tol = IntPoly([-2, 0, 1]), Fraction(1, 10**6)
    # a degenerate bracket is an exact root only where p vanishes
    enc = refine_isolated_root(IntPoly([-4, 0, 1]), Fraction(2), Fraction(2), tol)
    assert (enc.lo, enc.hi) == (2, 2)
    with pytest.raises(CertificationError, match="no sign change"):
        refine_isolated_root(p, Fraction(1), Fraction(1), tol)
    with pytest.raises(ValueError, match="inverted bracket"):
        refine_isolated_root(p, Fraction(2), Fraction(1), tol)
    # a root at an end is returned exactly, as bisection returns it
    for lo, hi in [(Fraction(2), Fraction(3)), (Fraction(1), Fraction(2))]:
        q = IntPoly([-4, 0, 1])
        enc, bisected = refine_isolated_root(q, lo, hi, tol), refine_root(q, lo, hi, tol)
        assert (enc.lo, enc.hi) == (bisected.lo, bisected.hi) == (2, 2)
    for lo, hi in [(Fraction(2), Fraction(3)), (Fraction(-3, 2), Fraction(3, 2))]:
        with pytest.raises(CertificationError, match="no sign change"):
            refine_isolated_root(p, lo, hi, tol)


def test_refine_isolated_root_evaluation_count(monkeypatch):
    # bisection takes one exact evaluation per halving: 286 at 84 digits
    s = strip_rational_root(faddeev_leverrier(composite_T())[0], 1)[1]
    lo, hi = fraction_bracket(dominant_bracket(s))
    evaluations = counting(monkeypatch, "_scaled_value")
    refine_isolated_root(s, lo, hi, Fraction(1, 10**84))
    assert 0 < len(evaluations) < 40


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
    # the scaled remainder is the remainder over Q times a positive number
    scaled = list(num.scaled_remainder(den).coeffs)
    ratio = Fraction(scaled[-1]) / rem[-1] if rem else None
    assert scaled == [0] if not rem else ratio > 0 and [ratio * r for r in rem] == scaled
    if num.degree < den.degree or rem or any(q.denominator != 1 for q in quotient):
        assert num.divide_exact(den) is None
    else:
        assert num.divide_exact(den) == IntPoly(int(q) for q in quotient)


def test_division_by_zero_polynomial():
    for op in (IntPoly.divide_exact, IntPoly.scaled_remainder):
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
    midpoint roots over Q; a one-root bracket that ends on a root of p is
    bisected on."""
    out = []

    def recurse(q, a, b):
        bound = fraction_descartes_bound(q, a, b)
        if bound == 0:
            return
        if bound == 1 and fraction_value(p, a) and fraction_value(p, b):
            out.append((a, b))
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
        # roots 1/sqrt(2) and 3/4 in (1/2, 1): the second midpoint is 3/4,
        # and (1/2, 3/4) ends on it, so bisection goes on to (11/16, 23/32)
        (
            IntPoly([-3, 4]) * IntPoly([-1, 0, 2]),
            Fraction(0),
            Fraction(1),
            [(Fraction(11, 16), Fraction(23, 32)), (Fraction(3, 4), Fraction(3, 4))],
        ),
        # the midpoints 5/3, then 7/6, are roots; 3/2 is left in (7/6, 5/3),
        # which ends on both, and then in (17/12, 37/24), which ends on neither
        (
            IntPoly([-5, 3]) * IntPoly([-7, 6]) * IntPoly([-3, 2]),
            Fraction(2, 3),
            Fraction(8, 3),
            [
                (Fraction(7, 6), Fraction(7, 6)),
                (Fraction(17, 12), Fraction(37, 24)),
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
    matrices = [composite_T(), *(r.matrix for r in candidate_readings())]
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
    """`column_values` as enclosures, numerators over 2^S, S = 2 bitlen(D) + 64
    for lambda in [A, B] / D, each with the most either end may lie outside
    the exact enclosure.  A step of the endpoint powers loses under one unit
    of 2^-S and scales what earlier steps lost by A / D or B / D, so the k-th
    power is off by less than sum_(j<k) (B / D)^j units, times |c_k| in p."""
    grid = common_grid(lam.lo, lam.hi)
    scale = 1 << 2 * grid[2].bit_length() + 64
    lost = [sum(lam.hi**j for j in range(k)) for k in range(1 + max(a.degree for a in column))]
    return [
        (
            RealEnclosure(Fraction(lo, scale), Fraction(hi, scale)),
            Fraction(sum(abs(c) * units for c, units in zip(a.coeffs, lost))) / scale,
        )
        for a, (lo, hi) in zip(column, column_values(column, grid))
    ]


def assert_outward_within(column, lam, exact):
    """Each kernel enclosure holds the exact one and exceeds it by at most its slack."""
    for (kernel, slack), value in zip(column_enclosures(column, lam), exact, strict=True):
        assert kernel.lo <= value.lo and value.hi <= kernel.hi
        assert value.lo - kernel.lo <= slack and kernel.hi - value.hi <= slack


@pytest.mark.parametrize("digits", [12, 60, 400])
def test_eigenvector_equals_interval_route(digits):
    # every oracle candidate at the oracle's 12 digits, the composite beyond
    matrices = [composite_T()] + ([r.matrix for r in candidate_readings()] if digits == 12 else [])
    tol = Fraction(1, 10**digits)
    checked = 0
    for m in matrices:
        p, column = faddeev_leverrier(m)
        try:
            s, bracket = _dominant_spectrum(p)
        except VerificationError:
            continue
        lam = RealEnclosure.over(*refine_bracket(s, bracket, (1, 10 ** (digits + GUARD_DIGITS))))
        values, quotients = interval_route(column, lam, tol)
        assert_outward_within(column, lam, values)
        bits = lam.hi.denominator.bit_length() + 64
        vector = _spectral_core(m, 10**digits)[4]
        assert [RealEnclosure.over(lo, hi, 1 << bits) for lo, hi in vector] == quotients
        checked += 1
    assert checked >= 1


def test_column_values_match_interval_horner_on_random_input():
    rng = random.Random(SEED + 4)
    for _ in range(60):
        column = [random_poly(rng, rng.randint(0, 8)) for _ in range(3)]
        lo = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
        lam = RealEnclosure(lo, lo + Fraction(rng.randint(0, 1000), rng.randint(1, 10**9)))
        values, _ = interval_route([IntPoly([1])] + column, lam, Fraction(1))
        assert_outward_within(column, lam, values[1:])


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
    for lam in ((-1, 3, 1), (0, 3, 1), (0, 6, 2)):
        with pytest.raises(CertificationError, match="positive"):
            _endpoint_powers(lam, max(a.degree for a in column))
