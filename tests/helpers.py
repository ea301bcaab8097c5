"""References shared by several test modules."""

import itertools
import json
import sys
from fractions import Fraction
from importlib import resources
from math import isqrt, lcm

from voljump.errors import CertificationError
from voljump.intervals import RealEnclosure
from voljump.lattice import DivisorClass
from voljump.nefcheck import CandidateCurve, _feasible
from voljump.polynomials import IntPoly, _prime_factors, _scaled_value
from voljump.reference import WEIGHT_ORDER
from voljump.spectral import _enclose, _endpoint_powers
from voljump.transform import LatticeIsometry


#: The E1 coordinate negated: an isometry of the form that moves K.
NEGATE_E1 = LatticeIsometry([[-1 if i == j == 1 else int(i == j) for j in range(11)] for i in range(11)])


def load_schema() -> dict:
    """The packaged JSON schema of the report."""
    return json.loads(resources.files("voljump.schemas").joinpath("report-v1.json").read_text())


def clear_run_caches() -> None:
    """Empty every `functools` cache of the loaded voljump modules, as a fresh
    process starts without them."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "voljump":
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


def hyperplane() -> DivisorClass:
    """The class H."""
    return DivisorClass([1] + [0] * 10)


def exceptional(i: int) -> DivisorClass:
    """The exceptional class E_i, 1-based index."""
    if not 1 <= i <= 10:
        raise ValueError(f"exceptional index must be in 1..10, got {i}")
    return DivisorClass([0] * i + [1] + [0] * (10 - i))


def h_coefficient(c: DivisorClass) -> Fraction:
    """Coefficient of H (the degree of the image curve in P^2)."""
    return c.coeffs[0]


def is_feasible(c: CandidateCurve) -> bool:
    """Adjunction and canonical-degree constraints on the curve class c."""
    return _feasible(c.degree, sum(c.mults), sum(a * a for a in c.mults))


def outward(enc: RealEnclosure, bits: int) -> RealEnclosure:
    """Widen the endpoints of enc outward onto the dyadic grid of step
    2**-bits; the result contains enc."""
    scale = 1 << bits
    lo = Fraction(enc.lo.numerator * scale // enc.lo.denominator, scale)
    hi = Fraction(-((-enc.hi.numerator * scale) // enc.hi.denominator), scale)
    return RealEnclosure(lo, hi)


def column_values(polys, lam: tuple[int, int, int]) -> list[tuple[int, int]]:
    """Enclosures [lo, hi] of each p(lambda), numerators over the 2^S of the
    endpoint powers (`_endpoint_powers`), as the spectral core's column."""
    powers = _endpoint_powers(lam, max(p.degree for p in polys))
    return [_enclose(p, powers) for p in polys]


# -- per-candidate reference for the nef enumeration ----------------------------------


def margin_numerator(c: CandidateCurve, d_value, n_values) -> tuple[int, int]:
    """Enclosure of d D(lambda) - sum a_i N_i(lambda) from the enclosures of
    D(lambda) and the N_i(lambda) over one denominator: each a_i picks the
    endpoint that bounds -a_i N_i(lambda) from below or above."""
    lo, hi = c.degree * d_value[0], c.degree * d_value[1]
    for a, (n_lo, n_hi) in zip(c.mults, n_values):
        if a > 0:
            lo -= a * n_hi
            hi -= a * n_lo
        elif a < 0:
            lo -= a * n_lo
            hi -= a * n_hi
    return lo, hi


def weight_sorted(c: CandidateCurve) -> tuple[int, ...]:
    """Multiplicities read along the weight order (descending t_i)."""
    return tuple(c.mults[i - 1] for i in WEIGHT_ORDER)


def is_canonical(c: CandidateCurve) -> bool:
    w = weight_sorted(c)
    return all(x >= y for x, y in zip(w, w[1:]))


def bump_minimum_weight(c: CandidateCurve) -> CandidateCurve:
    """Increment a_10, the minimum-weight coordinate (order not re-imposed)."""
    return CandidateCurve(c.degree, c.mults[:9] + (c.mults[9] + 1,))


def canonical_candidates(d: int) -> list[CandidateCurve]:
    """One candidate object per weight-sorted feasible pattern, in descending
    order of the pattern."""
    sq_budget, sum_budget = d * d + 2, 3 * d
    out = []
    pattern = [0] * 10

    def rec(pos, prev, total, square_total):
        if pos == 10:
            mults = [0] * 10
            for value, index in zip(pattern, WEIGHT_ORDER):
                mults[index - 1] = value
            out.append(CandidateCurve(d, mults))
            return
        top = min(prev, sum_budget - total, isqrt(sq_budget - square_total))
        for v in range(top, -1, -1):
            pattern[pos] = v
            rec(pos + 1, v, total + v, square_total + v * v)
        pattern[pos] = 0

    rec(0, min(sum_budget, isqrt(sq_budget)), 0, 0)
    return out


def degree_two_candidates() -> list[CandidateCurve]:
    return [
        CandidateCurve(2, tuple(1 if k in subset else 0 for k in range(1, 11)))
        for subset in itertools.combinations(range(1, 11), 5)
    ]


def cyclotomic_by_division(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial as x^n - 1 divided exactly by every
    Phi_d with d a proper divisor of n: the reference for the Möbius
    product."""
    num = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num = num.divide_exact(cyclotomic_by_division(d))
    return num


def totient(n: int) -> int:
    """Euler's phi(n) by trial division: the reference for the sieve."""
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


# -- bisection reference for root refinement ------------------------------------


def refine_root(
    p: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction
) -> RealEnclosure:
    """Shrink a sign-change bracket around a root to width <= tol by bisection.

    The bracket lives on a common-denominator grid, lo = a/D and hi = b/D,
    and each midpoint is (a + b)/2D, so every sign comes from the integer
    `_scaled_value` and the endpoints are the same rationals as a bisection
    in `Fraction`s would give.  One evaluation per halving; see
    `refine_isolated_root` for a bracket that isolates one root.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if p(lo) == 0:
        return RealEnclosure.exact(lo)
    if p(hi) == 0:
        return RealEnclosure.exact(hi)
    coeffs = p.coeffs
    den = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (den // lo.denominator)
    b = hi.numerator * (den // hi.denominator)
    lo_positive = _scaled_value(coeffs, a, den) > 0
    if lo_positive == (_scaled_value(coeffs, b, den) > 0):
        raise CertificationError(f"no sign change on [{lo}, {hi}]")
    while (b - a) * tol.denominator > tol.numerator * den:
        mid, den = a + b, 2 * den
        value = _scaled_value(coeffs, mid, den)
        if value == 0:
            return RealEnclosure.exact(Fraction(mid, den))
        if (value > 0) == lo_positive:
            a, b = mid, 2 * b
        else:
            a, b = 2 * a, mid
    return RealEnclosure(Fraction(a, den), Fraction(b, den))
