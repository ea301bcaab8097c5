"""Integer polynomials and certified root data.

Provides the exact characteristic polynomial of an integer matrix together
with the first column of the adjugate of xI - m, real-root isolation and
refinement with rational endpoints, a cyclotomic divisibility scan, and a
certified count of roots outside the unit circle.

Every kernel runs on Python integers; a `Fraction` appears only as an
interval endpoint, a returned enclosure or a returned value
(`IntPoly.__call__`, `cauchy_root_bound`).  The characteristic polynomial
comes from integer power traces; gcds from a primitive pseudo-remainder
sequence; Descartes isolation works on den^n p(y/den) over a
common-denominator grid, and refinement bisects on that grid with signs from
a homogeneous integer Horner sum.  Exact division, divisibility (a
pseudo-remainder) and deflation by a rational root (by D x - N, Gauss's
lemma) stay integral.

The unit-circle count is exact.  Per squarefree factor, after the roots at
0 and +-1 are divided out, the mirror part gcd(f, reverse(f)) holds every
root on the circle; writing it as z^m q(z + 1/z), its circle roots are the
real roots of q in (-2, 2), counted by Descartes isolation.  The rest has no
root on the circle and is counted inside the disk by a Cayley transform to
the left half-plane and a Sturm chain for the Cauchy index (Routh-Hurwitz)
whose pseudo-remainders are scaled by positive factors only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from math import lcm
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import CertificationError, PrecisionBudgetError
from .intervals import RealEnclosure

if TYPE_CHECKING:  # pragma: no cover
    from .transform import LatticeIsometry


def _require(holds: bool, message: str) -> None:
    """A step every certificate below rests on; unlike `assert`, it is not
    stripped by `python -O`."""
    if not holds:
        raise CertificationError(message)


class IntPoly:
    """Univariate polynomial with exact integer coefficients, ascending order.

    Value type compared and hashed by its coefficients (a cache key in the
    spectral pipeline).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        values = [int(c) for c in coeffs]
        while len(values) > 1 and values[-1] == 0:
            values.pop()
        self.coeffs: tuple[int, ...] = tuple(values) if values else (0,)

    def __eq__(self, other):
        return self.coeffs == other.coeffs if isinstance(other, IntPoly) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs})"

    @property
    def degree(self) -> int:
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x: int | Fraction) -> Fraction:
        d = x.denominator
        return Fraction(_scaled_value(self.coeffs, x.numerator, d), d ** (len(self.coeffs) - 1))

    def derivative(self) -> "IntPoly":
        if self.degree < 1:
            return IntPoly([0])
        return IntPoly(k * c for k, c in enumerate(self.coeffs) if k > 0)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(out)

    def reversed(self) -> "IntPoly":
        """x^deg * p(1/x): coefficient sequence reversed."""
        return IntPoly(reversed(self.coeffs))

    def primitive(self) -> "IntPoly":
        """Divide out the content; normalize the leading coefficient positive."""
        g = int_gcd(*self.coeffs)
        if g == 0:
            return self
        sign = -1 if self.leading < 0 else 1
        return IntPoly(sign * c // g for c in self.coeffs)

    def divide_exact(self, divisor: "IntPoly") -> "IntPoly | None":
        """Exact quotient over the integers, or None if it does not divide.

        Integer long division; it stops at the first quotient coefficient the
        leading coefficient of the divisor does not divide, which no integer
        quotient could have.
        """
        if divisor.degree < 0:
            raise ZeroDivisionError("division by zero polynomial")
        n = divisor.degree
        if self.degree < n:
            return None
        rem = list(self.coeffs)
        out = [0] * (self.degree - n + 1)
        for k in range(self.degree - n, -1, -1):
            q, r = divmod(rem[k + n], divisor.leading)
            if r:
                return None
            out[k] = q
            for j, d in enumerate(divisor.coeffs):
                rem[k + j] -= q * d
        if any(rem):
            return None
        return IntPoly(out)

    def is_multiple_of(self, divisor: "IntPoly") -> bool:
        """Whether the nonzero divisor divides self over Q (it divides 0)."""
        if divisor.degree < 0:
            raise ZeroDivisionError("division by zero polynomial")
        return not _pseudo_remainder(self.coeffs, divisor.coeffs)

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mag = abs(c)
            if k == 0:
                body = str(mag)
            elif k == 1:
                body = "x" if mag == 1 else f"{mag}*x"
            else:
                body = f"x^{k}" if mag == 1 else f"{mag}*x^{k}"
            terms.append(("- " if c < 0 else "+ " if terms else "") + body)
        return " ".join(terms) if terms else "0"


def faddeev_leverrier(m: "LatticeIsometry") -> tuple[IntPoly, tuple[IntPoly, ...]]:
    """det(xI - m) and column 0 of adj(xI - m), on integers only.

    The coefficients of det(xI - m) = sum c_k x^(n-k) come from the power
    traces p_k = tr(m^k) by Newton's identities,
    k c_k = -(p_k + c_1 p_(k-1) + ... + c_(k-1) p_1); every division by k is
    exact for an integer matrix (checked).  The powers m^1..m^h with
    h = ceil(n/2) give every trace, tr(m^(h+j)) as a row-by-column sum of m^h
    against m^j.  The Faddeev-LeVerrier recurrence M_1 = I,
    M_(k+1) = m M_k + c_k I, with adj(xI - m) = sum M_k x^(n-k), is applied
    to e_0 only.  Both multiply by m over its nonzero entries only: row i of
    m m^k is the sum of m_ij times row j of m^k.
    """
    rows = m.rows
    n = len(rows)
    sparse = [[(j, c) for j, c in enumerate(r) if c] for r in rows]
    powers = [rows]  # powers[i] = m^(i+1)
    while 2 * len(powers) < n:
        power = powers[-1]
        product = []
        for entries in sparse:
            row = [0] * n
            for j, c in entries:
                row = [x + c * y for x, y in zip(row, power[j])]
            product.append(row)
        powers.append(product)
    traces = [sum(power[a][a] for a in range(n)) for power in powers]
    top = powers[-1]  # tr(m^(h+j)) pairs the rows of m^h with the columns of m^j
    for power in powers[: n - len(powers)]:
        traces.append(sum(sum(map(mul, r, c)) for r, c in zip(top, zip(*power))))
    coeffs_desc = [1]
    for k in range(1, n + 1):
        total = sum(map(mul, coeffs_desc, reversed(traces[:k])))
        _require(total % k == 0, "Newton-identity divisibility violated")
        coeffs_desc.append(-total // k)
    vector = [1] + [0] * (n - 1)  # M_1 e_0
    column_desc = [[v] for v in vector]
    for k in range(1, n):
        vector = [sum(c * vector[j] for j, c in entries) for entries in sparse]
        vector[0] += coeffs_desc[k]
        for entries, v in zip(column_desc, vector):
            entries.append(v)
    return IntPoly(reversed(coeffs_desc)), tuple(IntPoly(reversed(c)) for c in column_desc)


def char_poly(m: "LatticeIsometry") -> IntPoly:
    """Exact characteristic polynomial det(xI - m)."""
    return faddeev_leverrier(m)[0]


def combine(weights: Sequence[int], polys: Sequence[IntPoly]) -> IntPoly:
    """The integer combination sum w_j p_j."""
    out = [0] * max(len(p.coeffs) for p in polys)
    for w, p in zip(weights, polys):
        if w:
            for k, c in enumerate(p.coeffs):
                out[k] += w * c
    return IntPoly(out)


def cauchy_root_bound(p: IntPoly) -> Fraction:
    """1 + max |a_i / a_n|: every complex root has modulus strictly below it."""
    if p.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.leading)
    return 1 + max(Fraction(abs(c), lead) for c in p.coeffs[:-1])


# -- integer kernels -----------------------------------------------------------


def _scaled_value(coeffs: Sequence[int], n: int, d: int) -> int:
    """d^deg p(n/d) = sum c_i n^i d^(deg-i), by a homogeneous Horner scheme.

    For d > 0 it has the sign of p(n/d).
    """
    acc = 0
    scale = 1
    for c in reversed(coeffs):
        acc = acc * n + c * scale
        scale *= d
    return acc


def _synthetic_division(coeffs: Sequence[int], root: int) -> tuple[list[int], int]:
    """Quotient and remainder p(root) of p by (x - root)."""
    desc = list(reversed(coeffs))
    out = [desc[0]]
    for c in desc[1:]:
        out.append(c + root * out[-1])
    rem = out.pop()
    return list(reversed(out)), rem


def _pseudo_remainder(num: Sequence[int], den: Sequence[int]) -> list[int]:
    """A positive multiple of the remainder of num by den over Q, with zero
    top coefficients dropped ([] for 0); den has a nonzero top coefficient.

    Each step scales the rest by |lc(den)| before cancelling its top term, so
    the result keeps the sign pattern of the true remainder.
    """
    lead, n = den[-1], len(den) - 1
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    rest = list(num)
    while rest and rest[-1] == 0:
        rest.pop()
    while len(rest) > n:
        top = sign * rest.pop()
        shift = len(rest) - n
        rest = [scale * c for c in rest]
        for j, d in enumerate(den[:-1]):
            rest[shift + j] -= top * d
        while rest and rest[-1] == 0:
            rest.pop()
    return rest


def _deflate(coeffs: Sequence[int], root: Fraction) -> tuple[int, ...]:
    """p / (D x - N) for the root N/D of p, integral by Gauss's lemma; the
    division must be exact."""
    quotient = IntPoly(coeffs).divide_exact(IntPoly([-root.numerator, root.denominator]))
    _require(quotient is not None, "deflation at a non-root")
    return quotient.coeffs


def _taylor_shift(coeffs: Sequence[int], a: int) -> list[int]:
    """Coefficients of p(x + a), by repeated synthetic division."""
    desc = list(reversed(coeffs))
    out: list[int] = []
    while desc:
        q = [desc[0]]
        for c in desc[1:]:
            q.append(c + a * q[-1])
        out.append(q.pop())
        desc = q
    return out


def _sign_variations(coeffs: Sequence[int]) -> int:
    count = 0
    prev = 0
    for c in coeffs:
        if c == 0:
            continue
        s = 1 if c > 0 else -1
        if prev and s != prev:
            count += 1
        prev = s
    return count


def _descartes_bound(coeffs: Sequence[int], a: int, b: int, den: int) -> int:
    """Upper bound (equal mod 2) on the number of roots of p in the open
    (a/den, b/den), for den > 0 and a < b.

    den^n p((a + (b - a) z) / den), a positive multiple of p with the bracket
    mapped onto (0, 1), has integer coefficients: homogenize, shift by a,
    scale by the width.  Then z -> 1/(1 + z) maps (0, 1) onto (0, inf).
    """
    n = len(coeffs) - 1
    homogeneous = [c * den ** (n - k) for k, c in enumerate(coeffs)]
    width = b - a
    scaled = [c * width**k for k, c in enumerate(_taylor_shift(homogeneous, a))]
    return _sign_variations(_taylor_shift(scaled[::-1], 1))


def isolate_real_roots(
    p: IntPoly, lo: Fraction, hi: Fraction, max_depth: int = 80
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the roots of squarefree p in (lo, hi).

    Returns open intervals (a, b) with exactly one root each; exact rational
    roots appear as degenerate pairs (r, r).  Requires p(lo) != 0 != p(hi).
    Bisection keeps the brackets on a common-denominator grid, a/den and
    b/den, with integer numerators.
    """
    if p(lo) == 0 or p(hi) == 0:
        raise ValueError("isolation endpoints must not be roots")
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(cs: Sequence[int], a: int, b: int, den: int, depth: int) -> None:
        bound = _descartes_bound(cs, a, b, den)
        if bound == 0:
            return
        if bound == 1:
            out.append((Fraction(a, den), Fraction(b, den)))
            return
        if depth <= 0:
            raise PrecisionBudgetError(
                f"root isolation did not terminate on ({Fraction(a, den)}, {Fraction(b, den)})"
            )
        mid, den = a + b, 2 * den
        a, b = 2 * a, 2 * b
        if _scaled_value(cs, mid, den) == 0:
            root = Fraction(mid, den)
            cs = _deflate(cs, root)
            out.append((root, root))
        recurse(cs, a, mid, den, depth - 1)
        recurse(cs, mid, b, den, depth - 1)

    den = lcm(lo.denominator, hi.denominator)
    recurse(
        p.coeffs, lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator),
        den, max_depth,
    )
    return sorted(out)


def refine_root(
    p: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction
) -> RealEnclosure:
    """Shrink a sign-change bracket around a root to width <= tol by bisection.

    The bracket lives on a common-denominator grid, lo = a/D and hi = b/D,
    and each midpoint is (a + b)/2D, so every sign comes from the integer
    `_scaled_value` and the endpoints are the same rationals as a bisection
    in `Fraction`s would give.
    """
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


# -- gcd / squarefree structure ------------------------------------------------


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with a positive leading coefficient, by a primitive
    pseudo-remainder sequence (Collins; Brown-Traub): integers throughout."""
    a, b = a.primitive(), b.primitive()
    while b.degree >= 0:
        a, b = b, IntPoly(_pseudo_remainder(a.coeffs, b.coeffs)).primitive()
    return a


def squarefree_decomposition(p: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun decomposition p ~ prod f_i^i with the f_i squarefree and coprime.

    The overall integer content and sign are dropped (irrelevant for roots).
    """
    if p.degree < 1:
        return []
    work = p.primitive()
    a = poly_gcd(work, work.derivative())
    b = work.divide_exact(a)
    _require(b is not None, "gcd(p, p') does not divide p exactly")
    if a.degree == 0:
        return [(b, 1)]
    c = work.derivative().divide_exact(a)
    _require(c is not None, "gcd(p, p') does not divide p' exactly")
    d = combine((1, -1), (c, b.derivative()))
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while b.degree > 0:
        f = poly_gcd(b, d)
        if f.degree > 0:
            out.append((f, i))
            b = b.divide_exact(f)
            _require(b is not None, "squarefree factor does not divide exactly")
        if b.degree == 0:
            break
        cq = d.divide_exact(f) if f.degree > 0 else d
        _require(cq is not None, "squarefree factor does not divide exactly")
        d = combine((1, -1), (cq, b.derivative()))
        i += 1
    return out


def squarefree_part(p: IntPoly) -> IntPoly:
    out = IntPoly([1])
    for factor, _ in squarefree_decomposition(p):
        out = out * factor
    return out


def strip_rational_root(p: IntPoly, root: int) -> tuple[int, IntPoly]:
    """Divide out (x - root) as often as it divides exactly; root integer.

    Integer synthetic division: its remainder is p(root), so one pass both
    tests and deflates.
    """
    count = 0
    coeffs = list(p.coeffs)
    while len(coeffs) > 1:
        quotient, rem = _synthetic_division(coeffs, root)
        if rem:
            break
        coeffs = quotient
        count += 1
    return count, IntPoly(coeffs)


def dominant_root(p: IntPoly, tol: Fraction) -> RealEnclosure:
    """Certified enclosure of the largest real root of p, which must exceed 1.

    Isolation runs on the squarefree part (so the bracketing sign change is
    guaranteed even at roots of even multiplicity in p); the enclosure is
    valid for p itself since the roots coincide.  Fails loudly when no root
    greater than 1 exists.
    """
    if p.degree < 1:
        raise CertificationError("dominant root of a constant polynomial")
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    reduced = squarefree_part(p)
    # roots exactly at 1 are not "greater than 1"; remove before isolating
    _, reduced = strip_rational_root(reduced, 1)
    if reduced.degree < 1:
        raise CertificationError("no real root greater than 1")
    bound = cauchy_root_bound(reduced)
    if bound <= 1:
        raise CertificationError("no real root greater than 1")
    brackets = isolate_real_roots(reduced, Fraction(1), bound)
    if not brackets:
        raise CertificationError("no real root greater than 1")
    lo, hi = brackets[-1]
    if lo == hi:
        return RealEnclosure.exact(lo)
    return refine_root(reduced, lo, hi, tol)


# -- cyclotomic scan -----------------------------------------------------------


def totient(n: int) -> int:
    result = n
    m = n
    f = 2
    while f * f <= m:
        if m % f == 0:
            while m % f == 0:
                m //= f
            result -= result // f
        f += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, by exact division of x^n - 1."""
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    num = IntPoly([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            quotient = num.divide_exact(cyclotomic(d))
            _require(quotient is not None, "cyclotomic divisor of x^n - 1 does not divide")
            num = quotient
    return num


def cyclotomic_factors(p: IntPoly, search_bound: int = 200) -> list[tuple[int, int]]:
    """All cyclotomic divisors of p with multiplicities.

    Scanning n <= 200 exhausts every cyclotomic polynomial of degree <= 11
    (indeed of degree well beyond), so the scan is complete for the
    characteristic polynomials handled here.
    """
    out = []
    for n in range(1, search_bound + 1):
        if totient(n) > p.degree:
            continue
        phi = cyclotomic(n)
        mult = 0
        rest = p
        while True:
            q = rest.divide_exact(phi)
            if q is None:
                break
            mult += 1
            rest = q
        if mult:
            out.append((n, mult))
    return out


# -- certified unit-circle root count ------------------------------------------


class UnitCircleCount(NamedTuple):
    """Certified counts of roots by position relative to the unit circle."""

    outside: int
    inside: int
    on_circle: int


def _trace_polynomial(g: IntPoly) -> IntPoly:
    """q with g(z) = z^m q(z + 1/z), for g palindromic of degree 2m.

    Uses z^k + z^-k = P_k(z + 1/z) with P_0 = 2, P_1 = x and
    P_k = x P_{k-1} - P_{k-2}.
    """
    m = g.degree // 2
    out = [g.coeffs[m]] + [0] * m
    older, current = [2], [0, 1]
    for k in range(1, m + 1):
        for j, c in enumerate(current):
            out[j] += g.coeffs[m + k] * c
        following = [0] + current
        for j, c in enumerate(older):
            following[j] -= c
        older, current = current, following
    return IntPoly(out)


def _cauchy_index(p: IntPoly, q: IntPoly) -> int:
    """Cauchy index of q/p over the whole real line, for deg q < deg p.

    Sturm: the sign variations of p, q, -rem(p, q), ... at -inf minus those
    at +inf, with each remainder replaced by a positive multiple (an integer
    pseudo-remainder), which changes no sign.  A common factor of p and q
    without real roots ends the chain and changes no variation count.
    """
    chain = [p, q]
    while chain[-1].degree >= 0:
        chain.append(IntPoly(-c for c in _pseudo_remainder(chain[-2].coeffs, chain[-1].coeffs)))
    chain.pop()
    at_plus = [f.leading for f in chain]
    at_minus = [-f.leading if f.degree % 2 else f.leading for f in chain]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def _count_inside_off_circle(r: IntPoly) -> int:
    """Roots of r inside the unit circle, for r without roots on the circle.

    The Cayley transform z = (1 + w) / (1 - w) maps the left half-plane onto
    the open disk; R(w) = sum a_k (1 + w)^k (1 - w)^(n - k) has degree n
    exactly (its top coefficient is (-1)^n r(-1), nonzero) and no root on
    the imaginary axis.  With R(iy) = A(y) + i B(y), the argument of R(iy)
    turns by pi * (left - right), which the Cauchy index of the lower-degree
    part over the degree-n part gives.
    """
    n = r.degree
    cayley = [0] * (n + 1)
    for k, a in enumerate(r.coeffs):
        term = IntPoly([a])
        for factor in [IntPoly([1, 1])] * k + [IntPoly([1, -1])] * (n - k):
            term = term * factor
        for j, c in enumerate(term.coeffs):
            cayley[j] += c
    _require(cayley[n] != 0, "Cayley transform lost degree")
    # i^j = (-1)^(j // 2) for even j and i * (-1)^(j // 2) for odd j
    parts = [[0] * (n + 1), [0] * (n + 1)]
    for j, c in enumerate(cayley):
        parts[j % 2][j] = (-1) ** (j // 2) * c
    real, imag = IntPoly(parts[0]), IntPoly(parts[1])
    if n % 2:
        twice_inside = n + _cauchy_index(imag, real)
    else:
        twice_inside = n - _cauchy_index(real, imag)
    _require(
        twice_inside % 2 == 0 and 0 <= twice_inside <= 2 * n,
        "Cauchy index inconsistent with the degree",
    )
    return twice_inside // 2


def _profile_squarefree(f: IntPoly) -> tuple[int, int, int]:
    """(outside, inside, on circle) root counts of squarefree f."""
    outside = inside = on_circle = 0
    # roots at +-1 first: they are their own inverses
    for r in (1, -1):
        k, f = strip_rational_root(f, r)
        _require(k <= 1, "squarefree factor with repeated rational root")
        on_circle += k
    # Roots on the circle satisfy 1/z = conj(z), so they all divide the
    # mirror part gcd(f, reverse(f)), whose roots come in pairs z, 1/z with
    # z != 1/z; such a part is palindromic of even degree 2m.  Each real root
    # x of its trace polynomial in (-2, 2) gives a conjugate pair on the
    # circle; every other root x gives one root inside and one outside.
    mirror = poly_gcd(f, f.reversed())
    _require(
        mirror.degree % 2 == 0 and mirror.reversed() == mirror,
        "mirror part is not palindromic of even degree",
    )
    m = mirror.degree // 2
    if m:
        pairs = len(isolate_real_roots(_trace_polynomial(mirror), Fraction(-2), Fraction(2)))
        on_circle += 2 * pairs
        inside += m - pairs
        outside += m - pairs
    rest = f.divide_exact(mirror)
    _require(rest is not None, "mirror part does not divide exactly")
    if rest.degree > 0:
        rest_inside = _count_inside_off_circle(rest)
        inside += rest_inside
        outside += rest.degree - rest_inside
    return outside, inside, on_circle


def count_roots_outside_unit_circle(p: IntPoly) -> UnitCircleCount:
    """Certified count (with multiplicity) of roots of p with modulus > 1."""
    if p.degree < 0:
        raise ValueError("zero polynomial")
    outside = inside = on_circle = 0
    for factor, mult in squarefree_decomposition(p):
        n_out, n_in, n_on = _profile_squarefree(factor)
        _require(
            n_out + n_in + n_on == factor.degree,
            "root counts do not add up to the factor degree",
        )
        outside += mult * n_out
        inside += mult * n_in
        on_circle += mult * n_on
    return UnitCircleCount(outside, inside, on_circle)
