"""Integer polynomials and certified root data.

Provides the exact characteristic polynomial of an integer matrix together
with the first column of the adjugate of xI - m, real-root isolation and
refinement with rational endpoints, a cyclotomic divisibility scan, and a
certified count of roots outside the unit circle.

The unit-circle count is exact and uses integer polynomials only.  Per
squarefree factor, after the roots at 0 and +-1 are divided out, the mirror
part gcd(f, reverse(f)) holds every root on the circle; writing it as
z^m q(z + 1/z), its circle roots are the real roots of q in (-2, 2), counted
by Descartes isolation.  The rest has no root on the circle and is counted
inside the disk by a Cayley transform to the left half-plane and a Sturm
chain for the Cauchy index (Routh-Hurwitz).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd as int_gcd
from typing import TYPE_CHECKING, Iterable, Sequence

from .errors import CertificationError, PrecisionBudgetError
from .intervals import RealEnclosure

if TYPE_CHECKING:  # pragma: no cover
    from .transform import LatticeIsometry


def _require(holds: bool, message: str) -> None:
    """A step every certificate below rests on; unlike `assert`, it is not
    stripped by `python -O`."""
    if not holds:
        raise CertificationError(message)


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial with exact integer coefficients, ascending order."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        values = [int(c) for c in coeffs]
        while len(values) > 1 and values[-1] == 0:
            values.pop()
        if not values:
            values = [0]
        object.__setattr__(self, "coeffs", tuple(values))

    @property
    def degree(self) -> int:
        if self.coeffs == (0,):
            return -1
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        return self.coeffs[-1]

    def __call__(self, x: int | Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        g = 0
        for c in self.coeffs:
            g = int_gcd(g, abs(c))
        if g == 0:
            return self
        sign = -1 if self.leading < 0 else 1
        return IntPoly(sign * c // g for c in self.coeffs)

    def divide_exact(self, divisor: "IntPoly") -> "IntPoly | None":
        """Exact quotient over the integers, or None if it does not divide."""
        if divisor.degree < 0:
            raise ZeroDivisionError("division by zero polynomial")
        if self.degree < divisor.degree:
            return None
        rem = [Fraction(c) for c in self.coeffs]
        out = [Fraction(0)] * (self.degree - divisor.degree + 1)
        dlead = Fraction(divisor.leading)
        for k in range(self.degree - divisor.degree, -1, -1):
            q = rem[k + divisor.degree] / dlead
            out[k] = q
            for j, d in enumerate(divisor.coeffs):
                rem[k + j] -= q * d
        if any(r != 0 for r in rem):
            return None
        if any(q.denominator != 1 for q in out):
            return None
        return IntPoly(int(q) for q in out)

    def is_multiple_of(self, divisor: "IntPoly") -> bool:
        """Whether the nonzero divisor divides self over Q (it divides 0)."""
        rest = _remainder(_trimmed(_fraction_coeffs(self)), _trimmed(_fraction_coeffs(divisor)))
        return not rest

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
    """det(xI - m) and column 0 of adj(xI - m), in one Faddeev-LeVerrier pass.

    With M_1 = I, c_k = -tr(m M_k) / k and M_{k+1} = m M_k + c_k I,
    det(xI - m) = sum c_k x^(n-k) and adj(xI - m) = sum M_k x^(n-k).  The
    recurrence stays in integer arithmetic; every division by k is exact
    (checked, since the c_k are integers for an integer matrix).
    """
    rows = m.rows
    n = len(rows)
    coeffs_desc = [1]
    column_desc = [[1 if i == 0 else 0] for i in range(n)]  # M_1 = I
    work = [list(r) for r in rows]
    for k in range(1, n + 1):
        trace = sum(work[i][i] for i in range(n))
        _require(trace % k == 0, "Faddeev-LeVerrier divisibility violated")
        ck = -trace // k
        coeffs_desc.append(ck)
        if k < n:
            shifted = [
                [work[i][j] + (ck if i == j else 0) for j in range(n)]
                for i in range(n)
            ]
            for i in range(n):
                column_desc[i].append(shifted[i][0])
            work = [
                [sum(rows[i][l] * shifted[l][j] for l in range(n)) for j in range(n)]
                for i in range(n)
            ]
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


# -- polynomial helpers over the rationals ------------------------------------


def _fraction_coeffs(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _eval(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _deflate(coeffs: Sequence[Fraction], root: Fraction) -> list[Fraction]:
    """Exact synthetic division by (x - root); the remainder must vanish."""
    desc = list(reversed(coeffs))
    out = [desc[0]]
    for c in desc[1:]:
        out.append(c + root * out[-1])
    rem = out.pop()
    _require(rem == 0, "deflation at a non-root")
    return list(reversed(out))


def _taylor_shift(coeffs: Sequence[Fraction], a: Fraction) -> list[Fraction]:
    """Coefficients of p(x + a), by repeated synthetic division."""
    desc = list(reversed(coeffs))
    out: list[Fraction] = []
    while desc:
        q = [desc[0]]
        for c in desc[1:]:
            q.append(c + a * q[-1])
        out.append(q.pop())
        desc = q
    return out


def _sign_variations(coeffs: Sequence[Fraction]) -> int:
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


def _descartes_bound(coeffs: Sequence[Fraction], lo: Fraction, hi: Fraction) -> int:
    """Upper bound (equal mod 2) on the number of roots in the open (lo, hi)."""
    shifted = _taylor_shift(coeffs, lo)
    width = hi - lo
    scaled = [c * width**k for k, c in enumerate(shifted)]
    # roots in (0,1) of `scaled`; map via x -> 1/(1+x) onto (0, inf)
    transformed = _taylor_shift(list(reversed(scaled)), Fraction(1))
    return _sign_variations(transformed)


def isolate_real_roots(
    p: IntPoly, lo: Fraction, hi: Fraction, max_depth: int = 80
) -> list[tuple[Fraction, Fraction]]:
    """Disjoint isolating intervals for the roots of squarefree p in (lo, hi).

    Returns open intervals (a, b) with exactly one root each; exact rational
    roots appear as degenerate pairs (r, r).  Requires p(lo) != 0 != p(hi).
    """
    coeffs = _fraction_coeffs(p)
    if _eval(coeffs, lo) == 0 or _eval(coeffs, hi) == 0:
        raise ValueError("isolation endpoints must not be roots")
    out: list[tuple[Fraction, Fraction]] = []

    def recurse(cs: list[Fraction], a: Fraction, b: Fraction, depth: int) -> None:
        bound = _descartes_bound(cs, a, b)
        if bound == 0:
            return
        if bound == 1:
            out.append((a, b))
            return
        if depth <= 0:
            raise PrecisionBudgetError(
                f"root isolation did not terminate on ({a}, {b})"
            )
        mid = (a + b) / 2
        if _eval(cs, mid) == 0:
            reduced = _deflate(cs, mid)
            out.append((mid, mid))
            recurse(reduced, a, mid, depth - 1)
            recurse(reduced, mid, b, depth - 1)
        else:
            recurse(cs, a, mid, depth - 1)
            recurse(cs, mid, b, depth - 1)

    recurse(coeffs, lo, hi, max_depth)
    return sorted(out)


def refine_root(
    p: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction
) -> RealEnclosure:
    """Shrink a sign-change bracket around a root to width <= tol by bisection."""
    f_lo = p(lo)
    f_hi = p(hi)
    if f_lo == 0:
        return RealEnclosure.exact(lo)
    if f_hi == 0:
        return RealEnclosure.exact(hi)
    if (f_lo > 0) == (f_hi > 0):
        raise CertificationError(f"no sign change on [{lo}, {hi}]")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        f_mid = p(mid)
        if f_mid == 0:
            return RealEnclosure.exact(mid)
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return RealEnclosure(lo, hi)


# -- gcd / squarefree structure ------------------------------------------------


def _trimmed(coeffs: list[Fraction]) -> list[Fraction]:
    """Drop zero top coefficients; the zero polynomial becomes []."""
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _remainder(num: list[Fraction], den: list[Fraction]) -> list[Fraction]:
    """Remainder of num by the nonzero den over Q, both trimmed."""
    num = num[:]
    while len(num) >= len(den):
        q = num[-1] / den[-1]
        shift = len(num) - len(den)
        for j, d in enumerate(den):
            num[shift + j] -= q * d
        _trimmed(num)
    return num


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd over the integers (Euclid over Q, then normalized)."""
    fa, fb = _trimmed(_fraction_coeffs(a)), _trimmed(_fraction_coeffs(b))
    while fb:
        fa, fb = fb, _remainder(fa, fb)
    if not fa:
        return IntPoly([0])
    denom_lcm = 1
    for c in fa:
        denom_lcm = denom_lcm * c.denominator // int_gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in fa]
    return IntPoly(ints).primitive()


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
    d = IntPoly(
        [
            x - y
            for x, y in _zip_pad(c.coeffs, b.derivative().coeffs)
        ]
    )
    out: list[tuple[IntPoly, int]] = []
    i = 1
    while b.degree > 0:
        f = poly_gcd(b, d)
        if f.degree > 0:
            out.append((f, i))
            b_next = b.divide_exact(f)
            _require(b_next is not None, "squarefree factor does not divide exactly")
            b = b_next
        if b.degree == 0:
            break
        cq = d.divide_exact(f) if f.degree > 0 else d
        _require(cq is not None, "squarefree factor does not divide exactly")
        d = IntPoly([x - y for x, y in _zip_pad(cq.coeffs, b.derivative().coeffs)])
        i += 1
    return out


def _zip_pad(a: Sequence[int], b: Sequence[int]) -> list[tuple[int, int]]:
    n = max(len(a), len(b))
    return [
        (a[i] if i < len(a) else 0, b[i] if i < len(b) else 0) for i in range(n)
    ]


def squarefree_part(p: IntPoly) -> IntPoly:
    out = IntPoly([1])
    for factor, _ in squarefree_decomposition(p):
        out = out * factor
    return out


def strip_rational_root(p: IntPoly, root: int) -> tuple[int, IntPoly]:
    """Divide out (x - root) as often as it divides exactly; root integer."""
    count = 0
    coeffs = _fraction_coeffs(p)
    r = Fraction(root)
    while len(coeffs) > 1 and _eval(coeffs, r) == 0:
        coeffs = _deflate(coeffs, r)
        count += 1
    _require(
        all(c.denominator == 1 for c in coeffs),
        "deflation by an integer root left a non-integer coefficient",
    )
    return count, IntPoly(int(c) for c in coeffs)


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
    if reduced(Fraction(1)) == 0:
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


@dataclass(frozen=True)
class UnitCircleCount:
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


def _cauchy_index(p: list[Fraction], q: list[Fraction]) -> int:
    """Cauchy index of q/p over the whole real line, for deg q < deg p.

    Sturm: the sign variations of p, q, -rem(p, q), ... at -inf minus those
    at +inf.  A common factor of p and q without real roots ends the chain
    and changes no variation count.
    """
    chain = [p, q]
    while chain[-1]:
        chain.append([-c for c in _remainder(chain[-2], chain[-1])])
    chain.pop()
    at_plus = [c[-1] for c in chain]
    at_minus = [c[-1] if len(c) % 2 else -c[-1] for c in chain]
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
    parts = [[Fraction(0)] * (n + 1), [Fraction(0)] * (n + 1)]
    for j, c in enumerate(cayley):
        parts[j % 2][j] = Fraction((-1) ** (j // 2) * c)
    real, imag = (_trimmed(part) for part in parts)
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
