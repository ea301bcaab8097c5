"""Integer polynomials and certified root data.

Provides the exact characteristic polynomial of an integer matrix together
with the first column of the adjugate of xI - m, real-root isolation and
refinement with rational endpoints, a cyclotomic divisibility scan, and a
certified count of roots outside the unit circle.

Every kernel runs on Python integers.  The characteristic polynomial comes
from integer power traces; gcds from a primitive pseudo-remainder sequence;
Descartes isolation (`isolating_brackets`) works on den^n p(y/den) over a
common-denominator grid, and refinement (`refine_bracket`) picks the
bisection's cell of that grid, guessed by integer Newton steps or, where the
guess misses, bisected by its index, by signs from a homogeneous integer
Horner sum; there is no second refinement routine.  Both take and return
brackets [a, b] / den of integers; `isolate_real_roots`,
`refine_isolated_root` and `dominant_root` are their `Fraction` forms.
Exact division, divisibility (a pseudo-remainder) and deflation by a
rational root (by D x - N, Gauss's lemma) stay integral.

The unit-circle count is exact.  The gcd layers p_0 = p,
p_(k+1) = gcd(p_k, p_k') give squarefree parts p_k / p_(k+1) that together
hold each root of p as often as its multiplicity.  Per squarefree part
(`squarefree_circle_count`), after the roots at +-1 are divided out, one
Routh-Hurwitz count decides every root.  The Cayley transform R of f takes
the circle to the imaginary axis, and the real and imaginary parts A, B of
R(iy) share exactly the circle roots and the pairs z, 1/z: the real roots
of gcd(A, B) are the circle roots, and the Cauchy index of B/A counts the
roots inside.  Both counts are Sturm chains whose pseudo-remainders are
scaled by positive factors only.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import lru_cache
from itertools import combinations
from math import gcd as int_gcd
from math import lcm, prod
from operator import index, mul

from .errors import CertificationError, PrecisionBudgetError, Record
from .intervals import RealEnclosure
from .lattice import fraction_type
from .transform import LatticeIsometry


def _require(holds: bool, message: str) -> None:
    """A step every certificate below rests on; unlike `assert`, it is not
    stripped by `python -O`."""
    if not holds:
        raise CertificationError(message)


class IntPoly:
    """Univariate polynomial with exact integer coefficients, ascending order.

    Value type compared and hashed by its coefficients.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        values = list(map(index, coeffs))  # TypeError on a float or Fraction
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
        return fraction_type()(_scaled_value(self.coeffs, x.numerator, d), d ** (len(self.coeffs) - 1))

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

    def scaled_remainder(self, divisor: "IntPoly") -> "IntPoly":
        """A positive multiple of the remainder of self by the nonzero divisor
        over Q, 0 iff the divisor divides self: each step scales the rest by
        |lc(divisor)| before cancelling its top term, which keeps the signs."""
        if divisor.degree < 0:
            raise ZeroDivisionError("division by zero polynomial")
        den, n = divisor.coeffs, divisor.degree
        scale, sign = abs(den[-1]), (1 if den[-1] > 0 else -1)
        rest = list(self.coeffs)  # its top coefficient is nonzero, or rest = [0]
        while len(rest) > n:
            top = sign * rest.pop()
            shift = len(rest) - n
            rest = [scale * c for c in rest]
            for j, d in enumerate(den[:-1]):
                rest[shift + j] -= top * d
            while rest and rest[-1] == 0:
                rest.pop()
        return IntPoly(rest)

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


def faddeev_leverrier(m: LatticeIsometry) -> tuple[IntPoly, tuple[IntPoly, ...]]:
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


def char_poly(m: LatticeIsometry) -> IntPoly:
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


def cauchy_root_bound(p: IntPoly) -> tuple[int, int]:
    """(n, d), n / d = 1 + max |a_i / a_n|: every root's modulus is below it."""
    if p.degree < 1:
        raise ValueError("root bound needs degree >= 1")
    lead = abs(p.leading)
    return lead + max(map(abs, p.coeffs[:-1])), lead


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


def _deflate(coeffs: Sequence[int], n: int, d: int) -> tuple[int, ...]:
    """p / (D x - N) for the root n/d = N/D of p in lowest terms, integral by
    Gauss's lemma; the division must be exact."""
    quotient = IntPoly(coeffs).divide_exact(IntPoly([-n, d]).primitive())
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


#: Bisection depth at which root isolation gives up.
_ISOLATION_DEPTH = 80


def common_grid(lo: Fraction, hi: Fraction) -> tuple[int, int, int]:
    """(a, b, den) with [lo, hi] = [a, b] / den, den the lcm of denominators."""
    den = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (den // lo.denominator), hi.numerator * (den // hi.denominator), den


def isolate_real_roots(p: IntPoly, lo: Fraction, hi: Fraction) -> list[tuple[Fraction, Fraction]]:
    """`isolating_brackets` on (lo, hi), as pairs of `Fraction`s."""
    brackets = isolating_brackets(p, *common_grid(lo, hi))
    return [(e.lo, e.hi) for e in (RealEnclosure.over(*b) for b in brackets)]


def isolating_brackets(p: IntPoly, a: int, b: int, den: int) -> list[tuple[int, int, int]]:
    """Disjoint isolating intervals, ascending, for the roots of squarefree p
    in (a, b) / den, den > 0: open intervals (a_k, b_k) / den_k with exactly
    one root each and none at an end; exact rational roots appear as
    degenerate (r, r, den_k), deflated, and bisection goes on past them.
    Requires p(a / den) != 0 != p(b / den)."""
    if not (_scaled_value(p.coeffs, a, den) and _scaled_value(p.coeffs, b, den)):
        raise ValueError("isolation endpoints must not be roots")
    out: list[tuple[int, int, int]] = []

    def recurse(cs: Sequence[int], a: int, b: int, den: int, depth: int) -> None:
        bound = _descartes_bound(cs, a, b, den)
        if bound == 0:
            return
        if bound == 1 and _scaled_value(p.coeffs, a, den) and _scaled_value(p.coeffs, b, den):
            out.append((a, b, den))
            return
        if depth <= 0:
            raise PrecisionBudgetError(f"root isolation did not terminate on ({a}, {b}) / {den}")
        mid, den = a + b, 2 * den
        a, b = 2 * a, 2 * b
        root = _scaled_value(cs, mid, den) == 0
        if root:
            cs = _deflate(cs, mid, den)
        recurse(cs, a, mid, den, depth - 1)
        if root:
            out.append((mid, mid, den))
        recurse(cs, mid, b, den, depth - 1)

    recurse(p.coeffs, a, b, den, _ISOLATION_DEPTH)
    return out


def refine_isolated_root(p: IntPoly, lo: Fraction, hi: Fraction, tol: Fraction) -> RealEnclosure:
    """`refine_bracket` on [lo, hi] to width <= tol, as an enclosure."""
    return RealEnclosure.over(*refine_bracket(p, common_grid(lo, hi), tol.as_integer_ratio()))


def refine_bracket(p: IntPoly, bracket: tuple, tol: tuple[int, int]) -> tuple[int, int, int]:
    """Shrink a bracket [a, b] / den that isolates one root of p to width
    <= tol = t / u: the enclosure [lo, hi] / den bisection gives, in O(log)
    evaluations.

    A root at an end (a == b for an exact root) is returned exactly; a
    bracket without a sign change is a `CertificationError`.  With w = b - a,
    bisection ends after the least k halvings with w / (den 2^k) <= tol, on
    the only cell [a 2^k + j w, a 2^k + (j + 1) w] / (den 2^k) with a sign
    change.  Integer Newton steps on numerators over den 2^e, e growing to
    k + 16 and each step kept inside a sign bracket, only guess j; two exact
    signs certify cell j or a neighbour.  If none of them has a strict sign
    change (a rational root on the grid, or a guess more than one cell off),
    j is bisected over [0, 2^k): those midpoints are bisection's own, so a
    grid root is returned exactly where bisection would stop on it.
    """
    (a, b, den), (t, u) = bracket, tol
    if t <= 0:
        raise ValueError("tolerance must be positive")
    if a > b:
        raise ValueError(f"inverted bracket [{a}/{den}, {b}/{den}]")
    coeffs, deriv, w = p.coeffs, p.derivative().coeffs, b - a
    at_lo, at_hi = _scaled_value(coeffs, a, den), _scaled_value(coeffs, b, den)
    if not at_lo or not at_hi:
        return (b, b, den) if at_lo else (a, a, den)
    left = at_lo > 0
    if left == (at_hi > 0):
        raise CertificationError(f"no sign change on [{a}/{den}, {b}/{den}]")
    k = (-(-w * u // (t * den)) - 1).bit_length()
    e, top = min(k + 16, 48), k + 16
    low, high = a << e, (a + w) << e
    x = (low + high) >> 1
    for _ in range(96):
        value = _scaled_value(coeffs, x, den << e)
        if not value:
            break
        low, high = (x, high) if (value > 0) == left else (low, x)
        step = value // (_scaled_value(deriv, x, den << e) or 1)  # p / p', or p if p' = 0
        x -= step
        if abs(step) <= 1 << e // 2:
            if e == top:
                break
            shift = min(2 * e - 16, top) - e
            x, low, high, e = x << shift, low << shift, high << shift, e + shift
        elif not low < x < high:
            x = (low + high) >> 1
    start, grid = a << k, den << k
    j = ((x << top - e) - (start << 16)) // (w << 16)
    for i in (j, j - 1, j + 1):
        ends = [_scaled_value(coeffs, start + n * w, grid) for n in (i, i + 1)]
        if 0 <= i < 1 << k and ends[0] * ends[1] < 0:
            return start + i * w, start + (i + 1) * w, grid
    i, n = 0, 1 << k  # the sign change lies in cells i..n - 1
    while n - i > 1:
        mid = (i + n) >> 1
        value = _scaled_value(coeffs, start + mid * w, grid)
        if not value:
            return start + mid * w, start + mid * w, grid
        i, n = (mid, n) if (value > 0) == left else (i, mid)
    return start + i * w, start + n * w, grid


# -- gcd / squarefree structure ------------------------------------------------


def poly_gcd(a: IntPoly, b: IntPoly) -> IntPoly:
    """Primitive gcd with a positive leading coefficient, by a primitive
    pseudo-remainder sequence (Collins; Brown-Traub): integers throughout."""
    a, b = a.primitive(), b.primitive()
    while b.degree >= 0:
        a, b = b, a.scaled_remainder(b).primitive()
    return a


def _squarefree_layer(p: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(p / g, g) for g = gcd(p, p'): p / g holds each root of p once, and g
    each root of multiplicity m > 1 with multiplicity m - 1."""
    g = poly_gcd(p, p.derivative())
    part = p.divide_exact(g)
    _require(part is not None, "gcd(p, p') does not divide p exactly")
    return part, g


def _strip_factor(p: IntPoly, factor: IntPoly) -> tuple[int, IntPoly]:
    """(k, p / factor^k) for the largest k with factor^k dividing p exactly:
    each exact division both tests and deflates."""
    count = 0
    while (quotient := p.divide_exact(factor)) is not None:
        count, p = count + 1, quotient
    return count, p


def strip_rational_root(p: IntPoly, root: int) -> tuple[int, IntPoly]:
    """Divide out (x - root) as often as it divides exactly (`_strip_factor`)."""
    return _strip_factor(p, IntPoly([-root, 1]))


def dominant_root(p: IntPoly, tol: Fraction) -> RealEnclosure:
    """Certified enclosure of the largest real root of p, which must exceed 1.

    Isolation runs on the squarefree part p / gcd(p, p') (so the bracketing
    sign change is guaranteed even at roots of even multiplicity in p), two
    exact signs certify the refined cell, and the enclosure is valid for p
    itself since the roots coincide.  Fails loudly when no root greater than
    1 exists.
    """
    if p.degree < 1:
        raise CertificationError("dominant root of a constant polynomial")
    # roots exactly at 1 are not "greater than 1"; remove before isolating
    reduced = strip_rational_root(_squarefree_layer(p)[0], 1)[1]
    bracket = RealEnclosure.over(*dominant_bracket(reduced))
    return refine_isolated_root(reduced, bracket.lo, bracket.hi, tol)


def dominant_bracket(reduced: IntPoly) -> tuple[int, int, int]:
    """The isolating bracket [a, b] / den of the largest real root, which must
    exceed 1, of a squarefree polynomial without the root 1."""
    top, lead = cauchy_root_bound(reduced) if reduced.degree >= 1 else (1, 1)
    brackets = isolating_brackets(reduced, lead, top, lead) if top > lead else []
    if not brackets:
        raise CertificationError("no real root greater than 1")
    return brackets[-1]


# -- cyclotomic scan -----------------------------------------------------------


def _prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n >= 1, by trial division."""
    primes, f = [], 2
    while f * f <= n:
        if n % f == 0:
            primes.append(f)
            while n % f == 0:
                n //= f
        f += 1
    return primes + [n] if n > 1 else primes


def _totients(limit: int) -> list[int]:
    """phi(0..limit) by one sieve: each prime p takes phi(m) -= phi(m) / p
    for its multiples m, so phi(m) = m prod (1 - 1/p) over the primes of m."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # untouched by a smaller prime: p is prime
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    return phi


@lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPoly:
    """The n-th cyclotomic polynomial, the Möbius product
    prod_{d | n} (x^d - 1)^mu(n/d).

    mu(n/d) is nonzero only for n/d a product of r distinct primes of n,
    where it is (-1)^r.  For n > 1 the exponents sum to 0, so the product is
    prod (1 - x^d)^mu(n/d), a polynomial of degree phi(n): it is computed as
    a power series modulo x^(phi(n) + 1), where multiplying by 1 - x^d and
    dividing by it take one pass each.
    """
    if n < 1:
        raise ValueError("cyclotomic index must be positive")
    if n == 1:
        return IntPoly([-1, 1])
    primes = _prime_factors(n)
    size = n // prod(primes) * prod(p - 1 for p in primes) + 1  # phi(n) + 1
    series = [1] + [0] * (size - 1)
    for r in range(len(primes) + 1):
        for subset in combinations(primes, r):
            d = n // prod(subset)
            if r % 2:  # divide by 1 - x^d
                for k in range(d, size):
                    series[k] += series[k - d]
            else:  # multiply by 1 - x^d
                for k in range(size - 1, d - 1, -1):
                    series[k] -= series[k - d]
    return IntPoly(series)


def cyclotomic_factors(p: IntPoly) -> list[tuple[int, int]]:
    """All cyclotomic divisors of p with multiplicities: (x - 1)^k is
    stripped (`strip_rational_root`), and the rest scanned
    (`split_cyclotomic_factors`)."""
    return split_cyclotomic_factors(*strip_rational_root(p, 1))


def split_cyclotomic_factors(k: int, s: IntPoly) -> list[tuple[int, int]]:
    """The cyclotomic divisors with multiplicities of (x - 1)^k s, for s
    with s(1) != 0: (1, k) if k > 0, then each Phi_n, n >= 2, stripped from
    s by `_strip_factor`.

    Scanning n <= 200 exhausts every cyclotomic polynomial of degree <= 11
    (indeed of degree well beyond), so the scan is complete for the
    characteristic polynomials handled here.
    """
    phi = _totients(200)
    scan = (n for n in range(2, 201) if phi[n] <= s.degree)
    counts = ((n, _strip_factor(s, cyclotomic(n))[0]) for n in scan)
    return ([(1, k)] if k else []) + [(n, m) for n, m in counts if m]


# -- certified unit-circle root count ------------------------------------------


class UnitCircleCount(Record):
    """Certified counts of roots by position relative to the unit circle."""

    outside: int
    inside: int
    on_circle: int


def _cauchy_index(p: IntPoly, q: IntPoly) -> int:
    """Cauchy index of q/p over the whole real line, for deg q < deg p.

    Sturm: the sign variations of p, q, -rem(p, q), ... at -inf minus those
    at +inf, with each remainder replaced by a positive multiple (an integer
    pseudo-remainder), which changes no sign.  A common factor g of p and q
    ends the chain and multiplies every entry, so its sign at each end
    changes no variation count: the index is that of the reduced fraction.
    """
    chain = [p, q]
    while chain[-1].degree >= 0:
        chain.append(IntPoly(-c for c in chain[-2].scaled_remainder(chain[-1]).coeffs))
    chain.pop()
    at_plus = [f.leading for f in chain]
    at_minus = [-f.leading if f.degree % 2 else f.leading for f in chain]
    return _sign_variations(at_minus) - _sign_variations(at_plus)


def _cayley_parts(f: IntPoly) -> tuple[IntPoly, IntPoly]:
    """(A, B) with R(iy) = A(y) + i B(y), for the Cayley transform
    R(w) = (1 - w)^n f((1 + w) / (1 - w)) of f of degree n with f(-1) != 0.

    z = (1 + w) / (1 - w) = -1 + 2 / (1 - w) maps the left half-plane onto
    the open disk and the imaginary axis onto the circle less -1.  With
    f(x - 1) = sum c_k x^k, R(w) = h(1 - w) for h(u) = sum c_k 2^k u^(n - k),
    and with h(u + 1) = sum e_j u^j, R(iy) = sum e_j (-i)^j y^j: two Taylor
    shifts.  The top coefficient e_n = f(-1) is nonzero, so deg R = n.
    """
    n = f.degree
    h = [c << k for k, c in enumerate(_taylor_shift(f.coeffs, -1))][::-1]
    shifted = _taylor_shift(h, 1)
    _require(shifted[n] != 0, "Cayley transform lost degree")
    parts = [[0] * (n + 1), [0] * (n + 1)]
    for j, e in enumerate(shifted):  # (-i)^j = (-1)^((j + 1) // 2) i^(j % 2)
        parts[j % 2][j] = -e if (j + 1) & 2 else e
    return IntPoly(parts[0]), IntPoly(parts[1])


def squarefree_circle_count(f: IntPoly) -> UnitCircleCount:
    """Certified root counts of a squarefree f by position relative to the
    unit circle: Routh-Hurwitz on the Cayley transform, in its singular case
    (Gantmacher, The Theory of Matrices II, ch. XV).

    After the roots at +-1 are divided out, R(iy) = A(y) + i B(y)
    (`_cayley_parts`) vanishes at real y exactly at the circle roots, and
    A - i B = R(-iy): the common roots of A and B are those of R shared with
    R(-w), the circle roots and the pairs z, 1/z.  So g = gcd(A, B) is
    squarefree, its real roots, counted by the Cauchy index of g'/g, are the
    circle roots, and its other roots come in conjugate pairs, one root of
    R left of the axis and one right.  The argument of (A + i B) / g turns
    by pi (left - right) over the real line, which the Cauchy index of the
    lower-degree part over the degree-n part gives; the common factor g
    changes no index (`_cauchy_index`).
    """
    units = 0
    for r in (1, -1):  # their own inverses, and 1 is w = 0, -1 is w = inf
        k, f = strip_rational_root(f, r)
        _require(k <= 1, "squarefree factor with repeated rational root")
        units += k
    n = f.degree
    real, imag = _cayley_parts(f)
    g = poly_gcd(real, imag)
    on_circle = _cauchy_index(g, g.derivative())
    off_circle = n - on_circle
    if n % 2:
        twice_inside = off_circle + _cauchy_index(imag, real)
    else:
        twice_inside = off_circle - _cauchy_index(real, imag)
    _require(
        twice_inside % 2 == 0 and 0 <= twice_inside <= 2 * off_circle,
        "Cauchy index inconsistent with the degree",
    )
    inside = twice_inside // 2
    return UnitCircleCount(off_circle - inside, inside, units + on_circle)


def count_roots_outside_unit_circle(p: IntPoly) -> UnitCircleCount:
    """Certified count (with multiplicity) of roots of p with modulus > 1:
    the sum over the squarefree parts p_k / p_(k+1) of the gcd layers."""
    if p.degree < 0:
        raise ValueError("zero polynomial")
    total = [0, 0, 0]
    while p.degree >= 1:
        part, p = _squarefree_layer(p)
        total = [a + b for a, b in zip(total, squarefree_circle_count(part))]
    return UnitCircleCount(*total)
