"""Reference data the verification reproduces.

The construction under verification comes with rounded reference values: the
ten coefficients of the nef witness printed to three decimals, their strict
ordering, and a table of extreme candidate curves with margins.  Both are
matched on whole enclosures by one rule (`deviations`), which leaves a
comparison undecided (`PrecisionBudgetError`, exit 3, naming the row) when an
enclosure straddles its band's edge and none lies wholly outside.  Two uses:

* the witness coefficients are the only data that pins down which reading of
  the composite map's block notation is intended (the orientation oracle and
  the run's witness line, both through `witness_matches`);
* the table rows are reproduced, at the stated tolerances, as part of the
  acceptance checks.

Only rounded reference values live here.  The dominant eigenvalue is never
hard-coded anywhere; everything except this data is derived at run time.

Every value is stored as integer thousandths, which `deviations` reads;
`__getattr__` gives the `Fraction` forms under the names without `_MILLI`.
"""

from .errors import PrecisionBudgetError

#: Rounded coefficients (t_1..t_10) of the nef witness H - sum t_i E_i.
WITNESS_MILLI = (354, 342, 304, 371, 363, 336, 260, 253, 235, 181)

#: Certified computations must land within this distance of each coefficient.
WITNESS_TOLERANCE_MILLI = 2

#: Strict descending order of the witness coefficients, as 1-based indices:
#: t4 > t5 > t1 > t2 > t6 > t3 > t7 > t8 > t9 > t10.
WEIGHT_ORDER = (4, 5, 1, 2, 6, 3, 7, 8, 9, 10)

#: Reference margin tolerance for table rows (values printed to 3 decimals;
#: with multiplicity sums up to 18 the rounding can accumulate to ~0.009).
TABLE_TOLERANCE_MILLI = 10

#: Reference table of extreme candidates: (degree, multiplicities a1..a10,
#: margin d - sum a_i t_i).  34 reproducible rows; one further published row
#: (d=6, a=(2,1,0,4,4,1,0,0,0,0), margin 1.417) is not reproducible from the
#: stated coefficients (recomputation gives ~1.677) and is deliberately not
#: part of the reference set.  It still appears in reports as an extreme
#: candidate with its recomputed margin.
TABLE_MILLI: tuple[tuple[int, tuple[int, ...], int], ...] = (
    (3, (1, 0, 0, 3, 1, 0, 0, 0, 0, 0), 1169),
    (3, (1, 1, 0, 2, 2, 1, 0, 0, 0, 0), 500),
    (3, (1, 1, 1, 2, 1, 1, 1, 1, 0, 0), 45),
    (3, (1, 1, 1, 1, 1, 1, 1, 1, 1, 0), 181),
    (4, (1, 0, 0, 4, 1, 0, 0, 0, 0, 0), 1798),
    (4, (0, 0, 0, 3, 3, 0, 0, 0, 0, 0), 1798),
    (4, (2, 1, 0, 3, 2, 0, 0, 0, 0, 0), 1110),
    (4, (1, 1, 1, 3, 2, 1, 1, 0, 0, 0), 564),
    (4, (1, 1, 1, 3, 1, 1, 1, 1, 1, 1), 257),
    (4, (2, 2, 1, 2, 2, 1, 0, 0, 0, 0), 500),
    (4, (2, 1, 1, 2, 2, 1, 1, 1, 1, 0), 93),
    (5, (1, 0, 0, 5, 1, 0, 0, 0, 0, 0), 2426),
    (5, (1, 1, 0, 4, 3, 0, 0, 0, 0, 0), 1730),
    (5, (2, 1, 1, 4, 2, 1, 0, 0, 0, 0), 1098),
    (5, (1, 1, 1, 4, 2, 1, 1, 1, 1, 0), 704),
    (5, (3, 0, 0, 3, 3, 0, 0, 0, 0, 0), 1735),
    (5, (2, 2, 0, 3, 3, 1, 0, 0, 0, 0), 1070),
    (5, (2, 1, 1, 3, 3, 1, 1, 1, 0, 0), 594),
    (5, (2, 2, 1, 3, 2, 2, 1, 0, 0, 0), 532),
    (5, (2, 2, 1, 3, 2, 1, 1, 1, 1, 1), 199),
    (5, (2, 2, 2, 2, 2, 2, 1, 1, 1, 0), 111),
    (6, (1, 0, 0, 6, 1, 0, 0, 0, 0, 0), 3054),
    (6, (2, 0, 0, 5, 3, 0, 0, 0, 0, 0), 2346),
    (6, (1, 1, 1, 5, 3, 1, 0, 0, 0, 0), 1718),
    (6, (2, 2, 0, 5, 2, 1, 0, 0, 0, 0), 1689),
    (6, (2, 1, 1, 5, 2, 1, 1, 1, 0, 0), 1214),
    (6, (3, 2, 0, 4, 3, 0, 0, 0, 0, 0), 1680),
    (6, (3, 1, 1, 4, 3, 1, 1, 0, 0, 0), 1122),
    (6, (2, 2, 1, 4, 3, 2, 0, 0, 0, 0), 1058),
    (6, (2, 2, 1, 4, 3, 1, 1, 1, 1, 0), 646),
    (6, (3, 3, 1, 3, 3, 1, 0, 0, 0, 0), 1070),
    (6, (3, 2, 1, 3, 3, 2, 1, 1, 0, 0), 562),
    (6, (2, 2, 2, 3, 3, 2, 2, 0, 0, 0), 606),
    (6, (2, 2, 2, 3, 3, 2, 1, 1, 1, 1), 195),
)


def __getattr__(name: str):
    """`WITNESS_COEFFS`, `WITNESS_TOLERANCE`, `TABLE_ROWS`, `TABLE_TOLERANCE`:
    the thousandths above as `Fraction`s."""
    if name not in ("WITNESS_COEFFS", "WITNESS_TOLERANCE", "TABLE_ROWS", "TABLE_TOLERANCE"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from fractions import Fraction

    if name == "TABLE_ROWS":
        return tuple((d, a, Fraction(m, 1000)) for d, a, m in TABLE_MILLI)
    if name == "WITNESS_COEFFS":
        return tuple(Fraction(n, 1000) for n in WITNESS_MILLI)
    return Fraction(globals()[f"{name}_MILLI"], 1000)


def deviations(enclosures, references, tolerance: int, bits: int, names) -> tuple[list, int, int]:
    """Each grid enclosure [lo, hi] / 2^bits's largest distance
    max(r - lo / 2^bits, hi / 2^bits - r) from its reference r, and the
    tolerance, as numerators over 1000 2^bits, from references and tolerance
    in thousandths: (distances, tolerance, 1000 2^bits).  Both are proofs:
    every enclosure lies in its band, or one lies wholly outside (its largest
    distance less its width exceeds the tolerance); otherwise the first one
    outside its band, by its name in `names`, straddles the edge, undecided."""
    bound, *refs = (x << bits for x in (tolerance, *references))
    distances = [max(r - lo * 1000, hi * 1000 - r) for (lo, hi), r in zip(enclosures, refs)]
    if not any(x - (hi - lo) * 1000 > bound for x, (lo, hi) in zip(distances, enclosures)):
        name = next((name for name, x in zip(names, distances) if x > bound), None)
        if name is not None:
            raise PrecisionBudgetError(f"{name} enclosure straddles its reference band's edge")
    return distances, bound, 1000 << bits


def witness_matches(witness, bits: int) -> tuple[bool, str]:
    """Whether each t_i is within `WITNESS_TOLERANCE_MILLI` of `WITNESS_MILLI[i]`,
    and why, from numerators (lo, hi) of -t_i over 2^bits (`deviations`)."""
    t = [(-hi, -lo) for lo, hi in witness]
    names = [f"t_{i}" for i in range(1, len(t) + 1)]
    distances, bound, den = deviations(t, WITNESS_MILLI, WITNESS_TOLERANCE_MILLI, bits, names)
    off = [x for x in distances if x > bound]
    if not off:
        return True, f"all coefficients within {max(distances) / den:.2e} of reference"
    return False, f"coefficient off reference by up to {off[0] / den:.4f}"
