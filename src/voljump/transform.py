"""Integer isometries of the blow-up lattice and the fixed composite map.

The generators are the class action of a quadratic Cremona transformation
based at three of the ten points, and basis permutations fixing H.  The
composite map used throughout the package is the Cremona block on
(H, E1, E2, E3) applied after rotating the exceptional coordinates by three
slots, so the E1..E3 coefficients of the input land where the Cremona acts.

Whether that composite (rather than one of its transpose/inverse relatives)
is the intended map is not decidable from the block notation alone; it is
pinned down by the orientation oracle in `spectral.select_orientation`,
which matches the dominant-eigenvector data against the reference
coefficients in `reference`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import mul
from typing import Iterable, Sequence

from .lattice import RANK, GRAM_DIAGONAL, DivisorClass


@dataclass(frozen=True)
class LatticeIsometry:
    """An 11x11 exact integer matrix acting on divisor-class coefficients.

    The name records the intended contract (preserve the intersection form,
    determinant +-1); `verify_isometry` checks it.  Arbitrary integer
    matrices can be constructed, e.g. to exercise the checker.
    """

    rows: tuple[tuple[int, ...], ...]

    def __init__(self, rows: Iterable[Iterable[int]]):
        matrix = tuple(tuple(int(x) for x in row) for row in rows)
        if len(matrix) != RANK or any(len(r) != RANK for r in matrix):
            raise ValueError(f"matrix must be {RANK}x{RANK}")
        object.__setattr__(self, "rows", matrix)

    @classmethod
    def identity(cls) -> "LatticeIsometry":
        return cls(
            tuple(1 if i == j else 0 for j in range(RANK)) for i in range(RANK)
        )

    def __matmul__(self, other: "LatticeIsometry") -> "LatticeIsometry":
        a, b = self.rows, other.rows
        return LatticeIsometry(
            tuple(sum(a[i][k] * b[k][j] for k in range(RANK)) for j in range(RANK))
            for i in range(RANK)
        )

    def power(self, n: int) -> "LatticeIsometry":
        """Exact n-th power by repeated squaring, n >= 0."""
        if n < 0:
            raise ValueError("negative powers not supported")
        result = LatticeIsometry.identity()
        base = self
        while n:
            if n & 1:
                result = result @ base
            base = base @ base
            n >>= 1
        return result

    def determinant(self) -> int:
        """Exact integer determinant (fraction-free Bareiss elimination)."""
        m = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for k in range(RANK - 1):
            if m[k][k] == 0:
                for r in range(k + 1, RANK):
                    if m[r][k] != 0:
                        m[k], m[r] = m[r], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, RANK):
                for j in range(k + 1, RANK):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[RANK - 1][RANK - 1]


def apply(m: LatticeIsometry, c: DivisorClass) -> DivisorClass:
    """Exact matrix-vector action on a divisor class."""
    return DivisorClass(
        sum(row[j] * c.coeffs[j] for j in range(RANK)) for row in m.rows
    )


def apply_integers(m: LatticeIsometry, v: Sequence[int]) -> tuple[int, ...]:
    """Matrix-vector action on a bare integer coefficient vector."""
    return tuple(sum(map(mul, row, v)) for row in m.rows)


@dataclass(frozen=True)
class IsometryCheck:
    """Outcome of the form-preservation check M^T G M = G.

    `residual` is M^T G M - G when the check fails, None otherwise.
    """

    ok: bool
    residual: tuple[tuple[int, ...], ...] | None = None


def verify_isometry(m: LatticeIsometry) -> IsometryCheck:
    """Check exactly that m preserves the intersection form."""
    rows = m.rows
    residual = []
    ok = True
    for i in range(RANK):
        res_row = []
        for j in range(RANK):
            # (M^T G M)[i][j] = sum_k M[k][i] * g_k * M[k][j]
            entry = sum(rows[k][i] * GRAM_DIAGONAL[k] * rows[k][j] for k in range(RANK))
            expected = GRAM_DIAGONAL[i] if i == j else 0
            res_row.append(entry - expected)
            if entry != expected:
                ok = False
        residual.append(tuple(res_row))
    return IsometryCheck(ok, None if ok else tuple(residual))


def cremona_isometry(c1: int, c2: int, c3: int) -> LatticeIsometry:
    """Class action of the quadratic Cremona map based at points c1, c2, c3.

    H -> 2H - E_c1 - E_c2 - E_c3, E_c1 -> H - E_c2 - E_c3 (and cyclically),
    all other exceptional classes fixed.  An involution on classes.
    """
    centers = (c1, c2, c3)
    if len(set(centers)) != 3:
        raise ValueError(f"Cremona centers must be pairwise distinct, got {centers}")
    for c in centers:
        if not 1 <= c <= 10:
            raise ValueError(f"Cremona center out of range 1..10: {c}")
    cols = [[0] * RANK for _ in range(RANK)]
    for i in range(RANK):
        cols[i][i] = 1
    cols[0] = [0] * RANK
    cols[0][0] = 2
    for c in centers:
        cols[0][c] = -1
    for c, others in ((c1, (c2, c3)), (c2, (c1, c3)), (c3, (c1, c2))):
        col = [0] * RANK
        col[0] = 1
        for o in others:
            col[o] = -1
        cols[c] = col
    return LatticeIsometry(
        tuple(cols[j][i] for j in range(RANK)) for i in range(RANK)
    )


def permutation_isometry(images: Sequence[int]) -> LatticeIsometry:
    """Permutation of basis vectors: basis slot i maps to slot images[i].

    Indices are 0-based with slot 0 = H.  The permutation must fix H
    (a permutation mixing H with an exceptional class is no isometry,
    since H and E_i have different self-pairing).
    """
    if sorted(images) != list(range(RANK)):
        raise ValueError(f"not a permutation of 0..{RANK - 1}: {list(images)}")
    if images[0] != 0:
        raise ValueError("permutation must fix the hyperplane slot (index 0)")
    rows = [[0] * RANK for _ in range(RANK)]
    for i, target in enumerate(images):
        rows[target][i] = 1
    return LatticeIsometry(rows)


def exceptional_shift(k: int) -> LatticeIsometry:
    """Cyclic rotation of the exceptional classes: E_i -> E_{i+k mod 10}."""
    images = [0] + [(i - 1 + k) % 10 + 1 for i in range(1, 11)]
    return permutation_isometry(images)


@lru_cache(maxsize=1)
def composite_T() -> LatticeIsometry:
    """The fixed composite map: Cremona block after a 3-slot rotation.

    Rotating by three puts the old E8, E9, E10 coefficients into the
    E1, E2, E3 slots, where the Cremona block diag(M, I7) then acts; this
    mirrors the point relabeling (p1..p10) -> (p8, p9, p10, Cr(p1..p7)).
    The choice is certified at runtime against the reference coefficients
    (see `spectral.select_orientation`).
    """
    return cremona_isometry(1, 2, 3) @ exceptional_shift(3)


def candidate_composites() -> dict[str, LatticeIsometry]:
    """All defensible readings of the composite's block notation.

    Varies the Cremona slot placement, the rotation amount/direction (cycle
    vs one-line reading of the permutation, both inverses), and the
    composition order.  Matrices coinciding under different readings are
    deduplicated with their names joined by " = ".
    """
    named: dict[str, LatticeIsometry] = {}
    for slots in ((1, 2, 3), (8, 9, 10)):
        a = cremona_isometry(*slots)
        slot_tag = f"cremona{slots}"
        for shift in (1, -1, 3, -3):
            b = exceptional_shift(shift)
            for order, matrix in (
                ("rotate-then-cremona", a @ b),
                ("cremona-then-rotate", b @ a),
            ):
                named[f"{slot_tag}, shift{shift:+d}, {order}"] = matrix
    grouped: dict[LatticeIsometry, list[str]] = {}
    for name, matrix in named.items():
        grouped.setdefault(matrix, []).append(name)
    return {" = ".join(sorted(names)): matrix for matrix, names in grouped.items()}

