"""Exact arithmetic substrate: rationals, sparse Laurent polynomials, linear solving.

Everything downstream of this module is built from three ingredients:

  * ``Rational`` — exact fractions of any size (stdlib ``fractions.Fraction``,
    which already guarantees the canonical form we need: reduced to lowest
    terms, positive denominator, zero stored as 0/1);
  * ``LaurentPoly`` — a sparse polynomial in one variable, stored as a dict
    mapping integer exponent -> coefficient, a nonzero ``int`` or
    ``Fraction``.  Exponents may be negative.  The operations below keep
    ``int`` coefficients ``int`` until a ``Fraction`` enters, so a pass over
    denominator-cleared coefficients runs in integers.  The variable is
    written ``t`` throughout and in the kernel modules stands for
    ``t = 1 - x`` with ``x = |z|^2``;
  * ``solve_linear`` — exact solving of a sparse integer linear system:
    fraction-free forward elimination (each pivot row divided by its
    content), then back substitution, the only step that forms rationals.
    It returns the unique solution, or ``None`` when there is none.

No floating point enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

Rational = Fraction

ZERO = Fraction(0)

# Sparse polynomial: exponent -> coefficient, a nonzero int or Fraction.
# Invariant: no zero values, so zero-testing is map emptiness and equality
# is dict equality (an int equals the Fraction of the same value).
LaurentPoly = Dict[int, Fraction | int]


# ---------------------------------------------------------------------------
# integers


def binom(n: int, r: int) -> int:
    """Binomial coefficient C(n, r) with C(n, r) = 0 for r < 0 or r > n.

    Exact big-integer evaluation; ``n`` must be nonnegative.
    """
    if n < 0:
        raise ValueError(f"binom: negative upper index n={n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)


# ---------------------------------------------------------------------------
# polynomials


def poly_add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out = dict(p)
    for k, c in q.items():
        new = out.get(k, 0) + c
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return out


def poly_neg(p: LaurentPoly) -> LaurentPoly:
    return {k: -c for k, c in p.items()}


def poly_sub(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    return poly_add(p, poly_neg(q))


def poly_scale(c: Fraction | int, p: LaurentPoly) -> LaurentPoly:
    """c * p.  An ``int`` factor stays an ``int``; any other factor is taken
    exactly as ``Fraction(c)``."""
    if not isinstance(c, int):
        c = Fraction(c)
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def poly_shift(p: LaurentPoly, m: int) -> LaurentPoly:
    """Multiply by t^m, i.e. shift every exponent by m."""
    return {k + m: c for k, c in p.items()}


def poly_d_dx(p: LaurentPoly) -> LaurentPoly:
    """Derivative in x of a polynomial written in t = 1 - x.

    Chain rule: d/dx t^k = -k t^(k-1), so this is the negated t-derivative.
    """
    return {k - 1: -k * c for k, c in p.items() if k != 0}


def poly_mul_x(p: LaurentPoly) -> LaurentPoly:
    """Multiply by x = 1 - t, staying in the t-representation."""
    return poly_sub(p, poly_shift(p, 1))


# ---------------------------------------------------------------------------
# linear systems


@dataclass(frozen=True)
class RationalLinearSystem:
    """A list of exact linear equations over ``unknowns`` columns.

    Each equation is a sparse integer row ``{column: coefficient}`` with an
    integer right-hand side; absent columns and zero entries stand for zero.
    A system may have unknowns but no equations.
    """

    rows: List[Tuple[Dict[int, int], int]]
    unknowns: int

    def ncols(self) -> int:
        return self.unknowns


def solve_linear(system: RationalLinearSystem) -> Optional[Tuple[Fraction, ...]]:
    """The unique solution, by forward elimination in integers and back
    substitution over the rationals; ``None`` if the system has no unique
    solution: a column admits no pivot, or a leftover row reads 0 = b.

    Columns are eliminated in index order, and within a column the pivot row
    is the sparsest available row (ties broken by row index), which keeps
    fill-in low on banded systems.

    Elimination is fraction-free.  A row chosen as pivot is divided by its
    content, the gcd of its entries and right-hand side; then, with pivot
    entry p, row i's entry f and g = gcd(p, f), each update is
    row_i <- (p/g) row_i - (f/g) pivot_row.  (Bareiss's exact division
    needs a fixed pivot sequence, which sparsest-row pivoting does not give.
    Removing the content once per pivot row, not after every update, spends
    fewer gcds than the entry growth it lets through costs.)  A pivot row is
    never reduced against later pivots; the unknowns are recovered by back
    substitution from the last column, the only step that forms
    ``Fraction``s.
    """
    ncols = system.ncols()
    # Working copies of the rows and right-hand sides, plus a column index
    # over the rows that have no pivot yet.
    rows: List[Dict[int, int]] = []
    rhs: List[int] = []
    for coeffs, b in system.rows:
        for j in coeffs:
            if not 0 <= j < ncols:
                raise ValueError(f"column index {j} out of range for {ncols} unknowns")
        rows.append({j: c for j, c in coeffs.items() if c})
        rhs.append(b)
    occupancy: Dict[int, set] = {j: set() for j in range(ncols)}
    for i, row in enumerate(rows):
        for j in row:
            occupancy[j].add(i)

    pivots: List[int] = []  # pivot row of each column

    for j in range(ncols):
        if not occupancy[j]:
            return None  # no pivot: the solution is not unique
        p = min(occupancy[j], key=lambda i: (len(rows[i]), i))
        pivots.append(p)
        prow = rows[p]
        for k in prow:
            occupancy[k].discard(p)
        content = math.gcd(rhs[p], *prow.values())
        if content > 1:
            for k in prow:
                prow[k] //= content
            rhs[p] //= content
        pivot = prow[j]

        # Eliminate column j from the rows that have no pivot yet.
        for i in list(occupancy[j]):
            target = rows[i]
            g = math.gcd(pivot, target[j])
            mult, factor = pivot // g, target[j] // g
            if mult != 1:
                for k in target:
                    target[k] *= mult
            for k, c in prow.items():
                new = target.get(k, 0) - factor * c
                if new:
                    if k not in target:
                        occupancy[k].add(i)
                    target[k] = new
                else:
                    target.pop(k, None)
                    occupancy[k].discard(i)
            rhs[i] = mult * rhs[i] - factor * rhs[p]

    # A row never chosen as pivot is fully eliminated; a leftover right-hand
    # side is a contradiction 0 = b.
    pivoted = set(pivots)
    if any(b for i, b in enumerate(rhs) if i not in pivoted):
        return None

    # Pivot row p of column j reads a_j x_j + sum_{k > j} a_k x_k = b, so the
    # unknowns follow one by one from the last column down.  The sum is kept
    # as num / den over a common denominator and reduced once, by the
    # Fraction that becomes x_j.
    x = [ZERO] * ncols
    for j in reversed(range(ncols)):
        p = pivots[j]
        num, den = rhs[p], 1
        for k, c in rows[p].items():
            v = x[k]
            if k != j and v:
                vden = v.denominator
                if vden == den:
                    num -= c * v.numerator
                else:
                    g = math.gcd(den, vden)
                    num = num * (vden // g) - c * v.numerator * (den // g)
                    den *= vden // g
        x[j] = Fraction(num, den * rows[p][j])
    return tuple(x)
