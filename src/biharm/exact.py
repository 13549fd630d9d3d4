"""Exact arithmetic substrate: rationals, sparse Laurent polynomials, linear solving.

Everything downstream of this module is built from three ingredients:

  * ``Rational`` — arbitrary-precision fractions (stdlib ``fractions.Fraction``,
    which already guarantees the canonical form we need: reduced to lowest
    terms, positive denominator, zero stored as 0/1);
  * ``LaurentPoly`` — a sparse polynomial in one variable, stored as a dict
    mapping integer exponent -> nonzero coefficient.  Exponents may be
    negative.  The variable is written ``t`` throughout and in the kernel
    modules stands for ``t = 1 - x`` with ``x = |z|^2``;
  * ``solve_linear`` — exact solving of a sparse linear system: fraction-free
    forward elimination in integers (each pivot row divided by its content),
    then back substitution, the only step that forms rationals.
    It returns a unique solution, a particular solution plus a basis of the
    homogeneous space, or an infeasibility verdict.

No floating point enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

Rational = Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

# Sparse polynomial: exponent -> coefficient.  Invariant: no zero values,
# so zero-testing is map emptiness and equality is dict equality.
LaurentPoly = Dict[int, Fraction]


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
        new = out.get(k, ZERO) + c
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
    c = Fraction(c)
    if not c:
        return {}
    return {k: c * v for k, v in p.items()}


def poly_shift(p: LaurentPoly, m: int) -> LaurentPoly:
    """Multiply by t^m, i.e. shift every exponent by m."""
    return {k + m: c for k, c in p.items()}


def poly_diff(p: LaurentPoly) -> LaurentPoly:
    """Derivative with respect to the polynomial's own variable: d/dt."""
    return {k - 1: k * c for k, c in p.items() if k != 0}


def poly_d_dx(p: LaurentPoly) -> LaurentPoly:
    """Derivative in x of a polynomial written in t = 1 - x.

    Chain rule: d/dx t^k = -k t^(k-1), so this is the negated t-derivative.
    """
    return {k - 1: -k * c for k, c in p.items() if k != 0}


def poly_mul_x(p: LaurentPoly) -> LaurentPoly:
    """Multiply by x = 1 - t, staying in the t-representation."""
    return poly_sub(p, poly_shift(p, 1))


def poly_eval(p: LaurentPoly, t: Fraction) -> Fraction:
    """Exact evaluation at a rational point (t != 0 if exponents are negative)."""
    return sum((c * t ** k for k, c in p.items()), ZERO)


# ---------------------------------------------------------------------------
# linear systems


@dataclass(frozen=True)
class RationalLinearSystem:
    """A list of exact linear equations over ``unknowns`` columns.

    Each equation is a sparse row ``{column: coefficient}`` with its
    right-hand side.  Coefficients are ``int`` (the builder's systems) or
    ``Fraction``; absent columns and zero entries stand for zero.  A system
    may have unknowns but no equations, in which case every unknown is free.
    """

    rows: List[Tuple[Dict[int, Fraction | int], Fraction | int]]
    unknowns: int

    def ncols(self) -> int:
        return self.unknowns


@dataclass(frozen=True)
class LinearSolution:
    """Outcome of exact elimination.

    status is "unique", "parametric", or "infeasible".  For the first two,
    ``particular`` is a full solution vector with every free unknown set to
    zero; for "parametric", ``homogeneous`` is a basis of the solution space
    of the associated homogeneous system (one vector per free unknown).
    Infeasibility is a value, not an error.
    """

    status: str
    particular: Tuple[Fraction, ...] = ()
    homogeneous: Tuple[Tuple[Fraction, ...], ...] = ()
    free_columns: Tuple[int, ...] = ()

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"

    @property
    def is_infeasible(self) -> bool:
        return self.status == "infeasible"


def _integer_row(
    coeffs: Dict[int, Fraction | int], b: Fraction | int, ncols: int
) -> Tuple[Dict[int, int], int]:
    """The row scaled by the lcm of its denominators: integer entries, zeros dropped."""
    for j in coeffs:
        if not 0 <= j < ncols:
            raise ValueError(f"column index {j} out of range for {ncols} unknowns")
    den = math.lcm(b.denominator, *(c.denominator for c in coeffs.values()))
    return {j: int(c * den) for j, c in coeffs.items() if c}, int(b * den)


def solve_linear(system: RationalLinearSystem) -> LinearSolution:
    """Exact forward elimination in integers, back substitution over the rationals.

    Columns are eliminated strictly in index order; a column that admits no
    pivot among the rows without one is free.  This makes the partition into
    pivot and free unknowns — and hence the particular solution, which fixes
    every free unknown to zero — a deterministic function of the column
    ordering alone, independent of coefficient magnitudes.  Within a column
    the pivot row is the sparsest available row (ties broken by row index),
    which keeps fill-in low on banded systems.

    Elimination is fraction-free.  Rows with ``Fraction`` entries are first
    cleared of denominators.  A row chosen as pivot is divided by its
    content, the gcd of its entries and right-hand side; then, with pivot
    entry p, row i's entry f and g = gcd(p, f), each update is
    row_i <- (p/g) row_i - (f/g) pivot_row.  (Bareiss's exact division
    needs a fixed pivot sequence, which free columns and sparsest-row
    pivoting do not give.  Removing the content once per pivot row, not
    after every update, spends fewer gcds than the entry growth it lets
    through costs.)  Each row stays a nonzero multiple of the rational row,
    so the pivot sequence and the solution do not depend on the scaling.
    A pivot row is never reduced against later pivots; the pivot unknowns
    are recovered by back substitution from the last pivot column, the only
    step that forms ``Fraction``s.
    """
    ncols = system.ncols()
    # Working copies: integer rows and right-hand sides, plus a column index
    # over the rows that have no pivot yet.
    rows: List[Dict[int, int]] = []
    rhs: List[int] = []
    for coeffs, b in system.rows:
        row, b = _integer_row(coeffs, b, ncols)
        rows.append(row)
        rhs.append(b)
    occupancy: Dict[int, set] = {j: set() for j in range(ncols)}
    for i, row in enumerate(rows):
        for j in row:
            occupancy[j].add(i)

    pivot_of_col: Dict[int, int] = {}  # in ascending column order

    for j in range(ncols):
        if not occupancy[j]:
            continue  # free column
        p = min(occupancy[j], key=lambda i: (len(rows[i]), i))
        pivot_of_col[j] = p
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

    pivoted_rows = set(pivot_of_col.values())
    for i, row in enumerate(rows):
        if i not in pivoted_rows:
            # A row never chosen as pivot is fully eliminated; a leftover
            # right-hand side is a contradiction 0 = b.
            assert not row
            if rhs[i]:
                return LinearSolution(status="infeasible")

    def back_substitute(x: List[Fraction], with_rhs: bool) -> Tuple[Fraction, ...]:
        # Pivot row p of column j reads a_j x_j + sum_{k > j} a_k x_k = b, so
        # the pivot unknowns follow one by one from the last column down.
        # The sum is kept as num / den over a common denominator and reduced
        # once, by the Fraction that becomes x_j.
        for j, p in reversed(pivot_of_col.items()):
            num, den = (rhs[p] if with_rhs else 0), 1
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

    free_cols = tuple(j for j in range(ncols) if j not in pivot_of_col)
    particular = back_substitute([ZERO] * ncols, with_rhs=True)
    if not free_cols:
        return LinearSolution(status="unique", particular=particular)

    basis: List[Tuple[Fraction, ...]] = []
    for f in free_cols:
        vec = [ZERO] * ncols
        vec[f] = ONE
        basis.append(back_substitute(vec, with_rhs=False))
    return LinearSolution(
        status="parametric",
        particular=particular,
        homogeneous=tuple(basis),
        free_columns=free_cols,
    )
