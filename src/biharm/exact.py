"""Exact arithmetic substrate: rationals, sparse Laurent polynomials, linear solving.

Everything downstream of this module is built from three ingredients:

  * ``Rational`` — arbitrary-precision fractions (stdlib ``fractions.Fraction``,
    which already guarantees the canonical form we need: reduced to lowest
    terms, positive denominator, zero stored as 0/1);
  * ``LaurentPoly`` — a sparse polynomial in one variable, stored as a dict
    mapping integer exponent -> nonzero coefficient.  Exponents may be
    negative.  The variable is written ``t`` throughout and in the kernel
    modules stands for ``t = 1 - x`` with ``x = |z|^2``;
  * ``solve_linear`` — exact forward elimination with back substitution
    over the rationals, returning a unique solution, a particular solution
    plus a basis of the homogeneous space, or an infeasibility verdict.

No floating point enters this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

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


def poly_from_terms(terms: Sequence[Tuple[int, Fraction | int]]) -> LaurentPoly:
    """Sum of c * t^k over (k, c) pairs; repeated exponents accumulate."""
    out: LaurentPoly = {}
    for k, c in terms:
        new = out.get(k, ZERO) + Fraction(c)
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return out


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


def poly_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out: LaurentPoly = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            k = kp + kq
            new = out.get(k, ZERO) + cp * cq
            if new:
                out[k] = new
            else:
                out.pop(k, None)
    return out


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
    """A list of exact linear equations: (coefficient vector, right-hand side).

    All coefficient vectors must share one length (the unknown count).  A
    system may have unknowns but no equations — every unknown is then free —
    so the unknown count can be given explicitly; otherwise it is read off
    the first row.
    """

    rows: List[Tuple[List[Fraction], Fraction]]
    unknowns: int | None = None

    def ncols(self) -> int:
        if self.unknowns is not None:
            return self.unknowns
        return len(self.rows[0][0]) if self.rows else 0


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


def solve_linear(system: RationalLinearSystem) -> LinearSolution:
    """Exact forward elimination and back substitution over the rationals.

    Columns are eliminated strictly in index order; a column that admits no
    pivot among the rows without one is free.  This makes the partition into
    pivot and free unknowns — and hence the particular solution, which fixes
    every free unknown to zero — a deterministic function of the column
    ordering alone, independent of coefficient magnitudes.  Within a column
    the pivot row is the sparsest available row (ties broken by row index),
    which keeps fill-in low on banded systems.  A pivot row is never reduced
    against later pivots; the pivot unknowns are recovered by back
    substitution from the last pivot column.
    """
    ncols = system.ncols()
    for vec, _ in system.rows:
        if len(vec) != ncols:
            raise ValueError("ragged system: rows of unequal length")

    # Sparse working copies: row -> {col: coeff}, plus rhs and a column index
    # over the rows that have no pivot yet.
    rows: List[Dict[int, Fraction]] = []
    rhs: List[Fraction] = []
    for vec, b in system.rows:
        rows.append({j: c for j, c in enumerate(vec) if c})
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
        for k in rows[p]:
            occupancy[k].discard(p)

        # Normalize the pivot row so its leading entry is 1.
        inv = 1 / rows[p][j]
        if inv != 1:
            rows[p] = {k: c * inv for k, c in rows[p].items()}
            rhs[p] *= inv
        prow = rows[p]

        # Eliminate column j from the rows that have no pivot yet.
        for i in list(occupancy[j]):
            factor = rows[i][j]
            target = rows[i]
            for k, c in prow.items():
                new = target.get(k, ZERO) - factor * c
                if new:
                    if k not in target:
                        occupancy[k].add(i)
                    target[k] = new
                else:
                    target.pop(k, None)
                    occupancy[k].discard(i)
            rhs[i] -= factor * rhs[p]

    pivoted_rows = set(pivot_of_col.values())
    for i, row in enumerate(rows):
        if i not in pivoted_rows:
            # A row never chosen as pivot is fully eliminated; a leftover
            # right-hand side is a contradiction 0 = b.
            assert not row
            if rhs[i]:
                return LinearSolution(status="infeasible")

    def back_substitute(x: List[Fraction], with_rhs: bool) -> Tuple[Fraction, ...]:
        # Pivot row p of column j reads x_j + sum_{k > j} a_k x_k = b, so the
        # pivot unknowns follow one by one from the last column down.
        for j, p in reversed(pivot_of_col.items()):
            value = rhs[p] if with_rhs else ZERO
            for k, c in rows[p].items():
                if k != j and x[k]:
                    value -= c * x[k]
            x[j] = value
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
