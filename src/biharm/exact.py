"""Exact arithmetic substrate: rationals, sparse Laurent polynomials, linear solving.

Everything downstream of this module is built from four ingredients:

  * ``Rational`` — exact fractions of any size (stdlib ``fractions.Fraction``,
    which already guarantees the canonical form we need: reduced to lowest
    terms, positive denominator, zero stored as 0/1);
  * ``LaurentPoly`` — a sparse polynomial in one variable, stored as a dict
    mapping integer exponent -> coefficient, a nonzero ``int`` or
    ``Fraction``.  Exponents may be negative; the kernel modules form
    sums and products where they need them, on denominator-cleared ``int``
    coefficients where they can.  The variable is written ``t`` throughout
    and in the kernel modules stands for ``t = 1 - x`` with ``x = |z|^2``;
  * ``solve_linear`` — exact solving of a sparse integer linear system
    with one or more right-hand sides, carried as extra columns of the
    augmented rows: one fraction-free forward elimination (each pivot row
    divided by its content, pivot rows found by their leading column),
    then one back substitution per right-hand side over one common scale.
    It forms no rationals: it returns the unique solution of each as
    integer numerators over a scale, or ``None`` when one has none;
  * ``bernstein_coefficients`` and ``isolate_roots`` — the real roots of an
    integer polynomial on an interval, isolated by de Casteljau bisection
    of its Bernstein form in integers.

No floating point enters this module.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

Rational = Fraction

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
# linear systems


@dataclass(frozen=True)
class RationalLinearSystem:
    """A list of exact linear equations over ``unknowns`` columns, with one
    or more right-hand sides.

    Each equation is a sparse integer row ``{column: coefficient}`` with a
    tuple of integer right-hand sides, one per system to solve; every row's
    tuple has the same length.  Absent columns and zero entries stand for
    zero.  A system may have unknowns but no equations.
    """

    rows: List[Tuple[Dict[int, int], Tuple[int, ...]]]
    unknowns: int

    def ncols(self) -> int:
        return self.unknowns


def solve_linear(system: RationalLinearSystem) -> Optional[Tuple[Tuple[Tuple[int, ...], int], ...]]:
    """The unique solution for each right-hand side, in their order, as
    (numerators, scale): the solution is numerators / scale, with scale >= 1
    and gcd(scale, *numerators) = 1.  ``None`` if some right-hand side has
    no unique solution: a column admits no pivot, or a leftover row reads
    0 = b.  No rationals are formed: forward elimination and back
    substitution both run in integers.

    The right-hand sides ride along as extra columns ``ncols, ncols + 1,
    ...`` of each sparse row, so a zero right-hand side stores nothing, and
    one elimination serves them all.  Columns are eliminated in index order.
    Once the columns before j are eliminated, the rows that still hold
    column j are exactly the rows that lead with it, so the rows without a
    pivot are kept in buckets by their leading column, and a row moves to
    its new bucket once per update.  A column's pivot row is the first row
    of its bucket, the earliest to lead with it.  Fill-in and integer
    growth therefore follow the caller's column numbering: a caller whose
    system is banded in some order of its columns numbers them in that
    order (the builder numbers its columns along the grid diagonals).

    Elimination is fraction-free.  A row chosen as pivot is divided by its
    content, the gcd of its entries, right-hand sides included; then, with
    pivot entry p, row i's entry f and g = gcd(p, f), each update is
    row_i <- (p/g) row_i - (f/g) pivot_row.  (Bareiss's exact division
    would also scale every row a pivot does not reach.  Removing the
    content once per pivot row, not after every update, spends fewer gcds
    than the entry growth it lets through costs.)  A pivot row is never
    reduced against later pivots; the unknowns are recovered by back
    substitution from the last column, over one common scale per
    right-hand side that grows only when an unknown needs it.
    """
    ncols = system.ncols()
    nrhs = len(system.rows[0][1]) if system.rows else 0
    # Working copies of the augmented rows, and the rows without a pivot
    # bucketed by their leading column.
    rows: List[Dict[int, int]] = []
    for coeffs, rhs in system.rows:
        if len(rhs) != nrhs:
            raise ValueError(f"a row has {len(rhs)} right-hand sides, the first has {nrhs}")
        if coeffs and not (min(coeffs) >= 0 and max(coeffs) < ncols):
            bad = min(coeffs) if min(coeffs) < 0 else max(coeffs)
            raise ValueError(f"column index {bad} out of range for {ncols} unknowns")
        row = {j: c for j, c in coeffs.items() if c}
        if any(rhs):
            row.update((ncols + r, b) for r, b in enumerate(rhs) if b)
        rows.append(row)
    leading: Dict[int, List[int]] = {}
    for i, row in enumerate(rows):
        if row:
            leading.setdefault(min(row), []).append(i)

    pivot_rows: List[Dict[int, int]] = []  # of each column, in order

    for j in range(ncols):
        bucket = leading.pop(j, None)
        if bucket is None:
            return None  # no pivot: the solution is not unique
        prow = rows[bucket[0]]
        pivot_rows.append(prow)
        content = math.gcd(*prow.values())
        if content > 1:
            for k in prow:
                prow[k] //= content
        pivot = prow[j]

        # Eliminate column j from the other rows that lead with it.
        for i in bucket[1:]:
            target = rows[i]
            g = math.gcd(pivot, target[j])
            mult, factor = pivot // g, target[j] // g
            if mult != 1:
                for k in target:
                    target[k] *= mult
            for k, c in prow.items():
                new = target.get(k, 0) - factor * c
                if new:
                    target[k] = new
                else:
                    del target[k]  # factor * c != 0, so k was there
            if target:
                leading.setdefault(min(target), []).append(i)

    # A row never chosen as pivot is eliminated down to its right-hand
    # sides; one still holding an entry is a contradiction 0 = b.
    if leading:
        return None

    # Pivot row of column j reads a_j x_j + sum_{k > j} a_k x_k = b_r.  With
    # x_(ncols + r) = -1 and the other right-hand-side columns 0, that is
    # a_j x_j = -sum_{k != j} a_k x_k over the whole augmented row, so the
    # unknowns of each right-hand side follow one by one from the last
    # column down.  They are kept as integers X over one scale D, x = X / D.
    # When a_j does not divide S = D a_j x_j, D and X are lifted by the
    # least m for which it does: D m is then the lcm of the denominators
    # so far, so gcd(D, X) = 1 at the end.
    diagonal = [prow.pop(j) for j, prow in enumerate(pivot_rows)]
    solutions = []
    for r in range(nrhs):
        xs = [0] * ncols + [-1 if s == r else 0 for s in range(nrhs)]
        scale = 1
        for j in reversed(range(ncols)):
            a = diagonal[j]
            total = 0
            for k, c in pivot_rows[j].items():
                total -= c * xs[k]
            if total % a:
                m = abs(a) // math.gcd(total, a)
                scale *= m
                xs = [x * m for x in xs]
                total *= m
            xs[j] = total // a
        solutions.append((tuple(xs[:ncols]), scale))
    return tuple(solutions)


# ---------------------------------------------------------------------------
# real roots in Bernstein form

# isolate_roots stops bisecting at pieces of width 2^-_MAX_DEPTH, far below
# the float resolution of any root in (0, 1) that a radius r < 1 produces.
_MAX_DEPTH = 200


def _primitive(b: List[int]) -> List[int]:
    """b divided by the gcd of its entries (unchanged if all are 0)."""
    g = math.gcd(*b)
    return [c // g for c in b] if g > 1 else b


def bernstein_coefficients(p: Sequence[int], a: int, c: int, d: int) -> List[int]:
    """Bernstein coefficients of sum_j p[j] q^j on the interval [a/d, c/d],
    times a positive integer (so with their signs), in lowest terms.

    With q = (a s + c lam) / d on s + lam = 1, the polynomial is
    H(s, lam) / d^n, H = sum_j p[j] (a s + c lam)^j (d (s + lam))^(n - j),
    built by Horner's rule one degree at a time.  Its coefficient of
    s^(n-i) lam^i is C(n, i) d^n times the i-th Bernstein coefficient, so
    times i! (n - i)! it is n! d^n times that coefficient.
    """
    n = len(p) - 1
    h = [p[n]]
    dk = 1
    for k in range(1, n + 1):
        dk *= d
        low = p[n - k] * dk
        nxt = [a * x for x in h]
        nxt.append(0)
        for i, x in enumerate(h):
            nxt[i + 1] += c * x
        for i in range(k + 1):
            nxt[i] += low * binom(k, i)
        h = nxt
    return _primitive([x * math.factorial(i) * math.factorial(n - i) for i, x in enumerate(h)])


def _sign_variations(b: List[int]) -> int:
    """Sign changes along b, zeros skipped; counting stops at 2."""
    changes, last = 0, 0
    for c in b:
        if c:
            if last and (c > 0) != (last > 0):
                changes += 1
                if changes == 2:
                    break
            last = c
    return changes


def _without_twos(b: List[int]) -> List[int]:
    """b divided by the largest power of two dividing all its entries
    (unchanged if all are 0): the lowest set bit of their bitwise or."""
    bits = functools.reduce(operator.or_, b, 0)
    shift = (bits & -bits).bit_length() - 1
    return [c >> shift for c in b] if shift > 0 else b


def _halves(b: List[int]) -> Tuple[List[int], List[int]]:
    """Bernstein coefficients of the halves [0, 1/2] and [1/2, 1], each up to
    a positive factor, by de Casteljau's algorithm in integers: row k of sums
    b_i + b_(i+1) is 2^k times row k of the averages, so every entry is
    scaled by 2^n.  That scale, the common power of two, is divided out
    again; a full gcd is not taken, since on wide integers it costs more
    than the halving, and every one measured was a power of two anyway."""
    n = len(b) - 1
    left, right = [0] * (n + 1), [0] * (n + 1)
    row = b
    for k in range(n + 1):
        if k:
            row = [x + y for x, y in zip(row, row[1:])]
        left[k] = row[0] << (n - k)
        right[n - k] = row[-1] << (n - k)
    return _without_twos(left), _without_twos(right)


def isolate_roots(b: List[int]) -> List[Tuple[int, int, Optional[List[int]]]]:
    """The real roots in (0, 1) of the polynomial with Bernstein coefficients
    b, in increasing order, each as (k, depth, piece) with dyadic position
    k / 2^depth:

    * piece ``None``: a root exactly at k / 2^depth;
    * otherwise the interval [k / 2^depth, (k + 1) / 2^depth] holds exactly
      one root, a simple one, in its interior, and piece is the polynomial's
      Bernstein form on it up to a positive factor (``_halves``), so with
      its signs.

    A piece whose coefficients show no sign change has no root in its
    interior, and one with a single change has exactly one simple root
    (Descartes' rule of signs in Bernstein form); any other piece is halved
    (Collins & Akritas 1976).  The midpoint of a halved piece is tested
    apart, since the count of either half cannot see a root there.  A
    piece still undecided at width 2^-_MAX_DEPTH (a multiple root or a
    cluster) is returned as one root at its midpoint.  All zeros: no roots.
    """
    found = []
    # Depth first, left before right; an exact root waits on the stack
    # between the two halves it separates.
    stack = [(0, 0, b)]
    while stack:
        k, depth, piece = stack.pop()
        changes = 1 if piece is None else _sign_variations(piece)
        if changes == 1:
            found.append((k, depth, piece))
        elif changes and depth == _MAX_DEPTH:
            found.append((2 * k + 1, depth + 1, None))
        elif changes:
            left, right = _halves(piece)
            stack.append((2 * k + 1, depth + 1, right))
            if left[-1] == 0:
                stack.append((2 * k + 1, depth + 1, None))
            stack.append((2 * k, depth + 1, left))
    return found
