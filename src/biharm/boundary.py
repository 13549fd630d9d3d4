"""Exact circular Fourier coefficients and boundary data of building-block
terms t^k / |1-z|^(2 beta).

On |z| = r, with s = r^2 and t = 1 - s, expanding (1-z)^(-beta) and
(1-zbar)^(-beta) binomially and applying Euler's transformation gives the
n-th Fourier coefficient

    r^|n| t^(k + 1 - 2 beta) C(|n| + beta - 1, |n|) 2F1(|n| + 1 - beta, 1 - beta; |n| + 1; s).

The 2F1 terminates at degree beta - 1 (``fourier_poly``), so after r^|n|
the coefficient is exact over the rationals; ``radial_ratio`` sums it over
the bands of an expansion.  Its n = 0 case p(s) = sum_j C(beta - 1, j)^2 s^j
is the integral mean of t^(2 beta - 1) / |1-z|^(2 beta).  Its coefficients
are integers.  Horner's rule runs in integers over one common denominator:
with s = m / d and t = (d - m) / d, each band and each Fourier polynomial is
an integer Horner sum over a power of d (and the kernel's own scale, over
which it holds its coefficients as integers), and the bands are added
over one common denominator.  That one integer Horner sum (``horner``) also
gives numeric's Bernstein form its bands.

For F and H the same multipliers follow without the kernels, from the
Dirichlet problem they solve (``dirichlet_factor``).  For data e^(i n theta)
the solution is u = z^n (A + C phi(|z|^2)), and its conjugate form with
zbar^|n| for n < 0, where

    phi(x) = sum_{j=0..gamma} (-1)^j C(gamma, j) x^(j+1) / ((|n|+j+1)(j+1))

is the solution regular at 0 of (x^(|n|+1) phi')' = x^|n| (1 - x)^gamma.
Then D u = C z^n w, so w^-1 D u is analytic and D w^-1 D u = 0.  On
|z| = 1, u = A + C phi(1) and -d_r u = -|n| u - 2 C phi'(1), with
phi'(1) = B(|n| + 1, gamma + 1).  So
F (u = 1, -d_r u = 0) has multiplier 1 + |n| (phi(1) - phi(s)) / (2 phi'(1))
and H (u = 0, -d_r u = 1) has (phi(1) - phi(s)) / (2 phi'(1)), times r^|n|:
a polynomial of degree gamma + 1 in s, O(gamma) integer operations per
harmonic over the denominator lcm_j (|n|+j+1)(j+1) d^(gamma+1).  The built
kernels' ``radial_ratio`` is the same rational.  What depends on (gamma, |n|)
alone, the lcm, the a_j = lcm times phi's coefficients, their sum and
(|n|+gamma+1) C(|n|+gamma, |n|) = 1 / phi'(1), is one table, made once and
kept in a cache bounded by _ODE_TABLES entries; F and H share it
(``_ode_table``).

Both multipliers are computed in integers, ``radial_ratio`` and
``dirichlet_ratio``, which take s as the integers m and d and return the
integer numerator and denominator; ``dirichlet_factor`` forms one Fraction
of them.  numeric rounds num / den instead: Python's int / int is correctly
rounded, so the float is float() of the Fraction bit for bit, without
normalizing a Fraction of integers several hundred bits wide.

As r -> 1 the circular means of u = t^k / |1-z|^(2 beta) concentrate at
z = 1: tested against a smooth function phi,

    <u_r, phi> = a phi(1) + b (1 - r) phi(1) + O((1 - r)^2),

so the boundary value is a * delta_1 and the inward normal derivative is
b * delta_1.  Expanding (1 - s)^(k - 2 beta + 1) p(s) at s = 1 gives

    k = 2 beta - 1  ->  (a, b) = (p(1), -2 p'(1))
    k = 2 beta      ->  (0, 2 p(1))
    k >= 2 beta + 1 ->  (0, 0)

while k < 2 beta - 1 means the mean diverges or tends to a non-delta limit
and is rejected.  Since p(1) = sum_j C(beta - 1, j)^2 = C(2 beta - 2, beta - 1)
and p'(1) = (beta - 1) p(1) / 2, a term's pair (``term_boundary``) is
(c, -(beta - 1) c) at k = 2 beta - 1 and (0, 2 c) at k = 2 beta, with
c = C(2 beta - 2, beta - 1).  ``expansion_boundary`` sums it over the
terms of an expansion, and the builder takes its boundary rows from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Tuple

from .exact import LaurentPoly, Rational, binom
from .operators import KernelExpansion, check_gamma, check_kind

# The most (gamma, |n|) tables of phi_|n| that dirichlet_ratio keeps.  One
# at gamma 80 holds 81 integers of up to 300 bits, about 6 KB.
_ODE_TABLES = 256


class NonDeltaBoundaryError(ValueError):
    """Raised for terms t^k / |1-z|^(2 beta) with k < 2 beta - 1, whose
    boundary behavior is not a multiple of delta_1."""


@dataclass(frozen=True)
class BoundaryData:
    """delta_1 coefficients of (boundary value, inward normal derivative)."""

    a: Rational
    b: Rational


def fourier_poly(beta: int, n: int) -> LaurentPoly:
    """C(|n| + beta - 1, |n|) 2F1(|n| + 1 - beta, 1 - beta; |n| + 1; s) as a
    polynomial in s, of degree at most beta - 1 (beta >= 1).

    It is t^(2 beta - 1) times the integer series sum_k C(k + beta - 1, k)
    C(k + |n| + beta - 1, k + |n|) s^k, so every coefficient is an int and
    each step of the recurrence divides exactly."""
    n = abs(n)
    coeffs: LaurentPoly = {}
    c = binom(n + beta - 1, n)
    for j in range(beta):
        if not c:
            break
        coeffs[j] = c
        c = c * (n + 1 - beta + j) * (1 - beta + j) // ((n + 1 + j) * (j + 1))
    return coeffs


def horner(coeffs: Sequence[int], x: int, y: int) -> int:
    """sum_i coeffs[i] x^i y^(d - i), d = len(coeffs) - 1: the polynomial at
    x / y times y^d, by Horner's rule in integers."""
    total, power = 0, 1
    for c in reversed(coeffs):
        total = total * x + c * power
        power *= y
    return total


def radial_ratio(kernel: KernelExpansion, n: int, m: int, d: int) -> Tuple[int, int]:
    """The kernel's n-th Fourier coefficient on |z| = r, divided by r^|n|,
    exactly at s = r^2 = m / d < 1: an integer numerator and a positive
    denominator, not in lowest terms.

    With t = (d - m) / d, band beta is f_beta(t) t^(1 - 2 beta) P_beta(s)
    (``fourier_poly``).  Over the kernel's scale, f_beta(t) / t^low is an
    integer Horner sum of its band in d - m over d^(high - low), and
    P_beta(s) one in m over d^deg; t^(low + 1 - 2 beta) adds a power of
    d - m above or below.  The bands are summed over one common denominator.
    """
    t = d - m
    bands = []
    for beta, low, coeffs in kernel.bands:
        fourier = list(fourier_poly(beta, n).values())
        # band * fourier * t^t_exp / (scale d^d_exp)
        t_exp = low - 2 * beta + 1
        d_exp = low + len(coeffs) - 2 * beta + len(fourier) - 1
        bands.append((horner(coeffs, t, d) * horner(fourier, m, d), t_exp, d_exp))
    t_low = min([0, *(e for _, e, _ in bands)])
    d_top = max([0, *(e for _, _, e in bands)])
    total = sum(num * t ** (t_exp - t_low) * d ** (d_top - d_exp) for num, t_exp, d_exp in bands)
    return total, kernel.scale * d**d_top * t**-t_low


class _ODETable(NamedTuple):
    """The integers of phi_|n| at one (gamma, |n|): lcm = lcm_j (|n|+j+1)(j+1),
    a_j = lcm (-1)^j C(gamma, j) / ((|n|+j+1)(j+1)), total = sum_j a_j, and
    slope = (|n|+gamma+1) C(|n|+gamma, |n|) = 1 / phi'(1)."""

    lcm: int
    a: Tuple[int, ...]
    total: int
    slope: int


@functools.lru_cache(maxsize=_ODE_TABLES)
def _ode_table(gamma: int, n: int) -> _ODETable:
    lcm = math.lcm(*((n + j + 1) * (j + 1) for j in range(gamma + 1)))
    a = tuple((-1) ** j * binom(gamma, j) * (lcm // ((n + j + 1) * (j + 1))) for j in range(gamma + 1))
    return _ODETable(lcm, a, sum(a), (n + gamma + 1) * binom(n + gamma, n))


def dirichlet_ratio(gamma: int, kind: str, n: int, m: int, d: int) -> Tuple[int, int]:
    """dirichlet_factor at |n| = n >= 0 and s = m / d < 1 as an integer
    numerator and a positive denominator, not in lowest terms; gamma and
    kind are taken as checked.

    phi(1) - phi(s) is drop / (lcm d^(gamma + 1)), with
    drop = sum_j a_j d^(gamma + 1) - m sum_j a_j m^j d^(gamma - j), one
    Horner pass in m over the table of (gamma, n) (``_ode_table``, shared
    by F and H), and 1 / (2 phi'(1)) = slope / 2.
    """
    mult, base = (n, 1) if kind == "F" else (1, 0)
    if not mult:
        return base, 1
    table = _ode_table(gamma, n)
    top = d ** (gamma + 1)
    drop = table.total * top - m * horner(table.a, m, d)
    den = 2 * table.lcm * top
    return base * den + mult * table.slope * drop, den


def dirichlet_factor(gamma: int, kind: str, n: int, s: Fraction) -> Fraction:
    """A + C phi_|n|(s): the n-th Fourier multiplier of F or H on |z| = r,
    divided by r^|n|, from the radial ODE, exactly as a function of
    s = r^2 < 1.  The same rational as ``radial_ratio`` of the built kernel.

    The integers come from ``dirichlet_ratio``; this forms their Fraction.
    """
    check_gamma(gamma)
    check_kind(kind)
    return Fraction(*dirichlet_ratio(gamma, kind, abs(n), s.numerator, s.denominator))


def term_boundary(beta: int, k: int) -> Tuple[int, int]:
    """Boundary data (a, b) of the single term t^k / |1-z|^(2 beta), with
    c = C(2 beta - 2, beta - 1): (c, -(beta - 1) c) at k = 2 beta - 1,
    (0, 2 c) at k = 2 beta, (0, 0) above."""
    low = 2 * beta - 1
    if k < low:
        raise NonDeltaBoundaryError(
            f"expansion term beta={beta}, k={k} has non-delta boundary "
            f"behavior (k < 2 beta - 1 = {low})"
        )
    if k > low + 1:
        return 0, 0
    c = binom(2 * beta - 2, beta - 1)
    return (c, -(beta - 1) * c) if k == low else (0, 2 * c)


def expansion_boundary(u: KernelExpansion) -> BoundaryData:
    """Boundary data of a banded expansion, by linearity over its terms.

    Only the terms k = 2 beta - 1 and k = 2 beta of a band carry data, so
    only those are read, by their offset from the band's least exponent
    once that exponent has passed ``term_boundary``'s check.  Their sum
    runs on u's integers, and one Fraction over u's scale is formed per
    field."""
    a = b = 0
    for beta, low, coeffs in u.bands:
        term_boundary(beta, low)  # raises below k = 2 beta - 1
        # k starts at low: a band from 2 beta (H's) has no t^(2 beta - 1).
        for k in range(low, min(low + len(coeffs), 2 * beta + 1)):
            ta, tb = term_boundary(beta, k)
            a += ta * coeffs[k - low]
            b += tb * coeffs[k - low]
    return BoundaryData(a=Fraction(a, u.scale), b=Fraction(b, u.scale))
