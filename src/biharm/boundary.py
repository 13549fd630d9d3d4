"""Exact circular Fourier coefficients and boundary data of building-block
terms t^k / |1-z|^(2 beta).

On |z| = r, with s = r^2 and t = 1 - s, expanding (1-z)^(-beta) and
(1-zbar)^(-beta) binomially and applying Euler's transformation gives the
n-th Fourier coefficient

    r^|n| t^(k + 1 - 2 beta) C(|n| + beta - 1, |n|) 2F1(|n| + 1 - beta, 1 - beta; |n| + 1; s).

The 2F1 terminates at degree beta - 1 (``fourier_poly``), so after r^|n|
the coefficient is exact over the rationals; ``radial_factor`` sums it over
the bands of an expansion.  Its n = 0 case p(s) = sum_j C(beta - 1, j)^2 s^j
is the integral mean of t^(2 beta - 1) / |1-z|^(2 beta).

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
and p'(1) = (beta - 1) p(1) / 2, ``expansion_boundary`` reads only the
coefficients of t^(2 beta - 1) and t^(2 beta) in each band, with
c = C(2 beta - 2, beta - 1): (a, b) = (c, -(beta - 1) c) and (0, 2 c).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import LaurentPoly, Rational, binom, poly_eval
from .operators import KernelExpansion


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
    polynomial in s, of degree at most beta - 1 (beta >= 1)."""
    n = abs(n)
    coeffs: LaurentPoly = {}
    c = Fraction(binom(n + beta - 1, n))
    for j in range(beta):
        if not c:
            break
        coeffs[j] = c
        c = c * (n + 1 - beta + j) * (1 - beta + j) / ((n + 1 + j) * (j + 1))
    return coeffs


def radial_factor(kernel: KernelExpansion, n: int, s: Fraction) -> Fraction:
    """The kernel's n-th Fourier coefficient on |z| = r, divided by r^|n|,
    exactly as a function of s = r^2 < 1."""
    t = 1 - s
    return sum(
        (
            poly_eval(poly, t) / t ** (2 * beta - 1) * poly_eval(fourier_poly(beta, n), s)
            for beta, poly in kernel.terms.items()
        ),
        Fraction(0),
    )


def expansion_boundary(u: KernelExpansion) -> BoundaryData:
    """Boundary data of a banded expansion, by linearity over its terms."""
    a = Fraction(0)
    b = Fraction(0)
    for beta, poly in u.terms.items():
        low = 2 * beta - 1
        k = min(poly, default=low)
        if k < low:
            raise NonDeltaBoundaryError(
                f"expansion term beta={beta}, k={k} has non-delta boundary "
                f"behavior (k < 2 beta - 1 = {low})"
            )
        c = binom(2 * beta - 2, beta - 1)
        f_low = poly.get(low, 0)
        a += c * f_low
        b += c * (2 * poly.get(low + 1, 0) - (beta - 1) * f_low)
    return BoundaryData(a=a, b=b)
