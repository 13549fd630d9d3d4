"""Independent references that only the tests use.

``poly_from_terms`` and ``poly_mul`` build and multiply Laurent
polynomials.  ``ab_sums`` (with ``_inner_sum``) computes the boundary data
(a, b) of t^(2 beta - 1) / |1-z|^(2 beta) from the paper's double sums, and
``integral_means_poly`` gives the integral-means polynomial p(s) whose
value and derivative at s = 1 give the same (a, b).  No build path of the
package calls them; they check ``boundary.expansion_boundary`` (on
one-term expansions) and ``boundary.fourier_poly`` against a second
derivation.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Tuple

from biharm.boundary import BoundaryData, fourier_poly
from biharm.exact import ZERO, LaurentPoly, binom, poly_diff, poly_eval


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


@dataclass(frozen=True)
class IntegralMeansPoly:
    """The polynomial p with p(r^2) = mean of t^(2b-1)/|1-z|^(2b) at radius r."""

    beta: int
    poly: LaurentPoly  # in s = r^2, exponents 0 .. beta - 1

    def value_at_one(self) -> Fraction:
        return poly_eval(self.poly, Fraction(1))

    def derivative_at_one(self) -> Fraction:
        return poly_eval(poly_diff(self.poly), Fraction(1))


def _inner_sum(beta: int, k: int) -> int:
    """sum_j (-1)^j C(2 beta - 1, j) C(k - j + beta - 1, k - j)^2 over 0 <= j <= min(2 beta - 1, k)."""
    total = 0
    for j in range(0, min(2 * beta - 1, k) + 1):
        total += (-1) ** j * binom(2 * beta - 1, j) * binom(k - j + beta - 1, k - j) ** 2
    return total


def ab_sums(beta: int) -> BoundaryData:
    """Boundary data of t^(2 beta - 1) / |1-z|^(2 beta), beta >= 2, as double sums.

    a = sum_{k=0}^{2 beta - 2} inner(k)   and   b = -sum_{k=1}^{2 beta - 2} 2 k inner(k).
    """
    if beta < 2:
        raise ValueError(f"ab_sums requires beta >= 2, got {beta}")
    a = sum(_inner_sum(beta, k) for k in range(0, 2 * beta - 1))
    b = -sum(2 * k * _inner_sum(beta, k) for k in range(1, 2 * beta - 1))
    return BoundaryData(a=Fraction(a), b=Fraction(b))


def integral_means_poly(beta: int) -> IntegralMeansPoly:
    """Exact integral-means polynomial p(s) for t^(2 beta - 1)/|1-z|^(2 beta)."""
    if beta < 2:
        raise ValueError(f"integral_means_poly requires beta >= 2, got {beta}")
    return IntegralMeansPoly(beta=beta, poly=fourier_poly(beta, 0))
