"""Independent references that only the tests use.

``poly_from_terms``, ``poly_add``, ``poly_scale``, ``poly_mul``,
``poly_shift``, ``poly_diff`` and ``poly_eval`` build, add, scale,
multiply, shift, differentiate in t and evaluate Laurent polynomials.
``apply_P`` and ``apply_Q`` are the single-band operators P_beta and
Q_beta from their derivative forms, and ``laplacian_pass`` composes them
into one Laplacian step on a band sequence of dicts, the oracle of the
package's dense pass ``operators._laplacian_rows``.
``biharmonic_fraction`` composes the banded image under D w^-1 D on dicts
in ``Fraction`` arithmetic, dividing by the weight between the two passes
as its own step: the oracle of ``operators.biharmonic``, which runs both
passes on dense integer rows and divides by the weight by moving their
base exponent.
``ab_sums`` (with ``_inner_sum``) computes the boundary data (a, b) of
t^(2 beta - 1) / |1-z|^(2 beta) from the paper's double sums, and
``integral_means_poly`` gives the integral-means polynomial p(s) whose
value and derivative at s = 1 give the same (a, b).  No build path of the
package calls them; they check ``boundary.expansion_boundary`` (on
one-term expansions), ``boundary.fourier_poly`` and the two biharmonic
passes of ``operators`` against a second derivation.
``expansion_add`` and ``expansion_scale`` form linear combinations of
kernel expansions, such as the paper's unnormalized weight-two solutions.
``builder_system`` and ``solved_expansions`` assemble and solve the
builder's system on a spec's own grid; ``dict_image_system`` assembles it
from the dict view ``monomial_image``, the oracle of the builder's rows.  The builder solves every kernel
on F's grid, so a single solve on H's own grid is the oracle of the H
that ``build`` and ``build_pair`` return.
``fraction_fourier_poly``, ``fraction_radial_factor`` and
``fraction_dirichlet_factor`` are the exact Fourier multipliers of
``boundary`` in ``Fraction`` arithmetic, one rational operation per Horner
step: the oracles of its integer forms.
``bisect_root_in`` finds the one root of an isolated Bernstein piece by
plain bisection on the same float evaluator as ``numeric._root_in``, the
oracle of its false-position steps.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from biharm.boundary import BoundaryData, term_boundary
from biharm.builder import BOUNDARY_TARGETS, ansatz_grid, assemble_system
from biharm.exact import LaurentPoly, RationalLinearSystem, binom, solve_linear
from biharm.operators import KernelExpansion, check_gamma, check_kind, make_expansion, monomial_image


def poly_from_terms(terms: Sequence[Tuple[int, Fraction | int]]) -> LaurentPoly:
    """Sum of c * t^k over (k, c) pairs; repeated exponents accumulate."""
    out: LaurentPoly = {}
    for k, c in terms:
        new = out.get(k, Fraction(0)) + Fraction(c)
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return out


def poly_add(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out = dict(p)
    for k, c in q.items():
        new = out.get(k, Fraction(0)) + c
        if new:
            out[k] = new
        else:
            out.pop(k, None)
    return out


def poly_shift(p: LaurentPoly, m: int) -> LaurentPoly:
    """Multiply by t^m, i.e. shift every exponent by m."""
    return {k + m: c for k, c in p.items()}


def poly_scale(c: Fraction | int, p: LaurentPoly) -> LaurentPoly:
    """c * p, with c taken exactly as ``Fraction(c)``."""
    c = Fraction(c)
    return {k: c * v for k, v in p.items()} if c else {}


def poly_mul(p: LaurentPoly, q: LaurentPoly) -> LaurentPoly:
    out: LaurentPoly = {}
    for kp, cp in p.items():
        for kq, cq in q.items():
            k = kp + kq
            new = out.get(k, Fraction(0)) + cp * cq
            if new:
                out[k] = new
            else:
                out.pop(k, None)
    return out


def expansion_add(u: KernelExpansion, v: KernelExpansion) -> KernelExpansion:
    if u.gamma != v.gamma:
        raise ValueError("cannot add expansions with different gamma")
    out: Dict[int, LaurentPoly] = dict(u.terms)
    for beta, poly in v.terms.items():
        out[beta] = poly_add(out.get(beta, {}), poly)
    return make_expansion(u.gamma, out)


def expansion_scale(c: Fraction | int, u: KernelExpansion) -> KernelExpansion:
    return make_expansion(u.gamma, {b: poly_scale(c, p) for b, p in u.terms.items()})


def builder_system(spec, targets=None, drop=None):
    """spec's columns and system on spec's grid, with one right-hand side
    per boundary pair in ``targets`` (spec's own pair if not given), and
    the boundary row ``drop`` left out, if given."""
    if targets is None:
        targets = (BOUNDARY_TARGETS[spec.kind],)
    columns, system = assemble_system(spec.gamma, ansatz_grid(spec), targets)
    rows = list(system.rows)
    if drop is not None:
        del rows[drop]
    return columns, RationalLinearSystem(rows=rows, unknowns=system.unknowns)


def dict_image_system(gamma, grid, targets):
    """The builder's columns and system over grid, assembled as the builder
    once did it from the dict view ``monomial_image`` and a
    ``term_boundary`` call for every column: the oracle of
    ``assemble_system``, which reads ``monomial_terms``' flat entries."""
    columns = sorted(
        ((beta, k) for beta, ks in grid.items() for k in ks),
        key=lambda col: (2 * col[0] - col[1], col[0]),
    )
    coeff = {}
    boundary_rows = ({}, {})
    for j, (beta, k) in enumerate(columns):
        for band, img in monomial_image(gamma, beta, k).items():
            for e, c in img.items():
                coeff.setdefault((band, e), {})[j] = c
        for row, c in zip(boundary_rows, term_boundary(beta, k)):
            if c:
                row[j] = c
    zeros = (0,) * len(targets)
    rows = [(coeff[key], zeros) for key in sorted(coeff)]
    rows += zip(boundary_rows, zip(*targets))
    return columns, RationalLinearSystem(rows=rows, unknowns=len(columns))


def solved_expansions(spec, columns, system):
    """One expansion per right-hand side of the system."""
    expansions = []
    for values, scale in solve_linear(system):
        terms = {}
        for (beta, k), v in zip(columns, values):
            terms.setdefault(beta, {})[k] = v
        expansions.append(make_expansion(spec.gamma, terms, scale))
    return expansions


def poly_diff(p: LaurentPoly) -> LaurentPoly:
    """Derivative with respect to the polynomial's own variable: d/dt."""
    return {k - 1: k * c for k, c in p.items() if k != 0}


def poly_eval(p: LaurentPoly, t: Fraction) -> Fraction:
    """Exact evaluation at a rational point (t != 0 if exponents are negative)."""
    return sum((c * t ** k for k, c in p.items()), Fraction(0))


def _d_dx(p: LaurentPoly) -> LaurentPoly:
    """d/dx of a polynomial in t = 1 - x: d/dx t^k = -k t^(k-1)."""
    return {k - 1: -k * c for k, c in p.items() if k != 0}


def apply_P(beta: int, f: LaurentPoly) -> LaurentPoly:
    """P_beta f = (1 - beta) f' + x f'', with x f'' = f'' - t f''."""
    df = _d_dx(f)
    ddf = _d_dx(df)
    return poly_from_terms(
        [(k, (1 - beta) * c) for k, c in df.items()]
        + list(ddf.items())
        + [(k + 1, -c) for k, c in ddf.items()]
    )


def apply_Q(beta: int, f: LaurentPoly) -> LaurentPoly:
    """Q_beta f = beta (beta f + t f')."""
    return poly_from_terms(
        [(k, beta * beta * c) for k, c in f.items()]
        + [(k + 1, beta * c) for k, c in _d_dx(f).items()]
    )


def laplacian_pass(seq: Dict[int, LaurentPoly]) -> Dict[int, LaurentPoly]:
    """Band m of D applied to a band sequence: P_m s_m + Q_(m-1) s_(m-1)."""
    out = {}
    for m in range(1, max(seq, default=0) + 2):
        g = poly_from_terms(
            list(apply_P(m, seq.get(m, {})).items())
            + list(apply_Q(m - 1, seq.get(m - 1, {})).items())
        )
        if g:
            out[m] = g
    return out


def biharmonic_fraction(gamma: int, terms: Dict[int, LaurentPoly]) -> Dict[int, LaurentPoly]:
    """Banded image of sum_beta terms[beta](t) / |1-z|^(2 beta) under
    D w^-1 D, w = t^gamma, with every coefficient a ``Fraction``."""
    first = laplacian_pass(
        {m: {k: Fraction(c) for k, c in p.items()} for m, p in terms.items()}
    )
    return laplacian_pass({m: {k - gamma: c for k, c in p.items()} for m, p in first.items()})


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
    return IntegralMeansPoly(beta=beta, poly=fraction_fourier_poly(beta, 0))


# ---------------------------------------------------------------------------
# Fourier multipliers in Fraction arithmetic


def fraction_fourier_poly(beta: int, n: int) -> LaurentPoly:
    """C(|n| + beta - 1, |n|) 2F1(|n| + 1 - beta, 1 - beta; |n| + 1; s) as a
    polynomial in s with ``Fraction`` coefficients (beta >= 1)."""
    n = abs(n)
    coeffs: LaurentPoly = {}
    c = Fraction(binom(n + beta - 1, n))
    for j in range(beta):
        if not c:
            break
        coeffs[j] = c
        c = c * (n + 1 - beta + j) * (1 - beta + j) / ((n + 1 + j) * (j + 1))
    return coeffs


def _fraction_horner(poly: LaurentPoly, x: Fraction, low: int) -> Fraction:
    """sum_k poly[k] x^(k - low) by Horner's rule, for poly's exponents k >= low."""
    total = Fraction(0)
    for k in range(max(poly, default=low), low - 1, -1):
        total = total * x + poly.get(k, 0)
    return total


def fraction_radial_factor(kernel: KernelExpansion, n: int, s: Fraction) -> Fraction:
    """The kernel's n-th Fourier coefficient on |z| = r, divided by r^|n|,
    with one ``Fraction`` operation per Horner step."""
    t = 1 - s
    total = Fraction(0)
    for beta, poly in kernel.terms.items():
        low = min(poly)
        band = _fraction_horner(poly, t, low) * t ** (low - 2 * beta + 1)
        total += band * _fraction_horner(fraction_fourier_poly(beta, n), s, 0)
    return total


def fraction_dirichlet_factor(gamma: int, kind: str, n: int, s: Fraction) -> Fraction:
    """A + C phi_|n|(s), the multiplier of F or H from the radial ODE, with
    one ``Fraction`` operation per Horner step."""
    check_gamma(gamma)
    check_kind(kind)
    n = abs(n)
    m, base = (n, Fraction(1)) if kind == "F" else (1, Fraction(0))
    if not m:
        return base
    a = {j: Fraction((-1) ** j * binom(gamma, j), (n + j + 1) * (j + 1)) for j in range(gamma + 1)}
    drop = sum(a.values()) - s * _fraction_horner(a, s, 0)
    return base + Fraction(m * (n + gamma + 1) * binom(n + gamma, n), 2) * drop


def bisect_root_in(piece: List[int]) -> float:
    """The one root in [0, 1] of a Bernstein form from ``isolate_roots``, by
    bisection in float64 until no float lies strictly between the ends.

    The form is evaluated as (1 - x)^n sum C(n, i) b_i (x / (1 - x))^i by
    Horner's rule, reversed for x > 1/2, with the integers scaled by a power
    of 2 to fit a float, exactly as ``numeric._root_in`` evaluates it.
    """
    n = len(piece) - 1
    scaled = [c * math.comb(n, i) for i, c in enumerate(piece)]
    unit = 1 << max(0, max(abs(c).bit_length() for c in scaled) - 1000)
    floats = [c / unit for c in scaled]
    positive_left = next(c for c in piece if c) > 0

    def value_at(x: float) -> float:
        total, ratio, coeffs = 0.0, x / (1.0 - x), reversed(floats)
        if x > 0.5:
            ratio, coeffs = (1.0 - x) / x, floats
        for c in coeffs:
            total = total * ratio + c
        return total

    lo, hi = 0.0, 1.0
    mid = 0.5
    while lo < mid < hi:
        value = value_at(mid)
        if value == 0:
            return mid
        if (value > 0) == positive_left:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid
