"""Floating-point evaluation, Fourier multipliers and L1 quadrature.

Exact expansions become numbers here.  Every pointwise value comes from one
band sum, Horner's rule in u = 1/|1 - z|^2: sum_beta f_beta(t) u^beta with
one add and one multiply per band, on float64 arrays (``values_at``,
``l1_norm``), Python floats (scalar ``eval_kernel``, which skips numpy
apart from one sine) and mpmath numbers.

``eval_kernel`` measures kappa = sum |term| / |sum term|, the factor by
which the terms cancel, and sums again in mpmath with about
20 + log10(kappa) digits where float64 would miss 1e-12.

Integral means and Dirichlet solves use no quadrature: Fourier
coefficients on |z| = r are exact rationals in r^2, rounded to float once
per multiplier.  ``integral_mean`` takes them from the kernel it is given
(``boundary.radial_factor``).  ``solve_dirichlet`` takes those of F and H
from the radial ODE (``boundary.dirichlet_factor``), so it builds no
kernel; its solution for trigonometric boundary data is a finite sum of
data coefficients times multipliers.

Only the L1 norm, where |K| is not linear in K, is a quadrature: the
trapezoid rule on equispaced angles, doubling the node count until two
successive estimates agree.

|1 - z|^2 is always computed as (1 - r)^2 + 4 r sin^2(theta/2), which is
exact as an identity and avoids the catastrophic cancellation of
1 - 2 r cos(theta) + r^2 near theta = 0, r -> 1.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Mapping

import mpmath
import numpy as np

from .boundary import dirichlet_factor, radial_factor
from .operators import KernelExpansion, check_gamma

# eval_kernel keeps a float64 sum whose terms cancel by at most this factor.
# At 2400 seeded points with gamma <= 24 the sum's error stayed below
# 1.2 kappa eps where kappa >= 16, and below 2.4e-14 wherever kappa <= 256.
_KAPPA_MAX = 256
# Digits the mpmath sum carries beyond the log10(kappa) that cancellation costs.
_GUARD_DIGITS = 20
_NODE_CAP = 2**20


class QuadratureConvergenceError(RuntimeError):
    """Node-doubling quadrature hit the cap without two estimates agreeing."""


@dataclass(frozen=True)
class DiscPoint:
    r: float
    theta: float

    def __post_init__(self) -> None:
        _require_radius("DiscPoint", self.r)
        if not math.isfinite(self.theta):
            raise ValueError(f"DiscPoint requires a finite theta, got theta={self.theta}")


def _require_radius(caller: str, r: float) -> None:
    # Kernels and multipliers hold only inside the disc.
    if not (0.0 <= r < 1.0):
        raise ValueError(f"{caller} requires 0 <= r < 1, got r={r}")


def abs1mz_sq(r, theta):
    """|1 - r e^(i theta)|^2 = (1-r)^2 + 4 r sin^2(theta/2); scalar or array.

    The sine is squared by multiplication: CPython's float ``s ** 2`` is
    not always ``s * s``, and numpy squares arrays by multiplication, so
    this keeps a scalar call bit-identical to the same angle in an array.
    """
    s = np.sin(theta / 2.0)
    return (1.0 - r) ** 2 + 4.0 * r * (s * s)


def _mpf(c: Fraction):
    return mpmath.mpf(c.numerator) / c.denominator


def _float(c: Fraction) -> float:
    # float(c) rounds the same quotient, through a slower Python-level call.
    return c.numerator / c.denominator


def _band_terms(kernel: KernelExpansion, t, coeff) -> list:
    """The terms c t^k of each band f_beta(t), top band first, None for an
    absent band; coeff converts each exact coefficient once (_float or _mpf)."""
    return [
        [coeff(c) * t**k for k, c in poly.items()] if poly else None
        for poly in map(kernel.terms.get, range(kernel.max_beta(), 0, -1))
    ]


def _horner(bands: list, u, reduce=sum):
    """sum_beta reduce(band terms) u^beta, u = 1/|1 - z|^2 a float64 array, a
    Python float or an mpmath number, by Horner's rule from the top band down.

    No power of u is formed, and the updates are in place: a numpy u costs
    the array total and no temporary per band.
    """
    total = 0 * u
    for b in bands:
        if b is not None:
            total += reduce(b)
        total *= u
    return total


def _abs_sum(terms: list):
    return sum(map(abs, terms))


def values_at(kernel: KernelExpansion, r: float, thetas: np.ndarray) -> np.ndarray:
    """Vectorized float64 kernel values at fixed radius, arbitrary angles."""
    _require_radius("values_at", r)
    thetas = np.asarray(thetas, dtype=float)
    if not np.isfinite(thetas).all():
        raise ValueError("values_at requires finite angles")
    u = 1 / abs1mz_sq(r, thetas)
    # (1 - r)(1 + r) keeps the digits that 1 - r*r loses as r -> 1.
    return _horner(_band_terms(kernel, (1.0 - r) * (1.0 + r), _float), u)


def _eval_extended(kernel: KernelExpansion, r: float, theta: float, kappa: float) -> float:
    """The band sum in mpmath with _GUARD_DIGITS more digits than log10(kappa).

    A non-finite float kappa starts at 1e17.  Each pass measures kappa anew,
    which bounds its sum's error by size 10^(_GUARD_DIGITS - dps), and keeps
    the sum once that bound is below |sum| or below the smallest float (then
    the rounding is exact: 0.0 for an empty expansion or a zero of the
    kernel).  Otherwise it retries with the digits the new kappa asks for,
    at least doubled, so it stops by 2 (_GUARD_DIGITS + log10(size) + 324).
    """
    dps = _GUARD_DIGITS + (math.ceil(math.log10(kappa)) if math.isfinite(kappa) else 17)
    while True:
        with mpmath.workdps(dps):
            rm = mpmath.mpf(r)
            u = 1 / ((1 - rm) ** 2 + 4 * rm * mpmath.sin(mpmath.mpf(theta) / 2) ** 2)
            bands = _band_terms(kernel, 1 - rm * rm, _mpf)
            total, size = _horner(bands, u), _horner(bands, u, _abs_sum)
            floor = max(abs(total), math.ulp(0.0))
            if size <= floor * mpmath.mpf(10) ** (dps - _GUARD_DIGITS):
                return float(total)
            needed = _GUARD_DIGITS + math.ceil(mpmath.log10(size / floor))
        dps = max(needed, 2 * dps)


def eval_kernel(kernel: KernelExpansion, p: DiscPoint) -> float:
    """Kernel value at one point of the disc, to 1e-12 relative.

    t >= 0 and u > 0, so a term c t^k u^beta has the sign of c, and the
    Horner sum of |c t^k| is size = sum |term|.  The float64 sum (values_at's
    operations on Python floats) is kept where kappa = size / |sum| <=
    _KAPPA_MAX and no term underflowed; elsewhere _eval_extended sums again.
    """
    t = (1.0 - p.r) * (1.0 + p.r)
    u = 1 / float(abs1mz_sq(p.r, p.theta))
    bands = _band_terms(kernel, t, _float)
    total, size = _horner(bands, u), _horner(bands, u, _abs_sum)
    kappa = size / abs(total) if total else math.inf
    if kappa <= _KAPPA_MAX:
        # kappa cannot see a power t^k (least at the largest k) or a term
        # c t^k that fell below the normal range and lost its digits.
        lowest = min(map(abs, chain.from_iterable(filter(None, bands))))
        k_max = max(map(max, filter(None, kernel.terms.values())))
        if min(lowest, t**k_max) >= sys.float_info.min:
            return total
    return _eval_extended(kernel, p.r, p.theta, kappa)


def integral_mean(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of the kernel over the circle of radius r, exactly
    (its zeroth Fourier coefficient) and then rounded to float."""
    _require_radius("integral_mean", r)
    return float(radial_factor(kernel, 0, Fraction(r) ** 2))


def l1_norm(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of |kernel| at radius r, by node doubling.

    Doubles the trapezoid rule's node count from 256 until two successive
    estimates agree to 1e-6 relative; past 2^20 nodes it raises
    QuadratureConvergenceError rather than return an unconverged estimate.
    """
    _require_radius("l1_norm", r)
    prev = None
    n = 256
    while n <= _NODE_CAP:
        est = float(np.abs(values_at(kernel, r, 2.0 * np.pi * np.arange(n) / n)).mean())
        if prev is not None and abs(est - prev) <= 1e-6 * est:
            return est
        prev = est
        n *= 2
    raise QuadratureConvergenceError(
        f"L1 quadrature at r={r} did not stabilize below {_NODE_CAP} nodes"
    )


def solve_dirichlet(
    gamma: int,
    f0: Mapping[int, complex],
    f1: Mapping[int, complex],
    p: DiscPoint,
) -> float:
    """Value at p of the kernel-pair solution with boundary data (f0, f1).

    f0 and f1 are trigonometric polynomials given by their Fourier
    coefficients {harmonic: coefficient}; the solution is the sum of the
    two circular convolutions with the F and H kernels at radius p.r, that
    is, sum_n [f0(n) F_r(n) + f1(n) H_r(n)] e^(i n theta).  The kernels'
    exact Fourier multipliers come from the radial ODE
    (``boundary.dirichlet_factor``), so no kernel is built.  Real
    (conjugate-symmetric) data produces a real value.
    """
    check_gamma(gamma)
    for n in (*f0, *f1):
        if not isinstance(n, int):
            raise ValueError(f"harmonics must be ints, got {n!r}")
    s = Fraction(p.r) ** 2
    u = 0.0 + 0.0j
    for kind, data in (("F", f0), ("H", f1)):
        for n, c in data.items():
            # r^|n| in float keeps the exact part's cost independent of |n|.
            multiplier = p.r ** abs(n) * float(dirichlet_factor(gamma, kind, n, s))
            u += c * multiplier * cmath.exp(1j * n * p.theta)
    return float(u.real)
