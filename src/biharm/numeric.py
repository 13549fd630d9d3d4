"""Floating-point evaluation, Fourier multipliers, L1 quadrature, and FD
spot checks.

Exact expansions become numbers here.  Pointwise values have two precision
paths: plain float64, and an mpmath-backed extended path used near the
boundary singularity at z = 1 (and wherever the caller asks for it).

Every pointwise value comes from one band sum, Horner's rule in
u = 1/|1 - z|^2: sum_beta f_beta(t) u^beta with one add and one multiply
per band, on float64 arrays (``values_at``, ``l1_norm``), Python floats
(scalar ``eval_kernel``, which skips numpy apart from one sine) and mpmath
numbers (the extended path and the FD residual).

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

Two deliberate conventions:

  * |1 - z|^2 is always computed as (1 - r)^2 + 4 r sin^2(theta/2), which
    is exact as an identity and avoids the catastrophic cancellation of
    1 - 2 r cos(theta) + r^2 near theta = 0, r -> 1;
  * the Laplacian is d^2/(dz dzbar) = (1/4)(d_xx + d_yy) — one quarter of
    the geometers' Laplacian — matching the operator convention of the
    exact modules, so finite-difference residuals are directly comparable.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import mpmath
import numpy as np

from .boundary import dirichlet_factor, radial_factor
from .operators import KernelExpansion, check_gamma

PRECISIONS = ("double", "extended")

# Auto-upgrade region for eval: kernels vary over ~|1-z|^(-2 beta) here and
# float64 relative error is no longer guaranteed at 1e-12.
_SINGULAR_R = 0.999
_SINGULAR_THETA = 1e-3

_EXTENDED_DPS = 40
_NODE_CAP = 2**20


class QuadratureConvergenceError(RuntimeError):
    """Node-doubling quadrature hit the cap without two estimates agreeing."""


class StencilOutOfDomainError(ValueError):
    """A finite-difference stencil point left the open unit disc."""


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


def _band_sum(kernel: KernelExpansion, t, q, coeff):
    """sum_beta f_beta(t) q^(-beta), with t = 1 - |z|^2 and q = |1 - z|^2.

    Horner's rule in u = 1/q, from the top band down: add f_beta(t) where
    the band is present, then multiply by u.  No power of q is formed.  The
    updates are in place: a numpy q costs the arrays u and total, and no
    temporary per band.
    q is a float64 array, a Python float or an mpmath number, and t a
    scalar (an mpmath number with an mpmath q).  coeff converts each exact
    coefficient: float for float64, _mpf for mpmath at the caller's working
    precision.
    """
    u = 1 / q
    total = 0 * u
    for beta in range(kernel.max_beta(), 0, -1):
        poly = kernel.terms.get(beta)
        if poly:
            total += sum(coeff(c) * t**k for k, c in poly.items())
        total *= u
    return total


def values_at(kernel: KernelExpansion, r: float, thetas: np.ndarray) -> np.ndarray:
    """Vectorized float64 kernel values at fixed radius, arbitrary angles."""
    _require_radius("values_at", r)
    thetas = np.asarray(thetas, dtype=float)
    if not np.isfinite(thetas).all():
        raise ValueError("values_at requires finite angles")
    q = abs1mz_sq(r, thetas)
    # (1 - r)(1 + r) keeps the digits that 1 - r*r loses as r -> 1.
    return _band_sum(kernel, (1.0 - r) * (1.0 + r), q, float)


def _eval_extended(kernel: KernelExpansion, r: float, theta: float) -> float:
    with mpmath.workdps(_EXTENDED_DPS):
        rm = mpmath.mpf(r)
        q = (1 - rm) ** 2 + 4 * rm * mpmath.sin(mpmath.mpf(theta) / 2) ** 2
        return float(_band_sum(kernel, 1 - rm * rm, q, _mpf))


def eval_kernel(
    kernel: KernelExpansion, p: DiscPoint, precision: str = "double"
) -> float:
    """Kernel value at one point of the disc.

    precision "double" auto-upgrades to the extended path inside the
    singular corner r > 0.999, |theta| < 1e-3 (angle taken mod 2 pi).
    """
    if precision not in PRECISIONS:
        raise ValueError(f"precision must be one of {PRECISIONS}, got {precision!r}")
    wrapped = math.remainder(p.theta, 2.0 * math.pi)
    if precision == "extended" or (
        p.r > _SINGULAR_R and abs(wrapped) < _SINGULAR_THETA
    ):
        return _eval_extended(kernel, p.r, p.theta)
    # The same operations as values_at, on Python floats.
    q = float(abs1mz_sq(p.r, p.theta))
    return float(_band_sum(kernel, (1.0 - p.r) * (1.0 + p.r), q, float))


def integral_mean(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of the kernel over the circle of radius r, exactly
    (its zeroth Fourier coefficient) and then rounded to float."""
    _require_radius("integral_mean", r)
    return float(radial_factor(kernel, 0, Fraction(r) ** 2))


def l1_norm(kernel: KernelExpansion, r: float, n: int = 256) -> float:
    """(1/2 pi) integral of |kernel| at radius r, by node doubling.

    Doubles the trapezoid rule's node count from n (>= 256) until two
    successive estimates agree to 1e-6 relative; past 2^20 nodes it raises
    QuadratureConvergenceError rather than return an unconverged estimate.
    """
    _require_radius("l1_norm", r)
    if n < 256:
        raise ValueError(f"l1_norm requires n >= 256, got {n}")
    prev = None
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


def fd_biharmonic_residual(kernel: KernelExpansion, p: DiscPoint, h: float) -> float:
    """Finite-difference estimate of D(w^-1 D kernel) at p, D = d^2/(dz dzbar).

    Nested 5-point quarter-Laplacians with step h (a 13-point footprint);
    evaluations run in extended precision so that the returned residual is
    pure O(h^2) truncation, uncontaminated by float64 cancellation.  For an
    exactly biharmonic-zero kernel the residual tends to 0 like h^2.
    """
    gamma = kernel.gamma
    x0 = p.r * math.cos(p.theta)
    y0 = p.r * math.sin(p.theta)
    offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    footprint = {
        (i + di, j + dj)
        for i, j in offsets
        for di, dj in offsets
    }
    for i, j in footprint:
        xx, yy = x0 + i * h, y0 + j * h
        if xx * xx + yy * yy >= 1.0:
            raise StencilOutOfDomainError(
                f"stencil point ({xx:.6f}, {yy:.6f}) leaves the open disc "
                f"(center r={p.r}, theta={p.theta}, h={h})"
            )
    with mpmath.workdps(_EXTENDED_DPS):
        hm = mpmath.mpf(h)
        cache: dict = {}

        def u(i: int, j: int):
            if (i, j) not in cache:
                x = mpmath.mpf(x0) + i * hm
                y = mpmath.mpf(y0) + j * hm
                cache[(i, j)] = _band_sum(kernel, 1 - (x * x + y * y), (1 - x) ** 2 + y**2, _mpf)
            return cache[(i, j)]

        def winv_lap_u(i: int, j: int):
            lap = (u(i + 1, j) + u(i - 1, j) + u(i, j + 1) + u(i, j - 1) - 4 * u(i, j)) / (
                4 * hm * hm
            )
            x = mpmath.mpf(x0) + i * hm
            y = mpmath.mpf(y0) + j * hm
            t = 1 - (x * x + y * y)
            return lap / t**gamma

        v = {off: winv_lap_u(*off) for off in offsets}
        residual = (
            v[(1, 0)] + v[(-1, 0)] + v[(0, 1)] + v[(0, -1)] - 4 * v[(0, 0)]
        ) / (4 * hm * hm)
        return float(residual)
