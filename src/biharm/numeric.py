"""Floating-point evaluation, quadrature, convolution, and FD spot checks.

Exact expansions become numbers here.  Two precision paths exist: plain
float64, and an mpmath-backed extended path used near the boundary
singularity at z = 1 (and wherever the caller asks for it).  Quadrature is
the plain trapezoid rule on equispaced angles — the integrands are smooth
and 2 pi periodic, so the rule is spectrally accurate and the only
difficulty, the kernel peak sharpening as r -> 1, is handled by doubling
the node count until two successive estimates agree.

Two deliberate conventions:

  * |1 - z|^2 is always computed as (1 - r)^2 + 4 r sin^2(theta/2), which
    is exact as an identity and avoids the catastrophic cancellation of
    1 - 2 r cos(theta) + r^2 near theta = 0, r -> 1;
  * the Laplacian is d^2/(dz dzbar) = (1/4)(d_xx + d_yy) — one quarter of
    the geometers' Laplacian — matching the operator convention of the
    exact modules, so finite-difference residuals are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping

import mpmath
import numpy as np

from .builder import KernelSpec, build, build_pair
from .operators import KernelExpansion

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
        if not (0.0 <= self.r < 1.0):
            raise ValueError(f"DiscPoint requires 0 <= r < 1, got r={self.r}")


def abs1mz_sq(r, theta):
    """|1 - r e^(i theta)|^2 = (1-r)^2 + 4 r sin^2(theta/2); scalar or array."""
    return (1.0 - r) ** 2 + 4.0 * r * np.sin(theta / 2.0) ** 2


def _mpf(c: Fraction):
    return mpmath.mpf(c.numerator) / c.denominator


def _band_sum(kernel: KernelExpansion, t, q, coeff):
    """sum_beta f_beta(t) q^(-beta), with t = 1 - |z|^2 and q = |1 - z|^2.

    coeff converts each exact coefficient: float for float64 arrays, _mpf
    for mpmath numbers at the caller's working precision.
    """
    total = 0 * q
    for beta, poly in kernel.terms.items():
        total += sum(coeff(c) * t**k for k, c in poly.items()) * q**-beta
    return total


def values_at(kernel: KernelExpansion, r: float, thetas: np.ndarray) -> np.ndarray:
    """Vectorized float64 kernel values at fixed radius, arbitrary angles."""
    q = abs1mz_sq(r, np.asarray(thetas, dtype=float))
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
    return float(values_at(kernel, p.r, np.array([p.theta]))[0])


def _nodes(n: int) -> np.ndarray:
    """n equispaced angles on [0, 2 pi): the trapezoid rule's nodes."""
    return 2.0 * np.pi * np.arange(n) / n


def node_doubling(estimate: Callable[[int], tuple], n: int, rtol: float, what: str):
    """Run estimate(m) for m = n, 2n, 4n, ... until two successive values agree.

    estimate(m) returns (value, scale); the loop stops once
    |value - previous| <= rtol * max(|value|, scale), where scale = 0 makes the
    test purely relative.  Past _NODE_CAP nodes it raises
    QuadratureConvergenceError: an unconverged estimate is never returned.
    """
    prev = None
    m = n
    while m <= _NODE_CAP:
        est, scale = estimate(m)
        if prev is not None and abs(est - prev) <= rtol * max(abs(est), scale, 1e-300):
            return est
        prev = est
        m *= 2
    raise QuadratureConvergenceError(f"{what} did not stabilize below {_NODE_CAP} nodes")


def integral_mean(kernel: KernelExpansion, r: float, n: int = 4096) -> float:
    """(1/2 pi) integral of the kernel over the circle of radius r.

    Trapezoid rule on n >= 64 equispaced nodes; for a 2 pi periodic smooth
    integrand this is the mean of the samples and converges spectrally.
    """
    if n < 64:
        raise ValueError(f"integral_mean requires n >= 64, got {n}")
    return float(values_at(kernel, r, _nodes(n)).mean())


def l1_norm(kernel: KernelExpansion, r: float, n: int = 256) -> float:
    """(1/2 pi) integral of |kernel| at radius r, by node doubling.

    Doubles the node count from n (>= 256) until two successive estimates
    agree to 1e-6 relative, capped at 2^20 nodes.
    """
    if n < 256:
        raise ValueError(f"l1_norm requires n >= 256, got {n}")
    return node_doubling(
        lambda m: (float(np.abs(values_at(kernel, r, _nodes(m))).mean()), 0.0),
        n,
        1e-6,
        f"L1 quadrature at r={r}",
    )


def _trig_values(coeffs: Mapping[int, complex], phis: np.ndarray) -> np.ndarray:
    out = np.zeros_like(phis, dtype=complex)
    for k, c in coeffs.items():
        out += c * np.exp(1j * k * phis)
    return out


def _convolve(kernel: KernelExpansion, coeffs: Mapping[int, complex], p: DiscPoint) -> complex:
    """(kernel_r * f)(theta) by trapezoid quadrature with node doubling."""

    def estimate(m: int):
        phis = _nodes(m)
        kern = values_at(kernel, p.r, p.theta - phis)
        # A purely relative test can never be met near a zero of the
        # convolution; scale the tolerance by the integrand's magnitude.
        scale = float(np.mean(np.abs(kern))) * sum(abs(c) for c in coeffs.values())
        return complex(np.mean(kern * _trig_values(coeffs, phis))), scale

    return node_doubling(estimate, 512, 1e-9, f"convolution quadrature at r={p.r}")


def solve_dirichlet(
    gamma: int,
    f0: Mapping[int, complex],
    f1: Mapping[int, complex],
    p: DiscPoint,
) -> float:
    """Value at p of the kernel-pair solution with boundary data (f0, f1).

    f0 and f1 are trigonometric polynomials given by their Fourier
    coefficients {harmonic: coefficient}; the solution is the sum of the
    two circular convolutions with the F and H kernels at radius p.r.
    Real (conjugate-symmetric) data produces a real value.  Empty data
    builds no kernel; data f1 alone builds H only.
    """
    u = 0.0 + 0.0j
    if f0:
        kernel_f, kernel_h = build_pair(gamma)
        u += _convolve(kernel_f, f0, p)
    elif f1:
        kernel_h = build(KernelSpec(gamma=gamma, kind="H"))
    if f1:
        u += _convolve(kernel_h, f1, p)
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
