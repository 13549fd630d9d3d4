"""Finite-difference oracle for the weighted biharmonic residual.

``fd_biharmonic_residual`` estimates D(w^-1 D K) at a point of the disc
from kernel values on a 13-point stencil.  It sums each value directly in
40-digit mpmath, term by term, so it shares no code with the package's
evaluators or its exact operators.

The Laplacian is d^2/(dz dzbar) = (1/4)(d_xx + d_yy), one quarter of the
geometers' Laplacian, matching the operator convention of the exact
modules, so residuals are directly comparable.
"""

import math

import mpmath

from biharm.numeric import DiscPoint
from biharm.operators import KernelExpansion

_DPS = 40


class StencilOutOfDomainError(ValueError):
    """A finite-difference stencil point left the open unit disc."""


def _kernel_value(kernel: KernelExpansion, x, y):
    """sum c t^k / q^beta at z = x + iy, with t = 1 - |z|^2 and q = |1 - z|^2."""
    t = 1 - (x * x + y * y)
    q = (1 - x) ** 2 + y**2
    return mpmath.fsum(
        mpmath.mpf(c.numerator) / c.denominator * t**k / q**beta
        for beta, poly in kernel.terms.items()
        for k, c in poly.items()
    )


def fd_biharmonic_residual(kernel: KernelExpansion, p: DiscPoint, h: float) -> float:
    """Finite-difference estimate of D(w^-1 D kernel) at p, D = d^2/(dz dzbar).

    Nested 5-point quarter-Laplacians with step h (a 13-point footprint);
    evaluations run in 40-digit mpmath so that the returned residual is
    pure O(h^2) truncation, uncontaminated by float64 cancellation.  For an
    exactly biharmonic-zero kernel the residual tends to 0 like h^2.
    """
    gamma = kernel.gamma
    x0 = p.r * math.cos(p.theta)
    y0 = p.r * math.sin(p.theta)
    offsets = [(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)]
    footprint = {(i + di, j + dj) for i, j in offsets for di, dj in offsets}
    for i, j in footprint:
        xx, yy = x0 + i * h, y0 + j * h
        if xx * xx + yy * yy >= 1.0:
            raise StencilOutOfDomainError(
                f"stencil point ({xx:.6f}, {yy:.6f}) leaves the open disc "
                f"(center r={p.r}, theta={p.theta}, h={h})"
            )
    with mpmath.workdps(_DPS):
        hm = mpmath.mpf(h)
        cache: dict = {}

        def u(i: int, j: int):
            if (i, j) not in cache:
                x = mpmath.mpf(x0) + i * hm
                y = mpmath.mpf(y0) + j * hm
                cache[(i, j)] = _kernel_value(kernel, x, y)
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
