"""mpmath oracles for the L1 norm of a kernel on a circle.

``l1_reference`` integrates |K| over |z| = r by mpmath quadrature, split at
the sign changes of K, which it finds by sampling and bisection.  It sums
each kernel value directly in 40-digit mpmath, term by term, so it shares
no code with the package's root isolation, its evaluators or its
quadrature.  ``f_l1_reference`` does the same for F_gamma on its closed
form t^(gamma+2) cos((gamma+1) psi) / |1 - z|^(gamma+3), whose values cost
a few operations at any gamma, so it shares neither the package's
antiderivative nor its zeros.
"""

import mpmath

from biharm.operators import KernelExpansion

_DPS = 40
# Sample angles theta_i = pi (i / N)^3 crowd towards the peak at theta = 0.
_SAMPLES = 600


def _circle_value(kernel: KernelExpansion, r: float):
    """theta -> sum c t^k / q^beta on |z| = r, t = 1 - r^2, q = |1 - z|^2."""
    rm = mpmath.mpf(r)
    t = 1 - rm * rm
    terms = [
        (mpmath.mpf(c.numerator) / c.denominator * t**k, beta)
        for beta, poly in kernel.terms.items()
        for k, c in poly.items()
    ]

    def value(theta):
        q = (1 - rm) ** 2 + 4 * rm * mpmath.sin(theta / 2) ** 2
        return mpmath.fsum(a / q**beta for a, beta in terms)

    return value


def _roots(value):
    """Sign changes of value on (0, pi), by sampling and 120 bisections."""
    grid = [mpmath.pi * (mpmath.mpf(i) / _SAMPLES) ** 3 for i in range(_SAMPLES + 1)]
    roots = []
    prev_x, prev_v = grid[0], value(grid[0])
    for x in grid[1:]:
        v = value(x)
        if v == 0:
            roots.append(x)
        elif prev_v and (v > 0) != (prev_v > 0):
            a, b = prev_x, x
            for _ in range(120):
                mid = (a + b) / 2
                if (value(mid) > 0) == (prev_v > 0):
                    a = mid
                else:
                    b = mid
            roots.append((a + b) / 2)
        prev_x, prev_v = x, v
    return roots


def _f_circle_value(gamma: int, r: float):
    """theta -> F_gamma on |z| = r by its closed form, psi = arg 1/(1 - z)."""
    rm = mpmath.mpf(r)
    t = 1 - rm * rm

    def value(theta):
        q = (1 - rm) ** 2 + 4 * rm * mpmath.sin(theta / 2) ** 2
        psi = mpmath.atan2(rm * mpmath.sin(theta), 1 - rm * mpmath.cos(theta))
        return t ** (gamma + 2) * mpmath.cos((gamma + 1) * psi) / q ** (mpmath.mpf(gamma + 3) / 2)

    return value


def _l1(value, r: float) -> float:
    """(1/pi) times the integral of |value| over [0, pi], split at its roots
    and at (1 - r) 2^j, which grade the pieces towards the peak at theta = 0."""
    cuts = {mpmath.mpf(0), mpmath.pi, *_roots(value)}
    width = mpmath.mpf(1 - r)
    while width < mpmath.pi:
        cuts.add(width)
        width *= 2
    return float(mpmath.quad(lambda th: abs(value(th)), sorted(cuts)) / mpmath.pi)


def l1_reference(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of |K| over |z| = r: K is even in theta, so (1/pi)
    times the integral over [0, pi]."""
    with mpmath.workdps(_DPS):
        return _l1(_circle_value(kernel, r), r)


def f_l1_reference(gamma: int, r: float) -> float:
    """l1_reference of F_gamma, on its closed form."""
    with mpmath.workdps(_DPS):
        return _l1(_f_circle_value(gamma, r), r)
