"""Floating-point evaluation, Fourier multipliers and L1 quadrature.

Exact expansions become numbers here.  Scalar ``eval_kernel`` evaluates F
and H by their (a, b) form, K = t^(gamma+2) u sum_d Re(a^d) P_d(u) with
a = 1/(1 - z) (``conjecture``), in Python floats: F's sum has one term,
and H's terms cancel little where the band sum's cancel by up to 1e30.  A
kernel takes that form only where its exact band expansion is == to the
kernel's terms, decided once per kernel (``float_ab_form``), and a point
keeps its value only where an error estimate and an underflow floor allow.

Every other value comes from one band sum, Horner's rule in
u = 1/|1 - z|^2: sum_beta f_beta(t) u^beta with one add and one multiply
per band, on float64 arrays (``values_at``, ``l1_norm``) and on mpmath
numbers (the rest of ``eval_kernel``).  The float path takes each
kernel's coefficients rounded once per kernel (``float_bands``), not once
per call; the mpmath path converts them at its working precision, measures
kappa = sum |term| / |sum term|, the factor by which the terms cancel, and
sums again with about 20 + log10(kappa) digits where its first pass would
miss 1e-12.

Integral means and Dirichlet solves use no quadrature: Fourier
coefficients on |z| = r are exact rationals in r^2, computed as an integer
numerator and denominator and rounded to float once per multiplier by
int / int, which rounds correctly, so no Fraction is formed.
``integral_mean`` takes them from the kernel it is given
(``boundary.radial_ratio``).  ``solve_dirichlet`` takes those of F and H
from the radial ODE (``boundary.dirichlet_ratio``, whose table per
(gamma, |n|) is cached), so it builds no kernel; its solution for
trigonometric boundary data is a finite sum of data coefficients times
multipliers, with one exact multiplier and one rounding per (kind, |n|),
shared by the harmonics n and -n.

Only the L1 norm, where |K| is not linear in K, is a quadrature.  On
|z| = r the kernel is P_r(q) / q^B in q = |1 - z|^2, and a float r is a
dyadic rational, so the sign changes of K are the roots of an exact
polynomial: ``exact.isolate_roots`` isolates them in P_r's Bernstein form,
and bracketed false position finds each one in float64 (``_root_in``).
Between them, and on pieces graded towards the peak at theta = 0, |K| is
analytic, and Gauss-Legendre rules of 40 and 80 nodes per piece check each
other.

The float band sum takes u = 1/|1 - z|^2 as
(1 + T^2) / ((1 - r)^2 + (1 + r)^2 T^2) with T = tan(theta/2)
(``inv_abs1mz_sq``), which is (1 - r)^2 + 4 r sin^2(theta/2) = |1 - z|^2
rewritten by sin^2 = T^2 / (1 + T^2): a sum of positive terms, free of the
catastrophic cancellation of 1 - 2 r cos(theta) + r^2 near theta = 0,
r -> 1, and on float64 arrays much faster than numpy's sine.  The (a, b)
form and the mpmath sum take the sine form.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Mapping, Optional

import mpmath
import numpy as np

from .boundary import dirichlet_ratio, radial_ratio
from .exact import bernstein_coefficients, isolate_roots
from .operators import FloatABForm, KernelExpansion, check_gamma

# eval_kernel keeps a closed-form value whose error estimate sum_d (d + 1)
# |c|^d Q_d is at most this many times |sum|.  At 12480 seeded points with
# gamma <= 80, r up to 1 - 1e-5 and theta down to 1e-9, the kept values
# stayed within 1e-13 of 120- to 300-digit band sums.
_ESTIMATE_MAX = 1000
# Digits the mpmath sum carries beyond the log10(kappa) that cancellation costs.
_GUARD_DIGITS = 20
# l1_norm's 40- and 80-node Gauss-Legendre sums agree to this, or it raises.
_L1_RTOL = 1e-10


class QuadratureConvergenceError(RuntimeError):
    """l1_norm's 40- and 80-node Gauss-Legendre sums differ beyond _L1_RTOL."""


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


def inv_abs1mz_sq(r, theta):
    """u = 1/|1 - r e^(i theta)|^2 = (1 + T^2) / ((1 - r)^2 + (1 + r)^2 T^2)
    with T = tan(theta/2); scalar or array.

    This is (1 - r)^2 + 4 r sin^2(theta/2) = |1 - z|^2 with
    sin^2(theta/2) = T^2 / (1 + T^2).  Both terms of the denominator are
    positive, so nothing cancels near z = 1 as r -> 1.  tan is pi-periodic
    in theta/2, so every finite theta is taken; |T| stays below about 1e18
    for a double, so T^2 cannot overflow, and at theta = +-pi, T = 1.6e16
    and u rounds to 1/(1 + r)^2.  numpy's float64 tan took 75 us on 2^15
    angles where its sine took 525 us (2-core x86 with AVX-512, numpy 2.4).

    An array's steps run in theta/2's buffer and one more.  A scalar theta,
    which is what values_at's 0-d input becomes, goes through the same numpy
    operations on np.float64 scalars, so it rounds exactly as the same
    angle in an array.
    """
    half = theta / 2.0
    # In place on an array; on a scalar each augmented operation below
    # rebinds instead.
    t2 = np.tan(half, out=half if isinstance(half, np.ndarray) else None)
    t2 *= t2
    u = t2 + 1.0
    t2 *= (1.0 + r) ** 2
    t2 += (1.0 - r) ** 2
    u /= t2
    return u


def _mpf(c: Fraction):
    return mpmath.mpf(c.numerator) / c.denominator


def _band_terms(kernel: KernelExpansion, t) -> list:
    """The terms c t^k of each band f_beta(t) in mpmath, top band first, None
    for an absent band; each exact coefficient is converted at the working
    precision."""
    return [
        [_mpf(c) * t**k for k, c in poly.items()] if poly else None
        for poly in map(kernel.terms.get, range(kernel.max_beta(), 0, -1))
    ]


def _float_terms(kernel: KernelExpansion, t) -> list:
    """The terms c t^k of each band in float64, in _band_terms' layout, from
    the coefficients the kernel rounded once (``float_bands``)."""
    return [[c * t**k for k, c in band] if band else None for band in kernel.float_bands]


def _horner(bands: list, u, reduce=sum):
    """sum_beta reduce(band terms) u^beta, u = 1/|1 - z|^2 a float64 array or
    scalar or an mpmath number, by Horner's rule from the top band down.

    No power of u is formed, and the updates are in place: a numpy u costs
    the array total, which starts as u times the top band, and no temporary
    per band.
    """
    bands = iter(bands)
    total = u * reduce(next(bands, None) or ())
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
    # A nan or an infinity reaches min or max, which allocate nothing, unlike
    # an isfinite mask.  Both raise on an empty array, which has nothing to check.
    if thetas.size and not (math.isfinite(thetas.min()) and math.isfinite(thetas.max())):
        raise ValueError("values_at requires finite angles")
    u = inv_abs1mz_sq(r, thetas)
    # (1 - r)(1 + r) keeps the digits that 1 - r*r loses as r -> 1.
    return _horner(_float_terms(kernel, (1.0 - r) * (1.0 + r)), u)


def _eval_extended(kernel: KernelExpansion, r: float, theta: float) -> float:
    """The band sum in mpmath, to 1e-12 relative.

    t >= 0 and u > 0, so a term c t^k u^beta has the sign of c, and the
    Horner sum of |c t^k| is size = sum |term|.  The first pass carries
    _GUARD_DIGITS + 17 digits.  Each pass measures kappa = size / |sum|,
    which bounds its sum's error by size 10^(_GUARD_DIGITS - dps), and keeps
    the sum once that bound is below |sum| or below the smallest float (then
    the rounding is exact: 0.0 for an empty expansion or a zero of the
    kernel).  Otherwise it retries with _GUARD_DIGITS + log10(kappa) digits,
    at least doubled, so it stops by 2 (_GUARD_DIGITS + log10(size) + 324).
    """
    dps = _GUARD_DIGITS + 17
    while True:
        with mpmath.workdps(dps):
            rm = mpmath.mpf(r)
            u = 1 / ((1 - rm) ** 2 + 4 * rm * mpmath.sin(mpmath.mpf(theta) / 2) ** 2)
            bands = _band_terms(kernel, 1 - rm * rm)
            total, size = _horner(bands, u), _horner(bands, u, _abs_sum)
            floor = max(abs(total), math.ulp(0.0))
            if size <= floor * mpmath.mpf(10) ** (dps - _GUARD_DIGITS):
                return float(total)
            needed = _GUARD_DIGITS + math.ceil(mpmath.log10(size / floor))
        dps = max(needed, 2 * dps)


def _eval_ab_form(form: FloatABForm, r: float, theta: float) -> Optional[float]:
    """K = u sum_d Re(c^d) Q_d in Python floats, or None where it may miss
    1e-12.

    1 - z = x - i y with x = (1 - r) + 2 r sin^2(theta/2), which does not
    cancel near z = 1, so a = (x + i y) / q with q = x^2 + y^2.  The powers
    are taken of c = t a and v = |c|^2 = t^2 u, which stay below 1 + r and
    (1 + r)^2, so none overflows however large gamma is.  P_d's terms are
    positive, so Q_d = t^base sum_l p_(d,l) v^l (t^2)^(L-l) does not cancel;
    only the sum over d does.  Horner's rule in c sums it, and in |c| the
    estimate sum_d (d + 1) |c|^d Q_d.  The value is kept where that estimate
    is at most _ESTIMATE_MAX times |sum| and |sum| >= form.floor.

    The floor: |c| < 2, v < 4 and p_(d,l) <= 1, so the error of at most
    2^-1075 that a power or a product makes below the normal range (gradual
    underflow) grows less than 2^(2 gamma + 2) times, and gamma + 2 times
    more in the estimate.  Over fewer than (gamma + 3)^2 operations that
    stays below 2^-60 of any |sum| >= form.floor = 2^(3 gamma - 1000).
    """
    h = math.sin(0.5 * theta)
    x = (1.0 - r) + 2.0 * r * h * h
    y = r * math.sin(theta)
    q = x * x + y * y
    t = (1.0 - r) * (1.0 + r)
    g = t / q
    c = complex(x * g, y * g)
    v = g * t
    rho = math.sqrt(v)
    powers = [1.0]
    s = t * t
    for _ in range(form.l_max):
        powers.append(powers[-1] * s)
    total = size = 0.0
    for d, base, coefficients in form.terms:
        band = 0.0
        for p, power in zip(coefficients, powers):
            band = band * v + p * power
        band *= t**base
        total = total * c + band
        size = size * rho + (d + 1) * band
    if d:
        total *= c**d
        size *= rho**d
    value = total.real / q
    if form.floor <= abs(total.real) and size <= _ESTIMATE_MAX * abs(total.real) and abs(value) < math.inf:
        return value
    return None


def eval_kernel(kernel: KernelExpansion, p: DiscPoint) -> float:
    """Kernel value at one point of the disc, to 1e-12 relative.

    A kernel whose (a, b) form is certified (``float_ab_form``: F and H,
    also when built) is evaluated by it in Python floats
    (``_eval_ab_form``).  Every point that form does not keep, and every
    other expansion, takes the band sum in mpmath (``_eval_extended``).
    """
    form = kernel.float_ab_form
    value = None if form is None else _eval_ab_form(form, p.r, p.theta)
    return _eval_extended(kernel, p.r, p.theta) if value is None else value


def integral_mean(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of the kernel over the circle of radius r, exactly
    (its zeroth Fourier coefficient) and then rounded to float."""
    _require_radius("integral_mean", r)
    m, d = r.as_integer_ratio()
    num, den = radial_ratio(kernel, 0, m * m, d * d)
    # int / int is correctly rounded, so this is float(radial_factor(...)).
    return num / den


def _circle_bernstein(kernel: KernelExpansion, r: float) -> List[int]:
    """Bernstein coefficients, times a positive integer, of P_r on
    q in [(1 - r)^2, (1 + r)^2], where K = P_r(q) / q^B on |z| = r.

    q = |1 - z|^2 and P_r(q) = sum_beta f_beta(t) q^(B - beta).  A float r
    is m / 2^e, so t = 1 - r^2 and both ends of the interval are integers
    over d = 4^e.  The coefficients of P_r are multiplied by d^k_max, the
    lcm of the kernel's denominators (``integer_bands``) and 1 / t^k_min,
    all positive.
    """
    top = kernel.max_beta()
    m, den = Fraction(r).as_integer_ratio()
    d = den * den
    t = d - m * m
    bands = kernel.integer_bands.bands
    k_min = min(low for _, low, _ in bands)
    k_max = max(low + len(coeffs) - 1 for _, low, coeffs in bands)
    p = [0] * top
    for beta, low, coeffs in bands:
        p[top - beta] = sum(
            c * t ** (k - k_min) * d ** (k_max - k) for k, c in enumerate(coeffs, low) if c
        )
    return bernstein_coefficients(p, (den - m) ** 2, (den + m) ** 2, d)


def _root_in(piece: List[int]) -> float:
    """The one root in [0, 1] of a Bernstein form from isolate_roots, by
    bracketed false position (the Illinois variant) in float64.

    With scaled coefficients C(n, i) b_i, the form is (1 - x)^n times
    sum C(n, i) b_i (x / (1 - x))^i, a sum with positive powers that
    Horner's rule evaluates to O(n eps) of its terms' magnitude (reversed,
    as x^n times a sum in (1 - x) / x, for x > 1/2; the two agree at 1/2,
    so the evaluated function is continuous), and a root of the Bernstein
    form moves little with its coefficients (Farouki & Rajan 1987).  The
    integers are scaled by a power of 2 to fit a float.

    Each step interpolates linearly between the ends of the bracket, and
    an end kept twice in a row has its value halved, so neither end
    sticks.  An interpolated point that rounds onto an end moves to the
    float next to it, inside: near the root the values are rounding noise,
    and that one float closes the bracket.  The midpoint is taken instead
    where an end's value is 0 and after three steps that failed to halve
    the bracket, so no root costs much more than bisection.  It stops
    where bisection stops: on an exact zero, or once no float lies strictly
    between the ends, returning their float midpoint.
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

    # The values at 0 and 1; either may be 0, at a root on the end.
    lo, hi, f_lo, f_hi = 0.0, 1.0, floats[0], floats[-1]
    # kept: the end the last step kept (-1 lo, +1 hi); slow: steps since the
    # bracket last halved.
    kept = slow = 0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return mid
        x = mid
        if slow < 3 and f_lo and f_hi:
            x = lo - f_lo * ((hi - lo) / (f_hi - f_lo))
            if x <= lo:
                x = math.nextafter(lo, hi)
            elif x >= hi:
                x = math.nextafter(hi, lo)
        value = value_at(x)
        if value == 0:
            return x
        width = hi - lo
        if (value > 0) == positive_left:
            lo, f_lo = x, value
            if kept > 0:
                f_hi *= 0.5
            kept = 1
        else:
            hi, f_hi = x, value
            if kept < 0:
                f_lo *= 0.5
            kept = -1
        slow = slow + 1 if hi - lo > 0.5 * width else 0


def _sign_changes(kernel: KernelExpansion, r: float) -> List[float]:
    """The angles in (0, pi) where the kernel changes sign on |z| = r,
    from the exactly isolated roots of P_r.

    q = (1 - r)^2 + 4 r lam maps lam in [0, 1] onto the interval of q, and
    then theta = 2 asin(sqrt(lam)); lam is clamped to [0, 1] against its
    rounding.
    """
    if not kernel.terms:
        return []
    thetas = []
    for k, depth, piece in isolate_roots(_circle_bernstein(kernel, r)):
        lam = k / (1 << depth)
        if piece is not None:
            lam += math.ldexp(_root_in(piece), -depth)
        thetas.append(2.0 * math.asin(math.sqrt(min(max(lam, 0.0), 1.0))))
    return thetas


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    # Built on first use: importing numpy.polynomial costs milliseconds.
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


def l1_norm(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of |kernel| over the circle |z| = r, to 1e-10
    relative (_L1_RTOL) or QuadratureConvergenceError.

    The kernel is even in theta, so this is (1/pi) times the integral over
    [0, pi].  That interval is split at the kernel's sign changes, where |K|
    has kinks (``_sign_changes``, exact root isolation of P_r), and at
    (1 - r) 4^j, which grades the pieces towards the peak of width 1 - r at
    theta = 0.  |K| is analytic on each piece, so Gauss-Legendre rules
    converge geometrically there: 40 and 80 nodes per piece run on the
    values of one values_at call.  The 80-node sum is returned, unless the
    two sums differ by more than _L1_RTOL relative.

    The node values are values_at's float64 band sums, whose rounding grows
    with gamma: the result is within 2e-14 of an mpmath reference for the
    kernels up to gamma 8 at r <= 0.999, 8e-11 off for F_20 at 0.99,
    and F_40 raises at r = 0.5, its two sums 2e-7 to 1e-5 apart.  From
    gamma 24 on it can be wrong without raising (F_80 at r = 0.3: 8.5e21,
    not 1.1e8) until values come from the closed forms (ROADMAP.md).
    """
    _require_radius("l1_norm", r)
    cuts = {0.0, math.pi, *_sign_changes(kernel, r)}
    width = 1.0 - r
    while width < math.pi:
        cuts.add(width)
        width *= 4.0
    ends = np.array(sorted(cuts))
    mid, half = (ends[1:] + ends[:-1]) / 2, (ends[1:] - ends[:-1]) / 2
    rules = [_gauss_legendre(n) for n in (40, 80)]
    thetas = np.concatenate([(mid[:, None] + half[:, None] * x).ravel() for x, _ in rules])
    weights = [(half[:, None] * w).ravel() for _, w in rules]
    values = np.abs(values_at(kernel, r, thetas))
    coarse = float(weights[0] @ values[: weights[0].size]) / math.pi
    fine = float(weights[1] @ values[weights[0].size :]) / math.pi
    if abs(coarse - fine) > _L1_RTOL * fine:
        raise QuadratureConvergenceError(
            f"L1 quadrature at r={r}: the 40- and 80-node Gauss-Legendre sums "
            f"{coarse!r} and {fine!r} differ by more than {_L1_RTOL} relative"
        )
    return fine


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
    (``boundary.dirichlet_ratio``) as an integer numerator and
    denominator, whose quotient int / int rounds correctly to the float of
    the exact multiplier; no kernel is built, and n and -n share one.  Real
    (conjugate-symmetric) data produces a real value.
    """
    check_gamma(gamma)
    for n, c in (*f0.items(), *f1.items()):
        if type(n) is bool or not isinstance(n, int):
            raise ValueError(f"harmonics must be ints, got {n!r}")
        if not cmath.isfinite(c):
            raise ValueError(f"data coefficients must be finite, got {c!r}")
    m, d = p.r.as_integer_ratio()
    m, d = m * m, d * d
    u = 0.0 + 0.0j
    for kind, data in (("F", f0), ("H", f1)):
        # One multiplier per |n|, shared by n and -n.  r^|n| in float keeps
        # the exact part's cost independent of |n|.
        multiplier = {}
        for k in {abs(n) for n in data}:
            num, den = dirichlet_ratio(gamma, kind, k, m, d)
            multiplier[k] = p.r**k * (num / den)
        for n, c in data.items():
            u += c * multiplier[abs(n)] * cmath.exp(1j * n * p.theta)
    return float(u.real)
