"""Floating-point evaluation, Fourier multipliers and L1 norms.

Exact expansions become numbers here.  Scalar ``eval_kernel`` evaluates F
and H only, by their (a, b) form, K = t^(gamma+2) u sum_d Re(a^d) P_d(u)
with a = 1/(1 - z) (``conjecture.ABForm``), certified once per kernel
against its terms (``float_ab_form``); any other expansion raises
ValueError.  F's sum has one term, and H's terms cancel little where the
band sum's cancel by up to 1e30.  One Horner body sums the form
(``_ab_sum``): on the form's floats, kept where an error estimate and an
underflow floor allow, and otherwise in mpmath on its ints, with digits
sized from that estimate.

Batch values come from the band sum sum_beta f_beta(t) u^beta, Horner's
rule in u = 1/|1 - z|^2 on float64 arrays (``values_at``, and ``l1_norm``
on kernels other than F).
Each call rounds the kernel's coefficients by int / int, one float per
term, and sums each band f_beta(t) to one float before the array pass.

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

The L1 norm of F has a closed form.  F = dG/dtheta for G = Im Phi,
Phi = sum_(j=1..gamma+1) c^j / j + log(c - 1) with c = t a, and F keeps one
sign between its explicit zeros (``_f_zeros``), so the norm is
(1/pi) sum_k |G(theta_(k+1)) - G(theta_k)| over them (``_f_l1_norm``).

Only the L1 norm of any other kernel, where |K| is not linear in K, is a
quadrature.  On |z| = r the kernel is P_r(q) / q^B in q = |1 - z|^2, and a
float r is a dyadic rational, so the sign changes of K are the roots of an
exact polynomial: ``exact.isolate_roots`` isolates them in P_r's Bernstein
form, and bracketed false position finds each one in float64
(``_root_in``).  Between them, and on pieces graded towards the peak at
theta = 0, |K| is analytic, and Gauss-Legendre rules of 40 and 80 nodes per
piece check each other.

The float band sum takes u = 1/|1 - z|^2 as
(1 + T^2) / ((1 - r)^2 + (1 + r)^2 T^2) with T = tan(theta/2)
(``inv_abs1mz_sq``), which is (1 - r)^2 + 4 r sin^2(theta/2) = |1 - z|^2
rewritten by sin^2 = T^2 / (1 + T^2): a sum of positive terms, free of the
catastrophic cancellation of 1 - 2 r cos(theta) + r^2 near theta = 0,
r -> 1, and on float64 arrays much faster than numpy's sine.  The (a, b)
form takes the sine form.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass
from typing import List, Mapping, Optional

import mpmath
import numpy as np

from .boundary import dirichlet_ratio, horner, radial_ratio
from .conjecture import ABForm
from .exact import bernstein_coefficients, isolate_roots
from .operators import KernelExpansion, check_gamma

# eval_kernel keeps a closed-form value whose error estimate sum_d (d + 1)
# |c|^d Q_d is at most this many times |sum|.  At 12480 seeded points with
# gamma <= 80, r up to 1 - 1e-5 and theta down to 1e-9, the kept values
# stayed within 1e-13 of 120- to 300-digit band sums.
_ESTIMATE_MAX = 1000
# Digits the mpmath sum carries beyond the log10(kappa) that cancellation costs.
_GUARD_DIGITS = 20
# l1_norm's 40- and 80-node Gauss-Legendre sums agree to this, or it raises.
_L1_RTOL = 1e-10
# F's L1 norm keeps its float sum where the rounding bound is at most this
# relative, and is otherwise summed in mpmath to this.
_F_L1_RTOL = 1e-12


class QuadratureConvergenceError(RuntimeError):
    """l1_norm's 40- and 80-node Gauss-Legendre sums differ beyond _L1_RTOL
    (not raised for F, whose norm is a closed form)."""


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


def values_at(kernel: KernelExpansion, r: float, thetas: np.ndarray) -> np.ndarray:
    """Vectorized float64 kernel values at fixed radius, arbitrary angles;
    ValueError where the kernel's highest power of t = 1 - r^2 underflows,
    so that the sum would be finite and wrong.

    Each band f_beta(t) is one float, its terms (c / scale) t^k summed in
    ascending k (int / int rounds correctly); Horner's rule in u then runs
    in place from the top band down, with no temporary array per band.
    """
    _require_radius("values_at", r)
    thetas = np.asarray(thetas, dtype=float)
    # A nan or an infinity reaches min or max, which allocate nothing, unlike
    # an isfinite mask.  Both raise on an empty array, which has nothing to check.
    if thetas.size and not (math.isfinite(thetas.min()) and math.isfinite(thetas.max())):
        raise ValueError("values_at requires finite angles")
    # (1 - r)(1 + r) keeps the digits that 1 - r*r loses as r -> 1.
    t = (1.0 - r) * (1.0 + r)
    if t**kernel.t_degree < sys.float_info.min:
        raise ValueError(f"values_at: t^{kernel.t_degree} underflows float64 at r={r} (gamma={kernel.gamma})")
    u = inv_abs1mz_sq(r, thetas)
    scale, top = kernel.scale, kernel.max_beta()
    bands = {beta: sum(c / scale * t**k for k, c in enumerate(cs, low) if c) for beta, low, cs in kernel.bands}
    total = u * bands.get(top, 0)
    for beta in range(top - 1, 0, -1):
        if beta in bands:
            total += bands[beta]
        total *= u
    return total


def _ab_sum(rows, l_max: int, r, theta, sin, sqrt, cplx):
    """(Re S, estimate, q) with K = Re S / q, S = sum_d c^d Q_d, in the number
    type of r and theta, whose sine, square root and complex constructor
    the caller passes; rows is laid out as ``ABForm.rows``, in ints or
    floats.

    1 - z = x - i y with x = (1 - r) + 2 r sin^2(theta/2), which does not
    cancel near z = 1, so a = (x + i y) / q with q = x^2 + y^2.  The powers
    are taken of c = t a and v = |c|^2 = t^2 u, which stay below 1 + r and
    (1 + r)^2, so none overflows however large gamma is.  P_d's terms are
    positive, so Q_d = t^base sum_l p_(d,l) v^l (t^2)^(L-l) does not
    cancel; only the sum over d does.  Horner's rule in c sums it, and in
    |c| the estimate sum_d (d + 1) |c|^d Q_d of its rounding error in units
    of the working precision.
    """
    h = sin(0.5 * theta)
    x = (1.0 - r) + 2.0 * r * h * h
    y = r * sin(theta)
    q = x * x + y * y
    t = (1.0 - r) * (1.0 + r)
    g = t / q
    c = cplx(x * g, y * g)
    v = g * t
    rho = sqrt(v)
    s = t * t
    powers = [s]
    for _ in range(l_max - 1):
        powers.append(powers[-1] * s)
    total = size = 0.0
    for d, base, coefficients in rows:
        # p_(d,L) takes no power of s, so an int one stays exact in mpmath.
        coefficients = iter(coefficients)
        band = next(coefficients)
        for p, power in zip(coefficients, powers):
            band = band * v + p * power
        band *= t**base
        total = total * c + band
        size = size * rho + (d + 1) * band
    if d:
        total *= c**d
        size *= rho**d
    return total.real, size, q


def _eval_extended(kernel: KernelExpansion, r: float, theta: float) -> float:
    """``_ab_sum`` in mpmath on the exact p_(d,l), to 1e-12 relative: on the
    ints scale p_(d,l) (``ABForm.rows``), which mpmath multiplies without
    converting, divided by scale once.  A pass with dps digits,
    _GUARD_DIGITS + 17 at first, keeps its value once the estimate times
    10^(_GUARD_DIGITS - dps) is below |Re S| or below the smallest float
    times q scale (0.0 at an exact zero); otherwise it retries with
    _GUARD_DIGITS + log10(estimate / |Re S|) digits, at least doubled.
    """
    form = kernel.float_ab_form
    dps = _GUARD_DIGITS + 17
    while True:
        with mpmath.workdps(dps):
            rm, th = mpmath.mpf(r), mpmath.mpf(theta)
            real, size, q = _ab_sum(form.rows, form.l_max, rm, th, mpmath.sin, mpmath.sqrt, mpmath.mpc)
            floor = max(abs(real), math.ulp(0.0) * q * form.scale)
            if size <= floor * mpmath.mpf(10) ** (dps - _GUARD_DIGITS):
                return float(real / (q * form.scale))
            needed = _GUARD_DIGITS + math.ceil(mpmath.log10(size / floor))
        dps = max(needed, 2 * dps)


def _eval_ab_form(form: ABForm, r: float, theta: float) -> Optional[float]:
    """``_ab_sum`` in Python floats, or None where it may miss 1e-12: kept
    where the estimate is at most _ESTIMATE_MAX |Re S|, |Re S| >= form.floor
    and the value is finite.

    The floor: |c| < 2, v < 4 and p_(d,l) <= 1, so the error of at most
    2^-1075 that a power or a product makes below the normal range (gradual
    underflow) grows less than 2^(2 gamma + 2) times, and gamma + 2 times
    more in the estimate.  Over fewer than (gamma + 3)^2 operations that
    stays below 2^-60 of any |Re S| >= form.floor = 2^(3 gamma - 1000).
    """
    real, size, q = _ab_sum(form.floats, form.l_max, r, theta, math.sin, math.sqrt, complex)
    value = real / q
    if form.floor <= abs(real) and size <= _ESTIMATE_MAX * abs(real) and abs(value) < math.inf:
        return value
    return None


def eval_kernel(kernel: KernelExpansion, p: DiscPoint) -> float:
    """F or H, closed-form or built, at one point of the disc, to 1e-12
    relative, by its certified (a, b) form (``float_ab_form``): in Python
    floats (``_eval_ab_form``) and, where that pass may miss 1e-12, in
    mpmath on the exact coefficients (``_eval_extended``); ValueError for
    an expansion with no certified form."""
    form = kernel.float_ab_form
    if form is None:
        raise ValueError(
            "eval_kernel takes F and H only; no (a, b) form is certified for this "
            f"expansion (gamma={kernel.gamma}, top band {kernel.max_beta()})"
        )
    value = _eval_ab_form(form, p.r, p.theta)
    return _eval_extended(kernel, p.r, p.theta) if value is None else value


def integral_mean(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of the kernel over the circle of radius r, exactly
    (its zeroth Fourier coefficient) and then rounded to float."""
    _require_radius("integral_mean", r)
    m, d = r.as_integer_ratio()
    num, den = radial_ratio(kernel, 0, m * m, d * d)
    # int / int is correctly rounded: the float of the exact mean.
    return num / den


def _circle_bernstein(kernel: KernelExpansion, r: float) -> List[int]:
    """Bernstein coefficients, times a positive integer, of P_r on
    q in [(1 - r)^2, (1 + r)^2], where K = P_r(q) / q^B on |z| = r.

    q = |1 - z|^2 and P_r(q) = sum_beta f_beta(t) q^(B - beta).  A float r
    is m / 2^e, so t = 1 - r^2 and both ends of the interval are integers
    over d = 4^e.  The coefficients of P_r are multiplied by d^k_max, the
    kernel's scale (its bands are the integers) and 1 / t^k_min, all
    positive.
    """
    top = kernel.max_beta()
    m, den = r.as_integer_ratio()
    d = den * den
    t = d - m * m
    k_min = min(low for _, low, _ in kernel.bands)
    k_max = kernel.t_degree
    p = [0] * top
    for beta, low, coeffs in kernel.bands:
        # sum_k c t^(k - k_min) d^(k_max - k), from the band's integer Horner sum
        high = low + len(coeffs) - 1
        p[top - beta] = horner(coeffs, t, d) * t ** (low - k_min) * d ** (k_max - high)
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
    if not kernel.bands:
        return []
    thetas = []
    for k, depth, piece in isolate_roots(_circle_bernstein(kernel, r)):
        lam = k / (1 << depth)
        if piece is not None:
            lam += math.ldexp(_root_in(piece), -depth)
        thetas.append(2.0 * math.asin(math.sqrt(min(max(lam, 0.0), 1.0))))
    return thetas


def _f_zeros(gamma: int, r: float) -> List[float]:
    """The zeros of F_gamma on |z| = r in (0, pi), ascending.

    F_gamma is proportional to cos((gamma+1) psi), psi = arg 1/(1-z)
    (``conjecture``), which vanishes at psi_j = (2j-1) pi / (2 gamma + 2).
    On |z| = r the angle psi stays below asin r, and the law of sines in the
    triangle 0, 1, z puts each psi_j < asin r at theta = x - psi_j and
    pi - x - psi_j, where x = asin(sin psi_j / r); the ratio is clamped to 1
    against its rounding where psi_j is next to asin r.
    """
    zeros = []
    limit = math.asin(r)
    j = 1
    while (psi := (2 * j - 1) * math.pi / (2 * gamma + 2)) < limit:
        x = math.asin(min(math.sin(psi) / r, 1.0))
        zeros += [x - psi, math.pi - x - psi]
        j += 1
    return sorted(zeros)


def _f_l1_sum(gamma: int, r, zeros, one, pi, sin, atan2, cplx):
    """((1/pi) sum_k |G(theta_(k+1)) - G(theta_k)|, sum_k S_k) over the cuts
    0, zeros and pi, in the number type of r, zeros, one and pi, whose sine,
    atan2 and complex constructor the caller passes.

    G = Im Phi, Phi = sum_(j=1..gamma+1) c^j / j + log(c - 1), c = t / (1 - z)
    with t = 1 - r^2 and z = r e^(i theta): dPhi/dtheta = i t^(gamma+2) /
    ((1 - z)^(gamma+2) (1 - conj z)), so dG/dtheta = F.  Its sum is taken
    by Horner's rule in c, with c from x and y as in ``_ab_sum``, and
    S_k = sum_j |c|^j / j at the cut by the same rule in |c|.  The log is
    log(z - r^2) - log(1 - z), each branch continuous on [0, pi], where
    sin theta >= 0: arg(z - r^2) = atan2(sin theta, (1 - r) - 2 sin^2(theta/2))
    and arg(1 - z) = atan2(-y, x), so nothing cancels as r -> 1.  At 0 and
    pi, c is real and G is 0 and pi exactly.
    """
    coefficients = [one / j for j in range(gamma + 1, 0, -1)]
    previous = total = size = 0.0
    for theta in zeros:
        h = sin(0.5 * theta)
        h2 = 2.0 * h * h
        s = sin(theta)
        x = (1.0 - r) + r * h2
        y = r * s
        g = (1.0 - r) * (1.0 + r) / (x * x + y * y)
        c = cplx(x * g, y * g)
        rho = abs(c)
        phi = part = 0.0
        for a in coefficients:
            phi = phi * c + a
            part = part * rho + a
        value = (phi * c).imag + atan2(s, (1.0 - r) - h2) - atan2(-y, x)
        total += abs(value - previous)
        size += part * rho
        previous = value
    total += abs(pi - previous)
    return total / pi, size


def _f_l1_extended(gamma: int, r: float, zeros: List[float], bits: int) -> float:
    """``_f_l1_sum`` in mpmath at bits of precision on the same cuts;
    ValueError where the norm overflows float64."""
    with mpmath.workprec(bits):
        mp_zeros = [mpmath.mpf(theta) for theta in zeros]
        total, _ = _f_l1_sum(gamma, mpmath.mpf(r), mp_zeros, mpmath.mpf(1), +mpmath.pi, mpmath.sin, mpmath.atan2, mpmath.mpc)
    value = float(total)
    if not value < math.inf:
        raise ValueError(f"l1_norm: the L1 norm of F_{gamma} at r={r} overflows float64")
    return value


def _f_l1_norm(gamma: int, r: float) -> float:
    """F_gamma's L1 norm on |z| = r from its antiderivative between its zeros
    (``_f_l1_sum``), to _F_L1_RTOL relative: in Python floats where a
    rounding bound allows, otherwise in mpmath (``_f_l1_extended``) with the
    precision sized from that bound; ValueError where the float sum
    overflows.

    The bound: c is within 28 u of c relative (u = eps / 2), which moves
    the sum by 28 u sum_j |c|^j <= 28 (gamma + 1) u S_k, and Horner's rule
    in complex floats adds (sqrt 5 + 1)(gamma + 2) u S_k, so G is within
    16 (gamma + 2) eps S_k of itself at a cut, plus 32 eps for the two
    atan2.  Each G_k enters two differences, and the sum over them rounds
    by (cuts + 1) eps of itself.  A cut rounded to float moves G only
    quadratically, since dG/dtheta = F = 0 there.  The bound is absolute;
    it is relative because the norm is at least |mean| = 1, and at least
    the float value less the bound.
    """
    zeros = _f_zeros(gamma, r)
    value, size = _f_l1_sum(gamma, r, zeros, 1.0, math.pi, math.sin, math.atan2, complex)
    eps = sys.float_info.epsilon
    bound = eps * (2.0 / math.pi * (16 * (gamma + 2) * size + 32 * len(zeros)) + (len(zeros) + 3) * value)
    floor = max(1.0, value - bound)
    if bound <= _F_L1_RTOL * floor:
        return value
    # Also where the float sum overflowed, to inf or nan.
    if not bound < math.inf:
        raise ValueError(f"l1_norm: the antiderivative of F_{gamma} at r={r} overflows float64")
    # The bound scales with the unit roundoff: 53 bits give it, 10 more spare.
    bits = 63 + math.ceil(math.log2(bound / (_F_L1_RTOL * floor)))
    return _f_l1_extended(gamma, r, zeros, bits)


def _is_f(kernel: KernelExpansion) -> bool:
    """Whether the kernel is F_gamma: its top band is F's, gamma + 2, and its
    certified (a, b) form is F's one term.  An H never reaches its own
    certification here."""
    if kernel.max_beta() != kernel.gamma + 2:
        return False
    form = kernel.float_ab_form
    return form is not None and form.rows == ((kernel.gamma + 1, 1, (1,)),)


@functools.cache
def _gauss_legendre(n: int) -> tuple:
    # Built on first use: importing numpy.polynomial costs milliseconds.
    from numpy.polynomial.legendre import leggauss

    return leggauss(n)


def l1_norm(kernel: KernelExpansion, r: float) -> float:
    """(1/2 pi) integral of |kernel| over the circle |z| = r.

    F, closed-form or built (``_is_f``), by its antiderivative between its
    explicit zeros (``_f_l1_norm``): to 1e-12 relative (_F_L1_RTOL) at
    every gamma by a rounding bound, with no quadrature and never
    QuadratureConvergenceError; ValueError only where the norm or its
    antiderivative overflows float64, at gamma in the thousands.

    Any other kernel, H among them, to 1e-10 relative (_L1_RTOL) or
    QuadratureConvergenceError.  The kernel is even in theta, so this is
    (1/pi) times the integral over [0, pi].  That interval is split at the
    kernel's sign changes, where |K| has kinks (``_sign_changes``, exact
    root isolation of P_r), and at (1 - r) 4^j, which grades the pieces
    towards the peak of width 1 - r at theta = 0.  |K| is analytic on each
    piece, so Gauss-Legendre rules converge geometrically there: 40 and 80
    nodes per piece run on the values of one values_at call.  The 80-node
    sum is returned, unless the two sums differ by more than _L1_RTOL
    relative.

    The node values are values_at's float64 band sums, whose rounding grows
    with gamma, and the two sums can agree on an error that every node
    makes alike: the result is within 2e-14 of an mpmath reference for the
    kernels up to gamma 8 at r <= 0.999, but H_20 at r = 0.99 is 3e-11 off
    and H_24 at r = 0.5 is 8.5e-11 off, while H_24 at r = 0.9 and 0.99 and
    H_40 and H_80 at r = 0.3 raise.
    """
    _require_radius("l1_norm", r)
    if _is_f(kernel):
        return _f_l1_norm(kernel.gamma, r)
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
