"""References computed apart from biharm, and the checks built on them.

Nothing in this module imports biharm.  A kernel table is a plain dict
``{beta: {k: Fraction}}`` standing for

    K(z) = sum_beta sum_k c * t^k / |1 - z|^(2 beta),     t = 1 - |z|^2,

which is the layout of biharm's ``KernelExpansion.terms`` and of the JSON
document written by ``biharm gen --format json``.

Four references:

* the exact Dirichlet solution for boundary data e^(i n theta), as exact
  rationals (``radial_factor``);
* the Fourier multipliers of a table, by Gauss hypergeometric sums in
  mpmath (``multiplier``);
* the value of a table at a point, in mpmath at a precision sized from the
  cancellation of its terms (``point_value``);
* the L1 norm of a table on a circle, by mpmath quadrature split at the
  kernel's sign changes (``l1_reference``).

Each ``check_*`` function returns None when the program's output agrees with
a reference and a one-line reason when it does not.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import mpmath

Table = Dict[int, Dict[int, Fraction]]

# Significant digits every reference value carries, after cancellation.
_DIGITS = 30


# ---------------------------------------------------------------------------
# exact Dirichlet solution


def phi_coeffs(gamma: int, n: int) -> List[Fraction]:
    """Coefficients of phi_n(x) = sum_j a_j x^(j+1), j = 0..gamma.

    phi_n is the solution regular at 0 of (x^(n+1) phi')' = x^n (1 - x)^gamma
    with phi_n(0) = 0; expanding (1 - x)^gamma binomially and integrating
    twice gives a_j = (-1)^j C(gamma, j) / ((n + j + 1)(j + 1)).
    """
    return [
        Fraction((-1) ** j * math.comb(gamma, j), (n + j + 1) * (j + 1))
        for j in range(gamma + 1)
    ]


def _mpf(q: Fraction) -> mpmath.mpf:
    return mpmath.mpf(q.numerator) / q.denominator


def _phi(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    return sum((a * x ** (j + 1) for j, a in enumerate(coeffs)), Fraction(0))


def _dphi(coeffs: Sequence[Fraction], x: Fraction) -> Fraction:
    return sum((a * (j + 1) * x**j for j, a in enumerate(coeffs)), Fraction(0))


def dirichlet_constants(gamma: int, n: int, kind: str) -> Tuple[Fraction, Fraction]:
    """(A, C) with u = z^n (A + C phi_n(|z|^2)) solving D w^-1 D u = 0 and

        F:  u = e^(i n theta),  -d_r u = 0              on |z| = 1
        H:  u = 0,              -d_r u = e^(i n theta)  on |z| = 1

    for n >= 0.  On |z| = 1, u = A + C phi(1) and -d_r u = -n (A + C phi(1))
    - 2 C phi'(1); phi'(1) is a Beta integral and never vanishes.
    """
    if n < 0:
        raise ValueError(f"harmonic must be >= 0, got {n}")
    coeffs = phi_coeffs(gamma, n)
    p1, dp1 = _phi(coeffs, Fraction(1)), _dphi(coeffs, Fraction(1))
    if kind == "F":
        c = Fraction(-n) / (2 * dp1)
        return 1 - c * p1, c
    if kind == "H":
        c = Fraction(-1) / (2 * dp1)
        return -c * p1, c
    raise ValueError(f"kind must be 'F' or 'H', got {kind!r}")


def radial_factor(gamma: int, n: int, kind: str, s: Fraction) -> Fraction:
    """A + C phi_n(s): the exact solution for e^(i n theta) data is
    r^|n| * radial_factor(gamma, |n|, kind, r^2) * e^(i n theta)."""
    a, c = dirichlet_constants(gamma, n, kind)
    return a + c * _phi(phi_coeffs(gamma, n), s)


def exact_solution(
    gamma: int,
    f0: Mapping[int, complex],
    f1: Mapping[int, complex],
    r: float,
    theta: float,
) -> float:
    """Real part of the exact solution with trigonometric boundary data."""
    s = Fraction(r) ** 2
    with mpmath.workdps(_DIGITS):
        total = mpmath.mpc(0)
        for kind, data in (("F", f0), ("H", f1)):
            for n, c in data.items():
                factor = _mpf(radial_factor(gamma, abs(n), kind, s))
                total += (
                    mpmath.mpc(c)
                    * mpmath.mpf(r) ** abs(n)
                    * factor
                    * mpmath.expj(n * mpmath.mpf(theta))
                )
        return float(total.real)


# ---------------------------------------------------------------------------
# mpmath evaluation at a precision sized from cancellation


def _sized_sum(terms_at) -> mpmath.mpf:
    """sum(terms_at()) with _DIGITS correct digits.

    terms_at() lists the terms at the current working precision.  A first
    pass measures kappa = sum|term| / |sum term|; the sum is recomputed with
    log10(kappa) more digits when the first pass could not carry them.
    """
    base = _DIGITS + 10
    with mpmath.workdps(base):
        terms = terms_at()
        total = mpmath.fsum(terms)
        size = mpmath.fsum(abs(x) for x in terms)
    if total == 0 and size == 0:
        return mpmath.mpf(0)
    lost = 0 if total == 0 else max(0, int(mpmath.log10(size / abs(total))) + 1)
    if total != 0 and lost + _DIGITS <= base:
        return total
    extra = lost if total != 0 else base
    with mpmath.workdps(base + extra + 10):
        return mpmath.fsum(terms_at())


def point_value(table: Table, r: float, theta: float) -> mpmath.mpf:
    """K(r e^(i theta)) with _DIGITS correct digits."""

    def terms_at():
        rm, th = mpmath.mpf(r), mpmath.mpf(theta)
        q = (1 - rm) ** 2 + 4 * rm * mpmath.sin(th / 2) ** 2
        t = 1 - rm * rm
        return [
            _mpf(c) * t**k / q**beta
            for beta, poly in table.items()
            for k, c in poly.items()
        ]

    return _sized_sum(terms_at)


def multiplier(table: Table, n: int, r: float) -> mpmath.mpf:
    """n-th Fourier coefficient of K on the circle of radius r.

    The n-th coefficient of t^k / |1 - z|^(2 beta) there is
    t^k C(n + beta - 1, n) r^n 2F1(beta, beta + n; n + 1; r^2), from the
    binomial series of (1 - z)^-beta (1 - zbar)^-beta.
    """
    n = abs(n)

    def terms_at():
        rm = mpmath.mpf(r)
        t = 1 - rm * rm
        out = []
        for beta, poly in table.items():
            series = math.comb(n + beta - 1, n) * rm**n * mpmath.hyp2f1(beta, beta + n, n + 1, rm * rm)
            out.extend(_mpf(c) * t**k * series for k, c in poly.items())
        return out

    return _sized_sum(terms_at)


# ---------------------------------------------------------------------------
# L1 norm


def _sign_changes(value, lo, hi, samples: int) -> List[mpmath.mpf]:
    """Zeros of value() on (lo, hi), located by sampling and bisection.

    Half the samples are spaced geometrically from lo, so that the narrow
    peak of a kernel near theta = 0 is resolved as well as the rest of the
    circle, which the other, uniform half covers.
    """
    geometric = [lo + (hi - lo) * mpmath.mpf(2) ** (-40 * i / samples) for i in range(samples)]
    uniform = [lo + (hi - lo) * i / samples for i in range(samples + 1)]
    grid = sorted(set(geometric + uniform))
    roots = []
    prev_x, prev_v = grid[0], value(grid[0])
    for x in grid[1:]:
        v = value(x)
        if v != 0 and (v > 0) != (prev_v > 0):
            a, b, va = prev_x, x, prev_v
            for _ in range(60):
                mid = (a + b) / 2
                vm = value(mid)
                if (vm > 0) == (va > 0):
                    a, va = mid, vm
                else:
                    b = mid
            roots.append((a + b) / 2)
        prev_x, prev_v = x, v
    return roots


def l1_reference(table: Table, gamma: int, kind: str, r: float) -> mpmath.mpf:
    """(1/2 pi) integral of |K| over the circle of radius r.

    On a circle K is a polynomial in 1/|1 - z|^2 whose coefficients, the
    band values f_beta(t), are computed once.  The working precision covers
    the largest term, sum_beta |f_beta| / (1 - r)^(2 beta) at theta = 0,
    against the exact circle mean, which bounds the L1 norm from below.
    K is even in theta, so the integral is (1/pi) times the one over
    [0, pi], split at the zeros of K and at multiples of 1 - r, the width
    of the peak at theta = 0.
    """
    rm = mpmath.mpf(r)

    def band_values(dps):
        with mpmath.workdps(dps):
            t = 1 - rm * rm
            return {beta: mpmath.fsum(_mpf(c) * t**k for k, c in poly.items()) for beta, poly in table.items()}

    mean = abs(float(radial_factor(gamma, 0, kind, Fraction(r) ** 2)))
    with mpmath.workdps(_DIGITS):
        peak = mpmath.fsum(abs(f) / (1 - rm) ** (2 * beta) for beta, f in band_values(_DIGITS + 10).items())
    dps = _DIGITS + max(0, int(mpmath.log10(peak / mean)) + 1)
    bands = band_values(dps + 10)

    def value(theta):
        with mpmath.workdps(dps):
            u = 1 / ((1 - rm) ** 2 + 4 * rm * mpmath.sin(theta / 2) ** 2)
            return mpmath.fsum(f * u**beta for beta, f in bands.items())

    zero, pi = mpmath.mpf(0), mpmath.pi
    roots = _sign_changes(value, zero, pi, 200)
    peak = [mpmath.mpf(1 - r) * 4**j for j in range(12)]
    cuts = sorted({zero, pi, *roots, *(x for x in peak if x < pi)})
    with mpmath.workdps(20):
        return mpmath.quad(lambda th: abs(value(th)), cuts) / mpmath.pi


# ---------------------------------------------------------------------------
# checks


def rel_err(got: float, ref) -> float:
    ref = float(ref)
    if ref == 0:
        return abs(got)
    return abs(got - ref) / abs(ref)


def check_multipliers(
    table: Table, gamma: int, kind: str, cases: Iterable[Tuple[int, float]], rtol: float = 1e-20
) -> Optional[str]:
    """The table's Fourier multipliers equal the exact Dirichlet solution.

    F must reproduce e^(i n theta) data with zero normal derivative and H
    the converse, so its n-th multiplier at radius r is
    r^n radial_factor(gamma, n, kind, r^2).  One changed coefficient moves
    every multiplier, since each term's multiplier is positive.
    """
    for n, r in cases:
        got = multiplier(table, n, r)
        with mpmath.workdps(_DIGITS):
            exact = mpmath.mpf(r) ** n * _mpf(radial_factor(gamma, n, kind, Fraction(r) ** 2))
            err = abs(got - exact) / abs(exact)
        if err > rtol:
            return f"{kind}_{gamma} multiplier n={n} r={r}: relative error {float(err):.3g} > {rtol:g}"
    return None


def check_values(
    got: Sequence[float], refs: Sequence, rtol: float, label: str
) -> Optional[str]:
    """Each got[i] is within rtol of refs[i], relative to refs[i]."""
    for i, (g, ref) in enumerate(zip(got, refs)):
        err = rel_err(g, ref)
        if not err <= rtol:
            return f"{label} point {i}: relative error {err:.3g} > {rtol:g}"
    return None


def check_solve(
    got: float, gamma: int, f0, f1, r: float, theta: float, tol: float = 1e-9
) -> Optional[str]:
    """A Dirichlet solve is within tol times the data's size of the exact one.

    The size sum |f_n| bounds the solution and sets the scale of the
    solver's own stopping test.
    """
    exact = exact_solution(gamma, f0, f1, r, theta)
    scale = sum(abs(c) for c in f0.values()) + sum(abs(c) for c in f1.values())
    if not abs(got - exact) <= tol * scale:
        return (
            f"solve gamma={gamma} r={r} theta={theta:.6g}: "
            f"error {abs(got - exact):.3g} > {tol:g} x {scale:.3g}"
        )
    return None


def parse_table_document(text: str) -> Tuple[int, str, Table]:
    """(gamma, kind, table) from the JSON document of `biharm gen`."""
    doc = json.loads(text)
    table: Table = {}
    for entry in doc["terms"]:
        poly = {int(c["k"]): Fraction(int(c["num"]), int(c["den"])) for c in entry["coeffs"]}
        table[int(entry["beta"])] = poly
    return int(doc["gamma"]), str(doc["kind"]), table


def check_document(
    text: str, gamma: int, kind: str, cases: Iterable[Tuple[int, float]]
) -> Optional[str]:
    """A `gen --format json` document describes the kernel of (gamma, kind)."""
    try:
        got_gamma, got_kind, table = parse_table_document(text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"gen {kind}_{gamma}: unreadable document ({exc})"
    if (got_gamma, got_kind) != (gamma, kind):
        return f"gen {kind}_{gamma}: document is for {got_kind}_{got_gamma}"
    return check_multipliers(table, gamma, kind, cases)


def check_verify_output(text: str, gamma_max: int) -> Optional[str]:
    """`biharm verify` passed all six checks for each gamma 0..gamma_max."""
    lines = text.strip().splitlines()
    if len(lines) != gamma_max + 2:
        return f"verify: {len(lines)} lines, expected {gamma_max + 2}"
    for gamma, line in enumerate(lines[:-1]):
        cells = line.split("\t")
        if cells[0] != f"gamma={gamma}" or len(cells) != 7:
            return f"verify: malformed line {line!r}"
        bad = [c for c in cells[1:] if not c.endswith("=pass")]
        if bad:
            return f"verify gamma={gamma}: {bad}"
    if lines[-1] != f"checked={gamma_max + 1}\tfailures=0":
        return f"verify: summary {lines[-1]!r}"
    return None


def parse_tsv(text: str) -> List[List[float]]:
    """Rows of a `means` or `l1check` table, header dropped."""
    return [[float(x) for x in line.split("\t")] for line in text.strip().splitlines()[1:]]
