"""Differential operators acting on banded kernel expansions.

A kernel candidate on the unit disc is stored as a finite sum

    u(z) = sum_beta f_beta(x) / |1 - z|^(2 beta),        x = |z|^2,

with each ``f_beta`` a polynomial in ``t = 1 - x``, held exactly as integers
over one scale (``KernelExpansion``), whose other views (``terms``,
``t_degree``, the certified (a, b) form) are made on first use and kept; no
float view is kept.  The Laplacian ``D = d^2/(dz dzbar)`` maps the band
``beta`` term to a pair of neighbouring bands:

    D(f / |1-z|^(2 beta)) = (P_beta f) / |1-z|^(2 beta)
                            + (Q_beta f) / |1-z|^(2 (beta+1)),

where, writing ' for d/dx,

    P_beta f = (1 - beta) f' + x f'',
    Q_beta f = beta (beta f + (1 - x) f').

Since d/dx = -d/dt, both act on one monomial t^k by a coefficient form:

    P_beta t^k = k (k - 1) t^(k-2) + k (beta - k) t^(k-1),
    Q_beta t^k = beta (beta - k) t^k.

Iterating the band map through division by the weight
``w(x) = (1 - x)^gamma`` gives the weighted biharmonic image of an
expansion.  The module computes that image two ways: one closed form,
``monomial_terms``, for a single monomial ``t^k``, whose three two-step
compositions collapse to six integer products, returned as flat (band,
exponent, int) entries that the builder reads straight into its rows
(``monomial_image`` is their dict view, zeros dropped), and one generic
composition, ``biharmonic``, for any expansion (every check), which
applies the coefficient forms one Laplacian step at a time on the
kernel's integers, laid out as dense rows.  The two agree on every
monomial (see the operator tests and ``verify --deep``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from .exact import LaurentPoly

if TYPE_CHECKING:
    from .conjecture import ABForm

# Band-indexed coefficient sequence: beta -> polynomial in t.  The same shape
# as KernelExpansion.terms, but entries may be genuinely Laurent (negative
# exponents) after division by the weight.
CoeffSequence = Dict[int, LaurentPoly]


# One band of a kernel: (beta, low, (scale c_low, ..., scale c_high)), c_k
# the coefficient of t^k, 0 in gaps, nonzero at both ends.
Band = Tuple[int, int, Tuple[int, ...]]


@dataclass(frozen=True)
class KernelExpansion:
    """A finite banded expansion sum_beta f_beta(t) / |1-z|^(2 beta), in one
    form: integers over one scale.  bands holds one Band per nonzero
    f_beta, beta ascending, and scale > 0 shares no factor with all their
    integers, so == compares integers and the repr is canonical
    (``make_expansion`` builds it).  Instances are treated as immutable,
    so each view below is made on first use and kept; none is a field.
    """

    gamma: int
    scale: int
    bands: Tuple[Band, ...]

    def max_beta(self) -> int:
        return self.bands[-1][0] if self.bands else 0

    @functools.cached_property
    def terms(self) -> Dict[int, LaurentPoly]:
        """bands / scale as {beta: {k: Fraction}}, ascending, zeros dropped."""
        scale = self.scale
        return {beta: {k: Fraction(c, scale) for k, c in enumerate(cs, low) if c} for beta, low, cs in self.bands}

    @functools.cached_property
    def t_degree(self) -> int:
        """The largest power of t (0 for none), found once."""
        return max((low + len(coeffs) - 1 for _, low, coeffs in self.bands), default=0)

    @functools.cached_property
    def float_ab_form(self) -> Optional[ABForm]:
        """The kernel's (a, b) form, or None unless that form expands to
        terms exactly (``conjecture.certified_ab_form``).  Decided on first
        use and kept, so a kernel's form is certified once."""
        # Imported here: conjecture builds on this module.
        from .conjecture import certified_ab_form

        return certified_ab_form(self)


def check_gamma(gamma: int) -> None:
    """The one rule for every gamma the package accepts: an ``int`` >= 0,
    not a ``bool``; anything else raises ``ValueError``."""
    if type(gamma) is bool or not isinstance(gamma, int) or gamma < 0:
        raise ValueError(f"gamma must be an int >= 0, got {gamma!r}")


KERNEL_KINDS = ("F", "H")


def check_kind(kind: str) -> None:
    """The one rule for a kernel kind: 'F' or 'H'; anything else raises
    ``ValueError``."""
    if kind not in KERNEL_KINDS:
        raise ValueError(f"kind must be 'F' or 'H', got {kind!r}")


def make_expansion(gamma: int, terms: Dict[int, LaurentPoly], scale: int = 1) -> KernelExpansion:
    """The expansion with coefficients terms[beta][k] / scale, ints or
    Fractions in any order, in its one form (``KernelExpansion``); zero
    coefficients and empty bands drop.  Anything else raises ValueError."""
    check_gamma(gamma)
    if type(scale) is bool or not isinstance(scale, int) or scale < 1:
        raise ValueError(f"scale must be an int >= 1, got {scale!r}")
    kept = []
    # The denominators other than 1; the builder and the closed forms pass
    # plain ints, which skip as_integer_ratio and the lcm.
    dens = []
    for beta in sorted(terms):
        # A bool index or coefficient would be == to an int but not its repr.
        if type(beta) is bool or not isinstance(beta, int) or beta < 1:
            raise ValueError(f"band index must be an int >= 1, got beta={beta!r}")
        poly = []
        for k, c in terms[beta].items():
            if type(k) is bool or not isinstance(k, int):
                raise ValueError(f"exponent must be an int, got k={k!r} in band beta={beta}")
            if type(c) is int:
                if c:
                    poly.append((k, c, 1))
                continue
            # A float would make a kernel that the exact consumers fail on.
            if type(c) is bool or not isinstance(c, (int, Fraction)):
                raise ValueError(f"coefficient of t^{k}, beta={beta}, must be an int or a Fraction, got {c!r}")
            num, den = c.as_integer_ratio()
            if num:
                poly.append((k, num, den))
                if den > 1:
                    dens.append(den)
        if poly:
            kept.append((beta, poly))
    lcm = math.lcm(*dens)
    rows = []
    for beta, poly in kept:
        # The exponents are distinct, so the tuples order by k alone.
        low = min(poly)[0]
        row = [0] * (max(poly)[0] - low + 1)
        for k, num, den in poly:
            row[k - low] = num * (lcm // den)
        rows.append((beta, low, row))
    scale *= lcm
    common = math.gcd(scale, *(c for _, _, row in rows for c in row))
    if common > 1:
        rows = [(beta, low, [c // common for c in row]) for beta, low, row in rows]
    bands = tuple((beta, low, tuple(row)) for beta, low, row in rows)
    return KernelExpansion(gamma=gamma, scale=scale // common, bands=bands)


# ---------------------------------------------------------------------------
# closed-form monomial image


def monomial_terms(gamma: int, beta: int, k: int) -> Tuple[Tuple[int, int, int], ...]:
    """Biharmonic image of t^k / |1-z|^(2 beta) as six (band, exponent,
    int) entries, zeros included, bands ascending.

    The monomial reaches three bands through the two-step compositions

      beta     : P_beta w^-1 P_beta
      beta + 1 : P_(beta+1) w^-1 Q_beta + Q_beta w^-1 P_beta
      beta + 2 : Q_(beta+1) w^-1 Q_beta

    whose closed forms below absorb all telescoping.  Each band holds at
    most three terms, at distinct exponents, with plain ``int``
    coefficients; exponents may be negative for small k.
    """
    pp1 = k * (beta - k) * (k - gamma - 1) * (beta + gamma + 1 - k)
    pp2 = k * (k - gamma - 2) * (
        (beta - k) * (k - gamma - 1)
        + (beta - 1) * (k - 1)
        - (k - 1) * (k - gamma - 3)
    )
    pp3 = k * (k - 1) * (k - gamma - 2) * (k - gamma - 3)
    pq1 = beta * (beta + gamma + 1 - k) * (beta - k) * (2 * k - gamma)
    pq2 = beta * (
        k * (k - 1) * (beta + gamma + 2 - k)
        + (beta - k) * (k - gamma) * (k - gamma - 1)
    )
    qq = beta * (beta + 1) * (beta - k) * (beta + gamma + 1 - k)
    e = k - gamma
    return (
        (beta, e - 2, pp1),
        (beta, e - 3, pp2),
        (beta, e - 4, pp3),
        (beta + 1, e - 1, pq1),
        (beta + 1, e - 2, pq2),
        (beta + 2, e, qq),
    )


def monomial_image(gamma: int, beta: int, k: int) -> Dict[int, Dict[int, int]]:
    """``monomial_terms`` as band -> polynomial, zero terms and bands dropped."""
    out: Dict[int, Dict[int, int]] = {}
    for band, e, c in monomial_terms(gamma, beta, k):
        if c:
            out.setdefault(band, {})[e] = c
    return out


# ---------------------------------------------------------------------------
# band pipeline


def _laplacian_rows(rows: List[List[int]], mlow: int, klow: int) -> List[List[int]]:
    """One Laplacian pass on dense rows, g_m = P_m s_m + Q_(m-1) s_(m-1),
    accumulated term by term from the coefficient forms of P and Q.

    Row i holds band mlow + i, its entry e the coefficient of t^(klow + e),
    and every row has the same length.  The image has one row more (band
    mlow + len(rows)) and two entries more per row, from t^(klow - 2).
    """
    out = [[0] * (len(rows[0]) + 2) for _ in range(len(rows) + 1)]
    for i, row in enumerate(rows):
        m = mlow + i
        here, above = out[i], out[i + 1]
        k = klow
        for e, c in enumerate(row):
            if c:
                here[e] += k * (k - 1) * c
                here[e + 1] += k * (m - k) * c
                above[e + 2] += m * (m - k) * c
            k += 1
    return out


def biharmonic(u: KernelExpansion) -> CoeffSequence:
    """Banded image of u under D w^-1 D, via the generic composition.

    The composition runs on u's integers (scale u), laid out as dense rows
    from u's lowest band and least exponent klow: two Laplacian passes, with
    the division by w = t^gamma between them a move of the base exponent
    from klow - 2 to klow - 2 - gamma.  Only the image's nonzero entries are
    divided by u's scale, so a biharmonic-zero kernel forms no ``Fraction``.
    """
    if not u.bands:
        return {}
    mlow = u.bands[0][0]
    klow = min(low for _, low, _ in u.bands)
    rows = [[0] * (u.t_degree + 1 - klow) for _ in range(u.max_beta() + 1 - mlow)]
    for beta, low, coeffs in u.bands:
        rows[beta - mlow][low - klow : low - klow + len(coeffs)] = coeffs
    image = _laplacian_rows(_laplacian_rows(rows, mlow, klow), mlow, klow - 2 - u.gamma)
    base, scale = klow - 4 - u.gamma, u.scale
    return {
        mlow + i: {e: Fraction(c, scale) for e, c in enumerate(row, base) if c}
        for i, row in enumerate(image)
        if any(row)
    }
