"""Closed-form kernel generator, independent of the linear-system builder.

The kernels admit (conjecturally, for every integer gamma >= 0) explicit
banded formulas whose coefficient tables are, column by column, scaled rows
of Pascal's triangle:

    2 f_beta(t)        = sum_k c_k C(gamma+1-2k, beta-1-k) t^(beta+gamma+1-k)   (F)
    2 beta h_beta(t)   = sum_k c_k C(gamma-2k,   beta-1-k) t^(beta+gamma+1-k)   (H)

with k running from 0 to beta+gamma+1 - max(2 beta - 1, gamma+2) (F) or
beta+gamma+1 - max(2 beta, gamma+2) (H).  The scalars c_k are determined by
a unit-diagonal triangular recurrence:

    c_0 = 1,   sum_{k=0}^{j} c_k C(gamma+1-2k, j-k) = 0   (F, 1 <= j <= floor((gamma+1)/2))
    c_0 = 1,   sum_{k=0}^{j} c_k C(gamma-2k,   j-k) = 1   (H, 1 <= j <= floor(gamma/2))

This module generates the closed forms from those recurrences alone and
checks them three independent ways: symbolic biharmonicity, exact boundary
data, and coefficient-for-coefficient agreement with the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .boundary import expansion_boundary
from .builder import BOUNDARY_TARGETS, build_pair, grid_geometry
from .exact import LaurentPoly, Rational, binom
from .operators import KernelExpansion, biharmonic, check_gamma, make_expansion


def _c_count(gamma: int, kind: str) -> int:
    return ((gamma + 1) // 2 if kind == "F" else gamma // 2) + 1


def _binom_row(gamma: int, kind: str, k: int) -> int:
    """Upper index of the Pascal row attached to column offset k."""
    return gamma + 1 - 2 * k if kind == "F" else gamma - 2 * k


def solve_ck(gamma: int, kind: str) -> Tuple[Rational, ...]:
    """Forward-substitute the unit-diagonal recurrence for the c_k; c_0 = 1."""
    check_gamma(gamma)
    if kind not in ("F", "H"):
        raise ValueError(f"kind must be 'F' or 'H', got {kind!r}")
    target = Fraction(0) if kind == "F" else Fraction(1)
    c: List[Fraction] = [Fraction(1)]
    for j in range(1, _c_count(gamma, kind)):
        acc = sum(
            (c[k] * binom(_binom_row(gamma, kind, k), j - k) for k in range(j)),
            Fraction(0),
        )
        # The j-th relation has leading coefficient C(row(j), 0) = 1 on c_j.
        c.append(target - acc)
    return tuple(c)


def conjectured_kernel(gamma: int, kind: str) -> KernelExpansion:
    """Assemble the closed-form expansion exactly as displayed above."""
    c = solve_ck(gamma, kind)
    _, floor = grid_geometry(gamma, kind)
    terms: Dict[int, LaurentPoly] = {}
    for beta, lo in floor.items():
        kmax = beta + gamma + 1 - lo
        scale = Fraction(1, 2) if kind == "F" else Fraction(1, 2 * beta)
        poly: LaurentPoly = {}
        for k in range(0, kmax + 1):
            value = c[k] * binom(_binom_row(gamma, kind, k), beta - 1 - k) * scale
            if value:
                poly[beta + gamma + 1 - k] = value
        if poly:
            terms[beta] = poly
    return make_expansion(gamma, terms)


@dataclass(frozen=True)
class CheckResult:
    kind: str
    check: str  # "biharmonic-zero" | "boundary-exact" | "matches-builder"
    passed: bool


@dataclass(frozen=True)
class ConjectureVerdict:
    gamma: int
    entries: Tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> Tuple[CheckResult, ...]:
        return tuple(e for e in self.entries if not e.passed)


def verify_conjecture(gamma: int) -> ConjectureVerdict:
    """Run the three independent checks for both kinds at one gamma.

    (i) the closed form is symbolically biharmonic-zero (via the generic
    operator composition, not the closed monomial image); (ii) its exact
    boundary data is (1,0) / (0,1); (iii) it coincides with the built kernel
    coefficient-for-coefficient.  All three run unconditionally so that no
    single shared bug can validate itself.
    """
    entries: List[CheckResult] = []
    built = dict(zip(("F", "H"), build_pair(gamma)))
    for kind in ("F", "H"):
        formed = conjectured_kernel(gamma, kind)
        entries.append(
            CheckResult(kind, "biharmonic-zero", not biharmonic(formed))
        )
        bd = expansion_boundary(formed)
        entries.append(
            CheckResult(kind, "boundary-exact", (bd.a, bd.b) == BOUNDARY_TARGETS[kind])
        )
        entries.append(
            CheckResult(kind, "matches-builder", formed == built[kind])
        )
    return ConjectureVerdict(gamma=gamma, entries=tuple(entries))
