"""Closed-form kernel generator, independent of the linear-system builder.

The kernels admit (conjecturally, for every integer gamma >= 0) explicit
banded formulas whose coefficient tables are, column by column, scaled rows
of Pascal's triangle:

    2 f_beta(t)        = sum_k c_k C(gamma+1-2k, beta-1-k) t^(beta+gamma+1-k)   (F)
    2 beta h_beta(t)   = sum_k c_k C(gamma-2k,   beta-1-k) t^(beta+gamma+1-k)   (H)

with k running from 0 to beta+gamma+1 - max(2 beta - 1, gamma+2) (F) or
beta+gamma+1 - max(2 beta, gamma+2) (H).  The c_k are defined by
unit-diagonal triangular relations, which fix them (the tests check these):

    c_0 = 1,   sum_{k=0}^{j} c_k C(gamma+1-2k, j-k) = 0   (F, 1 <= j <= floor((gamma+1)/2))
    c_0 = 1,   sum_{k=0}^{j} c_k C(gamma-2k,   j-k) = 1   (H, 1 <= j <= floor(gamma/2))

They are Chebyshev coefficients: with n = gamma + 1, T_n(x) = sum_k c_k
(2x)^(n-2k) / 2 for F and U_gamma(x) = sum_k c_k (2x)^(gamma-2k) for H, so

    c_k = (-1)^k n/(n-k) C(n-k, k)   (F),        c_k = (-1)^k C(gamma-k, k)   (H)

Summed by the binomial theorem, F's Pascal columns give the product form

    2F = t^(gamma+2) sum_k c_k u^(k+1) (1 + t u)^(gamma+1-2k),   u = 1/|1-z|^2,

the Lucas-Waring expansion of a^n + b^n in a + b = 1 + t u and a b = u,
where a = 1/(1-z) and b is its conjugate.  With psi = arg a, that is

    F_gamma = (1-|z|^2)^(gamma+2) cos((gamma+1) psi) / |1-z|^(gamma+3),

which the "matches-builder" check certifies for every gamma it passes.
Each closed form is checked three independent ways: symbolic
biharmonicity, exact boundary data, and agreement with the builder.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .boundary import expansion_boundary
from .builder import BOUNDARY_TARGETS, build_pair, grid_geometry
from .exact import LaurentPoly, Rational, binom
from .operators import KernelExpansion, biharmonic, check_gamma, make_expansion


def solve_ck(gamma: int, kind: str) -> Tuple[Rational, ...]:
    """The c_k displayed above: T_(gamma+1)'s (F) or U_gamma's (H); c_0 = 1."""
    check_gamma(gamma)
    if kind not in ("F", "H"):
        raise ValueError(f"kind must be 'F' or 'H', got {kind!r}")
    if kind == "H":
        return tuple(Fraction((-1) ** k * binom(gamma - k, k)) for k in range(gamma // 2 + 1))
    n = gamma + 1
    return tuple(Fraction((-1) ** k * n * binom(n - k, k), n - k) for k in range(n // 2 + 1))


def conjectured_kernel(gamma: int, kind: str) -> KernelExpansion:
    """The expansion displayed above; make_expansion drops its zero entries."""
    c = solve_ck(gamma, kind)
    row = gamma + 1 if kind == "F" else gamma
    _, floor = grid_geometry(gamma, kind)
    terms: Dict[int, LaurentPoly] = {}
    for beta, lo in floor.items():
        scale = 2 if kind == "F" else 2 * beta
        terms[beta] = {
            beta + gamma + 1 - k: c[k] * binom(row - 2 * k, beta - 1 - k) / scale
            for k in range(beta + gamma + 2 - lo)
        }
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
