"""Constructs the kernel pair (F, H) for integer weight exponents gamma >= 0.

The target functions are banded expansions annihilated by the weighted
biharmonic operator D w^-1 D, with distributional boundary data
(delta_1, 0) for F and (0, delta_1) for H.  The construction is:

  1. fix the top band: coefficient 1 on t^(2 gamma + 3) at beta_0 = gamma + 2
     (F-type) or on t^(2 gamma + 2) at beta_0 = gamma + 1 (H-type);
  2. place unknown coefficients on every grid monomial t^k / |1-z|^(2 beta)
     for 1 <= beta < beta_0, with k ranging over
         [max(2 beta - 1, gamma + 2), beta + gamma + 1]   (F-type)
         [max(2 beta,     gamma + 2), beta + gamma + 1]   (H-type),
     except that the F-type grid leaves out t^(2 gamma + 2) at
     beta = gamma + 1, the top monomial of H.  With it, the F-type system
     would be underdetermined by exactly one direction, the H solution
     itself, which the final normalization cancels; without it, the raw F
     has coefficient 0 there;
  3. require the biharmonic image to vanish identically.  Each (band,
     exponent) pair of the image contributes one exact linear equation, a
     sparse row of integers: the columns are generated by the closed
     monomial rules, whose coefficients are integers;
  4. solve exactly by fraction-free forward elimination and back
     substitution (``exact.solve_linear``).  Both systems have a unique
     solution;
  5. read off boundary data and normalize:  H = raw / b  when the raw
     solution has boundary (0, b);  F = (raw - b h) / a  when it has
     boundary (a, b) and h is the normalized H.

The closed-form kernels lie on the tight grid of step 2, and its system is
uniquely solvable for every gamma the closed-form sweep checks
(gamma <= 80).  A system without a unique solution is therefore a defect,
not a case to retry: the build raises ``RuntimeError`` naming gamma and
kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Tuple

from .boundary import BoundaryData, expansion_boundary
from .exact import LaurentPoly, RationalLinearSystem, solve_linear
from .operators import (
    KernelExpansion,
    biharmonic_via_rules,
    expansion_add,
    expansion_scale,
    make_expansion,
    monomial_image,
)

KERNEL_KINDS = ("F", "H")


@dataclass(frozen=True)
class KernelSpec:
    gamma: int
    kind: str  # "F" | "H"

    def __post_init__(self) -> None:
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.kind not in KERNEL_KINDS:
            raise ValueError(f"kind must be one of {KERNEL_KINDS}, got {self.kind!r}")


@dataclass(frozen=True)
class RawSolution:
    """An unnormalized kernel: exactly biharmonic-zero, boundary not yet scaled."""

    expansion: KernelExpansion
    boundary: BoundaryData


def grid_geometry(gamma: int, kind: str) -> Tuple[int, Dict[int, int]]:
    """Top band beta_0 and the tight grid floor of every band 1 <= beta <= beta_0.

    Band beta spans the exponents floor[beta] .. beta + gamma + 1.  At beta_0
    the two ends meet, so the top band is the single monomial t^floor[beta_0]:
    the fixed leading term.
    """
    offset = 1 if kind == "F" else 0
    beta0 = gamma + 1 + offset
    return beta0, {beta: max(2 * beta - offset, gamma + 2) for beta in range(1, beta0 + 1)}


def top_term(spec: KernelSpec) -> Tuple[int, int]:
    """(beta_0, exponent) of the fixed leading monomial."""
    beta0, floor = grid_geometry(spec.gamma, spec.kind)
    return beta0, floor[beta0]


def ansatz_grid(spec: KernelSpec) -> Dict[int, List[int]]:
    """Unknown exponent grid per band, for 1 <= beta < beta_0."""
    beta0, floor = grid_geometry(spec.gamma, spec.kind)
    grid = {beta: list(range(floor[beta], beta + spec.gamma + 2)) for beta in range(1, beta0)}
    if spec.kind == "F":
        grid[spec.gamma + 1].pop()  # t^(2 gamma + 2), H's top monomial
    return grid


def assemble_system(
    spec: KernelSpec, grid: Dict[int, List[int]]
) -> Tuple[List[Tuple[int, int]], RationalLinearSystem]:
    """Linear system expressing 'biharmonic image = 0' over the grid unknowns.

    Returns the column labels (beta, k) in ascending order together with the
    system; the right-hand side carries the negated image of the fixed top
    monomial.  Rows are the (band, exponent) pairs of the image space, each
    a sparse ``{column: int}`` row with an ``int`` right-hand side.
    """
    columns = sorted((beta, k) for beta, ks in grid.items() for k in ks)

    coeff: Dict[Tuple[int, int], Dict[int, int]] = {}
    rhs: Dict[Tuple[int, int], int] = {}

    beta0, k0 = top_term(spec)
    for band, img in monomial_image(spec.gamma, beta0, k0).items():
        for e, c in img.items():
            rhs[(band, e)] = -c

    for j, (beta, k) in enumerate(columns):
        # A column's rules land in distinct bands, so no entry is written twice.
        for band, img in monomial_image(spec.gamma, beta, k).items():
            for e, c in img.items():
                coeff.setdefault((band, e), {})[j] = c

    rows = [(coeff.get(key, {}), rhs.get(key, 0)) for key in sorted(coeff.keys() | rhs.keys())]
    return columns, RationalLinearSystem(rows=rows, unknowns=len(columns))


def _expansion_of(
    spec: KernelSpec, columns: List[Tuple[int, int]], values
) -> KernelExpansion:
    beta0, k0 = top_term(spec)
    terms: Dict[int, LaurentPoly] = {beta0: {k0: Fraction(1)}}
    for (beta, k), v in zip(columns, values):
        if v:
            terms.setdefault(beta, {})[k] = v
    return make_expansion(spec.gamma, terms)


def build_raw(spec: KernelSpec) -> RawSolution:
    """Solve the grid system for one kernel; exact, unnormalized."""
    columns, system = assemble_system(spec, ansatz_grid(spec))
    values = solve_linear(system)
    if values is None:
        raise RuntimeError(
            f"no unique biharmonic-zero expansion on the tight grid "
            f"(gamma={spec.gamma}, kind={spec.kind})"
        )
    expansion = _expansion_of(spec, columns, values)
    if biharmonic_via_rules(expansion):
        raise RuntimeError(
            f"internal error: solved expansion is not biharmonic-zero "
            f"(gamma={spec.gamma}, kind={spec.kind})"
        )
    return RawSolution(expansion=expansion, boundary=expansion_boundary(expansion))


def normalize_H(raw: RawSolution) -> KernelExpansion:
    """Scale a raw solution with boundary (0, b), b != 0, to boundary (0, 1)."""
    if raw.boundary.a != 0:
        raise ValueError(f"normalize_H requires boundary a = 0, got a={raw.boundary.a}")
    if raw.boundary.b == 0:
        raise ValueError("normalize_H requires boundary b != 0")
    return expansion_scale(1 / raw.boundary.b, raw.expansion)


def normalize_F(raw: RawSolution, h: KernelExpansion) -> KernelExpansion:
    """Combine a raw solution having boundary (a, b), a != 0, with the
    normalized H kernel to reach boundary exactly (1, 0)."""
    if raw.boundary.a == 0:
        raise ValueError("normalize_F requires boundary a != 0")
    hb = expansion_boundary(h)
    if (hb.a, hb.b) != (0, 1):
        raise ValueError(f"normalize_F requires h with boundary (0, 1), got {hb}")
    combined = expansion_add(raw.expansion, expansion_scale(-raw.boundary.b, h))
    return expansion_scale(1 / raw.boundary.a, combined)


def build_pair(gamma: int) -> Tuple[KernelExpansion, KernelExpansion]:
    """The normalized pair (F, H) at gamma; the one H built also normalizes F."""
    h = normalize_H(build_raw(KernelSpec(gamma=gamma, kind="H")))
    return normalize_F(build_raw(KernelSpec(gamma=gamma, kind="F")), h), h


def build(spec: KernelSpec) -> KernelExpansion:
    """The normalized kernel for spec: boundary (1,0) for F, (0,1) for H.

    F is normalized with H, so building F builds H on the way.
    """
    if spec.kind == "H":
        return normalize_H(build_raw(spec))
    return build_pair(spec.gamma)[0]
