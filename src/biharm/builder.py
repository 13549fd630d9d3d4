"""Constructs the kernel pair (F, H) for integer weight exponents gamma >= 0.

The target functions are banded expansions annihilated by the weighted
biharmonic operator D w^-1 D, with distributional boundary data
(delta_1, 0) for F and (0, delta_1) for H.  The construction is:

  1. grid: place unknown coefficients on every monomial t^k / |1-z|^(2 beta)
     of F's tight grid, 1 <= beta <= beta_0 = gamma + 2, with k ranging over
         [max(2 beta - 1, gamma + 2), beta + gamma + 1];
     at beta_0 the two ends meet, so the top band is a single monomial.
     Both kernels are solved on this grid.  It holds H's own, smaller grid,
     k in [max(2 beta, gamma + 2), beta + gamma + 1] for 1 <= beta <=
     gamma + 1, outside which H vanishes (``grid_geometry`` gives both);
  2. rows: require the biharmonic image to vanish identically.  Each
     (band, exponent) pair of the image contributes one homogeneous exact
     linear equation, a sparse row of integers: the columns are generated
     by the closed monomial image, whose coefficients are integers.  Two
     boundary rows follow, a and b, since the boundary pair (a, b) is
     linear in the coefficients (``boundary.term_boundary``); each target
     pair, (1, 0) for F and (0, 1) for H, is one right-hand side of them;
  3. one solve: fraction-free forward elimination and back substitution
     in integers (``exact.solve_linear``) gives each normalized kernel
     directly from its own right-hand side, as integer coefficients over
     one scale, which ``make_expansion`` takes as they are: no
     ``Fraction`` is formed.  ``build`` passes its kind's target as the
     one right-hand side; ``build_pair`` passes both, so one assembly and
     one elimination carry the pair, then one back substitution per
     kernel.  H comes out zero on F's extra columns, so it is the H that a
     solve on H's own grid gives, down to ``repr``.  The columns are
     numbered along the grid diagonals delta = 2 beta - k: a column on
     diagonal delta reaches only image rows (band b, exponent e) with
     2 b - e in delta + gamma + 2 .. delta + gamma + 4, and the boundary
     rows hold only delta = 0 and 1.  In that order the system is
     block-banded, so the solver's fill-in and integer growth stay small
     (widest intermediate integer 287 bits at gamma 80 and 564 at gamma
     160, against 12896 at gamma 80 in (beta, k) order);
  4. check: each solved kernel is biharmonic-zero by the generic
     composition (``operators.biharmonic``), independent of the closed form
     that assembled the rows, and has its target boundary pair.  The two
     checks are one function, ``kernel_checks``, which the closed forms
     pass through too (``conjecture.verify_conjecture`` and
     ``conjecture.checked_kernel``).

The closed-form kernels lie on this tight grid, and the system is uniquely
solvable for every gamma the closed-form sweep checks (gamma <= 80): the
image rows leave exactly the span of F and H, and the boundary rows pick
one point of it per right-hand side.  A system without a unique solution
is therefore a defect, not a case to retry: the build raises
``RuntimeError`` naming gamma and kind.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from .boundary import expansion_boundary, term_boundary
from .exact import LaurentPoly, RationalLinearSystem, solve_linear
from .operators import (
    KernelExpansion,
    biharmonic,
    check_gamma,
    check_kind,
    make_expansion,
    monomial_image,
)

# Boundary pair (a, b) of each kernel: F carries the boundary value, H the
# inward normal derivative.
BOUNDARY_TARGETS = {"F": (1, 0), "H": (0, 1)}


@dataclass(frozen=True)
class KernelSpec:
    gamma: int
    kind: str  # "F" | "H"

    def __post_init__(self) -> None:
        check_gamma(self.gamma)
        check_kind(self.kind)


def grid_geometry(gamma: int, kind: str) -> Tuple[int, Dict[int, int]]:
    """Top band beta_0 and the tight grid floor of every band 1 <= beta <= beta_0.

    Band beta spans the exponents floor[beta] .. beta + gamma + 1.  At beta_0
    the two ends meet, so the top band is the single monomial t^floor[beta_0].
    """
    check_kind(kind)
    offset = 1 if kind == "F" else 0
    beta0 = gamma + 1 + offset
    return beta0, {beta: max(2 * beta - offset, gamma + 2) for beta in range(1, beta0 + 1)}


def ansatz_grid(spec: KernelSpec) -> Dict[int, List[int]]:
    """Unknown exponent grid per band, for 1 <= beta <= beta_0."""
    _, floor = grid_geometry(spec.gamma, spec.kind)
    return {beta: list(range(lo, beta + spec.gamma + 2)) for beta, lo in floor.items()}


def assemble_system(
    gamma: int, grid: Dict[int, List[int]], targets: Sequence[Tuple[int, int]]
) -> Tuple[List[Tuple[int, int]], RationalLinearSystem]:
    """Linear system for the kernels at gamma over the grid unknowns, one
    right-hand side per boundary pair (a, b) in targets.

    Returns the column labels (beta, k) in diagonal order, ascending in
    (2 beta - k, beta), together with the system.  Its rows are the (band,
    exponent) pairs of the image space, each a sparse ``{column: int}`` row
    with zero right-hand sides, then the a-row and the b-row, whose
    right-hand sides are the targets' a and b.

    ``monomial_image`` sends the column t^k / |1-z|^(2 beta) on diagonal
    delta = 2 beta - k to the rows (b, e) with 2 b - e = delta + gamma + 2,
    + 3 or + 4 only, so each image row spans at most three neighbouring
    diagonals.  ``solve_linear`` eliminates columns in index order, so
    numbering them along the diagonals keeps its elimination within that
    band.
    """
    columns = sorted(
        ((beta, k) for beta, ks in grid.items() for k in ks),
        key=lambda col: (2 * col[0] - col[1], col[0]),
    )

    coeff: Dict[Tuple[int, int], Dict[int, int]] = {}
    boundary_rows: Tuple[Dict[int, int], Dict[int, int]] = ({}, {})
    for j, (beta, k) in enumerate(columns):
        # A column's image lands in distinct bands, so no entry is written twice.
        for band, img in monomial_image(gamma, beta, k).items():
            for e, c in img.items():
                coeff.setdefault((band, e), {})[j] = c
        for row, c in zip(boundary_rows, term_boundary(beta, k)):
            if c:
                row[j] = c

    zeros = (0,) * len(targets)
    rows = [(coeff[key], zeros) for key in sorted(coeff)]
    rows += zip(boundary_rows, zip(*targets))
    return columns, RationalLinearSystem(rows=rows, unknowns=len(columns))


def kernel_checks(kernel: KernelExpansion, kind: str) -> Tuple[bool, bool]:
    """The two checks every kernel of kind passes, whatever its source:
    (biharmonic-zero, boundary-exact).  The first is the generic composition
    (``operators.biharmonic``), independent of the closed monomial image
    that assembles the builder's rows; the second compares the exact
    boundary pair with BOUNDARY_TARGETS[kind]."""
    bd = expansion_boundary(kernel)
    return not biharmonic(kernel), (bd.a, bd.b) == BOUNDARY_TARGETS[kind]


def _solve(gamma: int, kinds: Sequence[str]) -> Tuple[KernelExpansion, ...]:
    """The normalized kernels of kinds at gamma, from one assembly and one
    solve on F's grid, which holds H's, one boundary right-hand side per
    kind.  Each kernel comes from its own right-hand side and gets its own
    check."""
    columns, system = assemble_system(
        gamma, ansatz_grid(KernelSpec(gamma=gamma, kind="F")), [BOUNDARY_TARGETS[kind] for kind in kinds]
    )
    solutions = solve_linear(system)
    if solutions is None:
        raise RuntimeError(
            f"no unique biharmonic-zero expansion on the tight grid "
            f"(gamma={gamma}, kind={' and '.join(kinds)})"
        )
    kernels = []
    for kind, (values, scale) in zip(kinds, solutions):
        terms: Dict[int, LaurentPoly] = {}
        # make_expansion orders the bands, whatever the solve's column order.
        for (beta, k), v in zip(columns, values):
            terms.setdefault(beta, {})[k] = v
        kernel = make_expansion(gamma, terms, scale)
        if not all(kernel_checks(kernel, kind)):
            raise RuntimeError(
                f"internal error: solved expansion is not biharmonic-zero or misses "
                f"its boundary pair (gamma={gamma}, kind={kind})"
            )
        kernels.append(kernel)
    return tuple(kernels)


def build(spec: KernelSpec) -> KernelExpansion:
    """The normalized kernel for spec: boundary (1,0) for F, (0,1) for H,
    the one right-hand side of a solve on F's grid."""
    return _solve(spec.gamma, (spec.kind,))[0]


def build_pair(gamma: int) -> Tuple[KernelExpansion, KernelExpansion]:
    """The normalized pair (F, H) at gamma, from one elimination on F's
    grid with both boundary right-hand sides; gamma is checked as
    ``KernelSpec`` checks it."""
    return _solve(gamma, ("F", "H"))
