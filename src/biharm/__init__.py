"""Exact kernel pair of the weighted biharmonic Dirichlet problem on the disc.

The package constructs, for every integer gamma >= 0, the two kernels that
solve

    D w^-1 D u = 0        in the unit disc,  w = (1 - |z|^2)^gamma,
    u = f0, d_n u = f1    on the unit circle,

via  u = (F_r * f0) + (H_r * f1):  F carries boundary value delta_1, H the
inward normal derivative delta_1.  Everything upstream of the `numeric`
module is exact rational arithmetic.
"""

from .boundary import BoundaryData, NonDeltaBoundaryError, expansion_boundary
from .builder import KernelSpec, build, build_pair
from .conjecture import (
    ConjectureVerdict,
    conjectured_kernel,
    solve_ck,
    verify_conjecture,
)
from .exact import LaurentPoly, Rational
from .numeric import (
    DiscPoint,
    QuadratureConvergenceError,
    eval_kernel,
    integral_mean,
    l1_norm,
    solve_dirichlet,
)
from .operators import KernelExpansion, biharmonic, make_expansion

__version__ = "0.1.0"

__all__ = [
    "BoundaryData",
    "ConjectureVerdict",
    "DiscPoint",
    "KernelExpansion",
    "KernelSpec",
    "LaurentPoly",
    "NonDeltaBoundaryError",
    "QuadratureConvergenceError",
    "Rational",
    "biharmonic",
    "build",
    "build_pair",
    "conjectured_kernel",
    "eval_kernel",
    "expansion_boundary",
    "integral_mean",
    "l1_norm",
    "make_expansion",
    "solve_ck",
    "solve_dirichlet",
    "verify_conjecture",
]
