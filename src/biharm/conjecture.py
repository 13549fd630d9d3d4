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

F is biharmonic-zero at every gamma, not only where it is checked.  With
s = a + b - 1 = t u and D = d^2/(dz dzbar) = a^2 b^2 d_a d_b (da/dz = a^2),
F = s^(gamma+2) (a^-n + b^-n) / 2, n = gamma + 1, and

    w^-1 D F = n (n + 1) / 2 (a^(n+1) (1 - a) + b^(n+1) (1 - b)),

which has no mixed monomial a^i b^j (i != 0 != j), so it is harmonic and
D w^-1 D F = 0 (the tests check the identity in integers up to gamma 200).

Each closed form is checked three ways: symbolic biharmonicity, exact
boundary data, and agreement with the builder, whose kernels pass the
first two or are not returned.  The first two are one function,
``builder.kernel_checks``, whatever the kernel's source.
``checked_kernel`` is the closed form once it passes them, with no
elimination: the numeric commands of the CLI read F and H from it.

H has an (a, b) form too, read off the kernels and not proved:

    H_gamma = t^(gamma+2) u / (2 (gamma+1)) sum_(i+j <= gamma) w_ij a^i b^j,
    w_ij = C(gamma-i, j) / C(gamma, j),

with positive weights, symmetric in i and j.  So both kernels read

    K = t^(gamma+2) u sum_d Re(a^d) P_d(u)                          (ab_form)

F with the one term d = gamma + 1, P_d = 1, and H with
P_d(u) = eps_d / (2 (gamma+1)) sum_l w_(l+d,l) u^l, eps_0 = 1 and eps_d = 2
for d >= 1.  ``ab_form`` returns a form as one record (``ABForm``): the
p_(d,l) as ints over one scale, laid out as numeric sums them, with their
floats.  ``ab_expansion`` expands a form into bands exactly: a^d + b^d
is a polynomial in a + b = 1 + t u and a b = u by Lucas-Waring, with the
coefficients c_k of F at gamma = d - 1.  ``certified_ab_form`` gives a
kernel its form only where that expansion is == to the kernel, so H's
form is certified kernel by kernel, wherever numeric evaluates by it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Tuple

from .builder import build_pair, grid_geometry, kernel_checks
from .exact import binom
from .operators import (
    KERNEL_KINDS,
    KernelExpansion,
    check_gamma,
    check_kind,
    expansion_from_bands,
)

# Not called here: both checks run in builder.kernel_checks.  The benchmark
# still wraps them under these names (bench/run.py) until its next change.
from .boundary import expansion_boundary  # noqa: F401
from .operators import biharmonic  # noqa: F401


def solve_ck(gamma: int, kind: str) -> Tuple[int, ...]:
    """The c_k displayed above, as ints: T_(gamma+1)'s (F), with
    n/(n-k) C(n-k, k) = C(n-k, k) + C(n-k-1, k-1), or U_gamma's (H);
    c_0 = 1."""
    check_gamma(gamma)
    check_kind(kind)
    if kind == "H":
        return tuple((-1) ** k * binom(gamma - k, k) for k in range(gamma // 2 + 1))
    n = gamma + 1
    return tuple((-1) ** k * (binom(n - k, k) + binom(n - k - 1, k - 1)) for k in range(n // 2 + 1))


def conjectured_kernel(gamma: int, kind: str) -> KernelExpansion:
    """The expansion displayed above, laid out band by band.

    The coefficients are integers over one scale, the lcm of the bands'
    2 (F) or 2 beta (H): c_k C(gamma+1-2k, beta-1-k) over 2 for F,
    c_k C(gamma-2k, beta-1-k) over 2 beta for H.  Band beta holds the
    exponents floor[beta] .. beta + gamma + 1, t^(beta+gamma+1-k) taking
    c_k lift C(n, m) from its Pascal column, n = row - 2k and m = beta-1-k;
    on the grid 0 <= m and 0 <= n, and ``math.comb`` is 0 where m > n.
    ``expansion_from_bands`` trims those zeros and reduces the scale once.
    Where the kernel is == to the builder's, the two are alike down to repr.
    """
    c = solve_ck(gamma, kind)
    row = gamma + 1 if kind == "F" else gamma
    _, floor = grid_geometry(gamma, kind)
    scale = 2 if kind == "F" else 2 * math.lcm(*floor)
    bands = []
    for beta, lo in floor.items():
        lift = scale // (2 if kind == "F" else 2 * beta)
        top = beta + gamma + 1
        # Ascending exponents e = top - k, so k descends.
        ints = [c[k] * lift * math.comb(row - 2 * k, beta - 1 - k) for k in range(top - lo, -1, -1)]
        bands.append((beta, lo, ints))
    return expansion_from_bands(gamma, bands, scale)


def checked_kernel(gamma: int, kind: str) -> KernelExpansion:
    """conjectured_kernel(gamma, kind) once it passes the builder's two
    checks (``builder.kernel_checks``: biharmonic-zero and boundary-exact),
    the same the builder's own kernels pass; otherwise RuntimeError naming
    gamma and kind.  No elimination runs."""
    kernel = conjectured_kernel(gamma, kind)
    checks = zip(("biharmonic-zero", "boundary-exact"), kernel_checks(kernel, kind))
    failed = [name for name, passed in checks if not passed]
    if failed:
        raise RuntimeError(f"closed form fails {' and '.join(failed)} (gamma={gamma}, kind={kind})")
    return kernel


class ABForm(NamedTuple):
    """An (a, b) form laid out as numeric sums it, in c = t a and
    v = |c|^2 = t^2 u, where the terms are p_(d,l) Re(c^d) v^l t^(gamma+2-d-2l).

    rows holds one entry per d, d falling by one from the top:
    (d, base, (scale p_(d,L), ..., scale p_(d,0))), base = gamma + 2 - d - 2L
    the least power of t in P_d's terms, and scale >= 1 shares no factor
    with all the ints.  floats is rows with each int / scale rounded, l_max
    the largest L, and floor the least |sum| numeric keeps in floats.
    """

    rows: Tuple[Tuple[int, int, Tuple[int, ...]], ...]
    scale: int
    floats: Tuple[Tuple[int, int, Tuple[float, ...]], ...]
    l_max: int
    floor: float


def ab_form(gamma: int, kind: str) -> ABForm:
    """The (a, b) form displayed above: P_d = 1 at d = gamma + 1 for F, and
    p_(d,l) = eps_d w_(l+d,l) / (2 (gamma+1)) = eps_d C(gamma-d-l, l) /
    (2 (gamma+1) C(gamma, l)) for H, over the lcm of those denominators
    until the common factor is divided out."""
    check_gamma(gamma)
    check_kind(kind)
    if kind == "F":
        rows, scale = [(gamma + 1, 1, [1])], 1
    else:
        dens = [2 * (gamma + 1) * binom(gamma, l) for l in range(gamma // 2 + 1)]
        scale = math.lcm(*dens)
        rows = []
        for d in range(gamma, -1, -1):
            top = (gamma - d) // 2
            ps = [(2 if d else 1) * binom(gamma - d - l, l) * (scale // dens[l]) for l in range(top, -1, -1)]
            rows.append((d, gamma + 2 - d - 2 * top, ps))
    common = math.gcd(scale, *(p for _, _, ps in rows for p in ps))
    scale //= common
    rows = tuple((d, base, tuple(p // common for p in ps)) for d, base, ps in rows)
    return ABForm(
        rows=rows,
        scale=scale,
        # int / int rounds correctly: each float is float() of its p_(d,l).
        floats=tuple((d, base, tuple(p / scale for p in ps)) for d, base, ps in rows),
        l_max=max(len(ps) for _, _, ps in rows) - 1,
        # Past 2^(3 gamma - 1000) the underflow of a power or a term cannot
        # reach 1e-18 of the sum (numeric._eval_ab_form).
        floor=2.0 ** min(3 * gamma - 1000, 1023),
    )


def ab_expansion(gamma: int, form: ABForm) -> KernelExpansion:
    """An (a, b) form at gamma (``ab_form``) expanded into bands, exactly.

    Re(a^d) = (a^d + b^d) / 2 = sum_k c_k (1 + t u)^(d-2k) u^k / 2, the c_k
    of F at gamma = d - 1, and (1 + t u)^m by the binomial theorem; the
    sums run on the form's ints, over its scale.
    """
    # acc[beta][j]: 2 scale times the coefficient of t^(gamma+2+j) u^beta,
    # so acc[beta] is band beta from t^(gamma+2).
    acc = [[0] * (gamma + 2) for _ in range(gamma + 3)]
    for d, _, ps in form.rows:
        lucas = solve_ck(d - 1, "F") if d else (2,)
        for k, c in enumerate(lucas):
            row = [binom(d - 2 * k, j) for j in range(d - 2 * k + 1)]
            for l, p in enumerate(reversed(ps)):
                scaled = c * p
                for j, b in enumerate(row):
                    acc[1 + l + k + j][j] += scaled * b
    return expansion_from_bands(gamma, [(beta, gamma + 2, acc[beta]) for beta in range(1, gamma + 3)], 2 * form.scale)


def certified_ab_form(kernel: KernelExpansion) -> Optional[ABForm]:
    """The ab_form of the kind whose top band the kernel has (grid_geometry),
    if its ab_expansion is == to the kernel; otherwise None."""
    for kind in KERNEL_KINDS:
        if grid_geometry(kernel.gamma, kind)[0] == kernel.max_beta():
            form = ab_form(kernel.gamma, kind)
            if ab_expansion(kernel.gamma, form) == kernel:
                return form
    return None


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
    """Run the three checks for both kinds at one gamma.

    (i) the closed form is symbolically biharmonic-zero (via the generic
    operator composition, not the closed monomial image); (ii) its exact
    boundary data is (1,0) / (0,1); (iii) it coincides with the built kernel
    coefficient-for-coefficient.  build_pair raises unless its kernels pass
    (i) and (ii) by ``builder.kernel_checks``, which depends on the kernel
    alone, so where (iii) passes the closed form takes their verdicts;
    where it fails, kernel_checks runs on the closed form itself.
    """
    entries: List[CheckResult] = []
    built = dict(zip(("F", "H"), build_pair(gamma)))
    for kind in ("F", "H"):
        formed = conjectured_kernel(gamma, kind)
        matches = formed == built[kind]
        zero, exact = (True, True) if matches else kernel_checks(formed, kind)
        entries.append(CheckResult(kind, "biharmonic-zero", zero))
        entries.append(CheckResult(kind, "boundary-exact", exact))
        entries.append(CheckResult(kind, "matches-builder", matches))
    return ConjectureVerdict(gamma=gamma, entries=tuple(entries))
