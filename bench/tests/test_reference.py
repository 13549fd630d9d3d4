"""Tests of the benchmark's references and checks.

Run with  python3 -m pytest bench/tests  from the repository root.

The references are tested on their own (exactness, boundary conditions,
hand-written kernel tables), against each other, and against biharm where
both should agree.  The mutation tests show that each check fails when one
table coefficient changes or a value moves by twice its tolerance, and
passes when it moves by half of it.
"""

import json
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import reference as ref
import workloads

H = Fraction(1, 2)
# Tables read off the closed form by hand: F_0, and F_1, F_2 as printed by
# `biharm gen --format text` and `--format latex` in the project README.
F0 = {1: {2: H}, 2: {3: H}}
F1 = {1: {3: H}, 2: {4: Fraction(1), 3: Fraction(-1)}, 3: {5: H}}
F2 = {
    1: {4: H},
    2: {5: Fraction(3, 2), 4: Fraction(-3, 2)},
    3: {6: Fraction(3, 2), 5: Fraction(-3, 2)},
    4: {7: H},
}
HAND = [(0, F0), (1, F1), (2, F2)]
CASES = [(0, 0.5), (1, 0.9), (4, 0.99), (7, 0.3)]


def _float_value(table, r, thetas):
    t = 1.0 - r * r
    q = (1.0 - r) ** 2 + 4.0 * r * np.sin(thetas / 2.0) ** 2
    return sum(float(c) * t**k / q**beta for beta, poly in table.items() for k, c in poly.items())


def _mutated(table, beta, k, delta):
    out = {b: dict(p) for b, p in table.items()}
    out[beta][k] += delta
    return out


def _document(gamma, kind, table):
    terms = [
        {"beta": b, "coeffs": [{"k": k, "num": str(c.numerator), "den": str(c.denominator)} for k, c in sorted(p.items())]}
        for b, p in sorted(table.items())
    ]
    return json.dumps({"gamma": gamma, "kind": kind, "terms": terms})


# ---------------------------------------------------------------------------
# exact Dirichlet solution


@pytest.mark.parametrize("gamma", [0, 1, 3, 8])
@pytest.mark.parametrize("n", [0, 1, 5])
def test_phi_solves_the_radial_equation(gamma, n):
    # (x^(n+1) phi')' = x^n (1 - x)^gamma, coefficient by coefficient
    a = ref.phi_coeffs(gamma, n)
    for j, aj in enumerate(a):
        assert aj * (j + 1) * (j + n + 1) == (-1) ** j * math.comb(gamma, j)


@pytest.mark.parametrize("gamma", [0, 2, 5])
@pytest.mark.parametrize("n", [0, 1, 4])
def test_boundary_conditions(gamma, n):
    # u(r) = r^n g(r^2):  u(1) = g(1),  -u'(1) = -(n g(1) + 2 g'(1))
    phi = ref.phi_coeffs(gamma, n)
    dphi1 = sum(a * (j + 1) for j, a in enumerate(phi))
    for kind, (value, normal) in (("F", (1, 0)), ("H", (0, 1))):
        A, C = ref.dirichlet_constants(gamma, n, kind)
        g1 = ref.radial_factor(gamma, n, kind, Fraction(1))
        assert g1 == A + C * sum(phi)
        assert (g1, -(n * g1 + 2 * C * dphi1)) == (value, normal)


def test_exact_solution_sums_harmonics():
    f0 = {0: 0.5, 2: 0.25, -2: 0.25}
    r, theta = 0.7, 0.3
    s = Fraction(r) ** 2
    by_hand = 0.5 * float(ref.radial_factor(3, 0, "F", s)) + 0.5 * r**2 * float(
        ref.radial_factor(3, 2, "F", s)
    ) * math.cos(2 * theta)
    assert ref.exact_solution(3, f0, {}, r, theta) == pytest.approx(by_hand, rel=1e-14)


# ---------------------------------------------------------------------------
# multipliers


def test_hypergeometric_matches_its_terminating_form():
    # Euler: 2F1(b, b+n; n+1; x) = (1-x)^(1-2b) 2F1(n+1-b, 1-b; n+1; x)
    with mpmath.workdps(40):
        for beta, n, x in ((1, 0, 0.25), (3, 2, 0.81), (6, 5, 0.998001)):
            lhs = mpmath.hyp2f1(beta, beta + n, n + 1, x)
            rhs = (1 - mpmath.mpf(x)) ** (1 - 2 * beta) * mpmath.hyp2f1(n + 1 - beta, 1 - beta, n + 1, x)
            assert abs(lhs / rhs - 1) < mpmath.mpf(10) ** -35


def test_multiplier_matches_trapezoid_rule():
    r = 0.6
    thetas = 2 * np.pi * np.arange(4096) / 4096
    values = _float_value(F2, r, thetas)
    for n in (0, 3):
        coefficient = float(np.mean(values * np.cos(n * thetas)))
        assert float(ref.multiplier(F2, n, r)) == pytest.approx(coefficient, rel=1e-12)


@pytest.mark.parametrize("gamma,table", HAND)
def test_hand_tables_have_exact_multipliers(gamma, table):
    assert ref.check_multipliers(table, gamma, "F", CASES) is None


@pytest.mark.parametrize("gamma,table", HAND)
def test_multiplier_check_catches_one_changed_coefficient(gamma, table):
    beta = max(table)
    k = min(table[beta])
    for delta in (Fraction(1), table[beta][k] * Fraction(1, 10**12)):
        assert ref.check_multipliers(_mutated(table, beta, k, delta), gamma, "F", CASES[:1])


def test_multiplier_check_tells_kinds_apart():
    assert ref.check_multipliers(F1, 1, "H", CASES)


def test_built_kernels_match_exact_solution():
    biharm = pytest.importorskip("biharm")
    for gamma in range(2, 7):
        for kind in ("F", "H"):
            table = biharm.build(biharm.KernelSpec(gamma=gamma, kind=kind)).terms
            assert ref.check_multipliers(table, gamma, kind, CASES) is None


# ---------------------------------------------------------------------------
# point values


def test_point_value_agrees_with_float_where_benign():
    for r, theta in ((0.2, 1.0), (0.9, 0.1), (0.99, 2.5)):
        expect = float(_float_value(F2, r, np.array([theta]))[0])
        assert float(ref.point_value(F2, r, theta)) == pytest.approx(expect, rel=1e-13)


def test_point_value_survives_cancellation():
    # Coefficients of 1e20 cancelling to O(1): a fixed 40-digit evaluation
    # would keep only about 20 digits.
    big = Fraction(10**20)
    table = {1: {2: big + 1}, 2: {2: -big}}
    r, theta = 0.5, 1.0
    with mpmath.workdps(200):
        rm = mpmath.mpf(r)
        q = (1 - rm) ** 2 + 4 * rm * mpmath.sin(mpmath.mpf(theta) / 2) ** 2
        t = 1 - rm * rm
        exact = (mpmath.mpf(10**20) + 1) * t**2 / q - mpmath.mpf(10**20) * t**2 / q**2
        got = ref.point_value(table, r, theta)
        assert abs(got / exact - 1) < mpmath.mpf(10) ** -28


def test_value_check_tolerance():
    value = ref.point_value(F2, 0.4, 0.3)
    assert ref.check_values([float(value) * (1 + 0.5e-12)], [value], 1e-12, "x") is None
    assert ref.check_values([float(value) * (1 + 2e-12)], [value], 1e-12, "x")


# ---------------------------------------------------------------------------
# L1 norm


def test_l1_of_positive_kernel_is_its_mean():
    # F_0 is positive, and every F has circle mean exactly 1.
    for r in (0.5, 0.99, 0.999):
        assert float(ref.l1_reference(F0, 0, "F", r)) == pytest.approx(1.0, rel=1e-12)


def test_l1_of_sign_changing_kernel_matches_fine_trapezoid():
    r = 0.9
    m = 2**22
    thetas = 2 * np.pi * np.arange(m) / m
    brute = float(np.mean(np.abs(_float_value(F2, r, thetas))))
    got = float(ref.l1_reference(F2, 2, "F", r))
    assert got > 1.0  # the kernel changes sign, so its L1 norm exceeds its mean
    assert got == pytest.approx(brute, rel=1e-8)


def test_l1_check_tolerance():
    grid = workloads.DirichletGrid(0)
    grid.l1_refs = {(2, "F", 0.9): ref.l1_reference(F2, 2, "F", 0.9)}
    exact = float(grid.l1_refs[(2, "F", 0.9)])
    table = "r\tl1\tl1_over_1mr\n0.9\t{:.15g}\t0\n"
    assert grid._check_l1(2, "F", (0.9,), 0, table.format(exact * (1 + 0.5e-6))) is None
    assert grid._check_l1(2, "F", (0.9,), 0, table.format(exact * (1 + 2e-6)))
    assert grid._check_l1(2, "F", (0.9,), 1, "biharm: did not converge")


# ---------------------------------------------------------------------------
# Dirichlet solves and means


def test_solve_check_tolerance():
    f0, f1 = {1: 0.5, -1: 0.5}, {0: 0.25}
    exact = ref.exact_solution(2, f0, f1, 0.9, 0.3)
    scale = 1.25
    assert ref.check_solve(exact + 0.5e-9 * scale, 2, f0, f1, 0.9, 0.3) is None
    assert ref.check_solve(exact + 2e-9 * scale, 2, f0, f1, 0.9, 0.3)


def test_solves_agree_with_biharm_at_low_gamma():
    biharm = pytest.importorskip("biharm")
    f0, f1 = workloads.DirichletGrid.F0, workloads.DirichletGrid.F1
    for gamma in (0, 1, 2):
        for r in (0.5, 0.9):
            got = biharm.solve_dirichlet(gamma, f0, f1, biharm.DiscPoint(r=r, theta=0.4))
            assert got == pytest.approx(ref.exact_solution(gamma, f0, f1, r, 0.4), abs=1e-13)


def test_means_check_tolerance():
    grid = workloads.DirichletGrid(0)
    rows = ["r\tmean\tpredicted\tabs_err"]
    for r in grid.RADII:
        exact = float(ref.radial_factor(4, 0, "H", Fraction(r) ** 2))
        rows.append(f"{r}\t{exact * (1 + 0.5e-9):.15g}\t0\t0")
    good = "\n".join(rows)
    assert grid._check_means(4, "H", good) is None
    bad = good.rsplit("\n", 1)[0] + f"\n0.999\t{float(ref.radial_factor(4, 0, 'H', Fraction(0.999) ** 2)) * (1 + 2e-9):.15g}\t0\t0"
    assert grid._check_means(4, "H", bad)


# ---------------------------------------------------------------------------
# CLI outputs


def _verify_text(gamma_max, bad=None):
    cells = [f"{k}:{c}=pass" for k in "FH" for c in ("biharmonic-zero", "boundary-exact", "matches-builder")]
    lines = []
    for g in range(gamma_max + 1):
        row = list(cells)
        if g == bad:
            row[2] = "F:matches-builder=FAIL"
        lines.append("\t".join([f"gamma={g}"] + row))
    lines.append(f"checked={gamma_max + 1}\tfailures={int(bad is not None)}")
    return "\n".join(lines) + "\n"


def test_verify_output_check():
    assert ref.check_verify_output(_verify_text(3), 3) is None
    assert ref.check_verify_output(_verify_text(3, bad=2), 3)
    assert ref.check_verify_output(_verify_text(2), 3)


def test_document_check():
    assert ref.check_document(_document(2, "F", F2), 2, "F", CASES) is None
    assert ref.check_document(_document(2, "F", _mutated(F2, 3, 6, Fraction(1, 10**9))), 2, "F", CASES)
    assert ref.check_document(_document(1, "F", F1), 2, "F", CASES)
    assert ref.check_document("{not json", 2, "F", CASES)
