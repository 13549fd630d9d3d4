"""Tests for distributional boundary data of building-block expansions."""

from fractions import Fraction

import pytest

from biharm.boundary import (
    BoundaryData,
    NonDeltaBoundaryError,
    dirichlet_factor,
    expansion_boundary,
    fourier_poly,
    radial_ratio,
    term_boundary,
)
from biharm.builder import build_pair
from biharm.conjecture import conjectured_kernel
from biharm.exact import binom
from biharm.numeric import integral_mean
from biharm.operators import make_expansion
from exact_references import (
    ab_sums,
    fraction_dirichlet_factor,
    fraction_fourier_poly,
    fraction_radial_factor,
    integral_means_poly,
    poly_eval,
    poly_mul,
)
from kernel_fixtures import RAW_F2, RAW_H2


def monomial_boundary(k, beta):
    """Boundary data of the one-term expansion t^k / |1-z|^(2 beta)."""
    return expansion_boundary(make_expansion(0, {beta: {k: Fraction(1)}}))


# ---------------------------------------------------------------------------
# double sums and integral-means polynomials


@pytest.mark.parametrize("beta, a, b", [(2, 2, -2), (3, 6, -12), (4, 20, -60)])
def test_ab_sums_small_values(beta, a, b):
    assert ab_sums(beta) == BoundaryData(a=Fraction(a), b=Fraction(b))


def test_ab_sums_closed_identities():
    # a_beta = C(2 beta - 2, beta - 1) and b_beta = -(beta - 1) a_beta.
    for beta in range(2, 21):
        data = ab_sums(beta)
        assert data.a == binom(2 * beta - 2, beta - 1)
        assert data.b == -(beta - 1) * data.a


def test_monomial_boundary_closed_form_matches_references():
    # The closed form expansion_boundary uses against the paper's double
    # sums and against p(1), -2 p'(1) of the integral-means polynomial.
    for beta in range(2, 61):
        data = ab_sums(beta)
        p = integral_means_poly(beta)
        assert (data.a, data.b) == (p.value_at_one(), -2 * p.derivative_at_one())
        assert monomial_boundary(2 * beta - 1, beta) == data, beta
        assert monomial_boundary(2 * beta, beta) == BoundaryData(Fraction(0), 2 * data.a)
    # beta = 1, the Poisson case, has no double sum: a = 1, b = 0.
    assert monomial_boundary(1, 1) == BoundaryData(Fraction(1), Fraction(0))
    assert monomial_boundary(2, 1) == BoundaryData(Fraction(0), Fraction(2))


def test_ab_sums_rejects_small_beta():
    with pytest.raises(ValueError):
        ab_sums(1)
    with pytest.raises(ValueError):
        integral_means_poly(1)


def test_integral_means_poly_small():
    assert integral_means_poly(2).poly == {0: Fraction(1), 1: Fraction(1)}
    assert integral_means_poly(3).poly == {0: Fraction(1), 1: Fraction(4), 2: Fraction(1)}


def test_integral_means_poly_matches_ab_sums():
    for beta in range(2, 13):
        p = integral_means_poly(beta)
        data = ab_sums(beta)
        assert p.value_at_one() == data.a
        assert -2 * p.derivative_at_one() == data.b


def test_integral_means_poly_against_truncated_series():
    # mean of 1/|1-z|^(2 beta) = sum_n C(n+beta-1, n)^2 s^n, so the product
    # (1-s)^(2 beta - 1) * series must reduce to the stored polynomial: its
    # low-order coefficients agree and every order from 2 beta - 1 up to the
    # truncation vanishes.
    for beta in range(2, 9):
        n_trunc = 2 * beta + 16
        series = {n: Fraction(binom(n + beta - 1, n)) ** 2 for n in range(n_trunc + 1)}
        factor = {j: Fraction((-1) ** j * binom(2 * beta - 1, j)) for j in range(2 * beta)}
        product = poly_mul(factor, series)
        stored = integral_means_poly(beta).poly
        for m in range(0, n_trunc - 2 * beta + 2):
            assert product.get(m, Fraction(0)) == stored.get(m, Fraction(0)), (beta, m)


@pytest.mark.parametrize(
    "beta, k, r, expected",
    [
        (2, 3, 0.5, Fraction(5, 4)),  # p_2(s) = 1 + s at s = 1/4
        (2, 5, 0.5, Fraction(45, 64)),  # (1-s)^2 (1+s)
        (3, 5, 0.5, Fraction(33, 16)),  # p_3(s) = 1 + 4s + s^2
    ],
)
def test_closed_means_match_quadrature(beta, k, r, expected):
    u = make_expansion(0, {beta: {k: Fraction(1)}})
    assert integral_mean(u, r) == pytest.approx(float(expected), abs=1e-10)


# ---------------------------------------------------------------------------
# Fourier multipliers


def radial_factor(kernel, n, s):
    """The kernel's exact n-th multiplier at s = r^2, one Fraction of
    radial_ratio's integers."""
    return Fraction(*radial_ratio(kernel, n, s.numerator, s.denominator))


def direct_radial_factor(kernel, n, s):
    """radial_factor term by term, with a fresh power of t per monomial."""
    t = 1 - s
    return sum(
        (
            poly_eval(poly, t) / t ** (2 * beta - 1) * poly_eval(fraction_fourier_poly(beta, n), s)
            for beta, poly in kernel.terms.items()
        ),
        Fraction(0),
    )


# s = 0, two rationals with odd denominators, and the dyadic s of two float radii
ORACLE_S = (Fraction(0), Fraction(1, 3), Fraction(99, 100), Fraction(0.3) ** 2, Fraction(0.999) ** 2)
ORACLE_N = (0, 1, 5, 17)  # each also as -n


@pytest.mark.parametrize(
    "kernel",
    [
        conjectured_kernel(7, "F"),
        conjectured_kernel(16, "H"),
        # gaps between exponents, a band starting below 2 beta - 1 (a power
        # of t in the denominator), no band 2
        make_expansion(1, {1: {0: Fraction(2, 7), 3: Fraction(1, 3)}, 3: {4: Fraction(-5, 4), 9: Fraction(1, 9)}}),
    ],
)
def test_radial_factor_horner_matches_direct_sum(kernel):
    for n in (0, 1, -2, 5):
        for s in ORACLE_S + (Fraction(0.99) ** 2,):
            got = radial_factor(kernel, n, s)
            assert got == direct_radial_factor(kernel, n, s) == fraction_radial_factor(kernel, n, s), (n, s)


@pytest.mark.parametrize("gamma", list(range(9)) + [24, 80])
def test_integer_multipliers_equal_fraction_oracles(gamma):
    # The integer Horner sums return the same rationals as one Fraction
    # operation per step, for every denominator of s, not only powers of 2.
    # The oracles take |n| themselves, so each runs once for n and -n.
    for kind in "FH":
        kernel = conjectured_kernel(gamma, kind)
        for n in ORACLE_N:
            for s in ORACLE_S:
                radial = fraction_radial_factor(kernel, n, s)
                ode = fraction_dirichlet_factor(gamma, kind, n, s)
                for sign in (1, -1):
                    assert radial_factor(kernel, sign * n, s) == radial, (kind, sign * n, s)
                    assert dirichlet_factor(gamma, kind, sign * n, s) == ode, (kind, sign * n, s)


def test_fourier_poly_has_int_coefficients():
    for beta in range(1, 41):
        for n in range(-12, 13):
            poly = fourier_poly(beta, n)
            assert poly == fraction_fourier_poly(beta, n), (beta, n)
            assert all(type(c) is int for c in poly.values()), (beta, n)


@pytest.mark.parametrize("gamma", list(range(13)) + [24])
def test_dirichlet_factor_equals_built_multipliers(gamma):
    # The radial ODE solution and the built kernels' Fourier coefficients
    # are the same rationals: an exact check of each kernel against the
    # Dirichlet problem it solves.
    for kind, kernel in zip("FH", build_pair(gamma)):
        for n in range(-3, 9):
            for r in (0.0, 0.3, 0.99, 0.999):
                s = Fraction(r) ** 2
                assert dirichlet_factor(gamma, kind, n, s) == radial_factor(kernel, n, s), (kind, n, r)


def test_dirichlet_factor_equals_closed_form_at_gamma_80():
    # Past the built range of the fast tests: the closed form equals the
    # built kernels up to gamma 80 (the extended closed-form sweep).
    s = Fraction(0.99) ** 2
    for kind in "FH":
        kernel = conjectured_kernel(80, kind)
        for n in (0, 3):
            assert dirichlet_factor(80, kind, n, s) == radial_factor(kernel, n, s), (kind, n)


def test_dirichlet_factor_hand_values():
    # gamma = 0 is the biharmonic case: F = 1 + n (1 - s) / 2 and
    # H = (1 - s) / 2 for every harmonic n.
    s = Fraction(1, 4)
    for n in range(-3, 4):
        assert dirichlet_factor(0, "F", n, s) == 1 + Fraction(3 * abs(n), 8)
        assert dirichlet_factor(0, "H", n, s) == Fraction(3, 8)
    with pytest.raises(ValueError, match="kind"):
        dirichlet_factor(2, "G", 1, s)


# ---------------------------------------------------------------------------
# per-monomial boundary data


@pytest.mark.parametrize(
    "k, beta, a, b",
    [
        (1, 1, 1, 0),
        (2, 1, 0, 2),
        (3, 1, 0, 0),
        (3, 2, 2, -2),
        (4, 2, 0, 4),
        (5, 2, 0, 0),
        (5, 3, 6, -12),
        (6, 3, 0, 12),
        (7, 3, 0, 0),
        (9, 3, 0, 0),
    ],
)
def test_monomial_boundary_table(k, beta, a, b):
    assert monomial_boundary(k, beta) == BoundaryData(a=Fraction(a), b=Fraction(b))
    pair = term_boundary(beta, k)  # the builder's boundary-row entries
    assert pair == (a, b) and all(type(c) is int for c in pair)


def test_monomial_boundary_vanishes_above_diagonal():
    for beta in range(1, 11):
        for k in range(2 * beta + 1, 4 * beta + 1):
            assert monomial_boundary(k, beta) == BoundaryData(Fraction(0), Fraction(0))


@pytest.mark.parametrize("k, beta", [(2, 2), (0, 1), (4, 3), (-1, 1)])
def test_monomial_boundary_rejects_non_delta(k, beta):
    with pytest.raises(NonDeltaBoundaryError):
        monomial_boundary(k, beta)
    with pytest.raises(NonDeltaBoundaryError):
        term_boundary(beta, k)


def test_monomial_boundary_rejects_bad_beta():
    # An expansion has no band beta = 0.
    with pytest.raises(ValueError, match="beta=0"):
        monomial_boundary(3, 0)


# ---------------------------------------------------------------------------
# expansions


def test_expansion_boundary_is_linear():
    u = make_expansion(0, {1: {1: Fraction(2)}, 2: {3: Fraction(5)}})
    assert expansion_boundary(u) == BoundaryData(a=Fraction(12), b=Fraction(-10))
    # Band 3 starts at 2 beta = 6, so it has no t^5 term: its last
    # coefficient, 7 t^9, is not read in its place.
    v = make_expansion(0, {1: {1: Fraction(2)}, 2: {3: Fraction(5)}, 3: {6: Fraction(1), 9: Fraction(7)}})
    assert expansion_boundary(v) == BoundaryData(a=Fraction(12), b=Fraction(2))


def test_expansion_boundary_rejects_non_delta_terms():
    u = make_expansion(0, {2: {2: Fraction(1)}})
    with pytest.raises(NonDeltaBoundaryError):
        expansion_boundary(u)


def test_expansion_boundary_of_known_kernels():
    h0 = make_expansion(0, {1: {2: Fraction(1, 2)}})
    assert expansion_boundary(h0) == BoundaryData(a=Fraction(0), b=Fraction(1))
    f0 = make_expansion(0, {1: {2: Fraction(1, 2)}, 2: {3: Fraction(1, 2)}})
    assert expansion_boundary(f0) == BoundaryData(a=Fraction(1), b=Fraction(0))


def test_expansion_boundary_of_raw_fixtures():
    assert expansion_boundary(make_expansion(2, RAW_H2)) == BoundaryData(
        a=Fraction(0), b=Fraction(6)
    )
    assert expansion_boundary(make_expansion(2, RAW_F2)) == BoundaryData(
        a=Fraction(2), b=Fraction(-18)
    )
