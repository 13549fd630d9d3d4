"""Tests for floating-point evaluation, Fourier multipliers, L1 quadrature, and
FD validation."""

import cmath
import copy
import dataclasses
import json
import math
import os
import pickle
import random
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import biharm.boundary
import biharm.builder
import biharm.numeric
from biharm.boundary import dirichlet_factor, radial_ratio
from biharm.builder import KernelSpec, build, build_pair
from biharm.conjecture import ABForm, conjectured_kernel
from biharm.exact import bernstein_coefficients, isolate_roots
from biharm.numeric import (
    DiscPoint,
    QuadratureConvergenceError,
    _circle_bernstein,
    _f_zeros,
    _root_in,
    _sign_changes,
    eval_kernel,
    integral_mean,
    inv_abs1mz_sq,
    l1_norm,
    solve_dirichlet,
    values_at,
)
from biharm.operators import make_expansion
from exact_references import (
    bisect_root_in,
    expansion_scale,
    fraction_dirichlet_factor,
    integral_means_poly,
    poly_eval,
)
from fd_oracle import StencilOutOfDomainError, fd_biharmonic_residual
from l1_oracle import f_l1_reference, l1_reference

F0 = build(KernelSpec(gamma=0, kind="F"))
H0 = build(KernelSpec(gamma=0, kind="H"))
F2 = build(KernelSpec(gamma=2, kind="F"))
H2 = build(KernelSpec(gamma=2, kind="H"))


# ---------------------------------------------------------------------------
# plumbing


def test_disc_point_validation():
    with pytest.raises(ValueError):
        DiscPoint(r=1.0, theta=0.0)
    with pytest.raises(ValueError):
        DiscPoint(r=-0.1, theta=0.0)
    DiscPoint(r=0.0, theta=5.0)  # any finite angle is fine
    for r, theta in ((math.nan, 0.0), (0.5, math.nan), (0.5, math.inf), (0.5, -math.inf)):
        with pytest.raises(ValueError):
            DiscPoint(r=r, theta=theta)
    # Frozen and slotted: equal by value and hashable, through a pickle round
    # trip and a deep copy too, with no instance __dict__.
    point = DiscPoint(r=0.5, theta=-2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        point.r = 0.25
    for twin in (pickle.loads(pickle.dumps(point)), copy.deepcopy(point), DiscPoint(0.5, -2.0)):
        assert twin == point and hash(twin) == hash(point)
    assert not hasattr(point, "__dict__")


def test_inv_abs1mz_sq_values():
    assert inv_abs1mz_sq(0.5, np.pi) == pytest.approx(4 / 9, abs=1e-15)
    assert inv_abs1mz_sq(0.5, 0.0) == pytest.approx(4.0, abs=1e-15)
    arr = inv_abs1mz_sq(0.3, np.array([0.0, np.pi]))
    assert arr == pytest.approx([1 / 0.49, 1 / 1.69], abs=1e-15)


# Angles where tan(theta/2) is huge (+-pi, 3 pi), zero of either sign or
# subnormal, small, and far outside [-pi, pi]; radii from 0 to near the
# boundary.
EXTREME_ANGLES = [np.pi, -np.pi, 3.0 * np.pi, -0.0, 5e-324, 1e-9, 1e22, 1e300]
EXTREME_RADII = [0.0, 0.5, 0.999999]


def test_inv_abs1mz_sq_matches_mpmath():
    for r in EXTREME_RADII:
        batch = inv_abs1mz_sq(r, np.array(EXTREME_ANGLES))
        for theta, got in zip(EXTREME_ANGLES, batch):
            with mpmath.workdps(40):
                rm = mpmath.mpf(r)
                want = 1 / ((1 - rm) ** 2 + 4 * rm * mpmath.sin(mpmath.mpf(theta) / 2) ** 2)
                assert abs(got - want) <= 1e-15 * want, (r, theta)
            # A scalar angle rounds as the same angle in an array.
            assert inv_abs1mz_sq(r, theta) == got, (r, theta)


def test_values_at_matches_direct_sum_at_extreme_angles():
    for gamma in range(9):
        for kernel in build_pair(gamma):
            for r in EXTREME_RADII:
                for theta, got in zip(EXTREME_ANGLES, values_at(kernel, r, EXTREME_ANGLES)):
                    want = float(_direct_sum(kernel, r, theta))
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (gamma, kernel.max_beta(), r, theta)


def test_inv_abs1mz_sq_and_values_at_keep_the_shape_of_the_angles():
    grid = np.linspace(-4.0, 4.0, 6).reshape(2, 3)
    before = grid.copy()
    for thetas in (np.array(0.7), np.empty(0), np.empty((0, 3)), grid):
        assert np.shape(inv_abs1mz_sq(0.5, thetas)) == thetas.shape
        assert np.shape(values_at(F2, 0.5, thetas)) == thetas.shape
    assert np.ndim(inv_abs1mz_sq(0.5, 0.7)) == 0
    # The caller's angles are read, not overwritten.
    assert np.array_equal(grid, before)
    assert np.array_equal(values_at(F2, 0.5, grid).ravel(), values_at(F2, 0.5, grid.ravel()))


# ---------------------------------------------------------------------------
# pointwise evaluation


def test_eval_kernel_hand_value():
    # F at weight exponent 0, z = -1/2: t = 3/4, |1-z|^2 = 9/4, so the
    # value is (1/2)(9/16)/(9/4) + (1/2)(27/64)/(81/16) = 1/8 + 1/24 = 1/6.
    assert eval_kernel(F0, DiscPoint(r=0.5, theta=np.pi)) == pytest.approx(
        1.0 / 6.0, abs=1e-15
    )


def test_eval_kernel_at_origin():
    for gamma in range(0, 5):
        f = build(KernelSpec(gamma=gamma, kind="F"))
        assert eval_kernel(f, DiscPoint(r=0.0, theta=0.3)) == pytest.approx(
            1.0, abs=1e-12
        )
    # H value at 0 is sum over bands of 1/(2 beta)
    assert eval_kernel(H2, DiscPoint(r=0.0, theta=0.0)) == pytest.approx(
        11.0 / 12.0, abs=1e-12
    )


def test_eval_kernel_angle_symmetry():
    for theta in (0.3, 1.7, 3.0):
        plus = eval_kernel(F2, DiscPoint(r=0.8, theta=theta))
        minus = eval_kernel(F2, DiscPoint(r=0.8, theta=-theta))
        assert plus == pytest.approx(minus, rel=1e-14)


def _perturbed(kernel):
    """The kernel with its top band's one coefficient moved by 1e-30.  No
    (a, b) form expands to it, so eval_kernel refuses it, though its float
    image is the kernel's own."""
    terms = {beta: dict(poly) for beta, poly in kernel.terms.items()}
    ((k, c),) = terms[kernel.max_beta()].items()
    terms[kernel.max_beta()][k] = c + Fraction(1, 10**30)
    return make_expansion(kernel.gamma, terms)


def test_eval_kernel_matches_vectorized_path():
    # eval_kernel sums H_2's (a, b) form and values_at its bands, both in
    # float64, so the two agree to rounding, not bit for bit.
    thetas = np.linspace(0.0, 2.0 * np.pi, 7)
    vals = values_at(H2, 0.85, thetas)
    for theta, val in zip(thetas, vals):
        assert eval_kernel(H2, DiscPoint(r=0.85, theta=theta)) == pytest.approx(val, rel=1e-13, abs=0.0)
    # A scalar angle (a 0-d array) gives a scalar.
    one = values_at(H2, 0.85, thetas[3])
    assert np.ndim(one) == 0 and one == vals[3]


@pytest.fixture
def sized_calls(monkeypatch):
    """Records the (r, theta) of every call of eval_kernel's mpmath path."""
    calls = []
    sized = biharm.numeric._eval_extended

    def record(kernel, r, theta):
        calls.append((r, theta))
        return sized(kernel, r, theta)

    monkeypatch.setattr(biharm.numeric, "_eval_extended", record)
    return calls


def test_eval_kernel_closed_forms_match_direct_sum(sized_calls):
    # The (a, b) forms' values for the built F and H, to 1e-12 of the band
    # sum in mpmath, at radii from the centre to near the boundary.
    rng = random.Random(1)
    for gamma in range(9):
        for kernel in build_pair(gamma):
            assert kernel.float_ab_form is not None
            for r in (0.0, 0.3, 0.9, 0.998):
                for theta in (rng.uniform(-7.0, 7.0) for _ in range(10)):
                    got = eval_kernel(kernel, DiscPoint(r=r, theta=theta))
                    want = float(_direct_sum(kernel, r, theta))
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0), (gamma, r, theta)
    assert not sized_calls


# Band shapes no closed-form kernel has: a missing middle band, only the top
# band, and no band at all.
SPARSE_EXPANSIONS = [
    make_expansion(3, {1: {2: Fraction(1, 3), 0: Fraction(2, 7)}, 3: {5: Fraction(5, 4), 1: Fraction(1, 9)}}),
    make_expansion(1, {4: {3: Fraction(7, 5), 6: Fraction(1, 11)}}),
    make_expansion(2, {}),
]


def _direct_sum(kernel, r, theta, dps=150):
    """The kernel's terms summed one by one in mpmath at dps digits; the
    terms must leave at least 30 of those digits after they cancel."""
    with mpmath.workdps(dps):
        rm, th = mpmath.mpf(r), mpmath.mpf(theta)
        t = 1 - rm * rm
        q = (1 - rm) ** 2 + 4 * rm * mpmath.sin(th / 2) ** 2
        terms = [
            (mpmath.mpf(c.numerator) / c.denominator) * t**k / q**beta
            for beta, poly in kernel.terms.items()
            for k, c in poly.items()
        ]
        total = mpmath.fsum(terms)
        assert mpmath.fsum(map(abs, terms)) <= abs(total) * mpmath.mpf(10) ** (dps - 30)
        return total


@pytest.mark.parametrize("kernel", SPARSE_EXPANSIONS)
def test_band_sum_on_sparse_bands(kernel):
    # values_at sums any expansion's bands (eval_kernel takes F and H only).
    thetas = np.array([0.0, 0.4, 1.7, 3.0, -2.2])
    for r in (0.0, 0.3, 0.9, 0.998):
        batch = values_at(kernel, r, thetas)
        for value, theta in zip(batch, thetas):
            want = float(_direct_sum(kernel, r, theta))
            assert value == pytest.approx(want, rel=1e-13, abs=0.0), (r, theta)


def _plain_band_sum(kernel, r, thetas):
    """Horner's rule in u over kernel.terms from the top band down, each
    band's terms float(c) t^k summed in ascending k."""
    t = (1.0 - r) * (1.0 + r)
    u = inv_abs1mz_sq(r, np.array(thetas, dtype=float))
    total = np.zeros_like(u)
    for beta in range(kernel.max_beta(), 0, -1):
        band = sorted(kernel.terms.get(beta, {}).items())
        total = (total + sum(float(c) * t**k for k, c in band)) * u
    return total


@pytest.mark.parametrize("kernel", [*SPARSE_EXPANSIONS, conjectured_kernel(8, "H")])
def test_values_at_is_the_plain_float_band_sum(kernel):
    # Absent bands, the empty kernel and a closed form: values_at rounds
    # each coefficient and sums the bands as a plain Horner sum does.
    rng = random.Random(29)
    thetas = [0.0, 1e-9, math.pi, *(rng.uniform(-7.0, 7.0) for _ in range(40))]
    for r in (0.0, 0.3, 0.9, 0.998):
        got, want = values_at(kernel, r, np.array(thetas)), _plain_band_sum(kernel, r, thetas)
        assert got.tobytes() == want.tobytes(), r


def test_band_sum_of_empty_expansion_is_zero(sized_calls):
    empty = SPARSE_EXPANSIONS[-1]
    vals = values_at(empty, 0.5, np.ones((2, 3)))
    assert vals.shape == (2, 3) and not vals.any()
    # No (a, b) form is certified for it, so eval_kernel refuses it.
    with pytest.raises(ValueError, match="F and H"):
        eval_kernel(empty, DiscPoint(r=0.5, theta=1.0))
    assert sized_calls == []


def test_eval_kernel_exact_zero_ends_digit_loop(sized_calls):
    # No certified kernel sums to exactly 0 at a float point, so this form
    # is made by hand: at r = 1/2 and theta = 0, c = t a = 3/2 exactly, and
    # S = c - 3/2 is 0 in every precision.  The float pass rejects it, and
    # the mpmath pass doubles its digits until the error bound falls below
    # the smallest float.
    kernel = make_expansion(0, {1: {1: Fraction(1)}})
    kernel.__dict__["float_ab_form"] = ABForm(
        rows=((1, 0, (2,)), (0, 0, (-3,))),
        scale=2,
        floats=((1, 0, (1.0,)), (0, 0, (-1.5,))),
        l_max=0,
        floor=0.0,
    )
    assert eval_kernel(kernel, DiscPoint(r=0.5, theta=0.0)) == 0.0
    assert sized_calls == [(0.5, 0.0)]


def test_eval_kernel_precision_paths_agree(sized_calls):
    # A well-conditioned point keeps its float value (here F_2's form),
    # which the mpmath pass on the same form reproduces.
    p = DiscPoint(r=0.7, theta=1.1)
    d = eval_kernel(F2, p)
    assert sized_calls == []
    e = biharm.numeric._eval_extended(F2, p.r, p.theta)
    assert d == pytest.approx(e, rel=1e-12, abs=0.0)
    assert e == pytest.approx(float(_direct_sum(F2, p.r, p.theta)), rel=1e-15, abs=0.0)


def test_values_at_near_the_boundary_matches_extended():
    # 1 - r*r would lose the digits of t here; (1 - r)(1 + r) keeps them.
    f4 = build(KernelSpec(gamma=4, kind="F"))
    rng = random.Random(4004)
    for _ in range(200):
        r, theta = rng.uniform(0.9999, 0.99999), rng.uniform(0.01, 3.1)
        e = float(_direct_sum(f4, r, theta))
        assert abs(values_at(f4, r, [theta])[0] - e) <= 1e-12 * abs(e)


def test_eval_kernel_singular_corner_upgrades(sized_calls):
    # Near z = 1 at gamma 80, where u^beta overflows float64, F_80's float
    # pass drops the points next to a zero of cos(81 psi), and the mpmath
    # pass sums the form there, also for an angle outside [-pi, pi].
    f80 = conjectured_kernel(80, "F")
    first = _f_zeros(80, 0.99)[0]
    for theta in (first, 2.0 * math.pi + first):
        sized_calls.clear()
        got = eval_kernel(f80, DiscPoint(r=0.99, theta=theta))
        assert sized_calls == [(0.99, theta)]
        assert got == pytest.approx(float(_direct_sum(f80, 0.99, theta, 300)), rel=1e-12, abs=0.0)


# (r, theta) where F and H are normal floats at every gamma below: moderate
# radii all round the circle, and r -> 1 as theta -> 0.
CLOSED_FORM_POINTS = [
    *((r, theta) for r in (0.3, 0.9, 0.99) for theta in (0.0, 1e-3, 2.0)),
    *((r, theta) for r in (0.999, 0.99999) for theta in (0.0, 1e-9, 1e-4)),
]


@pytest.mark.parametrize("kind", ["F", "H"])
@pytest.mark.parametrize("gamma", [8, 20, 40, 80])
def test_closed_forms_match_300_digit_band_sum(gamma, kind):
    kernel = conjectured_kernel(gamma, kind)
    kept = 0
    for r, theta in CLOSED_FORM_POINTS:
        closed = biharm.numeric._eval_ab_form(kernel.float_ab_form, r, theta)
        got = eval_kernel(kernel, DiscPoint(r=r, theta=theta))
        want = float(_direct_sum(kernel, r, theta, 300))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (r, theta)
        if closed is not None:
            assert closed == got
            kept += 1
    # H_80 at r = 0.99, theta = 1e-3 is near a zero and falls back.
    assert kept >= len(CLOSED_FORM_POINTS) - 1


@pytest.mark.parametrize("gamma, r", [(8, 0.9), (20, 0.99), (40, 0.999), (80, 0.99999)])
def test_closed_form_falls_back_at_the_zeros_of_f(gamma, r, sized_calls):
    # On a zero of cos((gamma+1) psi) the closed form's one term is all
    # rounding: its estimate is past _ESTIMATE_MAX, so the mpmath path sums it.
    kernel = conjectured_kernel(gamma, "F")
    zeros = _f_zeros(gamma, r)
    for theta in (zeros[0], zeros[len(zeros) // 2], -zeros[-1]):
        assert biharm.numeric._eval_ab_form(kernel.float_ab_form, r, theta) is None
        got = eval_kernel(kernel, DiscPoint(r=r, theta=theta))
        assert got == pytest.approx(float(_direct_sum(kernel, r, theta, 300)), rel=1e-12, abs=0.0)
    assert len(sized_calls) == 3


@pytest.mark.parametrize("kind", ["F", "H"])
def test_closed_form_falls_back_rarely(kind):
    # Measured: 0 to 2 of 200 at seeds 1 to 3, and 0.4 to 0.7 % of 20000.
    form = conjectured_kernel(8, kind).float_ab_form
    rng = random.Random(2)
    points = [(rng.uniform(0.0, 0.99), rng.uniform(-math.pi, math.pi)) for _ in range(200)]
    assert sum(biharm.numeric._eval_ab_form(form, r, theta) is None for r, theta in points) <= 4


def test_perturbed_kernel_is_not_certified(sized_calls):
    f8 = conjectured_kernel(8, "F")
    moved = _perturbed(f8)
    assert f8.float_ab_form is not None and moved.float_ab_form is None
    assert "float_ab_form" in vars(moved)  # the verdict is kept
    with pytest.raises(ValueError, match="F and H"):
        eval_kernel(moved, DiscPoint(r=0.5, theta=0.2))
    assert sized_calls == []


# (kernel, r, theta) where the terms cancel by at most 256 and none
# underflows, so float64 would sum them to 1e-12; still no (a, b) form is
# certified for these expansions, so eval_kernel refuses them.
UNCERTIFIED_POINTS = [
    pytest.param(SPARSE_EXPANSIONS[0], 0.3, 0.4, id="sparse"),
    pytest.param(SPARSE_EXPANSIONS[1], 0.9, -2.2, id="top-band-only"),
    pytest.param(_perturbed(conjectured_kernel(8, "F")), 0.9, 1.0, id="perturbed-F8"),
]


@pytest.mark.parametrize("kernel, r, theta", UNCERTIFIED_POINTS)
def test_eval_kernel_rejects_uncertified_expansions(kernel, r, theta, sized_calls):
    with pytest.raises(ValueError, match=f"gamma={kernel.gamma}, top band {kernel.max_beta()}"):
        eval_kernel(kernel, DiscPoint(r=r, theta=theta))
    assert sized_calls == []


# The H_8 corner point is one where the (a, b) form's estimate is too large
# for the float pass to keep its value.
@pytest.mark.parametrize(
    "kernel, r, theta",
    [pytest.param(conjectured_kernel(8, "H"), 0.9998568809811054, -0.0007426898694535005, id="H8-corner")],
)
def test_points_off_the_certified_form_take_the_mpmath_path(kernel, r, theta, sized_calls):
    assert biharm.numeric._eval_ab_form(kernel.float_ab_form, r, theta) is None
    got = eval_kernel(kernel, DiscPoint(r=r, theta=theta))
    assert sized_calls == [(r, theta)]
    assert got == pytest.approx(float(_direct_sum(kernel, r, theta)), rel=1e-12, abs=0.0)


# (kind, gamma, r, theta): the four float64 probes of the benchmark's
# kernel_eval workload, gamma 80 near and away from z = 1, a gamma 80 point
# whose float terms underflow to a finite wrong sum, and corner points.
ACCURACY_POINTS = [
    pytest.param("F", 10, 0.142, 1.461, id="F10-probe"),
    pytest.param("F", 20, 0.95, 3.0, id="F20-probe"),
    pytest.param("F", 30, 0.5, 3.0, id="F30-probe"),
    pytest.param("F", 40, 0.95, 0.0, id="F40-probe"),
    pytest.param("F", 80, 0.99, 1e-4, id="F80-corner"),
    pytest.param("H", 80, 0.5, 2.0, id="H80"),
    pytest.param("F", 80, 0.9970793655431056, 0.00017920499073073842, id="F80-underflow"),
    pytest.param("F", 8, 0.9995, 1e-5, id="F8-corner"),
    pytest.param("H", 8, 0.99999, -3e-4, id="H8-corner"),
    pytest.param("F", 24, 0.9995, 1e-5, id="F24-corner"),
    pytest.param("H", 24, 0.99995, 2e-4, id="H24-corner"),
]


@pytest.mark.parametrize("kind, gamma, r, theta", ACCURACY_POINTS)
def test_eval_kernel_matches_reference(kind, gamma, r, theta):
    kernel = conjectured_kernel(gamma, kind)
    want = _direct_sum(kernel, r, theta, 300)
    assert eval_kernel(kernel, DiscPoint(r=r, theta=theta)) == pytest.approx(float(want), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "r, theta",
    [
        # c^81 is subnormal, and so is the value.
        (0.9999, 2.0),
        # The one term t Re(c^81) is normal but below the float floor
        # 2^(3 gamma - 1000), where underflow could have reached it.
        (0.9995, 3.0),
    ],
    ids=["power", "term"],
)
def test_eval_kernel_underflowed_terms_take_mpmath_path(r, theta, sized_calls):
    # F_80 has one term, so nothing cancels, yet float64 may have lost its
    # digits to underflow: the float pass drops these points.
    f80 = conjectured_kernel(80, "F")
    assert biharm.numeric._eval_ab_form(f80.float_ab_form, r, theta) is None
    got = eval_kernel(f80, DiscPoint(r=r, theta=theta))
    assert sized_calls == [(r, theta)]
    assert got != 0.0
    assert got == pytest.approx(float(_direct_sum(f80, r, theta, 300)), rel=1e-12, abs=0.0)


def test_values_at_rejects_underflowed_powers_of_t():
    # At r = 0.99708 F_80's t^163 is below the smallest normal float, and
    # the band sum read 2.54e56 where the value is 2.95e26.
    r, theta = 0.9970793655431056, 0.00017920499073073842
    f80 = conjectured_kernel(80, "F")
    with pytest.raises(ValueError, match=f"t\\^163 underflows float64 at r={r} \\(gamma=80\\)"):
        values_at(f80, r, [theta])
    # t^19 is 5e-52 for the gamma 8 kernels at r = 0.999.
    assert np.isfinite(values_at(conjectured_kernel(8, "H"), 0.999, [theta])).all()


# 200 uniform points (seed 3) with r <= 0.99, and 20 in the corner r > 0.999,
# |theta| < 1e-3.  gamma 24 and 80 join with BIHARM_ACCEPT_EXTENDED=1.
_rng = random.Random(3)
UNIFORM_POINTS = [(_rng.uniform(0.0, 0.99), _rng.uniform(-math.pi, math.pi)) for _ in range(200)]
UNIFORM_POINTS += [(_rng.uniform(0.999, 0.99999), _rng.uniform(-1e-3, 1e-3)) for _ in range(20)]


@pytest.mark.parametrize("kind", ["F", "H"])
@pytest.mark.parametrize("gamma", list(range(9)) + ([24, 80] if os.environ.get("BIHARM_ACCEPT_EXTENDED") else []))
def test_eval_kernel_matches_direct_sum_at_uniform_points(gamma, kind, sized_calls):
    kernel = conjectured_kernel(gamma, kind)
    for r, theta in UNIFORM_POINTS:
        got = eval_kernel(kernel, DiscPoint(r=r, theta=theta))
        want = float(_direct_sum(kernel, r, theta, 150 if gamma < 24 else 300))
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), (r, theta)
    # Measured: 5 to 15 of the 220 points fall back at gamma 24 and 80.
    if gamma >= 24:
        assert len(sized_calls) >= 3


EVAL_GOLDEN = Path(__file__).parent / "golden" / "eval_values.json"


def eval_golden_values():
    """float.hex of eval_kernel on F and H at gamma 0..8, 24 and 80, and of
    values_at on the gamma <= 8 kernels, at seeded points, keyed as in
    tests/golden/eval_values.json; json.dump(eval_golden_values(), f,
    indent=1) writes that file.

    32 seeded points with r <= 0.999, 8 of them in the corner r > 0.99,
    |theta| < 1e-2, and F_8's near-zero point of the CI smoke step; 40
    seeded angles for values_at.
    """
    rng = random.Random(36)
    points = [(rng.uniform(0.0, 0.999), rng.uniform(-math.pi, math.pi)) for _ in range(24)]
    points += [(rng.uniform(0.99, 0.999), rng.uniform(-1e-2, 1e-2)) for _ in range(8)]
    points.append((0.9, 1.25073682138))
    angles = np.array([rng.uniform(-math.pi, math.pi) for _ in range(40)])
    golden = {"points": [[r.hex(), theta.hex()] for r, theta in points], "angles": [a.hex() for a in angles]}
    for gamma in [*range(9), 24, 80]:
        for kind in ("F", "H"):
            kernel = conjectured_kernel(gamma, kind)
            golden[f"eval_kernel {kind}_{gamma}"] = [eval_kernel(kernel, DiscPoint(r, theta)).hex() for r, theta in points]
            if gamma <= 8:
                for r in (0.3, 0.9, 0.99):
                    golden[f"values_at {kind}_{gamma} {r}"] = [float(v).hex() for v in values_at(kernel, r, angles)]
    return golden


def test_evaluators_keep_their_golden_bits(sized_calls):
    # Both evaluators' outputs, bit for bit, against the values they gave
    # when the file was written; some points take eval_kernel's mpmath pass.
    assert eval_golden_values() == json.loads(EVAL_GOLDEN.read_text())
    assert sized_calls


# ---------------------------------------------------------------------------
# integral means and L1 norms


def test_integral_mean_of_f_is_one():
    for r in (0.3, 0.9):
        assert integral_mean(F0, r) == pytest.approx(1.0, abs=1e-12)
    assert integral_mean(F2, 0.9) == pytest.approx(1.0, abs=1e-10)


def test_integral_mean_of_h0_exact():
    # H at weight exponent 0 is t^2/(2 |1-z|^2): mean = (1 - r^2)/2.
    assert integral_mean(H0, 0.5) == pytest.approx(0.375, abs=1e-12)
    assert integral_mean(H0, 0.9) == pytest.approx((1 - 0.81) / 2, abs=1e-12)


@pytest.mark.parametrize("beta", range(2, 7))
def test_integral_mean_matches_exact_polynomial(beta):
    # mean of t^(2 beta - 1)/|1-z|^(2 beta) at radius r equals p(r^2).
    u = make_expansion(0, {beta: {2 * beta - 1: Fraction(1)}})
    expected = float(poly_eval(integral_means_poly(beta).poly, Fraction(1, 4)))
    assert integral_mean(u, 0.5) == pytest.approx(expected, rel=1e-10)


@pytest.mark.parametrize("r", [0.3, 0.99, 0.999999])
def test_integral_mean_of_f_is_one_at_high_gamma(r):
    # The float evaluator cancels badly here; the exact multiplier does not.
    assert integral_mean(conjectured_kernel(40, "F"), r) == pytest.approx(1.0, abs=1e-14)


def test_integral_mean_rejects_radius_outside_disc():
    for r in (1.0, 1.5, -0.1):
        with pytest.raises(ValueError):
            integral_mean(F0, r)


def test_values_at_and_l1_norm_reject_radius_outside_disc():
    for r in (1.0, 1.5, -0.1, math.nan):
        with pytest.raises(ValueError):
            values_at(F2, r, [0.0, 1.0])
        with pytest.raises(ValueError):
            l1_norm(F2, r)


def test_values_at_rejects_non_finite_angles():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            values_at(F2, 0.5, [bad, 0.3])
        with pytest.raises(ValueError, match="finite"):
            values_at(F2, 0.5, np.full((2, 2), bad))
    assert values_at(F2, 0.5, []).shape == (0,)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_values_at_finds_a_non_finite_angle_anywhere(bad):
    # values_at checks its angles by their min and max; a nan or an infinity
    # must reach one of them from any position and in any shape.
    angles = np.linspace(-3.0, 3.0, 7)
    for position in (0, 3, 6):
        thetas = angles.copy()
        thetas[position] = bad
        with pytest.raises(ValueError, match="values_at requires finite angles"):
            values_at(F2, 0.5, thetas)
    grid = angles[:6].reshape(2, 3).copy()
    grid[1, 1] = bad
    with pytest.raises(ValueError, match="values_at requires finite angles"):
        values_at(F2, 0.5, grid)
    with pytest.raises(ValueError, match="values_at requires finite angles"):
        values_at(F2, 0.5, np.float64(bad))
    assert values_at(F2, 0.5, np.empty((0, 3))).shape == (0, 3)
    assert np.isfinite(values_at(F2, 0.5, np.float64(0.3)))


def _radial_factor(kernel, n, s):
    return Fraction(*radial_ratio(kernel, n, s.numerator, s.denominator))


def _multiplier(kernel, n, r):
    return r**n * float(_radial_factor(kernel, n, Fraction(r) ** 2))


@pytest.mark.parametrize("gamma", [0, 1, 2, 4])
def test_multipliers_match_trapezoid_means(gamma):
    # An independent path: the trapezoid rule over the float evaluator.
    phis = 2.0 * np.pi * np.arange(4096) / 4096
    for kernel in build_pair(gamma):
        for r in (0.5, 0.9):
            values = values_at(kernel, r, phis)
            for n in range(4):
                quad = float(np.mean(values * np.cos(n * phis)))
                assert _multiplier(kernel, n, r) == pytest.approx(quad, rel=1e-12), (n, r)


@pytest.mark.parametrize("gamma", [0, 1, 2, 4])
def test_multipliers_at_the_boundary(gamma):
    # F reproduces boundary values and H normal derivatives: as r -> 1 the
    # F multipliers tend to 1 and the H multipliers to 1 - r.
    r = 1.0 - 1e-6
    kernel_f, kernel_h = build_pair(gamma)
    for n in range(4):
        assert abs(_multiplier(kernel_f, n, r) - 1.0) < 1e-5
        assert abs(_multiplier(kernel_h, n, r) / (1.0 - r) - 1.0) < 1e-5


def test_l1_norm_of_f0_is_one():
    for r in (0.5, 0.9):
        assert l1_norm(F0, r) == pytest.approx(1.0, abs=1e-8)
    # absolute value: the sign of the kernel does not matter
    assert l1_norm(expansion_scale(-1, F0), 0.5) == pytest.approx(1.0, abs=1e-8)


def test_l1_norm_dominates_mean():
    h3 = build(KernelSpec(gamma=3, kind="H"))
    assert l1_norm(h3, 0.9) >= abs(integral_mean(h3, 0.9)) - 1e-12


def test_l1_norm_of_f2_at_0999():
    # F_2 changes sign twice on this circle, at theta = 5.8e-4, inside the
    # peak of width 1e-3, and at 2.09.
    assert l1_norm(F2, 0.999) == pytest.approx(l1_reference(F2, 0.999), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "gamma, kind, r",
    [(2, "H", 0.999), (8, "F", 0.99), (4, "F", 0.99), (4, "F", 0.5)],
)
def test_l1_norm_of_sign_changing_kernels(gamma, kind, r):
    kernel = conjectured_kernel(gamma, kind)
    assert l1_norm(kernel, r) == pytest.approx(l1_reference(kernel, r), rel=1e-12, abs=0.0)


def test_l1_norm_with_a_root_at_the_split_point():
    # At r = 1/2, q = 1/4 + 2 lam and P(q) = (4q - 3)(4q - 5)(4q - 7) has
    # roots at lam = 1/4, 1/2 and 3/4, theta = pi/3, pi/2 and 2 pi/3.  The
    # first bisection splits at lam = 1/2, where neither half's sign count
    # sees the root.
    kernel = make_expansion(0, {1: {0: 64}, 2: {0: -240}, 3: {0: 284}, 4: {0: -105}})
    assert l1_norm(kernel, 0.5) == pytest.approx(l1_reference(kernel, 0.5), rel=1e-12, abs=0.0)


@pytest.mark.parametrize(
    "gamma, r, count",
    [(8, 0.9, 6), (20, 0.99, 20), (24, 0.999, 24), (12, 0.99999, 12), (40, 0.998, 40), (80, 0.99, 74)],
)
def test_sign_changes_of_f_are_its_explicit_zeros(gamma, r, count):
    # The root isolation that H's L1 norm takes, against F's explicit zeros.
    zeros = _f_zeros(gamma, r)
    assert len(zeros) == count
    got = sorted(_sign_changes(conjectured_kernel(gamma, "F"), r))
    assert got == pytest.approx(zeros, rel=0.0, abs=1e-14)


def test_sign_changes_of_f2_at_its_double_root():
    # sin psi_1 = sin(pi/6) = r: both zeros of the formula fall on pi/3, a
    # double root, which _sign_changes reports once.
    assert _sign_changes(conjectured_kernel(2, "F"), 0.5) == pytest.approx([math.pi / 3], rel=0.0, abs=1e-14)


def _isolated_pieces(b):
    return [piece for _, _, piece in isolate_roots(b) if piece is not None]


def _assert_root_in_matches_bisection(pieces):
    for piece in pieces:
        got, want = _root_in(piece), bisect_root_in(piece)
        assert abs(got - want) <= 2 * math.ulp(max(got, want)), (piece, got, want)


def test_root_in_matches_bisection_on_random_polynomials():
    rng = random.Random(25)
    pieces = []
    for _ in range(300):
        p = [rng.randint(-99, 99) for _ in range(rng.randint(2, 13))]
        pieces += _isolated_pieces(bernstein_coefficients(p, 0, 1, 1))
    assert len(pieces) > 100
    _assert_root_in_matches_bisection(pieces)


@pytest.mark.parametrize("kind", ("F", "H"))
def test_root_in_matches_bisection_on_kernel_circles(kind):
    pieces = [
        piece
        for gamma in range(25)
        for r in (0.3, 0.9, 0.99, 0.999)
        for piece in _isolated_pieces(_circle_bernstein(conjectured_kernel(gamma, kind), r))
    ]
    assert len(pieces) > 100
    _assert_root_in_matches_bisection(pieces)


@pytest.mark.parametrize("kernel", [F2, H2, conjectured_kernel(4, "F"), expansion_scale(-1, F0)])
def test_l1_norm_at_the_centre(kernel):
    # At r = 0 the q interval is the point 1 and K is constant on the circle.
    assert l1_norm(kernel, 0.0) == pytest.approx(abs(values_at(kernel, 0.0, [0.0])[0]), rel=1e-14)


@pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
def test_l1_norm_of_positive_f0_is_its_mean(r):
    assert l1_norm(F0, r) == pytest.approx(1.0, abs=1e-13)


def test_l1_norm_raises_where_the_rules_disagree(monkeypatch):
    # Noise at the nodes makes the 40- and 80-node sums differ.  H takes the
    # quadrature; F's norm is a closed form, which no node reaches.
    rng = np.random.default_rng(0)
    plain_values_at = biharm.numeric.values_at
    monkeypatch.setattr(
        biharm.numeric,
        "values_at",
        lambda kernel, r, thetas: plain_values_at(kernel, r, thetas) * (1 + 1e-6 * rng.standard_normal(len(thetas))),
    )
    with pytest.raises(QuadratureConvergenceError, match="differ"):
        l1_norm(H2, 0.9)


# F's L1 norm by an independent mpmath quadrature of its closed form between
# its zeros (ROADMAP.md, item 11).  With BIHARM_ACCEPT_EXTENDED=1, cells
# past the table join against f_l1_reference.
F_L1_TABLE = [
    (8, 0.9, 53.2256439178346),
    (24, 0.3, 85.0071656943848),
    (24, 0.99, 2977426.2530028),
    (80, 0.3, 113532925.149028),
    (80, 0.5, 10953323884609.0),
    (80, 0.9, 2.13741504550822e21),
]
F_L1_EXTENDED = [(120, 0.3, None), (160, 0.3, None), (160, 0.5, None)]


@pytest.mark.parametrize("gamma, r, want", F_L1_TABLE + (F_L1_EXTENDED if os.environ.get("BIHARM_ACCEPT_EXTENDED") else []))
def test_l1_norm_of_f_at_high_gamma(gamma, r, want):
    if want is None:
        want = f_l1_reference(gamma, r)
    assert l1_norm(conjectured_kernel(gamma, "F"), r) == pytest.approx(want, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("gamma", range(9))
def test_l1_norm_of_f_matches_the_oracle(gamma):
    kernel = conjectured_kernel(gamma, "F")
    for r in (0.1, 0.5, 0.9, 0.99, 0.999):
        assert l1_norm(kernel, r) == pytest.approx(l1_reference(kernel, r), rel=1e-12, abs=0.0), r


@pytest.mark.parametrize("gamma", [0, 3, 8, 24])
def test_l1_norm_of_built_f_is_the_closed_forms(gamma):
    built, closed = build(KernelSpec(gamma=gamma, kind="F")), conjectured_kernel(gamma, "F")
    for r in (0.0, 0.3, 0.9, 0.999):
        assert l1_norm(built, r) == l1_norm(closed, r), r


@pytest.mark.parametrize("gamma, r", [(48, 0.0325), (60, 0.03)])
def test_l1_norm_of_f_sums_in_mpmath_past_its_float_bound(gamma, r, monkeypatch):
    # Two zeros near theta = pi/2, a norm near 1 and |c| up to 1 + r: the
    # float rounding bound misses 1e-12 of the norm there.
    calls = []
    extended = biharm.numeric._f_l1_extended

    def record(*args):
        calls.append(args[:2])
        return extended(*args)

    monkeypatch.setattr(biharm.numeric, "_f_l1_extended", record)
    got = l1_norm(conjectured_kernel(gamma, "F"), r)
    assert calls == [(gamma, r)]
    assert got == pytest.approx(f_l1_reference(gamma, r), rel=1e-12, abs=0.0)


def test_l1_norm_of_f_raises_where_its_antiderivative_overflows():
    # |c|^(gamma+1) reaches 1.99^1101, past the float range.
    with pytest.raises(ValueError, match="overflows float64"):
        biharm.numeric._f_l1_norm(1100, 0.99)


QUADRATURE_L1_GOLDEN = json.loads((Path(__file__).parent / "golden" / "l1_quadrature.json").read_text())


@pytest.mark.parametrize("r", [0.3, 0.5, 0.9, 0.99])
def test_l1_norm_of_other_kernels_keeps_its_quadrature(r):
    # H and the sparse expansions take the quadrature as before, bit for bit:
    # the golden values are float.hex of what it returned before F's closed
    # form.
    kernels = {f"H_{gamma}": conjectured_kernel(gamma, "H") for gamma in range(9)}
    kernels.update((f"sparse_{i}", kernel) for i, kernel in enumerate(SPARSE_EXPANSIONS))
    for name, kernel in kernels.items():
        assert l1_norm(kernel, r).hex() == QUADRATURE_L1_GOLDEN[f"{name} {r}"], name


@pytest.mark.parametrize("gamma", range(25))
def test_integral_mean_of_f_is_exactly_one(gamma):
    kernel = build(KernelSpec(gamma=gamma, kind="F"))
    for r in (0.0, 0.3, 0.5, 0.9, 0.99, 0.999, 0.99999):
        assert integral_mean(kernel, r) == 1.0, r


# ---------------------------------------------------------------------------
# Dirichlet representation


def test_dirichlet_constant_derivative_data():
    # weight exponent 0, boundary value 0, normal derivative 1: the solution
    # is (1 - r^2)/2, radially symmetric.
    for r, theta in ((0.5, 1.0), (0.8, 2.5)):
        u = solve_dirichlet(0, {}, {0: 1.0}, DiscPoint(r=r, theta=theta))
        assert u == pytest.approx((1 - r * r) / 2, abs=1e-9)


def test_dirichlet_constant_value_data():
    # boundary value 1, derivative 0: the solution is identically 1.
    u = solve_dirichlet(2, {0: 1.0}, {}, DiscPoint(r=0.7, theta=1.3))
    assert u == pytest.approx(1.0, abs=1e-9)


def test_dirichlet_empty_data():
    assert solve_dirichlet(1, {}, {}, DiscPoint(r=0.5, theta=0.0)) == 0.0


def test_dirichlet_builds_no_kernel(monkeypatch):
    def no_build(spec):
        raise AssertionError(f"solve_dirichlet built {spec}")

    monkeypatch.setattr(biharm.builder, "build", no_build)
    p = DiscPoint(r=0.5, theta=0.3)
    assert solve_dirichlet(2, {0: 1.0, 3: 0.5}, {0: 1.0, -1: 0.2}, p) != 0.0
    assert solve_dirichlet(2, {}, {0: 1.0}, p) != 0.0


def _kernel_route_solve(gamma, f0, f1, p):
    """solve_dirichlet through the built kernels' multipliers."""
    s = Fraction(p.r) ** 2
    u = 0.0 + 0.0j
    for kernel, data in zip(build_pair(gamma), (f0, f1)):
        for n, c in data.items():
            multiplier = p.r ** abs(n) * float(_radial_factor(kernel, n, s))
            u += c * multiplier * cmath.exp(1j * n * p.theta)
    return float(u.real)


@pytest.mark.parametrize("gamma", [0, 2, 4, 8])
def test_dirichlet_is_bit_identical_to_kernel_route(gamma):
    rng = random.Random(100 + gamma)
    for _ in range(12):
        f0 = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in rng.sample(range(-6, 7), 4)}
        f1 = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in rng.sample(range(-6, 7), 3)}
        p = DiscPoint(r=rng.choice([0.0, 0.5, 0.9, 0.99, 0.999]), theta=rng.uniform(-math.pi, math.pi))
        assert solve_dirichlet(gamma, f0, f1, p) == _kernel_route_solve(gamma, f0, f1, p), (f0, f1, p)


def _fraction_route_solve(gamma, f0, f1, p):
    """solve_dirichlet through the Fraction oracle, operation for operation:
    one rounded multiplier per harmonic."""
    s = Fraction(p.r) ** 2
    u = 0.0 + 0.0j
    for kind, data in (("F", f0), ("H", f1)):
        for n, c in data.items():
            multiplier = p.r ** abs(n) * float(fraction_dirichlet_factor(gamma, kind, n, s))
            u += c * multiplier * cmath.exp(1j * n * p.theta)
    return float(u.real)


@pytest.mark.parametrize("gamma", [0, 3, 16])
def test_dirichlet_shares_multipliers_between_n_and_minus_n(gamma, monkeypatch):
    # n and -n carry different coefficients but one multiplier, computed
    # once per (kind, |n|); the sum equals a per-harmonic loop over the
    # Fraction oracle, operation for operation.
    f0 = {0: 0.5, 1: 0.25 + 0.5j, -1: -0.75, 3: 0.1j, -3: 0.3 - 0.2j, 4: 0.05}
    f1 = {0: 0.3, 2: 0.2j, -2: -0.6 + 0.1j, -5: 0.4}
    calls = []

    def counted(gamma, kind, n, m, d):
        calls.append((kind, n))
        return biharm.boundary.dirichlet_ratio(gamma, kind, n, m, d)

    monkeypatch.setattr(biharm.numeric, "dirichlet_ratio", counted)
    for r in (0.0, 0.5, 0.999):
        p = DiscPoint(r=r, theta=0.7)
        calls.clear()
        assert solve_dirichlet(gamma, f0, f1, p) == _fraction_route_solve(gamma, f0, f1, p), r
        assert sorted(calls) == [("F", 0), ("F", 1), ("F", 3), ("F", 4), ("H", 0), ("H", 2), ("H", 5)]


# gamma 80 joins with BIHARM_ACCEPT_EXTENDED=1, as in the extended sweep.
@pytest.mark.parametrize("gamma", [0, 8, 24] + ([80] if os.environ.get("BIHARM_ACCEPT_EXTENDED") else []))
def test_dirichlet_equals_fraction_route(gamma):
    # Each multiplier's numerator / denominator rounds as float() of its
    # Fraction, also at r = 0 and next to the boundary, for |n| up to 12.
    rng = random.Random(200 + gamma)
    f0 = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in range(-12, 13)}
    f1 = {n: complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for n in range(12, -13, -1)}
    for r in (0.0, 0.5, 0.999999, 1 - 2.0**-52):
        p = DiscPoint(r=r, theta=rng.uniform(-math.pi, math.pi))
        assert solve_dirichlet(gamma, f0, f1, p) == _fraction_route_solve(gamma, f0, f1, p), r


def test_dirichlet_table_cache_is_bounded_and_shared_by_f_and_h():
    cache = biharm.boundary._ode_table
    assert cache.cache_info().maxsize is not None
    s = Fraction(0.9) ** 2
    before = cache.cache_info()
    dirichlet_factor(13, "F", 7, s)
    middle = cache.cache_info()
    assert middle.hits + middle.misses == before.hits + before.misses + 1
    dirichlet_factor(13, "H", -7, s)
    after = cache.cache_info()
    assert (after.hits, after.misses) == (middle.hits + 1, middle.misses)


def test_dirichlet_validates_gamma_and_harmonics():
    p = DiscPoint(r=0.5, theta=0.3)
    for gamma in (-3, -1, 2.0, 2.5, "2", None, True, False):
        for f0 in ({}, {0: 1.0}):
            with pytest.raises(ValueError, match="gamma"):
                solve_dirichlet(gamma, f0, {}, p)
    for data in ({0.5: 1.0}, {1.0: 1.0}, {"1": 1.0}, {True: 1.0}):
        with pytest.raises(ValueError, match="harmonic"):
            solve_dirichlet(2, data, {}, p)
        with pytest.raises(ValueError, match="harmonic"):
            solve_dirichlet(2, {}, data, p)
    for data in ({1: float("nan")}, {0: float("inf")}, {-1: complex(0.5, float("nan"))}):
        with pytest.raises(ValueError, match="finite"):
            solve_dirichlet(2, data, {}, p)
        with pytest.raises(ValueError, match="finite"):
            solve_dirichlet(2, {}, data, p)


def test_dirichlet_near_the_boundary():
    u = solve_dirichlet(0, {0: 1.0}, {}, DiscPoint(r=0.99999, theta=0.3))
    assert u == pytest.approx(1.0, abs=1e-14)


def test_dirichlet_constant_value_data_at_high_gamma():
    u = solve_dirichlet(16, {0: 1.0}, {}, DiscPoint(r=0.99, theta=0.7))
    assert u == pytest.approx(1.0, abs=1e-14)
    u = solve_dirichlet(80, {0: 1.0}, {}, DiscPoint(r=0.99, theta=0.7))
    assert u == pytest.approx(1.0, abs=1e-14)


def test_dirichlet_cosine_data_converges_to_boundary():
    coeffs = {1: 0.5, -1: 0.5}  # cos theta
    errs = []
    for r in (0.9, 0.99):
        worst = 0.0
        for j in range(24):
            theta = 2.0 * math.pi * j / 24
            u = solve_dirichlet(1, coeffs, {}, DiscPoint(r=r, theta=theta))
            worst = max(worst, abs(u - math.cos(theta)))
        errs.append(worst)
    assert errs[1] < errs[0] / 5


def test_dirichlet_near_zero_of_solution():
    # cos-data solution vanishes at theta = pi/2: the harmonics +-1 must
    # cancel to the multipliers' rounding.
    u = solve_dirichlet(0, {1: 0.5, -1: 0.5}, {}, DiscPoint(r=0.9, theta=math.pi / 2))
    assert abs(u) < 1e-6


# ---------------------------------------------------------------------------
# finite-difference residuals


def test_fd_residual_second_order_decay():
    p = DiscPoint(r=0.4, theta=0.7)
    for kernel in (F2, H2):
        r1 = fd_biharmonic_residual(kernel, p, 1e-2)
        r2 = fd_biharmonic_residual(kernel, p, 5e-3)
        assert 3.0 < abs(r1) / abs(r2) < 5.0


def test_fd_residual_is_small_for_kernels():
    p = DiscPoint(r=0.3, theta=2.0)
    assert abs(fd_biharmonic_residual(F2, p, 1e-3)) < 1e-2


def test_fd_residual_stencil_domain_check():
    with pytest.raises(StencilOutOfDomainError):
        fd_biharmonic_residual(F2, DiscPoint(r=0.99, theta=0.0), 0.02)
