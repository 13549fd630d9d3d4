"""Tests for the closed-form coefficient scheme and its verification."""

import math
import os
from fractions import Fraction

import pytest

import biharm.builder
import biharm.conjecture
from biharm.boundary import expansion_boundary
from biharm.builder import KernelSpec, build, build_pair, grid_geometry
from biharm.conjecture import (
    ab_form,
    certified_ab_form,
    checked_kernel,
    conjectured_kernel,
    solve_ck,
    verify_conjecture,
)
from biharm.operators import biharmonic, make_expansion
from biharm.exact import binom
from exact_references import dict_route_kernel

F = Fraction


# ---------------------------------------------------------------------------
# the c_k coefficients


@pytest.mark.parametrize(
    "gamma, kind, expected",
    [
        (0, "F", (1,)),
        (0, "H", (1,)),
        (1, "F", (1, -2)),
        (1, "H", (1,)),
        (2, "F", (1, -3)),
        (2, "H", (1, -1)),
        (3, "F", (1, -4, 2)),
        (4, "F", (1, -5, 5)),
        (4, "H", (1, -3, 1)),
        (8, "F", (1, -9, 27, -30, 9)),
        (8, "H", (1, -7, 15, -10, 1)),
    ],
)
def test_solve_ck_small_values(gamma, kind, expected):
    assert solve_ck(gamma, kind) == tuple(F(v) for v in expected)


def test_ab_form_small_values():
    # H_2 = t^4 u / 6 (1 + a + b + a^2 + b^2 + a b / 2): the weights w_ij,
    # p_(2,0) = p_(1,0) = 1/3 and (p_(0,1), p_(0,0)) = (1/12, 1/6), over 12.
    h2 = ab_form(2, "H")
    assert h2.rows == ((2, 2, (4,)), (1, 3, (4,)), (0, 2, (1, 2)))
    assert (h2.scale, h2.l_max) == (12, 1)
    assert h2.floats == ((2, 2, (1 / 3,)), (1, 3, (1 / 3,)), (0, 2, (1 / 12, 1 / 6)))
    h0 = ab_form(0, "H")
    assert (h0.rows, h0.scale, h0.floats) == (((0, 2, (1,)),), 2, ((0, 2, (0.5,)),))
    f3 = ab_form(3, "F")
    assert (f3.rows, f3.scale, f3.l_max) == (((4, 1, (1,)),), 1, 0)


def _displayed_ab_rows(gamma, kind):
    """The rows of ab_form(gamma, kind) in Fractions, from the displayed
    p_(d,l) = eps_d C(gamma-d-l, l) / (2 (gamma+1) C(gamma, l)) for H."""
    if kind == "F":
        return [(gamma + 1, 1, (F(1),))]
    rows = []
    for d in range(gamma, -1, -1):
        top = (gamma - d) // 2
        ps = tuple(
            F((2 if d else 1) * binom(gamma - d - l, l), 2 * (gamma + 1) * binom(gamma, l)) for l in range(top, -1, -1)
        )
        rows.append((d, gamma + 2 - d - 2 * top, ps))
    return rows


def test_ab_form_is_canonical():
    # Ints over a scale >= 1 that shares no factor with all of them, their
    # floats int / scale bit for bit, and the displayed p_(d,l).  gamma 0..40,
    # 0..80 with BIHARM_ACCEPT_EXTENDED=1 (H_80 has 1681 coefficients).
    gamma_max = 80 if os.environ.get("BIHARM_ACCEPT_EXTENDED") else 40
    for gamma in range(gamma_max + 1):
        for kind in ("F", "H"):
            form = ab_form(gamma, kind)
            ints = [p for _, _, ps in form.rows for p in ps]
            assert form.scale >= 1 and math.gcd(form.scale, *ints) == 1, (gamma, kind)
            assert all(type(p) is int for p in ints), (gamma, kind)
            assert [row[:2] for row in form.floats] == [row[:2] for row in form.rows]
            floats = [x.hex() for _, _, xs in form.floats for x in xs]
            assert floats == [float(F(p, form.scale)).hex() for p in ints], (gamma, kind)
            got = [(d, base, tuple(F(p, form.scale) for p in ps)) for d, base, ps in form.rows]
            assert got == _displayed_ab_rows(gamma, kind), (gamma, kind)
            assert form.l_max == max(len(ps) for _, _, ps in form.rows) - 1


def test_certified_ab_form_follows_the_top_band():
    f5, h5 = build_pair(5)  # stored in another order than the closed form
    assert certified_ab_form(f5) == ab_form(5, "F")
    assert certified_ab_form(h5) == ab_form(5, "H")
    # H's bands under F's top band: F's form is tried, and does not expand to it.
    assert certified_ab_form(make_expansion(5, {**h5.terms, 7: f5.terms[7]})) is None


def test_certification_builds_the_form_once(monkeypatch):
    # The form that is expanded and compared is the one returned: ab_form
    # runs once per certification, and once for a kernel it does not
    # certify.
    calls = []

    def counted(gamma, kind):
        calls.append((gamma, kind))
        return ab_form(gamma, kind)

    monkeypatch.setattr(biharm.conjecture, "ab_form", counted)
    f5, h5 = build_pair(5)
    for kind, kernel in (("F", f5), ("H", h5)):
        calls.clear()
        assert certified_ab_form(kernel) == ab_form(5, kind)
        assert calls == [(5, kind)]
    calls.clear()
    assert certified_ab_form(make_expansion(5, {**h5.terms, 7: f5.terms[7]})) is None
    assert calls == [(5, "F")]


def test_solve_ck_rejects_bad_kind():
    with pytest.raises(ValueError):
        solve_ck(3, "G")


@pytest.mark.parametrize("gamma", [True, False, 2.5, 2.0, "2", None, -1])
@pytest.mark.parametrize("kind", ("F", "H"))
def test_closed_form_gamma_is_a_nonnegative_int(gamma, kind):
    for make in (solve_ck, conjectured_kernel):
        with pytest.raises(ValueError, match="gamma must be an int >= 0"):
            make(gamma, kind)


def test_solve_ck_count():
    for gamma in range(0, 20):
        assert len(solve_ck(gamma, "F")) == (gamma + 1) // 2 + 1
        assert len(solve_ck(gamma, "H")) == gamma // 2 + 1


def test_solve_ck_satisfies_defining_relations():
    # F: the relations are sum_k c_k C(gamma+1-2k, j-k) = 0 for j >= 1
    # (interior bands vanish at x = 0); H: the same sums against rows
    # C(gamma-2k, .) equal 1 (every band value 2 beta h_beta(0) = 1).
    # The relations are unit-diagonal, so they fix the c_k uniquely.
    for gamma in range(0, 201):
        for kind, row_top, target in (("F", gamma + 1, 0), ("H", gamma, 1)):
            c = solve_ck(gamma, kind)
            # Integer relations with a unit diagonal and c_0 = 1 force
            # integer c_k, which solve_ck returns as ints.
            assert all(type(v) is int for v in c), (gamma, kind)
            assert c[0] == 1 and len(c) == row_top // 2 + 1, (gamma, kind)
            for j in range(1, len(c)):
                total = sum(c[k] * binom(row_top - 2 * k, j - k) for k in range(j + 1))
                assert total == target, (gamma, kind, j)


def test_solve_ck_nonzero():
    for gamma in range(0, 41):
        for kind in ("F", "H"):
            assert all(v != 0 for v in solve_ck(gamma, kind)), (gamma, kind)


# ---------------------------------------------------------------------------
# F in the coordinates a = 1/(1 - z), b = conj(a)


def _s_power(m):
    """s^m = (a + b - 1)^m as {(i, j): int coefficient of a^i b^j}, by the
    trinomial theorem."""
    return {
        (i, j): binom(m, i) * binom(m - i, j) * (-1) ** (m - i - j)
        for i in range(m + 1)
        for j in range(m - i + 1)
    }


def _add(poly, key, c):
    poly[key] = poly.get(key, 0) + c


def _f_identity_holds(gamma, s_exp, n_exp):
    """Whether (a b)^gamma D(2F) == n (n + 1) s^gamma (a^(n+1) (1 - a) +
    b^(n+1) (1 - b)), n = gamma + 1, as Laurent polynomials in a and b with
    int coefficients, for 2F = s^s_exp (a^-n_exp + b^-n_exp).  F itself has
    s_exp = gamma + 2 and n_exp = gamma + 1.

    D = a^2 b^2 d_a d_b sends a^i b^j to i j a^(i+1) b^(j+1), and
    w = t^gamma = s^gamma / (a b)^gamma, so the identity is
    w^-1 D F = n (n + 1) / 2 (a^(n+1) (1 - a) + b^(n+1) (1 - b)) times
    2 s^gamma.
    """
    n = gamma + 1
    two_f = {}
    for (i, j), c in _s_power(s_exp).items():
        _add(two_f, (i - n_exp, j), c)
        _add(two_f, (i, j - n_exp), c)
    lhs = {}
    for (i, j), c in two_f.items():
        _add(lhs, (i + 1 + gamma, j + 1 + gamma), i * j * c)
    rhs = {}
    for (i, j), c in _s_power(gamma).items():
        c *= n * (n + 1)
        for shift, sign in ((n + 1, 1), (n + 2, -1)):
            _add(rhs, (i + shift, j), sign * c)
            _add(rhs, (i, j + shift), sign * c)

    def nonzero(poly):
        return {key: c for key, c in poly.items() if c}

    return nonzero(lhs) == nonzero(rhs)


@pytest.mark.parametrize("gamma", list(range(41)) + [60, 80, 100, 120, 160, 200])
def test_w_inverse_laplacian_of_f_is_harmonic(gamma):
    # The right-hand side has no mixed monomial a^i b^j, i != 0 != j, so
    # D w^-1 D F = 0: F is biharmonic-zero at every gamma, not only where
    # the builder checks it.
    assert _f_identity_holds(gamma, gamma + 2, gamma + 1)


@pytest.mark.parametrize("s_exp, n_exp", [(8, 6), (7, 7), (6, 6)])
def test_f_identity_fails_for_a_wrong_exponent(s_exp, n_exp):
    # gamma 5: F is s^7 (a^-6 + b^-6) / 2; one exponent off breaks it.
    assert _f_identity_holds(5, 7, 6)
    assert not _f_identity_holds(5, s_exp, n_exp)


# ---------------------------------------------------------------------------
# closed-form kernels vs. the builder


@pytest.mark.parametrize("gamma", range(0, 11))
@pytest.mark.parametrize("kind", ("F", "H"))
def test_conjectured_kernel_matches_builder(kind, gamma):
    assert conjectured_kernel(gamma, kind).terms == build(
        KernelSpec(gamma=gamma, kind=kind)
    ).terms


def test_closed_form_bands_match_the_dict_route():
    # The bands laid out from their Pascal columns are the kernel that one
    # binom call per entry and make_expansion give, down to repr: gamma
    # <= 40 by default, <= 200 with BIHARM_ACCEPT_EXTENDED=1.
    gamma_max = 200 if os.environ.get("BIHARM_ACCEPT_EXTENDED") else 40
    for gamma in range(gamma_max + 1):
        for kind in ("F", "H"):
            banded, reference = conjectured_kernel(gamma, kind), dict_route_kernel(gamma, kind)
            assert banded == reference, (gamma, kind)
            assert repr(banded) == repr(reference), (gamma, kind)


@pytest.mark.parametrize("gamma", range(0, 13))
def test_f_coefficient_table_is_palindromic(gamma):
    # Band beta and band gamma+3-beta of F carry identical coefficient
    # sequences when read by column offset — C(n, r) = C(n, n-r) in action.
    kernel = build(KernelSpec(gamma=gamma, kind="F"))
    beta0 = gamma + 2
    for beta in range(1, beta0 + 1):
        mirror = beta0 + 1 - beta
        poly, mpoly = kernel.terms[beta], kernel.terms[mirror]
        offsets = {beta + gamma + 1 - e for e in poly}
        assert offsets == {mirror + gamma + 1 - e for e in mpoly}
        for k in offsets:
            assert poly[beta + gamma + 1 - k] == mpoly[mirror + gamma + 1 - k]


# ---------------------------------------------------------------------------
# column structure


@pytest.mark.parametrize("gamma", range(0, 9))
@pytest.mark.parametrize("kind", ("F", "H"))
def test_pascal_columns_accepts_built_kernels(kind, gamma):
    # Column k of the built kernel's table, the coefficients of
    # t^(beta+gamma+1-k) in 2 f_beta (F) or 2 beta h_beta (H) across beta,
    # is the Pascal row C(row(k), beta-1-k) scaled by its own entry at
    # beta = k + 1.  The scales are read off the kernel, not taken from
    # solve_ck, and no monomial falls below a band's grid floor.
    kernel = build(KernelSpec(gamma=gamma, kind=kind))
    row_top = gamma + 1 if kind == "F" else gamma

    def entry(beta, k):
        scale = 2 if kind == "F" else 2 * beta
        return scale * kernel.terms.get(beta, {}).get(beta + gamma + 1 - k, 0)

    _, floor = grid_geometry(gamma, kind)
    assert entry(1, 0) == 1
    for beta, lo in floor.items():
        assert min(kernel.terms[beta]) >= lo
        for k in range(beta + gamma + 2 - lo):
            assert entry(beta, k) == entry(k + 1, k) * binom(row_top - 2 * k, beta - 1 - k)


# ---------------------------------------------------------------------------
# the combined verdict


@pytest.mark.parametrize("gamma", range(0, 9))
def test_verify_conjecture_passes(gamma):
    verdict = verify_conjecture(gamma)
    assert verdict.gamma == gamma
    assert verdict.all_passed
    assert verdict.failures() == ()
    assert {(e.kind, e.check) for e in verdict.entries} == {
        (kind, check)
        for kind in ("F", "H")
        for check in ("biharmonic-zero", "boundary-exact", "matches-builder")
    }


def test_verify_runs_biharmonic_once_per_built_kernel(monkeypatch):
    # Where the closed form == the built kernel, its biharmonic-zero verdict
    # is the builder's own check: two biharmonic calls per gamma, not four.
    calls = []

    def counted(u):
        calls.append((u.gamma, u.max_beta()))
        return biharmonic(u)

    monkeypatch.setattr(biharm.builder, "biharmonic", counted)
    for gamma in (0, 3, 6):
        calls.clear()
        assert verify_conjecture(gamma).all_passed
        assert len(calls) == 2, (gamma, calls)


@pytest.mark.parametrize("on_boundary", [True, False])
def test_verify_checks_a_perturbed_closed_form_itself(on_boundary, monkeypatch):
    # One coefficient of F_4's closed form changed: on a term that carries
    # boundary data (k = 2 beta - 1) or on one above it.  matches-builder
    # fails, and the other two verdicts are those of the perturbed kernel.
    gamma = 4
    kernel = conjectured_kernel(gamma, "F")
    beta, k = next(
        (beta, k)
        for beta, poly in kernel.terms.items()
        for k in poly
        if (k == 2 * beta - 1 if on_boundary else k > 2 * beta)
    )
    terms = {b: dict(poly) for b, poly in kernel.terms.items()}
    terms[beta][k] += Fraction(1, 7)
    perturbed = make_expansion(gamma, terms)
    closed = conjectured_kernel

    monkeypatch.setattr(
        biharm.conjecture, "conjectured_kernel", lambda g, kind: perturbed if kind == "F" else closed(g, kind)
    )
    bd = expansion_boundary(perturbed)
    zero, exact = not biharmonic(perturbed), (bd.a, bd.b) == (1, 0)
    assert not zero and exact != on_boundary
    verdict = {(e.kind, e.check): e.passed for e in verify_conjecture(gamma).entries}
    assert verdict == {
        ("F", "biharmonic-zero"): zero,
        ("F", "boundary-exact"): exact,
        ("F", "matches-builder"): False,
        ("H", "biharmonic-zero"): True,
        ("H", "boundary-exact"): True,
        ("H", "matches-builder"): True,
    }


# ---------------------------------------------------------------------------
# the checked closed form


@pytest.mark.parametrize("gamma", [0, 1, 2, 5, 8, 13, 24])
@pytest.mark.parametrize("kind", ("F", "H"))
def test_checked_kernel_is_the_built_kernel(kind, gamma):
    # == and alike down to repr, so a float sum over the terms runs in the
    # same order whichever of the two a caller holds.
    kernel = checked_kernel(gamma, kind)
    assert repr(kernel) == repr(build(KernelSpec(gamma=gamma, kind=kind)))
    # Its one form: the scale shares no factor with all the integers, and
    # each band's ends are nonzero.
    assert math.gcd(kernel.scale, *(c for _, _, coeffs in kernel.bands for c in coeffs)) == 1
    assert all(coeffs[0] and coeffs[-1] for _, _, coeffs in kernel.bands)


@pytest.mark.parametrize("on_boundary, failed", [(True, "biharmonic-zero and boundary-exact"), (False, "biharmonic-zero")])
def test_checked_kernel_refuses_a_perturbed_closed_form(on_boundary, failed, monkeypatch):
    # H_5's closed form with one coefficient changed, on a term that carries
    # boundary data (k = 2 beta) or on one above it.
    closed = conjectured_kernel(5, "H")
    beta, k = next(
        (beta, k)
        for beta, poly in closed.terms.items()
        for k in poly
        if (k == 2 * beta if on_boundary else k > 2 * beta)
    )
    terms = {b: dict(poly) for b, poly in closed.terms.items()}
    terms[beta][k] += Fraction(1, 7)
    monkeypatch.setattr(biharm.conjecture, "conjectured_kernel", lambda g, kind: make_expansion(g, terms))
    with pytest.raises(RuntimeError, match=rf"closed form fails {failed} \(gamma=5, kind=H\)"):
        checked_kernel(5, "H")
