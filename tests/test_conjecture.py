"""Tests for the closed-form coefficient scheme and its verification."""

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
    # H_2 = t^4 u / 6 (1 + a + b + a^2 + b^2 + a b / 2): the weights w_ij.
    assert ab_form(2, "H") == {0: (F(1, 6), F(1, 12)), 1: (F(1, 3),), 2: (F(1, 3),)}
    assert ab_form(0, "H") == {0: (F(1, 2),)}
    assert ab_form(3, "F") == {4: (F(1),)}


def test_certified_ab_form_follows_the_top_band():
    f5, h5 = build_pair(5)  # stored in another order than the closed form
    assert certified_ab_form(f5) == ab_form(5, "F")
    assert certified_ab_form(h5) == ab_form(5, "H")
    # H's bands under F's top band: F's form is tried, and does not expand to it.
    assert certified_ab_form(make_expansion(5, {**h5.terms, 7: f5.terms[7]})) is None


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
            # integer c_k, so the sums can run in ints.
            assert all(v.denominator == 1 for v in c), (gamma, kind)
            c = [v.numerator for v in c]
            assert c[0] == 1 and len(c) == row_top // 2 + 1, (gamma, kind)
            for j in range(1, len(c)):
                total = sum(c[k] * binom(row_top - 2 * k, j - k) for k in range(j + 1))
                assert total == target, (gamma, kind, j)


def test_solve_ck_nonzero():
    for gamma in range(0, 41):
        for kind in ("F", "H"):
            assert all(v != 0 for v in solve_ck(gamma, kind)), (gamma, kind)


# ---------------------------------------------------------------------------
# closed-form kernels vs. the builder


@pytest.mark.parametrize("gamma", range(0, 11))
@pytest.mark.parametrize("kind", ("F", "H"))
def test_conjectured_kernel_matches_builder(kind, gamma):
    assert conjectured_kernel(gamma, kind).terms == build(
        KernelSpec(gamma=gamma, kind=kind)
    ).terms


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
