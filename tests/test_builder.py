"""Tests for the kernel builder: fixtures, invariants, and normalization."""

import random
from fractions import Fraction

import pytest

import biharm.builder
from biharm.boundary import BoundaryData, expansion_boundary
from biharm.builder import (
    KernelSpec,
    RawSolution,
    ansatz_grid,
    assemble_system,
    build,
    build_pair,
    build_raw,
    normalize_F,
    normalize_H,
    top_term,
)
from biharm.exact import solve_linear
from biharm.operators import biharmonic, expansion_add, expansion_scale
from kernel_fixtures import KNOWN_KERNELS

F = Fraction


# ---------------------------------------------------------------------------
# specs and grids


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(gamma=-1, kind="F")
    with pytest.raises(ValueError):
        KernelSpec(gamma=0, kind="G")


@pytest.mark.parametrize(
    "kind, gamma, expected",
    [("F", 0, (2, 3)), ("F", 2, (4, 7)), ("H", 0, (1, 2)), ("H", 2, (3, 6))],
)
def test_top_term(kind, gamma, expected):
    assert top_term(KernelSpec(gamma=gamma, kind=kind)) == expected


def test_ansatz_grid_ranges():
    # F's grid leaves out H's top monomial t^6 at band 3.
    grid = ansatz_grid(KernelSpec(gamma=2, kind="F"))
    assert grid == {1: [4], 2: [4, 5], 3: [5]}
    grid = ansatz_grid(KernelSpec(gamma=2, kind="H"))
    assert grid == {1: [4], 2: [4, 5]}


# ---------------------------------------------------------------------------
# linear system structure


def test_assemble_system_columns_sorted():
    spec = KernelSpec(gamma=3, kind="F")
    columns, system = assemble_system(spec, ansatz_grid(spec))
    assert columns == sorted(columns)
    assert system.ncols() == len(columns)


@pytest.mark.parametrize("gamma", range(0, 7))
def test_h_system_is_determined(gamma):
    spec = KernelSpec(gamma=gamma, kind="H")
    _, system = assemble_system(spec, ansatz_grid(spec))
    assert solve_linear(system) is not None


@pytest.mark.parametrize("gamma", range(0, 7))
def test_f_system_free_direction_is_h_top(gamma):
    # The F-type grid leaves out the leading monomial of the H kernel, the
    # one direction that would leave the F-type system undetermined: without
    # it the system solves uniquely, with it appended it does not.
    spec = KernelSpec(gamma=gamma, kind="F")
    grid = ansatz_grid(spec)
    assert solve_linear(assemble_system(spec, grid)[1]) is not None
    grid[gamma + 1].append(2 * gamma + 2)
    assert solve_linear(assemble_system(spec, grid)[1]) is None


# ---------------------------------------------------------------------------
# raw solutions


@pytest.mark.parametrize("kind", ("F", "H"))
def test_infeasible_system_fails_loudly(kind, monkeypatch):
    # No retry on another grid: an infeasible tight system is reported with
    # the gamma and kind it came from.
    monkeypatch.setattr(biharm.builder, "solve_linear", lambda system: None)
    with pytest.raises(RuntimeError, match=f"gamma=3, kind={kind}"):
        build_raw(KernelSpec(gamma=3, kind=kind))


def test_raw_h2_constants():
    raw = build_raw(KernelSpec(gamma=2, kind="H"))
    assert raw.expansion.terms == {
        1: {4: F(3)},
        2: {5: F(3), 4: F(-3, 2)},
        3: {6: F(1)},
    }
    assert raw.boundary == BoundaryData(a=F(0), b=F(6))


def test_raw_f2_constants():
    raw = build_raw(KernelSpec(gamma=2, kind="F"))
    assert raw.expansion.terms == {
        1: {4: F(-8)},
        2: {4: F(3, 2), 5: F(-6)},
        3: {5: F(-3)},
        4: {7: F(1)},
    }
    assert raw.boundary == BoundaryData(a=F(2), b=F(-18))


def test_raw_top_coefficient_is_one():
    for gamma in range(0, 6):
        for kind in ("F", "H"):
            spec = KernelSpec(gamma=gamma, kind=kind)
            beta0, k0 = top_term(spec)
            raw = build_raw(spec)
            assert raw.expansion.terms[beta0][k0] == 1


# ---------------------------------------------------------------------------
# normalized kernels vs. the published tables


@pytest.mark.parametrize("kind, gamma", sorted(KNOWN_KERNELS))
def test_build_matches_known_kernels(kind, gamma):
    kernel = build(KernelSpec(gamma=gamma, kind=kind))
    assert kernel.terms == KNOWN_KERNELS[kind, gamma]


# ---------------------------------------------------------------------------
# structural invariants of the built kernels


@pytest.mark.parametrize("gamma", range(0, 9))
@pytest.mark.parametrize("kind", ("F", "H"))
def test_built_kernel_invariants(kind, gamma):
    spec = KernelSpec(gamma=gamma, kind=kind)
    kernel = build(spec)
    beta0, _ = top_term(spec)

    # all bands 1..beta0 present, none beyond
    assert sorted(kernel.terms) == list(range(1, beta0 + 1))

    # generic-composition check, independent of the rule path used internally
    assert not biharmonic(kernel)

    # exact boundary data
    expected = BoundaryData(F(1), F(0)) if kind == "F" else BoundaryData(F(0), F(1))
    assert expansion_boundary(kernel) == expected

    # exponent support within the tight grid
    offset = 1 if kind == "F" else 0
    for beta, poly in kernel.terms.items():
        lo = max(2 * beta - offset, gamma + 2)
        hi = beta + gamma + 1
        assert all(lo <= k <= hi for k in poly), (beta, sorted(poly))


@pytest.mark.parametrize("gamma", range(0, 9))
def test_f_kernel_values_at_origin(gamma):
    # 2 f_beta at x = 0 (t = 1): 1 at the first and top bands, 0 between.
    kernel = build(KernelSpec(gamma=gamma, kind="F"))
    beta0 = gamma + 2
    for beta, poly in kernel.terms.items():
        value = 2 * sum(poly.values())
        assert value == (1 if beta in (1, beta0) else 0), beta


@pytest.mark.parametrize("gamma", range(0, 9))
def test_h_kernel_values_at_origin(gamma):
    # 2 beta h_beta at x = 0 equals 1 for every band.
    kernel = build(KernelSpec(gamma=gamma, kind="H"))
    for beta, poly in kernel.terms.items():
        assert 2 * beta * sum(poly.values()) == 1, beta


# ---------------------------------------------------------------------------
# normalization


@pytest.mark.parametrize("gamma", range(0, 9))
def test_build_pair_matches_build(gamma):
    assert build_pair(gamma) == (
        build(KernelSpec(gamma=gamma, kind="F")),
        build(KernelSpec(gamma=gamma, kind="H")),
    )


def test_normalize_h_rejects_wrong_boundary():
    raw_f = build_raw(KernelSpec(gamma=2, kind="F"))
    with pytest.raises(ValueError):
        normalize_H(raw_f)


def test_normalize_f_requires_unit_h():
    raw_f = build_raw(KernelSpec(gamma=2, kind="F"))
    bad_h = build_raw(KernelSpec(gamma=2, kind="H")).expansion  # boundary (0, 6)
    with pytest.raises(ValueError):
        normalize_F(raw_f, bad_h)


@pytest.mark.parametrize("gamma", range(0, 6))
def test_normalized_f_independent_of_free_direction(gamma):
    # Shifting the raw F solution along the raw H solution (the direction the
    # F grid leaves out) changes the raw boundary data but not the
    # normalized kernel.
    spec = KernelSpec(gamma=gamma, kind="F")
    raw_f = build_raw(spec)
    raw_h = build_raw(KernelSpec(gamma=gamma, kind="H"))
    h = normalize_H(raw_h)
    reference = build(spec)
    rng = random.Random(3000 + gamma)
    for _ in range(3):
        c = F(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice((1, -1))
        shifted = expansion_add(raw_f.expansion, expansion_scale(c, raw_h.expansion))
        assert not biharmonic(shifted)
        raw = RawSolution(expansion=shifted, boundary=expansion_boundary(shifted))
        assert raw.boundary != raw_f.boundary  # genuinely different raw
        assert normalize_F(raw, h).terms == reference.terms
