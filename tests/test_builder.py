"""Tests for the kernel builder: grids, systems, fixtures and invariants."""

import random
from fractions import Fraction

import pytest

import biharm.builder
import biharm.operators
from biharm.boundary import BoundaryData, expansion_boundary
from biharm.builder import (
    BOUNDARY_TARGETS,
    KernelSpec,
    ansatz_grid,
    assemble_system,
    build,
    build_pair,
    grid_geometry,
)
from biharm.exact import RationalLinearSystem, solve_linear
from biharm.operators import biharmonic
from exact_references import (
    builder_system,
    dict_image_system,
    expansion_add,
    expansion_scale,
    solved_expansions,
)
from kernel_fixtures import KNOWN_KERNELS, RAW_F2, RAW_H2

F = Fraction

# Positions of the boundary rows at the end of every builder system.
A_ROW, B_ROW = -2, -1


# ---------------------------------------------------------------------------
# specs and grids


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        KernelSpec(gamma=-1, kind="F")
    with pytest.raises(ValueError):
        KernelSpec(gamma=0, kind="G")


@pytest.mark.parametrize("gamma", [True, False, 2.5, 2.0, "2", "3", None, -1])
def test_kernel_spec_gamma_is_a_nonnegative_int(gamma):
    # build_pair takes a bare gamma, not a KernelSpec, and checks it alike.
    for make in (lambda g: KernelSpec(gamma=g, kind="H"), build_pair):
        with pytest.raises(ValueError, match="gamma must be an int >= 0"):
            make(gamma)


@pytest.mark.parametrize(
    "kind, gamma, expected",
    [("F", 0, (2, 3)), ("F", 2, (4, 7)), ("H", 0, (1, 2)), ("H", 2, (3, 6))],
)
def test_top_term(kind, gamma, expected):
    # The grid's top band is the single monomial t^floor[beta_0].
    beta0, floor = grid_geometry(gamma, kind)
    assert (beta0, floor[beta0]) == expected
    assert ansatz_grid(KernelSpec(gamma=gamma, kind=kind))[beta0] == [expected[1]]


def test_ansatz_grid_ranges():
    # The whole tight grid, top band included; F's holds H's top monomial
    # t^6 at band 3.
    grid = ansatz_grid(KernelSpec(gamma=2, kind="F"))
    assert grid == {1: [4], 2: [4, 5], 3: [5, 6], 4: [7]}
    grid = ansatz_grid(KernelSpec(gamma=2, kind="H"))
    assert grid == {1: [4], 2: [4, 5], 3: [6]}


# ---------------------------------------------------------------------------
# linear system structure


def diagonal(column):
    """The grid diagonal 2 beta - k of column (beta, k)."""
    beta, k = column
    return 2 * beta - k


def test_assemble_system_columns_in_diagonal_order():
    spec = KernelSpec(gamma=3, kind="F")
    grid = ansatz_grid(spec)
    columns, system = assemble_system(spec.gamma, grid, (BOUNDARY_TARGETS["F"],))
    assert columns == sorted(columns, key=lambda col: (diagonal(col), col[0]))
    assert sorted(columns) == [(beta, k) for beta, ks in grid.items() for k in ks]
    assert system.ncols() == len(columns)


@pytest.mark.parametrize("kind", ["F", "H"])
@pytest.mark.parametrize("gamma", range(0, 13))
def test_assemble_system_groups_columns_by_diagonal(kind, gamma):
    # The columns, grouped by diagonal and by beta within one, are the
    # grid's (beta, k) sorted by (2 beta - k, beta).
    grid = ansatz_grid(KernelSpec(gamma=gamma, kind=kind))
    columns, _ = assemble_system(gamma, grid, (BOUNDARY_TARGETS[kind],))
    expected = sorted(((beta, k) for beta, ks in grid.items() for k in ks), key=lambda c: (2 * c[0] - c[1], c[0]))
    assert columns == expected


@pytest.mark.parametrize("kind", ["F", "H"])
@pytest.mark.parametrize("gamma", range(0, 13))
def test_system_is_banded_along_grid_diagonals(kind, gamma):
    # A column on diagonal d reaches image rows (band b, exponent e) on the
    # diagonals 2b - e = d + gamma + 2 .. d + gamma + 4 only, so an image
    # row holds columns of at most three neighbouring diagonals, and in
    # diagonal order the system is block-banded.  The boundary rows hold
    # only the diagonals 0 and 1 (k = 2 beta and k = 2 beta - 1).
    spec = KernelSpec(gamma=gamma, kind=kind)
    columns, system = builder_system(spec)
    for column in columns:
        for band, img in biharm.operators.monomial_image(gamma, *column).items():
            for e in img:
                assert 2 * band - e - diagonal(column) in (gamma + 2, gamma + 3, gamma + 4)
    for row, _ in system.rows[:A_ROW]:
        diagonals = {diagonal(columns[j]) for j in row}
        assert max(diagonals) - min(diagonals) <= 2
    for row, _ in system.rows[A_ROW:]:
        assert {diagonal(columns[j]) for j in row} <= {0, 1}


@pytest.mark.parametrize("gamma", range(0, 13))
def test_assemble_system_rows_match_the_dict_image(gamma):
    # The builder reads monomial_terms' flat entries straight into its rows;
    # an assembly from the dict view monomial_image gives the same columns
    # and the same rows in the same order, on F's grid with both targets.
    grid = ansatz_grid(KernelSpec(gamma=gamma, kind="F"))
    targets = (BOUNDARY_TARGETS["F"], BOUNDARY_TARGETS["H"])
    columns, system = assemble_system(gamma, grid, targets)
    ref_columns, ref_system = dict_image_system(gamma, grid, targets)
    assert columns == ref_columns
    assert system.rows == ref_system.rows
    assert system.unknowns == ref_system.unknowns


@pytest.mark.parametrize(
    "kind, a_row, b_row",
    [
        ("F", {(3, 5): 6, (4, 7): 20}, {(2, 4): 4, (3, 5): -12, (3, 6): 12, (4, 7): -60}),
        ("H", {}, {(2, 4): 4, (3, 6): 12}),
    ],
)
def test_assemble_system_boundary_rows(kind, a_row, b_row):
    # Image rows are homogeneous; the last two rows are a and b at gamma 2,
    # with c = C(2 beta - 2, beta - 1): (c, -(beta - 1) c) at k = 2 beta - 1
    # and (0, 2 c) at k = 2 beta.  H's grid has no t^(2 beta - 1) term, so
    # its a-row is empty.  Each target (a, b) is one right-hand side: the
    # a-row carries the targets' a, the b-row their b.
    spec = KernelSpec(gamma=2, kind=kind)
    for targets in (((1, 0),) if kind == "F" else ((0, 1),), ((1, 0), (0, 1), (3, -5))):
        columns, system = builder_system(spec, targets)
        assert all(b == (0,) * len(targets) for _, b in system.rows[:A_ROW])
        labelled = [({columns[j]: c for j, c in row.items()}, b) for row, b in system.rows[A_ROW:]]
        assert labelled == list(zip((a_row, b_row), zip(*targets)))


@pytest.mark.parametrize("gamma", range(0, 7))
def test_h_system_is_determined(gamma):
    spec = KernelSpec(gamma=gamma, kind="H")
    _, system = builder_system(spec)
    assert solve_linear(system) is not None


@pytest.mark.parametrize("gamma", range(0, 9))
def test_f_system_free_direction_is_h_top(gamma):
    # The image rows leave the span of F and H free.  F's grid holds H's
    # top monomial t^(2 gamma + 2) at band gamma + 1, so the boundary rows
    # are what make each system unique: without F's b-row, F's system is
    # free along H; without its a-row, along F; without H's b-row, H's
    # homogeneous system has H as a free direction.
    f_spec, h_spec = KernelSpec(gamma=gamma, kind="F"), KernelSpec(gamma=gamma, kind="H")
    assert (gamma + 1, 2 * gamma + 2) in builder_system(f_spec)[0]
    for spec in (f_spec, h_spec):
        assert solve_linear(builder_system(spec)[1]) is not None
    assert solve_linear(builder_system(f_spec, drop=A_ROW)[1]) is None
    assert solve_linear(builder_system(f_spec, drop=B_ROW)[1]) is None
    assert solve_linear(builder_system(h_spec, drop=B_ROW)[1]) is None


@pytest.mark.parametrize("gamma", range(0, 6))
def test_normalized_f_independent_of_free_direction(gamma):
    # Moving F's b target to c moves the solution along H by exactly c·H:
    # what the boundary rows select is F + c·H, so the F they select with
    # c = 0 does not depend on the free direction.  c = 1 gives F + H, and
    # the target (0, 1) on F's grid gives H.  All right-hand sides go
    # through one solve.
    spec = KernelSpec(gamma=gamma, kind="F")
    f, h = build(spec), build(KernelSpec(gamma=gamma, kind="H"))
    rng = random.Random(3000 + gamma)
    shifts = [1] + [rng.randint(2, 99) * rng.choice((1, -1)) for _ in range(3)]
    targets = [(1, 0), (0, 1)] + [(1, c) for c in shifts]
    solved = solved_expansions(spec, *builder_system(spec, targets))
    assert solved[:2] == [f, h]
    for c, shifted in zip(shifts, solved[2:]):
        assert shifted == expansion_add(f, expansion_scale(c, h))
        assert expansion_add(shifted, expansion_scale(-c, h)) == f


# ---------------------------------------------------------------------------
# one solve per kernel, checked against every row


@pytest.mark.parametrize("kind", ("F", "H"))
def test_infeasible_system_fails_loudly(kind, monkeypatch):
    # No retry on another grid: an infeasible tight system is reported with
    # the gamma and kind it came from.
    monkeypatch.setattr(biharm.builder, "solve_linear", lambda system: None)
    with pytest.raises(RuntimeError, match=f"gamma=3, kind={kind}\\)"):
        build(KernelSpec(gamma=3, kind=kind))


def test_infeasible_pair_system_fails_loudly(monkeypatch):
    monkeypatch.setattr(biharm.builder, "solve_linear", lambda system: None)
    with pytest.raises(RuntimeError, match="no unique.*gamma=3, kind=F and H"):
        build_pair(3)


@pytest.mark.parametrize("kind", ("F", "H"))
def test_build_solves_once(kind, monkeypatch):
    # One solve on F's grid, 12 unknowns at gamma 4 for either kind, with
    # the kind's own boundary target as the one right-hand side.
    calls = []

    def counted(system):
        calls.append(system)
        return solve_linear(system)

    monkeypatch.setattr(biharm.builder, "solve_linear", counted)
    assert build(KernelSpec(gamma=4, kind=kind)).terms == KNOWN_KERNELS[kind, 4]
    assert len(calls) == 1
    (system,) = calls
    assert system.ncols() == sum(map(len, ansatz_grid(KernelSpec(gamma=4, kind="F")).values())) == 12
    assert all(b in ((0,), (1,)) for _, b in system.rows)
    assert [b for _, b in system.rows[A_ROW:]] == [(a,) for a in BOUNDARY_TARGETS[kind]]


def test_build_pair_solves_once(monkeypatch):
    # One elimination on F's grid carries both boundary right-hand sides,
    # (1, 0) for F and (0, 1) for H.
    calls = []

    def counted(system):
        calls.append(system)
        return solve_linear(system)

    monkeypatch.setattr(biharm.builder, "solve_linear", counted)
    f, h = build_pair(4)
    assert (f.terms, h.terms) == (KNOWN_KERNELS["F", 4], KNOWN_KERNELS["H", 4])
    assert len(calls) == 1
    (system,) = calls
    assert system.ncols() == sum(map(len, ansatz_grid(KernelSpec(gamma=4, kind="F")).values()))
    assert all(len(b) == 2 for _, b in system.rows)
    assert [b for _, b in system.rows[A_ROW:]] == [(1, 0), (0, 1)]


@pytest.mark.parametrize("index, kind", ((0, "F"), (1, "H")))
def test_build_pair_checks_each_kernel(index, kind, monkeypatch):
    # Each kernel of the pair gets build's checks: doubling one solution
    # misses that kernel's boundary pair, and the error names its kind.
    def doubled(system):
        solutions = list(solve_linear(system))
        values, scale = solutions[index]
        solutions[index] = (tuple(2 * v for v in values), scale)
        return tuple(solutions)

    monkeypatch.setattr(biharm.builder, "solve_linear", doubled)
    with pytest.raises(RuntimeError, match=f"internal error.*gamma=2, kind={kind}\\)"):
        build_pair(2)


def test_build_rejects_a_solution_off_the_b_row(monkeypatch):
    # A solution of the image rows alone, 2 H, misses the b-row: the build
    # checks every row of its system and raises instead of returning it.
    monkeypatch.setattr(
        biharm.builder,
        "solve_linear",
        lambda system: tuple((tuple(2 * v for v in x), scale) for x, scale in solve_linear(system)),
    )
    with pytest.raises(RuntimeError, match="internal error.*gamma=2, kind=H"):
        build(KernelSpec(gamma=2, kind="H"))


def test_build_rejects_a_solution_off_the_image_rows(monkeypatch):
    # A solution that meets both boundary rows but not the image rows: F
    # with 1 added at t^4 / |1-z|^2, a term with no boundary data.
    spec = KernelSpec(gamma=2, kind="F")
    columns, _ = builder_system(spec)
    j = columns.index((1, 4))

    def off_image(system):
        ((values, scale),) = solve_linear(system)
        values = list(values)
        values[j] += scale
        return ((tuple(values), scale),)

    monkeypatch.setattr(biharm.builder, "solve_linear", off_image)
    with pytest.raises(RuntimeError, match="internal error.*gamma=2, kind=F"):
        build(spec)


@pytest.mark.parametrize("gamma", (2, 5))
@pytest.mark.parametrize("kind", ("F", "H"))
def test_build_check_is_independent_of_the_closed_form(gamma, kind, monkeypatch):
    # Scaling the closed image of column (beta, k) by k + 1 gives a system
    # whose solution is not biharmonic-zero.  The check runs the generic
    # composition, not the closed form that assembled the rows, so it
    # raises instead of returning that solution.
    terms = biharm.operators.monomial_terms

    def scaled(gamma, beta, k):
        return tuple((band, e, (k + 1) * c) for band, e, c in terms(gamma, beta, k))

    monkeypatch.setattr(biharm.builder, "monomial_terms", scaled)
    monkeypatch.setattr(biharm.operators, "monomial_terms", scaled)
    with pytest.raises(RuntimeError, match=f"internal error.*gamma={gamma}, kind={kind}"):
        build(KernelSpec(gamma=gamma, kind=kind))


def test_raw_h2_constants():
    # The paper's unnormalized H at weight two is 6 H_2.
    raw = expansion_scale(6, build(KernelSpec(gamma=2, kind="H")))
    assert raw.terms == RAW_H2
    assert expansion_boundary(raw) == BoundaryData(a=F(0), b=F(6))


def test_raw_f2_constants():
    # The paper's unnormalized F at weight two is 2 F_2 - 18 H_2.
    f, h = build_pair(2)
    raw = expansion_add(expansion_scale(2, f), expansion_scale(-18, h))
    assert raw.terms == RAW_F2
    assert expansion_boundary(raw) == BoundaryData(a=F(2), b=F(-18))


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
    beta0, _ = grid_geometry(gamma, kind)

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


@pytest.mark.parametrize("gamma", [0, 1, 2, 5, 12, 24])
@pytest.mark.parametrize("kind", ("F", "H"))
def test_built_kernel_terms_are_in_ascending_order(kind, gamma):
    # The solve runs in diagonal order; build stores the bands, and each
    # band's exponents, in ascending order, so repr does not follow the
    # solver's column numbering.
    kernel = build(KernelSpec(gamma=gamma, kind=kind))
    assert list(kernel.terms) == sorted(kernel.terms)
    for poly in kernel.terms.values():
        assert list(poly) == sorted(poly)


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


@pytest.mark.parametrize("gamma", range(0, 9))
def test_build_pair_matches_build(gamma):
    # build and build_pair both solve F's grid.  H solved there is H solved
    # on its own grid, a single solve assembled here, down to repr: the
    # same bands, exponents and integers in the same order.
    h_spec = KernelSpec(gamma=gamma, kind="H")
    (own,) = solved_expansions(h_spec, *builder_system(h_spec))
    pair = build_pair(gamma)
    single = (build(KernelSpec(gamma=gamma, kind="F")), build(h_spec))
    assert pair == single
    assert repr(pair) == repr(single)
    for h in (single[1], pair[1]):
        assert h == own
        assert repr(h) == repr(own)


@pytest.mark.parametrize("gamma", range(0, 9))
def test_solve_is_independent_of_row_order(gamma):
    # The pivot row of a column is the first row that leads with it, so
    # shuffling the rows changes the pivots, but never the unique solution
    # of either boundary right-hand side.
    _, system = builder_system(KernelSpec(gamma=gamma, kind="F"), ((1, 0), (0, 1)))
    solutions = solve_linear(system)
    rng = random.Random(4000 + gamma)
    for _ in range(3):
        rows = list(system.rows)
        rng.shuffle(rows)
        assert solve_linear(RationalLinearSystem(rows=rows, unknowns=system.unknowns)) == solutions
