"""Tests for the exact polynomial ring and the rational linear solver."""

import math
import random
from fractions import Fraction

import pytest

from biharm.builder import BOUNDARY_TARGETS, KernelSpec, ansatz_grid, assemble_system
from biharm.exact import (
    RationalLinearSystem,
    bernstein_coefficients,
    binom,
    isolate_roots,
    solve_linear,
)
from biharm.operators import KERNEL_KINDS
from exact_references import (
    poly_add,
    poly_diff,
    poly_eval,
    poly_from_terms,
    poly_mul,
    poly_scale,
    poly_shift,
)


def rand_poly(rng, max_terms=5, lo=-3, hi=8):
    """Random sparse Laurent polynomial with small rational coefficients."""
    p = {}
    for _ in range(rng.randint(0, max_terms)):
        k = rng.randint(lo, hi)
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if c:
            p[k] = c
    return {k: c for k, c in p.items() if c}


# ---------------------------------------------------------------------------
# binomial coefficients


@pytest.mark.parametrize(
    "n, r, expected",
    [(0, 0, 1), (5, 2, 10), (7, 0, 1), (7, 7, 1), (6, 3, 20), (3, 5, 0), (4, -1, 0)],
)
def test_binom_values(n, r, expected):
    assert binom(n, r) == expected


def test_binom_negative_n_rejected():
    with pytest.raises(ValueError):
        binom(-1, 0)


def test_binom_pascal_recurrence():
    for n in range(1, 30):
        for r in range(0, n + 1):
            assert binom(n, r) == binom(n - 1, r - 1) + binom(n - 1, r)


def test_binom_row_symmetry():
    for n in range(0, 25):
        for r in range(0, n + 1):
            assert binom(n, r) == binom(n, n - r)


# ---------------------------------------------------------------------------
# polynomial arithmetic


def test_construction_merges_and_drops_zeros():
    assert poly_from_terms([(1, 1), (1, -1), (2, 3)]) == {2: Fraction(3)}
    assert poly_from_terms([]) == {}
    assert poly_from_terms([(4, 0)]) == {}


def test_ring_axioms_random():
    rng = random.Random(1001)
    for _ in range(1000):
        p, q, r = (rand_poly(rng) for _ in range(3))
        assert poly_add(p, q) == poly_add(q, p)
        assert poly_add(poly_add(p, q), r) == poly_add(p, poly_add(q, r))
        assert poly_mul(p, q) == poly_mul(q, p)
        assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))
        assert poly_mul(p, poly_add(q, r)) == poly_add(poly_mul(p, q), poly_mul(p, r))
        assert poly_add(p, poly_scale(-1, p)) == {}
        assert poly_mul(p, {0: Fraction(1)}) == p


def test_no_zero_coefficients_stored():
    rng = random.Random(1002)
    for _ in range(500):
        p, q = rand_poly(rng), rand_poly(rng)
        for result in (
            poly_add(p, q),
            poly_mul(p, q),
            poly_scale(Fraction(0), p),
            poly_add(p, poly_scale(-1, p)),
        ):
            assert all(c != 0 for c in result.values())


def test_scale_left_action():
    rng = random.Random(1003)
    for _ in range(300):
        p = rand_poly(rng)
        a = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        b = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
        assert poly_scale(a, poly_scale(b, p)) == poly_scale(a * b, p)
        assert poly_scale(a + b, p) == poly_add(poly_scale(a, p), poly_scale(b, p))


def test_eval_is_ring_homomorphism():
    rng = random.Random(1004)
    for _ in range(300):
        p, q = rand_poly(rng), rand_poly(rng)
        t = Fraction(rng.randint(1, 7), rng.randint(1, 7))  # nonzero: Laurent terms
        assert poly_eval(poly_add(p, q), t) == poly_eval(p, t) + poly_eval(q, t)
        assert poly_eval(poly_mul(p, q), t) == poly_eval(p, t) * poly_eval(q, t)


def test_eval_values():
    p = {2: Fraction(3, 2), 0: Fraction(1)}
    assert poly_eval(p, Fraction(1, 2)) == Fraction(11, 8)
    assert poly_eval({-2: Fraction(9)}, Fraction(1, 3)) == 81
    assert poly_eval({}, Fraction(5)) == 0


def test_shift_and_extremes():
    p = {0: Fraction(1), 3: Fraction(-2)}
    assert poly_shift(p, 2) == {2: Fraction(1), 5: Fraction(-2)}
    assert poly_shift(p, -1) == {-1: Fraction(1), 2: Fraction(-2)}
    assert (min(poly_shift(p, 2)), max(poly_shift(p, 2))) == (2, 5)
    assert poly_shift({}, 4) == {}


# ---------------------------------------------------------------------------
# calculus in t


def test_diff_monomial():
    assert poly_diff({4: Fraction(1)}) == {3: Fraction(4)}
    assert poly_diff({0: Fraction(7)}) == {}


@pytest.mark.parametrize("d", [poly_diff])
def test_derivations_satisfy_leibniz(d):
    rng = random.Random(1005)
    for _ in range(300):
        p, q = rand_poly(rng), rand_poly(rng)
        assert d(poly_mul(p, q)) == poly_add(poly_mul(d(p), q), poly_mul(p, d(q)))


# ---------------------------------------------------------------------------
# linear solver


def sparse(dense_rows):
    """A system from dense (coefficients, right-hand sides) rows, zeros left out."""
    ncols = len(dense_rows[0][0]) if dense_rows else 0
    rows = [({j: c for j, c in enumerate(vec) if c}, tuple(rhs)) for vec, rhs in dense_rows]
    return RationalLinearSystem(rows=rows, unknowns=ncols)


def apply_rows(system, vec):
    return [sum((c * vec[j] for j, c in row.items()), Fraction(0)) for row, _ in system.rows]


def residual(system, vec, r=0):
    """Row residuals of vec against right-hand side r."""
    return [lhs - rhs[r] for lhs, (_, rhs) in zip(apply_rows(system, vec), system.rows)]


def scaled(point):
    """A rational point in the solver's form: (numerators, scale), scale
    the least common denominator."""
    scale = math.lcm(*(x.denominator for x in point))
    return tuple(int(x * scale) for x in point), scale


def values(solution):
    """The rationals numerators / scale of one (numerators, scale)."""
    numerators, scale = solution
    return tuple(Fraction(n, scale) for n in numerators)


def assert_lowest_terms(solutions):
    for numerators, scale in solutions:
        assert type(scale) is int and scale >= 1
        assert all(type(n) is int for n in numerators)
        assert math.gcd(scale, *numerators) == 1


def test_solve_unique():
    system = RationalLinearSystem(rows=[({0: 2, 1: 1}, (5,)), ({0: 1, 1: -1}, (1,))], unknowns=2)
    assert solve_linear(system) == (((2, 1), 1),)


def test_solve_unique_several_right_hand_sides():
    # One solution per right-hand side, in their order; a zero right-hand
    # side solves to zeros over scale 1.
    rows = [({0: 2, 1: 1}, (5, 0, 1)), ({0: 1, 1: -1}, (1, 0, 2))]
    assert solve_linear(RationalLinearSystem(rows=rows, unknowns=2)) == (
        ((2, 1), 1),
        ((0, 0), 1),
        ((1, -1), 1),
    )


def test_solve_rescales_after_solved_unknowns():
    # Upper triangular, so back substitution meets the unknowns from the
    # last: x2 = 1/3 lifts the scale to 3 while x0 and x1 are unknown, x1 =
    # 1/2 - x2 = 1/6 then lifts it to 6 with x2 already solved (rescaled
    # from 1 to 2), and x0 = (1 - x1) / 5 = 1/6 needs no further lift.
    rows = [({0: 5, 1: 1}, (1,)), ({1: 2, 2: 2}, (1,)), ({2: 3}, (1,))]
    system = RationalLinearSystem(rows=rows, unknowns=3)
    assert solve_linear(system) == (((1, 1, 2), 6),)
    # A lift by 7 after two unknowns: x0 = (1 - x1 - x2) / 7 = 1/14.
    rows[0] = ({0: 7, 1: 1, 2: 1}, (1,))
    sol = solve_linear(RationalLinearSystem(rows=rows, unknowns=3))
    assert sol == (((3, 7, 14), 42),)
    assert values(sol[0]) == (Fraction(1, 14), Fraction(1, 6), Fraction(1, 3))
    # Negative pivot entries lift the scale by positive factors: x1 = -1/3,
    # x0 = (1 - 2 x1) / -4 = -5/12.
    system = RationalLinearSystem(rows=[({0: -4, 1: 2}, (1,)), ({1: -3}, (1,))], unknowns=2)
    assert solve_linear(system) == (((-5, -4), 12),)


def test_solve_leaves_the_system_unchanged():
    rows = [({0: 4, 1: 2, 2: 6}, (2, 0)), ({0: 2, 1: -1}, (1, 3)), ({1: 3, 2: 9}, (0, 1))]
    system = RationalLinearSystem(rows=rows, unknowns=3)
    before = [(dict(row), rhs) for row, rhs in system.rows]
    first = solve_linear(system)
    assert system.rows == before
    assert solve_linear(system) == first


def test_solve_infeasible():
    system = RationalLinearSystem(rows=[({0: 1, 1: 1}, (1,)), ({0: 1, 1: 1}, (2,))], unknowns=2)
    assert solve_linear(system) is None


def test_solve_one_infeasible_right_hand_side():
    # Consistent for the first and third right-hand side, not for the
    # second: the system as a whole has no solution.
    rows = [({0: 1, 1: 1}, (1, 1, 0)), ({0: 1, 1: 1}, (1, 2, 0)), ({0: 1, 1: -1}, (1, 0, 0))]
    assert solve_linear(RationalLinearSystem(rows=rows, unknowns=2)) is None
    consistent = [(row, (b[0], b[2])) for row, b in rows]
    assert solve_linear(RationalLinearSystem(rows=consistent, unknowns=2)) == (
        ((1, 0), 1),
        ((0, 0), 1),
    )


def test_solve_zero_row_contradiction():
    # An empty row and a row of explicit zeros both read 0 = 1.
    for row in ({}, {0: 0, 1: 0}):
        system = RationalLinearSystem(
            rows=[({0: 1}, (1,)), ({1: 1}, (1,)), (row, (1,))], unknowns=2
        )
        assert solve_linear(system) is None


def test_solve_parametric_free_column_is_last():
    # One equation, two unknowns: no unique solution.
    system = RationalLinearSystem(rows=[({0: 1, 1: 1}, (3,))], unknowns=2)
    assert solve_linear(system) is None


def test_solve_ragged_rejected():
    # A column index outside 0 .. unknowns - 1 has no unknown to stand for.
    for row in ({2: 1}, {-1: 1}):
        system = RationalLinearSystem(rows=[({0: 1}, (0,)), (row, (0,))], unknowns=2)
        with pytest.raises(ValueError):
            solve_linear(system)


def test_solve_ragged_right_hand_sides_rejected():
    # Every row carries one entry per right-hand side.
    for first, second in (((1,), (1, 2)), ((1, 2), (1,)), ((), (0,))):
        system = RationalLinearSystem(rows=[({0: 1}, first), ({1: 1}, second)], unknowns=2)
        with pytest.raises(ValueError, match="right-hand sides"):
            solve_linear(system)


def test_solve_empty_system():
    # No rows: no right-hand sides, so no solutions.  A row with nothing
    # on the left determines the empty vector, unless its right-hand side
    # reads 0 = b.
    assert solve_linear(RationalLinearSystem(rows=[], unknowns=0)) == ()
    assert solve_linear(RationalLinearSystem(rows=[({}, (0, 0))], unknowns=0)) == (((), 1), ((), 1))
    assert solve_linear(RationalLinearSystem(rows=[({}, (0, 1))], unknowns=0)) is None


def test_solve_unconstrained_unknowns():
    # No equations at all: the declared unknowns are not determined.
    assert solve_linear(RationalLinearSystem(rows=[], unknowns=2)) is None


def rank(dense_rows, ncols):
    """Rank of the coefficient rows, by Gaussian elimination over Fraction."""
    rows = [[Fraction(c) for c in vec] for vec, _ in dense_rows]
    r = 0
    for j in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][j]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, len(rows)):
            f = rows[i][j] / rows[r][j]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def consistent_rows(rng, n, m, points, den):
    """m random integer rows over n unknowns, times den, with one
    right-hand side per rational point in points: den times the row at the
    point, an integer when den clears the point's denominators."""
    rows = []
    for _ in range(m):
        row = [rng.randint(-3, 3) for _ in range(n)]
        rhs = tuple(int(sum((c * v for c, v in zip(row, x0)), Fraction(0)) * den) for x0 in points)
        rows.append(([c * den for c in row], rhs))
    return rows


def test_solve_random_consistent_systems():
    # Integer rows whose right-hand sides come from a rational point x0: the
    # solution exists, so it is returned exactly when the rows have full
    # column rank, and it is then x0.
    rng = random.Random(1008)
    unique = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, n + 2)
        den = rng.randint(1, 4)
        x0 = [Fraction(rng.randint(-4, 4), den) for _ in range(n)]
        rows = consistent_rows(rng, n, m, [x0], den)
        sol = solve_linear(sparse(rows))
        if rank(rows, n) == n:
            assert sol == (scaled(x0),)
            assert_lowest_terms(sol)
            unique += 1
        else:
            assert sol is None
    assert 0 < unique < 200


def test_solve_random_several_right_hand_sides():
    # One to three right-hand sides from rational points, zero points among
    # them: each solution == the solve of its right-hand side alone, and
    # is its point when the rows have full column rank.
    rng = random.Random(1011)
    unique = zeros = 0
    for _ in range(200):
        n = rng.randint(1, 6)
        m = rng.randint(1, n + 2)
        points, dens = [], []
        for _ in range(rng.randint(1, 3)):
            dens.append(rng.randint(1, 4))
            scale = rng.choice((0, 1, 1, 1))
            points.append([Fraction(scale * rng.randint(-4, 4), dens[-1]) for _ in range(n)])
        rows = consistent_rows(rng, n, m, points, math.lcm(*dens))
        system = sparse(rows)
        sol = solve_linear(system)
        alone = [
            solve_linear(sparse([(vec, (rhs[r],)) for vec, rhs in rows]))
            for r in range(len(points))
        ]
        if rank(rows, n) == n:
            assert sol == tuple(map(scaled, points))
            assert_lowest_terms(sol)
            assert [(x,) for x in sol] == alone
            unique += 1
            zeros += sum(not any(x0) for x0 in points)
        else:
            assert sol is None
            assert alone == [None] * len(points)
    assert 0 < unique < 200
    assert zeros > 0


def test_solve_random_infeasible_systems():
    rng = random.Random(1009)
    hit = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [
            ([rng.randint(-3, 3) for _ in range(n)], (rng.randint(-3, 3),))
            for _ in range(n + 2)
        ]
        system = sparse(rows)
        sol = solve_linear(system)
        if sol is None:
            hit += 1
        else:
            assert_lowest_terms(sol)
            assert not any(residual(system, values(sol[0])))
    assert hit > 0  # overdetermined random systems are usually inconsistent


def test_solve_deterministic():
    rng = random.Random(1010)
    rows = [([rng.randint(-3, 3) for _ in range(5)], (rng.randint(-3, 3),)) for _ in range(5)]
    system = sparse(rows)
    assert solve_linear(system) == solve_linear(system)


BUILDER_SYSTEMS = [(False, gamma) for gamma in range(13)] + [
    (True, gamma) for gamma in range(7)
]


@pytest.mark.parametrize("kind", KERNEL_KINDS)
@pytest.mark.parametrize("dropped, gamma", BUILDER_SYSTEMS)
def test_solve_builder_systems(kind, dropped, gamma):
    # The builder's own systems are integer sparse rows with a unique
    # solution, and every row holds for it exactly.  Without their last
    # row, the b-row, the kernel is free to move along H, so there is no
    # unique solution.
    spec = KernelSpec(gamma=gamma, kind=kind)
    _, system = assemble_system(gamma, ansatz_grid(spec), (BOUNDARY_TARGETS[kind],))
    if dropped:
        system = RationalLinearSystem(rows=system.rows[:-1], unknowns=system.unknowns)
    assert all(type(c) is int for row, b in system.rows for c in (*row.values(), *b))
    assert all(len(b) == 1 for _, b in system.rows)
    assert all(all(row.values()) for row, _ in system.rows)
    sol = solve_linear(system)
    if dropped:
        assert sol is None
    else:
        assert_lowest_terms(sol)
        (x,) = sol
        assert len(x[0]) == system.ncols()
        assert not any(residual(system, values(x)))


# ---------------------------------------------------------------------------
# real roots in Bernstein form


def _bernstein_reference(p, lo, hi):
    """Bernstein coefficients of sum_j p[j] q^j on [lo, hi] over Fractions:
    the power coefficients e_j in lam of p(lo + (hi - lo) lam), then
    b_i = sum_(j <= i) C(i, j) / C(n, j) e_j."""
    n = len(p) - 1
    e = [Fraction(0)] * (n + 1)
    for j, c in enumerate(p):
        for i in range(j + 1):
            e[i] += c * binom(j, i) * lo ** (j - i) * (hi - lo) ** i
    return [sum(Fraction(binom(i, j), binom(n, j)) * e[j] for j in range(i + 1)) for i in range(n + 1)]


def test_bernstein_coefficients_are_a_positive_multiple():
    rng = random.Random(7)
    for _ in range(30):
        p = [rng.randint(-50, 50) for _ in range(rng.randint(1, 7))]
        d = 2 ** rng.randint(0, 6)
        a = rng.randint(0, 3 * d)
        c = a + rng.randint(0, 3 * d)
        got = bernstein_coefficients(p, a, c, d)
        want = _bernstein_reference(p, Fraction(a, d), Fraction(c, d))
        if not any(want):
            assert not any(got)
            continue
        i = next(i for i, w in enumerate(want) if w)
        ratio = got[i] / want[i]
        assert ratio > 0
        assert got == [ratio * w for w in want]


def _from_roots(roots):
    """Integer power coefficients of prod (den q - num) over the roots."""
    p = [1]
    for root in roots:
        num, den = root.numerator, root.denominator
        p = [den * x for x in [0] + p]
        for j in range(len(p) - 1):
            p[j] -= num * p[j + 1] // den
    return p


@pytest.mark.parametrize(
    "roots",
    [
        [Fraction(1, 3)],
        [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)],
        [Fraction(1, 2), Fraction(3, 8), Fraction(5, 7), Fraction(-2), Fraction(3, 2)],
        [Fraction(1, 1000), Fraction(1, 999), Fraction(998, 999), Fraction(0), Fraction(1)],
        [Fraction(k, 11) for k in range(1, 11)],
    ],
)
def test_isolate_roots_brackets_each_root_once(roots):
    p = _from_roots(roots)
    assert [sum(c * r**j for j, c in enumerate(p)) for r in roots] == [0] * len(roots)
    found = isolate_roots(bernstein_coefficients(p, 0, 1, 1))
    inside = sorted(r for r in roots if 0 < r < 1)
    assert len(found) == len(inside)
    for root, (k, depth, piece) in zip(inside, found):
        lo = Fraction(k, 2**depth)
        if piece is None:
            assert root == lo
        else:
            assert lo < root < lo + Fraction(1, 2**depth)
            assert piece == bernstein_coefficients(p, k, k + 1, 2**depth)


def test_isolate_roots_at_a_split_point():
    # The first bisection splits at 1/2, a root between two others.
    p = _from_roots([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)])
    assert (1, 1, None) in isolate_roots(bernstein_coefficients(p, 0, 1, 1))


def test_isolate_roots_of_a_double_root_stops():
    # (3 lam - 1)^2 never shows a single sign change; the bisection stops at
    # width 2^-200 and reports the midpoint.
    (found,) = isolate_roots(bernstein_coefficients([1, -6, 9], 0, 1, 1))
    k, depth, piece = found
    assert piece is None
    assert abs(Fraction(k, 2**depth) - Fraction(1, 3)) < Fraction(1, 2**200)


def test_isolate_roots_of_zero_and_constants():
    assert isolate_roots([0, 0, 0]) == []
    assert isolate_roots([5]) == []
    assert isolate_roots(bernstein_coefficients([3, 0, 1], 0, 1, 1)) == []
