"""Tests for band operators, the closed monomial image, and the biharmonic pipeline."""

import os
import random
from fractions import Fraction

import pytest

from biharm.boundary import dirichlet_factor
from biharm.builder import KernelSpec, build_pair, grid_geometry
from biharm.conjecture import ab_form, conjectured_kernel, solve_ck
from biharm.operators import (
    KERNEL_KINDS,
    _laplacian_rows,
    biharmonic,
    check_kind,
    make_expansion,
    monomial_image,
)
from exact_references import (
    apply_P,
    apply_Q,
    biharmonic_fraction,
    expansion_add,
    expansion_scale,
    laplacian_pass,
    poly_add,
    poly_scale,
    poly_shift,
)
from kernel_fixtures import RAW_H2


def dense_pass(seq, shift=0):
    """The package's dense Laplacian pass (``_laplacian_rows``) on a band
    sequence of dicts, its image back as dicts with zeros dropped.  With
    shift, the rows are laid out from t^(klow - shift) instead of t^klow,
    which divides the sequence by t^shift, as ``biharmonic`` divides by the
    weight."""
    ks = [k for p in seq.values() for k in p]
    if not ks:
        return {}
    mlow, klow = min(seq), min(ks)
    width = max(ks) + 1 - klow
    rows = [[0] * width for _ in range(max(seq) + 1 - mlow)]
    for m, poly in seq.items():
        for k, c in poly.items():
            rows[m - mlow][k - klow] = c
    image = _laplacian_rows(rows, mlow, klow - shift)
    out = {mlow + i: {e: c for e, c in enumerate(row, klow - shift - 2) if c} for i, row in enumerate(image)}
    return {m: p for m, p in out.items() if p}


def laplacian(u):
    """Banded Laplacian of an expansion: band m of D(u), by the package's
    own Laplacian pass (the first and last step of ``biharmonic``)."""
    return dense_pass(u.terms)


def rand_expansion(rng, gamma):
    terms = {}
    for beta in range(1, gamma + 4):
        poly = {}
        for _ in range(rng.randint(0, 3)):
            k = rng.randint(0, 3 * gamma + 6)
            c = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if c:
                poly[k] = poly.get(k, Fraction(0)) + c
        poly = {k: c for k, c in poly.items() if c}
        if poly:
            terms[beta] = poly
    return make_expansion(gamma, terms)


def one_term_image(gamma, beta, k):
    """Generic biharmonic image of the single monomial t^k / |1-z|^(2 beta)."""
    return biharmonic(make_expansion(gamma, {beta: {k: 1}}))


def seq_equal(a, b):
    clean = lambda s: {m: p for m, p in s.items() if p}
    return clean(a) == clean(b)


# ---------------------------------------------------------------------------
# single-band operators


def test_apply_p_hand_values():
    x = {0: Fraction(1), 1: Fraction(-1)}  # x = 1 - t
    assert apply_P(0, x) == {0: Fraction(1)}
    assert apply_P(1, {1: Fraction(1)}) == {}
    assert apply_P(2, {2: Fraction(1)}) == {0: Fraction(2)}


def test_apply_q_hand_values():
    assert apply_Q(0, {3: Fraction(1)}) == {}
    assert apply_Q(1, {1: Fraction(1)}) == {}
    assert apply_Q(3, {2: Fraction(1)}) == {2: Fraction(3)}


def test_weight_division_shifts_exponents():
    # Dividing by t^2 moves the rows' base exponent: the pass then acts on
    # t^3 - 3 t^0, so P_1 gives 6 t - 6 t^2 and Q_1 gives -2 t^3 - 3 in band 2.
    seq = {1: {5: Fraction(1), 2: Fraction(-3)}}
    assert dense_pass(seq, shift=2) == {1: {1: 6, 2: -6}, 2: {3: -2, 0: -3}}
    assert dense_pass(seq, shift=2) == laplacian_pass({1: poly_shift(seq[1], -2)})
    assert dense_pass({2: {4: Fraction(7)}}, shift=0) == laplacian_pass({2: {4: Fraction(7)}})


def test_operators_are_linear():
    rng = random.Random(2001)
    for _ in range(200):
        f = {rng.randint(0, 8): Fraction(rng.randint(-5, 5), rng.randint(1, 5))}
        g = {rng.randint(0, 8): Fraction(rng.randint(-5, 5), rng.randint(1, 5))}
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        beta = rng.randint(0, 5)
        for op in (lambda p: apply_P(beta, p), lambda p: apply_Q(beta, p)):
            assert op(poly_add(f, g)) == poly_add(op(f), op(g))
            assert op(poly_scale(a, f)) == poly_scale(a, op(f))


def rand_band_sequence(rng, coeff):
    """A seeded band sequence with exponents down to -8, as after the weight
    division, and coefficients drawn by coeff."""
    seq = {}
    for beta in rng.sample(range(1, 9), rng.randint(1, 5)):
        poly = {k: coeff(rng) for k in rng.sample(range(-8, 12), rng.randint(1, 6))}
        seq[beta] = {k: c for k, c in poly.items() if c}
    return seq


@pytest.mark.parametrize(
    "coeff",
    [
        lambda rng: rng.randint(-9, 9),
        lambda rng: Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    ],
    ids=["int", "Fraction"],
)
def test_fused_laplacian_pass_matches_composition_of_p_and_q(coeff):
    # _laplacian_rows applies P and Q by their coefficient forms on dense
    # rows, gap bands and gaps in a band holding 0; the reference composes
    # them from their derivative forms, band by band, on dicts.  An int
    # sequence stays in ints, as the biharmonic passes rely on, and the
    # image has one row more and two entries more per row.
    rng = random.Random(2006)
    kind = type(coeff(rng))
    for _ in range(300):
        seq = rand_band_sequence(rng, coeff)
        image = dense_pass(seq)
        assert image == laplacian_pass(seq), seq
        assert all(p for p in image.values())
        assert all(type(c) is kind and c for p in image.values() for c in p.values())
    assert _laplacian_rows([[0, 0, 0]], 1, -2) == [[0] * 5, [0] * 5]
    assert not biharmonic(make_expansion(3, {}))


# ---------------------------------------------------------------------------
# closed monomial image


def test_rule_hand_value():
    # Q_4 w^-1 Q_3 on t^4 at band 3, weight exponent 2, lands in band 5:
    # 3*4*(3-4)*(3+2+1-4) t^(4-2)
    assert monomial_image(2, 3, 4)[5] == {2: -24}


def test_rules_match_generic_composition_random():
    rng = random.Random(2002)
    for _ in range(300):
        gamma = rng.randint(0, 6)
        beta = rng.randint(1, gamma + 3)
        k = rng.randint(0, 3 * gamma + 6)
        assert monomial_image(gamma, beta, k) == one_term_image(gamma, beta, k), (gamma, beta, k)


def test_monomial_image_band_support():
    rng = random.Random(2003)
    for _ in range(100):
        gamma = rng.randint(0, 5)
        beta = rng.randint(1, gamma + 3)
        k = rng.randint(0, 3 * gamma + 6)
        img = monomial_image(gamma, beta, k)
        assert set(img) <= {beta, beta + 1, beta + 2}
        assert all(type(c) is int for p in img.values() for c in p.values())
        assert img == one_term_image(gamma, beta, k), (gamma, beta, k)


# ---------------------------------------------------------------------------
# expansions


def test_make_expansion_validates():
    for gamma in (-1, True, 2.0):
        with pytest.raises(ValueError, match="gamma must be an int >= 0"):
            make_expansion(gamma, {})
    for beta in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match="^band index must be an int >= 1"):
            make_expansion(2, {beta: {1: Fraction(1)}})
    for k in (2.5, True, "3"):
        with pytest.raises(ValueError, match="^exponent must be an int"):
            make_expansion(2, {1: {k: Fraction(1)}})


def test_dirichlet_factor_validates_gamma():
    for gamma in (-1, True, 2.0):
        with pytest.raises(ValueError, match="gamma must be an int >= 0"):
            dirichlet_factor(gamma, "F", 3, Fraction(1, 4))


KIND_ENTRY_POINTS = {
    "check_kind": check_kind,
    "solve_ck": lambda kind: solve_ck(3, kind),
    "dirichlet_factor": lambda kind: dirichlet_factor(3, kind, 2, Fraction(1, 4)),
    "KernelSpec": lambda kind: KernelSpec(gamma=3, kind=kind),
    "grid_geometry": lambda kind: grid_geometry(3, kind),
    "ab_form": lambda kind: ab_form(3, kind),
}


@pytest.mark.parametrize("entry", KIND_ENTRY_POINTS.values(), ids=KIND_ENTRY_POINTS)
def test_kind_has_one_rule(entry):
    # grid_geometry used to take any kind but "F" for H.
    for kind in KERNEL_KINDS:
        entry(kind)
    for kind in ("G", "f", "h", "", None, ("F",), ["H"]):
        with pytest.raises(ValueError, match=r"^kind must be 'F' or 'H', got "):
            entry(kind)


def test_make_expansion_drops_zero_polynomials():
    u = make_expansion(1, {1: {}, 2: {3: Fraction(1)}})
    assert u.terms == {2: {3: Fraction(1)}}
    assert u.max_beta() == 2
    assert make_expansion(0, {}).max_beta() == 0


def test_make_expansion_drops_zero_coefficients():
    f2 = conjectured_kernel(2, "F")
    terms = {beta: dict(poly) for beta, poly in f2.terms.items()}
    terms[1][40] = Fraction(0)
    terms[5] = {3: Fraction(0)}
    assert make_expansion(2, terms) == f2


def test_make_expansion_refuses_inexact_coefficients():
    # A float used to make a kernel that biharmonic and values_at failed on
    # later, and whose boundary data read (0, 0).
    for c in (0.5, 0.0, True, "1", None, 1j):
        with pytest.raises(ValueError, match=r"^coefficient of t\^3, beta=1, must be an int or a Fraction"):
            make_expansion(2, {1: {3: c}})
    for scale in (0, -2, True, 2.0, Fraction(2), None):
        with pytest.raises(ValueError, match="^scale must be an int >= 1"):
            make_expansion(2, {1: {3: 1}}, scale)


# One kernel given four ways: in Fractions, in ints over a scale (not the
# least one), in descending order with a zero coefficient at a band's end, a
# zero band and an empty band, and in ints and Fractions mixed over a scale.
ONE_KERNEL = [
    ({1: {2: Fraction(1, 6), 5: Fraction(-3, 4)}, 3: {7: Fraction(2, 9)}}, 1),
    ({1: {2: 12, 5: -54}, 3: {7: 16}}, 72),
    ({4: {}, 3: {7: Fraction(2, 9)}, 2: {4: 0}, 1: {9: Fraction(0), 5: Fraction(-3, 4), 2: Fraction(1, 6)}}, 1),
    ({1: {2: 2, 5: Fraction(-9)}, 3: {7: Fraction(8, 3)}}, 12),
]


def test_make_expansion_gives_one_form():
    kernels = [make_expansion(2, terms, scale) for terms, scale in ONE_KERNEL]
    # Over the least common denominator 36, with 0 in the band's gaps.
    assert repr(kernels[0]) == "KernelExpansion(gamma=2, scale=36, bands=((1, 2, (6, 0, 0, -27)), (3, 7, (8,))))"
    for kernel in kernels[1:]:
        assert kernel == kernels[0]
        assert hash(kernel) == hash(kernels[0])
        assert repr(kernel) == repr(kernels[0])
    # The Fraction view ascends, zeros dropped, whatever the order given.
    view = kernels[2].terms
    assert view == ONE_KERNEL[0][0]
    assert list(view) == [1, 3] and list(view[1]) == [2, 5]
    # A Fraction over a scale is divided by it too.
    assert make_expansion(0, {1: {2: Fraction(1, 3)}}, 2).bands == ((1, 2, (1,)),)
    assert make_expansion(0, {}, 5) == make_expansion(0, {})


def test_expansion_add_requires_same_gamma():
    u = make_expansion(1, {1: {2: Fraction(1)}})
    v = make_expansion(2, {1: {2: Fraction(1)}})
    with pytest.raises(ValueError):
        expansion_add(u, v)


def test_expansion_add_cancels():
    u = make_expansion(1, {1: {2: Fraction(1)}})
    assert expansion_add(u, expansion_scale(-1, u)).terms == {}


# ---------------------------------------------------------------------------
# Laplacian and biharmonic pipelines


def test_poisson_kernel_is_harmonic():
    # t/|1-z|^2 is annihilated by the Laplacian for every weight exponent.
    for gamma in range(0, 5):
        poisson = make_expansion(gamma, {1: {1: Fraction(1)}})
        assert not laplacian(poisson)


def test_laplacian_of_reciprocal_band():
    # D(1/|1-z|^2) = 1/|1-z|^4.
    u = make_expansion(0, {1: {0: Fraction(1)}})
    assert seq_equal(laplacian(u), {2: {0: Fraction(1)}})


def test_fixture_is_biharmonic_zero_both_paths():
    u = make_expansion(2, RAW_H2)
    assert not biharmonic(u)
    assert not biharmonic_fraction(u.gamma, u.terms)


def test_fixture_laplacian_is_not_zero():
    # The fixture solves the weighted problem but is not harmonic itself.
    u = make_expansion(2, RAW_H2)
    assert laplacian(u)


def _perturbed(gamma, kind, k, c):
    """The closed-form kernel plus c t^k in its top band."""
    u = conjectured_kernel(gamma, kind)
    terms = {beta: dict(poly) for beta, poly in u.terms.items()}
    top = terms[max(terms)]
    top[k] = top.get(k, 0) + c
    return make_expansion(gamma, terms)


MIXED_DENOMINATORS = [
    make_expansion(
        2, {1: {3: Fraction(1, 3)}, 2: {5: Fraction(1, 7), 2: Fraction(-1)}, 3: {6: Fraction(5, 12)}}
    ),
    make_expansion(
        0, {1: {0: Fraction(5, 12), 2: Fraction(2)}, 2: {1: Fraction(-1, 7)}, 4: {7: Fraction(1, 3)}}
    ),
    make_expansion(
        5, {2: {9: Fraction(1, 7)}, 3: {1: Fraction(-1, 3), 11: Fraction(1)}, 6: {12: Fraction(5, 12)}}
    ),
    _perturbed(4, "F", 4, Fraction(1, 7)),
    _perturbed(4, "F", 11, Fraction(1, 7)),
    _perturbed(6, "H", 9, Fraction(1, 7)),
]


@pytest.mark.parametrize("u", MIXED_DENOMINATORS, ids=range(len(MIXED_DENOMINATORS)))
def test_biharmonic_passes_match_fraction_composition(u):
    expected = biharmonic_fraction(u.gamma, u.terms)
    assert expected  # a zero image would not see a scale or a lost denominator
    image = biharmonic(u)
    assert image == expected
    assert all(type(c) is Fraction for p in image.values() for c in p.values())


def test_biharmonic_matches_fraction_composition_random():
    # Random expansions with exponents down to -5, gap bands and mixed
    # denominators, at every gamma 0..12: the dense integer passes give the
    # Fraction composition's image, which is nonzero.
    rng = random.Random(2007)
    negative = 0
    for gamma in range(13):
        for _ in range(15):
            terms = {}
            for beta in rng.sample(range(1, gamma + 4), rng.randint(1, min(4, gamma + 3))):
                ks = rng.sample(range(-5, 2 * gamma + 6), rng.randint(1, 4))
                terms[beta] = {k: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 12)) for k in ks}
            u = make_expansion(gamma, terms)
            negative += any(k < 0 for p in u.terms.values() for k in p)
            expected = biharmonic_fraction(gamma, u.terms)
            assert expected, terms
            assert biharmonic(u) == expected, terms
    assert negative > 50


PERTURBED_GAMMAS = [0, 3, 12] + ([80] if os.environ.get("BIHARM_ACCEPT_EXTENDED") else [])


@pytest.mark.parametrize("gamma", PERTURBED_GAMMAS)
def test_biharmonic_of_perturbed_built_kernels(gamma):
    # The built pair is biharmonic-zero; each kernel plus a small term in
    # one band, at a negative, an interior or a high exponent, where the
    # monomial's image is not zero, has the Fraction composition's nonzero
    # image.  gamma 80 joins with BIHARM_ACCEPT_EXTENDED=1.
    rng = random.Random(2008 + gamma)
    for kernel in build_pair(gamma):
        assert not biharmonic(kernel)
        for k in (-3, gamma + 3, 2 * gamma + 5):
            m = rng.randint(1, kernel.max_beta())
            while not monomial_image(gamma, m, k):
                m = rng.randint(1, kernel.max_beta())
            terms = {beta: dict(poly) for beta, poly in kernel.terms.items()}
            band = terms.setdefault(m, {})
            band[k] = band.get(k, 0) + Fraction(1, rng.randint(2, 99))
            u = make_expansion(gamma, terms)
            expected = biharmonic_fraction(gamma, u.terms)
            assert expected
            assert biharmonic(u) == expected


def test_biharmonic_is_linear():
    rng = random.Random(2005)
    for _ in range(40):
        gamma = rng.randint(0, 4)
        u, v = rand_expansion(rng, gamma), rand_expansion(rng, gamma)
        a = Fraction(rng.randint(-4, 4), rng.randint(1, 4))
        lhs = biharmonic(expansion_add(expansion_scale(a, u), v))
        bu, bv = biharmonic(u), biharmonic(v)
        rhs = {}
        for m in set(bu) | set(bv):
            rhs[m] = poly_add(poly_scale(a, bu.get(m, {})), bv.get(m, {}))
        assert seq_equal(lhs, rhs)
