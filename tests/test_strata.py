"""Stratum samplers, discriminant and line tangency."""

import random
from fractions import Fraction

import pytest

from sgrank.errors import DimensionMismatchError, InvalidInputError
from sgrank.polyring import PolyRing, PrimeField, parse_polynomial
from sgrank.rank import matrix_rank, sgr
from sgrank.strata import (
    ProjectiveLine,
    Tangency,
    binary_cubic_discriminant,
    line_tangency,
    linear_form,
    membership_S,
    random_form,
    restrict_to_line,
    sample_irreducible_sgr2,
    sample_reducible,
    sample_secant_tangential,
    sample_tangential,
)
from sgrank.tensor import complete_homogeneous_cubic, small_cw
from sgrank.verify import _random_symmetric_cubic


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------

def test_membership_tangent_form():
    ring = PolyRing(3)
    L = parse_polynomial("x0 + x1", ring=ring)
    M = parse_polynomial("x2", ring=ring)
    assert membership_S(L * L * M, 1)


def test_membership_smooth_only_in_top_stratum():
    t = complete_homogeneous_cubic(2)
    assert not membership_S(t, 2)
    assert membership_S(t, 3)


def test_membership_chain_monotone():
    f = sample_secant_tangential(2, 3, seed=9)
    s = sgr(f)
    flags = [membership_S(f, r) for r in range(5)]
    assert flags == [r >= s for r in range(5)]


def test_membership_degree_two_matches_matrix_rank():
    rng = random.Random(50)
    for _ in range(100):
        m = rng.randint(1, 6)
        a = [[0] * m for _ in range(m)]
        nz = False
        for i in range(m):
            for j in range(i, m):
                v = rng.randint(-5, 5)
                a[i][j] = a[j][i] = v
                nz = nz or v
        if not nz:
            continue
        ring = PolyRing(m)
        terms = {}
        for i in range(m):
            for j in range(m):
                mono = [0] * m
                mono[i] += 1
                mono[j] += 1
                terms[tuple(mono)] = terms.get(tuple(mono), 0) + a[i][j]
        f = ring.from_dict(terms)
        r = matrix_rank(a)
        for bound in range(0, m + 1):
            assert membership_S(f, bound) == (r <= bound)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_samplers_are_deterministic():
    assert sample_tangential(3, seed=5) == sample_tangential(3, seed=5)
    assert sample_secant_tangential(2, 3, seed=5) == sample_secant_tangential(2, 3, seed=5)
    assert sample_irreducible_sgr2(3, seed=5) == sample_irreducible_sgr2(3, seed=5)
    assert sample_reducible(2, 1, 3, seed=5) == sample_reducible(2, 1, 3, seed=5)


def test_sampler_text_is_pinned():
    """Exact samples for fixed seeds, so a changed draw order shows."""
    assert str(sample_reducible(3, 2, 3, seed=4)) == (
        "4*x0^5 + 7*x0^4*x1 + 4*x0^3*x1^2 - x0^2*x1^3 - 4*x0*x1^4 - x1^5 + 13*x0^4*x2"
        " + 11*x0^3*x1*x2 - 3*x0^2*x1^2*x2 - 4*x0*x1^3*x2 + 4*x1^4*x2 + 28*x0^3*x2^2"
        " + 16*x0^2*x1*x2^2 + 6*x0*x1^2*x2^2 + 4*x1^3*x2^2 + 19*x0^2*x2^3 + x0*x1*x2^3"
        " + 28*x1^2*x2^3 + 22*x0*x2^4 + 19*x1*x2^4 - 5*x2^5 + 8*x0^4*x3 - 12*x0^3*x1*x3"
        " - 15*x0^2*x1^2*x3 + 19*x0*x1^3*x3 + 9*x1^4*x3 + 11*x0^3*x2*x3 + 5*x0^2*x1*x2*x3"
        " + 37*x0*x1^2*x2*x3 - 20*x1^3*x2*x3 + 19*x0^2*x2^2*x3 + x0*x1*x2^2*x3"
        " + 17*x1^2*x2^2*x3 + 25*x0*x2^3*x3 + 32*x1*x2^3*x3 + 18*x2^4*x3 + x0^3*x3^2"
        " + 2*x0^2*x1*x3^2 - 10*x0*x1^2*x3^2 - 23*x1^3*x3^2 - 5*x0^2*x2*x3^2"
        " - 6*x0*x1*x2*x3^2 - 3*x1^2*x2*x3^2 + 3*x0*x2^2*x3^2 - 19*x1*x2^2*x3^2"
        " + 12*x2^3*x3^2 - 4*x0^2*x3^3 + 15*x0*x1*x3^3 + 16*x1^2*x3^3 + 3*x0*x2*x3^3"
        " - 4*x1*x2*x3^3 + 16*x2^2*x3^3 + x0*x3^4 - 12*x1*x3^4 + 5*x2*x3^4 + 2*x3^5"
    )
    assert str(sample_reducible(2, 1, 3, seed=5)) == (
        "-10*x0^3 + 10*x0^2*x1 - 10*x0*x1^2 + 16*x0^2*x2 - 14*x0*x1*x2 + 20*x1^2*x2"
        " + 8*x0*x2^2 - 12*x1*x2^2 + 19*x0^2*x3 - 5*x0*x1*x3 + 15*x1^2*x3 - 4*x0*x2*x3"
        " - 29*x1*x2*x3 + 4*x2^2*x3 + 2*x0*x3^2 - 15*x1*x3^2 - 13*x2*x3^2 - 12*x3^3"
    )
    assert str(sample_tangential(3, seed=1, d=4)) == (
        "-45*x0^4 + 138*x0^3*x1 - 119*x0^2*x1^2 + 8*x0*x1^3 + 16*x1^4 - 156*x0^3*x2"
        " + 349*x0^2*x1*x2 - 224*x0*x1^2*x2 + 48*x1^3*x2 - 158*x0^2*x2^2"
        " + 232*x0*x1*x2^2 - 112*x1^2*x2^2 - 16*x0*x2^3 + 16*x1*x2^3 + 32*x2^4"
        " - 48*x0^3*x3 + 118*x0^2*x1*x3 - 90*x0*x1^2*x3 + 24*x1^3*x3 - 94*x0^2*x2*x3"
        " + 142*x0*x1*x2*x3 - 64*x1^2*x2*x3 - 4*x0*x2^2*x3 - 8*x1*x2^2*x3 + 48*x2^3*x3"
        " - 53*x0^2*x3^2 + 126*x0*x1*x3^2 - 79*x1^2*x3^2 - 104*x0*x2*x3^2"
        " + 133*x1*x2*x3^2 - 46*x2^2*x3^2 - 26*x0*x3^3 + 34*x1*x3^3 - 30*x2*x3^3"
        " - 4*x3^4"
    )
    assert str(random_form(random.Random(0), PolyRing(4), 3)) == (
        "3*x0^3 - x0^2*x1 - 3*x0*x1^2 + 4*x0^2*x2 - x0*x1*x2 + 2*x1^2*x2 + 3*x0*x2^2"
        " + x1*x2^2 - x2^3 - 4*x0^2*x3 - 3*x0*x1*x3 - x1^2*x3 - 2*x0*x2*x3 + 2*x1*x2*x3"
        " - 5*x2^2*x3 + 4*x0*x3^2 + 3*x1*x3^2 + x2*x3^2 + x3^3"
    )


def test_tangential_samples_have_rank_one():
    for seed in range(25):
        n = 1 + seed % 4
        assert sgr(sample_tangential(n, seed=seed)) == 1


def test_tangential_degree_parameter():
    f = sample_tangential(2, seed=3, d=5)
    assert f.total_degree() == 5
    assert sgr(f) == 1


def test_cube_points_also_have_rank_one():
    # L^3 lies on the third Veronese; its singular ideal is (L^2)-like
    assert sgr(parse_polynomial("x0^3", nvars=2)) == 1


def test_secant_hard_bound_and_generic_equality():
    hits = 0
    for seed in range(40):
        f = sample_secant_tangential(2, 2, seed=seed)
        s = sgr(f)
        assert s <= 2
        hits += s == 2
    assert hits >= 38  # 95 percent of 40


def test_secant_r1_matches_tangential_shape():
    f = sample_secant_tangential(1, 3, seed=0)
    assert sgr(f) == 1


def test_secant_parameter_range():
    with pytest.raises(InvalidInputError):
        sample_secant_tangential(0, 2)
    with pytest.raises(InvalidInputError):
        sample_secant_tangential(4, 2)  # r > n+1


def test_irreducible_samples():
    for seed in range(20):
        assert sgr(sample_irreducible_sgr2(3, seed=seed)) == 2


def test_table_shapes_fit_irreducible_pattern():
    # x0^2*x2 + x1^3 is L1^2 M1 + L2^2 M2 with L1=x0, L2=x1, M1=x2, M2=x1
    assert sgr(parse_polynomial("x0^2*x2 + x1^3", nvars=3)) == 2


def test_reducible_samples():
    for seed in range(20):
        assert sgr(sample_reducible(2, 1, 3, seed=seed)) == 2
    # forced repeated factor: L^2 * M has rank one
    ring = PolyRing(4)
    L = parse_polynomial("x0 - 2*x1", ring=ring)
    M = parse_polynomial("x2 + x3", ring=ring)
    assert sgr(L * L * M) == 1
    # the small CW form is itself a reducible sample shape
    assert sgr(small_cw(2, 2)) == 2


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

def test_discriminant_values():
    assert binary_cubic_discriminant(1, 0, 0, 1) == -27
    assert binary_cubic_discriminant(0, 1, 0, 0) == 0
    assert binary_cubic_discriminant(1, 0, 0, 0) == 0
    assert binary_cubic_discriminant(Fraction(1, 2), 0, 0, 1) == Fraction(-27, 4)


def test_discriminant_iff_rank_at_most_one():
    rng = random.Random(51)
    ring = PolyRing(2)
    for _ in range(120):
        a = [rng.randint(-5, 5) for _ in range(4)]
        if not any(a):
            continue
        f = ring.from_dict({(3, 0): a[0], (2, 1): a[1], (1, 2): a[2], (0, 3): a[3]})
        disc = binary_cubic_discriminant(*a)
        assert (disc == 0) == (sgr(f) <= 1)


def test_discriminant_vanishes_on_squares():
    # (a x + b y)^2 (c x + d y) always has zero discriminant
    rng = random.Random(52)
    ring = PolyRing(2)
    for _ in range(40):
        L = linear_form(ring, [rng.randint(-4, 4), rng.randint(-4, 4)])
        M = linear_form(ring, [rng.randint(-4, 4), rng.randint(-4, 4)])
        if L.is_zero() or M.is_zero():
            continue
        f = L * L * M
        a = [f.coefficient(m) for m in ((3, 0), (2, 1), (1, 2), (0, 3))]
        assert binary_cubic_discriminant(*a) == 0


# ---------------------------------------------------------------------------
# lines and tangency
# ---------------------------------------------------------------------------

def test_projective_line_validation():
    ProjectiveLine([1, 0, 0], [0, 1, 0])
    with pytest.raises(InvalidInputError):
        ProjectiveLine([1, 2, 0], [2, 4, 0])  # proportional
    with pytest.raises(InvalidInputError):
        ProjectiveLine([0, 0, 0], [1, 0, 0])


def test_random_line_needs_a_projective_line_or_more():
    # one coordinate never spans a line, so n < 1 must raise, not retry forever
    rng = random.Random(0)
    for n in (0, -1):
        with pytest.raises(InvalidInputError):
            ProjectiveLine.random(rng, n)
    assert ProjectiveLine.random(rng, 1).ambient == 1


def test_restriction_rejects_non_homogeneous_forms():
    line = ProjectiveLine([1, 0], [0, 1])
    assert restrict_to_line(parse_polynomial("x0^2 + x1^2"), line) == [1, 0, 1]
    with pytest.raises(InvalidInputError):
        restrict_to_line(parse_polynomial("x0^2 + x1"), line)


def test_restriction_matches_evaluation():
    rng = random.Random(53)
    ring = PolyRing(3)
    for _ in range(40):
        terms = {}
        for _ in range(4):
            mono = [0, 0, 0]
            for _ in range(3):
                mono[rng.randrange(3)] += 1
            terms[tuple(mono)] = rng.randint(-4, 4)
        f = ring.from_dict(terms)
        if f.is_zero():
            continue
        line = ProjectiveLine.random(rng, 2)
        coeffs = restrict_to_line(f, line)
        for _ in range(4):
            s, t = rng.randint(-3, 3), rng.randint(-3, 3)
            point = [s * p + t * q for p, q in zip(line.p, line.q)]
            direct = f.evaluate(point)
            via = sum(c * Fraction(s) ** i * Fraction(t) ** (len(coeffs) - 1 - i)
                      for i, c in enumerate(coeffs))
            assert direct == via


def test_tangency_double_point():
    # V(x0^2 x1): any line crossing the double plane x0 = 0 away from the
    # other component meets it with multiplicity two
    f = parse_polynomial("x0^2*x1", nvars=3)
    line = ProjectiveLine([1, 1, 0], [0, 1, 1])
    assert line_tangency(f, line) is Tangency.TANGENT


def test_tangency_smooth_conic_generic_line():
    f = parse_polynomial("x0^2 + x1^2 + x2^2", nvars=3)
    line = ProjectiveLine([1, 0, 0], [0, 1, 1])
    # restriction s^2 + 2 t^2: distinct roots
    assert line_tangency(f, line) is Tangency.NOT_TANGENT


def test_tangency_contained_line():
    f = parse_polynomial("x0^2*x1", nvars=3)
    line = ProjectiveLine([0, 1, 0], [0, 0, 1])  # inside x0 = 0
    assert line_tangency(f, line) is Tangency.CONTAINED


def test_tangency_root_at_infinity():
    # restriction to the line through e0, e1 of x1^2*x2 - like forms:
    # pick F with a double root at the first point of the line
    f = parse_polynomial("x1^2*x2", nvars=3)
    line = ProjectiveLine([1, 0, 0], [0, 1, 1])
    # F(s e0 + t(e1+e2)) = t^3: triple root at t = 0? no: root at (1:0)
    assert line_tangency(f, line) is Tangency.TANGENT


def test_rank_one_forms_touch_every_line():
    rng = random.Random(54)
    for seed in range(8):
        f = sample_tangential(2, seed=seed)
        for _ in range(12):
            line = ProjectiveLine.random(rng, 2)
            assert line_tangency(f, line) in (Tangency.TANGENT, Tangency.CONTAINED)


def test_smooth_cubics_miss_some_line():
    rng = random.Random(56)
    smooth = parse_polynomial("x0^3 + x1^3 + x2^3 + x0*x1*x2", nvars=3)
    assert sgr(smooth) == 3
    found = False
    for _ in range(20):
        line = ProjectiveLine.random(rng, 2)
        if line_tangency(smooth, line) is Tangency.NOT_TANGENT:
            found = True
            break
    assert found


def test_line_and_form_must_share_a_field():
    fp = PrimeField(7)
    cubic = "x0^3 + x1^3 + x2^3"
    with pytest.raises(DimensionMismatchError):
        line_tangency(parse_polynomial(cubic, field=fp), ProjectiveLine([1, 0, 0], [0, 1, 1]))
    # (1, 9, 0) is (1, 2, 0) mod 7: a silent reduction would restrict to another line
    fp_line = ProjectiveLine([1, 9, 0], [0, 0, 1], field=fp)
    with pytest.raises(DimensionMismatchError):
        restrict_to_line(parse_polynomial(cubic), fp_line)
    with pytest.raises(DimensionMismatchError):
        line_tangency(parse_polynomial(cubic), fp_line)


def test_tangency_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        line_tangency(PolyRing(3).zero(), ProjectiveLine([1, 0, 0], [0, 1, 0]))
    with pytest.raises(InvalidInputError):
        line_tangency(parse_polynomial("x0 + x1", nvars=3),
                      ProjectiveLine([1, 0, 0], [0, 1, 0]))


def test_tangency_agrees_with_cubic_discriminant():
    # engine-free oracle: a non-contained line is tangent to a cubic exactly
    # when the restricted binary cubic has a repeated root
    rng = random.Random(3)
    counts = {Tangency.TANGENT: 0, Tangency.NOT_TANGENT: 0, Tangency.CONTAINED: 0}
    for i in range(400):
        if i % 2:
            f = _random_symmetric_cubic(rng, 2).to_polynomial()
        else:
            f = sample_tangential(2, seed=i)
        line = ProjectiveLine.random(rng, 2)
        res = line_tangency(f, line)
        counts[res] += 1
        if res is not Tangency.CONTAINED:
            disc = binary_cubic_discriminant(*reversed(restrict_to_line(f, line)))
            assert (res is Tangency.TANGENT) == (disc == 0)
    assert counts[Tangency.TANGENT] >= 100 and counts[Tangency.NOT_TANGENT] >= 100


@pytest.mark.parametrize("p, form, expected", [
    (2, "x0^2 + x1^2", Tangency.TANGENT),        # (x0 + x1)^2
    (2, "x0*x1", Tangency.NOT_TANGENT),
    (2, "x0^3 + x1^3", Tangency.NOT_TANGENT),    # (x0 + x1)(x0^2 + x0*x1 + x1^2)
    (3, "x0^3 + x1^3", Tangency.TANGENT),        # (x0 + x1)^3
    (3, "x0^2*x1 + x0*x1^2", Tangency.NOT_TANGENT),
])
def test_tangency_in_small_characteristic(p, form, expected):
    # p at most the degree: the singular ideal is rejected here, so tangency
    # must not go through sgr
    fp = PrimeField(p)
    line = ProjectiveLine([1, 0], [0, 1], field=fp)
    assert line_tangency(parse_polynomial(form, field=fp), line) is expected
