"""Groebner engine tests: bases, reduction, membership and dimension."""

import random

import pytest

from sgrank import groebner
from sgrank.errors import ComputationTimeout, InvalidInputError
from sgrank.groebner import (
    GBStats,
    Ideal,
    _Overflow,
    _Packing,
    buchberger,
    ideal_dimension,
    ideal_membership,
    is_reduced_groebner_basis,
    normal_form,
    s_polynomial,
)
from sgrank.polyring import GREVLEX, LEX, PolyRing, PrimeField, QQ, parse_polynomial
from sgrank.rank import matrix_rank, singular_ideal
from sgrank.tensor import big_cw, complete_homogeneous_cubic, sym_matrix_mult

FP = PrimeField(2**31 - 1)


def P(text, nvars=None, **kw):
    return parse_polynomial(text, nvars=nvars, **kw)


# ---------------------------------------------------------------------------
# normal_form
# ---------------------------------------------------------------------------

def test_normal_form_divisible():
    r = PolyRing(2)
    assert normal_form(P("x0^2*x1", ring=r), [P("x0^2", ring=r)]).is_zero()


def test_normal_form_no_division():
    r = PolyRing(2)
    f = P("x0^2", ring=r)
    assert normal_form(f, [P("x1", ring=r)]) == f


def test_normal_form_hand_division():
    r = PolyRing(2)
    assert normal_form(P("x0*x1 + x1^2", ring=r), [P("x0 + x1", ring=r)]).is_zero()


def test_normal_form_remainder_property():
    # no term of the remainder is divisible by any leading term
    rng = random.Random(4)
    ring = PolyRing(3)
    for _ in range(100):
        f = _random_poly(rng, ring)
        gs = [g for g in (_random_poly(rng, ring) for _ in range(2)) if not g.is_zero()]
        if not gs:
            continue
        rem = normal_form(f, gs)
        leads = [g.leading_monomial() for g in gs]
        for m in rem.terms:
            for lm in leads:
                assert not all(a <= b for a, b in zip(lm, m))


def test_normal_form_mod_p_matches_rational():
    # Coefficients in -5..5 collide mod 7, so the prime-field kernel meets
    # real cancellations.  Division is linear in f and every lead coefficient
    # is a unit mod 7, so reducing mod 7 commutes with taking the remainder.
    f7 = PrimeField(7)
    rng = random.Random(4)
    ring = PolyRing(3)
    cases = 0
    for _ in range(300):
        f = _random_poly(rng, ring)
        gs = [g for g in (_random_poly(rng, ring) for _ in range(3)) if not g.is_zero()]
        if not gs:
            continue
        rem = normal_form(f.convert_field(f7), [g.convert_field(f7) for g in gs])
        assert normal_form(f, gs).convert_field(f7) == rem
        assert all(1 <= c < 7 for c in rem.terms.values())
        cases += 1
    assert cases > 250


def _random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = rng.randint(-5, 5)
    return ring.from_dict(terms)


# ---------------------------------------------------------------------------
# buchberger
# ---------------------------------------------------------------------------

def test_monomial_ideal_is_its_own_basis():
    r = PolyRing(2)
    gb = buchberger([P("x0^2", ring=r), P("x0*x1", ring=r)])
    assert {str(g) for g in gb} == {"x0^2", "x0*x1"}


def test_one_spair_reduction():
    r = PolyRing(2)
    gb = buchberger([P("x0^2 + x1^2", ring=r), P("x0*x1", ring=r)])
    assert {str(g) for g in gb} == {"x0^2 + x1^2", "x0*x1", "x1^3"}
    assert is_reduced_groebner_basis(gb)


def test_jacobian_of_squared_line():
    r = PolyRing(2)
    f = P("x0^2*x1", ring=r)
    gb = buchberger([f.partial_derivative(0), f.partial_derivative(1)])
    assert {str(g) for g in gb} == {"x0^2", "x0*x1"}  # monic


def test_basis_deterministic():
    rng = random.Random(17)
    ring = PolyRing(3)
    for _ in range(20):
        gens = [g for g in (_random_poly(rng, ring) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        a = buchberger(gens)
        b = buchberger(list(reversed(gens)))
        assert list(a) == list(b)  # reduced basis is unique


def test_random_bases_are_reduced_and_contain_generators():
    rng = random.Random(23)
    for field in (QQ, FP):
        ring = PolyRing(3, field)
        for _ in range(15):
            gens = [g for g in (_random_poly(rng, ring) for _ in range(3)) if not g.is_zero()]
            if not gens:
                continue
            gb = buchberger(gens)
            if len(gb) <= 30:
                assert is_reduced_groebner_basis(gb)
            for g in gens:
                assert ideal_membership(g, gb)


def test_spolynomial_matches_definition():
    r = PolyRing(2)
    f = P("x0^2 + x1^2", ring=r)
    g = P("x0*x1", ring=r)
    s = s_polynomial(f, g)
    assert s == P("x1^3", ring=r)


def test_unit_ideal():
    r = PolyRing(2)
    gb = buchberger([P("x0", ring=r), P("x0 + 1", ring=r)])
    assert gb.is_unit_ideal
    assert ideal_dimension(gb) == -1


def test_zero_ideal_rejected():
    r = PolyRing(2)
    with pytest.raises(InvalidInputError):
        buchberger([r.zero()])
    with pytest.raises(InvalidInputError):
        Ideal([])


def test_ideal_drops_zero_generators():
    r = PolyRing(2)
    ideal = Ideal([r.zero(), P("x0", ring=r)])
    assert len(ideal) == 1


def test_membership_examples():
    r = PolyRing(2)
    gb = buchberger([P("x0", ring=r)])
    assert ideal_membership(P("x0^2", ring=r), gb)
    assert not ideal_membership(P("x1", ring=r), gb)


def test_membership_squared_linear_forms():
    # L^2 lies in (L^2, L*M) for independent linear forms L, M
    r = PolyRing(3)
    L = P("x0 + x1", ring=r)
    M = P("x2", ring=r)
    gb = buchberger([L * L, L * M])
    assert ideal_membership(L * L, gb)


def test_later_seed_retires_earlier_seed():
    # x0*x1*x2 + x2 reduces by x0*x2 to x2, whose lead divides x0*x2
    r = PolyRing(3)
    gb = buchberger([P("x0*x2", ring=r), P("x0*x1*x2 + x2", ring=r)])
    assert list(gb) == [P("x2", ring=r)]


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_linear_seeds_give_reduced_row_echelon_form(field):
    # Dense linear forms that all lead with x0: the reduced basis is the
    # reduced row-echelon form of their coefficients.  The leading 4x4 minor
    # is nonzero and below 4! * 9^4 < p, so x0..x3 are the pivots in both fields.
    rng = random.Random(5)
    n, k = 6, 4
    ring = PolyRing(n, field)
    rows = [[0] * n]
    while matrix_rank([r[:k] for r in rows]) < k:
        rows = [[rng.randint(1, 9) for _ in range(n)] for _ in range(k)]
    a = [[field.convert(c) for c in r] for r in rows]
    for i in range(k):  # Gauss-Jordan
        piv = next(r for r in range(i, k) if a[r][i] != field.zero)
        a[i], a[piv] = a[piv], a[i]
        inv = field.inv(a[i][i])
        a[i] = [field.mul(inv, x) for x in a[i]]
        for r in range(k):
            if r != i:
                f = a[r][i]
                a[r] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[r], a[i])]

    def linear(row):
        return sum((c * x for c, x in zip(row, ring.gens())), ring.zero())

    gb = buchberger([linear(r) for r in rows])
    assert list(gb) == [linear(r) for r in a]


def test_poll_cancellation():
    r = PolyRing(3)
    gens = [
        P("x0^2 + x1^2 + x2^2", ring=r),
        P("x0*x1 + x1*x2", ring=r),
        P("x0*x2 + x1^2", ring=r),
    ]

    def poll(stats):
        if stats.pairs_done == 0:
            return  # seed interreduction; cancel from the pair loop
        raise ComputationTimeout("stop", basis_size=stats.basis_size,
                                 pairs_done=stats.pairs_done, pairs_left=stats.pairs_left)

    with pytest.raises(ComputationTimeout):
        buchberger(gens, poll=poll, poll_every=1)


def test_poll_fires_during_seed_interreduction():
    r = PolyRing(3)
    gens = [
        P("x0^2 + x1^2 + x2^2", ring=r),
        P("x0*x1 + x1*x2", ring=r),
        P("x0*x2 + x1^2", ring=r),
    ]
    seen = []

    def poll(stats):
        seen.append(stats)
        raise ComputationTimeout("stop", basis_size=stats.basis_size,
                                 pairs_done=stats.pairs_done, pairs_left=stats.pairs_left)

    with pytest.raises(ComputationTimeout):
        buchberger(gens, poll=poll, poll_every=1)
    assert len(seen) == 1 and seen[0].pairs_done == 0 and seen[0].basis_size == 3


def test_poll_cancels_final_interreduction():
    # poll_every exceeds the pair count, so only the once-per-element poll of
    # the final interreduction can fire
    r = PolyRing(3)
    gens = [
        P("x0^2 + x1^2 + x2^2", ring=r),
        P("x0*x1 + x1*x2", ring=r),
        P("x0*x2 + x1^2", ring=r),
    ]
    seen = []

    def poll(stats):
        seen.append(stats)
        raise ComputationTimeout("stop", basis_size=stats.basis_size,
                                 pairs_done=stats.pairs_done, pairs_left=stats.pairs_left)

    with pytest.raises(ComputationTimeout):
        buchberger(gens, poll=poll, poll_every=10**6)
    assert len(seen) == 1 and seen[0].pairs_left == 0 and seen[0].pairs_done >= 1


@pytest.mark.parametrize("form, counts", [
    (lambda: sym_matrix_mult(3).convert_field(FP), (95, 57, 25)),
    (lambda: complete_homogeneous_cubic(5).to_polynomial(), (177, 60, 43)),
    (lambda: big_cw(2, 3).to_polynomial(), (4, 3, 4)),
], ids=["sym_matrix_mult-3-Fp", "h3-5-QQ", "big_cw-2-3-QQ"])
def test_engine_counts_pinned(form, counts):
    # (pairs reduced, peak queued pairs, basis size) guard the pair-selection
    # order and the criteria against engine changes
    done = [0]
    peak = [0]

    def poll(stats):
        done[0] = max(done[0], stats.pairs_done)
        peak[0] = max(peak[0], stats.pairs_left)

    gb = buchberger(singular_ideal(form()), poll=poll, poll_every=1)
    assert (done[0], peak[0], len(gb)) == counts


# ---------------------------------------------------------------------------
# Packed exponent vectors
# ---------------------------------------------------------------------------

def _random_monomials(rng, nvars, count, top):
    """Random exponent tuples with total degree at most top."""
    return [tuple(rng.randint(0, top // nvars) for _ in range(nvars)) for _ in range(count)]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_pack_unpack_roundtrip(order):
    rng = random.Random(21)
    for nvars, width in ((1, 8), (4, 8), (16, 8), (5, 16)):
        pk = _Packing(nvars, order, width)
        for m in _random_monomials(rng, nvars, 200, pk.top):
            p = pk.pack(m)
            assert p & pk.guard == 0
            assert pk.unpack(p) == m


def test_packed_key_matches_order():
    # the packed key sorts exactly like order.key, ties (repeated monomials) included
    rng = random.Random(10)
    for order in (GREVLEX, LEX):
        for nvars, width in ((3, 8), (4, 8), (6, 16)):
            pk = _Packing(nvars, order, width)
            monos = [tuple(rng.randint(0, 4) for _ in range(nvars)) for _ in range(300)]
            monos += _random_monomials(rng, nvars, 100, pk.top)
            by_key = sorted(monos, key=order.key)
            by_packed = sorted(monos, key=lambda m: pk.key(pk.pack(m)))
            assert by_key == by_packed


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_packed_divisibility_matches_fieldwise(order):
    rng = random.Random(22)
    overflows = 0
    # the last three draw exponents near top, so some lcms outgrow the fields
    for nvars, hi in ((3, 3), (4, 31), (8, 2), (1, 127), (2, 100), (3, 90)):
        pk = _Packing(nvars, order, 8)
        monos = [tuple(rng.randint(0, hi) for _ in range(nvars)) for _ in range(200)]
        monos = [m for m in monos if sum(m) <= pk.top][:80]
        for a in monos:
            pa = pk.pack(a)
            for b in monos:
                pb = pk.pack(b)
                fieldwise = all(x <= y for x, y in zip(a, b))
                assert ((pb - pa) & pk.guard == 0) == fieldwise
                lcm = tuple(map(max, a, b))
                if sum(lcm) > pk.top:
                    overflows += 1
                    with pytest.raises(_Overflow):
                        pk.lcm(pa, pb)
                    continue
                pl = pk.lcm(pa, pb)
                assert pk.unpack(pl) == lcm
                assert pk.degree(pl) == sum(lcm)
                assert pl == pk.pack(lcm)
    assert overflows


def test_pack_overflow_is_detected():
    pk = _Packing(3, GREVLEX, 8)
    with pytest.raises(_Overflow):
        pk.pack((100, 20, 8))  # degree 128 does not fit 7 value bits
    a, b = pk.pack((100, 0, 0)), pk.pack((0, 27, 1))
    assert (a + b) & pk.guard  # degree 128 sets the degree field's guard bit
    with pytest.raises(_Overflow):
        pk.lcm(a, b)  # lcm (100, 27, 1) has degree 128, above both leads'
    assert pk.degree(pk.lcm(a, pk.pack((0, 27, 0)))) == pk.top


def test_lex_overflow_widens(monkeypatch):
    # the input fits 8-bit fields, the basis (x1^400) does not
    widths = []

    class RecordingPacking(_Packing):
        __slots__ = ()

        def __init__(self, nvars, order, width):
            widths.append(width)
            super().__init__(nvars, order, width)

    monkeypatch.setattr(groebner, "_Packing", RecordingPacking)
    r = PolyRing(3, order=LEX)
    gb = buchberger([P("x0 - x1^100", ring=r), P("x0^4 - x2", ring=r)])
    assert set(gb) == {P("x0 - x1^100", ring=r), P("x1^400 - x2", ring=r)}
    assert widths == [8, 16]
    # a remainder that outgrows the fields while dividing
    del widths[:]
    assert normal_form(P("x0^3", ring=r), [P("x0 - x1^100", ring=r)]) == P("x1^300", ring=r)
    assert widths == [8, 16]


# ---------------------------------------------------------------------------
# ideal_dimension
# ---------------------------------------------------------------------------

def test_dimension_linear_ideal():
    r = PolyRing(3)
    gb = buchberger([P("x0", ring=r), P("x1", ring=r)])
    assert ideal_dimension(gb) == 1


def test_dimension_powers():
    # (x1^2, ..., xk^2) in n+1 variables has dimension n+1-k
    for nvars in range(2, 6):
        for k in range(1, nvars):
            r = PolyRing(nvars)
            gens = [P(f"x{i}^2", ring=r) for i in range(1, k + 1)]
            assert ideal_dimension(buchberger(gens)) == nvars - k


def test_dimension_case_split_example():
    r = PolyRing(4)
    gb = buchberger([P("x0*x2", ring=r), P("x0*x3 + x1*x2", ring=r)])
    assert ideal_dimension(gb) == 2


def _dimension_bruteforce(supports, nvars):
    """Independent oracle: try all 2^nvars variable subsets.  Each support
    is an int bitmask, bit i standing for x_i."""
    best = -1
    for mask in range(1 << nvars):
        k = mask.bit_count()
        if k > best and all(s & mask != s for s in supports):
            best = k
    return best


def test_dimension_against_bruteforce():
    rng = random.Random(55)
    for _ in range(150):
        nvars = rng.randint(2, 6)
        ring = PolyRing(nvars)
        monos = []
        for _ in range(rng.randint(1, 6)):
            m = [0] * nvars
            for _ in range(rng.randint(1, 3)):
                m[rng.randrange(nvars)] += 1
            monos.append(tuple(m))
        monos = [m for m in monos if any(m)]
        if not monos:
            continue
        gb = buchberger([ring.from_dict({m: 1}) for m in monos])
        supports = [sum(1 << i for i, e in enumerate(m) if e) for m in monos]
        assert ideal_dimension(gb) == _dimension_bruteforce(supports, nvars)


def _random_supports(rng, nvars):
    """Supports of 1-4 variables, with duplicates and supersets mixed in."""
    supports = []
    for _ in range(rng.randint(1, 2 * nvars)):
        roll = rng.random()
        if supports and roll < 0.15:
            supports.append(rng.choice(supports))
        elif supports and roll < 0.3:
            supports.append(rng.choice(supports) | 1 << rng.randrange(nvars))
        else:
            width = rng.randint(1, min(4, nvars))
            supports.append(sum(1 << v for v in rng.sample(range(nvars), width)))
    return supports


def test_dimension_against_bruteforce_up_to_16_variables():
    rng = random.Random(509)
    for _ in range(300):
        nvars = rng.randint(1, 16)
        supports = _random_supports(rng, nvars)
        want = _dimension_bruteforce(supports, nvars)
        # the search itself sees the duplicate and non-minimal supports
        assert nvars - groebner._min_hitting_set_size(supports, nvars) == want
        ring = PolyRing(nvars)
        gens = [
            ring.from_dict({tuple(rng.randint(1, 2) if s >> i & 1 else 0 for i in range(nvars)): 1})
            for s in supports
        ]
        assert ideal_dimension(buchberger(gens)) == want


def _edge_ideal_basis(nvars, width, perm):
    """Basis of the ideal of windows x_i*...*x_{i+width-1} (indices mod
    nvars), relabelled by perm; width 2 is the cycle edge ideal."""
    r = PolyRing(nvars)
    gens = [
        P("*".join(f"x{perm[(i + s) % nvars]}" for s in range(width)), ring=r)
        for i in range(nvars)
    ]
    return buchberger(gens)


def _cycle_basis(nvars):
    """Basis of the cycle edge ideal (x0*x1, x1*x2, ..., x_{n-1}*x0)."""
    return _edge_ideal_basis(nvars, 2, range(nvars))


def test_dimension_of_relabelled_edge_ideals():
    # An independent set of the 33-cycle has at most 16 vertices; the 33
    # windows of width 3 need 11 vertices to hit them.
    rng = random.Random(33)
    for width, dim in ((2, 16), (3, 22)):
        for _ in range(4):
            perm = list(range(33))
            rng.shuffle(perm)
            assert ideal_dimension(_edge_ideal_basis(33, width, perm)) == dim


def test_poll_cancels_dimension_search():
    gb = _cycle_basis(33)
    seen = []

    def poll(stats):
        seen.append(stats)
        if len(seen) == 50:
            raise ComputationTimeout("stop")

    with pytest.raises(ComputationTimeout):
        ideal_dimension(gb, poll=poll)
    assert len(seen) == 50
    assert set(seen) == {GBStats(33, 0, 0)}
    # a poll that does not raise leaves the answer alone
    del seen[:]
    assert ideal_dimension(_cycle_basis(21), poll=seen.append) == 10
    assert seen


def test_dimension_field_and_order_stability():
    rng = random.Random(71)
    ring_q = PolyRing(3, QQ, GREVLEX)
    for _ in range(25):
        gens = [g for g in (_random_poly(rng, ring_q) for _ in range(3)) if not g.is_zero()]
        if not gens:
            continue
        d_q = ideal_dimension(buchberger(gens))
        d_p = ideal_dimension(buchberger([g.convert_field(FP) for g in gens]))
        d_l = ideal_dimension(buchberger([g.convert_order(LEX) for g in gens]))
        assert d_q == d_p == d_l
