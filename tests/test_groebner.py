"""Groebner engine tests: bases, reduction, membership and dimension."""

import gc
import hashlib
import itertools
import math
import random
import sys
from fractions import Fraction

import pytest

from sgrank import groebner
from sgrank.errors import ComputationTimeout, InvalidInputError
from sgrank.groebner import (
    GBStats,
    Ideal,
    _Overflow,
    _Packing,
    _chain_criterion,
    buchberger,
    ideal_dimension,
    ideal_membership,
    normal_form,
    s_polynomial,
)
from sgrank.polyring import GREVLEX, LEX, PolyRing, PrimeField, QQ, parse_polynomial
from sgrank.rank import gr_details, matrix_rank, singular_ideal
from sgrank.tensor import GeneralTensor, big_cw, complete_homogeneous_cubic, sym_matrix_mult
from sgrank.verify import (
    _dimension_bruteforce,
    _random_symmetric_cubic,
    _textbook_buchberger,
    _textbook_systems,
)

FP = PrimeField(2**31 - 1)


def P(text, nvars=None, **kw):
    return parse_polynomial(text, nvars=nvars, **kw)


def is_reduced_groebner_basis(basis) -> bool:
    """Check the defining properties: S-polynomials reduce to zero, elements
    are monic, and no term is divisible by another element's lead."""
    polys = list(basis)
    if not polys:
        return False
    ring = polys[0].ring
    field = ring.field
    for g in polys:
        if g.is_zero() or g.leading_coefficient() != field.one:
            return False
    leads = [g.leading_monomial() for g in polys]
    for i, g in enumerate(polys):
        for m in g.terms:
            for j, lm in enumerate(leads):
                if i == j:
                    continue
                if all(a <= b for a, b in zip(lm, m)):
                    return False
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if not normal_form(s_polynomial(polys[i], polys[j]), polys).is_zero():
                return False
    return True


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


def _textbook_remainder(f, divisors):
    """Multivariate division on Fraction dicts (Cox, Little & O'Shea, 2.3),
    trying the divisors smallest lead first, as normal_form does."""
    key = f.ring.order.key
    gs = sorted((g for g in divisors if not g.is_zero()), key=lambda g: key(g.leading_monomial()))
    p = dict(f.terms)
    rem = {}
    while p:
        lt = max(p, key=key)
        for g in gs:
            lg = g.leading_monomial()
            if all(a >= b for a, b in zip(lt, lg)):
                q = p[lt] / g.leading_coefficient()
                shift = [a - b for a, b in zip(lt, lg)]
                for m, c in g.terms.items():
                    mm = tuple(a + b for a, b in zip(m, shift))
                    v = p.get(mm, 0) - q * c
                    if v:
                        p[mm] = v
                    else:
                        p.pop(mm, None)
                break
        else:
            rem[lt] = p.pop(lt)
    return rem


def _random_rational_poly(rng, ring, nterms, max_deg, bound=12):
    terms = {}
    for _ in range(nterms):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = Fraction(rng.randint(-bound, bound), rng.randint(1, bound))
    return ring.from_dict(terms)


def _dense_rational_poly(rng, ring, deg, bound):
    terms = {}
    for m in itertools.product(range(deg + 1), repeat=ring.nvars):
        if sum(m) <= deg:
            terms[m] = Fraction(rng.randint(-bound, bound) or 1, rng.randint(1, bound))
    return ring.from_dict(terms)


@pytest.mark.parametrize("order", [GREVLEX, LEX])
def test_rational_normal_form_matches_textbook_division(order):
    rng = random.Random(11)
    ring = PolyRing(3, order=order)
    for _ in range(150):
        f = _random_rational_poly(rng, ring, rng.randint(0, 6), 3)
        gs = [_random_rational_poly(rng, ring, rng.randint(1, 5), 3) for _ in range(rng.randint(1, 3))]
        rem = normal_form(f, gs)
        assert rem.terms == _textbook_remainder(f, gs)
        assert all(type(c) is Fraction for c in rem.terms.values())
    # Dense inputs with 20-bit coefficients: f passes through dozens of
    # reduction steps, and the working entries grow past several hundred
    # bits over unlike denominators.
    for deg in (5, 6, 7):
        f = _dense_rational_poly(rng, ring, deg, 10**6)
        gs = [_dense_rational_poly(rng, ring, 2, 10**6) for _ in range(2)]
        rem = normal_form(f, gs)
        assert rem.terms == _textbook_remainder(f, gs)
        assert all(type(c) is Fraction for c in rem.terms.values())
        assert max(c.denominator.bit_length() for c in rem.terms.values()) > 300


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

@pytest.mark.parametrize("gens, field, order, want, dim", [
    (["x0*x1", "x0^2"], QQ, GREVLEX, ["x0^2", "x0*x1"], 1),
    (["-3*x0*x1", "2/5*x0^2"], QQ, GREVLEX, ["x0^2", "x0*x1"], 1),
    (["-3*x0*x1", "2/5*x0^2"], FP, GREVLEX, ["x0^2", "x0*x1"], 1),
    (["x0^2", "x0*x1", "7*x0*x1", "x0^2"], QQ, GREVLEX, ["x0^2", "x0*x1"], 1),
    (["x0^3*x1", "x0*x1", "x0^2", "x0^2*x1^4", "x0^5"], QQ, GREVLEX, ["x0^2", "x0*x1"], 1),
    (["x0^2", "-4", "x1"], QQ, GREVLEX, ["1"], -1),
    (["x0^2", "-4", "x1"], FP, LEX, ["1"], -1),
    (["x1^3", "x0*x1", "x0*x1^5", "x0^2"], QQ, LEX, ["x0^2", "x0*x1", "x1^3"], 0),
], ids=["plain", "scaled", "scaled-Fp", "duplicate", "non-minimal", "constant",
        "constant-lex-Fp", "lex"])
def test_monomial_ideal_is_its_own_basis(gens, field, order, want, dim):
    # the minimal generators, monic, largest lead first
    r = PolyRing(2, field, order)
    gb = buchberger([P(g, ring=r) for g in gens])
    assert list(gb) == [P(g, ring=r) for g in want]
    assert gb.is_unit_ideal == (dim == -1)
    assert ideal_dimension(gb) == dim


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


def _textbook_spoly(f, g):
    """lcm/LT(f) * f - lcm/LT(g) * g, in plain Polynomial arithmetic."""
    ring = f.ring
    lcm = tuple(map(max, f.leading_monomial(), g.leading_monomial()))

    def lift(p):
        u = tuple(a - b for a, b in zip(lcm, p.leading_monomial()))
        return ring.from_dict({u: ring.field.inv(p.leading_coefficient())}) * p

    return lift(f) - lift(g)


@pytest.mark.parametrize("field, order", [(QQ, GREVLEX), (FP, GREVLEX), (QQ, LEX)],
                         ids=["QQ", "Fp", "lex-QQ"])
def test_spolynomial_matches_textbook_definition(field, order):
    # Non-monic inputs with rational coefficients.  Most g are a multiple of
    # f plus a few terms, so the shifted tails share monomials: some cancel
    # outright, some only partly.
    rng = random.Random(31)
    ring = PolyRing(3, field, order)

    def poly(count):
        return ring.from_dict({
            tuple(rng.randint(0, 2) for _ in range(3)): Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for _ in range(count)
        })

    shared = 0
    for _ in range(300):
        f = poly(rng.randint(1, 6))
        g = poly(rng.randint(0, 3))
        if rng.random() < 0.7:
            g = g + poly(1) * f
        if f.is_zero() or g.is_zero():
            continue
        s = s_polynomial(f, g)
        assert s == _textbook_spoly(f, g)
        assert all(c != field.zero for c in s.terms.values())
        shared += len(s) < len(f) + len(g) - 2
    assert shared > 100


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
            return  # seed step; cancel from the pair loop
        raise ComputationTimeout("stop", basis_size=stats.basis_size,
                                 pairs_done=stats.pairs_done, pairs_left=stats.pairs_left)

    with pytest.raises(ComputationTimeout):
        buchberger(gens, poll=poll, poll_every=1)


def test_poll_fires_during_seed_step():
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


def test_poll_fires_during_tail_rewrite():
    # poll_every exceeds every count, so only the once-per-tail poll of the
    # update can fire: the second seed reduces to lead x1^2, which divides a
    # tail term of the first
    r = PolyRing(3)
    gens = [P("x0^2 + x1^2 + x2^2", ring=r), P("x1*x2 + x0^2", ring=r)]
    seen = []
    gb = buchberger(gens, poll=seen.append, poll_every=10**6)
    assert seen == [GBStats(2, 0, 0)]
    assert list(gb) == [P("x0^2 + x1*x2", ring=r), P("x1^2 - x1*x2 + x2^2", ring=r)]
    assert list(buchberger(gens)) == list(gb)


def test_poll_stops_a_monomial_ideal():
    # 330 quartics and 1,716 sextics in 8 variables; every sextic is a
    # multiple of a quartic, so the basis is the quartics
    r = PolyRing(8)
    gens = [
        r.from_dict({tuple(map(c.count, range(8))): 1})
        for d in (6, 4)
        for c in itertools.combinations_with_replacement(range(8), d)
    ]
    assert len(gens) == 2046
    seen = []

    def poll(stats):
        seen.append(stats)
        if len(seen) == 3:
            raise ComputationTimeout("stop", basis_size=stats.basis_size,
                                     pairs_done=stats.pairs_done, pairs_left=stats.pairs_left)

    with pytest.raises(ComputationTimeout):
        buchberger(gens, poll=poll, poll_every=100)
    assert seen == [GBStats(2046, 0, 0)] * 3
    # a poll that does not raise is called every 100 generators
    del seen[:]
    gb = buchberger(gens, poll=seen.append, poll_every=100)
    assert len(seen) == 20
    assert len(gb) == 330 and {sum(m) for m in gb.leading_monomials()} == {4}


def test_poll_fires_inside_one_long_reduction():
    # x0^5000 takes 5000 steps to reduce by x0 - x1, with no pair and no
    # rewrite to poll between them
    r = PolyRing(2)
    seen = []

    def poll(stats):
        seen.append(stats)
        raise ComputationTimeout("stop", basis_size=stats.basis_size,
                                 pairs_done=stats.pairs_done, pairs_left=stats.pairs_left)

    with pytest.raises(ComputationTimeout):
        buchberger([P("x0 - x1", ring=r), P("x0^5000", ring=r)], poll=poll, poll_every=10**6)
    assert seen == [GBStats(1, 0, 0)]


@pytest.mark.parametrize("form, counts, digest", [
    (lambda: sym_matrix_mult(3).convert_field(FP), (95, 61, 25), "f4f728549ec93dde"),
    (lambda: complete_homogeneous_cubic(5).to_polynomial(), (72, 68, 43), "f40090886b5e2a3b"),
    (lambda: big_cw(2, 3).to_polynomial(), (4, 3, 4), "1b3297379b1ba7d1"),
    # dense, 6 variables, basis coefficients up to 681 bits
    (lambda: _random_symmetric_cubic(random.Random(5), 5).to_polynomial(), (33, 80, 39),
     "cfc9b9d26e55a557"),
    (lambda: sym_matrix_mult(3).convert_order(LEX), (95, 66, 25), "c83eccf283874507"),
    # the engine inputs of the benchmark's trace-m4-fp and h3-n7-qq, unscaled
    (lambda: sym_matrix_mult(4).convert_field(FP), (1318, 682, 161), "9277c25d91267b14"),
    (lambda: complete_homogeneous_cubic(7).to_polynomial(), (302, 294, 122), "6c85d0108d62ddda"),
], ids=["sym_matrix_mult-3-Fp", "h3-5-QQ", "big_cw-2-3-QQ", "random-cubic-5-QQ",
        "sym_matrix_mult-3-lex-QQ", "sym_matrix_mult-4-Fp", "h3-7-QQ"])
def test_engine_counts_pinned(form, counts, digest):
    # (pairs reduced, peak queued pairs, basis size) guard the pair-selection
    # order and the criteria against engine changes; the reduced basis is
    # unique, so its digest guards every coefficient
    done = [0]
    peak = [0]

    def poll(stats):
        done[0] = max(done[0], stats.pairs_done)
        peak[0] = max(peak[0], stats.pairs_left)

    gb = buchberger(singular_ideal(form()), poll=poll, poll_every=1)
    # the lead readout comes before the polynomials exist and matches them
    size, leads, unit = len(gb), gb.leading_monomials(), gb.is_unit_ideal
    assert gb._polys is None
    polys = gb.polys
    assert size == len(polys)
    assert leads == [g.leading_monomial() for g in polys]
    assert unit == (len(polys) == 1 and polys[0].total_degree() == 0)
    assert (done[0], peak[0], len(gb)) == counts
    assert hashlib.sha256("\n".join(map(str, gb)).encode()).hexdigest()[:16] == digest


def _final_stats(gens):
    """The basis and the last GBStats of a run polled at every pair."""
    seen = []
    gb = buchberger(gens, poll=seen.append, poll_every=1)
    return gb, seen[-1]


def _digest(gb):
    return hashlib.sha256("\n".join(map(str, gb)).encode()).hexdigest()


@pytest.mark.parametrize("system", [
    lambda: singular_ideal(complete_homogeneous_cubic(5).to_polynomial()),
    lambda: singular_ideal(complete_homogeneous_cubic(7).to_polynomial()),
    # dense, 5 variables
    lambda: singular_ideal(_random_symmetric_cubic(random.Random(4), 4).to_polynomial()),
    # GR ideals, 4 bilinear forms in 8 variables: complete intersections
    lambda: _textbook_systems()["GR ideal of a dense cubic in 4 vars"][0],
    lambda: _textbook_systems()["GR ideal of normal_form[3], changed variables"][0],
], ids=["h3-5", "h3-7", "random-cubic-5-vars", "gr-dense-cubic-4-vars", "gr-normal-form-3"])
def test_skipped_pairs_reduce_to_zero(system, monkeypatch):
    # the pairs the Hilbert bound drops are exactly pairs the full run reduces
    # to zero: same basis, and every dropped pair is one fewer reduced
    gens = list(system())
    gb, stats = _final_stats(gens)
    monkeypatch.setattr(groebner, "_hilbert_bound", lambda ideal: None)
    plain, plain_stats = _final_stats(gens)
    assert stats.pairs_skipped > 0 and plain_stats.pairs_skipped == 0
    assert plain_stats.pairs_done == stats.pairs_done + stats.pairs_skipped
    assert _digest(gb) == _digest(plain)


def _comparable(entry):
    """A reducer entry with its tail as a dict: tail order carries no meaning."""
    lm, den, tail = entry
    return lm, den, dict(tail)


def _fraction_entry(terms, pk):
    """_entry over the rationals by Fractions: each monic tail coefficient
    reduced, then all put over the lcm of their denominators."""
    lm = max(terms, key=pk.key)
    ln, ld = terms[lm]
    tail = {m: Fraction(n * ld, d * ln) for m, (n, d) in terms.items() if m != lm}
    den = math.lcm(*(c.denominator for c in tail.values()))
    return lm, den, {m: c.numerator * (den // c.denominator) for m, c in tail.items()}


def test_rational_entry_matches_fraction_reference():
    # random working terms: either sign on the lead, (num, den) pairs that
    # share a factor, and tails from empty to 6 terms
    rng = random.Random(21)
    pk = _Packing(PolyRing(3), 8)
    monos = [pk.pack(m) for m in itertools.product(range(3), repeat=3)]
    leads = set()
    for _ in range(400):
        terms = {}
        for m in rng.sample(monos, rng.randint(1, 7)):
            k = rng.randint(1, 6)
            terms[m] = (rng.choice((-1, 1)) * rng.randint(1, 30) * k, rng.randint(1, 30) * k)
        lm, den, tail = entry = groebner._entry(terms, pk)
        assert _comparable(entry) == _fraction_entry(terms, pk)
        leads.add((terms[lm][0] < 0, not tail))
    assert leads == {(False, False), (False, True), (True, False), (True, True)}


def _lead_divides(eh, pk):
    """A find() whose only reducer entry is eh."""
    return lambda m: None if (m - eh[0]) & pk.guard else eh


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_cancel_lead_matches_full_rewrite(field):
    # random g whose tail holds mh and no other multiple of it: the fused
    # subtract of c * tail_h gives the entry the full reduction gives, D and
    # numerators included; g = lm_g + c * h cancels to an empty tail
    rng = random.Random(7)
    ring = PolyRing(3, field)
    pk = _Packing(ring, 8)
    monos = sorted((m for m in itertools.product(range(4), repeat=3) if sum(m) <= 3),
                   key=ring.order.key)

    def coeff():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), rng.randint(1, 40))

    def entry(terms):
        return groebner._entry(pk.pack_terms(ring.from_dict(terms).terms), pk)

    emptied = 0
    for _ in range(200):
        k = rng.randrange(4, len(monos) - 1)
        mh = monos[k]
        h = {m: coeff() for m in rng.sample(monos[:k], 4)}
        h[mh] = coeff()
        lead = rng.choice([m for m in monos[k + 1:] if not all(map(int.__le__, mh, m))])
        g = {m: coeff() for m in rng.sample(monos[:monos.index(lead)], 3)
             if not all(map(int.__le__, mh, m))}
        c = coeff()
        if rng.random() < 0.2:
            g = {m: c * v / h[mh] for m, v in h.items()}
        g[mh] = c
        g[lead] = coeff()
        eg, eh = entry(g), entry(h)
        fast = groebner._cancel_lead(eg, eh, pk)
        full = groebner._rewrite_tail(eg, _lead_divides(eh, pk), pk)
        assert _comparable(fast) == _comparable(full)
        emptied += not fast[2]
    assert emptied


@pytest.mark.parametrize("form", [
    lambda: complete_homogeneous_cubic(5).to_polynomial(),
    lambda: sym_matrix_mult(3).convert_field(FP),
    lambda: _random_symmetric_cubic(random.Random(5), 5).to_polynomial(),
], ids=["h3-5-QQ", "sym_matrix_mult-3-Fp", "random-cubic-5-QQ"])
def test_every_homogeneous_rewrite_is_one_subtract(form, monkeypatch):
    # each rewrite of a homogeneous run cancels the new lead alone, and the
    # fused subtract equals the full reduction by the new element (the
    # bases' digests are pinned in test_engine_counts_pinned)
    cancel, rewrite = groebner._cancel_lead, groebner._rewrite_tail
    done = []

    def checked(entry, eh, pk):
        fast = cancel(entry, eh, pk)
        full = rewrite(entry, _lead_divides(eh, pk), pk)
        assert _comparable(fast) == _comparable(full)
        done.append(entry)
        return fast

    monkeypatch.setattr(groebner, "_cancel_lead", checked)
    monkeypatch.setattr(groebner, "_rewrite_tail",
                        lambda *a: pytest.fail("full tail rewrite in a homogeneous run"))
    buchberger(singular_ideal(form()))
    assert done


@pytest.mark.parametrize("field, order", [(QQ, GREVLEX), (FP, GREVLEX), (QQ, LEX)],
                         ids=["QQ", "Fp", "lex-QQ"])
def test_full_tail_rewrite_on_a_non_homogeneous_system(field, order, monkeypatch):
    # a new lead divides a tail term above itself, so the tail is reduced in
    # full; the basis still matches the textbook algorithm
    rewrite = groebner._rewrite_tail
    calls = []
    monkeypatch.setattr(groebner, "_rewrite_tail", lambda *a: calls.append(a) or rewrite(*a))
    ring = PolyRing(2, field, order)
    gens = [P(t, ring=ring) for t in ("x0^2*x1 - 3", "-x0*x1^2 + 1", "3*x1^2 + 3*x0 - 2*x1")]
    assert list(buchberger(gens)) == _textbook_buchberger(gens)
    assert calls


def test_poll_stops_a_run_while_it_skips():
    # h3 in 9 variables skips 942 pairs; a skipped pair counts toward the
    # poll cadence, so polls fire while nothing is reduced, and raising in
    # any of them stops the run there
    gens = list(singular_ideal(complete_homogeneous_cubic(8).to_polynomial()))
    seen = []
    buchberger(gens, poll=seen.append)
    # polls that skipped pairs alone brought on: 8 more skipped, none reduced
    skipping = [k for k in range(1, len(seen))
                if seen[k].pairs_done == seen[k - 1].pairs_done
                and seen[k].pairs_skipped == seen[k - 1].pairs_skipped + 8]
    assert len(skipping) >= 3
    for k in (skipping[0], skipping[len(skipping) // 2], skipping[-1]):
        calls = []

        def poll(stats):
            calls.append(stats)
            if len(calls) == k + 1:
                raise ComputationTimeout("stop", basis_size=stats.basis_size,
                                         pairs_done=stats.pairs_done, pairs_left=stats.pairs_left)

        with pytest.raises(ComputationTimeout):
            buchberger(gens, poll=poll)
        assert calls == seen[:k + 1]


def _bound_values(gens, top):
    """CI(0), ..., CI(top - 1) of the generators' Hilbert bound."""
    ci = groebner._hilbert_bound(Ideal(gens))
    return [ci(t) for t in range(top)]


def test_hilbert_bound_of_square_homogeneous_systems():
    r = PolyRing(4)
    quadrics = list(singular_ideal(complete_homogeneous_cubic(3).to_polynomial()))
    assert _bound_values(quadrics, 7) == [1, 4, 6, 4, 1, 0, 0]
    # degrees 2 and 3: (1 + z)(1 + z + z^2); a linear form adds a factor 1
    r2 = PolyRing(2)
    assert _bound_values([P("x0^2", ring=r2), P("x0*x1^2", ring=r2)], 6) == [1, 2, 2, 1, 0, 0]
    r3 = PolyRing(3)
    mixed = [P("x0 - x2", ring=r3), P("x1^2", ring=r3), P("x2^3 + x0*x1*x2", ring=r3)]
    assert _bound_values(mixed, 6) == [1, 2, 2, 1, 0, 0]
    # fewer forms than variables (a zero generator is dropped): three
    # quadrics in 4 variables give (1 + z)^3 / (1 - z), which never reaches 0
    assert _bound_values(quadrics[:3], 6) == [1, 4, 7, 8, 8, 8]
    assert _bound_values([*quadrics[:3], r.zero()], 6) == [1, 4, 7, 8, 8, 8]
    # any other shape is not tracked: a form that is not homogeneous, more
    # forms than variables
    assert groebner._hilbert_bound(Ideal([*quadrics[:3], P("x3^2 + x0", ring=r)])) is None
    assert groebner._hilbert_bound(Ideal([*quadrics, P("x0*x1", ring=r)])) is None


def test_tracking_stops_before_the_standard_monomials_outgrow_the_pairs(monkeypatch):
    # the GR ideal of <3,3,3> is 9 bilinear forms in 18 variables; its
    # first pairs hold fewer tail terms than the 162 = CI(2) standard
    # monomials of degree 2, so tracking stops after degree 1.  Without that
    # rule the sizes run 18, 162, 996, 4515, 16758 and the bound never meets
    # the count.
    m = 3
    t = GeneralTensor(3, m * m, {(i * m + j, j * m + k, k * m + i): 1
                                 for i in range(m) for j in range(m) for k in range(m)})
    sizes = []
    build = groebner._next_standard
    monkeypatch.setattr(groebner, "_next_standard",
                        lambda *a: sizes.append(len(out := build(*a))) or out)
    g, _, basis = gr_details(t)
    assert (g, len(basis)) == (7, 60)
    assert sizes == [18]


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_next_standard_lists_the_standard_monomials(order):
    # built degree by degree, the standard monomials are exactly the
    # monomials that no lead divides
    rng = random.Random(19)
    n = 4
    pk = _Packing(PolyRing(n, order=order), 8)
    units = [pk.pack(tuple(int(i == k) for i in range(n))) for k in range(n)]
    for _ in range(30):
        leads = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 6))}
        std = {0: ()}
        for t in range(1, 8):
            std = groebner._next_standard(std, {pk.pack(m) for m in leads if sum(m) == t}, units, None)
            monos = [tuple(map(c.count, range(n)))
                     for c in itertools.combinations_with_replacement(range(n), t)]
            want = {m for m in monos if not any(all(map(int.__le__, lm, m)) for lm in leads)}
            assert sorted(map(pk.unpack, std)) == sorted(want)
            assert all(std[pk.pack(m)] == tuple(i for i in range(n) if m[i]) for m in want)


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
        for field in (QQ, FP):
            pk = _Packing(PolyRing(nvars, field, order), width)
            assert pk.p == (0 if field is QQ else FP.p)
            monos = _random_monomials(rng, nvars, 200, pk.top)
            for m in monos:
                p = pk.pack(m)
                assert p & pk.guard == 0
                assert pk.unpack(p) == m
            # a polynomial's terms come back exactly: Fractions over QQ,
            # residues over Fp
            terms = {m: field.convert(Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**12)))
                     for m in monos}
            terms = {m: c for m, c in terms.items() if c}
            back = pk.unpack_terms(pk.pack_terms(terms))
            assert back == terms
            assert {type(c) for c in back.values()} == {Fraction if field is QQ else int}


def test_packed_key_matches_order():
    # the packed key sorts exactly like order.key, ties (repeated monomials) included
    rng = random.Random(10)
    for order in (GREVLEX, LEX):
        for nvars, width in ((3, 8), (4, 8), (6, 16)):
            pk = _Packing(PolyRing(nvars, order=order), width)
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
        pk = _Packing(PolyRing(nvars, order=order), 8)
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
    pk = _Packing(PolyRing(3), 8)
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

        def __init__(self, ring, width):
            widths.append(width)
            super().__init__(ring, width)

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
# Chain criterion of the pair update
# ---------------------------------------------------------------------------

def _chain_reference(mh, lcm_h, leads, pk):
    """The update's chain criterion before equal lcms were grouped: pop the
    candidates from the highest index down and keep each whose leads are
    coprime or whose lcm no pending or kept lcm divides; queue the kept
    pairs whose leads are not coprime."""
    candidates = list(lcm_h)
    kept = []
    while candidates:
        ig = candidates.pop()
        lcm_hg = lcm_h[ig]
        if lcm_hg == mh + leads[ig] or not any(
            not (lcm_hg - lcm_h[ip]) & pk.guard for ip in itertools.chain(candidates, kept)
        ):
            kept.append(ig)
    return sorted((ig, lcm_h[ig]) for ig in kept if lcm_h[ig] != mh + leads[ig])


def _random_leads(rng, mh, count):
    """Exponent tuples around mh: some with the lcm of an earlier one, some
    coprime to mh, some one step above a divisor of mh (u of degree 1), the
    rest sparse."""
    leads = []
    while len(leads) < count:
        kind = rng.random()
        if kind < 0.25 and leads:
            # equal lcm(mh, .): keep every exponent above mh, redraw the rest
            base = rng.choice(leads)
            m = tuple(b if b > e else rng.randint(0, e) for b, e in zip(base, mh))
        elif kind < 0.4:
            m = tuple(rng.randint(0, 2) if not e else 0 for e in mh)
        elif kind < 0.6:
            m = [rng.randint(0, e) for e in mh]
            i = rng.randrange(len(mh))
            m[i] = mh[i] + 1
            m = tuple(m)
        else:
            m = tuple(rng.choice((0, 0, 1, 2)) for _ in mh)
        if any(m):
            leads.append(m)
    return leads


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_chain_criterion_matches_sequential_reference(order):
    # the grouped test must queue exactly the pairs of the sequential one
    rng = random.Random(41)
    seen = {"equal": 0, "coprime": 0, "linear": 0, "dropped": 0}
    for _ in range(400):
        nvars = rng.randint(2, 7)
        pk = _Packing(PolyRing(nvars, order=order), 8)
        mh = tuple(rng.choice((0, 1, 1, 2)) for _ in range(nvars))
        if not any(mh):
            continue
        leads = _random_leads(rng, mh, rng.randint(1, 30))
        packed = [pk.pack(m) for m in leads]
        pmh = pk.pack(mh)
        # a basis need not use every index: leave gaps
        indices = sorted(rng.sample(range(len(leads)), rng.randint(1, len(leads))))
        lcm_h = {i: pk.lcm(pmh, packed[i]) for i in indices}
        want = _chain_reference(pmh, lcm_h, packed, pk)
        assert sorted(_chain_criterion(pmh, lcm_h, packed, pk)) == want
        us = [lcm_h[i] - pmh for i in indices]
        seen["equal"] += len(us) - len(set(us))
        seen["coprime"] += sum(lcm_h[i] == pmh + packed[i] for i in indices)
        seen["linear"] += sum(pk.degree(u) == 1 for u in us)
        seen["dropped"] += len(indices) - len(want)
    assert min(seen.values()) > 200, seen


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


def test_dimension_search_leaves_no_reference_cycle():
    # everything the search makes is freed by reference counting, so the
    # cyclic collector finds nothing after it, polled or not
    gb = _cycle_basis(33)
    gc.collect()
    gc.disable()
    try:
        assert ideal_dimension(gb) == 16
        assert gc.collect() == 0
        assert ideal_dimension(gb, poll=lambda stats: None) == 16
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_dimension_search_depth_meets_no_recursion_limit():
    # 1,200 disjoint edges x_{2i}*x_{2i+1}: each needs a variable of its own,
    # so the search chooses 1,200 variables along one branch
    k = 1200
    assert k > sys.getrecursionlimit()
    supports = [0b11 << 2 * i for i in range(k)]
    assert groebner._min_hitting_set_size(supports, 2 * k) == k


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
