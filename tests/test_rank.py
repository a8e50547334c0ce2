"""SGR/GR computations, matrix rank and rank reports."""

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from math import lcm

import pytest

from sgrank import groebner, rank
from sgrank.cli import main
from sgrank.errors import ComputationTimeout, DimensionMismatchError, InvalidInputError
from sgrank.groebner import buchberger, ideal_membership
from sgrank.polyring import GREVLEX, LEX, QQ, PolyRing, PrimeField, parse_polynomial
from sgrank.rank import (
    gr,
    gr_details,
    matrix_rank,
    rank_report,
    sgr,
    sgr_details,
    singular_ideal,
)
from sgrank.strata import ProjectiveLine, Tangency, line_tangency, sample_irreducible_sgr2
from sgrank.tensor import (
    GeneralTensor,
    SymmetricTensor,
    big_cw,
    complete_homogeneous_cubic,
    identity_tensor,
    irreducible_sgr2_cubic,
    max_compressibility,
    small_cw,
    sym_matrix_mult,
    w_state,
)
from sgrank.verify import _partials_rank, _random_invertible_matrix
from sgrank.verify import _random_symmetric_cubic as random_symmetric_cubic

FP = PrimeField(2**31 - 1)


# ---------------------------------------------------------------------------
# singular_ideal
# ---------------------------------------------------------------------------

def test_singular_ideal_binary_example():
    f = parse_polynomial("x0^2*x1", nvars=2)
    gens = {str(g) for g in singular_ideal(f)}
    assert gens == {"2*x0*x1", "x0^2"}


def test_singular_ideal_power_sums():
    # F = sum_{i=1..k} x_i^d gives generators d*x_i^(d-1); the x_0 partial drops
    f = parse_polynomial("x1^3 + x2^3", nvars=4)
    gens = {str(g) for g in singular_ideal(f)}
    assert gens == {"3*x1^2", "3*x2^2"}


def test_singular_ideal_of_tangent_form_has_linear_radical():
    # F = L^2*M with independent L, M: the ideal equals (L^2, L*M), so L^2
    # is a member and the zero set is the hyperplane of L
    ring = PolyRing(3)
    L = parse_polynomial("x0 + x1", ring=ring)
    M = parse_polynomial("x2", ring=ring)
    f = L * L * M
    basis = buchberger(singular_ideal(f))
    assert ideal_membership(L * L, basis)
    assert ideal_membership(L * M, basis)


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_sgr_runs_the_engine_on_integer_partials(field, buchberger_calls):
    # over QQ the engine's seeds are the partials times the lcm of the
    # form's denominators, with int coefficients, while singular_ideal
    # keeps Fractions; the two give one reduced basis
    form = parse_polynomial("2/7*x0^2*x1 + 3/2*x1^3 - x0*x1*x2 + 5*x2^3", field=field)
    s, _, basis = sgr_details(form)
    [seeds] = buchberger_calls
    partials = list(singular_ideal(form))
    scale = 14 if field == QQ else 1
    assert list(seeds) == [scale * g for g in partials]
    coeff_types = {type(c) for g in seeds for c in g.terms.values()}
    assert coeff_types == {int}
    assert {type(c) for g in partials for c in g.terms.values()} == {type(field.one)}
    assert list(basis) == list(buchberger(partials)) and s == sgr(form)


def test_singular_ideal_preconditions():
    with pytest.raises(InvalidInputError):
        singular_ideal(PolyRing(2).zero())
    with pytest.raises(InvalidInputError):
        singular_ideal(parse_polynomial("x0 + x1^2", nvars=2))
    with pytest.raises(InvalidInputError):
        singular_ideal(parse_polynomial("x0 + x1", nvars=2))  # degree 1


def test_singular_ideal_needs_characteristic_above_degree():
    text = "x0^3 + x1^3 + x2^3"
    for p in (2, 3):
        form = parse_polynomial(text, field=PrimeField(p))
        with pytest.raises(InvalidInputError):
            singular_ideal(form)
        with pytest.raises(InvalidInputError):
            sgr(form)
    assert sgr(parse_polynomial(text, field=PrimeField(5))) == 3


# ---------------------------------------------------------------------------
# sgr
# ---------------------------------------------------------------------------

def test_sgr_identity_tensors():
    for d in (3, 4):
        for m in range(1, 8):
            for k in range(1, m + 1):
                assert sgr(identity_tensor(k, m - 1, d)) == k


def test_sgr_binary_w_state():
    assert sgr(parse_polynomial("3*x0^2*x1", nvars=2)) == 1


def test_sgr_smooth_is_maximal():
    assert sgr(parse_polynomial("x0^3 + x1^3", nvars=2)) == 2
    assert sgr(parse_polynomial("x0^3 + x1^3 + x2^3", nvars=3)) == 3


def test_sgr_accepts_tensor_or_polynomial():
    t = big_cw(1, 2)
    assert sgr(t) == sgr(t.to_polynomial()) == 2


def test_sgr_details_reports_dimension():
    s, dim, basis = sgr_details(small_cw(2, 2))
    assert (s, dim) == (2, 1)
    assert len(basis) >= 1


def test_sgr_range_invariant():
    rng = random.Random(42)
    for _ in range(25):
        n = rng.randint(1, 3)
        t = random_symmetric_cubic(rng, n)
        assert 1 <= sgr(t) <= n + 1


def test_sgr_scaling_invariance():
    rng = random.Random(43)
    for _ in range(10):
        t = random_symmetric_cubic(rng, rng.randint(1, 3))
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        assert sgr(t.scale(c)) == sgr(t)


def test_sgr_permutation_invariance():
    rng = random.Random(44)
    for _ in range(10):
        n = rng.randint(1, 3)
        t = random_symmetric_cubic(rng, n)
        perm = list(range(n + 1))
        rng.shuffle(perm)
        pmat = [[1 if perm[j] == i else 0 for j in range(n + 1)] for i in range(n + 1)]
        assert sgr(t.apply_matrix(pmat)) == sgr(t)


def test_sgr_field_override():
    # constructors build over QQ; the rank entry points choose the field
    t = big_cw(2, 3)
    assert sgr(t, field=FP) == sgr(t) == 2
    assert sgr(t.to_polynomial().convert_order(LEX)) == 2
    assert gr(t, field=FP) == 3
    assert sgr(sym_matrix_mult(3), field=FP) == sgr(sym_matrix_mult(3)) == 5
    with pytest.raises(InvalidInputError):
        sgr(complete_homogeneous_cubic(2), field=PrimeField(3))


def test_small_primes_never_raise_the_rank():
    # reducing mod p can only lower the rank of each degree's Macaulay
    # matrix, so over Fp (p above the degree) SGR and GR never exceed QQ's
    strict = 0
    for s in range(40):
        t = random_symmetric_cubic(random.Random(s), 1 + s % 3)
        rational = (sgr(t), gr(t))
        for p in (5, 7, 11, 13):
            modular = (sgr(t, field=PrimeField(p)), gr(t, field=PrimeField(p)))
            assert modular[0] <= rational[0] and modular[1] <= rational[1]
            strict += (modular[0] < rational[0]) + (modular[1] < rational[1])
    assert strict > 0  # the bound is one-sided, not an equality


# ---------------------------------------------------------------------------
# gr
# ---------------------------------------------------------------------------

def test_gr_of_matrices_is_rank():
    rng = random.Random(45)
    for _ in range(30):
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
        t = SymmetricTensor(2, m, {(i, j): a[i][j] for i in range(m) for j in range(i, m)})
        assert gr(t) == matrix_rank(a)


def test_gr_w_state_strictly_above_sgr():
    t = w_state(1)
    assert gr(t) == 2
    assert sgr(t) == 1


def test_gr_cw_families():
    assert gr(big_cw(2, 3)) == 3
    assert gr(small_cw(2, 2)) == 3


def test_gr_diagonal_tensor():
    assert gr(identity_tensor(3, 3, 3)) == 3


def test_gr_nonsymmetric_input():
    # a single matrix unit e_0 (x) e_1: rank-one matrix
    t = GeneralTensor(2, 2, {(0, 1): 1})
    assert gr(t) == 1


def test_gr_rejects_zero_tensor():
    with pytest.raises(InvalidInputError):
        gr(GeneralTensor(3, 2, {}))


def test_gr_invariant_under_group_permutation_for_symmetric_input():
    # the construction differentiates the last variable group; symmetric
    # tensors must give the same value whichever factor ends up last
    rng = random.Random(49)
    import itertools
    for _ in range(5):
        t = random_symmetric_cubic(rng, rng.randint(1, 2))
        g = t.to_general()
        baseline = gr(t)
        for axes in itertools.permutations(range(3)):
            assert gr(g.transpose(axes)) == baseline


def test_sgr_leq_gr_on_random_cubics():
    rng = random.Random(46)
    for _ in range(15):
        t = random_symmetric_cubic(rng, rng.randint(1, 3))
        assert sgr(t) <= gr(t)


# ---------------------------------------------------------------------------
# matrix_rank
# ---------------------------------------------------------------------------

def _rank_oracle(rows):
    """Independent oracle: Gaussian elimination over Fraction."""
    a = [[Fraction(v) for v in r] for r in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    col = 0
    while rank < len(a) and col < ncols:
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            col += 1
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col] / a[rank][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
        col += 1
    return rank


def test_matrix_rank_basics():
    assert matrix_rank([[1, 0], [0, 1]]) == 2
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[0, 1, 1], [1, 0, 1], [1, 1, 0]]) == 3  # det = 2
    assert matrix_rank([[0, 0], [0, 0]]) == 0


def test_matrix_rank_against_oracle():
    rng = random.Random(47)
    for _ in range(200):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(nc)]
                for _ in range(nr)]
        assert matrix_rank(rows) == _rank_oracle(rows)


def test_matrix_rank_prime_field():
    f7 = PrimeField(7)
    assert matrix_rank([[7, 0], [0, 1]], f7) == 1  # 7 = 0 mod 7
    assert matrix_rank([[7, 0], [0, 1]]) == 2      # but rank 2 over QQ


def test_matrix_rank_mod_large_prime_matches_rational():
    # every minor of a 6x6 matrix with entries in [-5, 5] is below
    # 6! * 5^6 < 2^31 - 1 in absolute value, so no rank drops mod p
    fp = PrimeField(2**31 - 1)
    rng = random.Random(48)
    ranks = set()
    for _ in range(200):
        a = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(6)]
        for _ in range(rng.randint(0, 5)):  # repeated rows lower the rank
            i, j, sign = rng.randrange(6), rng.randrange(6), rng.choice((-1, 1))
            a[i] = [sign * x for x in a[j]]
        a = [list(col) for col in zip(*a)] if rng.random() < 0.5 else a
        r = matrix_rank(a)
        assert matrix_rank(a, fp) == r == _rank_oracle(a)
        ranks.add(r)
    assert ranks >= {3, 4, 5, 6}


def test_matrix_rank_checks_shape_before_empty_rows():
    assert matrix_rank([]) == matrix_rank([[]]) == matrix_rank([[], []]) == 0
    for rows in ([[], [1, 2]], [[1, 2], []]):
        with pytest.raises(DimensionMismatchError):
            matrix_rank(rows)


def test_matrix_rank_rejects_inexact_entries():
    with pytest.raises(InvalidInputError):
        matrix_rank([[0.5, 1], [1, 2]])


# ---------------------------------------------------------------------------
# rank_report
# ---------------------------------------------------------------------------

def test_report_big_cw():
    rep = rank_report(big_cw(2, 3), compute_gr=True)
    assert rep.sgr == 2 and rep.gr == 3
    assert rep.ambient == 4
    assert "symmetric subrank <= 2" in rep.bound_chain()
    assert "GR" in rep.bound_chain()


def test_report_identity():
    rep = rank_report(identity_tensor(3, 3, 3), compute_gr=True)
    assert rep.sgr == 3 and rep.gr == 3


def test_report_matrix_input():
    a = [[2, 1], [1, 2]]
    t = SymmetricTensor(2, 2, {(0, 0): 2, (0, 1): 1, (1, 1): 2})
    rep = rank_report(t, compute_gr=True)
    assert rep.sgr == rep.gr == matrix_rank(a) == 2


def test_report_json_schema():
    rep = rank_report(w_state(1), compute_gr=True)
    doc = rep.to_json_dict()
    assert list(doc.keys()) == ["sgr", "gr", "sing_dim_affine", "ambient", "field", "ms"]
    assert doc["sgr"] == 1 and doc["gr"] == 2 and doc["field"] == "QQ"
    json.dumps(doc)  # serializable


def test_report_general_tensor_gr_only():
    t = GeneralTensor(3, 2, {(0, 0, 1): 1, (1, 0, 0): 2})  # not symmetric
    rep = rank_report(t, compute_gr=True)
    assert rep.sgr is None and rep.gr == gr(t) == 1
    assert rep.bound_chain() == "GR = 1"
    # SGR alone needs symmetric entries, and the report computes no GR
    # that was not asked for
    with pytest.raises(InvalidInputError, match="tensor entries are not symmetric"):
        rank_report(t)


@pytest.mark.parametrize("compute_gr", [False, True])
def test_report_makes_a_symmetric_general_tensor_symmetric(compute_gr):
    t = big_cw(2, 3)
    want = rank_report(t, compute_gr=compute_gr)
    got = rank_report(t.to_general(), compute_gr=compute_gr)
    assert dataclasses.replace(got, ms=want.ms) == want


@pytest.mark.parametrize("entry", [sgr, sgr_details, gr, gr_details, rank_report])
def test_rank_functions_take_no_order(entry):
    with pytest.raises(TypeError):
        entry(big_cw(2, 3), order=LEX)


def test_report_invariants_on_random_inputs():
    rng = random.Random(48)
    for _ in range(10):
        n = rng.randint(1, 3)
        t = random_symmetric_cubic(rng, n)
        rep = rank_report(t, compute_gr=True)
        assert 1 <= rep.sgr <= n + 1
        assert rep.sgr <= rep.gr
        assert rep.sing_dim_affine + rep.sgr == rep.ambient


def _random_form(rng, n, d, field, order):
    """A random degree-d form in n variables pulled back from k <= n
    variables, so its flattening rank is at most k."""
    k = rng.randint(1, n)
    small = PolyRing(k, field, order)
    while True:
        terms = {}
        for idx in itertools.combinations_with_replacement(range(k), d):
            if rng.random() < 0.6:
                terms[tuple(idx.count(i) for i in range(k))] = rng.randint(-3, 3)
        g = small.from_dict(terms)
        if g.is_zero():
            continue
        f = g.substitute_linear([[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)])
        if not f.is_zero():
            return PolyRing(n, field, order).from_dict(f.terms)


def test_flattening_rank_is_read_off_the_singular_basis():
    rng = random.Random(60)
    fields = (QQ, PrimeField(101), FP)
    below = 0
    for i in range(60):
        d = 3 + i % 2
        n = rng.randint(2, 4 if d == 3 else 3)
        field, order = fields[i % 3], (GREVLEX, LEX)[i // 3 % 2]
        f = _random_form(rng, n, d, field, order)
        s, _, basis = sgr_details(f)
        r = rank._flattening_rank(basis, d)
        assert r == _partials_rank(f), str(f)
        g = gr(SymmetricTensor.from_polynomial(f))
        assert s <= g <= r, str(f)
        below += r < n
    assert below >= 10


def test_report_splits_a_direct_sum_into_blocks():
    # x0, x2 and x3 in two blocks, x1 and x4 in none; each block lists its
    # variables by their largest exponent, so x2 (exponent 1) comes before
    # x0 (exponent 2)
    f = parse_polynomial("3*x0^2*x2 + 2*x3^3", nvars=5)
    assert rank._variable_order(f) == [1, 4, 2, 0, 3]
    blocks = rank._blocks(f)
    assert [(b.ring.nvars, b.terms) for b in blocks] == [(2, {(1, 2): 3}), (1, {(3,): 2})]
    connected = complete_homogeneous_cubic(2).to_polynomial()
    assert rank._blocks(connected) == [connected]
    assert rank._blocks(connected)[0] is connected
    tens = SymmetricTensor.from_polynomial(f)
    # the report's bases are those of the whole form in its variable order
    # x1, x4, x2, x0, x3
    reordered = parse_polynomial("3*x2*x3^2 + 2*x4^3")
    for order in (GREVLEX, LEX):
        rep = rank_report(f.convert_order(order), compute_gr=True)
        s, dim, _ = sgr_details(f.convert_order(order))
        assert (rep.sgr, rep.gr, rep.sing_dim_affine) == (s, gr(tens), dim) == (2, 3, 3)
        assert rep.sgr_basis_size == len(sgr_details(reordered)[2])
        assert rep.gr_basis_size is None  # 2*x3^3 has SGR 1 = r
        # the W-state x0^2*x2 alone (SGR 1 < r = 2) has GR = r proved by
        # its twisted system, with no GR run, so it reports no size
        w = parse_polynomial("3*x0^2*x2", nvars=4).convert_order(order)
        rep = rank_report(w, compute_gr=True)
        assert (rep.gr, rep.gr_basis_size) == (2, None)
        # the SGR-2 normal form plus a free variable (SGR 2 < GR 4 < r = 5)
        # completes its GR basis, whose size is the whole multilinear
        # ideal's in the order x5, x2, x3, x4, x0, x1
        nf = parse_polynomial("x0^2*x2 + x1^3 + x1^2*x3 + x0*x1*x4", nvars=6)
        rep = rank_report(nf.convert_order(order), compute_gr=True)
        assert rank._variable_order(nf) == [5, 2, 3, 4, 0, 1]
        nf_reordered = parse_polynomial("x4^2*x1 + x5^3 + x5^2*x2 + x4*x5*x3", nvars=6)
        gbasis = gr_details(SymmetricTensor.from_polynomial(nf_reordered))[2]
        assert (rep.gr, rep.gr_basis_size) == (4, len(gbasis))


def test_report_lists_the_trace_cubic_by_degree():
    # tr(X^3) at m=3: the off-diagonal entries (exponent 1) keep their input
    # order, and the diagonal ones (exponent 3) come last
    f = sym_matrix_mult(3)
    ranked = [1, 2, 3, 5, 6, 7, 0, 4, 8]
    assert rank._variable_order(f) == ranked
    [block] = rank._blocks(f)
    assert block.terms == {tuple(m[i] for i in ranked): c for m, c in f.terms.items()}
    assert rank_report(f).sgr == sgr(f) == 5
    assert rank_report(f, field=FP).sgr == sgr(f, field=FP) == 5
    # at m=4 the input order builds 161 basis elements, this order 62
    m4 = sym_matrix_mult(4).convert_field(FP)
    assert rank_report(m4).sgr_basis_size == 62


@pytest.fixture
def buchberger_calls(monkeypatch):
    """The ideals rank's buchberger is called on, in order."""
    calls = []
    real_buchberger = rank.buchberger

    def buchberger(ideal, **kwargs):
        calls.append(ideal)
        return real_buchberger(ideal, **kwargs)

    monkeypatch.setattr(rank, "buchberger", buchberger)
    return calls


def test_report_on_a_lex_form_runs_in_grevlex(buchberger_calls):
    # x0^2*x2 and x1*x4^2 are W-states (SGR 1 < r = 2), so each runs its
    # twisted system, in its own 2 variables, whose leads prove GR = 2 with
    # no GR run; x3^3 reads GR off SGR
    f = parse_polynomial("3*x0^2*x2 + 2*x3^3 + x1*x4^2")
    want = rank_report(f, compute_gr=True)
    del buchberger_calls[:]
    got = rank_report(f.convert_order(LEX), compute_gr=True)
    assert dataclasses.replace(got, ms=want.ms) == want
    assert (got.sgr, got.gr) == (3, 5)
    assert [ideal.ring.nvars for ideal in buchberger_calls] == [2, 2, 2, 2, 1]
    assert {ideal.ring.order for ideal in buchberger_calls} == {GREVLEX}


def test_report_reads_gr_off_sgr_with_one_basis(buchberger_calls):
    rep = rank_report(complete_homogeneous_cubic(3), compute_gr=True)
    assert (rep.sgr, rep.gr, rep.gr_basis_size) == (4, 4, None)
    assert len(buchberger_calls) == 1


def test_poll_stops_a_report_inside_its_second_block(buchberger_calls):
    def poll(stats):
        if len(buchberger_calls) == 2:
            raise ComputationTimeout("stop")

    h3 = complete_homogeneous_cubic(3)
    with pytest.raises(ComputationTimeout):
        rank_report(h3.direct_sum(h3), compute_gr=True, poll=poll)
    # the first block's singular ideal, then the second's, in 4 variables
    assert [len(ideal) for ideal in buchberger_calls] == [4, 4]


@pytest.mark.parametrize("details", ["sgr_details", "gr_details"])
def test_poll_reaches_dimension_search(monkeypatch, details):
    # the poll raises only once buchberger has returned, so only the
    # dimension search can see it raise
    finished = []
    real_buchberger = rank.buchberger

    def buchberger(ideal, **kwargs):
        gb = real_buchberger(ideal, **kwargs)
        finished.append(gb)
        return gb

    def poll(stats):
        if finished:
            raise ComputationTimeout("stop")

    monkeypatch.setattr(rank, "buchberger", buchberger)
    with pytest.raises(ComputationTimeout):
        getattr(rank, details)(big_cw(2, 3), poll=poll)
    assert len(finished) == 1


def test_ranks_read_only_the_leads(monkeypatch, capsys):
    # sgr, gr, rank_report, line_tangency and `dim --json` answer from the
    # leads of the basis and never build its polynomials
    def built(self):
        raise AssertionError("basis polynomials built")

    monkeypatch.setattr(groebner.GroebnerBasis, "polys", property(built))
    f = big_cw(2, 3).to_polynomial()
    assert sgr(f) == 2 and sgr(f, field=FP) == 2
    assert gr(big_cw(2, 3)) == 3
    report = rank_report(f, compute_gr=True)
    assert (report.sgr, report.gr, report.sgr_basis_size) == (2, 3, len(sgr_details(f)[2]))
    line = ProjectiveLine([1, 0], [0, 1])
    assert line_tangency(parse_polynomial("x0^3 + x1^3"), line) == Tangency.NOT_TANGENT
    assert line_tangency(parse_polynomial("x0^2*x1"), line) == Tangency.TANGENT
    assert main(["dim", "--poly", "x0*x1", "--poly", "x0^2 + x1^2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["dim"] == 0


# ---------------------------------------------------------------------------
# GR at a proved upper bound
# ---------------------------------------------------------------------------

def _moved(t, seed):
    """t under a seeded invertible change of variables."""
    return t.apply_matrix(_random_invertible_matrix(random.Random(seed), t.dim))


def _vanishes_on_hyperplane(ell, form):
    """Whether form vanishes on ell = 0, by substituting for ell's last
    variable: an independent check that ell divides form."""
    field = form.ring.field
    n = form.ring.nvars
    k = max(i for i, c in enumerate(ell) if c)
    inv = field.inv(field.convert(ell[k]))
    rows = [[field.convert(int(i == j)) for i in range(n)] for j in range(n)]
    for j in range(n):
        rows[j][k] = field.neg(field.mul(field.convert(ell[j]), inv)) if j != k else field.zero
    return form.substitute_linear(rows).is_zero()


_FACTORED = [big_cw(2, 3), small_cw(2, 2), max_compressibility(2, 3)]
_PRODUCTS = [SymmetricTensor.from_polynomial(parse_polynomial(text, nvars=3)) for text in (
    "x0^2*x1 + x0*x1^2 - 2*x0*x2^2",           # x0 (x0 x1 + x1^2 - 2 x2^2)
    "x0^3 - x0*x2^2 + 2*x0^2*x1 - 2*x1*x2^2",  # (x0 + 2 x1)(x0^2 - x2^2)
)]


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("t", _FACTORED + _PRODUCTS,
                         ids=["big_cw", "small_cw", "max_compressibility", "x0*Q", "(x0+2x1)*Q"])
def test_linear_factor_found_under_a_change_of_variables(t, seed, field):
    form = _moved(t, seed).with_field(field).to_polynomial()
    ell = rank._linear_factor(form, 3)
    assert ell is not None and _vanishes_on_hyperplane(ell, form)
    # the check is not vacuous: x0 divides none of these moved forms
    assert not _vanishes_on_hyperplane([int(i == 0) for i in range(form.ring.nvars)], form)
    if field == QQ:  # denominators are cleared before the search
        scaled = Fraction(2, 7) * form
        assert _vanishes_on_hyperplane(rank._linear_factor(scaled, 3), scaled)


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
@pytest.mark.parametrize("n, variant", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_linear_factor_not_found_on_irreducible_normal_forms(n, variant, field):
    form = irreducible_sgr2_cubic(n, variant).convert_field(field)
    assert rank._linear_factor(form, 3) is None
    moved = _moved(SymmetricTensor.from_polynomial(form), n + variant)
    assert rank._linear_factor(moved.to_polynomial(), 3) is None


def test_factor_search_polls_once_per_plane():
    # 36756720 (x0^2 L0 + x0 x1 L1 + 2 x1^2 L0) in 16 variables, with
    # L0 = x2 + ... + x15 and L1 = sum over i >= 2 of (i mod 3 - 1) x_i, has
    # SGR 2; each plane through x0 or x1 tries every pair of divisors of
    # 36756720 or of twice it, so a deadline must be seen plane by plane
    terms = []
    for i in range(2, 16):
        terms += [f"x0^2*x{i}", f"{i % 3 - 1}*x0*x1*x{i}", f"2*x1^2*x{i}"]
    form = 36756720 * parse_polynomial(" + ".join(terms), nvars=16)
    seen = []

    def poll(stats):
        seen.append(stats)
        if len(seen) == 2:
            raise ComputationTimeout("stop")

    with pytest.raises(ComputationTimeout):
        rank._linear_factor(form, 3, poll)
    assert seen == [groebner.GBStats(0, 0, 0)] * 2


def test_binary_roots_are_the_rational_zeros():
    # 2 s^2 t - 3 s t^2 = s t (2 s - 3 t)
    assert sorted(rank._binary_roots([0, 2, -3, 0])) == [(0, 1), (1, 0), (3, 2)]
    # s^3 - 2 t^3 has no rational zero
    assert rank._binary_roots([1, 0, 0, -2]) == []
    # (s - t)^2 (s + t): a double zero is found once
    assert sorted(rank._binary_roots([1, -1, -1, 1])) == [(-1, 1), (1, 1)]
    # a coefficient too large to factor leaves only the zeros on the axes
    big = rank._FACTOR_LIMIT + 1
    assert rank._binary_roots([0, big, -big]) == [(1, 0)]


def test_zeros_mod_p_are_every_zero_on_the_projective_line():
    # 2 s^2 t - 3 s t^2 = s t (2 s - 3 t): (0, 1), (1, 0) and u = 2/3 = 3 mod 7
    assert rank._zeros_mod_p([0, 2, -3, 0], 7) == [(0, 1), (1, 0), (1, 3)]
    # s^3 - 2 t^3: 4 is no cube mod 7
    assert rank._zeros_mod_p([1, 0, 0, -2], 7) == []
    # s^2 - 2 t^2 has zeros mod 7 (u = 2, 5), and no rational one
    assert rank._zeros_mod_p([1, 0, -2], 7) == [(1, 2), (1, 5)]
    assert rank._binary_roots([1, 0, -2]) == []


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_report_stops_where_the_bound_is_proved(field, buchberger_calls):
    # big CW (bound 3 = degree, from its linear factor) and the SGR-2 normal
    # form in 4 variables (bound 4 = r): each block's twisted system proves
    # GR equal to its bound, so the report gives no GR basis size, and GR
    # adds up
    nf = SymmetricTensor.from_polynomial(irreducible_sgr2_cubic(3))
    t = _moved(big_cw(2, 3), 1).direct_sum(_moved(nf, 2)).with_field(field)
    rep = rank_report(t, compute_gr=True)
    assert (rep.sgr, rep.gr, rep.gr_basis_size) == (4, 7, None) == (sgr(t), gr(t), None)


@pytest.mark.parametrize("field", [QQ, FP, PrimeField(7)], ids=["QQ", "Fp", "Fp7"])
@pytest.mark.parametrize("seed", range(6))
def test_report_on_reducible_quartics_matches_the_engine(seed, field):
    # ell * C for a seeded cubic C in 2 or 3 variables: SGR <= 2, and the
    # report's one bound rule gives what the whole engine gives
    rng = random.Random(seed)
    c = random_symmetric_cubic(rng, 1 + seed % 2).to_polynomial()
    ell = sum((rng.choice((-3, -2, -1, 1, 2, 3)) * x for x in c.ring.gens()), c.ring.zero())
    form = (ell * c).convert_field(field)
    rep = rank_report(form, compute_gr=True)
    assert (rep.sgr, rep.gr) == (sgr(form), gr(SymmetricTensor.from_polynomial(form)))
    # over Fp:7 the search tries every point of P^1(F_7), so it finds the
    # factor where it exists only mod 7
    found = rank._linear_factor(form, 4)
    assert found is not None and _vanishes_on_hyperplane(found, form)


def test_gr_runs_the_whole_engine_where_a_report_would_stop():
    # the report proves GR = 3 with no GR basis (its twisted system), and
    # gr_details with a poll still completes the basis, the same one as a
    # run with no poll
    tens = _moved(big_cw(2, 3), 7)
    assert rank_report(tens, compute_gr=True).gr_basis_size is None
    seen = []
    g, _, basis = gr_details(tens, poll=seen.append)
    assert g == 3 and seen
    ring, gens = rank._multilinear_generators(tens.to_general())
    assert basis.leading_monomials() == buchberger(gens).leading_monomials()


@pytest.mark.parametrize("compute_gr", [False, True])
def test_report_checks_symmetry_once(monkeypatch, compute_gr):
    calls = []
    real = GeneralTensor.is_symmetric

    def is_symmetric(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(GeneralTensor, "is_symmetric", is_symmetric)
    rep = rank_report(big_cw(2, 3).to_general(), compute_gr=compute_gr)
    assert rep.sgr == 2 and len(calls) == 1


# ---------------------------------------------------------------------------
# The twisted lower bound on GR
# ---------------------------------------------------------------------------

def _seeded_form(seed, d, field):
    """A random sparse form of degree d (2 to n + 2 terms with int
    coefficients) in n = 3-5 variables for cubics, 2-4 for quartics, under a
    random invertible change of variables, in ``field``; sparse forms are
    mostly singular, so SGR, GR and n often differ."""
    rng = random.Random(seed)
    n = rng.randint(3, 5) if d == 3 else rng.randint(2, 4)
    monos = list(itertools.combinations_with_replacement(range(n), d))
    while True:
        terms = {tuple(idx.count(i) for i in range(n)): rng.choice((-3, -2, -1, 1, 2, 3))
                 for idx in rng.sample(monos, rng.randint(2, n + 2))}
        form = PolyRing(n, field).from_dict(terms)
        moved = form.substitute_linear(_random_invertible_matrix(rng, n))
        if not moved.is_zero():
            return moved


def _codim(forms):
    """The codimension of a twisted system, run to completion."""
    return rank._twisted_codim(forms)


@pytest.mark.parametrize("fewer", [0, 1], ids=["n", "n-1"])
@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
@pytest.mark.parametrize("d, seed", [(3, 0), (3, 1), (3, 2), (4, 3), (4, 4)])
def test_twisted_system_is_the_gr_ideal_on_a_subspace(d, seed, field, fewer):
    # the generators of the GR ideal in (d-1) n variables, restricted to
    # (M_1 y, ..., M_{d-1} y) and combined by M_d, are the twisted forms
    # over d! times the lcm of the form's denominators (over QQ the form
    # is scaled by 2/7)
    form = _seeded_form(seed, d, field)
    if field == QQ:
        form = Fraction(2, 7) * form
    n = form.ring.nvars
    width = n - fewer
    maps = rank._twisted_maps(n, d, FP.p, width)
    assert len(maps) == d and all(len(m) == n and {len(row) for row in m} == {width} for m in maps)
    # row l of the substitution is the image of the new y_l: column l of
    # M_t in group t
    rows = [[m[i][l] for m in maps[:-1] for i in range(n)] for l in range(width)]
    _, gens = rank._multilinear_generators(SymmetricTensor.from_polynomial(form).to_general())
    assert len(gens) == n  # generator k is the one of e_k
    restricted = [g.substitute_linear(rows).convert_field(FP) for g in gens]
    zero = restricted[0].ring.zero()
    den = 1 if field != QQ else lcm(*(c.denominator for c in form.terms.values()))
    scale = math.factorial(d) * den
    want = [scale * sum((maps[-1][k][j] * g for k, g in enumerate(restricted)), zero)
            for j in range(width)]
    assert rank._twisted_system(form, d, width) == want
    assert all(f.ring == PolyRing(width, FP) for f in want) and not any(f.is_zero() for f in want)


def _twisted_by_orderings(form, d, width, maps):
    """The twisted system expanded over orderings, the oracle of the
    builder's contraction: a term c x^a adds c a! at each ordering of its
    multi-index, the last slot is summed against M_d, the second last into
    a linear form in y, and the other slots multiply it out, as tuples of
    variables; mod p, as the builder reduces."""
    field = form.ring.field if form.ring.field.characteristic else rank._TWISTED_FIELD
    p = field.characteristic
    *firsts, second_last, last = [[[(l, e) for l, e in enumerate(row) if e] for row in m]
                                  for m in maps]
    partials = {}   # (j, i_1, ..., i_{d-2}) -> {i_{d-1}: partial contracted with M_d}
    for a, c in form._integer_terms().items():
        weight = c * math.prod(math.factorial(e) for e in a) % p
        index = [i for i, e in enumerate(a) for _ in range(e)]
        for k, *rest, i in set(itertools.permutations(index)):
            for j, e in last[k]:
                row = partials.setdefault((j, *rest), {})
                row[i] = row.get(i, 0) + weight * e
    sums = [{} for _ in range(width)]   # per form: exponent tuple -> int
    for (j, *rest), row in partials.items():
        final = {}
        for i, h in row.items():
            for l, e in second_last[i]:
                final[l] = final.get(l, 0) + h * e
        terms = {(): 1}
        for rows, i in zip(firsts, rest):
            terms = {m + (l,): v * e for m, v in terms.items() for l, e in rows[i]}
        for m, v in terms.items():
            for l, e in final.items():
                mono = tuple((*m, l).count(k) for k in range(width))
                sums[j][mono] = sums[j].get(mono, 0) + v * e
    ring = PolyRing(width, field)
    return [ring.from_dict({m: v % p for m, v in out.items()}) for out in sums]


@pytest.mark.parametrize("fewer", [0, 1], ids=["n", "n-1"])
@pytest.mark.parametrize("field", [QQ, FP, PrimeField(7)], ids=["QQ", "Fp", "Fp7"])
@pytest.mark.parametrize("d, seed", [(3, 0), (3, 1), (3, 2), (4, 3), (4, 4), (5, 5), (5, 6)])
def test_twisted_contraction_is_the_expansion_over_orderings(d, seed, field, fewer):
    # the builder contracts one slot at a time, with the forms in lanes of
    # one int; expanded over every ordering it gives the same forms, for
    # the seeded maps and for identity maps (over QQ the form is scaled by
    # 2/7, so the integer image clears a denominator)
    form = _seeded_form(seed, d, field)
    if field == QQ:
        form = Fraction(2, 7) * form
    n = form.ring.nvars
    width = n - fewer
    p = field.characteristic or FP.p
    maps = rank._twisted_maps(n, d, p, width)
    got = rank._twisted_system(form, d, width)
    assert got == _twisted_by_orderings(form, d, width, maps)
    assert not all(f.is_zero() for f in got)
    eye = [[int(i == j) for j in range(width)] for i in range(n)]
    assert rank._twisted_system(form, d, width, [eye] * d) == \
        _twisted_by_orderings(form, d, width, [eye] * d)


def test_twisted_system_of_a_wide_block_stays_sparse():
    # 40 terms of a cubic in 30 variables, U = 10: the contraction holds only
    # the multi-indices the terms reach, under 1 MB at its peak (about 0.25
    # MB); a dense array of n^d = 27,000 lane ints of about 1,400 bits each
    # would need more than 5 MB
    rng = random.Random(30)
    n = 30
    monos = list(itertools.combinations_with_replacement(range(n), 3))
    form = PolyRing(n, QQ).from_dict({tuple(idx.count(i) for i in range(n)):
                                      rng.choice((-3, -2, -1, 1, 2, 3))
                                      for idx in rng.sample(monos, 40)})
    maps = rank._twisted_maps(n, 3, FP.p, 10)
    tracemalloc.start()
    try:
        got = rank._twisted_system(form, 3, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert got == _twisted_by_orderings(form, 3, 10, maps)


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
@pytest.mark.parametrize("d, seeds", [(3, range(8)), (4, range(8, 12))])
def test_twisted_codim_is_never_above_gr(d, seeds, field):
    # A = 0 gives the zero system, codim 0; A = I gives (d-1)! times the
    # partials, codim SGR; the seeded maps give a bound no larger than GR,
    # or than the width, and on these cubics, where they are generic
    # enough, equal to the smaller
    below = 0
    for seed in seeds:
        form = _seeded_form(seed, d, field)
        n = form.ring.nvars
        s, g = sgr(form), gr(SymmetricTensor.from_polynomial(form))
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        zero = [eye] + [[[0] * n for _ in range(n)]] * (d - 2) + [eye]
        assert _codim(rank._twisted_system(form, d, n, zero)) == 0
        assert _codim(rank._twisted_system(form, d, n, [eye] * d)) == s
        for width in (n, n - 1):
            codim = _codim(rank._twisted_system(form, d, width))
            least = min(g, width)
            assert codim <= least and (d > 3 or codim == least), (str(form), width)
        below += s < g
    assert below >= 2  # the seeded A does better than the diagonal A = I


def test_report_falls_through_where_the_twisted_bound_falls_short(buchberger_calls):
    # GR 4 < U = r = 5 < n = 6: the twisted system in 5 variables proves
    # only 4, so the block's GR comes from its GR engine, which completes
    # its basis
    form = sample_irreducible_sgr2(5, 1)
    [block] = rank._blocks(form)
    assert _codim(rank._twisted_system(block, 3, 5)) == 4
    assert not rank._twisted_proves(rank._twisted_system(block, 3, 5))
    del buchberger_calls[:]
    rep = rank_report(form, compute_gr=True)
    # the singular ideal, the twisted system and the GR ideal
    assert [ideal.ring.nvars for ideal in buchberger_calls] == [6, 5, 12]
    assert _partials_rank(form) == 5
    assert (rep.sgr, rep.gr) == (sgr(form), gr(SymmetricTensor.from_polynomial(form))) == (2, 4)
    assert rep.gr_basis_size is not None


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_deadline_poll_raises_inside_the_twisted_run(field, buchberger_calls):
    seen = []

    def poll(stats):
        if len(buchberger_calls) == 2:
            seen.append(stats)
            raise ComputationTimeout("stop")

    nf = _moved(SymmetricTensor.from_polynomial(irreducible_sgr2_cubic(3)), 2).with_field(field)
    with pytest.raises(ComputationTimeout):
        rank_report(nf, compute_gr=True, poll=poll)
    # the singular ideal, then the twisted system: 4 quadrics in 4
    # variables over Fp, whatever the block's field
    assert len(seen) == 1 and len(buchberger_calls) == 2
    twisted = buchberger_calls[1]
    assert (twisted.ring, len(twisted)) == (PolyRing(4, FP), 4)
    assert {g.total_degree() for g in twisted} == {2}


def test_twisted_run_stops_once_its_forms_are_no_regular_sequence():
    # GR 5 < U = r = n = 6: the six quadrics of the twisted system have a
    # common zero line, and a degree of the run ends above the complete
    # intersection's count, so the run gives up there, long before a
    # whole run would end
    form = parse_polynomial("2*x1*x3^2 + x2*x3*x4 + 3*x1*x4^2 - 3*x3*x4^2 - 2*x0*x4*x5")
    [block] = rank._blocks(form)
    forms = rank._twisted_system(block, 3)
    seen, whole = [], []
    assert not rank._twisted_proves(forms, seen.append)
    assert _codim(forms) == rank._twisted_codim(forms, whole.append) == 5
    assert any(st.above_ci for st in whole)
    assert 0 < max(st.pairs_done for st in seen) < max(st.pairs_done for st in whole) / 2
    rep = rank_report(form, compute_gr=True)
    assert (rep.sgr, rep.gr) == (sgr(form), gr(SymmetricTensor.from_polynomial(form))) == (3, 5)


def test_twisted_run_proves_only_a_zero_dimensional_system():
    # over Fp:7 the three quadrics of this cubic's twisted system in its
    # input order have a common zero line, and the engine never shows they
    # are no regular sequence, so the run completes and its dimension alone
    # rejects codim 2 < U = 3 (GR = 3: the block's own order proves it)
    form = parse_polynomial("2*x0^3 + 3*x0^2*x1 + 2*x0*x1^2 + x1^3 + x0*x1*x2 + 2*x1^2*x2"
                            " + 3*x0*x2^2 + 6*x1*x2^2", field=PrimeField(7))
    forms = rank._twisted_system(form, 3)
    seen = []
    assert rank._twisted_codim(forms, seen.append) == 2
    assert not any(st.above_ci for st in seen)
    assert not rank._twisted_proves(forms)
    rep = rank_report(form, compute_gr=True)
    assert (rep.sgr, rep.gr) == (sgr(form), gr(SymmetricTensor.from_polynomial(form))) == (2, 3)


@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_report_proves_gr_of_a_slow_order_cubic_with_no_gr_run(field, buchberger_calls):
    # its GR engine ran past 600 s in the report's variable order; the
    # 6-variable block (GR = U = r = 6) is proved by its twisted system,
    # and x3^3 reads GR off SGR, so no GR ideal is built
    form = parse_polynomial("2*x0^3 + 2*x1*x2^2 + 3*x3^3 + 2*x1*x4^2 - x0*x4*x5"
                            " - 3*x2*x4*x5 - 3*x0*x2*x6").convert_field(field)
    rep = rank_report(form, compute_gr=True)
    assert (rep.sgr, rep.gr, rep.gr_basis_size) == (4, 7, None)
    assert [ideal.ring.nvars for ideal in buchberger_calls] == [6, 6, 1]


def test_report_skips_a_twisted_system_past_the_size_limit(monkeypatch, buchberger_calls):
    # with the limit at 2^3 the SGR-2 normal form in 4 variables (U = 4,
    # 2^4 standard monomials in a complete intersection of 4 quadrics) runs
    # its GR engine at once; the W-state (U = 2) still runs its twisted system
    monkeypatch.setattr(rank, "_TWISTED_LIMIT", 2**3)
    nf = _moved(SymmetricTensor.from_polynomial(irreducible_sgr2_cubic(3)), 2)
    assert rank_report(nf, compute_gr=True).gr == 4
    assert [ideal.ring.nvars for ideal in buchberger_calls] == [4, 8]
    del buchberger_calls[:]
    assert rank_report(parse_polynomial("3*x0^2*x1"), compute_gr=True).gr == 2
    assert [ideal.ring.nvars for ideal in buchberger_calls] == [2, 2]


_GOLDEN_BLOCKS = [big_cw(2, 3), small_cw(3, 3), w_state(3),
                  SymmetricTensor.from_polynomial(irreducible_sgr2_cubic(3))]


@pytest.mark.parametrize("p", [7, 11, 13])
def test_small_prime_reports_fall_back_to_the_whole_gr_run(p, buchberger_calls):
    # over a small prime the twisted system of a 4-variable golden block
    # often has a nontrivial zero; the block then runs its whole GR engine
    # in 8 variables and reports that basis's size, and the report matches
    # the whole engine either way
    fallbacks = 0
    for t in _GOLDEN_BLOCKS:
        for seed in range(12):
            tens = _moved(t, seed).with_field(PrimeField(p))
            del buchberger_calls[:]
            rep = rank_report(tens, compute_gr=True)
            nvars = [ideal.ring.nvars for ideal in buchberger_calls]
            assert (rep.sgr, rep.gr) == (sgr(tens), gr(tens))
            # the singular ideal, the twisted system in U variables (none
            # when a form is zero), the GR ideal
            if nvars[-1] == 8:
                fallbacks += 1
                assert nvars[0] == 4 and len(nvars) <= 3
                assert rep.gr_basis_size is not None
    assert fallbacks >= 1


def _unimodular(rng, n):
    """L*U with unit triangular L and U and +-1 off their diagonals: a dense
    integer matrix of determinant 1."""
    lower = [[1 if i == j else rng.choice((-1, 1)) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 1)) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


_GOLDEN_CUBICS = {
    "big_cw": big_cw(2, 3), "small_cw": small_cw(3, 3),
    "max_compressibility": max_compressibility(3, 3), "h3": complete_homogeneous_cubic(3),
    "w_state": w_state(3), "identity": identity_tensor(4, 3, 3),
    "normal_form": SymmetricTensor.from_polynomial(irreducible_sgr2_cubic(3)),
}

# Per field, per golden cubic, per seed of its change of variables:
# ((sgr, gr, sgr_basis_size, gr_basis_size), the rings of buchberger's runs).
_PINNED_REPORTS = {
    "QQ": {
        "big_cw": [((2, 3, 4, None), (4, 3))] * 3,
        "small_cw": [((2, 3, 4, None), (4, 3))] * 3,
        "max_compressibility": [((2, 3, 5, None), (4, 3))] * 3,
        "h3": [((4, 4, 12, None), (4,))] * 3,
        "w_state": [((1, 2, 2, None), (4, 2))] * 3,
        "identity": [((4, 4, 10, None), (4,)), ((4, 4, 10, None), (4,)), ((4, 4, 12, None), (4,))],
        "normal_form": [((2, 4, 5, None), (4, 4)), ((2, 4, 6, None), (4, 4)),
                        ((2, 4, 5, None), (4, 4))],
    },
    "Fp7": {
        "big_cw": [((2, 3, 4, None), (4, 3))] * 3,
        "small_cw": [((2, 3, 4, 12), (4, 3, 8)), ((2, 3, 4, 12), (4, 3, 8)),
                     ((2, 3, 4, 10), (4, 3, 8))],
        "max_compressibility": [((2, 3, 5, None), (4, 3)), ((2, 3, 7, None), (4, 3)),
                                ((2, 3, 5, 10), (4, 3, 8))],
        "h3": [((4, 4, 12, None), (4,)), ((4, 4, 12, None), (4,)), ((4, 4, 11, None), (4,))],
        "w_state": [((1, 2, 2, None), (4, 2))] * 3,
        "identity": [((4, 4, 12, None), (4,)), ((4, 4, 10, None), (4,)), ((4, 4, 12, None), (4,))],
        "normal_form": [((2, 4, 5, 15), (4, 4, 8)), ((2, 4, 6, None), (4, 4)),
                        ((2, 4, 5, None), (4, 4))],
    },
}
_PINNED_REPORTS["Fp"] = _PINNED_REPORTS["QQ"]  # mod 2^31 - 1 every run is as over QQ


@pytest.mark.parametrize("field", [QQ, FP, PrimeField(7)], ids=["QQ", "Fp", "Fp7"])
def test_golden_cubic_reports_pinned(field, buchberger_calls):
    # the ranks, the basis sizes and the engine runs of the 7 golden cubics
    # in 4 variables, each under 3 seeded changes of variables of
    # determinant 1, guard the report's front end against any change in
    # the ideals it hands to the engine
    want = _PINNED_REPORTS[{QQ: "QQ", FP: "Fp"}.get(field, "Fp7")]
    for name, t in _GOLDEN_CUBICS.items():
        got = []
        for seed in range(3):
            form = t.to_polynomial().substitute_linear(_unimodular(random.Random(seed), 4))
            del buchberger_calls[:]
            rep = rank_report(form, compute_gr=True, field=field)
            got.append(((rep.sgr, rep.gr, rep.sgr_basis_size, rep.gr_basis_size),
                        tuple(ideal.ring.nvars for ideal in buchberger_calls)))
        assert got == want[name], name
