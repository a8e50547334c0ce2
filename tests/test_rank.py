"""SGR/GR computations, matrix rank and rank reports."""

import json
import random
from fractions import Fraction

import pytest

from sgrank import rank
from sgrank.errors import ComputationTimeout, DimensionMismatchError, InvalidInputError
from sgrank.groebner import buchberger, ideal_membership
from sgrank.polyring import LEX, PolyRing, PrimeField, parse_polynomial
from sgrank.rank import (
    gr,
    matrix_rank,
    rank_report,
    sgr,
    sgr_details,
    singular_ideal,
)
from sgrank.tensor import (
    GeneralTensor,
    SymmetricTensor,
    big_cw,
    complete_homogeneous_cubic,
    identity_tensor,
    small_cw,
    sym_matrix_mult,
    w_state,
)

FP = PrimeField(2**31 - 1)


def random_symmetric_cubic(rng, n):
    m = n + 1
    while True:
        entries = {}
        for i in range(m):
            for j in range(i, m):
                for k in range(j, m):
                    v = rng.randint(-5, 5)
                    if v:
                        entries[(i, j, k)] = v
        if entries:
            return SymmetricTensor(3, m, entries)


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
    assert sgr(t, order=LEX) == 2
    assert gr(t, field=FP) == 3
    assert sgr(sym_matrix_mult(3), field=FP) == sgr(sym_matrix_mult(3)) == 5
    with pytest.raises(InvalidInputError):
        sgr(complete_homogeneous_cubic(2), field=PrimeField(3))


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
    assert rep.sgr is None and rep.gr is not None


def test_report_invariants_on_random_inputs():
    rng = random.Random(48)
    for _ in range(10):
        n = rng.randint(1, 3)
        t = random_symmetric_cubic(rng, n)
        rep = rank_report(t, compute_gr=True)
        assert 1 <= rep.sgr <= n + 1
        assert rep.sgr <= rep.gr
        assert rep.sing_dim_affine + rep.sgr == rep.ambient


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
