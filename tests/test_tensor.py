"""Tensor data model, conversions, constructors, hypergraphs and JSON."""

import json
import random
from fractions import Fraction

import pytest

from sgrank.errors import DimensionMismatchError, InvalidInputError, ParseError
from sgrank.polyring import QQ, PolyRing, PrimeField, parse_polynomial
from sgrank.tensor import (
    GeneralTensor,
    Hypergraph,
    SymmetricTensor,
    big_cw,
    complete_homogeneous_cubic,
    hypergraph_tensor,
    identity_tensor,
    irreducible_sgr2_cubic,
    max_compressibility,
    multiindex_multiplicity,
    parse_hypergraph,
    small_cw,
    sym_matrix_mult,
    tensor_from_json,
    w_state,
)

FP = PrimeField(2**31 - 1)


def random_symmetric(rng, d, m):
    entries = {}
    idxs = _sorted_indices(d, m)
    for idx in idxs:
        v = rng.randint(-4, 4)
        if v:
            entries[idx] = v
    if not entries:
        entries[idxs[0]] = 1
    return SymmetricTensor(d, m, entries)


def _sorted_indices(d, m, start=0):
    if d == 0:
        return [()]
    out = []
    for i in range(start, m):
        for rest in _sorted_indices(d - 1, m, i):
            out.append((i,) + rest)
    return out


# ---------------------------------------------------------------------------
# Polynomial conversion
# ---------------------------------------------------------------------------

def test_w_summand_polynomial():
    t = SymmetricTensor(3, 2, {(0, 1, 1): 1})
    assert str(t.to_polynomial()) == "3*x0*x1^2"


def test_elementary_cube():
    t = SymmetricTensor(3, 2, {(0, 0, 0): 1})
    assert str(t.to_polynomial()) == "x0^3"


def test_identity_tensor_polynomial():
    t = identity_tensor(3, 3, 3)
    assert t.to_polynomial() == parse_polynomial("x0^3 + x1^3 + x2^3", nvars=4)


def test_zero_tensor_has_no_polynomial():
    t = SymmetricTensor(3, 2, {})
    with pytest.raises(InvalidInputError):
        t.to_polynomial()


def test_from_polynomial_inverse():
    rng = random.Random(6)
    for _ in range(60):
        d = rng.randint(2, 4)
        m = rng.randint(1, 5)
        t = random_symmetric(rng, d, m)
        assert SymmetricTensor.from_polynomial(t.to_polynomial()) == t


def test_to_polynomial_inverse_on_forms():
    rng = random.Random(61)
    for _ in range(60):
        m = rng.randint(1, 4)
        d = rng.randint(2, 4)
        ring = PolyRing(m)
        terms = {}
        for idx in _sorted_indices(d, m):
            mono = [0] * m
            for i in idx:
                mono[i] += 1
            v = rng.randint(-4, 4)
            if v:
                terms[tuple(mono)] = v
        f = ring.from_dict(terms)
        if f.is_zero():
            continue
        assert SymmetricTensor.from_polynomial(f).to_polynomial() == f


def test_from_polynomial_specific():
    t = SymmetricTensor.from_polynomial(parse_polynomial("3*x0*x1^2", nvars=2))
    assert t == SymmetricTensor(3, 2, {(0, 1, 1): 1})
    t2 = SymmetricTensor.from_polynomial(parse_polynomial("x0^3", nvars=1))
    assert t2 == SymmetricTensor(3, 1, {(0, 0, 0): 1})


def test_from_polynomial_rejects_inhomogeneous():
    with pytest.raises(InvalidInputError):
        SymmetricTensor.from_polynomial(parse_polynomial("x0^2 + x1", nvars=2))


def test_multiplicity():
    assert multiindex_multiplicity((0, 0, 0)) == 1
    assert multiindex_multiplicity((0, 1, 1)) == 3
    assert multiindex_multiplicity((0, 1, 2)) == 6


# ---------------------------------------------------------------------------
# Slices
# ---------------------------------------------------------------------------

def test_general_slice_unit():
    t = GeneralTensor(3, 2, {(0, 1, 1): 1})
    s = t.slice(2, 1)
    assert s.entries == {(0, 1): 1}


def test_symmetric_slices_agree_across_axes():
    rng = random.Random(13)
    for _ in range(30):
        t = random_symmetric(rng, 3, rng.randint(2, 4))
        g = t.to_general()
        for k in range(t.dim):
            mats = [g.slice(a, k).entries for a in range(3)]
            assert mats[0] == mats[1] == mats[2]
            assert t.slice(0, k).to_general().entries == mats[0]


def test_slice_gradient_identity():
    # 3 * (quadratic form of slice k) equals d(form)/dx_k for cubics
    rng = random.Random(14)
    for _ in range(30):
        t = random_symmetric(rng, 3, rng.randint(2, 4))
        f = t.to_polynomial()
        for k in range(t.dim):
            sl = t.slice(2, k)
            if sl.is_zero():
                assert f.partial_derivative(k).is_zero()
                continue
            assert sl.to_polynomial() * 3 == f.partial_derivative(k)


def test_big_cw_slices_reproduce_gradient():
    # the three slices of the q=1 tensor give 3 * x^T T_k x = dF/dx_k
    t = big_cw(1, 2)
    f = t.to_polynomial()
    for k in range(3):
        sl = t.slice(2, k)
        assert sl.to_polynomial() * 3 == f.partial_derivative(k)


def test_slice_out_of_range():
    t = identity_tensor(1, 1, 3)
    with pytest.raises(InvalidInputError):
        t.slice(3, 0)
    with pytest.raises(InvalidInputError):
        t.slice(0, 5)


# ---------------------------------------------------------------------------
# Direct sum and matrix action
# ---------------------------------------------------------------------------

def test_direct_sum_identity_tensors():
    a = identity_tensor(2, 1, 3)
    b = identity_tensor(3, 2, 3)
    s = a.direct_sum(b)
    assert s == identity_tensor(5, 4, 3)


def test_direct_sum_polynomial_splits():
    rng = random.Random(15)
    for _ in range(20):
        a = random_symmetric(rng, 3, rng.randint(1, 3))
        b = random_symmetric(rng, 3, rng.randint(1, 3))
        s = a.direct_sum(b)
        fa, fb, fs = a.to_polynomial(), b.to_polynomial(), s.to_polynomial()
        # every monomial of fs involves only the first block or only the second
        for mono in fs.terms:
            first = any(e for e in mono[: a.dim])
            second = any(e for e in mono[a.dim:])
            assert not (first and second)
        # and the block pieces match fa, fb on their variables
        for mono, c in fa.terms.items():
            assert fs.terms[mono + (0,) * b.dim] == c
        for mono, c in fb.terms.items():
            assert fs.terms[(0,) * a.dim + mono] == c


def test_direct_sum_order_mismatch():
    with pytest.raises(DimensionMismatchError):
        identity_tensor(1, 1, 3).direct_sum(identity_tensor(1, 1, 4))


def test_apply_identity_matrix():
    rng = random.Random(16)
    t = random_symmetric(rng, 3, 3)
    eye = [[1 if i == j else 0 for j in range(3)] for i in range(3)]
    assert t.apply_matrix(eye) == t


def test_apply_matrix_matches_substitution():
    rng = random.Random(18)
    for _ in range(25):
        m = rng.randint(2, 3)
        t = random_symmetric(rng, 3, m)
        a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        image = t.apply_matrix(a)
        f = t.to_polynomial()
        if image.is_zero():
            assert f.substitute_linear(a).is_zero()
        else:
            assert image.to_polynomial() == f.substitute_linear(a)


def test_apply_matrix_composes():
    rng = random.Random(19)
    for _ in range(15):
        m = rng.randint(2, 3)
        t = random_symmetric(rng, 3, m)
        a = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(m)]
        ab = [[sum(a[i][k] * b[k][j] for k in range(m)) for j in range(m)] for i in range(m)]
        # the action is a left action: A.(B.T) == (A B).T
        assert t.apply_matrix(b).apply_matrix(a) == t.apply_matrix(ab)


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
def test_tensor_sums_never_store_zero(field):
    rng = random.Random(78)
    for _ in range(60):
        m = rng.randint(2, 3)
        s = random_symmetric(rng, 3, m).with_field(field)
        t = random_symmetric(rng, 3, m).with_field(field)
        a = [[rng.choice((-1, 0, 1)) for _ in range(m)] for _ in range(m)]
        ones = [[1] * m for _ in range(m)]  # singular
        for u in (s + t, s + s.scale(-1), s.apply_matrix(a), (s + t).apply_matrix(ones)):
            assert all(u.entries.values())
        image = s.apply_matrix(a)
        f = s.to_polynomial().substitute_linear(a)
        assert image.is_zero() == f.is_zero()
        if not image.is_zero():
            assert image.to_polynomial() == f


def test_symmetric_and_general_tensors_never_equal():
    entries = {(0, 0): 1, (0, 1): 2, (1, 0): 2}
    s = SymmetricTensor(2, 2, entries)
    g = GeneralTensor(2, 2, entries)
    assert s.to_general() == g and g.to_symmetric() == s
    assert s != g and g != s
    assert hash(s) == hash(SymmetricTensor(2, 2, {(0, 1): 2, (0, 0): 1}))
    with pytest.raises(TypeError):
        hash(g)


def test_symmetric_conflict_detected_in_either_dict_order():
    for entries in ({(0, 1): 0, (1, 0): 5}, {(1, 0): 5, (0, 1): 0}):
        with pytest.raises(InvalidInputError):
            SymmetricTensor(2, 2, entries)
    assert SymmetricTensor(2, 2, {(0, 1): 2, (1, 0): 2}).entries == {(0, 1): 2}
    assert SymmetricTensor(2, 2, {(0, 1): 0, (1, 0): 0}).is_zero()


@pytest.mark.parametrize("cls", [SymmetricTensor, GeneralTensor])
def test_zero_entries_get_their_index_checked(cls):
    # a zero value is dropped, but only after its index is checked
    for val in (0, 1):
        with pytest.raises(DimensionMismatchError):
            cls(2, 2, {(0, 1, 1): val})
        with pytest.raises(InvalidInputError):
            cls(2, 2, {(0, 5): val})


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------

def test_big_cw_polynomial():
    f = big_cw(2, 3).to_polynomial()
    assert f == parse_polynomial("3*x0*x1^2 + 3*x0*x2^2 + 3*x0^2*x3", nvars=4)


def test_small_cw_polynomial():
    f = small_cw(2, 2).to_polynomial()
    assert f == parse_polynomial("3*x0*x1^2 + 3*x0*x2^2", nvars=3)


def test_max_compressibility_polynomial():
    f = max_compressibility(2, 2).to_polynomial()
    assert f == parse_polynomial("x0^3 + 3*x0*x1^2 + 3*x0*x2^2", nvars=3)


def test_w_state_polynomial():
    assert str(w_state(1).to_polynomial()) == "3*x0^2*x1"


def test_complete_homogeneous_has_unit_coefficients():
    for n in (1, 2, 3):
        f = complete_homogeneous_cubic(n).to_polynomial()
        assert all(c == 1 for c in f.terms.values())
        from math import comb
        assert len(f.terms) == comb(n + 3, 3)


def test_sym_matrix_mult_is_trace_form():
    f = sym_matrix_mult(2)
    # tr(X^3) for X = [[a,b],[c,d]] is a^3 + 3abc + 3bcd + d^3
    assert f == parse_polynomial(
        "x0^3 + 3*x0*x1*x2 + 3*x1*x2*x3 + x3^3", nvars=4
    )


def test_constructor_parameter_ranges():
    with pytest.raises(InvalidInputError):
        identity_tensor(5, 3, 3)  # k > n+1
    with pytest.raises(InvalidInputError):
        big_cw(3, 3)  # needs q+1 <= n
    with pytest.raises(InvalidInputError):
        small_cw(4, 3)
    with pytest.raises(InvalidInputError):
        max_compressibility(4, 3)
    with pytest.raises(InvalidInputError):
        irreducible_sgr2_cubic(5)
    with pytest.raises(InvalidInputError):
        irreducible_sgr2_cubic(3, 2)


def test_normal_form_table():
    assert irreducible_sgr2_cubic(2, 1) == parse_polynomial("x0^2*x2 + x1^3", nvars=3)
    assert irreducible_sgr2_cubic(3) == parse_polynomial("x0^2*x2 + x1^3 + x0*x1*x3", nvars=4)


# ---------------------------------------------------------------------------
# Hypergraphs
# ---------------------------------------------------------------------------

def test_parse_single_edge():
    hg = parse_hypergraph("1 2 3\n")
    assert hg.n == 3 and hg.uniformity == 3 and len(hg.edges) == 1
    t = hypergraph_tensor(hg)
    assert t.entries == {(0, 1, 2): 1}
    assert str(t.to_polynomial()) == "6*x0*x1*x2"


def test_parse_comments_and_blank_lines():
    hg = parse_hypergraph("# a triangle\n1 2\n\n2 3\n1 3  # last edge\n")
    assert hg.n == 3 and hg.uniformity == 2 and len(hg.edges) == 3


def test_triangle_tensor_is_adjacency():
    hg = parse_hypergraph("1 2\n2 3\n1 3\n")
    t = hypergraph_tensor(hg)
    f = t.to_polynomial()
    assert f == parse_polynomial("2*x0*x1 + 2*x0*x2 + 2*x1*x2", nvars=3)


def test_parse_rejects_bad_edges():
    with pytest.raises(ParseError):
        parse_hypergraph("")
    with pytest.raises(ParseError):
        parse_hypergraph("# only a comment\n")
    with pytest.raises(ParseError):
        parse_hypergraph("1 2\n1 2 3\n")  # non-uniform
    with pytest.raises(ParseError):
        parse_hypergraph("1 1 2\n")  # repeated vertex
    with pytest.raises(ParseError):
        parse_hypergraph("0 1\n")  # 1-based indices
    with pytest.raises(ParseError):
        parse_hypergraph("1 two\n")


def test_hypergraph_vertex_relabeling_matches_matrix_action():
    rng = random.Random(20)
    hg = parse_hypergraph("1 2 3\n2 3 4\n1 3 4\n")
    t = hypergraph_tensor(hg)
    perm = list(range(hg.n))
    rng.shuffle(perm)
    relabeled = Hypergraph(
        hg.n, hg.uniformity,
        [frozenset(perm[v - 1] + 1 for v in e) for e in hg.edges],
    )
    pmat = [[1 if perm[j] == i else 0 for j in range(hg.n)] for i in range(hg.n)]
    assert hypergraph_tensor(relabeled) == t.apply_matrix(pmat)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def test_json_roundtrip_symmetric():
    rng = random.Random(21)
    for _ in range(20):
        t = random_symmetric(rng, rng.randint(2, 3), rng.randint(1, 4))
        doc = t.to_json()
        back = tensor_from_json(doc)
        assert back == t


def test_json_roundtrip_general():
    t = GeneralTensor(3, 2, {(0, 1, 1): 1, (1, 0, 1): Fraction(1, 2)})
    assert tensor_from_json(t.to_json()) == t


def test_json_values_keep_their_public_types():
    # the int shortcut for literals does not leak ints: entries over QQ, and
    # the coefficients of the form, stay Fractions; over Fp they are residues
    doc = json.dumps({"order": 3, "dim": 2, "symmetric": True, "entries": [
        {"idx": [0, 0, 1], "val": "-2"}, {"idx": [0, 1, 1], "val": "1/3"},
        {"idx": [1, 1, 1], "val": 4}, {"idx": [0, 0, 0], "val": "0"}]})
    t = tensor_from_json(doc)
    assert t.entries == {(0, 0, 1): -2, (0, 1, 1): Fraction(1, 3), (1, 1, 1): 4}
    assert {type(v) for v in t.entries.values()} == {Fraction}
    form = t.to_polynomial()
    assert form.terms == {(2, 1): -6, (1, 2): 1, (0, 3): 4}
    assert {type(c) for c in form.terms.values()} == {Fraction}
    f7 = tensor_from_json(doc, field=PrimeField(7))
    assert f7.entries == {(0, 0, 1): 5, (0, 1, 1): 5, (1, 1, 1): 4}
    assert f7.to_polynomial().terms == {(2, 1): 1, (1, 2): 1, (0, 3): 4}


def test_json_schema_fields():
    doc = json.loads(identity_tensor(2, 2, 3).to_json())
    assert doc["order"] == 3 and doc["dim"] == 3 and doc["symmetric"] is True
    assert doc["entries"] == [
        {"idx": [0, 0, 0], "val": "1"},
        {"idx": [1, 1, 1], "val": "1"},
    ]


def test_json_rejects_duplicates_and_unsorted():
    base = {"order": 2, "dim": 2, "symmetric": True}
    dup = dict(base, entries=[{"idx": [0, 1], "val": "1"}, {"idx": [0, 1], "val": "2"}])
    with pytest.raises(ParseError):
        tensor_from_json(json.dumps(dup))
    unsorted = dict(base, entries=[{"idx": [1, 0], "val": "1"}])
    with pytest.raises(ParseError):
        tensor_from_json(json.dumps(unsorted))
    general = dict(base, symmetric=False, entries=[{"idx": [1, 0], "val": "1"}])
    assert tensor_from_json(json.dumps(general)).entries == {(1, 0): 1}


def test_json_rejects_garbage():
    with pytest.raises(ParseError):
        tensor_from_json("not json")
    with pytest.raises(ParseError):
        tensor_from_json(json.dumps({"order": 2}))
    with pytest.raises(ParseError):
        tensor_from_json(json.dumps(
            {"order": 2, "dim": 2, "symmetric": True,
             "entries": [{"idx": [0, 5], "val": "1"}]}
        ))


@pytest.mark.parametrize("change", [
    {"order": 3.9},
    {"dim": 2.5},
    {"order": True},
    {"dim": "2"},
    {"symmetric": "no"},
    {"symmetric": 1},
    {"entries": [{"idx": [0, True, 1], "val": "1"}]},
    {"entries": [{"idx": [0, 1.0, 1], "val": "1"}]},
    {"entries": [{"idx": "011", "val": "1"}]},
    {"entries": [{"idx": [0, 1, 1], "val": True}]},
    {"entries": [{"idx": [0, 1, 1], "val": 1.5}]},
], ids=lambda change: json.dumps(change))
def test_json_rejects_malformed_types(change):
    doc = {"order": 3, "dim": 2, "symmetric": True,
           "entries": [{"idx": [0, 1, 1], "val": "1"}]}
    with pytest.raises(ParseError):
        tensor_from_json(json.dumps(dict(doc, **change)))
    assert tensor_from_json(json.dumps(doc)) == SymmetricTensor(3, 2, {(0, 1, 1): 1})


def test_json_accepts_rational_strings():
    doc = {"order": 2, "dim": 2, "symmetric": True,
           "entries": [{"idx": [0, 1], "val": "2/3"}]}
    t = tensor_from_json(json.dumps(doc))
    assert t.entries[(0, 1)] == Fraction(2, 3)


def test_prime_field_tensor_load():
    doc = {"order": 2, "dim": 2, "symmetric": True,
           "entries": [{"idx": [0, 1], "val": "-1"}]}
    t = tensor_from_json(json.dumps(doc), field=FP)
    assert t.entries[(0, 1)] == FP.p - 1
