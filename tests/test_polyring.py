"""Field, monomial order and polynomial arithmetic tests."""

import random
from fractions import Fraction

import pytest

from sgrank.errors import DimensionMismatchError, InvalidInputError, ParseError
from sgrank.polyring import (
    GREVLEX,
    LEX,
    PolyRing,
    PrimeField,
    QQ,
    add_terms,
    format_polynomial,
    is_prime,
    parse_field,
    parse_polynomial,
)

FP = PrimeField(2**31 - 1)


def random_poly(rng, ring, max_terms=4, max_deg=3):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = [0] * ring.nvars
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(ring.nvars)] += 1
        terms[tuple(mono)] = rng.randint(-6, 6)
    return ring.from_dict(terms)


# ---------------------------------------------------------------------------
# Fields
# ---------------------------------------------------------------------------

def test_primality():
    assert is_prime(2) and is_prime(3) and is_prime(2**31 - 1)
    assert not is_prime(1) and not is_prime(2**31) and not is_prime(561)  # Carmichael


def test_prime_field_requires_prime():
    with pytest.raises(InvalidInputError):
        PrimeField(10)


def test_prime_field_arithmetic():
    f = PrimeField(7)
    assert f.convert(-1) == 6
    assert f.convert(Fraction(1, 2)) == 4  # 2*4 = 8 = 1 mod 7
    assert f.mul(3, 5) == 1
    assert f.inv(3) == 5
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_parse_field():
    assert parse_field("QQ") == QQ
    assert parse_field("Fp:7").p == 7
    with pytest.raises(InvalidInputError):
        parse_field("Fp:10")  # syntactically fine, not a prime
    with pytest.raises(ParseError):
        parse_field("Fp:abc")
    with pytest.raises(ParseError):
        parse_field("RR")


def test_rational_invariants():
    # Fraction keeps lowest terms and a positive denominator
    v = QQ.convert("-6/4")
    assert v.numerator == -3 and v.denominator == 2


def _outcome(convert, value):
    """("value", the result) or ("raises", the exception type)."""
    try:
        return "value", convert(value)
    except Exception as exc:  # the type is compared
        return "raises", type(exc)


@pytest.mark.parametrize("text", [
    "1_000", " 3 ", "+3", "-0", "\u0663", "\u00b2", "1/2", "0.5", "1e3", "", "0x10",
    "7", "-12", "007", "-6/4", "1/0", "1/7", "-1/-2", "--1", "1 /2", "1/", "/2", "-",
], ids=repr)
def test_literals_follow_the_grammar_of_fraction(text):
    # the int shortcut for [-]digits accepts exactly what Fraction accepts
    # on the running Python (3.10's Fraction rejects "1_000", which int()
    # accepts), with the same value, and raises ParseError where Fraction
    # raises
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        want = None
    for field in (QQ, PrimeField(7), FP):
        got = _outcome(field.convert, text)
        if want is None:
            assert got == ("raises", ParseError), (field, got)
        else:
            # over Fp:7 "1/7" raises InvalidInputError either way
            assert got == _outcome(field.convert, want), field
            assert type(got[1]) is type(field.zero) or got[0] == "raises"


# ---------------------------------------------------------------------------
# Ring axioms on random inputs (both fields)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("field", [QQ, FP], ids=["QQ", "Fp"])
def test_ring_axioms(field):
    rng = random.Random(12345)
    ring = PolyRing(3, field)
    for _ in range(1000):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        h = random_poly(rng, ring)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + ring.zero() == f
        assert f * ring.one() == f
        assert f - f == ring.zero()


def test_add_drops_cancelled_terms():
    ring = PolyRing(2)
    f = parse_polynomial("x0^2 + x1", ring=ring)
    g = parse_polynomial("-x1", ring=ring)
    assert f + g == parse_polynomial("x0^2", ring=ring)
    assert (f + g).terms.keys() == {(2, 0)}


def test_add_terms_drops_zero_sums():
    items = [((1, 0), Fraction(-2)), ((0, 1), Fraction(0)), ((0, 2), Fraction(1)),
             ((0, 2), Fraction(3))]
    assert add_terms({(1, 0): Fraction(2)}, items, QQ) == {(0, 2): 4}
    assert add_terms({}, [("a", 3), ("a", 4), ("b", 5)], PrimeField(7)) == {"b": 5}


@pytest.mark.parametrize("field", [QQ, PrimeField(7)], ids=["QQ", "F7"])
def test_arithmetic_never_stores_zero(field):
    rng = random.Random(77)
    ring = PolyRing(3, field)
    x0, x1, _ = ring.gens()
    # the cross term cancels: 7 over F7, 1 - 1 over QQ
    c = 6 if field.characteristic else -1
    assert ((x0 + x1) * (x0 + x1 * c)).terms.keys() == {(2, 0, 0), (0, 2, 0)}
    for _ in range(300):
        f, g = random_poly(rng, ring), random_poly(rng, ring)
        for h in (f + g, f - g, f * g, (f + g) * (f - g)):
            assert all(h.terms.values())
        ref = {}
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                m = tuple(a + b for a, b in zip(m1, m2))
                ref[m] = field.add(ref.get(m, field.zero), field.mul(c1, c2))
        assert (f * g).terms == {m: v for m, v in ref.items() if v != field.zero}


def test_mul_examples():
    ring = PolyRing(3)
    x0, x1, x2 = ring.gens()
    assert x0 * (x1 * x1 + x2 * x2) == parse_polynomial("x0*x1^2 + x0*x2^2", ring=ring)
    f = (x0 + x1) ** 2 * x2
    assert f == parse_polynomial("x0^2*x2 + 2*x0*x1*x2 + x1^2*x2", ring=ring)


def test_mismatched_rings_raise():
    f = parse_polynomial("x0", nvars=2)
    g = parse_polynomial("x0", nvars=3)
    with pytest.raises(DimensionMismatchError):
        f + g
    with pytest.raises(DimensionMismatchError):
        f * g


@pytest.mark.parametrize("exp", [-1, 1.5, 2.0, "1", Fraction(1)])
def test_from_dict_rejects_non_integer_exponents(exp):
    with pytest.raises(InvalidInputError):
        PolyRing(2).from_dict({(exp, 0): 1})


# ---------------------------------------------------------------------------
# Calculus
# ---------------------------------------------------------------------------

def test_partial_derivative_examples():
    f = parse_polynomial("x0^2*x2 + x1^3", nvars=3)
    assert f.partial_derivative(1) == parse_polynomial("3*x1^2", nvars=3)
    assert PolyRing(2).constant(5).partial_derivative(0).is_zero()
    g = parse_polynomial("x0*x1^2", nvars=2)
    assert g.partial_derivative(0) == parse_polynomial("x1^2", nvars=2)
    assert g.partial_derivative(1) == parse_polynomial("2*x0*x1", nvars=2)


def test_derivative_linear_and_leibniz():
    rng = random.Random(777)
    ring = PolyRing(3)
    for _ in range(200):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        i = rng.randrange(3)
        assert (f + g).partial_derivative(i) == f.partial_derivative(i) + g.partial_derivative(i)
        assert (f * g).partial_derivative(i) == (
            f.partial_derivative(i) * g + f * g.partial_derivative(i)
        )


def test_euler_identity():
    # sum_i x_i * df/dx_i = d * f for homogeneous f of degree d
    rng = random.Random(31)
    ring = PolyRing(4)
    xs = ring.gens()
    for _ in range(100):
        d = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 5)):
            mono = [0] * 4
            for _ in range(d):
                mono[rng.randrange(4)] += 1
            terms[tuple(mono)] = rng.randint(-5, 5)
        f = ring.from_dict(terms)
        if f.is_zero():
            continue
        total = ring.zero()
        for i, x in enumerate(xs):
            total = total + x * f.partial_derivative(i)
        assert total == f * d


def test_evaluate():
    f = parse_polynomial("x0^2*x1", nvars=2)
    assert f.evaluate([1, 1]) == 1
    h2 = parse_polynomial("x0^2 + x0*x1 + x1^2", nvars=2)
    assert h2.evaluate([1, -1]) == 1
    assert h2.evaluate([0, 0]) == 0
    with pytest.raises(DimensionMismatchError):
        f.evaluate([1])


def test_evaluate_is_ring_homomorphism():
    rng = random.Random(5)
    ring = PolyRing(3)
    for _ in range(100):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        pt = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3)]
        assert (f + g).evaluate(pt) == f.evaluate(pt) + g.evaluate(pt)
        assert (f * g).evaluate(pt) == f.evaluate(pt) * g.evaluate(pt)


# ---------------------------------------------------------------------------
# Linear substitution
# ---------------------------------------------------------------------------

def test_substitute_identity_and_permutation():
    ring = PolyRing(2)
    f = parse_polynomial("x0^2", ring=ring)
    eye = [[1, 0], [0, 1]]
    swap = [[0, 1], [1, 0]]
    assert f.substitute_linear(eye) == f
    assert f.substitute_linear(swap) == parse_polynomial("x1^2", ring=ring)


def test_substitute_projection_kills_variable():
    ring = PolyRing(2)
    f = parse_polynomial("x0^2*x1", ring=ring)
    proj = [[1, 0], [0, 0]]
    assert f.substitute_linear(proj).is_zero()


def test_substitute_agrees_with_evaluation():
    # F(A^T x) evaluated at v equals F evaluated at A^T v
    rng = random.Random(99)
    ring = PolyRing(3)
    for _ in range(50):
        f = random_poly(rng, ring)
        a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(3)]
        g = f.substitute_linear(a)
        v = [rng.randint(-3, 3) for _ in range(3)]
        atv = [sum(a[j][i] * v[j] for j in range(3)) for i in range(3)]
        assert g.evaluate(v) == f.evaluate(atv)
    # k x 3 matrices map into k variables: a line (k = 2) and a lift (k = 4)
    for k in (2, 4):
        for _ in range(30):
            f = random_poly(rng, ring)
            a = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(k)]
            g = f.substitute_linear(a)
            assert g.ring == PolyRing(k)
            v = [rng.randint(-3, 3) for _ in range(k)]
            atv = [sum(a[j][i] * v[j] for j in range(k)) for i in range(3)]
            assert g.evaluate(v) == f.evaluate(atv)


def test_substitute_is_an_action():
    # substituting A then B equals substituting the product B*A
    rng = random.Random(41)
    ring = PolyRing(4)
    for _ in range(30):
        f = random_poly(rng, ring, max_terms=3, max_deg=3)
        a = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        b = [[rng.randint(-2, 2) for _ in range(4)] for _ in range(4)]
        ba = [[sum(b[i][k] * a[k][j] for k in range(4)) for j in range(4)] for i in range(4)]
        assert f.substitute_linear(a).substitute_linear(b) == f.substitute_linear(ba)


def test_substitute_shape_check():
    f = parse_polynomial("x0", nvars=2)
    with pytest.raises(DimensionMismatchError):
        f.substitute_linear([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    with pytest.raises(DimensionMismatchError):
        f.substitute_linear([[1, 0], [0, 1, 0]])  # one row of the wrong length
    with pytest.raises(DimensionMismatchError):
        f.substitute_linear([])


# ---------------------------------------------------------------------------
# Monomial orders
# ---------------------------------------------------------------------------

def test_grevlex_explicit_chain():
    # degree-2 monomials in 3 variables, largest first
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    keys = [GREVLEX.key(m) for m in chain]
    assert keys == sorted(keys, reverse=True)


def test_lex_precedence():
    assert LEX.key((1, 0)) > LEX.key((0, 5))
    assert GREVLEX.key((0, 5)) > GREVLEX.key((1, 0))  # grevlex refines degree


@pytest.mark.parametrize("order", [GREVLEX, LEX], ids=["grevlex", "lex"])
def test_order_is_total_and_multiplicative(order):
    rng = random.Random(8)
    for _ in range(500):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        c = tuple(rng.randint(0, 4) for _ in range(4))
        ka, kb = order.key(a), order.key(b)
        assert (ka == kb) == (a == b)
        if ka < kb:
            ac = tuple(x + y for x, y in zip(a, c))
            bc = tuple(x + y for x, y in zip(b, c))
            assert order.key(ac) < order.key(bc)


def test_grevlex_refines_degree():
    rng = random.Random(9)
    for _ in range(500):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        if sum(a) < sum(b):
            assert GREVLEX.key(a) < GREVLEX.key(b)


# ---------------------------------------------------------------------------
# Parse / format
# ---------------------------------------------------------------------------

def test_parse_examples():
    f = parse_polynomial("x0^2*x2 + x1^3")
    assert f.ring.nvars == 3
    assert f.coefficient((2, 0, 1)) == 1
    assert f.coefficient((0, 3, 0)) == 1
    assert parse_polynomial("0").is_zero()
    g = parse_polynomial("3*x0*x1^2 - x2^3")
    assert parse_polynomial(format_polynomial(g)) == g


def test_parse_fractions_and_signs():
    f = parse_polynomial("1/2*x0 - 3/4*x1 + 2", nvars=2)
    assert f.coefficient((1, 0)) == Fraction(1, 2)
    assert f.coefficient((0, 1)) == Fraction(-3, 4)
    assert f.coefficient((0, 0)) == 2


def test_parse_whitespace_insensitive():
    assert parse_polynomial(" x0 ^ 2 * x1 + 1 ", nvars=2) == parse_polynomial("x0^2*x1+1", nvars=2)


def test_parse_repeated_variable_accumulates():
    assert parse_polynomial("x0*x0", nvars=1) == parse_polynomial("x0^2", nvars=1)


def test_parse_sums_over_QQ_before_converting():
    """Terms are summed over QQ, then each sum is converted into the field once."""
    f7 = PrimeField(7)
    x1 = parse_polynomial("x1", nvars=2, field=f7)
    assert parse_polynomial("3*x0 + 4*x0 + x1", field=f7) == x1
    # 1/7 has no residue mod 7, but its two terms cancel over QQ first
    assert parse_polynomial("1/7*x0 - 1/7*x0 + x1", field=f7) == x1
    with pytest.raises(InvalidInputError, match="denominator of 1/7 vanishes modulo 7"):
        parse_polynomial("1/7*x0 + x1", field=f7)
    assert parse_polynomial("7*x0 + x1").convert_field(f7) == x1
    with pytest.raises(InvalidInputError):
        parse_polynomial("1/14*x0").convert_field(f7)


def test_parse_errors_have_positions():
    with pytest.raises(ParseError):
        parse_polynomial("")
    with pytest.raises(ParseError) as e:
        parse_polynomial("x0 + ")
    assert e.value.position is not None
    with pytest.raises(ParseError):
        parse_polynomial("x0 & x1")
    with pytest.raises(ParseError):
        parse_polynomial("x5", nvars=2)  # unknown variable
    with pytest.raises(ParseError):
        parse_polynomial("x0^1/2")
    with pytest.raises(ParseError):
        parse_polynomial("3*")


@pytest.mark.parametrize("text, kw, message, position", [
    ("x0 + ", {}, "dangling sign", 3),
    ("x0 - +", {}, "dangling sign", 5),
    ("+", {}, "dangling sign", 0),
    ("*x0", {}, "expected coefficient or variable", 0),
    ("^2", {}, "expected coefficient or variable", 0),
    ("x0*3", {}, "expected variable after '*'", 3),
    ("x0**x1", {}, "expected variable after '*'", 3),
    ("3*", {}, "expected variable after '*'", 2),
    ("x0*", {}, "expected variable after '*'", 3),
    ("x0^", {}, "expected integer exponent after '^'", 3),
    ("x0^-1", {}, "expected integer exponent after '^'", 3),
    ("x0^1/2", {}, "expected integer exponent after '^'", 3),
    ("x0 x1", {}, "expected '+' or '-', got 'x1'", 3),
    ("2 3", {}, "expected '+' or '-', got '3'", 2),
    ("x0^2^3", {}, "expected '+' or '-', got '^'", 4),
    ("x", {}, "unexpected character 'x'", 0),
    ("x0 &", {}, "unexpected character '&'", 3),
    ("x5", {"nvars": 2}, "unknown variable x5", 0),
    ("x0 + x3", {"ring": PolyRing(3)}, "unknown variable x3", 5),
])
def test_parse_error_messages_and_positions(text, kw, message, position):
    with pytest.raises(ParseError) as e:
        parse_polynomial(text, **kw)
    assert str(e.value) == f"{message} (at position {position})"
    assert e.value.position == position


@pytest.mark.parametrize("text, nvars, terms", [
    ("3x0", 1, {(1,): 3}),
    ("--x1", 2, {(0, 1): 1}),
    ("2/4*x1 - -x1", 2, {(0, 1): Fraction(3, 2)}),
    ("7\n-x3", 4, {(0, 0, 0, 0): 7, (0, 0, 0, 1): -1}),
])
def test_parse_accepts_edge_forms(text, nvars, terms):
    f = parse_polynomial(text)
    assert f.ring.nvars == nvars
    assert f.terms == terms


def test_parse_zero_denominator_is_parse_error():
    # the position is the literal's offset, as for every other grammar error
    for text, literal, position in (("1/0*x0^3", "1/0", 0), ("x0^3 + 2/0", "2/0", 7),
                                    ("0/0", "0/0", 0)):
        with pytest.raises(ParseError) as e:
            parse_polynomial(text)
        assert str(e.value) == f"bad rational literal '{literal}' (at position {position})"
        assert e.value.position == position


def test_format_roundtrip_random():
    rng = random.Random(2)
    for field in (QQ, FP):
        ring = PolyRing(3, field)
        for _ in range(200):
            f = random_poly(rng, ring)
            assert parse_polynomial(format_polynomial(f), ring=ring) == f


def test_zero_polynomial_formats_as_zero():
    assert format_polynomial(PolyRing(2).zero()) == "0"


def test_field_conversion_roundtrip():
    f = parse_polynomial("2*x0^2 - 1/3*x1")
    g = f.convert_field(FP)
    assert g.ring.field == FP
    # -1/3 becomes a residue; converting a small-int polynomial back is exact
    h = parse_polynomial("2*x0^2 + 5*x1").convert_field(FP).convert_field(QQ)
    assert h == parse_polynomial("2*x0^2 + 5*x1")
