"""Exact coefficient fields, monomial orders and sparse multivariate polynomials.

Coefficients are either arbitrary-precision rationals (``fractions.Fraction``,
always in lowest terms with positive denominator) or residues in a prime field
(plain ints in ``[0, p)``).  A :class:`RationalField` or :class:`PrimeField`
instance interprets the raw values; polynomials never box individual scalars.
A literal of the form ``[-]digits`` (ASCII digits only) is read with
``int``; any other text goes to ``Fraction``, whose grammar decides what
is accepted (:func:`_literal`).

Monomials are exponent tuples, one entry per variable.  A polynomial is a map
from monomial to nonzero coefficient together with its :class:`PolyRing`
context (variable count, field, monomial order).  The zero polynomial has an
empty term map.  A polynomial is immutable, so it computes its sorted terms,
its lowest and highest degree and its integer image once, on first use.

Where integers stand in for Fractions: the integer image
(:meth:`Polynomial._integer_terms`) is the polynomial times the lcm of its
denominators over QQ, and each residue as the int of least magnitude over
Fp.  The rank layer builds the singular ideal's generators, its factor
check and its twisted systems from it.  Over QQ those are Polynomials whose
coefficients are ints, which the Groebner engine reads as it reads
Fractions (``numerator`` and ``denominator``); scaling a generator changes
neither its monic reducer nor the run.  They stay inside the rank layer:
every public result over QQ, ``singular_ideal`` and the reduced bases
included, holds Fractions.

:func:`add_terms` is the one sparse sum outside the Groebner engine: the
parser, polynomial ``+`` and ``*``, and the tensor sums in
:mod:`sgrank.tensor` all add (key, coefficient) pairs through it.
"""

from __future__ import annotations

import operator
import re
from fractions import Fraction
from math import lcm

from .errors import DimensionMismatchError, InvalidInputError, ParseError

Monomial = tuple  # exponent tuple, one non-negative int per variable


# ---------------------------------------------------------------------------
# Primality (deterministic Miller-Rabin for the supported range)
# ---------------------------------------------------------------------------

# These witnesses decide primality deterministically for n < 3.3 * 10^24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic primality test for n below 3.3e24."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise InvalidInputError(f"{n} is too large for deterministic primality testing")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# Coefficient fields
# ---------------------------------------------------------------------------

def _literal(text: str, what: str):
    """The value of a coefficient literal, with Fraction's grammar on the
    running Python: an int for ``[-]digits`` in ASCII digits, read with
    ``int``, else a Fraction.

    Any other text, with a plus sign, spaces, underscores, non-ASCII digits,
    a slash, a decimal point or an exponent, goes to ``Fraction``, so the
    shortcut accepts only what ``Fraction`` accepts, with the same value,
    and raises ParseError wherever ``Fraction`` raises.
    """
    body = text[1:] if text[:1] == "-" else text
    try:
        if body.isascii() and body.isdigit():
            return int(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad {what} literal {text!r}") from exc


class RationalField:
    """The rationals.  Elements are ``fractions.Fraction`` values."""

    name = "QQ"
    characteristic = 0

    zero = Fraction(0)
    one = Fraction(1)

    def convert(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        if isinstance(value, str):
            return self.convert(_literal(value, "rational"))
        raise InvalidInputError(f"cannot coerce {value!r} into QQ")

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def div(self, a, b):
        return a / b

    def inv(self, a):
        return 1 / a

    def pow(self, a, e):
        return a ** e

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


class PrimeField:
    """Integers modulo a prime p.  Elements are plain ints in [0, p)."""

    characteristic = None  # set per instance

    def __init__(self, p: int):
        if not is_prime(p):
            raise InvalidInputError(f"{p} is not prime")
        self.p = p
        self.characteristic = p
        self.name = f"Fp:{p}"
        self.zero = 0
        self.one = 1 % p

    def convert(self, value):
        p = self.p
        if isinstance(value, int):
            return value % p
        if isinstance(value, Fraction):
            den = value.denominator % p
            if den == 0:
                raise InvalidInputError(f"denominator of {value} vanishes modulo {p}")
            return value.numerator * pow(den, p - 2, p) % p
        if isinstance(value, str):
            return self.convert(_literal(value, "coefficient"))
        raise InvalidInputError(f"cannot coerce {value!r} into {self.name}")

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in prime field")
        return pow(a, self.p - 2, self.p)

    def div(self, a, b):
        return a * self.inv(b) % self.p

    def pow(self, a, e):
        return pow(a, e, self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return self.name


QQ = RationalField()

#: Default prime for fast modular runs; large enough that desk-scale
#: dimension computations agree with the rational ones.
DEFAULT_PRIME = 2**31 - 1


def add_terms(out: dict, items, field) -> dict:
    """Add (key, coefficient) pairs into ``out``, dropping keys that sum to zero.

    Field elements are falsy exactly at zero (``Fraction`` values and the
    residues of a :class:`PrimeField`), so the zero test is a truth test.
    Returns ``out``.
    """
    add = field.add
    get = out.get
    for key, c in items:
        prev = get(key)
        if prev is not None:
            c = add(prev, c)
        if c:
            out[key] = c
        elif prev is not None:
            del out[key]
    return out


def parse_field(selector: str):
    """Parse a field selector: ``QQ`` or ``Fp:<prime>``."""
    if selector == "QQ":
        return QQ
    if selector.startswith("Fp:"):
        try:
            p = int(selector[3:])
        except ValueError as exc:
            raise ParseError(f"bad field selector {selector!r}") from exc
        return PrimeField(p)
    raise ParseError(f"unknown field {selector!r} (expected QQ or Fp:<prime>)")


# ---------------------------------------------------------------------------
# Monomials and monomial orders
# ---------------------------------------------------------------------------

class MonomialOrder:
    """A global monomial order, given by a sort key (max key = leading)."""

    name = "abstract"

    def key(self, m: Monomial):
        raise NotImplementedError

    def __eq__(self, other):
        return type(self) is type(other)

    def __hash__(self):
        return hash(self.name)

    def __repr__(self):
        return self.name


class GrevlexOrder(MonomialOrder):
    """Graded reverse lexicographic order with precedence x0 > x1 > ..."""

    name = "grevlex"

    def key(self, m):
        return (sum(m), tuple(-e for e in reversed(m)))


class LexOrder(MonomialOrder):
    """Lexicographic order with precedence x0 > x1 > ..."""

    name = "lex"

    def key(self, m):
        return m


GREVLEX = GrevlexOrder()
LEX = LexOrder()

_ORDERS = {"grevlex": GREVLEX, "lex": LEX}


def order_by_name(name: str) -> MonomialOrder:
    try:
        return _ORDERS[name]
    except KeyError:
        raise ParseError(f"unknown monomial order {name!r}") from None


# ---------------------------------------------------------------------------
# Polynomial ring and polynomials
# ---------------------------------------------------------------------------

class PolyRing:
    """Ambient context for polynomials: variable count, field and order.

    Variables are named x0 .. x<nvars-1>, with x0 largest in the order.
    """

    __slots__ = ("nvars", "field", "order")

    def __init__(self, nvars: int, field=QQ, order: MonomialOrder = GREVLEX):
        if nvars < 1:
            raise InvalidInputError("a polynomial ring needs at least one variable")
        self.nvars = nvars
        self.field = field
        self.order = order

    def __eq__(self, other):
        return (
            isinstance(other, PolyRing)
            and self.nvars == other.nvars
            and self.field == other.field
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.nvars, self.field, self.order))

    def __repr__(self):
        return f"PolyRing(nvars={self.nvars}, field={self.field!r}, order={self.order!r})"

    # -- constructors -------------------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = self.field.convert(c)
        if c == self.field.zero:
            return Polynomial(self, {})
        return Polynomial(self, {(0,) * self.nvars: c})

    def gen(self, i: int) -> "Polynomial":
        if not 0 <= i < self.nvars:
            raise InvalidInputError(f"variable index {i} out of range for {self.nvars} variables")
        m = [0] * self.nvars
        m[i] = 1
        return Polynomial(self, {tuple(m): self.field.one})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def from_dict(self, terms: dict) -> "Polynomial":
        """Build a polynomial from {exponent tuple: coefficient-like}."""
        for mono in terms:
            if len(mono) != self.nvars:
                raise DimensionMismatchError(
                    f"monomial {tuple(mono)} has {len(mono)} exponents, ring has {self.nvars} variables"
                )
            if any(type(e) is not int or e < 0 for e in mono):
                raise InvalidInputError(
                    f"exponent in monomial {tuple(mono)} is not a non-negative integer"
                )
        return self._build((tuple(mono), coeff) for mono, coeff in terms.items())

    def _build(self, items) -> "Polynomial":
        """Build from (exponent tuple, coefficient-like) pairs with distinct, valid keys.

        Converts each coefficient into the field once and drops the zeros.
        """
        convert = self.field.convert
        return Polynomial(self, {m: v for m, c in items if (v := convert(c))})

    def with_field(self, field) -> "PolyRing":
        return PolyRing(self.nvars, field, self.order)

    def with_order(self, order: MonomialOrder) -> "PolyRing":
        return PolyRing(self.nvars, self.field, order)


class Polynomial:
    """Immutable sparse multivariate polynomial over an exact field.

    ``terms`` maps exponent tuples to nonzero coefficients.  Do not mutate it.
    """

    __slots__ = ("ring", "terms", "_sorted", "_degrees", "_ints")

    def __init__(self, ring: PolyRing, terms: dict):
        # Internal constructor: assumes canonical terms (use PolyRing.from_dict
        # for unchecked input).  The last three slots are caches, filled on
        # first use.
        self.ring = ring
        self.terms = terms
        self._sorted = None
        self._degrees = None
        self._ints = None

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        return len(self.terms)

    def _degree_range(self) -> tuple:
        """(lowest, highest) total degree of the terms, (-1, -1) for zero."""
        if self._degrees is None:
            degs = set(map(sum, self.terms)) or {-1}
            self._degrees = (min(degs), max(degs))
        return self._degrees

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return self._degree_range()[1]

    def is_homogeneous(self) -> bool:
        lowest, highest = self._degree_range()
        return lowest == highest

    def _integer_terms(self) -> dict:
        """The terms with int coefficients (the module docstring's integer
        image): over QQ times the lcm of the denominators, over Fp each
        residue as the int of least magnitude.  Do not mutate it."""
        if self._ints is None:
            terms = self.terms
            p = self.ring.field.characteristic
            if p:
                self._ints = {m: c if 2 * c <= p else c - p for m, c in terms.items()}
            else:
                den = lcm(*(c.denominator for c in terms.values()))
                self._ints = {m: c.numerator * (den // c.denominator) for m, c in terms.items()}
        return self._ints

    def sorted_terms(self):
        """Terms as a tuple of (monomial, coefficient), descending in the order."""
        if self._sorted is None:
            key = self.ring.order.key
            self._sorted = tuple(
                sorted(self.terms.items(), key=lambda t: key(t[0]), reverse=True)
            )
        return self._sorted

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise InvalidInputError("zero polynomial has no leading monomial")
        return self.sorted_terms()[0][0]

    def leading_coefficient(self):
        if not self.terms:
            return self.ring.field.zero
        return self.sorted_terms()[0][1]

    def coefficient(self, mono):
        return self.terms.get(tuple(mono), self.ring.field.zero)

    def _check_compatible(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise DimensionMismatchError(
                f"incompatible rings: {self.ring!r} vs {other.ring!r}"
            )

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_compatible(other)
        terms = add_terms(dict(self.terms), other.terms.items(), self.ring.field)
        return Polynomial(self.ring, terms)

    def __neg__(self):
        neg = self.ring.field.neg
        return Polynomial(self.ring, {m: neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check_compatible(other)
            field = self.ring.field
            mul = field.mul
            products = (
                (tuple(map(operator.add, m1, m2)), mul(c1, c2))
                for m1, c1 in self.terms.items()
                for m2, c2 in other.terms.items()
            )
            return Polynomial(self.ring, add_terms({}, products, field))
        # scalar
        field = self.ring.field
        c = field.convert(other)
        if c == field.zero:
            return Polynomial(self.ring, {})
        return Polynomial(self.ring, {m: field.mul(v, c) for m, v in self.terms.items()})

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, e: int):
        if e < 0:
            raise InvalidInputError("negative polynomial power")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ring, frozenset(self.terms.items())))

    # -- calculus and substitution -------------------------------------------

    def partial_derivative(self, i: int) -> "Polynomial":
        """Formal partial derivative with respect to x_i."""
        if not 0 <= i < self.ring.nvars:
            raise InvalidInputError(f"variable index {i} out of range")
        field = self.ring.field
        out = {}
        for m, c in self.terms.items():
            e = m[i]
            if e == 0:
                continue
            nc = field.mul(c, e)
            if nc:
                # m -> m - e_i is injective, so no two terms meet
                out[m[:i] + (e - 1,) + m[i + 1:]] = nc
        return Polynomial(self.ring, out)

    def evaluate(self, point):
        """Exact evaluation at a point (sequence of coercible scalars)."""
        if len(point) != self.ring.nvars:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, ring has {self.ring.nvars} variables"
            )
        field = self.ring.field
        vals = [field.convert(v) for v in point]
        total = field.zero
        for m, c in self.terms.items():
            term = c
            for v, e in zip(vals, m):
                if e:
                    term = field.mul(term, field.pow(v, e))
            total = field.add(total, term)
        return total

    def substitute_linear(self, matrix) -> "Polynomial":
        """Return F(A^T y) for a k x n matrix A over the same field.

        Row j of ``matrix`` is the image of e_j, matching the matrix action on
        tensors: the substitution sends x_i to sum_j A[j][i] y_j.  The result
        lives in k variables over the same field and order, so two rows p, q
        restrict F to the line through them as F(y0*p + y1*q).
        """
        n = self.ring.nvars
        rows = [list(r) for r in matrix]
        if not rows or any(len(r) != n for r in rows):
            raise DimensionMismatchError(f"matrix must have k >= 1 rows of {n} entries")
        ring = PolyRing(len(rows), self.ring.field, self.ring.order)
        gens = ring.gens()
        images = [sum((g * row[i] for g, row in zip(gens, rows)), ring.zero()) for i in range(n)]
        result = ring.zero()
        for m, c in self.terms.items():
            term = ring.constant(c)
            for image, e in zip(images, m):
                if e:
                    term = term * image ** e
            result = result + term
        return result

    def convert_field(self, field) -> "Polynomial":
        """Map coefficients into another field (rationals into residues, etc.)."""
        if field == self.ring.field:
            return self
        return self.ring.with_field(field)._build(self.terms.items())

    def convert_order(self, order: MonomialOrder) -> "Polynomial":
        if order == self.ring.order:
            return self
        return Polynomial(self.ring.with_order(order), dict(self.terms))

    # -- formatting ----------------------------------------------------------

    def __str__(self):
        return format_polynomial(self)

    def __repr__(self):
        return f"Polynomial({format_polynomial(self)!r})"


# ---------------------------------------------------------------------------
# Text grammar: parse / format
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)|(?P<num>\d+(?:/\d+)?)|(?P<var>x\d+)|(?P<op>[\^*+\-])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def parse_polynomial(text: str, nvars=None, field=QQ, ring=None) -> Polynomial:
    """Parse the textual polynomial grammar.

    Terms are joined by ``+``/``-``; a term is ``[coeff][*]var(^exp)(*var(^exp))*``
    with integer or ``num/den`` coefficients and variables ``x0``, ``x1``, ...
    Whitespace is insignificant.  When neither ``ring`` nor ``nvars`` is given
    the variable count is inferred from the largest index used.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty polynomial text")
    if ring is None:
        if nvars is None:
            nvars = max((int(v[1:]) + 1 for k, v, _ in tokens if k == "var"), default=1)
        ring = PolyRing(nvars, field)
    nvars = ring.nvars
    # The end-of-text token: every check below reads a token, never past the end.
    tokens.append((None, None, len(text)))
    advance = iter(tokens).__next__

    def var_after_star():
        tok = advance()
        if tok[0] != "var":
            raise ParseError("expected variable after '*'", tok[2])
        return tok

    terms = []
    kind, value, pos = advance()
    while True:
        sign = 1
        while kind == "op" and value in "+-":
            if value == "-":
                sign = -sign
            kind, value, pos = advance()
        if kind is None:  # only signs reach the end here; report the last one
            raise ParseError("dangling sign", tokens[-2][2])
        if kind not in ("num", "var"):
            raise ParseError("expected coefficient or variable", pos)
        coeff = Fraction(sign)
        exps = [0] * nvars
        if kind == "num":
            try:
                coeff *= QQ.convert(value)
            except ParseError as exc:  # a zero denominator
                raise ParseError(str(exc), pos) from None
            kind, value, pos = advance()
            if kind == "op" and value == "*":
                kind, value, pos = var_after_star()
        while kind == "var":
            idx = int(value[1:])
            if idx >= nvars:
                raise ParseError(f"unknown variable {value}", pos)
            exp = 1
            kind, value, pos = advance()
            if kind == "op" and value == "^":
                kind, value, pos = advance()
                if kind != "num" or "/" in value:
                    raise ParseError("expected integer exponent after '^'", pos)
                exp = int(value)
                kind, value, pos = advance()
            exps[idx] += exp
            if kind != "op" or value != "*":
                break
            kind, value, pos = var_after_star()
        terms.append((tuple(exps), coeff))
        if kind is None:
            break
        if kind != "op" or value not in "+-":
            raise ParseError(f"expected '+' or '-', got {value!r}", pos)

    # Sum over QQ first, so terms that cancel there never meet a field's check.
    return ring._build(add_terms({}, terms, QQ).items())


def _format_monomial(m: Monomial) -> str:
    parts = []
    for i, e in enumerate(m):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def format_polynomial(f: Polynomial) -> str:
    """Render in the textual grammar; parse(format(f)) == f."""
    if f.is_zero():
        return "0"
    field = f.ring.field
    rational = isinstance(field, RationalField)
    chunks = []
    for idx, (m, c) in enumerate(f.sorted_terms()):
        if rational and c < 0:
            sign = "-"
            mag = -c
        else:
            sign = "+"
            mag = c
        mono = _format_monomial(m)
        if not mono:
            body = str(mag)
        elif mag == field.one:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if idx == 0:
            chunks.append(body if sign == "+" else f"-{body}")
        else:
            chunks.append(f" {sign} {body}")
    return "".join(chunks)
