"""Samplers and membership tests for the rank stratification of cubic forms.

Membership in the stratum of forms with symmetric geometric rank at most r is
decided by the rank engine itself, never by factorization.  The samplers draw
small uniform integer coefficients (range -5..5) with rejection where a shape
constraint requires it; every sampler is a deterministic function of its
parameters and seed.  Samples and the binary cubic discriminant are over QQ;
``membership_S`` takes ``field=`` like ``sgr``, and ``convert_field`` moves a
sample to another field.  A line and the form it meets must share a field.
"""

from __future__ import annotations

import enum
import random

from .errors import DimensionMismatchError, InvalidInputError
from .polyring import PolyRing, Polynomial, QQ
from .rank import matrix_rank, sgr

_COEFF_RANGE = (-5, 5)


class Tangency(enum.Enum):
    """Outcome of the line-tangency test; containment is its own state."""

    TANGENT = "tangent"
    NOT_TANGENT = "not_tangent"
    CONTAINED = "contained"


class ProjectiveLine:
    """A line in projective n-space, spanned by two independent points."""

    __slots__ = ("p", "q", "field")

    def __init__(self, p, q, field=QQ):
        self.field = field
        self.p = tuple(field.convert(v) for v in p)
        self.q = tuple(field.convert(v) for v in q)
        if len(self.p) != len(self.q):
            raise InvalidInputError("line endpoints need equal coordinate counts")
        if matrix_rank([self.p, self.q], field) != 2:
            raise InvalidInputError("line endpoints must be linearly independent")

    @property
    def ambient(self) -> int:
        return len(self.p) - 1

    @classmethod
    def random(cls, rng: random.Random, n: int, field=QQ) -> "ProjectiveLine":
        lo, hi = _COEFF_RANGE
        while True:
            p = [rng.randint(lo, hi) for _ in range(n + 1)]
            q = [rng.randint(lo, hi) for _ in range(n + 1)]
            try:
                return cls(p, q, field)
            except InvalidInputError:
                continue


# ---------------------------------------------------------------------------
# Random forms
# ---------------------------------------------------------------------------

def linear_form(ring: PolyRing, coeffs) -> Polynomial:
    coeffs = list(coeffs)
    if len(coeffs) != ring.nvars:
        raise InvalidInputError(f"need {ring.nvars} coefficients for a linear form")
    return sum((g * c for g, c in zip(ring.gens(), coeffs)), ring.zero())


def _random_coeffs(rng, count):
    lo, hi = _COEFF_RANGE
    return [rng.randint(lo, hi) for _ in range(count)]


def random_linear_form(rng: random.Random, ring: PolyRing) -> Polynomial:
    while True:
        f = linear_form(ring, _random_coeffs(rng, ring.nvars))
        if not f.is_zero():
            return f


def random_form(rng: random.Random, ring: PolyRing, degree: int) -> Polynomial:
    """A nonzero dense-support random form of the given degree."""
    if degree < 0:
        raise InvalidInputError("degree must be non-negative")
    monos = _degree_monomials(ring.nvars, degree)
    while True:
        terms = {m: c for m in monos if (c := rng.randint(*_COEFF_RANGE))}
        f = ring.from_dict(terms)
        if not f.is_zero():
            return f


def _degree_monomials(nvars, degree):
    if nvars == 1:
        return [(degree,)]
    out = []
    for e in range(degree + 1):
        for rest in _degree_monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return out


def _coeff_row(f: Polynomial):
    n = f.ring.nvars
    return [f.coefficient(tuple(1 if j == i else 0 for j in range(n))) for i in range(n)]


def _proportional(f: Polynomial, g: Polynomial) -> bool:
    """True when two linear forms span a line (or either is zero)."""
    if f.is_zero() or g.is_zero():
        return True
    return matrix_rank([_coeff_row(f), _coeff_row(g)], f.ring.field) < 2


# ---------------------------------------------------------------------------
# Stratum membership and samplers
# ---------------------------------------------------------------------------

def membership_S(form, r: int, *, field=None, poll=None) -> bool:
    """True when the form's symmetric geometric rank is at most r."""
    if r < 0:
        raise InvalidInputError("rank bound must be non-negative")
    return sgr(form, field=field, poll=poll) <= r


def sample_tangential(n: int, seed: int = 0, d: int = 3) -> Polynomial:
    """A random L^2*M with L linear and M of degree d-2; always rank one.

    For cubics, L and M are resampled until non-proportional, so the sample
    is a proper tangent vector rather than a cube.
    """
    if n < 1:
        raise InvalidInputError("sample_tangential needs n >= 1")
    if d < 3:
        raise InvalidInputError("sample_tangential needs degree >= 3")
    rng = random.Random(seed)
    ring = PolyRing(n + 1)
    while True:
        L = random_linear_form(rng, ring)
        M = random_form(rng, ring, d - 2)
        if d == 3 and _proportional(L, M):
            continue
        return L * L * M


def sample_secant_tangential(r: int, n: int, seed: int = 0) -> Polynomial:
    """A random sum of r terms L_i^2*M_i; rank at most r, generically r."""
    if not 1 <= r <= n + 1:
        raise InvalidInputError(f"need 1 <= r <= n+1, got r={r}, n={n}")
    rng = random.Random(seed)
    ring = PolyRing(n + 1)
    while True:
        total = ring.zero()
        for _ in range(r):
            L = random_linear_form(rng, ring)
            M = random_linear_form(rng, ring)
            total = total + L * L * M
        if not total.is_zero():
            return total


def sample_irreducible_sgr2(n: int, seed: int = 0) -> Polynomial:
    """A random L1^2*M1 + L2^2*M2 + L1*L2*M3; rank at most 2, generically 2.

    L1, L2 are resampled until independent, M1 and M2 until nonzero, and the
    triple (M1, M2, M3) until not all proportional.
    """
    if n < 2:
        raise InvalidInputError("sample_irreducible_sgr2 needs n >= 2")
    rng = random.Random(seed)
    ring = PolyRing(n + 1)
    while True:
        L1 = random_linear_form(rng, ring)
        L2 = random_linear_form(rng, ring)
        if _proportional(L1, L2):
            continue
        M1 = random_linear_form(rng, ring)
        M2 = random_linear_form(rng, ring)
        M3 = linear_form(ring, _random_coeffs(rng, ring.nvars))
        rows = [_coeff_row(M1), _coeff_row(M2), _coeff_row(M3)]
        if matrix_rank(rows) < 2:
            continue
        return L1 * L1 * M1 + L2 * L2 * M2 + L1 * L2 * M3


def sample_reducible(d1: int, d2: int, n: int, seed: int = 0) -> Polynomial:
    """A random product of forms of degrees d1 and d2.

    When the factors share no common factor the rank is generically 2.
    """
    if d1 < 1 or d2 < 1:
        raise InvalidInputError("factor degrees must be at least 1")
    if n < 1:
        raise InvalidInputError("sample_reducible needs n >= 1")
    rng = random.Random(seed)
    ring = PolyRing(n + 1)
    G = random_form(rng, ring, d1)
    H = random_form(rng, ring, d2)
    return G * H


# ---------------------------------------------------------------------------
# Binary cubic discriminant
# ---------------------------------------------------------------------------

def binary_cubic_discriminant(a1, a2, a3, a4):
    """Discriminant of a1*x^3 + a2*x^2*y + a3*x*y^2 + a4*y^3, over QQ.

    Vanishes exactly on the binary cubics with a repeated root, which are the
    forms of symmetric geometric rank at most one.
    """
    a1, a2, a3, a4 = (QQ.convert(a) for a in (a1, a2, a3, a4))
    return (a2 * a2 * a3 * a3 - 4 * a1 * a3 ** 3 - 4 * a2 ** 3 * a4
            + 18 * a1 * a2 * a3 * a4 - 27 * a1 * a1 * a4 * a4)


# ---------------------------------------------------------------------------
# Line tangency
# ---------------------------------------------------------------------------

def restrict_to_line(form: Polynomial, line: ProjectiveLine):
    """Coefficients of F(s*p + t*q) as a binary form: index i holds s^i t^(d-i)."""
    ring = form.ring
    if line.ambient + 1 != ring.nvars:
        raise InvalidInputError("line and form live in different ambient spaces")
    field = ring.field
    if line.field != field:
        raise DimensionMismatchError(f"line over {line.field.name}, form over {field.name}")
    d = form.total_degree()
    coeffs = [field.zero] * (d + 1)
    for mono, c in form.terms.items():
        # expand prod_i (p_i s + q_i t)^{e_i} as a coefficient list in s
        factor = [field.one]
        for i, e in enumerate(mono):
            for _ in range(e):
                pi, qi = line.p[i], line.q[i]
                new = [field.zero] * (len(factor) + 1)
                for k, v in enumerate(factor):
                    if v == field.zero:
                        continue
                    new[k] = field.add(new[k], field.mul(v, qi))
                    new[k + 1] = field.add(new[k + 1], field.mul(v, pi))
                factor = new
        for k, v in enumerate(factor):
            if v != field.zero:
                coeffs[k] = field.add(coeffs[k], field.mul(c, v))
    return coeffs


def _gcd_degree(u, v, field):
    """Degree of gcd of two univariate coefficient lists (lowest degree first)."""

    def trim(w):
        while w and w[-1] == field.zero:
            w.pop()
        return w

    u = trim(list(u))
    v = trim(list(v))
    while v:
        # u mod v
        while len(u) >= len(v) and u:
            f = field.div(u[-1], v[-1])
            shift = len(u) - len(v)
            for i, w in enumerate(v):
                u[i + shift] = field.sub(u[i + shift], field.mul(f, w))
            u = trim(u)
        u, v = v, u
    return len(u) - 1


def line_tangency(form: Polynomial, line: ProjectiveLine) -> Tangency:
    """Whether the hypersurface meets the line with a repeated intersection.

    Restricts the form to the line and decides exactly whether the resulting
    binary form has a repeated root, which is a nontrivial common factor with
    its derivative.  A line inside the hypersurface is its own outcome.
    """
    if form.is_zero() or not form.is_homogeneous() or form.total_degree() < 2:
        raise InvalidInputError("tangency needs a nonzero homogeneous form of degree >= 2")
    field = form.ring.field
    coeffs = restrict_to_line(form, line)
    if all(c == field.zero for c in coeffs):
        return Tangency.CONTAINED
    d = len(coeffs) - 1
    k = max(i for i, c in enumerate(coeffs) if c != field.zero)
    if d - k >= 2:
        # the point at infinity on the line is a root of multiplicity >= 2
        return Tangency.TANGENT
    if k <= 1:
        return Tangency.NOT_TANGENT
    u = coeffs[: k + 1]
    du = [field.mul(field.convert(i), u[i]) for i in range(1, k + 1)]
    if _gcd_degree(u, du, field) >= 1:
        return Tangency.TANGENT
    return Tangency.NOT_TANGENT
