"""Samplers and membership tests for the rank stratification of cubic forms.

Membership in the stratum of forms with symmetric geometric rank at most r is
decided by the rank engine itself, never by factorization.  Line tangency uses
the same Groebner engine on the form restricted to the line (through
``Polynomial.substitute_linear``), in every characteristic.  The samplers draw
small uniform integer coefficients (range -5..5) with rejection where a shape
constraint requires it; every sampler is a deterministic function of its
parameters and seed.  Samples and the binary cubic discriminant are over QQ;
``membership_S`` takes ``field=`` like ``sgr``, and ``convert_field`` moves a
sample to another field.  A line and the form it meets must share a field.
"""

from __future__ import annotations

import enum
import itertools
import random

from .errors import DimensionMismatchError, InvalidInputError
from .groebner import buchberger, ideal_dimension
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
    def random(cls, rng: random.Random, n: int) -> "ProjectiveLine":
        """A random line in projective n-space, n >= 1."""
        if n < 1:
            raise InvalidInputError("a line needs projective dimension n >= 1")
        lo, hi = _COEFF_RANGE
        while True:
            p = [rng.randint(lo, hi) for _ in range(n + 1)]
            q = [rng.randint(lo, hi) for _ in range(n + 1)]
            try:
                return cls(p, q)
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
    n = ring.nvars
    monos = sorted(tuple(map(c.count, range(n)))
                   for c in itertools.combinations_with_replacement(range(n), degree))
    while True:
        terms = {m: c for m in monos if (c := rng.randint(*_COEFF_RANGE))}
        f = ring.from_dict(terms)
        if not f.is_zero():
            return f


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

def _restriction(form: Polynomial, line: ProjectiveLine) -> Polynomial:
    """F(s*p + t*q) as a binary form in s = x0 and t = x1."""
    if not form.is_homogeneous():
        raise InvalidInputError("line restriction needs a homogeneous form")
    if line.ambient + 1 != form.ring.nvars:
        raise InvalidInputError("line and form live in different ambient spaces")
    if line.field != form.ring.field:
        raise DimensionMismatchError(f"line over {line.field.name}, form over {form.ring.field.name}")
    return form.substitute_linear([line.p, line.q])


def restrict_to_line(form: Polynomial, line: ProjectiveLine):
    """Coefficients of F(s*p + t*q) as a binary form: index i holds s^i t^(d-i).

    The restriction is ``form.substitute_linear([p, q])`` with s = x0, t = x1.
    """
    g = _restriction(form, line)
    d = form.total_degree()
    return [g.coefficient((i, d - i)) for i in range(d + 1)]


def line_tangency(form: Polynomial, line: ProjectiveLine) -> Tangency:
    """Whether the hypersurface meets the line with a repeated intersection.

    The restriction G to the line has a repeated root exactly when G, dG/ds
    and dG/dt share a projective zero, that is when the Groebner engine finds
    their ideal of affine dimension at least one.  Keeping G in the ideal
    makes this hold in every characteristic, p dividing the degree included.
    A line inside the hypersurface is its own outcome.
    """
    if form.is_zero() or not form.is_homogeneous() or form.total_degree() < 2:
        raise InvalidInputError("tangency needs a nonzero homogeneous form of degree >= 2")
    g = _restriction(form, line)
    if g.is_zero():
        return Tangency.CONTAINED
    basis = buchberger([g, g.partial_derivative(0), g.partial_derivative(1)])
    return Tangency.TANGENT if ideal_dimension(basis) >= 1 else Tangency.NOT_TANGENT
