"""Symmetric geometric rank, geometric rank and the bound-chain report.

The symmetric geometric rank of a nonzero homogeneous form F in n+1 variables
is (n+1) minus the affine dimension of the common zero set of its partial
derivatives.  This affine convention matches the projective codimension
whenever the singular locus is projectively nonempty and returns n+1 for
smooth hypersurfaces.

The geometric rank of an order-d tensor uses the multilinear form in d-1
variable groups: the generators are its partial derivatives with respect to
the last group, giving n+1 polynomials in (d-1)(n+1) variables.

Every engine run here is in grevlex: a form from a lex ring is converted
first.  R/I has the dimension of R/LT(I) in every monomial order (Kredel &
Weispfenning, JSC 1988), so the order changes what a rank costs, never its
value.  ``sgr``, ``gr`` and their ``_details`` run the engine on the whole
input, in its own variable order, and are the reference.  ``rank_report``
answers from the rank laws: it splits a form into direct summands on
disjoint variables, since SGR and GR add up over direct sums, and sums the
blocks.  Each block lists its variables by degree (``_variable_order``)
before the engine runs: the ranks do not depend on the variables' names,
but the engine's cost does.  For GR each block has one rule, SGR <= GR <= U.
U is the degree d of a form with a linear factor, certified by the
engine's normal form (``_linear_factor``), and otherwise the flattening
rank r (the dimension of the span of the partials), read off the SGR basis.
A block with SGR = U has GR = U and builds no GR basis.  A block with
SGR < U and (d - 1)^U at most 2^10 first runs its twisted system
(``_twisted_system``), U forms of degree d - 1 in U variables, mod p: the
GR ideal's generators on a random U-dimensional subspace of their
(d - 1) n variables, combined into U forms.  If they have only the trivial
zero, the dimension count of ``_twisted_codim`` proves GR >= U, so
GR = U.  Only when that fails, or the system is too large to try, does
the block run ``gr_details``, the whole GR engine in (d - 1) n
variables, and its basis gives GR.

``sgr_details`` seeds the singular ideal over QQ from the form's integer
image (``_integer_form``: the form times the lcm of its denominators,
with int coefficients, ``Polynomial._integer_terms``), and the report
builds its factor check and twisted systems from the same image (over
Fp the residues read as ints of least magnitude), computed once per
block, so no Fraction arithmetic runs between the input and the engine.
A nonzero scale changes neither an ideal nor its run, so the bases and
pair counts are those of the form's own ``singular_ideal``.  Only the
GR engine's run builds its generators from the tensor's entries.  The
twisted system is built by contracting the form's tensor with one map at
a time, last slot first, so its cost follows the form's terms, never the
n^d entries of a dense tensor.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import compress
from math import factorial, gcd, isqrt, prod

from .errors import DimensionMismatchError, InvalidInputError
from .groebner import GBStats, Ideal, buchberger, ideal_dimension, remainders
from .polyring import DEFAULT_PRIME, GREVLEX, QQ, PolyRing, Polynomial, PrimeField
from .tensor import GeneralTensor, SymmetricTensor


def _as_polynomial(obj, field=None) -> Polynomial:
    if isinstance(obj, SymmetricTensor):
        if field is not None:
            obj = obj.with_field(field)
        poly = obj.to_polynomial()
    elif isinstance(obj, Polynomial):
        poly = obj if field is None else obj.convert_field(field)
    else:
        raise InvalidInputError(f"expected a polynomial or symmetric tensor, got {type(obj)!r}")
    return poly.convert_order(GREVLEX)


def _form_degree(form: Polynomial) -> int:
    """The degree of a form that has a singular ideal; raises otherwise."""
    if form.is_zero():
        raise InvalidInputError("the zero form has no singular ideal")
    if not form.is_homogeneous():
        raise InvalidInputError("singular ideal needs a homogeneous form")
    degree = form.total_degree()
    if degree < 2:
        raise InvalidInputError("singular ideal needs degree at least 2")
    p = form.ring.field.characteristic
    if 0 < p <= degree:
        # above the degree no exponent vanishes mod p, so every nonzero
        # form keeps a nonzero partial
        raise InvalidInputError(f"the characteristic {p} must exceed the degree {degree}")
    return degree


def singular_ideal(form: Polynomial) -> Ideal:
    """The ideal of all first partial derivatives of a homogeneous form.

    Over a prime field the characteristic must exceed the form's degree.
    """
    _form_degree(form)
    return Ideal([form.partial_derivative(i) for i in range(form.ring.nvars)])


def sgr(obj, *, field=None, poll=None) -> int:
    """Symmetric geometric rank of a symmetric tensor or homogeneous form."""
    return sgr_details(obj, field=field, poll=poll)[0]


def _integer_form(form: Polynomial) -> Polynomial:
    """The form the report's engine runs start from: over Fp the form
    itself, over QQ its integer image (``Polynomial._integer_terms``), the
    form times the lcm of its denominators, with int coefficients.  A
    nonzero scale changes neither an ideal nor a generator's monic reducer,
    so ``singular_ideal`` of it runs as that of the form."""
    if form.ring.field.characteristic:
        return form
    return Polynomial(form.ring, form._integer_terms())


def sgr_details(obj, *, field=None, poll=None):
    """(sgr, affine dimension of the singular locus, grevlex Groebner basis)."""
    form = _as_polynomial(obj, field=field)
    basis = buchberger(singular_ideal(_integer_form(form)), poll=poll)
    dim = ideal_dimension(basis, poll=poll)
    return form.ring.nvars - dim, dim, basis


def _multilinear_generators(t: GeneralTensor):
    """Partial derivatives of the multilinear form w.r.t. the last group.

    Generator j collects the entries whose last index is j, as a multilinear
    polynomial in the first (d-1) variable groups.
    """
    d = t.order
    m = t.dim
    nvars = (d - 1) * m
    ring = PolyRing(nvars, t.field)
    gens = [dict() for _ in range(m)]
    for idx, val in t.entries.items():
        # each group has its own variables, so distinct entries in one
        # bucket give distinct monomials
        mono = [0] * nvars
        for g in range(d - 1):
            mono[g * m + idx[g]] = 1
        gens[idx[-1]][tuple(mono)] = val
    return ring, [Polynomial(ring, g) for g in gens if g]


def gr(obj, *, field=None, poll=None) -> int:
    """Geometric rank of a tensor of order at least 2."""
    return gr_details(obj, field=field, poll=poll)[0]


def gr_details(obj, *, field=None, poll=None):
    if isinstance(obj, SymmetricTensor):
        t = obj.to_general()
    elif isinstance(obj, GeneralTensor):
        t = obj
    else:
        raise InvalidInputError(f"expected a tensor, got {type(obj)!r}")
    if field is not None:
        t = t.with_field(field)
    if t.is_zero():
        raise InvalidInputError("geometric rank of the zero tensor is undefined")
    if t.order < 2:
        raise InvalidInputError("geometric rank needs order at least 2")
    ring, gens = _multilinear_generators(t)
    basis = buchberger(Ideal(gens), poll=poll)
    dim = ideal_dimension(basis, poll=poll)
    return ring.nvars - dim, dim, basis


# ---------------------------------------------------------------------------
# Exact matrix rank
# ---------------------------------------------------------------------------

def matrix_rank(matrix, field=None) -> int:
    """Rank of an exact matrix by Gaussian elimination over ``field``.

    ``field`` defaults to QQ; every entry goes through ``field.convert``, so
    an inexact (float) entry raises InvalidInputError.
    """
    field = QQ if field is None else field
    a = [[field.convert(v) for v in r] for r in matrix]
    ncols = len(a[0]) if a else 0
    if any(len(r) != ncols for r in a):
        raise DimensionMismatchError("ragged matrix")
    if not ncols:
        return 0
    zero, mul, sub = field.zero, field.mul, field.sub
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != zero), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        inv = field.inv(a[rank][col])
        for r in range(rank + 1, len(a)):
            f = mul(a[r][col], inv)
            if f != zero:
                a[r] = [sub(x, mul(f, y)) for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class RankReport:
    """Computed ranks plus the varieties' dimensions and run metadata.

    ``sgr`` is an upper bound on the symmetric subrank, which is not computed
    here; ``gr`` is present only when requested.
    ``sgr_basis_size`` and ``gr_basis_size`` are the sizes of the reduced
    Groebner bases of the singular and the multilinear ideal, with the
    variables in the report's order (``_variable_order``), so they can
    differ from the bases of ``sgr_details`` and ``gr_details``.  A report
    that splits its input builds one basis per block, and the blocks' bases
    together are the reduced basis of the whole ideal in that order.
    ``gr_basis_size`` is None when some block built no GR basis: its SGR
    met its upper bound U, or its twisted system proved GR = U (see
    ``rank_report``).
    """

    sgr: int | None
    gr: int | None
    sing_dim_affine: int | None
    ambient: int
    field: str
    ms: float
    sgr_basis_size: int | None = None
    gr_basis_size: int | None = None

    def bound_chain(self) -> str:
        parts = []
        if self.sgr is not None:
            parts.append(f"symmetric subrank <= {self.sgr} = SGR")
        if self.gr is not None:
            if parts:
                parts.append(f"<= {self.gr} = GR")
            else:
                parts.append(f"GR = {self.gr}")
        return " ".join(parts)

    def to_json_dict(self):
        return {
            "sgr": self.sgr,
            "gr": self.gr,
            "sing_dim_affine": self.sing_dim_affine,
            "ambient": self.ambient,
            "field": self.field,
            "ms": self.ms,
        }


def _variable_order(form: Polynomial) -> list:
    """The form's variables in the order ``rank_report`` gives them.

    Ascending by the variable's largest exponent in the form, then by the
    number of terms that contain it; ties keep the input order.  So the
    variables of highest degree in the most terms come last, where grevlex
    makes them smallest (Brown's degree heuristic for variable orders).  SGR
    and GR do not depend on how the variables are named, but the engine's
    basis, and its cost, do: the trace cubic at m=4 builds 161 basis
    elements in its row-major order and 62 in this one.
    """
    # one column of exponents per variable, one entry per term
    key = [(max(col), len(col) - col.count(0)) for col in zip(*form.terms)]
    return sorted(range(form.ring.nvars), key=key.__getitem__)


def _blocks(form: Polynomial) -> list:
    """The form's direct summands, each in a ring over its own variables.

    Two variables are in one block when a monomial joins them, so the blocks
    are the connected components of the variables that occur; a variable in
    no monomial belongs to none.  Each block lists its variables in
    ``_variable_order``, and the order restricts to each block, so the
    blocks' bases are those of the whole form with its variables in that
    order.  A form whose one block holds every variable, already in that
    order, is returned as it is.
    """
    n = form.ring.nvars
    bits = [1 << i for i in range(n)]
    supports = [sum(compress(bits, m)) for m in form.terms]   # bit i for x_i
    comps = []
    for joined in set(supports):
        rest = []
        for c in comps:
            if c & joined:
                joined |= c
            else:
                rest.append(c)
        rest.append(joined)
        comps = rest
    ranked = _variable_order(form)
    if len(comps) == 1 and comps[0] == (1 << n) - 1 and ranked == list(range(n)):
        return [form]
    block_of = [0] * n
    variables = []
    for b, c in enumerate(sorted(comps, key=lambda c: c & -c)):
        variables.append([i for i in ranked if c >> i & 1])
        for i in variables[-1]:
            block_of[i] = b
    terms = [{} for _ in comps]
    for (m, c), support in zip(form.terms.items(), supports):
        b = block_of[(support & -support).bit_length() - 1]   # the block of its lowest variable
        terms[b][tuple(map(m.__getitem__, variables[b]))] = c
    field = form.ring.field
    return [Polynomial(PolyRing(len(v), field), t) for v, t in zip(variables, terms)]


def _flattening_rank(basis, degree: int) -> int:
    """The dimension of the span of a degree-``degree`` form's partials, read
    off the reduced basis of its singular ideal.

    The partials span the ideal's degree ``degree - 1`` part, and the
    ideal has nothing below it, so the reduced basis holds one element per
    dimension of that span: the elements of degree ``degree - 1``.  The
    basis of a homogeneous ideal is homogeneous, so the leads show it.
    """
    return sum(1 for lm in basis.leading_monomials() if sum(lm) == degree - 1)


# The search for a linear factor factors no coefficient above this: on a
# binary form that ends in one, it tries only the zeros (1, 0) and (0, 1).
_FACTOR_LIMIT = 10**8

# Over a prime field with at most this many elements, the search for a
# linear factor tries every point of the projective line over the field on
# each coordinate plane (``_zeros_mod_p``), in place of the rational zeros.
# On 4-variable cubics moved by random invertible maps mod p, a factor the
# rational search missed cost its report about 8 ms (U falls back to r)
# against 2 ms, while trying every point added 0.2-0.8 ms (4-29%) to
# the report of an irreducible block for p up to 211, 1.4 ms (36%) at 401
# and 3.1 ms (103%) at 1009.
_ENUMERATE_LIMIT = 256


def _divisors(n: int):
    """The positive divisors of an int n != 0, or None when |n| > _FACTOR_LIMIT."""
    n = abs(n)
    if n > _FACTOR_LIMIT:
        return None
    small = [k for k in range(1, isqrt(n) + 1) if not n % k]
    return small + [n // k for k in reversed(small) if k * k != n]


def _binary_roots(coeffs) -> list:
    """Rational zeros (s, t) of the binary form sum_k c_k s^(d-k) t^k with
    int coefficients, not all zero, one pair of coprime ints per zero.

    (1, 0) is a zero when c_0 = 0 and (0, 1) when c_d = 0.  A zero with s
    and t nonzero is a root u = s/t of sum_k c_k u^(d-k), so s divides its
    last nonzero coefficient and t its first (the rational root theorem).
    Returns no zero with s, t nonzero when either coefficient is too large
    to factor.
    """
    d = len(coeffs) - 1
    nonzero = [k for k, c in enumerate(coeffs) if c]
    lo, hi = nonzero[0], nonzero[-1]
    roots = [(1, 0)] if lo else []
    if hi < d:
        roots.append((0, 1))
    tops, bottoms = _divisors(coeffs[hi]), _divisors(coeffs[lo])
    if tops is None or bottoms is None:
        return roots
    for a in tops:
        for b in bottoms:
            if gcd(a, b) != 1:
                continue
            for s in (a, -a):
                if not sum(c * s ** (d - k) * b ** k for k, c in enumerate(coeffs)):
                    roots.append((s, b))
    return roots


def _zeros_mod_p(coeffs, p: int) -> list:
    """The zeros (s, t) in P^1(F_p) of the binary form sum_k c_k s^(d-k) t^k
    with int coefficients: (0, 1) when p divides c_d, and (1, u) for each u
    in [0, p) with sum_k c_k u^k = 0 mod p."""
    zeros = [] if coeffs[-1] % p else [(0, 1)]
    rev = coeffs[::-1]
    for u in range(p):
        acc = 0
        for c in rev:   # Horner's rule
            acc = (acc * u + c) % p
        if not acc:
            zeros.append((1, u))
    return zeros


def _gradient_on_plane(ints: dict, n: int, i: int, j: int, s: int, t: int) -> list:
    """The gradient of the int form ``ints`` at the point s e_i + t e_j.

    A term c x^a adds to the m-th partial there only when a - e_m lives on
    x_i and x_j: at x_i or x_j when it has no other variable, and at x_m
    when x_m is its one other variable, with exponent 1.
    """
    grad = [0] * n
    for a, c in ints.items():
        ai, aj = a[i], a[j]
        others = [m for m, e in enumerate(a) if e and m != i and m != j]
        if not others:
            if ai:
                grad[i] += c * ai * s ** (ai - 1) * t ** aj
            if aj:
                grad[j] += c * aj * s ** ai * t ** (aj - 1)
        elif len(others) == 1 and a[others[0]] == 1:
            grad[others[0]] += c * s ** ai * t ** aj
    return grad


def _linear_factor(form: Polynomial, degree: int, poll=None):
    """The coefficients of a linear form that divides ``form``, or None when
    the search finds none: ints over QQ, residues over Fp.

    If F = ell * G, then on the coordinate plane of x_i and x_j the binary
    form F(s e_i + t e_j), whose coefficients are F's terms in x_i and x_j
    alone, vanishes at (ell_j, -ell_i), and at that point p the gradient of
    F is G(p) ell.  So each zero of each such binary form gives a
    candidate, its gradient.  The search runs on the form's integer image
    (``Polynomial._integer_terms``): over a prime field of at most
    ``_ENUMERATE_LIMIT`` elements it tries every point of P^1(F_p), and
    otherwise the rational zeros of the ints (residues read as ints of
    least magnitude), which finds a zero that exists only mod a large p
    only by chance.  The search only proposes candidates: the engine's
    normal form certifies each, with the form packed once for the whole
    search (``remainders``), over QQ its integer image.  One polynomial is
    a Groebner basis of the ideal it generates, so F reduces to zero modulo
    ell exactly when ell divides F, and a gradient that vanishes in the
    field is no candidate.  The search can miss a factor, for instance when
    G vanishes at every such point, as when ell^2 divides F.  ``poll`` is
    the buchberger() callback, called once per coordinate plane with no
    basis and no pairs; it may raise to cancel.
    """
    ring = form.ring
    n = ring.nvars
    p = ring.field.characteristic
    units = [tuple(int(k == m) for k in range(n)) for m in range(n)]
    ints = form._integer_terms()
    remainder = remainders(_integer_form(form))  # packs it once for every candidate
    zeros = partial(_zeros_mod_p, p=p) if 0 < p <= _ENUMERATE_LIMIT else _binary_roots
    tick = None if poll is None else partial(poll, GBStats(0, 0, 0))
    for i in range(n):
        for j in range(i + 1, n):
            if tick is not None:
                tick()
            coeffs = []
            for k in range(degree + 1):
                m = [0] * n
                m[i], m[j] = degree - k, k
                coeffs.append(ints.get(tuple(m), 0))
            if not any(coeffs):
                continue
            for s, t in zeros(coeffs):
                ell = _gradient_on_plane(ints, n, i, j, s, t)
                if p:
                    ell = [c % p for c in ell]
                if any(ell) and not remainder([Polynomial(ring, {
                        u: c for u, c in zip(units, ell) if c})]):
                    return ell
    return None


# The field of the twisted systems of forms over QQ.
_TWISTED_FIELD = PrimeField(DEFAULT_PRIME)

# A report runs a block's twisted system only when a complete intersection
# of its U forms of degree d - 1 has at most this many standard monomials,
# (d - 1)^U: a run that proves GR = U builds all of them.  Dense cubics'
# systems that proved it took 1-3 s at U = 9, 6-9 s at U = 10 and 38 s at
# U = 11, and one that could not (tr(X^3) at m = 4, U = 16) gave up only
# after 60 s.
_TWISTED_LIMIT = 2**10


@lru_cache(maxsize=64)
def _twisted_maps(n: int, degree: int, p: int, width: int) -> tuple:
    """The d matrices M_1, ..., M_d, n x ``width``, of a block's twisted
    system in ``width`` variables (see ``_twisted_system``), as tuples of
    rows: independent matrices of ints in [0, p) from a Random seeded by
    (n, p), so a report's answers and counts are reproducible."""
    rng = random.Random(f"twisted {n} {p}")
    return tuple(tuple(tuple(rng.randrange(p) for _ in range(width)) for _ in range(n))
                 for _ in range(degree))


@lru_cache(maxsize=4096)
def _peel(idx: tuple) -> tuple:
    """(i, idx without one i) for each distinct i of a sorted multi-index."""
    return tuple((i, idx[:k] + idx[k + 1:]) for k, i in enumerate(idx) if not k or idx[k - 1] != i)


@lru_cache(maxsize=1024)
def _last_slot(a: tuple) -> tuple:
    """(a!, _peel of the sorted multi-index of x^a): the d-th partial of x^a
    at each ordering of that index is a!."""
    return (prod(factorial(e) for e in a if e > 1),
            _peel(tuple(i for i, e in enumerate(a) for _ in range(e))))


def _twisted_system(form: Polynomial, degree: int, width=None, maps=None) -> list:
    """The twisted system of a form: the ``width`` forms, j < width,
    d! T(M_1 y, ..., M_{d-1} y, M_d e_j) of degree d - 1 in ``width``
    variables y (n by default), where T is the form's symmetric tensor and
    M_1, ..., M_d are ``maps``, n x ``width`` (``_twisted_maps`` when None).
    So they are the GR ideal's generators on the subspace spanned by the
    columns of (M_1, ..., M_{d-1}), combined by M_d; with every M_t = I
    they are (d - 1)! times the partials of F.  They are built from the
    form's integer image (``Polynomial._integer_terms``) and reduced mod p,
    the form's own prime over Fp and DEFAULT_PRIME over QQ.  Some forms may
    be zero.

    d! T(y_1, ..., y_d) is the sum over the orderings (i_1, ..., i_d) of
    each term's multi-index of c a! y_1[i_1] ... y_d[i_d], for a term c x^a.
    The orderings of a multi-index that end in i are those of the index
    without one i, so T is contracted one slot at a time, last slot first,
    and never expanded: slot d against M_d e_j, then slot t against M_t y
    for t = d - 1, ..., 1.  Each step peels one index, once per distinct
    index, off the multi-indices left and multiplies the product of linear
    forms built so far, a monomial in y (its exponents packed into an int),
    by one more.  The state is sparse: it holds only the multi-indices that
    the form's terms reach.  The width forms ride along in one int, one
    lane of bits per form, which takes a third of the time of per-form
    dicts.  Every weight and entry is taken in [0, p), so a lane never goes
    negative, and after the M_d step it holds a sum of at most n products
    (one per index peeled) below (p - 1)^2; each later step multiplies by
    an entry below p and sums at most n (d - 1) such values (one per index
    peeled and variable of the monomial).  So the lane is wide enough for
    n^d (d - 1)^(d - 1) (p - 1)^(d + 1), and no lane carries into the next.
    """
    n = form.ring.nvars
    width = n if width is None else width
    field = form.ring.field if form.ring.field.characteristic else _TWISTED_FIELD
    p = field.characteristic
    *firsts, last = _twisted_maps(n, degree, p, width) if maps is None else maps
    lane = ((p - 1) ** (degree + 1) * n ** degree * (degree - 1) ** (degree - 1)).bit_length()
    ybits = degree.bit_length()   # a y-exponent is at most d - 1
    # each row of M_d as one int, entry j in lane j
    packed = [sum(e % p << lane * j for j, e in enumerate(row)) for row in last]
    state = {}   # multi-index left -> {packed monomial in y: lanes}
    for a, c in form._integer_terms().items():
        weight, peel = _last_slot(a)
        weight = c * weight % p
        for i, rest in peel:
            sums = state.setdefault(rest, {0: 0})
            sums[0] += weight * packed[i]
    for m in reversed(firsts):
        # each row as its nonzero (packed y_l, entry) pairs
        rows = [[(1 << ybits * l, e % p) for l, e in enumerate(row) if e % p] for row in m]
        nxt = {}
        for idx, sums in state.items():
            for i, rest in _peel(idx):
                out = nxt.setdefault(rest, {})
                get = out.get
                row = rows[i]
                for y, v in sums.items():
                    for u, e in row:
                        out[y + u] = get(y + u, 0) + e * v
        state = nxt
    lane_mask = (1 << lane) - 1
    y_mask = (1 << ybits) - 1
    forms = [{} for _ in range(width)]
    for y, v in state.get((), {}).items():
        mono = tuple(y >> ybits * l & y_mask for l in range(width))
        for terms in forms:
            if c := (v & lane_mask) % p:
                terms[mono] = c
            v >>= lane
    ring = PolyRing(width, field)
    return [Polynomial(ring, terms) for terms in forms]


def _twisted_codim(forms: list, poll=None) -> int:
    """The codimension of the common zeros of a twisted system, by a whole
    engine run (0 when every form is zero).

    It is never above the form's GR, whatever the maps.  Let phi(y) =
    (M_1 y, ..., M_{d-1} y), from w variables into the (d - 1) n of the GR
    variety V, a cone of codimension GR.  The forms vanish on phi^-1(V),
    whose dimension is at least dim V + w - (d - 1) n (the affine dimension
    theorem on V and the image of phi, plus the kernel of phi), so their
    codimension in w variables is at most GR.  The source paper's proof of
    SGR <= GR takes the diagonal, every M_t = I.  That bounds the int
    system over QQ, and mod p its Macaulay ranks only drop, so its
    codimension does too (README, "Field caveat").  For generic maps it
    equals GR, or w when GR is larger; random maps are less often generic
    over a small prime.
    """
    if all(f.is_zero() for f in forms):
        return 0
    basis = buchberger(Ideal(forms), poll=poll)
    return forms[0].ring.nvars - ideal_dimension(basis, poll=poll)


class _NotRegular(Exception):
    """A square system's run showed that its forms are no regular sequence."""


def _twisted_proves(forms: list, poll=None) -> bool:
    """Whether a square twisted system, as many forms as variables, has
    only the trivial zero: then its codimension is its number of variables
    U, and GR >= U (``_twisted_codim``).

    The run completes unless the engine shows the forms are no regular
    sequence (GBStats ``above_ci``, seen at the next poll): their
    codimension is then below U, and the answer False, as it is at once
    when a form is zero; the report then runs the whole GR engine.
    """
    if any(f.is_zero() for f in forms):
        return False

    def check(stats):
        if stats.above_ci:
            raise _NotRegular
        if poll is not None:
            poll(stats)

    try:
        return _twisted_codim(forms, check) == len(forms)
    except _NotRegular:
        return False


def _gr_certificate(block: Polynomial, degree: int, s_b: int, sbasis, poll=None):
    """(U, proved) for a block of SGR ``s_b`` whose singular ideal has the
    basis ``sbasis``: the upper bound U on its GR that rank_report uses, and
    whether GR = U is certified without a GR run, by SGR = U or by the
    twisted system."""
    r = _flattening_rank(sbasis, degree)
    # A linear factor forces Sing(F) to hold {ell = G = 0}, so SGR <= 2.
    factor = s_b <= 2 and degree < r and _linear_factor(block, degree, poll) is not None
    bound = degree if factor else r
    proved = s_b >= bound or ((degree - 1) ** bound <= _TWISTED_LIMIT and _twisted_proves(
        _twisted_system(block, degree, bound), poll))
    return bound, proved


def rank_report(obj, compute_gr: bool = False, *, field=None, poll=None) -> RankReport:
    """Full report for a symmetric tensor or homogeneous form.

    A general tensor is made symmetric first, which raises when its entries
    are not, unless GR is asked for: a non-symmetric one then gets a GR-only
    report from ``gr_details``.  A symmetric input is split into its direct
    summands (``_blocks``), each with its variables listed by degree, and the
    report sums their values:
    SGR and GR add up over direct sums, and a variable in no monomial adds
    nothing to either.  Each block's SGR comes from ``sgr_details``.  With
    ``compute_gr``, each block follows one rule, SGR <= GR <= U.  SGR <= GR
    is the source paper's bound.  U is the degree d when SGR <= 2, d < r
    and ``_linear_factor`` certifies a linear factor ell, and otherwise the
    flattening rank r, the dimension of the span of the partials.  GR <= r
    is due to Kopparty, Moshkovitz & Zuiddam ("Geometric rank of tensors and
    subrank of matrix multiplication", CCC 2020), and GR <= d for ell * G
    since its polarization is a sum of d slices, so GR is at most the slice
    rank (ibid.).  A block with SGR = U has GR = U and builds no GR basis.
    A block with SGR < U runs its twisted system, U forms in U variables
    over Fp (``_twisted_system``, ``_twisted_proves``), first, when
    (d - 1)^U is at most ``_TWISTED_LIMIT``.  If they have only the trivial
    zero, GR >= U, so GR = U.  That run completes, or gives up as soon as
    the engine shows the forms are no regular sequence, so that they cannot
    prove it.  Only then, or when the system is too large to try, does the
    block run ``gr_details`` on its own tensor to completion, and that
    basis gives its GR and its share of ``gr_basis_size``.
    """
    t0 = time.perf_counter()
    if isinstance(obj, GeneralTensor):
        try:
            obj = obj.to_symmetric()
        except InvalidInputError:
            if not compute_gr:
                raise
            g, _, gbasis = gr_details(obj, field=field, poll=poll)
            ms = (time.perf_counter() - t0) * 1000.0
            fld = field if field is not None else obj.field
            return RankReport(
                sgr=None, gr=g, sing_dim_affine=None,
                ambient=obj.dim, field=fld.name, ms=round(ms, 3),
                gr_basis_size=len(gbasis),
            )

    form = _as_polynomial(obj, field=field)
    degree = _form_degree(form)
    s = ssize = 0
    g = 0 if compute_gr else None
    gsizes = []   # per block: its GR basis size, None where GR equals a bound
    for block in _blocks(form):
        s_b, _, sbasis = sgr_details(block, poll=poll)
        s += s_b
        ssize += len(sbasis)
        if not compute_gr:
            continue
        # SGR = U or a twisted system: GR = U; otherwise the whole GR run
        bound, proved = _gr_certificate(block, degree, s_b, sbasis, poll)
        g_b, size = bound, None
        if not proved:
            g_b, _, gbasis = gr_details(SymmetricTensor.from_polynomial(block), poll=poll)
            size = len(gbasis)
        g += g_b
        gsizes.append(size)
    gsize = sum(gsizes) if compute_gr and None not in gsizes else None
    n = form.ring.nvars
    ms = (time.perf_counter() - t0) * 1000.0
    return RankReport(
        sgr=s, gr=g, sing_dim_affine=n - s,
        ambient=n, field=form.ring.field.name, ms=round(ms, 3),
        sgr_basis_size=ssize, gr_basis_size=gsize,
    )
