"""Symmetric geometric rank, geometric rank and the bound-chain report.

The symmetric geometric rank of a nonzero homogeneous form F in n+1 variables
is (n+1) minus the affine dimension of the common zero set of its partial
derivatives.  This affine convention matches the projective codimension
whenever the singular locus is projectively nonempty and returns n+1 for
smooth hypersurfaces.

The geometric rank of an order-d tensor uses the multilinear form in d-1
variable groups: the generators are its partial derivatives with respect to
the last group, giving n+1 polynomials in (d-1)(n+1) variables.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .errors import DimensionMismatchError, InvalidInputError
from .groebner import Ideal, buchberger, ideal_dimension
from .polyring import GREVLEX, QQ, PolyRing, Polynomial
from .tensor import GeneralTensor, SymmetricTensor


def _as_polynomial(obj, field=None, order=None) -> Polynomial:
    if isinstance(obj, SymmetricTensor):
        if field is not None:
            obj = obj.with_field(field)
        poly = obj.to_polynomial()
    elif isinstance(obj, Polynomial):
        poly = obj if field is None else obj.convert_field(field)
    else:
        raise InvalidInputError(f"expected a polynomial or symmetric tensor, got {type(obj)!r}")
    return poly if order is None else poly.convert_order(order)


def singular_ideal(form: Polynomial) -> Ideal:
    """The ideal of all first partial derivatives of a homogeneous form.

    Over a prime field the characteristic must exceed the form's degree.
    """
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
    return Ideal([form.partial_derivative(i) for i in range(form.ring.nvars)])


def sgr(obj, *, field=None, order=None, poll=None) -> int:
    """Symmetric geometric rank of a symmetric tensor or homogeneous form."""
    return sgr_details(obj, field=field, order=order, poll=poll)[0]


def sgr_details(obj, *, field=None, order=None, poll=None):
    """(sgr, affine dimension of the singular locus, Groebner basis)."""
    form = _as_polynomial(obj, field=field, order=order)
    basis = buchberger(singular_ideal(form), poll=poll)
    dim = ideal_dimension(basis, poll=poll)
    return form.ring.nvars - dim, dim, basis


def _multilinear_generators(t: GeneralTensor, order=GREVLEX):
    """Partial derivatives of the multilinear form w.r.t. the last group.

    Generator j collects the entries whose last index is j, as a multilinear
    polynomial in the first (d-1) variable groups.
    """
    d = t.order
    m = t.dim
    nvars = (d - 1) * m
    ring = PolyRing(nvars, t.field, order)
    gens = [dict() for _ in range(m)]
    for idx, val in t.entries.items():
        # each group has its own variables, so distinct entries in one
        # bucket give distinct monomials
        mono = [0] * nvars
        for g in range(d - 1):
            mono[g * m + idx[g]] = 1
        gens[idx[-1]][tuple(mono)] = val
    return ring, [Polynomial(ring, g) for g in gens if g]


def gr(obj, *, field=None, order=None, poll=None) -> int:
    """Geometric rank of a tensor of order at least 2."""
    return gr_details(obj, field=field, order=order, poll=poll)[0]


def gr_details(obj, *, field=None, order=None, poll=None):
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
    ring, gens = _multilinear_generators(t, order or GREVLEX)
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
    here; ``gr`` is present only when requested or implied by the input.
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


def rank_report(obj, compute_gr: bool = False, *, field=None, order=None, poll=None) -> RankReport:
    """Full report for a symmetric tensor or homogeneous form.

    With ``compute_gr`` the tensor form of the input is rebuilt when needed.
    General (non-symmetric) tensors get a GR-only report.
    """
    t0 = time.perf_counter()
    if isinstance(obj, GeneralTensor) and not obj.is_symmetric():
        g, gdim, gbasis = gr_details(obj, field=field, order=order, poll=poll)
        ms = (time.perf_counter() - t0) * 1000.0
        fld = field if field is not None else obj.field
        return RankReport(
            sgr=None, gr=g, sing_dim_affine=None,
            ambient=obj.dim, field=fld.name, ms=round(ms, 3),
            gr_basis_size=len(gbasis),
        )

    if isinstance(obj, GeneralTensor):
        obj = obj.to_symmetric()

    form = _as_polynomial(obj, field=field, order=order)
    s, sdim, sbasis = sgr_details(form, poll=poll)
    g = None
    gsize = None
    if compute_gr:
        tens = obj if isinstance(obj, SymmetricTensor) else SymmetricTensor.from_polynomial(form)
        g, _, gbasis = gr_details(tens, field=field, order=order, poll=poll)
        gsize = len(gbasis)
    ms = (time.perf_counter() - t0) * 1000.0
    return RankReport(
        sgr=s, gr=g, sing_dim_affine=sdim,
        ambient=form.ring.nvars, field=form.ring.field.name, ms=round(ms, 3),
        sgr_basis_size=len(sbasis), gr_basis_size=gsize,
    )
