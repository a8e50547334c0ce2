"""Exact tensors, tensor/polynomial conversion and named constructors.

Symmetric tensors store one value per sorted multi-index; the associated
polynomial sums over all index tuples, so the coefficient of a monomial is
the sorted entry times its multinomial multiplicity.  General tensors store
arbitrary multi-indices.  Both are immutable and exact, and share one private
base class, ``_Tensor``, for construction, equality, field change and JSON;
each keeps only its canonical index form and its own operations.  Tensor
sums go through :func:`sgrank.polyring.add_terms`.

The named constructors build over QQ, and forms come out in grevlex.  Another
field or order is chosen once, at the rank entry points (``sgr``, ``gr``,
``rank_report``), or by ``with_field``/``convert_field`` and
``convert_order``.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from fractions import Fraction

from .errors import DimensionMismatchError, InvalidInputError, ParseError
from .polyring import PolyRing, Polynomial, QQ, add_terms


def multiindex_multiplicity(idx) -> int:
    """Number of distinct orderings of the multi-index (d! over repeats)."""
    counts = Counter(idx)
    out = math.factorial(len(idx))
    for c in counts.values():
        out //= math.factorial(c)
    return out


class _Tensor:
    """Construction, equality, field change and JSON of both tensor kinds.

    A subclass sets ``_key`` (input multi-index to storage key) and
    ``_symmetric`` (the JSON flag).
    """

    __slots__ = ("order", "dim", "entries", "field")

    def __init__(self, order: int, dim: int, entries: dict, field=QQ, _clean=False):
        if order < 1:
            raise InvalidInputError("tensor order must be at least 1")
        if dim < 1:
            raise InvalidInputError("local dimension must be at least 1")
        self.order = order
        self.dim = dim
        self.field = field
        if not _clean:
            # Zeros are checked and recorded too and dropped afterwards, so a
            # bad index is caught whatever its value, and two indices with
            # one key conflict in either dict order.
            clean = {}
            for idx, val in entries.items():
                key = self._key(idx)
                if len(key) != order:
                    raise DimensionMismatchError(f"index {key} does not have {order} entries")
                if any(not 0 <= i < dim for i in key):
                    raise InvalidInputError(f"index {key} out of range for local dimension {dim}")
                v = field.convert(val)
                if clean.setdefault(key, v) != v:
                    raise InvalidInputError(f"conflicting values for index {key}")
            entries = {key: v for key, v in clean.items() if v}
        self.entries = entries

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and (self.order, self.dim, self.field) == (other.order, other.dim, other.field)
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order}, dim={self.dim}, nnz={len(self.entries)})"

    def _check_slice(self, axis: int, k: int):
        if not 0 <= axis < self.order:
            raise InvalidInputError(f"axis {axis} out of range for order {self.order}")
        if not 0 <= k < self.dim:
            raise InvalidInputError(f"slice index {k} out of range")
        if self.order == 1:
            raise InvalidInputError("cannot slice an order-1 tensor")

    def with_field(self, field):
        if field == self.field:
            return self
        return type(self)(self.order, self.dim, self.entries, field)

    def to_json_dict(self):
        return {
            "order": self.order,
            "dim": self.dim,
            "symmetric": self._symmetric,
            "entries": [
                {"idx": list(idx), "val": str(self.entries[idx])} for idx in sorted(self.entries)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())


class SymmetricTensor(_Tensor):
    """Order-d symmetric tensor over an exact field, sorted-key storage."""

    __slots__ = ()
    _symmetric = True

    @staticmethod
    def _key(idx):
        return tuple(sorted(idx))

    def __hash__(self):
        return hash((self.order, self.dim, self.field, frozenset(self.entries.items())))

    # -- conversions ----------------------------------------------------------

    def to_polynomial(self) -> Polynomial:
        """The homogeneous form, in grevlex, summing entries over all index tuples."""
        if self.is_zero():
            raise InvalidInputError("the zero tensor has no associated polynomial")
        ring = PolyRing(self.dim, self.field)
        field = self.field
        terms = {}
        for idx, val in self.entries.items():
            mono = [0] * self.dim
            for i in idx:
                mono[i] += 1
            mult = multiindex_multiplicity(idx)
            c = field.mul(val, field.convert(mult))
            if c:
                terms[tuple(mono)] = c
        return Polynomial(ring, terms)

    @classmethod
    def from_polynomial(cls, poly: Polynomial, degree=None) -> "SymmetricTensor":
        """Inverse of to_polynomial: entry = coefficient over its multiplicity."""
        if poly.is_zero():
            raise InvalidInputError("cannot build a tensor from the zero polynomial")
        if not poly.is_homogeneous():
            raise InvalidInputError("tensor conversion needs a homogeneous polynomial")
        d = poly.total_degree()
        if degree is not None and degree != d:
            raise InvalidInputError(f"polynomial has degree {d}, expected {degree}")
        if d < 1:
            raise InvalidInputError("constant polynomials do not define a tensor")
        field = poly.ring.field
        entries = {}
        for mono, coeff in poly.terms.items():
            idx = []
            for i, e in enumerate(mono):
                idx.extend([i] * e)
            idx = tuple(idx)
            mult = field.convert(multiindex_multiplicity(idx))
            if mult == field.zero:
                raise InvalidInputError("multiplicity vanishes in this field")
            entries[idx] = field.div(coeff, mult)
        return cls(d, poly.ring.nvars, entries, field, _clean=True)

    def to_general(self) -> "GeneralTensor":
        """Expand to explicit entries on every permuted multi-index."""
        out = {}
        for idx, val in self.entries.items():
            for perm in set(itertools.permutations(idx)):
                out[perm] = val
        return GeneralTensor(self.order, self.dim, out, self.field, _clean=True)

    # -- structural operations -------------------------------------------------

    def slice(self, axis: int, k: int) -> "SymmetricTensor":
        """Order d-1 slice at index k; for symmetric tensors all axes agree."""
        self._check_slice(axis, k)
        out = {}
        for idx, val in self.entries.items():
            if k not in idx:
                continue
            rest = list(idx)
            rest.remove(k)
            out[tuple(rest)] = val
        return SymmetricTensor(self.order - 1, self.dim, out, self.field, _clean=True)

    def direct_sum(self, other: "SymmetricTensor") -> "SymmetricTensor":
        """Block tensor: self on the first indices, other shifted past them."""
        if not isinstance(other, SymmetricTensor):
            raise DimensionMismatchError("direct_sum needs a symmetric tensor")
        if self.order != other.order:
            raise DimensionMismatchError(
                f"order mismatch in direct_sum: {self.order} vs {other.order}"
            )
        if self.field != other.field:
            raise DimensionMismatchError("direct_sum operands over different fields")
        a = self.dim
        out = dict(self.entries)
        for idx, val in other.entries.items():
            out[tuple(i + a for i in idx)] = val
        return SymmetricTensor(self.order, a + other.dim, out, self.field, _clean=True)

    def apply_matrix(self, matrix) -> "SymmetricTensor":
        """The action sum_idx t_idx (A e_{i1}) x ... x (A e_{id})."""
        m = self.dim
        field = self.field
        mul = field.mul
        rows = [[field.convert(v) for v in row] for row in matrix]
        if len(rows) != m or any(len(r) != m for r in rows):
            raise DimensionMismatchError(f"matrix must be {m}x{m}")
        # column i as its nonzero (j, A[j][i]), so zero entries are never multiplied
        cols = [[(j, a) for j, a in enumerate(col) if a] for col in zip(*rows)]
        dense = self.to_general().entries
        # contract one axis at a time
        for axis in range(self.order):
            images = (
                (idx[:axis] + (j,) + idx[axis + 1:], mul(a, val))
                for idx, val in dense.items()
                for j, a in cols[idx[axis]]
            )
            dense = add_terms({}, images, field)
        out = {idx: val for idx, val in dense.items() if tuple(sorted(idx)) == idx}
        return SymmetricTensor(self.order, m, out, field, _clean=True)

    def scale(self, c) -> "SymmetricTensor":
        field = self.field
        c = field.convert(c)
        if c == field.zero:
            return SymmetricTensor(self.order, self.dim, {}, field, _clean=True)
        return SymmetricTensor(
            self.order, self.dim,
            {idx: field.mul(v, c) for idx, v in self.entries.items()},
            field, _clean=True,
        )

    def __add__(self, other):
        if not isinstance(other, SymmetricTensor):
            return NotImplemented
        if (self.order, self.dim, self.field) != (other.order, other.dim, other.field):
            raise DimensionMismatchError("tensor sum needs matching shape and field")
        out = add_terms(dict(self.entries), other.entries.items(), self.field)
        return SymmetricTensor(self.order, self.dim, out, self.field, _clean=True)


class GeneralTensor(_Tensor):
    """Order-d tensor with explicit (not necessarily symmetric) entries."""

    __slots__ = ()
    _symmetric = False

    @staticmethod
    def _key(idx):
        return tuple(idx)

    def slice(self, axis: int, k: int) -> "GeneralTensor":
        self._check_slice(axis, k)
        out = {}
        for idx, val in self.entries.items():
            if idx[axis] != k:
                continue
            out[idx[:axis] + idx[axis + 1:]] = val
        return GeneralTensor(self.order - 1, self.dim, out, self.field, _clean=True)

    def transpose(self, axes) -> "GeneralTensor":
        """Permute the tensor factors: entry at idx moves to idx[axes]."""
        axes = tuple(axes)
        if sorted(axes) != list(range(self.order)):
            raise InvalidInputError(f"{axes} is not a permutation of the {self.order} axes")
        out = {tuple(idx[a] for a in axes): val for idx, val in self.entries.items()}
        return GeneralTensor(self.order, self.dim, out, self.field, _clean=True)

    def is_symmetric(self) -> bool:
        for idx, val in self.entries.items():
            for perm in set(itertools.permutations(idx)):
                if self.entries.get(perm) != val:
                    return False
        return True

    def to_symmetric(self) -> SymmetricTensor:
        if not self.is_symmetric():
            raise InvalidInputError("tensor entries are not symmetric")
        out = {idx: v for idx, v in self.entries.items() if tuple(sorted(idx)) == idx}
        return SymmetricTensor(self.order, self.dim, out, self.field, _clean=True)


# ---------------------------------------------------------------------------
# Tensor JSON interchange
# ---------------------------------------------------------------------------

def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def tensor_from_json(text: str, field=QQ):
    """Load a tensor from its JSON interchange form.

    Returns a :class:`SymmetricTensor` or :class:`GeneralTensor` depending on
    the ``symmetric`` flag.  ``order``, ``dim`` and each index entry must be
    JSON integers, ``symmetric`` a boolean and each value a string or an
    integer; anything else raises ParseError.  Symmetric input must list
    sorted indices only; duplicate indices are rejected.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid tensor JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("tensor JSON must be an object")
    try:
        order, dim, symmetric, raw_entries = (
            doc[key] for key in ("order", "dim", "symmetric", "entries")
        )
    except KeyError as exc:
        raise ParseError(f"tensor JSON missing field {exc}") from exc
    if not (_is_int(order) and _is_int(dim)):
        raise ParseError(f"tensor JSON order and dim must be integers, got {order!r}, {dim!r}")
    if not isinstance(symmetric, bool):
        raise ParseError(f"tensor JSON symmetric must be true or false, got {symmetric!r}")
    if not isinstance(raw_entries, list):
        raise ParseError("tensor JSON entries must be a list")
    entries = {}
    for item in raw_entries:
        try:
            idx, val = item["idx"], item["val"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed tensor entry {item!r}") from exc
        if not (isinstance(idx, list) and all(map(_is_int, idx))):
            raise ParseError(f"tensor entry index must be a list of integers, got {idx!r}")
        idx = tuple(idx)
        if len(idx) != order:
            raise ParseError(f"index {list(idx)} does not have {order} entries")
        if any(not 0 <= i < dim for i in idx):
            raise ParseError(f"index {list(idx)} out of range for dim {dim}")
        if symmetric and list(idx) != sorted(idx):
            raise ParseError(f"symmetric tensor entries must use sorted indices: {list(idx)}")
        if idx in entries:
            raise ParseError(f"duplicate index {list(idx)}")
        if not (isinstance(val, str) or _is_int(val)):
            raise ParseError(f"entry value must be a string or integer, got {val!r}")
        entries[idx] = val
    cls = SymmetricTensor if symmetric else GeneralTensor
    return cls(order, dim, entries, field)


# ---------------------------------------------------------------------------
# Hypergraphs
# ---------------------------------------------------------------------------

class Hypergraph:
    """A d-uniform hypergraph on vertices 1..n."""

    __slots__ = ("n", "uniformity", "edges")

    def __init__(self, n: int, uniformity: int, edges):
        if n < 1:
            raise InvalidInputError("hypergraph needs at least one vertex")
        if uniformity < 1:
            raise InvalidInputError("uniformity must be positive")
        clean = set()
        for edge in edges:
            e = frozenset(edge)
            if len(e) != uniformity:
                raise InvalidInputError(
                    f"edge {sorted(edge)} does not have {uniformity} distinct vertices"
                )
            if any(not 1 <= v <= n for v in e):
                raise InvalidInputError(f"edge {sorted(edge)} has a vertex outside 1..{n}")
            clean.add(e)
        self.n = n
        self.uniformity = uniformity
        self.edges = frozenset(clean)

    def __repr__(self):
        return f"Hypergraph(n={self.n}, uniformity={self.uniformity}, edges={len(self.edges)})"


def parse_hypergraph(text: str) -> Hypergraph:
    """Parse the edge-list format: one edge per line of whitespace-separated
    1-based vertex indices, ``#`` comments.  Uniformity comes from the first
    edge and is enforced; the vertex count is the largest index used."""
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            verts = [int(tok) for tok in line.split()]
        except ValueError:
            raise ParseError(f"line {lineno}: not a list of vertex indices: {line!r}") from None
        if any(v < 1 for v in verts):
            raise ParseError(f"line {lineno}: vertex indices are 1-based")
        if len(set(verts)) != len(verts):
            raise ParseError(f"line {lineno}: repeated vertex in edge {verts}")
        edges.append(verts)
    if not edges:
        raise ParseError("no edges found")
    d = len(edges[0])
    for lineno_edge in edges:
        if len(lineno_edge) != d:
            raise ParseError(
                f"non-uniform edge {lineno_edge}: expected {d} vertices per edge"
            )
    n = max(max(e) for e in edges)
    return Hypergraph(n, d, edges)


def hypergraph_tensor(H: Hypergraph) -> SymmetricTensor:
    """0/1 indicator tensor: entry 1 exactly when the index set is an edge."""
    entries = {tuple(sorted(v - 1 for v in edge)): QQ.one for edge in H.edges}
    return SymmetricTensor(H.uniformity, H.n, entries, _clean=True)


# ---------------------------------------------------------------------------
# Named constructors
# ---------------------------------------------------------------------------

def identity_tensor(k: int, n: int, d: int = 3) -> SymmetricTensor:
    """Diagonal tensor with k unit summands e_i^(x d) inside C^(n+1)."""
    if d < 2:
        raise InvalidInputError("identity tensor needs order at least 2")
    if not 1 <= k <= n + 1:
        raise InvalidInputError(f"need 1 <= k <= n+1, got k={k}, n={n}")
    entries = {(i,) * d: QQ.one for i in range(k)}
    return SymmetricTensor(d, n + 1, entries, _clean=True)


def w_state(n: int = 1) -> SymmetricTensor:
    """The symmetrized |001> state in C^(n+1); its form is 3*x0^2*x1."""
    if n < 1:
        raise InvalidInputError("w_state needs n >= 1")
    return SymmetricTensor(3, n + 1, {(0, 0, 1): QQ.one}, _clean=True)


def big_cw(q: int, n: int) -> SymmetricTensor:
    """Big Coppersmith-Winograd tensor; form x0*(x1^2+...+xq^2+x0*x_{q+1})."""
    if q < 1:
        raise InvalidInputError("big_cw needs q >= 1")
    if q + 1 > n:
        raise InvalidInputError(f"big_cw needs q+1 <= n, got q={q}, n={n}")
    entries = {(0, i, i): QQ.one for i in range(1, q + 1)}
    entries[(0, 0, q + 1)] = QQ.one
    return SymmetricTensor(3, n + 1, entries, _clean=True)


def small_cw(q: int, n: int) -> SymmetricTensor:
    """Small Coppersmith-Winograd tensor; form x0*(x1^2+...+xq^2)."""
    if q < 1:
        raise InvalidInputError("small_cw needs q >= 1")
    if q > n:
        raise InvalidInputError(f"small_cw needs q <= n, got q={q}, n={n}")
    entries = {(0, i, i): QQ.one for i in range(1, q + 1)}
    return SymmetricTensor(3, n + 1, entries, _clean=True)


def max_compressibility(q: int, n: int) -> SymmetricTensor:
    """Maximal compressibility tensor; form x0*(x0^2+x1^2+...+xq^2)."""
    if q < 1:
        raise InvalidInputError("max_compressibility needs q >= 1")
    if q > n:
        raise InvalidInputError(f"max_compressibility needs q <= n, got q={q}, n={n}")
    entries = {(0, i, i): QQ.one for i in range(q + 1)}
    return SymmetricTensor(3, n + 1, entries, _clean=True)


def complete_homogeneous_cubic(n: int) -> SymmetricTensor:
    """Tensor of the complete homogeneous cubic sum of all degree-3 monomials."""
    if n < 1:
        raise InvalidInputError("complete_homogeneous_cubic needs n >= 1")
    entries = {
        idx: Fraction(1, multiindex_multiplicity(idx))
        for idx in itertools.combinations_with_replacement(range(n + 1), 3)
    }
    return SymmetricTensor(3, n + 1, entries, _clean=True)


def sym_matrix_mult(m: int) -> Polynomial:
    """The cubic trace form tr(X^3) in the m*m matrix entries.

    Variable x_{i*m+j} is the (i, j) entry of X.  Its singular ideal is
    generated by the entries of X^2.
    """
    if m < 1:
        raise InvalidInputError("matrix size must be positive")

    def term(i, j, k):
        mono = [0] * (m * m)
        mono[i * m + j] += 1
        mono[j * m + k] += 1
        mono[k * m + i] += 1
        return tuple(mono), QQ.one

    terms = (term(i, j, k) for i, j, k in itertools.product(range(m), repeat=3))
    return Polynomial(PolyRing(m * m), add_terms({}, terms, QQ))


def irreducible_sgr2_cubic(n: int, variant: int = 1) -> Polynomial:
    """Normal forms of irreducible cubics whose singular locus has codimension 2.

    Known for n in {2, 3, 4}; n = 2 has two variants.
    """
    from .polyring import parse_polynomial

    forms = {
        (2, 1): "x0^2*x2 + x1^3",
        (2, 2): "x0^2*x2 + x1^3 + x1^2*x2",
        (3, 1): "x0^2*x2 + x1^3 + x0*x1*x3",
        (4, 1): "x0^2*x2 + x1^3 + x1^2*x3 + x0*x1*x4",
    }
    try:
        text = forms[(n, variant)]
    except KeyError:
        raise InvalidInputError(
            f"no normal form for n={n}, variant={variant} (n in 2..4, variant 2 only at n=2)"
        ) from None
    return parse_polynomial(text, nvars=n + 1)
