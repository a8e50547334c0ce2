"""Named verification suites: golden values, rank laws, strata and engine checks.

Each suite is a list of independent cases; a case is a picklable (name,
module-level function, args) triple so batches can run across worker
processes.  The same suites back the ``verify`` subcommand and the
acceptance tests.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from math import prod
from typing import Callable

from . import groebner
from .errors import InvalidInputError
from .groebner import Ideal, buchberger, ideal_dimension, normal_form, s_polynomial
from .polyring import (
    DEFAULT_PRIME,
    GREVLEX,
    LEX,
    QQ,
    PolyRing,
    Polynomial,
    PrimeField,
    parse_polynomial,
)
from .rank import (
    _as_polynomial,
    _blocks,
    _gr_certificate,
    _integer_form,
    _multilinear_generators,
    _twisted_codim,
    _twisted_system,
    _variable_order,
    gr,
    gr_details,
    matrix_rank,
    rank_report,
    sgr,
    sgr_details,
    singular_ideal,
)
from .strata import (
    ProjectiveLine,
    Tangency,
    binary_cubic_discriminant,
    line_tangency,
    membership_S,
    sample_irreducible_sgr2,
    sample_reducible,
    sample_secant_tangential,
    sample_tangential,
)
from .tensor import (
    Hypergraph,
    SymmetricTensor,
    big_cw,
    complete_homogeneous_cubic,
    hypergraph_tensor,
    identity_tensor,
    irreducible_sgr2_cubic,
    max_compressibility,
    parse_hypergraph,
    small_cw,
    sym_matrix_mult,
    w_state,
)

@dataclass(frozen=True)
class Case:
    name: str
    # Module-level, never a lambda or closure: ``--jobs`` pickles each case,
    # and a function pickles by its qualified name.
    func: Callable
    args: tuple


@dataclass
class CaseResult:
    name: str
    ok: bool
    detail: str
    ms: float


def run_case(case: Case) -> CaseResult:
    t0 = time.perf_counter()
    try:
        ok, detail = case.func(*case.args)
    except Exception as exc:  # a crashing case is a failing case
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    ms = (time.perf_counter() - t0) * 1000.0
    return CaseResult(case.name, ok, detail, round(ms, 2))


def run_suite(name: str, jobs: int = 1):
    """Run a named suite, returning its CaseResults in case order.

    The pool never has more workers than cases or CPUs.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be at least 1, got {jobs}")
    cases = suite_cases(name)
    workers = min(jobs, len(cases), os.cpu_count() or 1)
    if workers <= 1:
        return [run_case(c) for c in cases]
    import concurrent.futures as cf

    with cf.ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run_case, cases, chunksize=4))


def suite_cases(name: str):
    try:
        builder = SUITES[name]
    except KeyError:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}") from None
    return builder()


# ---------------------------------------------------------------------------
# Shared random generators
# ---------------------------------------------------------------------------

def _random_symmetric_cubic(rng: random.Random, n: int) -> SymmetricTensor:
    m = n + 1
    while True:
        entries = {}
        for i in range(m):
            for j in range(i, m):
                for k in range(j, m):
                    v = rng.randint(-5, 5)
                    if v:
                        entries[(i, j, k)] = v
        t = SymmetricTensor(3, m, entries)
        if not t.is_zero():
            return t


def _random_symmetric_matrix(rng: random.Random, m: int):
    while True:
        a = [[0] * m for _ in range(m)]
        nonzero = False
        for i in range(m):
            for j in range(i, m):
                v = rng.randint(-5, 5)
                a[i][j] = a[j][i] = v
                nonzero = nonzero or v != 0
        if nonzero:
            return a


def _random_matrix(rng: random.Random, m: int, force_singular: bool):
    a = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
    if force_singular:
        # overwrite one row with a combination of the others
        r = rng.randrange(m)
        coeffs = [rng.randint(-2, 2) for _ in range(m)]
        a[r] = [
            sum(coeffs[i] * a[i][c] for i in range(m) if i != r)
            for c in range(m)
        ]
    return a


# ---------------------------------------------------------------------------
# Case functions (module level, picklable)
# ---------------------------------------------------------------------------

def _case_rank(rank, make, args, expected, field=None):
    """Golden check: ``rank`` (sgr or gr) of ``make(*args)`` over ``field``
    (QQ by default) is ``expected``."""
    v = rank(make(*args), field=field)
    return v == expected, f"{rank.__name__}={v}, expected {expected}"


def _case_w_state():
    t = w_state(1)
    s, g = sgr(t), gr(t)
    return (s, g) == (1, 2), f"sgr={s} (expected 1), gr={g} (expected 2)"


def _case_matmul_odd():
    # closed-form dimension of the square-zero locus: max_k 2k(m-k)
    m = 3
    expected = m * m - max(2 * k * (m - k) for k in range(m + 1))
    s_q = sgr(sym_matrix_mult(m))
    s_p = sgr(sym_matrix_mult(m), field=PrimeField(DEFAULT_PRIME))
    ok = s_q == s_p == expected
    return ok, f"sgr={s_q} (QQ), {s_p} (Fp), expected {expected}"


def _case_matrix(m, seed):
    rng = random.Random(seed)
    a = _random_symmetric_matrix(rng, m)
    t = SymmetricTensor(2, m, {(i, j): a[i][j] for i in range(m) for j in range(i, m)})
    r = matrix_rank(a)
    s, g = sgr(t), gr(t)
    return s == g == r, f"rank={r}, sgr={s}, gr={g}"


def _case_monotone(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    t = _random_symmetric_cubic(rng, n)
    force_singular = seed % 3 == 0
    a = _random_matrix(rng, n + 1, force_singular)
    image = t.apply_matrix(a)
    base = sgr(t)
    if image.is_zero():
        return True, f"image vanished (A singular), sgr(T)={base}"
    s = sgr(image)
    invertible = matrix_rank(a) == n + 1
    if invertible:
        return s == base, f"invertible action: sgr {base} -> {s}"
    return s <= base, f"singular action: sgr {base} -> {s}"


def _case_additive(seed):
    rng = random.Random(seed)
    s1 = _random_symmetric_cubic(rng, rng.randint(1, 2))
    s2 = _random_symmetric_cubic(rng, rng.randint(1, 2))
    lhs = sgr(s1.direct_sum(s2))
    rhs = sgr(s1) + sgr(s2)
    return lhs == rhs, f"sgr(S (+) T)={lhs}, sgr(S)+sgr(T)={rhs}"


def _case_subadditive(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    s1 = _random_symmetric_cubic(rng, n)
    s2 = _random_symmetric_cubic(rng, n)
    total = s1 + s2
    if total.is_zero():
        return True, "S + T = 0, nothing to check"
    lhs = sgr(total)
    rhs = sgr(s1) + sgr(s2)
    return lhs <= rhs, f"sgr(S+T)={lhs} vs sgr(S)+sgr(T)={rhs}"


def _case_sgr_leq_gr(seed):
    rng = random.Random(seed)
    t = _random_symmetric_cubic(rng, rng.randint(1, 3))
    s, g = sgr(t), gr(t)
    return s <= g, f"sgr={s}, gr={g}"


def _partials_rank(form: Polynomial) -> int:
    """The flattening rank of a form: the rank of the coefficient matrix of
    its partials, by Gaussian elimination."""
    partials = [form.partial_derivative(i) for i in range(form.ring.nvars)]
    monos = sorted({m for p in partials for m in p.terms})
    zero = form.ring.field.zero
    return matrix_rank([[p.terms.get(m, zero) for m in monos] for p in partials],
                       form.ring.field)


def _case_gr_leq_flattening(seed):
    # every other seed maps the cubic by a singular matrix, so that its
    # flattening rank falls below the number of variables
    rng = random.Random(seed)
    n = rng.randint(1, 3)
    t = _random_symmetric_cubic(rng, n)
    if seed % 2:
        image = t.apply_matrix(_random_matrix(rng, n + 1, True))
        t = t if image.is_zero() else image
    s, g, r = sgr(t), gr(t), _partials_rank(t.to_polynomial())
    return s <= g <= r, f"sgr={s}, gr={g}, flattening rank={r}"


def _random_invertible_matrix(rng: random.Random, m: int):
    while True:
        a = _random_matrix(rng, m, False)
        if matrix_rank(a) == m:
            return a


# Direct summands for the report cross-check: the W-state and the diagonal
# x0^3 + x1^3 sit in 4 variables, so their flattening rank 2 is below the
# block's size; the W-state's SGR 1 is below it too, the diagonal's is not.
_REPORT_BLOCKS = {
    "random": lambda rng: _random_symmetric_cubic(rng, rng.randint(1, 2)),
    "one variable": lambda rng: identity_tensor(1, 0, 3).scale(rng.choice((-2, 1, 3))),
    "w_state in 4": lambda rng: w_state(1).direct_sum(SymmetricTensor(3, 2, {})),
    "diagonal in 4": lambda rng: identity_tensor(2, 3, 3),
    "big_cw": lambda rng: big_cw(2, 3),
    "small_cw": lambda rng: small_cw(2, 2),
    "max_compressibility": lambda rng: max_compressibility(2, 3),
    "h3": lambda rng: complete_homogeneous_cubic(rng.randint(1, 3)),
    "normal_form": lambda rng: SymmetricTensor.from_polynomial(irreducible_sgr2_cubic(2, 1)),
}


def _variant(variant):
    """The field of a verify variant, "QQ", "Fp" or "Fp:7"; None means the input's own."""
    return {"Fp": PrimeField(DEFAULT_PRIME), "Fp:7": PrimeField(7)}.get(variant)


def _case_report_blocks(seed, variant):
    """rank_report, which splits a form into direct summands and reads GR off
    SGR where SGR is the flattening rank, against sgr_details and gr_details
    on the whole form: a direct sum of 1-3 blocks, each under a random
    invertible change of its own variables, plus 0-2 free variables, with
    every variable then moved to a random place.  SGR, GR and the dimension
    are compared with the whole form in its input order; the basis sizes
    with the whole form in the report's variable order, whose basis is the
    blocks' bases together.  The report leaves the GR basis size out exactly
    when a block has a GR certificate, SGR = U or a twisted system that
    proves GR = U, since that block builds no GR basis; otherwise it built
    every block's and owes the whole GR basis's size.  Over Fp:7, where a
    block's twisted system often fails and its whole GR run answers, a form
    with a denominator divisible by 7 or zero mod 7 is skipped, and the
    detail says so."""
    rng = random.Random(seed)
    kinds = sorted(_REPORT_BLOCKS)
    names = [kinds[seed % len(kinds)]] + [rng.choice(kinds) for _ in range(rng.randint(0, 2))]
    t = None
    for name in names:
        block = _REPORT_BLOCKS[name](rng)
        block = block.apply_matrix(_random_invertible_matrix(rng, block.dim))
        t = block if t is None else t.direct_sum(block)
    free = rng.randint(0, 2)
    if free:
        t = t.direct_sum(SymmetricTensor(3, free, {}))
    n = t.dim
    perm = list(range(n))
    rng.shuffle(perm)
    t = t.apply_matrix([[int(j == perm[i]) for j in range(n)] for i in range(n)])
    field = _variant(variant)
    label = f"{' + '.join(names)} + {free} free"
    if variant == "Fp:7":
        coeffs = t.to_polynomial().terms.values()
        if any(c.denominator % 7 == 0 for c in coeffs):
            return True, f"{label}: skipped, a denominator is divisible by 7"
        if all(c.numerator % 7 == 0 for c in coeffs):
            return True, f"{label}: skipped, the form vanishes mod 7"
    rep = rank_report(t, compute_gr=True, field=field)
    s, dim, _ = sgr_details(t, field=field)
    g = gr(t, field=field)
    form = _as_polynomial(t, field=field)
    certified = False  # a block of the report with a GR certificate
    for block in _blocks(form):
        s_b, _, sbasis = sgr_details(block)
        certified = certified or _gr_certificate(block, t.order, s_b, sbasis)[1]
    ranked = _variable_order(form)
    form = Polynomial(form.ring, {tuple(m[i] for i in ranked): c for m, c in form.terms.items()})
    basis = sgr_details(form)[2]
    gbasis = gr_details(SymmetricTensor.from_polynomial(form))[2]
    got = (rep.sgr, rep.gr, rep.sing_dim_affine, rep.sgr_basis_size)
    want = (s, g, n - s, len(basis))
    whole = rep.gr_basis_size == (None if certified else len(gbasis))
    return got == want and dim == n - s and whole, (
        f"{label}: report (sgr, gr, dim, basis) = {got}, "
        f"plain engine {want}; GR basis {rep.gr_basis_size} against {len(gbasis)}"
        f"{', a block certified' if certified else ''}"
    )


def _case_report_reducible(seed, variant):
    """rank_report against sgr_details and gr on a reducible cubic ell * Q,
    whose GR may be proved equal to the degree 3 once the form's linear
    factor is found.  Q is a diagonal quadric of rank 1 + seed % 4 in a ring of
    1-4 variables; ell is a random linear form in that ring's variables, or
    one in an extra variable too when (seed // 4) is odd.  The form goes under a
    random invertible change of variables, and when (seed // 8) is odd a
    golden block under its own change is added as a direct summand."""
    rng = random.Random(seed)
    k = 1 + seed % 4
    inside = (seed // 4) % 2 == 0
    m = rng.randint(k, 4)
    n = m if inside else m + 1
    ring = PolyRing(n)
    x = ring.gens()
    q = sum((x[i] * x[i] * rng.choice((-3, -2, -1, 1, 2, 3)) for i in range(k)), ring.zero())
    ell = ring.zero()
    while ell.is_zero():
        ell = sum((x[i] * rng.randint(-2, 2) for i in range(m)), ring.zero())
    if not inside:
        ell = ell + x[m]
    t = SymmetricTensor.from_polynomial(ell * q)
    t = t.apply_matrix(_random_invertible_matrix(rng, n))
    names = [f"ell*Q, rank Q = {k}, ell {'inside' if inside else 'outside'} Q's variables"]
    if (seed // 8) % 2:
        name = rng.choice(sorted(_REPORT_BLOCKS))
        block = _REPORT_BLOCKS[name](rng)
        t = t.direct_sum(block.apply_matrix(_random_invertible_matrix(rng, block.dim)))
        names.append(name)
    field = _variant(variant)
    rep = rank_report(t, compute_gr=True, field=field)
    s, dim, _ = sgr_details(t, field=field)
    want = (s, gr(t, field=field), dim)
    got = (rep.sgr, rep.gr, rep.sing_dim_affine)
    return got == want, f"{' + '.join(names)}: report (sgr, gr, dim) = {got}, plain engine {want}"


def _random_sparse_cubic(rng: random.Random, n: int) -> SymmetricTensor:
    """A cubic in n variables with 2 to n + 2 random monomials."""
    picks = rng.sample(list(itertools.combinations_with_replacement(range(n), 3)),
                       rng.randint(2, n + 2))
    return SymmetricTensor(3, n, {idx: rng.choice((-3, -2, -1, 1, 2, 3)) for idx in picks})


def _case_twisted_bound(kind, seed, variant):
    """The twisted systems of rank_report (rank._twisted_system), run to
    completion, against gr: the GR ideal's generators on a random subspace
    of dimension n, and of dimension r, the flattening rank, which gives
    the square system that the report runs.  Each codimension is never
    above GR, which is at most r, and on cubics in 3-5 variables, where the
    seeded maps are generic enough, it equals GR.  The form is a sparse random cubic in 3-5
    variables or a report block, under a random invertible change of
    variables.  The systems live in n variables or fewer, not 2n, so this
    checks GR on ideals other than the GR ideal."""
    rng = random.Random(seed)
    t = _random_sparse_cubic(rng, 3 + seed % 3) if kind == "sparse cubic" else \
        _REPORT_BLOCKS[kind](rng)
    t = t.apply_matrix(_random_invertible_matrix(rng, t.dim))
    field = _variant(variant)
    form = _as_polynomial(t, field=field)
    g = gr(t, field=field)
    widths = sorted({t.dim, _partials_rank(form)})
    codims = [_twisted_codim(_twisted_system(form, 3, w)) for w in widths]
    ok = all(c <= g and (c == g or not 3 <= t.dim <= 5) for c in codims)
    return ok, f"{t.dim} variables: twisted codim {codims} in widths {widths}, gr {g}"


def _random_hypergraph(rng: random.Random, n: int) -> Hypergraph:
    """A 3-uniform hypergraph on n vertices with 2 to n + 2 random edges."""
    edges = rng.sample(list(itertools.combinations(range(1, n + 1), 3)), rng.randint(2, n + 2))
    return Hypergraph(n, 3, edges)


# Sparse forms whose variables differ in their largest exponent or in the
# number of terms that hold them, so rank_report mostly lists them in an
# order of its own; a hypergraph's form is multilinear, so it is ordered by
# vertex degree.  Each kind maps the arguments of a case to its form.
_ORDER_FORMS = {
    "trace": sym_matrix_mult,
    "big_cw": lambda q, n: big_cw(q, n).to_polynomial(),
    "small_cw": lambda q, n: small_cw(q, n).to_polynomial(),
    "max_compressibility": lambda q, n: max_compressibility(q, n).to_polynomial(),
    "normal_form": irreducible_sgr2_cubic,
    "sparse cubic": lambda seed: _random_sparse_cubic(
        random.Random(seed), 3 + seed % 3).to_polynomial(),
    "hypergraph": lambda seed: hypergraph_tensor(
        _random_hypergraph(random.Random(seed), 5 + seed % 2)).to_polynomial(),
    # GR 7: its GR engine ran past 600 s in the degree order, against 0.4 s
    # in the input order; the report's twisted system proves GR = r = 6 on
    # its 6-variable block, and x3^3 adds 1
    "slow-order cubic": lambda: parse_polynomial(
        "2*x0^3 + 2*x1*x2^2 + 3*x3^3 + 2*x1*x4^2 - x0*x4*x5 - 3*x2*x4*x5 - 3*x0*x2*x6"),
}
_ORDER_NAMED = (
    ("trace", (2,)), ("trace", (3,)),
    ("big_cw", (2, 3)), ("big_cw", (3, 4)),
    ("small_cw", (2, 2)), ("small_cw", (3, 3)),
    ("max_compressibility", (2, 2)), ("max_compressibility", (3, 4)),
    ("normal_form", (2, 1)), ("normal_form", (2, 2)), ("normal_form", (3, 1)),
    ("normal_form", (4, 1)), ("slow-order cubic", ()),
)


def _case_report_order(kind, args, variant, compute_gr):
    """rank_report, which lists each block's variables in its own order
    (rank._variable_order), against sgr_details and gr_details with the
    variables in the input order: SGR, GR and the dimension agree."""
    form = _ORDER_FORMS[kind](*args)
    field = _variant(variant)
    rep = rank_report(form, compute_gr=compute_gr, field=field)
    s, dim, _ = sgr_details(form, field=field)
    g = gr(SymmetricTensor.from_polynomial(form), field=field) if compute_gr else None
    got, want = (rep.sgr, rep.gr, rep.sing_dim_affine), (s, g, dim)
    moved = _variable_order(form) != list(range(form.ring.nvars))
    return got == want, (f"report (sgr, gr, dim) = {got}, input order {want}; "
                         f"variables {'reordered' if moved else 'kept in input order'}")


def _case_scaling(seed):
    rng = random.Random(seed)
    t = _random_symmetric_cubic(rng, rng.randint(1, 3))
    c = Fraction(rng.randint(1, 7), rng.randint(1, 7))
    return sgr(t.scale(c)) == sgr(t), f"scale by {c}"


def _case_secant_batch(r, n, n_seeds, min_rate):
    equal = 0
    for seed in range(n_seeds):
        s = sgr(sample_secant_tangential(r, n, seed=seed))
        if s > r:
            return False, f"seed {seed}: sgr={s} exceeds hard bound {r}"
        equal += s == r
    rate = equal / n_seeds
    ok = rate >= min_rate
    return ok, f"sgr=r on {equal}/{n_seeds} seeds (need >= {min_rate:.0%})"


def _case_membership_chain(kind, seed):
    makers = {
        "tangential": lambda: sample_tangential(3, seed=seed),
        "secant": lambda: sample_secant_tangential(2, 3, seed=seed),
        "irreducible": lambda: sample_irreducible_sgr2(3, seed=seed),
        "reducible": lambda: sample_reducible(2, 1, 3, seed=seed),
    }
    f = makers[kind]()
    n1 = f.ring.nvars
    flags = [membership_S(f, r) for r in range(0, n1 + 1)]
    s = sgr(f)
    monotone = all(not flags[i] or flags[i + 1] for i in range(len(flags) - 1))
    threshold_ok = all(flags[r] == (r >= s) for r in range(len(flags)))
    ok = monotone and threshold_ok and flags[n1]
    return ok, f"sgr={s}, membership flags {[int(b) for b in flags]}"


def _binary_cubic_coeffs(f: Polynomial):
    return [f.coefficient(m) for m in ((3, 0), (2, 1), (1, 2), (0, 3))]


def _case_discriminant_random(seed):
    rng = random.Random(seed)
    while True:
        a = [rng.randint(-5, 5) for _ in range(4)]
        if any(a):
            break
    ring = PolyRing(2)
    f = ring.from_dict({(3, 0): a[0], (2, 1): a[1], (1, 2): a[2], (0, 3): a[3]})
    disc = binary_cubic_discriminant(*a)
    s = sgr(f)
    ok = (disc == 0) == (s <= 1)
    return ok, f"coeffs={a}, disc={disc}, sgr={s}"


_CRAFTED_BINARY_CUBICS = (
    "x0^3",                 # triple line
    "x1^3",
    "x0^2*x1",              # double line
    "x0*x1^2",
    "x0^3 + x1^3",          # three distinct roots
    "x0^3 - x1^3",
    "x0^3 + 3*x0^2*x1 + 3*x0*x1^2 + x1^3",   # (x0+x1)^3
    "4*x0^3 + 8*x0^2*x1 - 3*x0*x1^2 - 9*x1^3",  # (2x0+3x1)^2(x0-x1)
    "x0^3 + x0^2*x1 - x0*x1^2 - x1^3",          # (x0+x1)^2(x0-x1)
    "x0^3 + x0*x1^2",       # x0(x0^2+x1^2), squarefree
)


def _case_discriminant_crafted(idx):
    f = parse_polynomial(_CRAFTED_BINARY_CUBICS[idx], nvars=2)
    a = _binary_cubic_coeffs(f)
    disc = binary_cubic_discriminant(*a)
    s = sgr(f)
    ok = (disc == 0) == (s <= 1)
    return ok, f"{_CRAFTED_BINARY_CUBICS[idx]}: disc={disc}, sgr={s}"


def _case_tangency_rank_one(seed, n_lines=20):
    f = sample_tangential(2, seed=seed)
    rng = random.Random(seed + 10_000)
    for i in range(n_lines):
        line = ProjectiveLine.random(rng, 2)
        res = line_tangency(f, line)
        if res is Tangency.NOT_TANGENT:
            return False, f"line {i} is not tangent to a rank-one cubic"
    return True, f"{n_lines} lines all tangent or contained"


def _case_tangency_smooth(seed, n_lines=20):
    rng = random.Random(seed)
    while True:
        t = _random_symmetric_cubic(rng, 2)
        f = t.to_polynomial()
        if sgr(f) == 3:
            break
    line_rng = random.Random(seed + 20_000)
    for i in range(n_lines):
        line = ProjectiveLine.random(line_rng, 2)
        if line_tangency(f, line) is Tangency.NOT_TANGENT:
            return True, f"non-tangent line found after {i + 1} trial(s)"
    return False, f"no non-tangent line in {n_lines} trials on a smooth cubic"


def _random_monomial_ideal(rng: random.Random, nvars, ngens):
    monos = []
    for _ in range(ngens):
        m = [0] * nvars
        for _ in range(rng.randint(1, 3)):
            m[rng.randrange(nvars)] += 1
        if any(m):
            monos.append(tuple(m))
    return monos


def _dimension_bruteforce(supports, nvars):
    """Independent-set dimension by trying all variable subsets; each
    support is an int bitmask, bit i standing for x_i."""
    best = -1
    for mask in range(1 << nvars):
        k = mask.bit_count()
        if k > best and all(s & mask != s for s in supports):
            best = k
    return best


def _dimension_against_bruteforce(nvars, monos):
    """(ideal_dimension, brute force) for the ideal of the given monomials."""
    ring = PolyRing(nvars)
    got = ideal_dimension(buchberger([ring.from_dict({m: 1}) for m in monos]))
    supports = [sum(1 << i for i, e in enumerate(m) if e) for m in monos]
    return got, _dimension_bruteforce(supports, nvars)


def _case_dim_bruteforce(seed):
    rng = random.Random(seed)
    nvars = rng.randint(2, 6)
    monos = _random_monomial_ideal(rng, nvars, rng.randint(1, 6))
    if not monos:
        return True, "degenerate draw (no generators)"
    got, want = _dimension_against_bruteforce(nvars, monos)
    return got == want, f"nvars={nvars}, gens={monos}: dim={got}, brute force={want}"


def _case_dim_bruteforce_wide(seed):
    """7-16 variables and n to 3n generators, each on 1-4 variables."""
    rng = random.Random(seed)
    nvars = rng.randint(7, 16)
    monos = []
    for _ in range(rng.randint(nvars, 3 * nvars)):
        support = rng.sample(range(nvars), rng.randint(1, 4))
        monos.append(tuple(rng.randint(1, 2) if i in support else 0 for i in range(nvars)))
    got, want = _dimension_against_bruteforce(nvars, monos)
    return got == want, f"nvars={nvars}, {len(monos)} gens: dim={got}, brute force={want}"


@functools.cache
def _engine_forms():
    """Representative forms from every family the golden suites exercise,
    built once per process."""
    rng = random.Random(2024)
    forms = {
        "identity[3,3,3]": identity_tensor(3, 3, 3).to_polynomial(),
        "identity[2,4,4]": identity_tensor(2, 4, 4).to_polynomial(),
        "big_cw[2,3]": big_cw(2, 3).to_polynomial(),
        "big_cw[4,5]": big_cw(4, 5).to_polynomial(),
        "small_cw[2,2]": small_cw(2, 2).to_polynomial(),
        "maxc[3,4]": max_compressibility(3, 4).to_polynomial(),
        "h3[3]": complete_homogeneous_cubic(3).to_polynomial(),
        "h3[5]": complete_homogeneous_cubic(5).to_polynomial(),
        "normal_form[2,1]": irreducible_sgr2_cubic(2, 1),
        "normal_form[4,1]": irreducible_sgr2_cubic(4, 1),
        "w_state": w_state(1).to_polynomial(),
        "matmul[2]": sym_matrix_mult(2),
        "matmul[3]": sym_matrix_mult(3),
        "matmul[4]": sym_matrix_mult(4),
        "random_cubic[n=3]": _random_symmetric_cubic(rng, 3).to_polynomial(),
        # Dense: its reduced basis has coefficients of about 250 bits.  Its
        # own generator leaves the draws of the other forms as they were.
        "random_cubic[n=4]": _random_symmetric_cubic(random.Random(4), 4).to_polynomial(),
        # Denser still: 6 variables, basis coefficients up to 681 bits.
        "random_cubic[n=5]": _random_symmetric_cubic(random.Random(5), 5).to_polynomial(),
        "random_matrix[m=5]": SymmetricTensor(
            2, 5,
            {(i, j): v for i in range(5) for j in range(i, 5) if (v := rng.randint(-5, 5))},
        ).to_polynomial(),
        "tangential[n=3,seed=1]": sample_tangential(3, seed=1),
        "secant[r=2,n=3,seed=2]": sample_secant_tangential(2, 3, seed=2),
        "irreducible[n=3,seed=3]": sample_irreducible_sgr2(3, seed=3),
        "reducible[2,1,n=3,seed=4]": sample_reducible(2, 1, 3, seed=4),
        "hypergraph_edge": hypergraph_tensor(parse_hypergraph("1 2 3")).to_polynomial(),
        "hypergraph_triangle": hypergraph_tensor(parse_hypergraph("1 2\n2 3\n1 3")).to_polynomial(),
    }
    return forms


def _case_cross_field(name):
    """SGR and the reduced basis agree over QQ and Fp: the rational basis,
    mapped mod p, is the modular one.  This checks the int-pair reduction
    loop over QQ against the one over Fp."""
    f = _engine_forms()[name]
    fp = PrimeField(DEFAULT_PRIME)
    s_q, _, basis_q = sgr_details(f)
    s_p, _, basis_p = sgr_details(f, field=fp)
    same = [g.convert_field(fp) for g in basis_q] == list(basis_p)
    return s_q == s_p and same, (
        f"sgr={s_q} over QQ, {s_p} over Fp:{DEFAULT_PRIME}; "
        f"bases {'agree' if same else 'differ'} ({len(basis_q)} and {len(basis_p)} elements)"
    )


def _case_cross_order(name):
    """The dimension read off the lex basis of an engine form's singular
    ideal equals the one off the grevlex basis: a check of the lex layout
    and of ideal_dimension on lex leads."""
    gens = list(singular_ideal(_engine_forms()[name]))
    d_g = ideal_dimension(buchberger(gens))
    d_l = ideal_dimension(buchberger(_in_variant(gens, "lex")))
    return d_g == d_l, f"dim={d_g} grevlex, {d_l} lex"


_SEED_VARIANTS = ("QQ", "Fp", "QQ, denominators", "Fp, denominators", "QQ, lex", "Fp, lex")


def _case_integer_seeds(name, variant):
    """The singular ideal of the form's integer image (``_integer_form``,
    what ``sgr_details`` and ``rank_report`` run) against that of the form,
    with Fraction coefficients over QQ: the same reduced basis and the same
    GBStats at every poll, so the same pair counts.  Over Fp the image is
    the form itself, and the case guards that.  The variant picks the
    field, and substitutes x_i / (i mod 3 + 2) for each x_i
    ("denominators": mixed denominators, and the same leads and pairs as
    the plain form) or puts the form in lex."""
    form = _engine_forms()[name]
    if "denominators" in variant:
        form = form.ring._build(
            (m, c / prod((i % 3 + 2) ** e for i, e in enumerate(m)))
            for m, c in form.terms.items())
    if "lex" in variant:
        form = form.convert_order(LEX)
    if variant.startswith("Fp"):
        form = form.convert_field(PrimeField(DEFAULT_PRIME))
    seen_int, seen_frac = [], []
    basis_int = buchberger(singular_ideal(_integer_form(form)), poll=seen_int.append, poll_every=1)
    basis_frac = buchberger(singular_ideal(form), poll=seen_frac.append, poll_every=1)
    same = list(basis_int) == list(basis_frac)
    done = seen_frac[-1].pairs_done if seen_frac else 0
    return same and seen_int == seen_frac, (
        f"bases {'agree' if same else 'differ'} ({len(basis_int)} and {len(basis_frac)} elements); "
        f"{len(seen_int)} and {len(seen_frac)} polls {'agree' if seen_int == seen_frac else 'differ'}, "
        f"{done} pairs reduced")


def _textbook_buchberger(generators):
    """The reduced Groebner basis by Buchberger's algorithm as textbooks
    state it: every pair's S-polynomial, smallest lcm degree first, is
    reduced by normal_form against the basis so far, with no criteria, and
    each nonzero remainder joins the basis.  Then the basis is made minimal
    and reduced: an element goes when another's lead divides its lead, and
    each survivor is replaced by its monic normal form modulo the others.
    Sorted like GroebnerBasis.polys."""
    basis = []
    pairs = []  # heap of (deg lcm, i, j)

    def add(h):
        lm = h.leading_monomial()
        for k, g in enumerate(basis):
            heapq.heappush(pairs, (sum(map(max, lm, g.leading_monomial())), k, len(basis)))
        basis.append(h)

    for g in generators:
        if not g.is_zero():
            add(g)
    while pairs:
        _, i, j = heapq.heappop(pairs)
        h = normal_form(s_polynomial(basis[i], basis[j]), basis)
        if not h.is_zero():
            add(h)
    minimal = []
    for g in sorted(basis, key=lambda g: g.ring.order.key(g.leading_monomial())):
        lm = g.leading_monomial()
        if not any(all(map(int.__le__, h.leading_monomial(), lm)) for h in minimal):
            minimal.append(g)
    reduced = []
    for k, g in enumerate(minimal):
        r = normal_form(g, minimal[:k] + minimal[k + 1:])
        reduced.append(r * r.ring.field.inv(r.leading_coefficient()))
    return reduced[::-1]


def _random_form(rng: random.Random, ring: PolyRing, degree, keep=None) -> Polynomial:
    """A form of the given degree with coefficients drawn from -5..5 on every
    monomial that ``keep`` accepts (all of them by default)."""
    n = ring.nvars
    terms = {}
    for c in itertools.combinations_with_replacement(range(n), degree):
        m = tuple(map(c.count, range(n)))
        if (keep is None or keep(m)) and (v := rng.randint(-5, 5)):
            terms[m] = v
    return ring.from_dict(terms)


def _random_polynomial(rng: random.Random, ring: PolyRing) -> Polynomial:
    """2 to 4 terms of degree 0 to 3 with coefficients from -5..5 without 0,
    a repeated monomial keeping its last coefficient: seldom homogeneous."""
    n = ring.nvars
    terms = {}
    for _ in range(rng.randint(2, 4)):
        c = rng.choices(range(n), k=rng.randint(0, 3))
        terms[tuple(map(c.count, range(n)))] = rng.choice((-5, -4, -3, -2, -1, 1, 2, 3, 4, 5))
    return ring.from_dict(terms)


# Seeds of random non-homogeneous systems on which a new lead divides a tail
# term above itself, so the update reduces that tail in full (seed 112 in
# every variant, 86 over QQ and Fp, 12 and 192 in lex).  Of the first 200
# seeds, 12 do, among those whose runs all take under 1 s.
_FULL_REWRITE_SEEDS = (12, 86, 112, 192)


def _gr_ideal(t: SymmetricTensor) -> list:
    """The generators of the GR ideal of a symmetric cubic tensor: n bilinear
    forms in 2n variables."""
    return _multilinear_generators(t.to_general())[1]


@functools.cache
def _textbook_systems():
    """The systems of the textbook cross-check, name -> (generators over QQ
    in grevlex, skips).  The singular ideal of each engine form comes first,
    with skips None.  Then come homogeneous systems of k <= N forms in N
    variables, where the engine tracks the complete-intersection Hilbert
    bound, GR ideals (k = N / 2) among them, and systems it does not track;
    skips says whether pairs must be skipped on one (True), must not be
    (False), or may be (None).  Built once per process."""
    systems = {name: (list(singular_ideal(f)), None) for name, f in _engine_forms().items()}
    rng = random.Random(1996)
    r4 = PolyRing(4)
    # Smooth forms: the partials are a regular sequence.
    for n in (4, 5, 6):
        f = complete_homogeneous_cubic(n - 1).to_polynomial()
        systems[f"h3 in {n} vars"] = (list(singular_ideal(f)), True)
    for n in (4, 5):
        f = _random_form(rng, PolyRing(n), 3)
        systems[f"dense cubic in {n} vars"] = (list(singular_ideal(f)), True)
    # Cubics singular along the last k coordinates (no term of degree 2 or
    # more in them): the count first ends above the bound at degree 5 for
    # k = 1 and at degree 3 for k = 2.  The other systems that are not
    # complete intersections first end above it at degree 7 (a common zero)
    # and 2 (dependent generators).
    for k in (1, 2):
        f = _random_form(rng, r4, 3, lambda m, k=k: sum(m[4 - k:]) < 2)
        systems[f"cubic singular on {k} coordinates"] = (list(singular_ideal(f)), None)
    systems["mixed degrees 2, 3, 2, 4"] = ([_random_form(rng, r4, d) for d in (2, 3, 2, 4)], True)
    # Forms of degrees 2, 3, 2, 3 sharing the zero (0, 0, 0, 1).
    systems["mixed degrees with a common zero"] = (
        [_random_form(rng, r4, d, lambda m: m[3] < d) for d in (2, 3, 2, 3)], None)
    g = [_random_form(rng, r4, 2) for _ in range(3)]
    systems["linearly dependent generators"] = ([*g, g[0] + g[1] * 3], None)
    # Three forms in 4 variables once the zero is dropped: tracked.
    systems["a zero generator"] = ([*g, r4.zero()], True)
    # GR ideals.  Those of the CW tensors and the W state are not complete
    # intersections (their GR is below n).  The sparse normal form is one,
    # but its few tail terms stop the tracking before degree 2 is built; a
    # dense change of variables, as a rank_report block gets in the
    # benchmark, keeps it.
    for name, t in (("big_cw[2,3]", big_cw(2, 3)), ("small_cw[2,2]", small_cw(2, 2)),
                    ("w_state", w_state(1))):
        systems[f"GR ideal of {name}"] = (_gr_ideal(t), None)
    rng = random.Random(2020)
    normal = SymmetricTensor.from_polynomial(irreducible_sgr2_cubic(3))
    systems["GR ideal of normal_form[3], changed variables"] = (
        _gr_ideal(normal.apply_matrix(_random_invertible_matrix(rng, 4))), True)
    dense = SymmetricTensor.from_polynomial(_random_form(rng, r4, 3))
    systems["GR ideal of a dense cubic in 4 vars"] = (_gr_ideal(dense), True)
    for k in (2, 3):
        systems[f"{k} quadrics in 4 vars"] = ([_random_form(rng, r4, 2) for _ in range(k)], True)
    # More forms than variables: not tracked.
    systems["5 forms in 4 vars"] = ([_random_form(rng, r4, d) for d in (2, 2, 2, 3, 3)], False)
    # Not homogeneous, so not tracked: no pair may be skipped.
    for seed in _FULL_REWRITE_SEEDS:
        seeded = random.Random(seed)
        ring = PolyRing(seeded.randint(2, 3))
        gens = [_random_polynomial(seeded, ring) for _ in range(seeded.randint(2, 3))]
        systems[f"non-homogeneous seed={seed}"] = (gens, False)
    return systems


# Runs too slow for the textbook algorithm, left out of the suite.  Every run
# kept takes under 3 s; h3 in 6 variables over Fp (2-3 s) is the slowest.
_TEXTBOOK_SLOW = {
    *((name, variant) for name in ("h3[5]", "matmul[4]", "random_cubic[n=5]")
      for variant in ("QQ", "Fp", "lex")),
    ("random_cubic[n=4]", "lex"),
    ("h3 in 6 vars", "QQ"),
    ("h3 in 6 vars", "lex"),
    ("dense cubic in 5 vars", "lex"),
    ("GR ideal of a dense cubic in 4 vars", "lex"),  # agrees, in 30-35 s
}


def _in_variant(gens, variant):
    """The generators over QQ in grevlex (variant "QQ"), mapped to Fp ("Fp")
    or put in lex order ("lex")."""
    if variant == "Fp":
        fp = PrimeField(DEFAULT_PRIME)
        return [g.convert_field(fp) for g in gens]
    if variant == "lex":
        return [g.convert_order(LEX) for g in gens]
    return gens


def _case_textbook(name, variant):
    """buchberger and the textbook algorithm give the same reduced basis over
    QQ, over Fp or in lex order: a check of the pair criteria, the
    first-divisor memo, the tail rewrites and the pairs the Hilbert bound
    drops unreduced against a run that has none of them.  Whether pairs
    were dropped is checked too, where it is known."""
    gens, skips = _textbook_systems()[name]
    gens = _in_variant(gens, variant)
    last = []
    fast = list(buchberger(gens, poll=last.append, poll_every=1))
    skipped = last[-1].pairs_skipped if last else 0
    plain = _textbook_buchberger(gens)
    ok = fast == plain and (skips is None or (skipped > 0) == skips)
    return ok, (f"{len(fast)} elements, textbook {'agrees' if fast == plain else 'differs'}, "
                f"{skipped} pairs skipped")


def _case_full_tail_rewrite():
    """The update reduces a tail in full, not by one fused subtract, on the
    seeded non-homogeneous systems: the path their textbook cross-checks are
    there for is reached, in at least one run over QQ, Fp or lex."""
    rewrite = groebner._rewrite_tail
    counts = {}

    def counted(*args):
        counts[variant] += 1
        return rewrite(*args)

    groebner._rewrite_tail = counted
    try:
        for variant in ("QQ", "Fp", "lex"):
            counts[variant] = 0
            for seed in _FULL_REWRITE_SEEDS:
                buchberger(_in_variant(_textbook_systems()[f"non-homogeneous seed={seed}"][0],
                                       variant))
    finally:
        groebner._rewrite_tail = rewrite
    return sum(counts.values()) > 0, f"full tail rewrites: {counts}"


def _standard_count(leads, nvars, t) -> int:
    """The number of degree-t monomials that no lead divides, by listing them."""
    return sum(
        1 for c in itertools.combinations_with_replacement(range(nvars), t)
        if not any(all(map(int.__le__, lm, map(c.count, range(nvars)))) for lm in leads)
    )


def _complete_intersection_hf(degrees, nvars, t) -> int:
    """The Hilbert function at t of a complete intersection of the given
    degrees in nvars >= len(degrees) variables, counted as the degree-t
    monomials that x_i^(d_i) leave standard: exponents a with a_i < d_i for
    the first len(degrees) variables, any a_i for the rest, summing to t."""
    ranges = [range(d) for d in degrees] + [range(t + 1)] * (nvars - len(degrees))
    return sum(1 for a in itertools.product(*ranges) if sum(a) == t)


def _case_hilbert_bound(seed):
    """On a random homogeneous system of k <= n forms in n variables, square
    for seeds below 40, degenerate ones included (a generator that is a
    combination of others, a common factor, a common zero), the final lead
    ideal leaves at least CI(t) standard monomials in every degree t up to
    the top basis degree + 1: the bound the engine's skip rests on.  The
    engine's closed form of CI(t) matches the count here in those degrees."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    k = n if seed < 40 else rng.randint(1, n - 1)
    field = PrimeField(DEFAULT_PRIME) if seed % 2 else QQ
    ring = PolyRing(n, field, LEX if seed % 3 == 0 else GREVLEX)
    kind = ("generic", "combination", "common factor", "common zero")[seed % 4]
    degrees = [rng.randint(1, 3) for _ in range(k)]
    if kind == "combination":
        degrees = [degrees[0]] * k
    gens = []
    for d in degrees:
        g = _random_form(rng, ring, d, None if kind != "common zero" else lambda m, d=d: m[0] < d)
        if kind == "common factor" and d > 1:
            g = _random_form(rng, ring, 1) * _random_form(rng, ring, d - 1)
        gens.append(g if not g.is_zero() else ring.from_dict({(d,) + (0,) * (n - 1): 1}))
    if kind == "combination" and k > 1:
        gens[-1] = gens[0] * 2 if k == 2 else gens[0] + gens[1]
    leads = buchberger(gens).leading_monomials()
    top = max(map(sum, leads))
    bound = [_complete_intersection_hf(degrees, n, t) for t in range(top + 2)]
    ci = groebner._hilbert_bound(Ideal(gens))
    same = [ci(t) for t in range(top + 2)] == bound
    low = [t for t in range(top + 2) if _standard_count(leads, n, t) < bound[t]]
    return same and not low, (
        f"{kind}, {k} forms in {n} vars, degrees {degrees}: "
        + (f"count below CI(t) at t={low}" if low else f"count >= CI(t) for t <= {top + 1}")
        + ("" if same else "; the engine's CI(t) differs"))


def _shortcut_disagreements(nvars, terms):
    """Where buchberger and the textbook algorithm give different reduced
    bases of the ideal of the given single terms, (exponent tuple,
    coefficient) pairs: buchberger takes its monomial shortcut on them.
    Also where the basis's lead readout differs from the leads of its
    polynomials.  Checked over QQ and Fp, in grevlex and lex."""
    fp = PrimeField(DEFAULT_PRIME)
    bad = []
    for name, field, order in (("QQ", QQ, GREVLEX), ("Fp", fp, GREVLEX),
                               ("lex-QQ", QQ, LEX), ("lex-Fp", fp, LEX)):
        ring = PolyRing(nvars, field, order)
        gens = [ring.from_dict({m: c}) for m, c in terms]
        basis = buchberger(gens)
        leads = basis.leading_monomials()  # read before the polynomials exist
        if (list(basis) != _textbook_buchberger(gens)
                or leads != [g.leading_monomial() for g in basis]):
            bad.append(name)
    return bad


def _case_monomial_shortcut(seed):
    """A random monomial ideal with scaled coefficients, one duplicate and
    one non-minimal generator and, for every fifth seed, a constant."""
    rng = random.Random(seed)
    nvars = rng.randint(2, 6)
    monos = _random_monomial_ideal(rng, nvars, rng.randint(1, 6))
    monos.append(rng.choice(monos))
    multiple = list(rng.choice(monos))
    multiple[rng.randrange(nvars)] += 1
    monos.append(tuple(multiple))
    if seed % 5 == 0:
        monos.append((0,) * nvars)
    rng.shuffle(monos)
    terms = [(m, Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9)))
             for m in monos]
    bad = _shortcut_disagreements(nvars, terms)
    return not bad, f"nvars={nvars}, gens={monos}: " + (f"differs in {bad}" if bad else "agrees")


def _case_edge_shortcut(nvars, width):
    """The windows x_i*...*x_{i+width-1}, indices mod nvars; width 2 is the
    cycle edge ideal."""
    terms = []
    for i in range(nvars):
        m = [0] * nvars
        for s in range(width):
            m[(i + s) % nvars] += 1
        terms.append((tuple(m), 1))
    bad = _shortcut_disagreements(nvars, terms)
    return not bad, f"differs in {bad}" if bad else "agrees"


def _case_cross_gr(name):
    """GR over QQ and Fp, and GR read off the lex basis of the same ideal."""
    t = {"w_state": w_state(1), "big_cw[2,3]": big_cw(2, 3)}[name]
    g_g = gr(t)
    gens = _in_variant(_gr_ideal(t), "lex")
    g_l = gens[0].ring.nvars - ideal_dimension(buchberger(gens))
    g_p = gr(t, field=PrimeField(DEFAULT_PRIME))
    return g_g == g_l == g_p, f"gr={g_g} grevlex/QQ, {g_l} lex, {g_p} Fp"


# ---------------------------------------------------------------------------
# Suite builders
# ---------------------------------------------------------------------------

def suite_identity():
    cases = []
    for d in (3, 4):
        for m in range(1, 8):
            for k in range(1, m + 1):
                cases.append(Case(f"identity k={k} n={m - 1} d={d}",
                                  _case_rank, (sgr, identity_tensor, (k, m - 1, d), k)))
    return cases


def suite_golden_values():
    cases = []
    for q in range(1, 5):
        for n in range(q + 1, 6):
            cases.append(Case(f"big_cw q={q} n={n}", _case_rank, (sgr, big_cw, (q, n), 2)))
    for q in range(2, 5):
        for n in range(q, 6):
            cases.append(Case(f"small_cw q={q} n={n}", _case_rank, (sgr, small_cw, (q, n), 2)))
            cases.append(Case(f"max_compressibility q={q} n={n}",
                              _case_rank, (sgr, max_compressibility, (q, n), 2)))
    for kind, make, q, n in (("big", big_cw, 2, 3), ("small", small_cw, 2, 2),
                             ("maxc", max_compressibility, 2, 2)):
        cases.append(Case(f"gr {kind} CW q={q} n={n}", _case_rank, (gr, make, (q, n), 3)))
    for n in range(2, 6):
        cases.append(Case(f"complete homogeneous cubic n={n}",
                          _case_rank, (sgr, complete_homogeneous_cubic, (n,), n + 1)))
    for n, v in ((2, 1), (2, 2), (3, 1), (4, 1)):
        cases.append(Case(f"irreducible normal form n={n} variant={v}",
                          _case_rank, (sgr, irreducible_sgr2_cubic, (n, v), 2)))
    cases.append(Case("w-state sgr/gr", _case_w_state, ()))
    return cases


def suite_matmul():
    return [
        Case("trace cubic m=2", _case_rank, (sgr, sym_matrix_mult, (2,), 2)),
        Case("trace cubic m=3 (odd size, engine value)", _case_matmul_odd, ()),
        Case("trace cubic m=4 over Fp", _case_rank,
             (sgr, sym_matrix_mult, (4,), 8, PrimeField(DEFAULT_PRIME))),
    ]


def suite_matrix_case():
    cases = []
    for seed in range(100):
        m = 1 + seed % 6
        cases.append(Case(f"matrix m={m} seed={seed}", _case_matrix, (m, seed)))
    return cases


def suite_rank_properties():
    cases = []
    for seed in range(50):
        cases.append(Case(f"monotone seed={seed}", _case_monotone, (seed,)))
    for seed in range(30):
        cases.append(Case(f"additive seed={seed}", _case_additive, (seed,)))
    for seed in range(30):
        cases.append(Case(f"subadditive seed={seed}", _case_subadditive, (seed,)))
    for seed in range(30):
        cases.append(Case(f"sgr<=gr seed={seed}", _case_sgr_leq_gr, (seed,)))
    for seed in range(30):
        cases.append(Case(f"gr<=flattening rank seed={seed}", _case_gr_leq_flattening, (seed,)))
    variants = ("QQ", "Fp")
    for seed in range(40):
        for variant in variants + ("Fp:7",):
            cases.append(Case(f"report by blocks vs plain engine ({variant}) seed={seed}",
                              _case_report_blocks, (seed, variant)))
    for seed in range(32):
        for variant in variants:
            cases.append(Case(f"report on a reducible cubic vs plain engine ({variant}) "
                              f"seed={seed}", _case_report_reducible, (seed, variant)))
    # GR is compared too, but not on the trace cubic over Fp at m=4, where
    # the input-order GR engine takes more than six minutes
    order_cases = [(kind, args, v, True) for kind, args in _ORDER_NAMED for v in variants]
    order_cases.append(("trace", (4,), "Fp", False))
    order_cases += [("sparse cubic", (seed,), v, True) for seed in range(30) for v in variants]
    order_cases += [("hypergraph", (seed,), v, True) for seed in range(20) for v in variants]
    for kind, args, variant, with_gr in order_cases:
        cases.append(Case(f"report in its variable order vs input order ({variant}"
                          f"{'' if with_gr else ', no GR'}): {kind}{list(args)}",
                          _case_report_order, (kind, args, variant, with_gr)))
    twisted = [("sparse cubic", seed) for seed in range(30)]
    twisted += [(kind, seed) for kind in sorted(_REPORT_BLOCKS) for seed in range(3)]
    for kind, seed in twisted:
        for variant in variants:
            cases.append(Case(f"twisted system vs gr ({variant}): {kind} seed={seed}",
                              _case_twisted_bound, (kind, seed, variant)))
    for seed in range(10):
        cases.append(Case(f"scaling seed={seed}", _case_scaling, (seed,)))
    return cases


def suite_strata():
    cases = []
    for seed in range(100):
        n = 1 + seed % 4
        cases.append(Case(f"tangential n={n} seed={seed}",
                          _case_rank, (sgr, sample_tangential, (n, seed), 1)))
    for n in range(1, 4):
        for r in range(1, n + 1):
            cases.append(
                Case(f"secant batch r={r} n={n}", _case_secant_batch, (r, n, 100, 0.95))
            )
    for seed in range(50):
        cases.append(Case(f"irreducible n=3 seed={seed}",
                          _case_rank, (sgr, sample_irreducible_sgr2, (3, seed), 2)))
    for seed in range(50):
        cases.append(Case(f"reducible quadric*linear n=3 seed={seed}",
                          _case_rank, (sgr, sample_reducible, (2, 1, 3, seed), 2)))
    for kind in ("tangential", "secant", "irreducible", "reducible"):
        for seed in (5, 6, 7):
            cases.append(Case(f"membership chain ({kind}, seed={seed})",
                              _case_membership_chain, (kind, seed)))
    return cases


def suite_discriminant():
    cases = []
    for seed in range(200):
        cases.append(Case(f"discriminant random seed={seed}", _case_discriminant_random, (seed,)))
    for idx in range(len(_CRAFTED_BINARY_CUBICS)):
        cases.append(Case(f"discriminant crafted #{idx}", _case_discriminant_crafted, (idx,)))
    return cases


def suite_tangency():
    cases = []
    for seed in range(20):
        cases.append(Case(f"rank-one cubic tangency seed={seed}", _case_tangency_rank_one, (seed,)))
    for seed in range(10):
        cases.append(Case(f"smooth cubic non-tangency seed={seed}", _case_tangency_smooth, (seed,)))
    return cases


def suite_engine():
    cases = []
    for seed in range(60):
        cases.append(Case(f"dimension brute force seed={seed}", _case_dim_bruteforce, (seed,)))
    for seed in range(40):
        cases.append(Case(f"wide dimension brute force seed={seed}", _case_dim_bruteforce_wide, (seed,)))
    for name in sorted(_engine_forms()):
        cases.append(Case(f"QQ vs Fp: {name}", _case_cross_field, (name,)))
        cases.append(Case(f"grevlex vs lex: {name}", _case_cross_order, (name,)))
        for variant in _SEED_VARIANTS:
            cases.append(Case(f"integer seeds vs Fraction partials ({variant}): {name}",
                              _case_integer_seeds, (name, variant)))
    for name in ("w_state", "big_cw[2,3]"):
        cases.append(Case(f"gr cross-checks: {name}", _case_cross_gr, (name,)))
    for name in _textbook_systems():
        for variant in ("QQ", "Fp", "lex"):
            if (name, variant) not in _TEXTBOOK_SLOW:
                cases.append(Case(f"textbook Buchberger ({variant}): {name}",
                                  _case_textbook, (name, variant)))
    cases.append(Case("full tail rewrite on non-homogeneous systems", _case_full_tail_rewrite, ()))
    for seed in range(80):
        cases.append(Case(f"Hilbert bound on k <= n forms seed={seed}",
                          _case_hilbert_bound, (seed,)))
    for seed in range(30):
        cases.append(Case(f"monomial shortcut vs textbook seed={seed}",
                          _case_monomial_shortcut, (seed,)))
    for width, low in ((2, 3), (3, 4)):
        for n in range(low, 13):
            cases.append(Case(f"monomial shortcut vs textbook: width-{width} windows n={n}",
                              _case_edge_shortcut, (n, width)))
    return cases


def suite_all():
    return [case for build in SUITES.values() if build is not suite_all for case in build()]


SUITES = {
    "identity": suite_identity,
    "golden-values": suite_golden_values,
    "matmul": suite_matmul,
    "matrix-case": suite_matrix_case,
    "rank-properties": suite_rank_properties,
    "strata": suite_strata,
    "discriminant": suite_discriminant,
    "tangency": suite_tangency,
    "engine": suite_engine,
    "all": suite_all,
}
