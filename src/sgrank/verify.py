"""Named verification suites: golden values, rank laws, strata and engine checks.

Each suite is a list of independent cases; a case is a picklable (name,
module-level function, args) triple so batches can run across worker
processes.  The same suites back the ``verify`` subcommand and the
acceptance tests.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .errors import ComputationTimeout, InvalidInputError
from .groebner import buchberger, deadline_poll, ideal_dimension
from .polyring import DEFAULT_PRIME, LEX, PolyRing, Polynomial, PrimeField
from .rank import gr, matrix_rank, sgr
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

MATMUL_STRETCH_TIMEOUT = 300.0  # seconds; the m=4 run reports instead of failing


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

def _case_rank(rank, make, args, expected):
    """Golden check: ``rank`` (sgr or gr) of ``make(*args)`` is ``expected``."""
    v = rank(make(*args))
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


def _case_matmul_stretch():
    poll = deadline_poll(MATMUL_STRETCH_TIMEOUT)
    try:
        s = sgr(sym_matrix_mult(4), field=PrimeField(DEFAULT_PRIME), poll=poll)
    except ComputationTimeout as exc:
        return True, (
            f"did not finish within {MATMUL_STRETCH_TIMEOUT:.0f} s; reported "
            f"basis={exc.basis_size}, pairs_done={exc.pairs_done}, pairs_left={exc.pairs_left}"
        )
    return s == 8, f"sgr={s}, expected 8"


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
    from .polyring import parse_polynomial

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


def _engine_forms():
    """Representative forms from every family the golden suites exercise."""
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
    f = _engine_forms()[name]
    s_q = sgr(f)
    s_p = sgr(f, field=PrimeField(DEFAULT_PRIME))
    return s_q == s_p, f"sgr={s_q} over QQ, {s_p} over Fp:{DEFAULT_PRIME}"


def _case_cross_order(name):
    f = _engine_forms()[name]
    s_g = sgr(f)
    s_l = sgr(f, order=LEX)
    return s_g == s_l, f"sgr={s_g} grevlex, {s_l} lex"


def _case_cross_gr(name):
    t = {"w_state": w_state(1), "big_cw[2,3]": big_cw(2, 3)}[name]
    g_g = gr(t)
    g_l = gr(t, order=LEX)
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
        Case("trace cubic m=4 over Fp (stretch)", _case_matmul_stretch, ()),
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
    for name in ("w_state", "big_cw[2,3]"):
        cases.append(Case(f"gr cross-checks: {name}", _case_cross_gr, (name,)))
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
