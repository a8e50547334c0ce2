"""Seeded inputs and independently held answers for the rank benchmark.

Everything here is plain standard-library code: no part of ``sgrank`` is
imported, so the inputs and the expected answers do not depend on the code
being measured.  Each workload turns a seed into a list of queries.  A query
carries only text (polynomial strings or tensor JSON) plus the answer the
benchmark expects; the same seed gives byte-identical text.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

PRIME = 2147483647


@dataclass(frozen=True)
class Query:
    """One closed-loop request: what to run, on what text, and the answer."""

    name: str
    kind: str        # "rank", "orbit" or "dim"
    field: str       # field selector, as on the command line
    nvars: int
    text: tuple      # polynomial strings, or one tensor JSON document
    expected: tuple  # (sgr,), (sgr, gr) or (dim,)

    def to_json(self) -> str:
        return json.dumps(
            [self.name, self.kind, self.field, self.nvars, list(self.text), list(self.expected)],
            separators=(",", ":"),
        )


# ---------------------------------------------------------------------------
# Polynomial text
# ---------------------------------------------------------------------------

def _monomial_text(mono) -> str:
    parts = []
    for i, e in enumerate(mono):
        if e == 1:
            parts.append(f"x{i}")
        elif e:
            parts.append(f"x{i}^{e}")
    return "*".join(parts)


def _poly_text(terms: dict) -> str:
    """``{exponent tuple: nonzero int}`` as parser input, in a fixed order."""
    out = []
    for mono in sorted(terms, reverse=True):
        c = terms[mono]
        sign = "-" if c < 0 else "+"
        out.append(f"{sign} {abs(c)}*{_monomial_text(mono)}")
    text = " ".join(out)
    return text[2:] if text.startswith("+ ") else text


def _rescaled(terms: dict, scale, modulus=None) -> dict:
    """Substitute x_i -> scale[i]*x_i (a diagonal change of variables)."""
    out = {}
    for mono, c in terms.items():
        for s, e in zip(scale, mono):
            c *= s ** e
        out[mono] = c % modulus if modulus else c
    return out


def trace_cubic_terms(m: int) -> dict:
    """tr(X^3) in the entries x_{i*m+j} of an m x m matrix."""
    terms = {}
    for i in range(m):
        for j in range(m):
            for k in range(m):
                mono = [0] * (m * m)
                for v in (i * m + j, j * m + k, k * m + i):
                    mono[v] += 1
                key = tuple(mono)
                terms[key] = terms.get(key, 0) + 1
    return terms


def complete_cubic_terms(nvars: int) -> dict:
    """Sum of all degree-3 monomials in nvars variables, coefficient 1."""
    terms = {}
    for idx in combinations_with_replacement(range(nvars), 3):
        mono = [0] * nvars
        for v in idx:
            mono[v] += 1
        terms[tuple(mono)] = 1
    return terms


# ---------------------------------------------------------------------------
# Golden cubics in four variables and their orbits
# ---------------------------------------------------------------------------

# (name, {monomial: coefficient}, sgr, gr).  SGR and GR are GL-invariant and
# add over direct sums, so a block-diagonal sum of transformed copies has the
# summed values.  CW and max-compressibility: SGR 2, GR 3, and the w-state:
# 1, 2, as in the golden-value suite; h3 and the diagonal cubic are smooth,
# so SGR = GR = 4 (SGR <= GR <= 4); the SGR-2 normal form has GR 4, which
# agrees over QQ and Fp and in grevlex and lex.
GOLDEN = (
    ("big_cw", {(1, 2, 0, 0): 1, (1, 0, 2, 0): 1, (2, 0, 0, 1): 1}, 2, 3),
    ("small_cw", {(1, 2, 0, 0): 1, (1, 0, 2, 0): 1, (1, 0, 0, 2): 1}, 2, 3),
    ("max_compress", {(3, 0, 0, 0): 1, (1, 2, 0, 0): 1, (1, 0, 2, 0): 1, (1, 0, 0, 2): 1}, 2, 3),
    ("h3", complete_cubic_terms(4), 4, 4),
    ("w_state", {(2, 1, 0, 0): 3}, 1, 2),
    ("identity", {(3, 0, 0, 0): 1, (0, 3, 0, 0): 1, (0, 0, 3, 0): 1, (0, 0, 0, 3): 1}, 4, 4),
    ("normal_form", {(2, 0, 1, 0): 1, (0, 3, 0, 0): 1, (1, 1, 0, 1): 1}, 2, 4),
)
BLOCK_DIM = 4


def _substituted(terms: dict, a) -> dict:
    """The form F(A y): every x_i becomes the linear form sum_j a[i][j] y_j."""
    n = len(a)
    out = {}
    for mono, c in terms.items():
        part = {(0,) * n: c}
        for i, e in enumerate(mono):
            for _ in range(e):
                nxt = {}
                for m, v in part.items():
                    for j, aij in enumerate(a[i]):
                        if aij:
                            mm = m[:j] + (m[j] + 1,) + m[j + 1:]
                            nxt[mm] = nxt.get(mm, 0) + v * aij
                part = nxt
        for m, v in part.items():
            out[m] = out.get(m, 0) + v
    return {m: v for m, v in out.items() if v}


def _unimodular_matrix(rng: random.Random, n: int):
    """L*U with unit triangular L and U and +-1 off their diagonals: a dense
    integer matrix of determinant 1, so every variable becomes a dense
    linear form and the blocks land in comparably general position."""
    lower = [[1 if i == j else rng.choice((-1, 1)) if j < i else 0 for j in range(n)]
             for i in range(n)]
    upper = [[1 if i == j else rng.choice((-1, 1)) if j > i else 0 for j in range(n)]
             for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)]


def _orbit_json(blocks) -> str:
    """Symmetric tensor JSON of the direct sum of cubic forms in 4 variables.

    The entry at a sorted index is the form's coefficient over the index's
    multinomial multiplicity (1, 3 or 6 for a cubic).
    """
    entries = []
    for b, terms in enumerate(blocks):
        off = b * BLOCK_DIM
        for mono in sorted(terms):
            idx = [v + off for v, e in enumerate(mono) for _ in range(e)]
            mult = 6 // math.prod(math.factorial(e) for e in mono)
            entries.append({"idx": idx, "val": str(Fraction(terms[mono], mult))})
    doc = {"order": 3, "dim": BLOCK_DIM * len(blocks), "symmetric": True, "entries": entries}
    return json.dumps(doc, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Monomial edge ideals for the dimension search
# ---------------------------------------------------------------------------

def _edge_ideal_texts(n: int, width: int, perm) -> tuple:
    """Generators x_i*...*x_{i+width-1} (indices mod n), relabelled by perm."""
    out = []
    for i in range(n):
        vs = sorted(perm[(i + s) % n] for s in range(width))
        out.append("*".join(f"x{v}" for v in vs))
    return tuple(out)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _rng(workload: str, seed: int, pass_no: int) -> random.Random:
    # String seeds hash through SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"{workload}:{seed}:{pass_no}")


def trace_m4_fp(seed: int, pass_no: int):
    rng = _rng("trace-m4-fp", seed, pass_no)
    scale = [rng.randrange(1, PRIME) for _ in range(16)]
    text = _poly_text(_rescaled(trace_cubic_terms(4), scale, PRIME))
    return [Query(f"trace-m4-fp/{pass_no}", "rank", f"Fp:{PRIME}", 16, (text,), (8,))]


def h3_n7_qq(seed: int, pass_no: int):
    rng = _rng("h3-n7-qq", seed, pass_no)
    scale = [rng.choice((-2, -1, 1, 2)) for _ in range(8)]
    text = _poly_text(_rescaled(complete_cubic_terms(8), scale))
    return [Query(f"h3-n7-qq/{pass_no}", "rank", "QQ", 8, (text,), (8,))]


# The golden types of one pass: every single block, every pair, and the
# lines of the two Fano planes on the seven types as triples, so that each
# type lies in six triples and each pair of types in two.  The seed picks
# only the changes of variables and the order, so every seed does
# comparable work.
ORBIT_LAYOUT = (
    tuple((g,) for g in range(len(GOLDEN)))
    + tuple(combinations_with_replacement(range(len(GOLDEN)), 2))
    + tuple(
        tuple(sorted((g + d) % len(GOLDEN) for d in line))
        for line in ((0, 1, 3), (0, 2, 3))
        for g in range(len(GOLDEN))
    )
)


def orbit_batch(seed: int, pass_no: int):
    rng = _rng("orbit-batch", seed, pass_no)
    layout = list(ORBIT_LAYOUT)
    rng.shuffle(layout)
    out = []
    for q, combo in enumerate(layout):
        combo = list(combo)
        rng.shuffle(combo)
        blocks = [_substituted(GOLDEN[g][1], _unimodular_matrix(rng, BLOCK_DIM)) for g in combo]
        names = "+".join(GOLDEN[g][0] for g in combo)
        sgr = sum(GOLDEN[g][2] for g in combo)
        gr = sum(GOLDEN[g][3] for g in combo)
        out.append(Query(
            f"orbit-batch/{pass_no}.{q}[{names}]", "orbit", "QQ", BLOCK_DIM * len(combo),
            (_orbit_json(blocks),), (sgr, gr),
        ))
    return out


# One size from the 32-36 range, where the two families cost about the same,
# and many relabelings: the search time depends on the labelling, so a pass
# averages over many, and its median is a typical query rather than a gap
# between sizes.
DIM_N = 33
DIM_RELABELINGS = 8


def dim_search(seed: int, pass_no: int):
    rng = _rng("dim-search", seed, pass_no)
    n = DIM_N
    out = []
    # An independent set of the cycle C_n has at most floor(n/2) vertices;
    # the n windows of the triangle cycle need ceil(n/3) vertices to hit them.
    for width, label, dim in ((2, "cycle", n // 2), (3, "triangles", n - -(-n // 3))):
        for r in range(DIM_RELABELINGS):
            perm = list(range(n))
            rng.shuffle(perm)
            out.append(Query(
                f"dim-search/{pass_no}.{label}-{n}.{r}", "dim", "QQ", n,
                _edge_ideal_texts(n, width, perm), (dim,),
            ))
    return out


WORKLOADS = {
    "trace-m4-fp": trace_m4_fp,
    "h3-n7-qq": h3_n7_qq,
    "orbit-batch": orbit_batch,
    "dim-search": dim_search,
}


def make_queries(workload: str, seed: int, pass_no: int = 0):
    """The queries of one pass; each pass of a run draws fresh inputs."""
    return WORKLOADS[workload](seed, pass_no)
