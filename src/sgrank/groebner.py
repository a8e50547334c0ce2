"""Buchberger's algorithm, polynomial reduction and ideal dimension.

The basis computation follows the classical improved Buchberger loop: normal
pair selection (smallest lcm degree first) from a heap-ordered pair queue, and
the Gebauer-Moeller update, which computes the lcm of the new lead with each
basis lead once and applies the coprimality and chain criteria with it.  The
chain criterion on the new pairs works on u, the lcm divided by the new lead:
equal u are tested once, in ascending degree, and a degree-1 u covers every u
that shares its variable with one AND.  The generators enter through the same
step as a reduced S-polynomial: smallest lead first, each is reduced against
the basis so far and, if nonzero, added by the update.  The update rewrites
every tail with a term that the new lead divides, so the basis stays reduced
after each step; a tail below the new lead has no such term and is not
scanned.  When the one such term is the new lead mh itself, as in every
rewrite of a homogeneous run, the rewrite is one fused subtract of c times the
new element's tail, which is already in normal form; otherwise the tail is
reduced in full.  Within one lcm degree, pairs go in ascending total degree of
their two multipliers, lcm / lm_i and lcm / lm_j, that is largest lead gcd
first, then by the order key of the lcm and by index.  The pairs whose leads
overlap most reduce first, the nonzero remainders come early in each degree,
and the Hilbert bound below then drops more of the rest ("One sugar cube,
please", Giovini, Mora, Niesi, Robbiano & Traverso, ISSAC 1991, shows how
much the selection strategy matters).  Neither the criteria nor the skip
depend on the order within a degree.  When every generator is a
single term, every S-polynomial is zero, and the seed step and the pair loop
are skipped: the basis is the minimal generators, made monic, which one pass
over the key-sorted generators keeps.  A reduction step uses the basis
element with the smallest-key lead that divides the monomial.  A memo
remembers that choice per monomial, with the basis size at the time, and a
later lookup tests only the leads added since; it is emptied each time the
pair degree rises.  Dimension of the zero set is read off the initial ideal
as the largest set of variables that supports no leading monomial: n minus a
smallest hitting set of the lead supports.  The supports are int bitmasks,
and the exact branch and bound over them prunes with the packing bound, a
greedy count of uncovered supports that share no variable.

A homogeneous system of no more forms than variables stops reducing a degree
once its lead ideal is complete there: Hilbert-driven Buchberger (Traverso,
"Hilbert functions and the Buchberger algorithm", JSC 1996) with a bound that
costs little.  Let the generators be k nonzero homogeneous forms of degrees
d_1, ..., d_k in N >= k variables, and CI(t) = [z^t] prod_i (1 - z^(d_i)) /
(1 - z)^N the Hilbert function of a complete intersection of those degrees.
For k = N it is a polynomial, prod_i (1 + z + ... + z^(d_i - 1)); for k < N
it never reaches 0, so it is computed for each t, as a sum of binomials.
The rank of the degree-t Macaulay map of a tuple of forms is largest on a
nonempty Zariski open set of tuples over the algebraic closure, which leaves
every rank as it is; the regular sequences, such as x_1^(d_1), ...,
x_k^(d_k) and all with Hilbert function CI, are another such set, and the
two meet.  So no ideal of k forms of these degrees has a larger degree-t
part than a complete intersection: HF(R/I)(t) >= CI(t), the easy direction
of Froeberg's inequality ("An inequality for Hilbert series of graded
algebras", Math. Scand. 1985).  count_t, the number of degree-t monomials
outside the current lead ideal, is at least HF(R/I)(t), so count_t = CI(t)
means the leads already span LT(I)_t: a pending degree-t S-polynomial lies
in I_t, its remainder has no term in LT(I)_t, and it is zero.  The pair loop
drops such pairs unreduced, and the basis and every reduction it does make
are those of the full run.  It keeps the standard monomials of the degree it
is in.  Those of degree t + 1 are the monomials that are not leads and whose
degree-t divisors are all standard, each built once from its quotient by its
largest variable; each new element removes its own lead.  The first degree
that ends above CI(t) shows the system is not a complete intersection, and
tracking stops there for good; from then on every poll carries that fact
(GBStats ``above_ci``).  One cost rule stops it too: before degree t + 1
is built, tracking stops when CI(t + 1), which its standard monomials are at
least, exceeds the tail terms of the pairs still queued (the two tails of
each), since building them would then cost more than reducing every pair
left.  On the GR ideal of <4,4,4>, 16 bilinear forms
in 32 variables, the rule stops after degree 1; without it the run built
1.55 million standard monomials of degree 6.  More forms than variables, or
a form that is not homogeneous, are not tracked.

While the bound is tracked, the pair order also borrows the syzygy
criterion of F5 (Faugere, "A new efficient algorithm for computing Groebner
bases without reduction to zero (F5)", ISSAC 2002), as an order only.  Each
entry carries a label (k, u): the k-th generator that the seed step adds,
from 0, gets (k, 1); the remainder of pair (i, j) with lcm L gets the larger
of (k_i, u_i L / lm_i) and (k_j, u_j L / lm_j), by k and then by the order
key of u; a tail rewrite keeps the label.  A pair is Koszul-labelled when
its u is divisible by the lead of a basis element labelled below its k: F5
would reject it, expecting a zero remainder.  The first pair that reduces to
zero in a tracked degree whose count is still above CI marks the run.  From
then on the Koszul-labelled pairs go behind the other pairs of their degree,
each group in its queue order: at once for the pairs still queued in that
degree, and for each later tracked degree that starts above CI, when it
starts.  Nothing is dropped on a label's say.  The labels are a heuristic
here, since the reductions follow no signature order, so a deferred pair is
reduced like any other unless the count reaches CI first; then the skip
drops it, and the skip's proof does not depend on the order within a
degree.  The reduced basis is unique, so it does not move either: only the
pair counts do.  Once per degree is enough, because in a homogeneous run no
degree-d pair is formed while degree d is reduced (a new degree-d lead is
standard, so its lcm with any other lead has degree above d), and no
degree-d lead divides the u of a degree-d pair, whose degree is d minus
that of generator k.  A run that never wastes a reduction keeps the plain
order: dense smooth cubics make none, and deferring at every degree only
brought forward nonzero pairs that cost about twice as much, 20-33% slower
in 6 and 7 variables.  On h3 in 8 variables over QQ the deferral cuts the
pairs reduced from 302 to 170, and the zero remainders from 188 to 56.

Internally each exponent vector is packed into one Python int, after Monagan
& Pearce, "Polynomial division using dynamic arrays, heaps, and packed
exponent vectors" (CASC 2007).  The int holds n variable fields plus a
total-degree field, each w bits wide, and the top bit of every field is a
guard bit that stays clear.  Under grevlex the degree field is on top, then
x_{n-1} and so on down to x0, and the order key is ``p ^ VARMASK``: flipping
the variable fields turns the reverse-lex tie-break into a plain int compare.
Under lex x0 is on top and the degree field at the bottom, and the key is
``p`` itself.  A monomial product is ``+``, and ``a`` divides ``b`` exactly
when ``(b - a) & GUARD`` is zero.  An lcm takes the field-wise max of the
variable fields: ``((a | GUARD) - b) & GUARD`` marks the fields where a >= b.
Its degree field is recomputed as the sum of the variable fields, read off
one multiply by a ones-per-field constant.  Leads and lcms have coprime
supports exactly when ``lcm(a, b) == a + b``.  Polynomials are packed once on
entry; the pair update works on packed leads and lcms too, so no tuple
monomial remains inside the engine.  On exit only the leads are unpacked:
the GroebnerBasis keeps the final reducer entries and unpacks them into
Polynomials on first use, and the dimension never asks for them.

Overflow is never silent.  The width starts at the smallest that holds the
input degree, and at least 8 bits.  Guard bits are checked wherever exponents
grow: when packing, in the S-pair multiplier and on every new term of a
reduction; an lcm checks its recomputed degree.  An overflow aborts the run,
which restarts from the input at twice the width.

Each basis element is one reducer entry (lead, D, tail), monic, so a reduction
step is a fused multiply-subtract.  Over a prime field D is 1 and the tail
holds residues; over the rationals it holds int numerators over the common
denominator D, the lcm of the reduced denominators, which _entry reaches with
ints alone: one lcm of the denominators, the sign of the lead, and one gcd of
the numerators with the common denominator.  S-polynomials and remainders are
{int: coefficient} dicts in the working coefficients of the reduction loops,
after the heap division of Monagan & Pearce ("Sparse polynomial division using
a heap", JSC 2011): over a prime field ints, reduced mod p once, when their
monomial is extracted; over the rationals unnormalized (num, den) int pairs,
with one gcd when extracted and one more per reduction step for all the step's
terms.  Equal denominators subtract without a multiply; unlike ones meet over
their lcm, which a gcd cuts back once it is more than 64 bits wider than the
step's own.

A run builds its run context, a _Packing, once per width it tries: the
ring, the packed layout and the field's modulus p, 0 over the rationals.
The helpers read the coefficient format off p and take no field.  Fractions
enter and leave only through its pack_terms and unpack_terms, on the
engine's input and output; no step inside a run builds one.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from itertools import chain
from math import comb, gcd, lcm

from .errors import ComputationTimeout, DimensionMismatchError, InvalidInputError
from .polyring import (
    GREVLEX,
    LEX,
    PolyRing,
    Polynomial,
    PrimeField,
)


@dataclass(frozen=True)
class GBStats:
    """Progress snapshot handed to a poll callback during buchberger().

    ``pairs_done`` counts the S-pairs reduced so far and ``pairs_skipped``
    the pairs dropped unreduced because the Hilbert bound proved them zero
    (see buchberger()); ``pairs_left`` counts the live pairs still queued.

    ``above_ci`` turns True, for the rest of the run, once a degree t of a
    run that tracks the Hilbert bound has ended with more standard monomials
    than CI(t) (see buchberger()): the k generators are then no regular
    sequence, so their zero set has codimension below k.  It stays False
    where the bound is not tracked, or no longer is.
    """

    basis_size: int
    pairs_done: int
    pairs_left: int
    pairs_skipped: int = 0
    above_ci: bool = False


def deadline_poll(seconds: float):
    """A poll callback for buchberger() that raises ComputationTimeout, with
    the progress of the run, once ``seconds`` have passed since this call."""
    deadline = time.monotonic() + seconds

    def poll(stats: GBStats):
        if time.monotonic() > deadline:
            raise ComputationTimeout(
                "computation timed out",
                basis_size=stats.basis_size,
                pairs_done=stats.pairs_done,
                pairs_left=stats.pairs_left,
            )
    return poll


class Ideal:
    """A finitely generated ideal; zero generators are dropped."""

    __slots__ = ("ring", "generators")

    def __init__(self, generators):
        gens = [g for g in generators]
        if not gens:
            raise InvalidInputError("an ideal needs at least one generator")
        ring = gens[0].ring
        for g in gens:
            if g.ring != ring:
                raise DimensionMismatchError("ideal generators live in different rings")
        nonzero = tuple(g for g in gens if not g.is_zero())
        if not nonzero:
            raise InvalidInputError("all generators are zero (the zero ideal is not supported)")
        self.ring = ring
        self.generators = nonzero

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"Ideal({list(map(str, self.generators))})"


class GroebnerBasis:
    """A reduced Groebner basis: monic, mutually irredundant, order-sorted.

    buchberger() builds it from its run context, a _Packing, and the run's
    monic reducer entries, largest lead first; only the leads are unpacked
    then.  ``len``, :meth:`leading_monomials` and
    :attr:`is_unit_ideal` read the leading monomials alone, which is all the
    rank functions need.  The Polynomials are built on first use of
    ``polys``, iteration, indexing or ``repr``.
    """

    __slots__ = ("ring", "_leads", "_polys", "_packed")

    def __init__(self, pk: _Packing, entries):
        self.ring = pk.ring
        self._leads = tuple(pk.unpack(entry[0]) for entry in entries)
        self._polys = None
        self._packed = (pk, entries)

    @property
    def polys(self) -> tuple:
        if self._polys is None:
            pk, entries = self._packed
            self._polys = tuple(
                Polynomial(self.ring, pk.unpack_terms(_entry_terms(entry, pk)))
                for entry in entries
            )
            self._packed = None
        return self._polys

    @property
    def is_unit_ideal(self) -> bool:
        # 1 is below every other monomial, so only a constant has lead 1
        return len(self._leads) == 1 and not any(self._leads[0])

    def leading_monomials(self):
        return list(self._leads)

    def __iter__(self):
        return iter(self.polys)

    def __len__(self):
        return len(self._leads)

    def __getitem__(self, i):
        return self.polys[i]

    def __repr__(self):
        return f"GroebnerBasis({list(map(str, self.polys))})"


# ---------------------------------------------------------------------------
# Packed exponent vectors
# ---------------------------------------------------------------------------

class _Overflow(Exception):
    """An exponent outgrew its packed field; the run restarts wider."""


class _Packing:
    """The run context of one engine run: the ring, its exponent vectors
    packed into ints at one field width, and the field's modulus.

    ``p`` is the prime of a prime field and 0 over the rationals; it fixes
    the coefficient format of the working terms for the whole run, so the
    engine helpers read it here and take no field.  ``key`` maps a packed
    monomial to an int that sorts like the order's key; ``guard`` holds the
    guard bit of every field, ``varmask`` every bit of the variable fields.
    """

    __slots__ = (
        "ring", "p", "width", "shifts", "dshift", "fmask", "top", "guard", "mask",
        "key", "varmask", "varguard", "ones", "sumshift", "byteorder",
    )

    def __init__(self, ring: PolyRing, width: int):
        nvars, order, field = ring.nvars, ring.order, ring.field
        self.ring = ring
        self.p = field.p if isinstance(field, PrimeField) else 0
        if order == GREVLEX:
            self.shifts = tuple(i * width for i in range(nvars))
            self.dshift = nvars * width
        elif order == LEX:
            self.shifts = tuple((nvars - i) * width for i in range(nvars))
            self.dshift = 0
        else:
            raise InvalidInputError(f"no packed layout for the monomial order {order!r}")
        self.width = width
        self.fmask = (1 << width) - 1
        self.top = (1 << (width - 1)) - 1  # largest exponent a field holds
        self.guard = sum(1 << (s + width - 1) for s in (*self.shifts, self.dshift))
        self.varmask = sum(self.fmask << s for s in self.shifts)
        self.varguard = self.guard & self.varmask
        self.mask = self.varmask if order == GREVLEX else 0
        self.key = self.mask.__xor__
        # The variable fields are contiguous, so a multiply by one 1 per field
        # sums all of them into the field of the topmost one.
        self.ones = sum(1 << i * width for i in range(nvars))
        self.sumshift = max(self.shifts)
        # At 8 bits a field is a byte, and a packed monomial is the bytes of
        # (m_0, ..., m_{n-1}, deg m): little-endian in grevlex, big-endian in lex.
        self.byteorder = None if width != 8 else "little" if order == GREVLEX else "big"

    def pack(self, m) -> int:
        d = sum(m)
        if d > self.top:  # the degree bounds every exponent
            raise _Overflow
        if self.byteorder:
            return int.from_bytes(bytes((*m, d)), self.byteorder)
        return sum((e << s for e, s in zip(m, self.shifts)), d << self.dshift)

    def degree(self, p: int) -> int:
        return p >> self.dshift & self.fmask

    def lcm(self, a: int, b: int) -> int:
        """Packed lcm of packed a and b, with its degree field recomputed."""
        varguard = self.varguard
        va = a & self.varmask
        vb = b & self.varmask
        ge = ((va | varguard) - vb) & varguard  # guard set where a >= b
        sel = ge - (ge >> self.width - 1)  # value bits of those fields
        vm = vb ^ ((va ^ vb) & sel)
        # deg lcm <= deg a + deg b <= 2 * top fits a whole field, and so does
        # every partial sum of the multiply: no carry reaches the read field.
        d = (vm * self.ones >> self.sumshift) & self.fmask
        if d > self.top:
            raise _Overflow
        return vm | d << self.dshift

    def unpack(self, p: int) -> tuple:
        if self.byteorder:
            return tuple(p.to_bytes(len(self.shifts) + 1, self.byteorder)[:len(self.shifts)])
        fmask = self.fmask
        return tuple(p >> s & fmask for s in self.shifts)

    def pack_terms(self, terms: dict) -> dict:
        """Packed working terms of a polynomial's terms: residues over a prime
        field, (numerator, denominator) int pairs over the rationals."""
        pack = self.pack
        if self.p:
            return {pack(m): c for m, c in terms.items()}
        return {pack(m): (c.numerator, c.denominator) for m, c in terms.items()}

    def unpack_terms(self, terms: dict) -> dict:
        """Polynomial terms of packed working terms (the inverse of pack_terms)."""
        unpack = self.unpack
        if self.p:
            return {unpack(m): c for m, c in terms.items()}
        return {unpack(m): Fraction(n, d) for m, (n, d) in terms.items()}


def _packed_run(ring: PolyRing, polys, run, contexts=None):
    """run(packing) at the narrowest field width (8 bits at least) that holds
    the largest degree of ``polys``; each overflow doubles the width and
    reruns from the input.  ``contexts``, when given, maps a width to its
    packing and keeps each one built here for the next run."""
    width = max(8, max(g.total_degree() for g in polys).bit_length() + 1)
    while True:
        if contexts is None:
            pk = _Packing(ring, width)
        elif (pk := contexts.get(width)) is None:
            pk = contexts[width] = _Packing(ring, width)
        try:
            return run(pk)
        except _Overflow:
            width *= 2


# ---------------------------------------------------------------------------
# Reduction (multivariate division)
# ---------------------------------------------------------------------------

def _entry(terms: dict, pk: _Packing):
    """The monic reducer entry (lead, D, tail) of nonzero packed working terms.
    The tail lists the (monomial, coefficient) terms below the lead: residues
    and D = 1 over a prime field, int numerators over D, the lcm of their
    reduced denominators, over the rationals.  Over the rationals the terms
    are put over one denominator, the lcm of theirs times the lead
    numerator, made positive, and one gcd of it with every numerator cuts
    it back to D, with no Fraction built."""
    lm = max(terms, key=pk.key)
    p = pk.p
    if p:
        inv = pow(terms[lm], -1, p)
        return lm, 1, [(m, c * inv % p) for m, c in terms.items() if m != lm]
    ln, ld = terms[lm]
    if ln < 0:
        ln, ld = -ln, -ld
    tail = [(m, c) for m, c in terms.items() if m != lm]
    common = lcm(*(d for _, (_, d) in tail))
    den = common * ln
    return _lowest_terms(lm, den, [(m, n * (common // d) * ld) for m, (n, d) in tail])


def _lowest_terms(lm, den, tail):
    """The rational entry (lm, den, tail) with den and the tail numerators
    divided by their gcd, which leaves den the lcm of the reduced
    denominators."""
    g = gcd(den, *(n for _, n in tail))
    if g == 1:
        return lm, den, tail
    return lm, den // g, [(m, n // g) for m, n in tail]


def _entry_terms(entry, pk: _Packing) -> dict:
    """The packed working terms of a reducer entry, its monic lead included."""
    lm, den, tail = entry
    if pk.p:
        return {lm: 1, **dict(tail)}
    return {lm: (1, 1), **{m: (n, den) for m, n in tail}}


def _reduce_full(terms: dict, find, pk: _Packing, tick=None) -> dict:
    """Full normal form of the packed working terms modulo reducer entries.

    Repeatedly extracts the largest remaining monomial; either eliminates it
    with the reducer entry ``find(m)`` returns for it or, when that is None,
    moves it to the remainder.
    A lazy-deletion heap of negated order keys keeps extraction cheap.  The
    working coefficients are plain ints in both fields, and the remainder
    leaves in them too.  Over a prime field they are residues, reduced mod p
    once, when popped; an entry that cancels mod p is dropped then.  Over the
    rationals (_reduce_rational) a work entry is an unnormalized int pair
    (num, den), den > 0: it gets one gcd when popped and is dropped if num is
    0.  A step by a reducer whose tail is numerators over D cancels
    gcd(num, D) once, which puts every new term over the same denominator E.
    An entry already over E subtracts without a multiply; any other is put
    over lcm(den, E) and, once that is more than 64 bits wider than E, cut
    back by a gcd.  ``tick``, when given, is called every 1,024 pops and may
    raise to cancel.
    """
    p = pk.p
    if not p:
        return _reduce_rational(terms, find, pk, tick)
    mask = pk.mask
    guard = pk.guard
    work = dict(terms)
    heap = [-(m ^ mask) for m in work]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    rem = {}
    pops = 0
    while heap:
        m = -pop(heap) ^ mask
        if tick is not None and not (pops := pops + 1) & 1023:  # every 1,024 pops
            tick()
        c = work.pop(m, None)
        if c is None:
            continue
        c %= p
        if not c:
            continue
        reducer = find(m)
        if reducer is None:
            rem[m] = c
            continue
        lm, _, tail = reducer
        shift = m - lm
        for mt, ct in tail:
            mm = mt + shift
            prev = work.get(mm)
            if prev is None:
                # An overflowed product has a guard bit set, so it is never
                # a key of work and always lands here.
                if mm & guard:
                    raise _Overflow
                work[mm] = -c * ct
                push(heap, -(mm ^ mask))
            else:
                v = prev - c * ct
                if v:
                    work[mm] = v
                else:
                    del work[mm]
    return rem


def _reduce_rational(terms: dict, find, pk: _Packing, tick) -> dict:
    """The rational loop of _reduce_full, on (num, den) int pairs; reducer
    tails are numerators over D, as _entry builds them."""
    mask = pk.mask
    guard = pk.guard
    work = dict(terms)
    heap = [-(m ^ mask) for m in work]
    heapq.heapify(heap)
    push = heapq.heappush
    pop = heapq.heappop
    rem = {}
    pops = 0
    while heap:
        m = -pop(heap) ^ mask
        if tick is not None and not (pops := pops + 1) & 1023:  # every 1,024 pops
            tick()
        # A cancelled term stays in work as (0, den), and every new term is
        # below m, so each monomial is pushed once and is still in work.
        num, den = work.pop(m)
        if not num:
            continue
        g = gcd(num, den)
        if g != 1:
            num //= g
            den //= g
        reducer = find(m)
        if reducer is None:
            rem[m] = num, den
            continue
        lm, dt, tail = reducer
        shift = m - lm
        g = gcd(num, dt)
        a = num // g
        e = den * (dt // g)
        wide = e.bit_length() + 64
        for mt, nt in tail:
            mm = mt + shift
            prev = work.get(mm)
            if prev is None:
                # An overflowed product has a guard bit set, so it is never
                # a key of work and always lands here.
                if mm & guard:
                    raise _Overflow
                work[mm] = (-a * nt, e)
                push(heap, -(mm ^ mask))
            else:
                pn, pd = prev
                if pd == e:
                    work[mm] = (pn - a * nt, e)
                else:
                    g = gcd(pd, e)
                    q = pd // g
                    v = pn * (e // g) - a * nt * q
                    d = q * e
                    if d.bit_length() > wide:
                        g = gcd(v, d)
                        v //= g
                        d //= g
                    work[mm] = (v, d)
    return rem


def _rewrite_tail(entry, find, pk: _Packing, tick=None):
    """The entry with its tail in full normal form modulo the reducer entries
    that ``find`` returns; the lead stays."""
    lm = entry[0]
    terms = _entry_terms(entry, pk)
    lc = terms.pop(lm)
    terms = _reduce_full(terms, find, pk, tick)
    terms[lm] = lc
    return _entry(terms, pk)


def _cancel_lead(entry, eh, pk: _Packing):
    """The entry with its tail term at eh's lead mh cancelled by one fused
    subtract of c * tail_h, c that term's coefficient.  When no other term
    of its tail is a multiple of mh and eh's tail is in normal form, this
    is _rewrite_tail's result: no term of either tail is reducible, and mh
    is reducible only by eh.  Over the rationals the difference is put over
    D times the part of D_h that c does not cancel, and one gcd with every
    numerator cuts that back to D', as _entry would."""
    lm, den, tail = entry
    mh, dh, th = eh
    out = dict(tail)
    c = out.pop(mh)
    p = pk.p
    if p:
        for m, n in th:
            v = (out.get(m, 0) - c * n) % p
            if v:
                out[m] = v
            else:
                del out[m]
        return lm, 1, list(out.items())
    g = gcd(c, dh)
    a = c // g
    q = dh // g
    if q != 1:
        out = {m: n * q for m, n in out.items()}
        den *= q
    for m, n in th:
        v = out.get(m, 0) - a * n
        if v:
            out[m] = v
        else:
            del out[m]
    return _lowest_terms(lm, den, list(out.items()))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f under multivariate division by the given polynomials.

    No term of the result is divisible by any leading term of the basis, and
    f minus the result lies in the ideal the basis generates.
    """
    return remainders(f)(basis)


def remainders(f: Polynomial):
    """The function basis -> normal_form(f, basis), for dividing one
    polynomial by many bases in turn: it packs f once per field width, not
    once per basis."""
    ring = f.ring
    contexts = {}  # field width -> its run context
    packed = {}    # field width -> f's packed working terms

    def remainder(basis) -> Polynomial:
        polys = list(basis)
        for g in polys:
            if g.ring != ring:
                raise DimensionMismatchError("normal_form operands live in different rings")
        divisors = [g for g in polys if not g.is_zero()]

        def run(pk):
            terms = packed.get(pk.width)
            if terms is None:
                terms = packed[pk.width] = pk.pack_terms(f.terms)
            reducers = sorted(
                (_entry(pk.pack_terms(g.terms), pk) for g in divisors),
                key=lambda e: pk.key(e[0]),
            )
            guard = pk.guard

            def find(m):  # the first reducer whose lead divides m
                return next((e for e in reducers if not (m - e[0]) & guard), None)

            return pk.unpack_terms(_reduce_full(terms, find, pk))

        return Polynomial(ring, _packed_run(ring, (f, *divisors), run, contexts))

    return remainder


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of f and g (leading terms cancelled against the lcm)."""
    if f.ring != g.ring:
        raise DimensionMismatchError("s_polynomial operands live in different rings")
    if f.is_zero() or g.is_zero():
        raise InvalidInputError("s_polynomial of a zero polynomial")

    def run(pk):
        ef = _entry(pk.pack_terms(f.terms), pk)
        eg = _entry(pk.pack_terms(g.terms), pk)
        return pk.unpack_terms(_spoly(ef, eg, pk.lcm(ef[0], eg[0]), pk))

    return Polynomial(f.ring, _packed_run(f.ring, (f, g), run))


def _spoly(ei, ej, lcm, pk: _Packing) -> dict:
    """S-polynomial of the entries ei and ej, whose leads have the packed lcm,
    as packed working terms.  The monic leads cancel, so it is the tail of ei
    minus the tail of ej, each shifted up to the lcm."""
    li, di, ti = ei
    lj, dj, tj = ej
    ui = lcm - li
    uj = lcm - lj
    si = [(m + ui, c) for m, c in ti]
    sj = [(m + uj, c) for m, c in tj]
    guard = pk.guard
    if any(m & guard for m, _ in chain(si, sj)):
        raise _Overflow
    p = pk.p
    if p:
        out = dict(si)
        for m, c in sj:
            out[m] = (out.get(m, 0) - c) % p
        return {m: c for m, c in out.items() if c}
    # Over the rationals the tails are numerators over di and dj.
    g = gcd(di, dj)
    qi = di // g
    qj = dj // g
    den = qi * dj
    out = {m: (n, di) for m, n in si}
    for m, n in sj:
        prev = out.get(m)
        out[m] = (-n, dj) if prev is None else (prev[0] * qj - n * qi, den)
    return {m: c for m, c in out.items() if c[0]}


# ---------------------------------------------------------------------------
# Buchberger's algorithm
# ---------------------------------------------------------------------------

def buchberger(generators, *, poll=None, poll_every=8) -> GroebnerBasis:
    """Compute the reduced Groebner basis of the given ideal.

    ``generators`` is an :class:`Ideal` or an iterable of polynomials in one
    ring.  ``poll``, when given, is called with a :class:`GBStats` every
    ``poll_every`` generators in the seed step (or in the pass over the
    generators of a monomial ideal) and every ``poll_every`` processed
    pairs, once per tail that an update rewrites, and every 1,024 steps
    inside any one reduction or any one build of standard monomials; it
    may raise to cancel the run (the command line uses this for timeouts,
    the rank report to give up a twisted system once GBStats ``above_ci``
    shows it cannot prove GR = U).
    Output is deterministic for fixed input and order.  The basis builds its
    Polynomials on first use; its size and leading monomials are known
    without them.

    Pairs are reduced in ascending lcm degree and, within a degree, those
    whose two multipliers lcm / lm have the smallest total degree first.
    Once a run that tracks the Hilbert bound below has reduced a pair to
    zero in a degree it could not yet skip, the pairs that F5's syzygy
    criterion would reject by their signature label go behind the others
    of their degree (module docstring); none is dropped on that account.
    The reduced basis does not depend on this order; ``pairs_done`` and
    ``pairs_left`` do.

    When the nonzero generators are at most ``ring.nvars`` homogeneous
    forms, a pair of degree t is dropped unreduced once the degree-t
    monomials outside the lead ideal are as few as in a complete
    intersection of the generators' degrees (the module docstring has the
    proof that it reduces to zero, and the rule that stops the count where
    it would cost more than it saves).
    ``GBStats.pairs_done`` counts the pairs reduced and
    ``GBStats.pairs_skipped`` those dropped; both count toward the
    ``poll_every`` cadence, so a run that skips polls as often as one that
    reduces every pair.
    """
    if isinstance(generators, Ideal):
        ideal = generators
    else:
        ideal = Ideal(list(generators))
    return _packed_run(ideal.ring, ideal.generators,
                       lambda pk: _buchberger(ideal, pk, poll, poll_every))


def _chain_criterion(mh: int, lcm_h: dict, leads, pk: _Packing) -> list:
    """Phase 1 of the update: the new pairs (g, h) that the chain criterion
    keeps, as (g, lcm) in no particular order.

    ``lcm_h`` maps the index of each basis element g, ascending, to
    lcm(mh, lm_g), and ``leads[g]`` is lm_g.  A pair goes when the lcm of
    another pair (g', h) properly divides its lcm, or equals it and g' has
    the lower index or coprime leads; pairs with coprime leads go too.  The
    test runs on u = lcm - mh: lcm_a divides lcm_b exactly when u_a divides
    u_b, and lm_g is coprime to mh exactly when u == lm_g.  Equal u form one
    group, visited once, in ascending degree.  A group passes unless a
    proper divisor of its u is in the cover: a degree-1 u (one AND of the
    support of u against the union of their supports) or an earlier u of
    degree 2 or more.  A passing group queues its lowest index and joins the
    cover; a group with a coprime member queues nothing and joins the cover
    untested, since a dominated cover entry adds no drop.
    """
    groups = {}  # u -> lowest index with that u, -1 if one member is coprime
    for ig, l in lcm_h.items():
        u = l - mh
        if u == leads[ig]:
            groups[u] = -1
        else:
            groups.setdefault(u, ig)
    guard = pk.guard
    varguard = pk.varguard
    fill = varguard - (varguard >> pk.width - 1)  # the value bits of every variable field
    degree = pk.degree
    linear = 0   # guard bits of the variables of the degree-1 u in the cover
    cover = []   # the other u in the cover
    out = []
    for u in sorted(groups, key=degree):
        ig = groups[u]
        support = (u + fill) & varguard  # guard bit set in each nonzero field
        if ig >= 0:
            if support & linear or any(not (u - c) & guard for c in cover):
                continue
            out.append((ig, u + mh))
        if degree(u) == 1:
            linear |= support
        else:
            cover.append(u)
    return out


def _hilbert_bound(ideal: Ideal):
    """The Hilbert function t -> CI(t) of a complete intersection of the
    generators' degrees d_i in the ring's N variables, [z^t] prod_i (1 -
    z^(d_i)) / (1 - z)^N, when the generators are k <= N homogeneous forms;
    None for any other system, which is not tracked.  CI(t) is the sum over
    the numerator's terms c z^e, e <= t, of c times the number of degree-(t -
    e) monomials, C(t - e + N - 1, N - 1); for k < N it never reaches 0."""
    gens = ideal.generators
    nvars = ideal.ring.nvars
    if len(gens) > nvars or not all(g.is_homogeneous() for g in gens):
        return None
    numerator = {0: 1}  # prod_i (1 - z^(d_i)) as {e: c}
    for g in gens:
        d = g.total_degree()
        out = dict(numerator)
        for e, c in numerator.items():
            out[e + d] = out.get(e + d, 0) - c
        numerator = {e: c for e, c in out.items() if c}

    def ci(t):
        return sum(c * comb(t - e + nvars - 1, nvars - 1) for e, c in numerator.items() if e <= t)
    return ci


def _next_standard(std: dict, leads: set, units: list, tick) -> dict:
    """The standard monomials of degree t + 1 from those of degree t.

    ``std`` maps each packed degree-t monomial outside the lead ideal to its
    support, the ascending indices of its variables; ``leads`` holds the
    leads of degree t + 1 and ``units[i]`` is packed x_i.  A monomial of
    degree t + 1 is standard when it is not a lead and each of its degree-t
    divisors is standard: a lower lead that divides it divides one of them.
    Each one is built once, from its quotient by its largest variable, which
    is an extension of that quotient by x_j with j at or above its largest.
    ``tick``, when given, is called every 1,024 monomials built.
    """
    out = {}
    built = 0
    nvars = len(units)
    for m, support in std.items():
        top = support[-1] if support else 0
        for j in range(top, nvars):
            built += 1
            if tick is not None and not built & 1023:
                tick()
            c = m + units[j]
            if c in leads or not all(c - units[i] in std for i in support):
                continue
            out[c] = support if j == top and support else (*support, j)
    return out


def _minimal_monomials(seed, pk: _Packing, poll, poll_every) -> list:
    """The reduced basis of a monomial ideal as monic reducer entries,
    largest lead first.

    ``seed`` holds one single-term dict per generator, ascending in lead
    key.  A monomial divides only monomials of larger or equal key, so each
    one that no monomial kept so far divides is a minimal generator, and no
    later one retires it.  This is the basis that the seed step and the pair
    loop build, with every S-polynomial zero.  ``poll`` is called every
    ``poll_every`` generators, as in the seed step.
    """
    guard = pk.guard
    kept = []
    for k, terms in enumerate(seed, 1):
        [m] = terms
        if all((m - c) & guard for c in kept):
            kept.append(m)
        if poll is not None and k % poll_every == 0:
            poll(GBStats(len(seed), 0, 0))
    return [(m, 1, ()) for m in reversed(kept)]


def _buchberger(ideal: Ideal, pk: _Packing, poll, poll_every) -> GroebnerBasis:
    pkey = pk.key
    seed = sorted(
        (pk.pack_terms(g.terms) for g in ideal.generators),
        key=lambda terms: pkey(max(terms, key=pkey)),
    )
    if all(len(terms) == 1 for terms in seed):
        return GroebnerBasis(pk, _minimal_monomials(seed, pk, poll, poll_every))
    guard = pk.guard
    lcm = pk.lcm
    degree = pk.degree

    entries: list = []       # reducer entry of each candidate; update() rewrites tails
    leads: list[int] = []    # packed lead of each entry
    keys: list[int] = []     # order key of each lead
    labels: list = []        # (k, u) label of each entry while the bound is tracked, else None
    active: list[int] = []   # indices of the current basis, ascending
    by_key: list = []        # (lead, index) of the basis, small keys first
    pairs: dict = {}         # live pairs (i, j), i < j -> packed lcm of their leads
    queue: list = []         # heap of (deg lcm, multiplier degrees, order key of lcm, i, j)
    # First-divisor memo: a monomial maps to (i + 1) << 32 | n, where i is the
    # index of its smallest-key divisor in the basis (-1 for none) and n was
    # len(entries) then.  Only leads added since can beat i, and the smallest
    # key among i and those is in the basis: whatever retires a lead is a
    # newer lead that divides every multiple of it, with a smaller key.  The
    # pair loop empties it whenever the pair degree rises.
    memo: dict = {}

    tick = None if poll is None else lambda: poll(
        GBStats(len(active), pairs_done, len(pairs), pairs_skipped, above_ci=above_ci))

    def find(m):
        """The reducer entry of m: the basis element with the smallest-key
        lead dividing m, or None."""
        n = len(entries)
        v = memo.get(m)
        if v is None:
            best = -1
            for lm, k in by_key:
                if not (m - lm) & guard:
                    best = k
                    break
        else:
            best = (v >> 32) - 1
            seen = v & 0xFFFFFFFF
            if seen == n:
                return entries[best] if best >= 0 else None
            for k in range(seen, n):
                if not (m - leads[k]) & guard and (best < 0 or keys[k] < keys[best]):
                    best = k
        memo[m] = (best + 1) << 32 | n
        return entries[best] if best >= 0 else None

    def update(entry, label):
        """Gebauer-Moeller update with a new entry; keeps every tail reduced."""
        ih = len(entries)
        mh = entry[0]
        kh = pkey(mh)
        entries.append(entry)
        leads.append(mh)
        keys.append(kh)
        labels.append(label)
        # lcm(mh, lm_g) once per basis element; the phases below share it.
        lcm_h = {ig: lcm(mh, leads[ig]) for ig in active}
        # Phase 1: the new pairs that survive the chain criterion.
        new_pairs = _chain_criterion(mh, lcm_h, leads, pk)
        # Phase 2: prune old pairs made redundant by mh (chain criterion).
        # Their heap entries are skipped when popped.  A pair may still name
        # a retired element, which has no entry in lcm_h.
        dead = [
            ij for ij, l12 in pairs.items()
            if not (l12 - mh) & guard
            and all((lcm_h.get(i) or lcm(mh, leads[i])) != l12 for i in ij)
        ]
        for ij in dead:
            del pairs[ij]
        # Phase 3: retire basis elements whose lead became divisible.
        survivors = [ig for ig in active if (leads[ig] - mh) & guard]
        active[:] = survivors + [ih]  # ih is the newest, so the largest index
        by_key[:] = [(leads[k], k) for k in sorted(active, key=keys.__getitem__)]
        # Phase 4: rewrite each tail with a term that mh divides (no survivor's
        # lead is one).  The lead stays, and with it every pair criterion.  A
        # lead below mh is skipped: its tail lies below it, and no multiple
        # of mh is below mh.  When mh is the only such term, one fused
        # subtract of h's reduced tail does it.
        for ig in survivors:
            if keys[ig] < kh:
                continue
            multiples = [m for m, _ in entries[ig][2] if not (m - mh) & guard]
            if not multiples:
                continue
            if multiples == [mh]:
                entries[ig] = _cancel_lead(entries[ig], entry, pk)
            else:
                entries[ig] = _rewrite_tail(entries[ig], find, pk, tick)
            if tick is not None:
                tick()
        # Phase 5: queue the new pairs, keyed on the lcm degree first and then
        # on the degrees of the two multipliers, lcm / lm_g and lcm / mh.
        dh = degree(mh)
        for ig, lcm_hg in new_pairs:
            pairs[(ig, ih)] = lcm_hg
            d = degree(lcm_hg)
            heapq.heappush(
                queue, (d, 2 * d - degree(leads[ig]) - dh, pkey(lcm_hg), ig, ih))

    def label(i, j, lcm_ij):
        """The label of pair (i, j) with packed lcm L: the larger of (k_i, u_i
        * L / lm_i) and (k_j, u_j * L / lm_j), by k, then by order key."""
        (ki, ui), (kj, uj) = labels[i], labels[j]
        ui += lcm_ij - leads[i]
        uj += lcm_ij - leads[j]
        return (ki, ui) if (ki, pkey(ui)) > (kj, pkey(uj)) else (kj, uj)

    def defer(d):
        """Move the queued degree-d pairs whose label F5's syzygy criterion
        rejects, u divisible by the lead of a basis element labelled below k,
        behind the other degree-d pairs; each group keeps its order."""
        below = [[leads[a] for a in active if labels[a][0] < k] for k in range(seeds)]
        for n, (dn, r, key, i, j) in enumerate(queue):
            if tick is not None and not (n + 1) & 1023:  # every 1,024 pairs checked
                tick()
            if dn == d and (lcm_ij := pairs.get((i, j))) is not None:
                k, u = label(i, j, lcm_ij)
                if any(not (u - lm) & guard for lm in below[k]):
                    queue[n] = (d, r + 2 * d + 1, key, i, j)
        heapq.heapify(queue)

    # The Hilbert bound (module docstring): std holds the standard monomials
    # of degree memo_degree while a homogeneous system of at most nvars forms
    # is tracked, full is CI(memo_degree), and the pairs of that degree all
    # reduce to zero once len(std) == full.
    ci = _hilbert_bound(ideal)
    std = None if ci is None else {0: ()}  # 1 is the one degree-0 monomial
    full = 1  # CI(0)
    nvars = pk.ring.nvars
    units = [pk.pack(tuple(int(i == k) for i in range(nvars))) for k in range(nvars)]

    # Seed the basis as the pair loop grows it: each generator, smallest lead
    # first, is reduced against the basis so far and added if nonzero.  The
    # k-th one added, from 0, is labelled (k, 1); the monomial 1 packs to 0.
    pairs_done = pairs_skipped = seeds = 0
    above_ci = False
    for k, terms in enumerate(seed, 1):
        h = _reduce_full(terms, find, pk, tick)
        if poll is not None and k % poll_every == 0:
            poll(GBStats(len(seed), 0, 0))
        if h:
            update(_entry(h, pk), None if std is None else (seeds, 0))
            seeds += 1

    memo_degree = 0
    marked = False  # a tracked degree that needs leads has reduced a pair to zero
    while pairs:
        d = queue[0][0]
        if d > memo_degree:
            # Pairs come in ascending lcm degree, so over a homogeneous ideal
            # monomials of lower degree recur only in tail rewrites, and the
            # lead ideal is final below d.
            memo.clear()
            if std is not None:
                # The tail terms of the pairs left to reduce.
                left = sum(len(entries[a][2]) + len(entries[b][2]) for a, b in pairs)
                for t in range(memo_degree, d):
                    # A final count above the bound: not a complete intersection.
                    # More standard monomials to build than tail terms left to
                    # reduce: building them costs more than the skip can save.
                    above_ci = len(std) > ci(t)
                    if above_ci or ci(t + 1) > left:
                        std = None
                        break
                    std = _next_standard(
                        std, {leads[k] for k in active if degree(leads[k]) == t + 1},
                        units, tick)
                full = ci(d)
                if marked and std is not None and len(std) > full:
                    defer(d)
            memo_degree = d
        _, _, _, i, j = heapq.heappop(queue)
        lcm_ij = pairs.pop((i, j), None)
        if lcm_ij is None:
            continue  # pruned by a later update
        if std is not None and len(std) == full:
            pairs_skipped += 1
            h = None
        else:
            s = _spoly(entries[i], entries[j], lcm_ij, pk)
            h = _reduce_full(s, find, pk, tick)
            pairs_done += 1
        # A skipped pair keeps the poll cadence, so --timeout holds through a skip.
        if tick is not None and (pairs_done + pairs_skipped) % poll_every == 0:
            tick()
        if h:
            entry = _entry(h, pk)
            update(entry, None if std is None else label(i, j, lcm_ij))
            if std is not None:
                del std[entry[0]]  # its lead leaves the standard monomials
        elif std is not None and len(std) > full and not marked:
            # A wasted reduction: from now on, defer Koszul-labelled pairs.
            marked = True
            defer(d)

    return GroebnerBasis(pk, [entries[k] for _, k in reversed(by_key)])


def ideal_membership(f: Polynomial, basis) -> bool:
    """True when f reduces to zero modulo the basis."""
    return normal_form(f, basis).is_zero()


# ---------------------------------------------------------------------------
# Dimension of the zero set
# ---------------------------------------------------------------------------

def _min_hitting_set_size(supports, nvars: int, tick=None) -> int:
    """Smallest number of variables meeting every support (exact B&B).

    Each support is an int bitmask, bit i standing for x_i.  Duplicate and
    non-minimal supports are dropped first: a set that meets a support meets
    every superset of it.  The search branches on the variables of the first
    uncovered support, smallest supports first, and passes each branch the
    supports still uncovered.  A node is pruned once its size plus a lower
    bound reaches the best hitting set so far.  The bound is the packing
    bound for d-Hitting Set (Niedermeier, "Invitation to Fixed-Parameter
    Algorithms", 2006): uncovered supports that pairwise share no variable
    each need a variable of their own, so a greedy pass counts such a
    family.

    ``tick``, when given, is called with no argument at every branching node
    and may raise to cancel the search.
    """
    minimal = []
    for s in sorted(set(supports), key=int.bit_count):
        if not any(t & s == t for t in minimal):
            minimal.append(s)
    # Depth-first over an explicit stack, so the depth (one level per chosen
    # variable) meets no recursion limit.  A frame holds a node's uncovered
    # supports, its size plus one and the branch bits still to try; each
    # child's list is built only when its turn comes, so at most one list per
    # level is alive.
    best = nvars
    stack = []
    uncovered, size = minimal, 0
    while True:
        packed = bound = 0
        for s in uncovered:
            if not s & packed:
                packed |= s
                bound += 1
        if size + bound < best:
            if not uncovered:
                best = size
            else:
                if tick is not None:
                    tick()
                stack.append((uncovered, size + 1, uncovered[0]))
        if not stack:
            return best
        parent, size, bits = stack.pop()
        bit = bits & -bits
        if bits != bit:
            stack.append((parent, size, bits ^ bit))
        uncovered = [t for t in parent if not t & bit]


def ideal_dimension(basis: GroebnerBasis, *, poll=None) -> int:
    """Affine dimension of the zero set of the ideal, from its initial ideal.

    Computed as the largest cardinality of a variable subset containing the
    support of no leading monomial, that is n minus a smallest hitting set
    of the lead supports (Kredel & Weispfenning, "Computing dimension and
    independent sets for polynomial ideals", JSC 1988).  Returns -1 for the
    unit ideal (empty variety).  ``poll``, when given, is the buchberger()
    callback; the search calls it at every branching node with the size of
    the basis and no pairs, and it may raise to cancel the search.
    """
    if basis.is_unit_ideal:
        return -1
    nvars = basis.ring.nvars
    supports = [
        sum(1 << i for i, e in enumerate(lm) if e)
        for lm in basis.leading_monomials()
    ]
    tick = None if poll is None else partial(poll, GBStats(len(basis), 0, 0))
    return nvars - _min_hitting_set_size(supports, nvars, tick)

