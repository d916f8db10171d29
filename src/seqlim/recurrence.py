"""Linear difference equations with polynomial coefficients.

A recurrence is stored in the unnormalized integer form

    c_d(n) u(n+d) + ... + c_1(n) u(n+1) + c_0(n) u(n) = 0,

with the relation asserted for every n >= offset.  The c_k are kept as
:class:`Poly` for symbolic work and, stored at construction, as rows of
Python ints that :meth:`Recurrence.coeffs_at` evaluates by integer Horner;
every stepping loop and the Casoratian step w(n+1) = (-1)^d c_0(n)/c_d(n)
w(n) read their coefficients from that one kernel.  Solutions are exact
rational sequences cached in a :class:`SolutionTable`.

The module also provides Casoratian series and order-2 partial sums,
characteristic polynomials and their roots (``mpmath.polyroots``), growth
classification of solutions by characteristic root, rescaling by
factorial-type factors, and recurrence guessing from initial terms.  The
guesser orders its unknowns degree-major, so one int64 elimination per
order and prime gives the nullity at every degree; the elimination reduces
lazily, under the bound steps*(p-1)**2 + p < 2**63.
"""

from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, takewhile
from math import gcd, isqrt, lcm
from typing import TYPE_CHECKING, Iterable, Sequence

import mpmath
from mpmath import mpc, mpf

from seqlim.arith import (
    BigFloat,
    Poly,
    RatFunc,
    poly_from_text,
    poly_to_text,
    row_reduce,
    to_mpf,
)

if TYPE_CHECKING:  # numpy is imported by the guesser alone, when it runs
    import numpy as np


class RecurrenceError(Exception):
    pass


class SingularLeadingCoefficient(RecurrenceError):
    """The leading coefficient vanishes at a step the evaluation needs."""

    def __init__(self, n: int):
        self.n = n
        super().__init__(f"leading coefficient vanishes at n = {n}")


class DivergentCoefficient(RecurrenceError):
    def __init__(self, k: int):
        self.k = k
        super().__init__(f"coefficient {k} dominates the leading coefficient")


class NoConvergence(RecurrenceError):
    def __init__(self, message, residuals=None):
        self.residuals = residuals
        super().__init__(message)


class InsufficientTerms(RecurrenceError):
    def __init__(self, required: int, got: int):
        self.required = required
        self.got = got
        super().__init__(f"need at least {required} terms, got {got}")


class ZeroRatio(RecurrenceError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"rescaling ratio vanishes identically (n = {n})")


class EqualModuli(RecurrenceError):
    pass


class ZeroTail(RecurrenceError):
    pass


# ----------------------------------------------------------------------
# Core types
# ----------------------------------------------------------------------


class Recurrence:
    """Order-d relation sum(c_k(n) u(n+k), k=0..d) = 0 for n >= offset.

    Coefficients are normalized to integer polynomials with overall content
    removed and positive leading coefficient on c_d; their integer rows are
    stored too (highest power first) and evaluated by :meth:`coeffs_at`.
    """

    __slots__ = ("order", "coeffs", "offset", "_rows")

    def __init__(self, coeffs: Sequence[Poly], offset: int = 0):
        coeffs = [c if isinstance(c, Poly) else Poly.const(c) for c in coeffs]
        if len(coeffs) < 2:
            raise ValueError("a recurrence needs order >= 1 (at least two coefficients)")
        if coeffs[-1].is_zero:
            raise ValueError("leading coefficient polynomial must be nonzero")
        den = 1
        num = 0
        for c in coeffs:
            for q in c.coeffs:
                den = lcm(den, q.denominator)
        scaled = [c * den for c in coeffs]
        for c in scaled:
            for q in c.coeffs:
                num = gcd(num, q.numerator)
        if scaled[-1].leading < 0:
            num = -num
        coeffs = [c / num for c in scaled]
        object.__setattr__(self, "order", len(coeffs) - 1)
        object.__setattr__(self, "coeffs", tuple(coeffs))
        object.__setattr__(self, "offset", int(offset))
        object.__setattr__(self, "_rows", tuple(
            tuple(int(q) for q in reversed(c.coeffs)) for c in coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Recurrence is immutable")

    def coeffs_at(self, n: int) -> list[int]:
        """[c_0(n), ..., c_d(n)] for an integer n, by integer Horner."""
        out = []
        for row in self._rows:
            acc = 0
            for c in row:
                acc = acc * n + c
            out.append(acc)
        return out

    def relation_value(self, terms, n: int):
        """sum(c_k(n) * terms[n+k]); zero iff the relation holds at n."""
        return sum(c * terms[n + k] for k, c in enumerate(self.coeffs_at(n)))

    def proportional_to(self, other: "Recurrence") -> bool:
        """Same relation up to an overall rational-function multiple."""
        if self.order != other.order:
            return False
        lead_a, lead_b = self.coeffs[-1], other.coeffs[-1]
        return self.coeffs == other.coeffs or all(
            self.coeffs[k] * lead_b == other.coeffs[k] * lead_a for k in range(self.order))

    def __eq__(self, other):
        if not isinstance(other, Recurrence):
            return NotImplemented
        return self.coeffs == other.coeffs and self.offset == other.offset

    def __hash__(self):
        return hash((self.coeffs, self.offset))

    def __repr__(self):
        body = ", ".join(poly_to_text(c) for c in self.coeffs)
        return f"Recurrence(order={self.order}, offset={self.offset}, [{body}])"


@dataclass(frozen=True)
class InitialConditions:
    """d consecutive starting values u(start_index), ..., u(start_index+d-1)."""

    start_index: int
    values: tuple

    def __init__(self, start_index: int, values: Iterable):
        object.__setattr__(self, "start_index", int(start_index))
        object.__setattr__(self, "values", tuple(Fraction(v) for v in values))


class SolutionTable:
    """A solution of a recurrence, lazily extended and cached exactly.

    ``_terms`` maps each index to its value: a :class:`Fraction` for the
    initial values, supplied terms and every term already read by
    :meth:`term`, and an unreduced (numerator, denominator) pair for a term
    that was stepped but not read yet.  Every read of the cache bound and
    every write to the cache (stepping, reducing a read term, or a term
    supplied by :meth:`with_term`) holds the lock.
    """

    #: Steps between the gcds that strip the stepping window's common content.
    GCD_PERIOD = 16

    def __init__(self, recurrence: Recurrence, init: InitialConditions):
        if len(init.values) != recurrence.order:
            raise ValueError(
                f"recurrence of order {recurrence.order} needs "
                f"{recurrence.order} initial values, got {len(init.values)}")
        if init.start_index < recurrence.offset:
            raise ValueError("initial conditions start below the recurrence offset")
        self.recurrence = recurrence
        self.init = init
        self._terms = {init.start_index + i: v for i, v in enumerate(init.values)}
        self._top = init.start_index + len(init.values) - 1
        self._window = None  # (numerators of the last d terms, common denominator)
        self._lock = threading.Lock()

    @property
    def start_index(self) -> int:
        return self.init.start_index

    def with_term(self, n: int, value) -> "SolutionTable":
        """Explicitly supply u(n); the escape hatch for singular leading steps."""
        with self._lock:
            if n != self._top + 1:
                raise ValueError(f"can only append the next term (n = {self._top + 1})")
            self._terms[n] = Fraction(value)
            self._top = n
            self._window = None
        return self

    def _reach(self, n: int) -> None:
        """Step the cache through u(n), rejecting indices before the start."""
        if n < self.init.start_index:
            raise ValueError(f"term {n} precedes the initial conditions")
        with self._lock:
            if n <= self._top:
                return
        self.evaluate(n)

    def _reduced(self, n: int) -> Fraction:
        """u(n) reduced to a Fraction and stored back; the caller holds the lock."""
        value = self._terms[n]
        if type(value) is tuple:
            value = self._terms[n] = Fraction(*value)
        return value

    def term(self, n: int) -> Fraction:
        """Exact u(n), extending the cache as needed."""
        self._reach(n)
        with self._lock:
            return self._reduced(n)

    def nonzero(self, n: int) -> bool:
        """u(n) != 0, read from the stored numerator without reducing it."""
        self._reach(n)
        with self._lock:
            value = self._terms[n]
        return (value[0] if type(value) is tuple else value) != 0

    def terms(self, upto: int) -> list[Fraction]:
        """Exact terms u(start), ..., u(upto), extending the cache as needed."""
        self.evaluate(upto)
        with self._lock:
            return [self._reduced(n) for n in range(self.init.start_index, upto + 1)]

    def evaluate(self, upto: int) -> None:
        """Step the cache through u(upto); idempotent.

        The last d terms are carried from call to call as integer numerators
        over one common denominator.  A step scales them by |c_d| and stores
        the new term as its unreduced pair, so it costs no gcd; one gcd
        every :attr:`GCD_PERIOD` steps strips the content the window and its
        denominator share.
        """
        with self._lock:
            if self._top >= upto:
                return
            rec = self.recurrence
            d = rec.order
            terms = self._terms
            if self._window is None:  # new table, or a term was supplied
                window = [self._reduced(i) for i in range(self._top - d + 1, self._top + 1)]
                den = lcm(*(t.denominator for t in window))
                self._window = [t.numerator * (den // t.denominator) for t in window], den
            nums, den = self._window
            try:
                while self._top < upto:
                    m = self._top + 1
                    n = m - d
                    cs = rec.coeffs_at(n)
                    lead = cs[d]
                    if lead == 0:
                        raise SingularLeadingCoefficient(n)
                    num = -sum(c * u for c, u in zip(cs, nums))
                    if lead < 0:
                        lead, num = -lead, -num
                    den *= lead
                    nums = [u * lead for u in nums[1:]]
                    nums.append(num)
                    if m % self.GCD_PERIOD == 0:
                        g = gcd(den, *nums)
                        den //= g
                        nums = [u // g for u in nums]
                    terms[m] = nums[-1], den
                    self._top = m
            finally:
                self._window = nums, den


# ----------------------------------------------------------------------
# Casoratian
# ----------------------------------------------------------------------


def casoratian(rec: Recurrence, sols: Sequence[SolutionTable], n: int) -> Fraction:
    """Determinant of the d x d window [sols_j(n + i)] (discrete Wronskian)."""
    d = rec.order
    if len(sols) != d:
        raise ValueError(f"need exactly {d} solutions, got {len(sols)}")
    for s in sols:
        if not s.recurrence.proportional_to(rec):
            raise ValueError("solution does not belong to this recurrence")
    return row_reduce([[s.term(n + i) for s in sols] for i in range(d)], d)[2]


def casoratian_step(rec: Recurrence, n: int) -> Fraction:
    """w(n+1)/w(n) = (-1)^d c_0(n)/c_d(n), read from the integer coefficient row."""
    cs = rec.coeffs_at(n)
    return Fraction(-cs[0] if rec.order % 2 else cs[0], cs[-1])


def casoratian_series(rec: Recurrence, sols: Sequence[SolutionTable], upto: int) -> list[Fraction]:
    """w(0..upto) from the actual w(0) and the product rule of :func:`casoratian_step`."""
    out = [casoratian(rec, sols, 0)]
    for n in range(upto):
        out.append(out[-1] * casoratian_step(rec, n))
    return out


def casoratian_check(rec: Recurrence, sols: Sequence[SolutionTable], upto: int) -> bool:
    """Exact check of w(n) = (-1)^(d n) p_0(0) ... p_0(n-1) w(0) for n <= upto."""
    return all(casoratian(rec, sols, n) == w
               for n, w in enumerate(casoratian_series(rec, sols, upto)))


class ZeroDenominatorTerm(RecurrenceError):
    def __init__(self, n: int):
        self.n = n
        super().__init__(f"primary solution vanishes at n = {n}")


def casoratian_sums(rec: Recurrence, primary: SolutionTable, w0,
                    upto: int) -> list[Fraction]:
    """S(0..upto) with S(n) = sum(w(k) / (A(k) A(k+1)), k < n), for order 2.

    w is the Casoratian of A and a second solution B, stepped from w(0) =
    ``w0``, so S(n) = B(n)/A(n) - B(0)/A(0).  Raises ZeroDenominatorTerm at
    the first index n <= upto where A(n) = 0.
    """
    if rec.order != 2:
        raise ValueError("Casoratian partial sums require an order-2 recurrence")
    a = [primary.term(n) for n in range(upto + 1)]  # a[n] = A(n)
    if 0 in a:
        raise ZeroDenominatorTerm(a.index(0))
    w, out = Fraction(w0), [Fraction(0)]
    for n in range(upto):
        out.append(out[-1] + w / (a[n] * a[n + 1]))
        w *= casoratian_step(rec, n)
    return out


def secondary_from_primary(rec: Recurrence, primary: SolutionTable, upto: int) -> SolutionTable:
    """Second solution u2(n) = u1(n) * sum(w(k) / (u1(k) u1(k+1)), k < n).

    Here w is the Casoratian normalized to w(0) = 1; this gives u2(0) = 0
    and u2(1) = 1/u1(0).  Only order-2 recurrences are supported.
    """
    vals = [primary.term(n) * s
            for n, s in enumerate(casoratian_sums(rec, primary, 1, upto))]
    out = SolutionTable(rec, InitialConditions(0, vals[:2]))
    for n in range(2, upto + 1):
        out.with_term(n, vals[n])
    return out


# ----------------------------------------------------------------------
# Characteristic polynomial and roots
# ----------------------------------------------------------------------


def characteristic_polynomial(rec: Recurrence) -> Poly:
    """Monic limit polynomial of the ratios c_k(n)/c_d(n) as n grows."""
    lead = rec.coeffs[-1]
    out = [Fraction(0)] * (rec.order + 1)
    out[rec.order] = Fraction(1)
    for k in range(rec.order):
        c = rec.coeffs[k]
        if c.degree > lead.degree:
            raise DivergentCoefficient(k)
        if c.degree == lead.degree:
            out[k] = c.leading / lead.leading
    return Poly(out)


class CharRoots:
    """All complex roots of a characteristic polynomial, largest modulus first."""

    __slots__ = ("polynomial", "roots", "precision", "equal_moduli")

    def __init__(self, polynomial: Poly, roots: Sequence[mpc], precision: int):
        roots = sorted(roots, key=lambda z: (-abs(z), mpf(z.real), mpf(z.imag)))
        object.__setattr__(self, "polynomial", polynomial)
        object.__setattr__(self, "roots", tuple(roots))
        object.__setattr__(self, "precision", precision)
        tol = mpf(10) ** (10 - precision)
        scale = max(abs(z) for z in roots) if roots else mpf(1)
        flag = any(abs(abs(roots[i]) - abs(roots[i + 1])) < tol * max(scale, mpf(1))
                   for i in range(len(roots) - 1))
        object.__setattr__(self, "equal_moduli", flag)

    def __setattr__(self, name, value):
        raise AttributeError("CharRoots is immutable")

    def __repr__(self):
        with mpmath.workdps(8):
            body = ", ".join(str(+z) for z in self.roots)
        return f"CharRoots([{body}] @ {self.precision} digits)"


def _square_free_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Pairwise coprime square-free f_k with p = lead * prod f_k**k (Yun).

    g_0 = p and g_k = gcd(g_(k-1), g_(k-1)'); s_k = g_(k-1)/g_k has the
    roots of multiplicity >= k once each, so f_k = s_k/s_(k+1).  A
    square-free p comes back unchanged as f_1.
    """
    layers, g = [], p
    while g.degree >= 1:
        h = g.gcd(Poly([k * c for k, c in enumerate(g.coeffs)][1:]))
        layers.append(g.divmod(h)[0])
        g = h
    layers.append(Poly.const(1))
    return [(s.divmod(t)[0], k) for k, (s, t) in enumerate(zip(layers, layers[1:]), 1)
            if s.degree > t.degree]


def characteristic_roots(p: Poly, precision: int) -> CharRoots:
    """All complex roots, repeated by multiplicity, by ``mpmath.polyroots``.

    Each square-free part of p (one part when p is square-free) is solved
    as a monic polynomial and its roots repeated by their multiplicity, so
    a repeated root costs no convergence.  The roots are refined at 15
    digits beyond ``precision`` and the result is rejected unless every
    residual |p(root)| is below 10**-(precision-10).
    """
    if p.degree < 1:
        raise ValueError("root finding needs a nonconstant polynomial")
    with mpmath.workdps(precision + 15):
        roots = []
        for f, k in _square_free_parts(p):
            monic = [to_mpf(c / f.leading) for c in reversed(f.coeffs)]
            try:
                found = mpmath.polyroots(monic, maxsteps=200 * f.degree)
            except mpmath.mp.NoConvergence as exc:
                raise NoConvergence(f"root iteration did not settle: {exc}")
            roots += [mpc(z) for z in found] * k
        coeffs = [to_mpf(c / p.leading) for c in reversed(p.coeffs)]
        residuals = [abs(mpmath.polyval(coeffs, z)) for z in roots]
        if max(residuals) >= mpf(10) ** (10 - precision):
            raise NoConvergence("root residuals too large", residuals)
    return CharRoots(p, roots, precision)


@dataclass(frozen=True)
class GrowthClass:
    """Root assignment for a solution: index into CharRoots plus diagnostics."""

    root_index: int
    ratio: BigFloat
    distance: BigFloat


def poincare_classify(sol, roots: CharRoots, upto: int) -> GrowthClass:
    """Match the tail ratio u(N+1)/u(N) to the nearest characteristic root.

    ``sol`` is either a SolutionTable (exact terms) or a sequence of values
    u(0), u(1), ... through index N+1; values that are not BigFloats are
    rounded at the roots' precision.  Requires roots of pairwise distinct
    moduli; a tail of zeros is reported as such.
    """
    if roots.equal_moduli:
        raise EqualModuli("characteristic roots do not have distinct moduli")
    prec = roots.precision
    if isinstance(sol, SolutionTable):
        values = sol.terms(upto + 1)[max(0, upto - 3 - sol.start_index):]
    elif upto + 1 >= len(sol):
        raise ValueError("need values through index N+1")
    else:
        values = sol[max(0, upto - 3): upto + 2]
    window = [v if isinstance(v, BigFloat) else BigFloat(v, prec) for v in values]
    if all(v == 0 for v in window):
        raise ZeroTail("solution vanishes over the sampled tail")
    if window[-2] == 0:
        raise ZeroTail(f"u({upto}) = 0; pick a different N")
    with mpmath.workdps(prec):
        ratio = window[-1].val / window[-2].val
        dists = [abs(ratio - z) for z in roots.roots]
        k = min(range(len(dists)), key=lambda i: dists[i])
    return GrowthClass(k, BigFloat(ratio, prec), BigFloat(dists[k], prec))


# ----------------------------------------------------------------------
# Guessing recurrences from terms
# ----------------------------------------------------------------------


def _small_primes(bound: int) -> list[int]:
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for i in range(2, isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i:: i] = bytearray(len(sieve[i * i:: i]))
    return [i for i, f in enumerate(sieve) if f]


_TRIAL_PRIMES = _small_primes(1000)


def _is_prime(n: int) -> bool:
    for p in _TRIAL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _modular_primes(count: int) -> list[int]:
    """``count`` primes just below 2**25 (safe for int64 numpy products)."""
    out = []
    n = 2**25 - 1
    while len(out) < count:
        if _is_prime(n):
            out.append(n)
        n -= 2
    return out


_GUESS_PRIMES = _modular_primes(64)


def _echelon_mod(a: np.ndarray, p: int) -> tuple[list[int], np.ndarray]:
    """Row echelon form mod p < 2**31 by forward elimination, pivots scaled to 1.

    Overwrites ``a``; returns the pivot columns and the reduced pivot rows,
    as int32 to halve what callers keep.  Each step reduces only its
    pivot row and pivot column; the trailing block absorbs the unreduced
    products, each below (p-1)**2.  Its entries start below p, so after s
    steps they stay below s*(p-1)**2 + p, which must be < 2**63: the block
    is reduced every K steps, the largest K that keeps the bound (K >= 8192
    for p < 2**25, a handful of steps for p near 2**30).
    """
    import numpy as np

    a %= p
    rows, cols = a.shape
    period = (2**63 - p - 1) // (p - 1) ** 2
    pivots: list[int] = []
    since = 0
    for col in range(cols):
        r = len(pivots)
        if r == rows:
            break
        column = a[r:, col] % p
        i = int(np.argmax(column != 0))
        if not column[i]:
            continue
        if i:
            a[[r, r + i]] = a[[r + i, r]]
            column[[0, i]] = column[[i, 0]]
        row = a[r, col:] % p
        a[r, col:] = row * pow(int(row[0]), -1, p) % p
        if since == period:
            a[r + 1:, col + 1:] %= p
            since = 0
        a[r + 1:, col + 1:] -= np.outer(column[1:], a[r, col + 1:])
        since += 1
        pivots.append(col)
    return pivots, a[:len(pivots)].astype(np.int32)


def _null_vector_mod(ech: np.ndarray, pivots: list[int], f: int, p: int) -> list[int]:
    """Nullspace vector with coordinate f = 1 and every other free one 0.

    Back substitution gives the pivots right of f the value 0, so the vector
    lives on columns 0..f and only the pivot rows left of f are read.
    """
    import numpy as np

    v = np.zeros(f + 1, dtype=np.int64)
    v[f] = 1
    for i in range(bisect_left(pivots, f) - 1, -1, -1):
        c = pivots[i]
        v[c] = -int((ech[i, c + 1:f + 1] * v[c + 1:] % p).sum()) % p
    return v.tolist()


def _rational_reconstruct(x: int, modulus: int) -> Fraction | None:
    """p/q congruent to x with |p|, |q| <= sqrt(modulus/2), if one exists."""
    bound = isqrt(modulus // 2)
    r0, r1 = modulus, x % modulus
    t0, t1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > bound or gcd(r1, abs(t1)) != 1:
        return None
    return Fraction(r1, t1)


def guess_window(total: int, order: int, max_degree: int) -> tuple[int, int]:
    """(degree cap, window rows) of the order-``order`` guessing system.

    The cap keeps at least 5 relation indices beyond the unknown count (it
    is negative when no degree fits); the window is the first unknowns+10 of
    the total-order relation indices, and the rest are held out for the
    exact check alone.
    """
    eqs = total - order
    cap = min(max_degree, (eqs - 5) // (order + 1) - 1)
    return cap, min((order + 1) * (cap + 1) + 10, eqs)


def _window_matrix_mod(ints, order: int, rows: int, cols: int, p: int) -> np.ndarray:
    """The first ``cols`` degree-major columns mod p: column j*(order+1)+k
    holds n**j * u(n+k) for the relation indices n < rows."""
    import numpy as np

    res = np.array([t % p for t in ints[:rows + order]], dtype=np.int64)
    window = np.stack([res[k:k + rows] for k in range(order + 1)], axis=1)
    out = np.empty((rows, cols), dtype=np.int64)
    npow = np.ones(rows, dtype=np.int64)
    for j in range(0, cols, order + 1):
        out[:, j:j + order + 1] = (window * npow[:, None] % p)[:, :cols - j]
        npow = npow * np.arange(rows) % p
    return out


#: Primes across which _reconstruct_candidate lifts one nullspace vector.
_MAX_LIFT_PRIMES = 48


def _reconstruct_candidate(ints, order, rows, f, probes):
    """The verified recurrence from the free-column-f nullspace vector, or None.

    The vector is lifted by CRT across primes (at most _MAX_LIFT_PRIMES) and
    rationally reconstructed after each; the recurrence each reconstruction
    gives is built once and checked exactly against every term.  One that
    fails the check is lifted further, and the column is dropped only when
    the next reconstruction repeats the failed vector.  The probe
    eliminations supply the first residues; every further prime eliminates
    only columns 0..f, and a prime whose pivots up to f differ from the
    first probe's is skipped.
    """
    ref = probes[0][1][:bisect_left(probes[0][1], f)]
    further = ((p, *_echelon_mod(_window_matrix_mod(ints, order, rows, f + 1, p), p))
               for p in _GUESS_PRIMES[len(probes):])
    residue = modulus = failed = None
    used = 0
    for p, pivots, ech in chain(probes, further):
        if pivots[:bisect_right(pivots, f)] != ref:
            continue
        vec = _null_vector_mod(ech, pivots, f, p)
        del ech  # not held through the exact check or the next elimination
        if residue is None:
            residue, modulus = vec, p
        else:
            inv = pow(modulus, -1, p)
            residue = [a + (b - a) * inv % p * modulus for a, b in zip(residue, vec)]
            modulus *= p
        used += 1
        if used >= 2:
            recon = list(takewhile(lambda q: q is not None, (
                _rational_reconstruct(x, modulus) for x in residue)))
            if len(recon) == len(residue):
                if recon == failed:
                    return None
                polys = [Poly(recon[k::order + 1]) for k in range(order + 1)]
                if not polys[-1].is_zero:
                    rec = Recurrence(polys, offset=0)
                    if all(rec.relation_value(ints, n) == 0 for n in range(len(ints) - order)):
                        return rec
                failed = recon
        if used >= _MAX_LIFT_PRIMES:
            break
    return None


def guess_recurrence(terms: Sequence, max_order: int, max_degree: int) -> Recurrence | None:
    """Minimal (order, then degree) integer recurrence annihilating ``terms``.

    Per order, column j*(order+1)+k of the window matrix holds the n**j
    coefficient of c_k, so its first (order+1)(D+1) columns are the degree-D
    system and one echelon form mod p (lazily reduced, see
    :func:`_echelon_mod`) gives the nullity at every degree D.  The second
    prime is eliminated only when the first shows a nullity, and the smaller
    nullity counts, since a true integer relation survives mod every prime.
    That many free columns are tried in increasing order, which is
    increasing degree: each one's nullspace vector is lifted by CRT and
    rational reconstruction until its recurrence passes the exact check
    against all terms (see :func:`_reconstruct_candidate`), so an answer is
    always verified, and a spurious reconstruction only costs more primes.
    Returns None when nothing within the bounds survives.
    """
    terms = [Fraction(t) for t in terms]
    total = len(terms)
    required = (max_order + 1) * (max_degree + 1) + max_order + 5
    if total < required:
        raise InsufficientTerms(required, total)
    den = lcm(*(t.denominator for t in terms))
    ints = [int(t * den) for t in terms]
    for order in range(1, max_order + 1):
        cap, rows = guess_window(total, order, max_degree)
        if cap < 0:
            continue
        width = (order + 1) * (cap + 1)
        probes = []
        for p in _GUESS_PRIMES[:2]:
            pivots, ech = _echelon_mod(_window_matrix_mod(ints, order, rows, width, p), p)
            if len(pivots) == width:
                break
            probes.append((p, pivots, ech))
        if len(probes) < 2:
            continue
        dim = width - max(len(pivots) for _, pivots, _ in probes)
        pivot_set = set(probes[0][1])
        free = [c for c in range(width) if c not in pivot_set]
        for f in free[:dim]:
            rec = _reconstruct_candidate(ints, order, rows, f, probes)
            if rec is not None:
                return rec
    return None


# ----------------------------------------------------------------------
# Rescaling
# ----------------------------------------------------------------------


def _integer_roots(p: Poly) -> list[int]:
    """All integer roots, via the Cauchy bound and direct evaluation."""
    if p.is_zero:
        raise ValueError("zero polynomial has every root")
    q = p.primitive()
    bound = 1 + max(abs(c) for c in q.coeffs) / abs(q.leading)
    limit = int(bound) + 1
    return [n for n in range(-limit, limit + 1) if q(Fraction(n)) == 0]


def rescale(rec: Recurrence, ratio: RatFunc) -> Recurrence:
    """Recurrence satisfied by f(n) u(n) where ratio(n) = f(n+1)/f(n).

    Each coefficient c_k(n) is multiplied by the telescoping product
    ratio(n+k) ... ratio(n+d-1); denominators are then cleared and any
    common polynomial factor with no integer root in the validity range is
    removed.  The offset moves past any zero or pole of the ratio.
    """
    if ratio.numer.is_zero:
        raise ZeroRatio("all n")
    d = rec.order
    shifted = [ratio.shift(i) for i in range(d)]
    scaled: list[RatFunc] = []
    for k in range(d + 1):
        f = RatFunc(rec.coeffs[k])
        for i in range(k, d):
            f = f * shifted[i]
        scaled.append(f)
    denom_lcm = Poly.const(1)
    for f in scaled:
        g = denom_lcm.gcd(f.denom)
        denom_lcm = denom_lcm * f.denom.divmod(g)[0]
    polys = []
    for f in scaled:
        q, r = denom_lcm.divmod(f.denom)
        assert r.is_zero
        polys.append(f.numer * q)
    offset = rec.offset
    for z in _integer_roots(ratio.numer) + _integer_roots(ratio.denom):
        offset = max(offset, z + 1)
    common = polys[0]
    for p in polys[1:]:
        common = common.gcd(p)
    if common.degree > 0 and all(z < offset for z in _integer_roots(common)):
        polys = [p.divmod(common)[0] for p in polys]
    return Recurrence(polys, offset=offset)


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------


def recurrence_to_text(rec: Recurrence) -> str:
    """Serialize as order/offset headers plus one ``c_k:`` line per coefficient."""
    lines = [f"order: {rec.order}", f"offset: {rec.offset}"]
    lines += [f"c_{k}: {poly_to_text(c)}" for k, c in enumerate(rec.coeffs)]
    return "\n".join(lines) + "\n"


def recurrence_from_text(text: str) -> Recurrence:
    order = None
    offset = 0
    coeffs: dict[int, Poly] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "order":
            order = int(value)
        elif key == "offset":
            offset = int(value)
        elif key.startswith("c_"):
            coeffs[int(key[2:])] = poly_from_text(value)
        else:
            raise ValueError(f"unrecognized line in recurrence spec: {raw!r}")
    if order is None:
        raise ValueError("recurrence spec is missing the order header")
    missing = [k for k in range(order + 1) if k not in coeffs]
    if missing:
        raise ValueError(f"recurrence spec is missing coefficients {missing}")
    return Recurrence([coeffs[k] for k in range(order + 1)], offset=offset)
