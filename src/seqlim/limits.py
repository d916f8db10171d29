"""Quotient limits of recurrence solutions and their diagnostics.

Everything that looks at B(n)/A(n): exact quotient sequences, the
telescoping identity Q(n) - Q(n-1) = w(n-1)/(A(n-1) A(n)) on the Casoratian
partial sums of :mod:`seqlim.recurrence`, geometrically-certified limit
extraction, difference-ratio limits, decay of linear forms, limits of
series coefficients in a parameter, and the vanishing-initial-condition
constructions for secondary and tertiary solutions of the power-sum
families.

Certification here is the observed-geometric-tail heuristic: the reported
error bound |L - Q(N)| <= |dQ(N)| rho/(1-rho) uses the largest difference
ratio rho seen over the last ten steps and is rechecked by the test suite
at doubled precision, but it is not a proof.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, log10
from typing import Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import to_rational

from seqlim.arith import (
    GUARD_DIGITS,
    OO,
    BigFloat,
    Infinity,
    RatFunc,
    nullspace,
    rational_from_decimal,
    ratfunc_series,
    row_reduce,
    to_mpf,
)
from seqlim.recurrence import (
    InitialConditions,
    Recurrence,
    SolutionTable,
    ZeroDenominatorTerm,
    casoratian,
    casoratian_sums,
)
from seqlim.recognize import eval_constant, integer_relation, recognize_constant
from seqlim.sums import FamilySpec, guessed_family_recurrence


class LimitError(Exception):
    pass


class NotConverging(LimitError):
    pass


class NoStabilization(LimitError):
    """Series coefficients did not settle; carries the raw per-n tables."""

    def __init__(self, message, coefficient_table=None):
        self.coefficient_table = coefficient_table or {}
        super().__init__(message)


class UnderdeterminedSolution(LimitError):
    def __init__(self, dim):
        self.dim = dim
        super().__init__(f"solution space has dimension {dim}, expected 1")


class RecognitionFailed(LimitError):
    pass


class DegenerateSystem(LimitError):
    pass


# ----------------------------------------------------------------------
# Exact quotient sequences
# ----------------------------------------------------------------------


def quotients(primary: SolutionTable, secondary: SolutionTable, upto: int) -> list[Fraction]:
    """Exact Q(n) = secondary(n) / primary(n) for n = 0..upto."""
    primary.evaluate(upto)
    secondary.evaluate(upto)
    out = []
    for n in range(upto + 1):
        a = primary.term(n)
        if a == 0:
            raise ZeroDenominatorTerm(n)
        out.append(secondary.term(n) / a)
    return out


def difference_identity_check(primary: SolutionTable, secondary: SolutionTable,
                              upto: int) -> bool:
    """Exact check of Q(n) - Q(n-1) = w(n-1)/(A(n-1) A(n)) for 1 <= n <= upto."""
    rec = primary.recurrence
    if rec.order != 2:
        raise ValueError("difference identity requires an order-2 recurrence")
    q = quotients(primary, secondary, upto)
    w0 = casoratian(rec, [primary, secondary], 0)
    return all(qn - q[0] == s for qn, s in zip(q, casoratian_sums(rec, primary, w0, upto)))


def telescoped_partial_sums(rec: Recurrence, primary: SolutionTable,
                            upto: int) -> list[Fraction]:
    """Exact partial sums of w(n-1)/(A(n-1) A(n)) from w(0) = A(0), the
    Casoratian for (B(0), B(1)) = (0, 1); they equal Q(n) when B(0) = 0."""
    return casoratian_sums(rec, primary, primary.term(0), upto)


# ----------------------------------------------------------------------
# Certified limit extraction
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ConvergenceReport:
    terms_used: int
    limit_estimate: BigFloat
    digit_agreement: tuple[tuple[int, int], ...]
    difference_ratio: BigFloat
    certified_digits: int


_RATIO_WINDOW = 10

#: Terms after which apery_limit gives up on a certificate.
_MAX_TERMS = 20000


def _decimal_places(num: int, den: int) -> int:
    """floor(-log10(num/den)) for positive integers, exactly.

    The bit lengths give the answer to within one; integer comparisons
    against a power of ten settle it.
    """
    def at_most(k):  # num/den <= 10**-k
        return num * 10**k <= den if k >= 0 else num <= den * 10**-k

    k = int((den.bit_length() - num.bit_length()) * 0.30103)
    while not at_most(k):
        k -= 1
    while at_most(k + 1):
        k += 1
    return k


def apery_limit(primary: SolutionTable, secondary: SolutionTable,
                target_digits: int) -> ConvergenceReport:
    """Estimate lim secondary/primary with a geometric tail certificate.

    Extends the exact quotient sequence until the bound
    |dQ(N)| rho/(1-rho) (rho = max |dQ(n)/dQ(n-1)| over the last ten steps,
    required < 1) certifies ``target_digits`` decimal places, stepping at
    most _MAX_TERMS terms.  Every A(n) with 0 <= n <= N is checked to be
    nonzero, but Q(n) is computed only where the certificate reads it.
    """
    prec = target_digits + 25
    n = max(24, 2 * _RATIO_WINDOW + 4)
    checked = -1  # A(0..checked) are known to be nonzero
    cache: dict[int, Fraction] = {}

    def q(i: int) -> Fraction:
        if i not in cache:
            cache[i] = secondary.term(i) / primary.term(i)
        return cache[i]

    while True:
        primary.evaluate(n)
        secondary.evaluate(n)
        for i in range(checked + 1, n + 1):
            if not primary.nonzero(i):
                raise ZeroDenominatorTerm(i)
            if i == 0:
                secondary.term(0)  # a B that starts after index 0 fails here
        checked = n
        with mpmath.workdps(prec + 10):
            diffs = [q(i) - q(i - 1) for i in range(n - _RATIO_WINDOW - 1, n + 1)]
            if any(d == 0 for d in diffs):
                raise NotConverging("zero quotient differences; nothing to extrapolate")
            fd = [to_mpf(d) for d in diffs]
            ratios = [abs(fd[i + 1] / fd[i]) for i in range(len(fd) - 1)]
            rho = max(ratios[-_RATIO_WINDOW:])
            if rho < 1:
                bound = abs(fd[-1]) * rho / (1 - rho)
                certified = _decimal_places(*to_rational(bound._mpf_))
                certified = min(certified, prec - GUARD_DIGITS)
                if certified >= target_digits:
                    samples = []
                    for m in range(max(2, n // 8), n, max(1, n // 8)):
                        gap = abs(q(m) - q(n))
                        agreed = prec if gap == 0 else max(
                            0, _decimal_places(gap.numerator, gap.denominator))
                        samples.append((m, agreed))
                    # tag the estimate with its honest precision: certified
                    # digits plus the guard, never the working precision
                    return ConvergenceReport(
                        terms_used=n,
                        limit_estimate=BigFloat.from_rational(
                            q(n), certified + GUARD_DIGITS),
                        digit_agreement=tuple(samples),
                        difference_ratio=BigFloat(rho, prec),
                        certified_digits=certified,
                    )
        if n >= _MAX_TERMS:
            raise NotConverging(
                f"no certificate after {n} terms (last ratio window {ratios[-3:]})")
        n = min(_MAX_TERMS, max(n + 8, (3 * n) // 2))


def extrapolate_power_tail(values: Sequence[Fraction], indices: Sequence[int],
                           precision: int) -> BigFloat:
    """Limit of v(n) ~ L + c1/n + c2/n^2 + ... by exact Neville extrapolation.

    Interpolates the points (1/n, v(n)) by a polynomial in exact rational
    arithmetic and evaluates it at 0; the result from all points must agree
    with the one from two fewer points within tolerance, otherwise the tail
    is not (yet) a clean power series in 1/n and NotConverging is raised.
    """
    if len(values) != len(indices) or len(values) < 4:
        raise ValueError("need at least four (value, index) samples")

    def neville(xs, ys):
        cur = list(ys)
        for level in range(1, len(xs)):
            nxt = []
            for i in range(len(cur) - 1):
                # value at 0 of the interpolant through xs[i..i+level]
                nxt.append((xs[i] * cur[i + 1] - xs[i + level] * cur[i])
                           / (xs[i] - xs[i + level]))
            cur = nxt
        return cur[0]

    xs = [Fraction(1, n) for n in indices]
    full = neville(xs, list(values))
    shorter = neville(xs[2:], list(values[2:]))
    tol = Fraction(10) ** (GUARD_DIGITS - precision)
    if abs(full - shorter) >= tol * max(1, abs(full)):
        raise NotConverging(
            f"extrapolated tail still moving: {float(shorter)} -> {float(full)}")
    return BigFloat.from_rational(full, precision)


def difference_ratio_limit(primary: SolutionTable, secondary: SolutionTable,
                           upto: int, precision: int = 30) -> BigFloat:
    """Limit of (Q(n+1) - Q(n)) / (Q(n) - Q(n-1)) as a BigFloat.

    The raw ratios drift like 1/n, so the exact ratio sequence is pushed to
    its limit by power-tail extrapolation; for order-2 recurrences the
    result matches the characteristic-root ratio within tolerance.
    """
    q = quotients(primary, secondary, upto)
    diffs = [q[i + 1] - q[i] for i in range(upto)]
    if len(diffs) < 8:
        raise NotConverging("need more quotient differences")
    if any(d == 0 for d in diffs[-min(len(diffs), upto - 1):]):
        raise NotConverging("zero quotient differences")
    points = min(max(precision + 6, 16), len(diffs) - 1, 44)
    indices = range(upto - points, upto)
    ratios = [diffs[n] / diffs[n - 1] for n in indices]
    return extrapolate_power_tail(ratios, list(indices), precision)


def linear_form_decay(primary: SolutionTable, secondary: SolutionTable,
                      limit_value: BigFloat, scale: Fraction, upto: int) -> list[BigFloat]:
    """Values A(n) * L - scale * B(n) for n = 0..upto at L's precision."""
    prec = limit_value.precision
    primary.evaluate(upto)
    secondary.evaluate(upto)
    scale = Fraction(scale)
    out = []
    with mpmath.workdps(prec):
        for n in range(upto + 1):
            a, b = primary.term(n), secondary.term(n)
            val = to_mpf(a) * limit_value.val - to_mpf(scale) * to_mpf(b)
            out.append(BigFloat(val, prec))
    return out


# ----------------------------------------------------------------------
# Series-valued limits in the x parameter
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SeriesLimit:
    center: object
    coefficients: tuple[tuple[int, Fraction], ...]  # (k, stabilized value)
    stable_through: int


#: Largest denominator series_limit recognizes in a stabilized coefficient.
_SERIES_MAX_DENOMINATOR = 10**6


def series_limit(a_polys: Sequence, b_polys: Sequence, center,
                 order: int) -> SeriesLimit:
    """Stabilized expansion coefficients of Q_x(n) = B_x(n)/A_x(n) as n grows.

    At a finite center each coefficient sequence is recognized as a rational
    of denominator at most _SERIES_MAX_DENOMINATOR (tolerance taken from its
    own convergence rate) and must agree exactly over the last three n; the
    k = 0 coefficient is exempt, since it converges to the quotient limit
    itself, which is typically not rational.  At infinity the expansion of
    the last n is trusted through order 2n and cross-checked against the
    previous n.
    """
    n_max = len(a_polys) - 1
    if len(b_polys) != len(a_polys):
        raise ValueError("need matching A and B polynomial lists")
    if isinstance(center, Infinity):
        stable = min(order, 2 * n_max)
        cur = ratfunc_series(RatFunc(b_polys[n_max], a_polys[n_max]), OO, stable)
        prev_stable = min(order, 2 * (n_max - 1))
        prev = ratfunc_series(RatFunc(b_polys[n_max - 1], a_polys[n_max - 1]), OO,
                              prev_stable)
        if cur[: prev_stable + 1] != prev[: prev_stable + 1]:
            raise NoStabilization(
                "expansions at infinity disagree inside the guaranteed range")
        return SeriesLimit(center=OO, coefficients=tuple(enumerate(cur)),
                           stable_through=stable)

    center = Fraction(center)
    rows = {k: [] for k in range(order + 1)}
    for n in range(n_max + 1):
        s = ratfunc_series(RatFunc(b_polys[n], a_polys[n]), center, order)
        for k in range(order + 1):
            rows[k].append(s[k])

    def recognize(seq, n):
        # tolerance a few orders looser than the observed convergence gap
        gap = abs(seq[n] - seq[n - 1])
        if gap == 0:
            return seq[n] if seq[n].denominator <= _SERIES_MAX_DENOMINATOR else None
        gap_log = log10(gap.numerator) - log10(gap.denominator)
        prec = int(-gap_log) + GUARD_DIGITS - 3
        if prec < 10:
            return None
        return rational_from_decimal(BigFloat.from_rational(seq[n], prec),
                                     _SERIES_MAX_DENOMINATOR)

    stabilized = []
    table = {}
    for k in range(1, order + 1):
        cands = [recognize(rows[k], n) for n in (n_max - 2, n_max - 1, n_max)]
        if None in cands or len({c for c in cands}) != 1:
            table[k] = [(n, rows[k][n]) for n in range(n_max + 1)]
        else:
            stabilized.append((k, cands[0]))
    if table:
        raise NoStabilization(
            f"coefficients {sorted(table)} do not stabilize at x = {center}",
            coefficient_table=table)
    return SeriesLimit(center=center, coefficients=tuple(stabilized),
                       stable_through=order)


# ----------------------------------------------------------------------
# Power-sum secondary and tertiary solutions
# ----------------------------------------------------------------------


def _negative_index_rows(rec: Recurrence) -> list[list[Fraction]]:
    """Constraints on (u(0), ..., u(m-1)) from the relation at n = -1, -2, ...

    Terms at negative indices are taken as zero, so the relation at n = -j
    reads sum(c_k(-j) u(k-j), k >= j) = 0.
    """
    m = rec.order
    rows = []
    for j in range(1, m + 1):
        cs = rec.coeffs_at(-j)
        row = [Fraction(0)] * m
        for k in range(j, m + 1):
            if k - j < m:
                row[k - j] += cs[k]
        rows.append(row)
    return rows


def vanishing_start_solution(rec: Recurrence, upto: int,
                             extra_pins: Sequence[tuple[int, Fraction]] = ()) -> SolutionTable:
    """The solution pinned by u(0)=0, u(1)=1 and the negative-index relations.

    Relations at n = -1, -2, ... (with u(n) = 0 for n < 0) are imposed one
    at a time until the space of candidate initial vectors is a line; any
    ``extra_pins`` (index, value-times-u(1)) resolve a leftover dimension,
    as the d = 10 power-sum family requires.  UnderdeterminedSolution
    reports the remaining freedom if the line is never reached.
    """
    m = rec.order
    if m == 2:
        table = SolutionTable(rec, InitialConditions(0, [0, 1]))
        table.evaluate(upto)
        return table
    rows = [[Fraction(1 if i == 0 else 0) for i in range(m)]]
    basis = nullspace(rows, m)
    for row in _negative_index_rows(rec):
        if len(basis) == 1:
            break
        rows.append(row)
        basis = nullspace(rows, m)
    if len(basis) > 1 and extra_pins:
        for idx, val in extra_pins:
            row = [Fraction(0)] * m
            row[idx] = Fraction(1)
            row[1] = -Fraction(val)  # u(idx) = val * u(1)
            rows.append(row)
        basis = nullspace(rows, m)
    if len(basis) != 1:
        raise UnderdeterminedSolution(len(basis))
    v = basis[0]
    if v[1] == 0:
        raise UnderdeterminedSolution(0)
    v = [q / v[1] for q in v]
    table = SolutionTable(rec, InitialConditions(0, v))
    table.evaluate(upto)
    return table


#: The supported power-sum (franel) families, d -> (kills, pins).  ``kills``
#: are the constants the franel-zeta4 tertiary solve cancels (none where the
#: order leaves no free value); ``pins`` fix the dimension that the
#: negative-index relations leave open in the secondary solution.
POWER_SUMS = {3: ((), ()), 4: ((), ()), 5: (("zeta2",), ()), 6: (("zeta2",), ()),
              7: (("zeta2", "zeta6"), ()), 8: (("zeta2", "zeta6"), ()),
              9: (("zeta2", "zeta6", "zeta8"), ()),
              10: (("zeta2", "zeta6", "zeta8"), ((2, Fraction(381, 4)),))}


def franel_secondary(d: int, upto: int, rec: Recurrence | None = None) -> SolutionTable:
    """Secondary solution B for the d-th power-sum family, cached to ``upto``."""
    if d not in POWER_SUMS:
        raise ValueError(f"power-sum secondary construction supports d in "
                         f"{min(POWER_SUMS)}..{max(POWER_SUMS)}")
    if rec is None:
        rec = guessed_family_recurrence(FamilySpec("franel", d=d))
    return vanishing_start_solution(rec, upto, POWER_SUMS[d][1])


# ----------------------------------------------------------------------
# Vanishing-component solver for tertiary limits
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class VanishingSolve:
    free_values: tuple[Fraction, ...]   # u(2), ..., u(m-1)
    target: str
    multiple: Fraction                   # limit = multiple * target
    limit_value: BigFloat
    init_values: tuple[Fraction, ...]


#: Terms after which _float_quotient_limits gives up on a quotient.
_FLOAT_MAX_TERMS = 6000


def _float_quotient_limits(rec: Recurrence, inits: Sequence[Sequence[Fraction]],
                           primary_init: Sequence[Fraction],
                           precision: int) -> list[BigFloat]:
    """lim u(n)/a(n) for every initial vector in ``inits``, in one forward pass.

    The primary a(n) and every u(n) step together in fixed point: each
    keeps its last m terms as integer mantissas that share one binary
    exponent, and all share one integer coefficient row per step.  When
    the primary outgrows twice the mantissa width, every live sequence is
    shifted right by the same amount.  Forward evaluation tracks the
    dominant solution, so relative error stays near 2**-bits.  Each u keeps
    its own stopping rule: at the first checkpoint where five extra steps
    moved its quotient by less than 10**-(precision+8) its limit is
    recorded and it stops stepping.
    """
    m = rec.order
    bits = int((precision + 40) * 3.33) + 64
    one, scale = 1 << bits, 10 ** (precision + 8)
    a, *us = [[floor(Fraction(v) * one) for v in values] for values in [primary_init, *inits]]
    last, out = [None] * len(us), [None] * len(us)
    active = list(range(len(us)))
    n = m - 1
    checkpoint = max(2 * m, 12)
    while n < _FLOAT_MAX_TERMS:
        *cs, lead = rec.coeffs_at(n - m + 1)
        live = [a] + [us[j] for j in active]
        for seq in live:
            seq.append(-sum(c * u for c, u in zip(cs, seq)) // lead)
            del seq[0]
        n += 1
        if a[-1].bit_length() > 2 * bits:
            shift = a[-1].bit_length() - bits
            for seq in live:
                seq[:] = [u >> shift for u in seq]
        if n >= checkpoint:
            if a[-1] == 0:
                raise ZeroDenominatorTerm(n)
            for j in list(active):
                cur = (us[j][-1] << bits) // a[-1]
                if last[j] is not None and abs(cur - last[j]) * scale < one:
                    out[j] = BigFloat(Fraction(cur, one), precision)
                    active.remove(j)
                last[j] = cur
            if not active:
                return out
            checkpoint = n + 5
    raise NotConverging(f"quotient still moving after {_FLOAT_MAX_TERMS} terms")


def solve_vanishing_init(rec: Recurrence, primary_init: Sequence[Fraction],
                         target: str, kill: Sequence[str],
                         precision: int) -> VanishingSolve:
    """Free initial values making lim u/A a pure multiple of ``target``.

    Starting from u(0) = 0, u(1) = 1, the remaining initial values
    u(2), ..., u(m-1) are chosen so the limit's components along the
    ``kill`` constants cancel.  Each basis solution's limit is recognized
    over kill + [target]; when those limits involve constants outside that
    span (as happens for the deepest power-sum families), the solver falls
    back to a single integer relation among the basis limits and the target,
    which encodes the same cancellation.  The result is verified numerically
    at the requested precision before it is returned.
    """
    m = rec.order
    nfree = m - 2
    if nfree < 1:
        raise ValueError("need an order >= 3 recurrence (no free initial values)")
    if len(kill) != nfree:
        raise DegenerateSystem(
            f"{nfree} free values cannot cancel {len(kill)} components")
    basis_names = list(kill) + [target]
    inits = [[Fraction(0), Fraction(1)] + [Fraction(0)] * nfree]
    for i in range(nfree):
        v = [Fraction(0)] * m
        v[2 + i] = Fraction(1)
        inits.append(v)

    discovery = max(precision, 10 * (m + 2), 70)
    solution = None
    while True:
        limits = _float_quotient_limits(rec, inits, primary_init, discovery)
        solution = _cancel_by_recognition(limits, basis_names, target, nfree)
        if solution is None:
            solution = _cancel_by_direct_relation(limits, target, nfree, discovery)
        if solution is not None and _relation_survives(solution, rec, inits,
                                                       primary_init, target,
                                                       discovery + 40):
            break
        solution = None
        if discovery >= 6 * max(precision, 70):
            raise RecognitionFailed(
                f"basis limits not recognized at up to {discovery} digits")
        discovery = (8 * discovery) // 5

    t_values, lam = solution
    init = [Fraction(0), Fraction(1)] + list(t_values)
    check, = _float_quotient_limits(rec, [init], primary_init, precision)
    with mpmath.workdps(precision + 10):
        expected = eval_constant(target, precision).val \
            * mpf(lam.numerator) / mpf(lam.denominator)
        if abs(check.val - expected) >= mpf(10) ** (GUARD_DIGITS - precision) \
                * max(1, abs(expected)):
            raise RecognitionFailed(
                "cancellation candidate failed the numerical re-check")
    return VanishingSolve(free_values=tuple(t_values), target=target,
                          multiple=lam, limit_value=check,
                          init_values=tuple(init))


def _cancel_by_recognition(limits, basis_names, target, nfree):
    """Spec route: recognize every basis limit, then solve the kill system."""
    combos = []
    for val in limits:
        form = recognize_constant(val, basis_names, max_coeff=10**14)
        if form is None:
            return None
        combos.append(dict(form.terms))
    kill_names = basis_names[:-1]
    rows = [[combos[1 + i].get(name, Fraction(0)) for i in range(nfree)]
            for name in kill_names]
    rhs = [-combos[0].get(name, Fraction(0)) for name in kill_names]
    pivots, reduced, _ = row_reduce([r + [b] for r, b in zip(rows, rhs)], nfree)
    if len(pivots) < nfree:
        raise DegenerateSystem("kill components are linearly dependent")
    sol = [r[-1] for r in reduced]
    lam = combos[0].get(target, Fraction(0)) \
        + sum(t * combos[1 + i].get(target, Fraction(0)) for i, t in enumerate(sol))
    return sol, lam


def _cancel_by_direct_relation(limits, target, nfree, discovery):
    """Fallback: one integer relation among the basis limits and the target.

    The coefficient budget scales with the available precision: a relation
    among k values can only be trusted when the data carries roughly
    k * digits(coefficients) digits beyond the guard.
    """
    tgt = eval_constant(target, discovery)
    values = list(limits) + [tgt]
    cap = 10 ** max(4, (discovery - 30) // len(values))
    rel = integer_relation(values, max_coeff=cap, precision=discovery)
    if rel is None:
        return None
    if rel[0] == 0:
        raise DegenerateSystem("relation does not involve the base solution")
    t_values = [Fraction(rel[1 + i], rel[0]) for i in range(nfree)]
    lam = Fraction(-rel[-1], rel[0])
    return t_values, lam


def _relation_survives(solution, rec, inits, primary_init, target, precision):
    """Re-verify a cancellation candidate on fresh higher-precision limits.

    A lattice accident that fit the discovery data cannot track the true
    limits 40 digits deeper, so this is the false-positive filter.
    """
    t_values, lam = solution
    limits = _float_quotient_limits(rec, inits, primary_init, precision)
    with mpmath.workdps(precision + 10):
        acc = limits[0].val
        for t, lv in zip(t_values, limits[1:]):
            acc += to_mpf(t) * lv.val
        expected = eval_constant(target, precision).val \
            * mpf(lam.numerator) / mpf(lam.denominator)
        size = max(1, abs(lam.numerator), abs(lam.denominator),
                   *(max(abs(t.numerator), abs(t.denominator)) for t in t_values))
        return abs(acc - expected) < mpf(10) ** (GUARD_DIGITS - precision) * size

