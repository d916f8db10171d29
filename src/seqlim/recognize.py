"""Constant evaluation, lattice reduction, and symbolic recognition.

The constant catalog evaluates each entry from elementary, precision-scalable
series: logarithms from atanh series, pi from a Machin-type combination of
the same series with alternating signs (both step their terms by integer
ratios), zeta values from Euler-Maclaurin-corrected partial sums, and the
quadratic Dirichlet L-values from paired Hurwitz-style sums with the same
Euler-Maclaurin tail.  Every evaluator is validated once per process against
a pinned 50-digit reference string.

Recognition runs LLL (Lovasz parameter 3/4, exact integer arithmetic) on the
standard lattice with one scaled real column and verifies every candidate
relation at higher precision before reporting it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Sequence

import mpmath
from mpmath import mpf

from seqlim.arith import GUARD_DIGITS, BigFloat, to_mpf


class RecognitionError(Exception):
    pass


class UnknownConstant(RecognitionError):
    def __init__(self, name):
        super().__init__(f"unknown constant {name!r}")


class PrecisionTooLow(RecognitionError):
    pass


class DependentRows(RecognitionError):
    pass


# ----------------------------------------------------------------------
# Series kernels (mpf arithmetic at explicit working precision)
# ----------------------------------------------------------------------


def _atanh_small(t: Fraction, dps: int, alternate: bool = False) -> mpf:
    """atanh(t), or atan(t) when ``alternate``, for |t| < 1 by direct series.

    Meant for small |t| = p/q: each term is the previous one times the
    integers p**2 and q**2, with no full-precision multiplication.
    """
    p2, q2 = t.numerator ** 2, t.denominator ** 2
    with mpmath.workdps(dps):
        term = to_mpf(t)
        total = mpf(0)
        k = 0
        floor = mpf(10) ** (-dps)
        while abs(term) > floor:
            total += -term / (2 * k + 1) if alternate and k % 2 else term / (2 * k + 1)
            term = term * p2 / q2
            k += 1
        return total


@cache
def bernoulli(m: int) -> Fraction:
    """Exact Bernoulli number B_m (B_1 = -1/2), cached."""
    return Fraction(*mpmath.bernfrac(m))


def _hurwitz_em(s: int, a: Fraction, dps: int) -> mpf:
    """sum over n >= 0 of (n+a)^-s by Euler-Maclaurin, exact tail coefficients.

    Direct sum to N, then integral + half-term + Bernoulli corrections at
    N + a; N is chosen so the asymptotic tail bottoms out below tolerance.
    """
    with mpmath.workdps(dps):
        cut = int(0.45 * dps) + 15
        af = to_mpf(a)
        total = mpf(0)
        for n in range(cut):
            total += (n + af) ** (-s)
        x = cut + af
        total += x ** (1 - s) / (s - 1)
        total += x ** (-s) / 2
        floor = mpf(10) ** (-dps)
        rising = mpf(s)
        power = x ** (-s - 1)
        k = 1
        while True:
            b = bernoulli(2 * k)
            term = to_mpf(b) / mpmath.factorial(2 * k) * rising * power
            total += term
            if abs(term) < floor:
                break
            # asymptotic series: must not be allowed to turn around
            rising *= (s + 2 * k - 1) * (s + 2 * k)
            power /= x * x
            k += 1
            if k > 4 * dps:
                raise RuntimeError("Euler-Maclaurin tail failed to reach tolerance")
        return total


def log_rational(value: Fraction, digits: int) -> BigFloat:
    """ln(p/q) for a positive rational, via 2 atanh((p-q)/(p+q))."""
    value = Fraction(value)
    if value <= 0:
        raise ValueError("logarithm argument must be positive")
    dps = digits + GUARD_DIGITS + 5
    t = Fraction(value.numerator - value.denominator, value.numerator + value.denominator)
    with mpmath.workdps(dps):
        return BigFloat(2 * _atanh_small(t, dps), digits)


def _eval_one(dps):
    return mpf(1)


def _eval_ln2(dps):
    with mpmath.workdps(dps):
        return 2 * _atanh_small(Fraction(1, 3), dps)


def _eval_pi(dps):
    with mpmath.workdps(dps):
        return (16 * _atanh_small(Fraction(1, 5), dps, alternate=True)
                - 4 * _atanh_small(Fraction(1, 239), dps, alternate=True))


def _eval_zeta(s):
    return lambda dps: _hurwitz_em(s, Fraction(1), dps)


def _eval_catalan(dps):
    # sum (-1)^n/(2n+1)^2, paired mod 4: (zeta(2,1/4) - zeta(2,3/4)) / 16
    with mpmath.workdps(dps):
        return (_hurwitz_em(2, Fraction(1, 4), dps)
                - _hurwitz_em(2, Fraction(3, 4), dps)) / 16


def _eval_l3(dps):
    # Legendre-symbol series mod 3: (zeta(2,1/3) - zeta(2,2/3)) / 9
    with mpmath.workdps(dps):
        return (_hurwitz_em(2, Fraction(1, 3), dps)
                - _hurwitz_em(2, Fraction(2, 3), dps)) / 9


_EVALUATORS = {
    "one": _eval_one,
    "ln2": _eval_ln2,
    "pi": _eval_pi,
    "zeta2": _eval_zeta(2),
    "zeta3": _eval_zeta(3),
    "zeta4": _eval_zeta(4),
    "zeta6": _eval_zeta(6),
    "zeta8": _eval_zeta(8),
    "catalan": _eval_catalan,
    "L3": _eval_l3,
}

#: 50-digit reference strings, produced once by an independent
#: arbitrary-precision oracle and pinned; evaluators are checked against
#: them on first use.
REFERENCE_50 = {
    "one": "1.0000000000000000000000000000000000000000000000000",
    "ln2": "0.6931471805599453094172321214581765680755001343602",
    "pi": "3.1415926535897932384626433832795028841971693993751",
    "zeta2": "1.6449340668482264364724151666460251892189499012067",
    "zeta3": "1.2020569031595942853997381615114499907649862923404",
    "zeta4": "1.0823232337111381915160036965411679027747509519187",
    "zeta6": "1.0173430619844491397145179297909205279018174900328",
    "zeta8": "1.0040773561979443393786852385086524652589607906498",
    "catalan": "0.9159655941772190150546035149323841107741493742816",
    "L3": "0.7813024128964862968671874296240923563651343365452",
}

CATALOG_NAMES = tuple(_EVALUATORS)

_validated = False
_CACHE: dict[tuple[str, int], BigFloat] = {}


def _validate_catalog():
    global _validated
    if _validated:
        return
    for name, evaluator in _EVALUATORS.items():
        got = BigFloat(evaluator(70), 70).str_digits(49)
        want = REFERENCE_50[name][:51]
        if got[:51] != want:
            raise RuntimeError(f"catalog self-check failed for {name}: {got} != {want}")
    _validated = True


def eval_constant(name: str, digits: int) -> BigFloat:
    """The named constant, correct to ``digits`` decimal digits."""
    if name not in _EVALUATORS:
        raise UnknownConstant(name)
    if digits < 10:
        raise ValueError("digits must be >= 10")
    _validate_catalog()
    key = (name, digits)
    if key not in _CACHE:
        _CACHE[key] = BigFloat(_EVALUATORS[name](digits + GUARD_DIGITS + 5), digits)
    return _CACHE[key]


# ----------------------------------------------------------------------
# LLL (exact integer arithmetic, Lovasz delta = 3/4)
# ----------------------------------------------------------------------


@dataclass
class LLLResult:
    basis: list[list[int]]
    transform: list[list[int]]  # unimodular: basis = transform @ input


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def lll_reduce(rows: Sequence[Sequence[int]], want_transform: bool = False):
    """LLL-reduced basis of the lattice spanned by the input rows.

    Uses the all-integer Gram-Schmidt representation (lambda/d arrays), so
    no rounding ever occurs; delta is fixed at 3/4.  Raises DependentRows
    if the rows are linearly dependent.  Returns the reduced rows, or an
    :class:`LLLResult` carrying the unimodular transform when requested.
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n == 0:
        raise ValueError("empty basis")
    h = [[int(i == j) for j in range(n)] for i in range(n)]

    lam = [[0] * n for _ in range(n)]
    d = [1] * (n + 1)

    def gram_row(i):
        for j in range(i + 1):
            u = _dot(b[i], b[j])
            for k in range(j):
                u = (d[k + 1] * u - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = u
            else:
                if u == 0:
                    raise DependentRows(f"row {i} is dependent on earlier rows")
                d[i + 1] = u

    for i in range(n):
        gram_row(i)

    def red(k, l):
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            h[k] = [x - q * y for x, y in zip(h[k], h[l])]
            for j in range(l):
                lam[k][j] -= q * lam[l][j]
            lam[k][l] -= q * d[l + 1]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
        h[k], h[k - 1] = h[k - 1], h[k]
        for j in range(k - 1):
            lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
        lam_ = lam[k][k - 1]
        bb = (d[k - 1] * d[k + 1] + lam_ * lam_) // d[k]
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_ * t) // d[k]
            lam[i][k - 1] = (bb * t + lam_ * lam[i][k]) // d[k + 1]
        d[k] = bb

    k = 1
    while k < n:
        red(k, k - 1)
        if 4 * (d[k + 1] * d[k - 1] + lam[k][k - 1] ** 2) < 3 * d[k] * d[k]:
            swap(k)
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1

    if want_transform:
        return LLLResult(basis=b, transform=h)
    return b


# ----------------------------------------------------------------------
# Integer relations and constant recognition
# ----------------------------------------------------------------------


def integer_relation(values: Sequence[BigFloat], max_coeff: int,
                     precision: int) -> list[int] | None:
    """Nonzero integer vector v with |sum(v_i x_i)| below tolerance, or None.

    Reduces the standard lattice whose rows are unit vectors augmented with
    the values scaled by 10**(precision-10); candidate rows are accepted
    only if the actual residual beats the tolerance and no coefficient
    exceeds ``max_coeff``.  The tolerance scales with the coefficient size:
    inputs correct to P digits can only push a relation with coefficients
    of size C down to about C * 10**-P, never below.
    """
    m = len(values)
    if m < 2:
        raise ValueError("need at least two values")
    if precision < 10 * m:
        raise PrecisionTooLow(f"precision {precision} < {10 * m} for {m} values")
    scale = 10 ** (precision - GUARD_DIGITS)
    fracs = [v.to_fraction() for v in values]
    rows = [[int(i == j) for j in range(m)] + [round(fracs[i] * scale)]
            for i in range(m)]
    reduced = lll_reduce(rows)
    tol = Fraction(10) ** (GUARD_DIGITS - precision)
    best = None
    for row in reduced:
        v = row[:m]
        if all(c == 0 for c in v):
            continue
        size = max(abs(c) for c in v)
        if size > max_coeff:
            continue
        residual = abs(sum(c * f for c, f in zip(v, fracs)))
        if residual < tol * max(1, size):
            if best is None or size < best[0]:
                best = (size, v)
    return best[1] if best else None


@dataclass(frozen=True)
class SymbolicForm:
    """A value recognized as a rational combination of catalog constants."""

    terms: tuple[tuple[str, Fraction], ...]
    residual: BigFloat

    def __str__(self):
        parts = []
        for name, q in self.terms:
            if q == 0:
                continue
            body = name if name != "one" else "1"
            parts.append(f"{q}*{body}" if q != 1 else body)
        return " + ".join(parts) if parts else "0"


def recognize_constant(value: BigFloat, basis: Sequence[str],
                       max_coeff: int = 10**12) -> SymbolicForm | None:
    """Identify ``value`` as a rational combination of the named constants.

    Discovery runs at two thirds of the supplied precision, on the value and
    the constants rounded from one full-precision evaluation each; a
    candidate is returned only if it still matches at the full precision
    (i.e. 1.5x the discovery precision), which filters lattice accidents.
    """
    names = list(basis)
    p_full = value.precision
    if p_full < 10 * (len(names) + 1):
        raise PrecisionTooLow(
            f"need {10 * (len(names) + 1)} digits for {len(names)} basis constants")
    p_disc = max((2 * p_full) // 3, 10 * (len(names) + 1))
    vals = [BigFloat(value.val, p_disc)]
    vals += [BigFloat(eval_constant(n, p_full).val, p_disc) for n in names]
    rel = integer_relation(vals, max_coeff, p_disc)
    if rel is None or rel[0] == 0:
        return None
    coeffs = [Fraction(-rel[i + 1], rel[0]) for i in range(len(names))]
    # verify at the full precision
    with mpmath.workdps(p_full + 10):
        acc = mpf(0)
        for name, q in zip(names, coeffs):
            acc += eval_constant(name, p_full).val * mpf(q.numerator) / mpf(q.denominator)
        residual = abs(acc - value.val)
        if residual >= mpf(10) ** (GUARD_DIGITS - p_full):
            return None
    return SymbolicForm(terms=tuple(zip(names, coeffs)),
                        residual=BigFloat(residual, p_full))
