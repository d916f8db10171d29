"""Constant evaluation, lattice reduction, and symbolic recognition.

Each series constant is summed exactly by binary splitting (Haible-Papanikolaou
1998) and rounded once: logarithms from atanh series, pi by Machin's formula,
zeta(3) by Amdeberhan-Zeilberger, Catalan's constant by a Hessami Pilehrood
series, L3 from pi, zeta(3) and sum 1/(n^3 C(2n,n)), zeta(2k) as pi^(2k) times
a pinned rational.  Each evaluator is checked once per process against a
pinned 50-digit string.  Recognition runs exact-integer LLL (delta 3/4) on the
standard lattice with one scaled real column, at doubling precision levels up
to the full one, and verifies each candidate relation at higher precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath
from mpmath import mpf
from mpmath.libmp import from_int, mpf_div, round_nearest

from seqlim.arith import GUARD_DIGITS, BigFloat


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
# Series kernel (exact integers, binary splitting)
# ----------------------------------------------------------------------


def _series(term, start: int, stop: int) -> tuple[int, int]:
    """sum over start <= k < stop of a_k/b_k * prod over start <= j <= k of
    p_j/q_j, where term(k) = (a_k, b_k, p_k, q_k), as an exact (numerator,
    denominator) pair.

    A series gaining r digits a term takes dps / r + 10 terms for dps digits;
    the ten spare terms absorb the polynomial factors of the term sizes.
    """
    def split(lo, hi):  # (P, Q, B, T) with T = B * Q * the sum over lo..hi-1
        if hi - lo == 1:
            a, b, p, q = term(lo)
            return p, q, b, a * p
        mid = (lo + hi) // 2
        p1, q1, b1, t1 = split(lo, mid)
        p2, q2, b2, t2 = split(mid, hi)
        return p1 * p2, q1 * q2, b1 * b2, b2 * q2 * t1 + b1 * p1 * t2

    _, q, b, t = split(start, stop)
    return t, b * q


def _ratio(num: int, den: int) -> mpf:
    """num/den rounded once at the ambient precision."""
    return mpmath.mp.make_mpf(mpf_div(from_int(num), from_int(den),
                                      mpmath.mp.prec, round_nearest))


def _atanh_small(t: Fraction, dps: int, alternate: bool = False) -> mpf:
    """atanh(t), or atan(t) when ``alternate``, for |t| < 1, to 10**-dps."""
    p, q = t.numerator, t.denominator
    with mpmath.workdps(dps):
        if p == 0:
            return mpf(0)
        # the tail after N terms is below |t|**(2N+1) / (1 - t**2)
        n = math.ceil((dps + math.log10(q * q / (q * q - p * p)))
                      / (2 * math.log10(q / abs(p)))) + 1
        p2 = -p * p if alternate else p * p
        return _ratio(*_series(lambda k: (1, 2 * k + 1, p2 if k else p, q * q if k else q),
                               0, n))


def _eval_ln2(dps):
    with mpmath.workdps(dps):
        return 2 * _atanh_small(Fraction(1, 3), dps)


def _eval_pi(dps):
    with mpmath.workdps(dps):
        return (16 * _atanh_small(Fraction(1, 5), dps, alternate=True)
                - 4 * _atanh_small(Fraction(1, 239), dps, alternate=True))


def _eval_zeta3(dps):
    # Amdeberhan-Zeilberger (1997): zeta(3) = 1/64 sum_{k>=0} (-1)^k (k!)^10
    # (205k^2 + 250k + 77) / ((2k+1)!)^5; the term ratio tends to -1/1024
    num, den = _series(lambda k: (205 * k * k + 250 * k + 77, 1, -k ** 5 if k else 1,
                                  32 * (2 * k + 1) ** 5 if k else 1), 0, int(dps / 3) + 10)
    with mpmath.workdps(dps):
        return _ratio(num, 64 * den)


def _eval_catalan(dps):
    # Hessami Pilehrood: G = 1/64 sum_{k>=1} 256^k (580k^2 - 184k + 15) /
    # (k^3 (2k-1) C(6k,3k) C(6k,4k) C(4k,2k)); with the factor k^3 (2k-1) moved
    # into the next term ratio, the term ratio tends to 1/182.25
    num, den = _series(lambda k: (580 * k * k - 184 * k + 15, 1,
                                  32 * (k - 1) ** 3 * (2 * k - 3) if k > 1 else 1,
                                  9 * (6 * k - 1) ** 2 * (6 * k - 5) ** 2),
                       1, int(dps / 2.26) + 11)
    with mpmath.workdps(dps):
        return _ratio(num, 2 * den)


def _eval_l3(dps):
    # L3 = 2/(pi sqrt 3) * (S + 4/3 zeta(3)) with S = sum_{k>=1} 1/(k^3 C(2k,k));
    # with one factor k of 1/k^3 moved into the next term ratio, the term ratio
    # tends to 1/4
    num, den = _series(lambda k: (1, k * k, k - 1 if k > 1 else 1, 2 * (2 * k - 1)),
                       1, int(dps / 0.6) + 11)
    work = dps + 5
    with mpmath.workdps(work):
        s = _ratio(num, den) + 4 * _eval_zeta3(work) / 3
        return 2 * s / (_eval_pi(work) * mpmath.sqrt(3))


#: zeta(2k) / pi^(2k) = |B_2k| 2^(2k-1) / (2k)!
_ZETA_EVEN = {2: Fraction(1, 6), 4: Fraction(1, 90), 6: Fraction(1, 945), 8: Fraction(1, 9450)}


def _eval_zeta_even(s, dps):
    with mpmath.workdps(dps + 5):
        return _eval_pi(dps + 5) ** s * _ZETA_EVEN[s].numerator / _ZETA_EVEN[s].denominator


_EVALUATORS = {
    "one": lambda dps: mpf(1),
    "ln2": _eval_ln2,
    "pi": _eval_pi,
    "zeta2": lambda dps: _eval_zeta_even(2, dps),
    "zeta3": _eval_zeta3,
    "zeta4": lambda dps: _eval_zeta_even(4, dps),
    "zeta6": lambda dps: _eval_zeta_even(6, dps),
    "zeta8": lambda dps: _eval_zeta_even(8, dps),
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


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def lll_reduce(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """LLL-reduced basis of the lattice spanned by the input rows.

    Uses the all-integer Gram-Schmidt representation (lambda/d arrays), so
    no rounding ever occurs; delta is fixed at 3/4.  Raises DependentRows
    if the rows are linearly dependent.
    """
    b = [list(map(int, r)) for r in rows]
    n = len(b)
    if n == 0:
        raise ValueError("empty basis")

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
            for j in range(l):
                lam[k][j] -= q * lam[l][j]
            lam[k][l] -= q * d[l + 1]

    def swap(k):
        b[k], b[k - 1] = b[k - 1], b[k]
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

    return b


# ----------------------------------------------------------------------
# Integer relations and constant recognition
# ----------------------------------------------------------------------


def integer_relation(values: Sequence[BigFloat], max_coeff: int,
                     precision: int) -> list[int] | None:
    """Nonzero integer vector v with |sum(v_i x_i)| below tolerance, or None.

    Reduces the standard lattice whose rows are unit vectors augmented with
    the values scaled by 10**(level-10), at level = 12m + 20 digits for m
    values and then doubling up to ``precision`` until a reduced row passes.
    A row passes only if its residual against the full-precision values
    beats the tolerance and no coefficient exceeds ``max_coeff``.  The
    tolerance scales with the coefficient size: inputs correct to P digits
    can only push a relation with coefficients of size C down to about
    C * 10**-P, never below.
    """
    m = len(values)
    if m < 2:
        raise ValueError("need at least two values")
    if precision < 10 * m:
        raise PrecisionTooLow(f"precision {precision} < {10 * m} for {m} values")
    fracs = [v.to_fraction() for v in values]
    tol = Fraction(10) ** (GUARD_DIGITS - precision)
    level = min(precision, 12 * m + 20)
    while True:
        scale = 10 ** (level - GUARD_DIGITS)
        rows = [[int(i == j) for j in range(m)] + [round(fracs[i] * scale)]
                for i in range(m)]
        passing = []
        for row in lll_reduce(rows):
            v = row[:m]
            size = max(abs(c) for c in v)
            if 0 < size <= max_coeff and abs(sum(c * f for c, f in zip(v, fracs))) < tol * size:
                passing.append((size, v))
        if passing or level == precision:  # the first row of least size
            return min(passing, key=lambda sv: sv[0])[1] if passing else None
        level = min(2 * level, precision)


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
