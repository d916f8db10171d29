"""Irregular continued fractions and their order-2 recurrence counterparts.

A continued fraction here is b0 + a1/(b1 + a2/(b2 + ...)) with partial
numerators a(n) and denominators b(n) given as rational functions of the
level n >= 1 (or as explicit finite lists).  Convergents C_n = B(n)/A(n)
are produced by the standard three-term recurrence with A(-1) = 0,
A(0) = 1, B(-1) = 1, B(0) = b0, and the translation to and from
second-order recurrences follows that correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from seqlim.arith import Poly, RatFunc, ratfunc_from_text, ratfunc_to_text
from seqlim.recurrence import Recurrence, rescale


class ContinuedFractionError(Exception):
    pass


class ZeroDenominatorConvergent(ContinuedFractionError):
    def __init__(self, n):
        self.n = n
        super().__init__(f"convergent denominator A({n}) = 0")


class NotReducible(ContinuedFractionError):
    pass


@dataclass(frozen=True)
class ContinuedFraction:
    """Partial numerators/denominators as rational functions or finite lists.

    ``a1`` optionally overrides the first partial numerator: a continued
    fraction built from a rescaled recurrence keeps its own leading
    numerator, which the generic a(n) formula does not cover.
    """

    b0: Fraction
    a: object  # RatFunc or tuple of Fractions (index 0 -> level 1)
    b: object
    a1: Fraction | None = None

    def a_at(self, n: int) -> Fraction:
        if n == 1 and self.a1 is not None:
            return self.a1
        if isinstance(self.a, RatFunc):
            return self.a(n)
        return Fraction(self.a[n - 1])

    def b_at(self, n: int) -> Fraction:
        if isinstance(self.b, RatFunc):
            return self.b(n)
        return Fraction(self.b[n - 1])

    def levels(self) -> int | None:
        if isinstance(self.a, RatFunc):
            return None
        return len(self.a)


def convergents(cf: ContinuedFraction, upto: int) -> list[Fraction]:
    """C_0, ..., C_upto; raises ZeroDenominatorConvergent on a vanishing A(n)."""
    if upto < 0:
        raise ValueError(f"convergent index must be >= 0, got {upto}")
    cap = cf.levels()
    if cap is not None and upto > cap:
        raise ValueError(f"finite continued fraction has only {cap} levels")
    a_prev, a_cur = Fraction(1), Fraction(1)  # A(-1), A(0)
    b_prev, b_cur = Fraction(1), Fraction(cf.b0)  # B(-1), B(0)
    a_prev = Fraction(0)
    if a_cur == 0:
        raise ZeroDenominatorConvergent(0)
    out = [b_cur / a_cur]
    for n in range(1, upto + 1):
        an, bn = cf.a_at(n), cf.b_at(n)
        a_prev, a_cur = a_cur, bn * a_cur + an * a_prev
        b_prev, b_cur = b_cur, bn * b_cur + an * b_prev
        if a_cur == 0:
            raise ZeroDenominatorConvergent(n)
        out.append(b_cur / a_cur)
    return out


def convergent(cf: ContinuedFraction, n: int) -> Fraction:
    """The exact n-th convergent C_n."""
    return convergents(cf, n)[n]


def to_recurrence(cf: ContinuedFraction) -> Recurrence:
    """Order-2 recurrence u(n) = b(n) u(n-1) + a(n) u(n-2) in shifted form."""
    if not isinstance(cf.a, RatFunc) or not isinstance(cf.b, RatFunc):
        raise ValueError("recurrence conversion needs rational-function entries")
    b2 = cf.b.shift(2)
    a2 = cf.a.shift(2)
    g = b2.denom.gcd(a2.denom)
    lead = b2.denom * a2.denom.divmod(g)[0]
    c1 = -b2.numer * lead.divmod(b2.denom)[0]
    c0 = -a2.numer * lead.divmod(a2.denom)[0]
    return Recurrence([c0, c1, lead], offset=-1)


_RESCALING_SEARCH = (
    RatFunc(Poly.const(1)),
    RatFunc(Poly([1, 1])),          # ratio of n!
    RatFunc(Poly([1, 1]) ** 2),     # ratio of (n!)^2
)


def from_recurrence(rec: Recurrence, rescaling: RatFunc | None = None) -> ContinuedFraction:
    """Continued fraction whose convergents are the quotients of ``rec``.

    The recurrence (order 2) must become u(n) = b(n) u(n-1) + a(n) u(n-2)
    with polynomial a, b after multiplying solutions by some f(n) with
    f(n+1)/f(n) = rescaling; if no rescaling is supplied the factorial-type
    ratios 1, n+1, (n+1)^2 are tried.  Raises NotReducible otherwise.
    """
    if rec.order != 2:
        raise ValueError("continued fractions correspond to order-2 recurrences")
    candidates = [rescaling] if rescaling is not None else list(_RESCALING_SEARCH)
    for ratio in candidates:
        scaled = rescale(rec, ratio)
        c0, c1, c2 = scaled.coeffs
        b_fn = RatFunc(-c1, c2).shift(-2)
        a_fn = RatFunc(-c0, c2).shift(-2)
        if not (b_fn.is_polynomial and a_fn.is_polynomial):
            continue
        return ContinuedFraction(b0=Fraction(0), a=a_fn, b=b_fn, a1=ratio(0))
    raise NotReducible(
        "no factorial-type rescaling brings the recurrence to continued-fraction form")


# ----------------------------------------------------------------------
# Built-in classical fractions
# ----------------------------------------------------------------------


def log_cf(x: Fraction) -> ContinuedFraction:
    """1/((2x+1) -) 1^2/(3(2x+1) -) ... converging to (1/2) log(1 + 1/x)."""
    x = Fraction(x)
    b = RatFunc(Poly([-(2 * x + 1), 2 * (2 * x + 1)]))  # (2n-1)(2x+1)
    a = RatFunc(-(Poly([-1, 1]) ** 2))                  # -(n-1)^2
    return ContinuedFraction(b0=Fraction(0), a=a, b=b, a1=Fraction(1))


def arctan_cf(z: Fraction) -> ContinuedFraction:
    """z/(1 +) z^2/(3 +) 4 z^2/(5 +) ... converging to arctan(z)."""
    z = Fraction(z)
    b = RatFunc(Poly([-1, 2]))                          # 2n - 1
    a = RatFunc(Poly([-1, 1]) ** 2 * (z * z))           # (n-1)^2 z^2
    return ContinuedFraction(b0=Fraction(0), a=a, b=b, a1=z)


# ----------------------------------------------------------------------
# Text format
# ----------------------------------------------------------------------


def cf_to_text(cf: ContinuedFraction) -> str:
    if not isinstance(cf.a, RatFunc) or not isinstance(cf.b, RatFunc):
        raise ValueError("only rational-function continued fractions serialize")
    lines = [f"b0: {cf.b0}"]
    if cf.a1 is not None:
        lines.append(f"a(1): {cf.a1}")
    lines.append(f"a(n): {ratfunc_to_text(cf.a)}")
    lines.append(f"b(n): {ratfunc_to_text(cf.b)}")
    return "\n".join(lines) + "\n"


def cf_from_text(text: str) -> ContinuedFraction:
    b0 = None
    a = b = a1 = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition(":")
        key = key.strip()
        value = value.strip()
        if key == "b0":
            b0 = Fraction(value)
        elif key == "a(1)":
            a1 = Fraction(value)
        elif key == "a(n)":
            a = ratfunc_from_text(value)
        elif key == "b(n)":
            b = ratfunc_from_text(value)
        else:
            raise ValueError(f"unrecognized line in continued-fraction spec: {raw!r}")
    if b0 is None or a is None or b is None:
        raise ValueError("continued-fraction spec needs b0, a(n) and b(n)")
    return ContinuedFraction(b0=b0, a=a, b=b, a1=a1)
