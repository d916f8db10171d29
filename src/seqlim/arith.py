"""Exact and high-precision arithmetic kernels.

Rationals are plain :class:`fractions.Fraction` (always reduced, positive
denominator).  On top of those this module provides

- :class:`BigFloat` -- an arbitrary-precision real that carries its working
  precision (decimal digits) with every value,
- :class:`Poly` -- dense univariate polynomials with rational coefficients,
- :class:`RatFunc` -- reduced rational functions, with truncated
  expansions around a finite point or around infinity.

Everything here is immutable and side-effect free.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

import mpmath
from mpmath import mpf

RationalLike = Union[int, Fraction]

#: Guard digits carried by every high-precision pipeline.  Comparisons and
#: recognition at precision P use the tolerance 10**-(P - GUARD_DIGITS).
GUARD_DIGITS = 10

#: Continued-fraction expansions of decimals are cut at the first partial
#: quotient above this bound (the classic "huge quotient" rationality test).
HUGE_QUOTIENT = 10**8


class PoleAtCenter(ArithmeticError):
    """The denominator vanishes at the requested expansion center."""


# ----------------------------------------------------------------------
# BigFloat
# ----------------------------------------------------------------------


class Infinity:
    """Sentinel for the expansion center at infinity."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


#: The unique point at infinity, usable as an expansion center.
OO = Infinity()


def to_mpf(q: RationalLike) -> mpf:
    """The rational ``q`` as an mpf, rounded at the ambient precision."""
    return mpf(q.numerator) / mpf(q.denominator)


def _to_mpf(value, dps: int) -> mpf:
    """Convert int/Fraction/str/mpf to an mpf rounded at ``dps`` digits."""
    with mpmath.workdps(dps):
        if isinstance(value, Fraction):
            return to_mpf(value)
        if isinstance(value, (int, str)):
            return mpf(value)
        if isinstance(value, (mpf, float)):
            return +mpf(value)
    raise TypeError(f"cannot convert {type(value).__name__} to BigFloat")


class BigFloat:
    """Arbitrary-precision real with an explicit decimal precision.

    Arithmetic between two BigFloats is performed at, and the result is
    tagged with, the minimum of the operand precisions.  Exact operands
    (int, Fraction) adopt the precision of the BigFloat operand.
    """

    __slots__ = ("val", "precision")

    def __init__(self, value, precision: int):
        precision = int(precision)
        if precision < 10:
            raise ValueError(f"precision must be >= 10, got {precision}")
        object.__setattr__(self, "val", _to_mpf(value, precision))
        object.__setattr__(self, "precision", precision)

    def __setattr__(self, name, value):
        raise AttributeError("BigFloat is immutable")

    @classmethod
    def from_rational(cls, r: RationalLike, precision: int) -> "BigFloat":
        return cls(Fraction(r), precision)

    @classmethod
    def _wrap(cls, value: mpf, precision: int) -> "BigFloat":
        out = object.__new__(cls)
        object.__setattr__(out, "val", value)
        object.__setattr__(out, "precision", precision)
        return out

    def _coerce(self, other):
        if isinstance(other, BigFloat):
            return other
        if isinstance(other, (int, Fraction)):
            return BigFloat(Fraction(other), self.precision)
        return None

    def _binop(self, other, op):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        prec = min(self.precision, other.precision)
        with mpmath.workdps(prec):
            return BigFloat._wrap(op(self.val, other.val), prec)

    def __add__(self, other):
        return self._binop(other, lambda a, b: a + b)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, lambda a, b: a - b)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, lambda a, b: a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return self._binop(other, lambda a, b: a / b)

    def __rtruediv__(self, other):
        return self._binop(other, lambda a, b: b / a)

    def __neg__(self):
        return BigFloat._wrap(-self.val, self.precision)

    def __abs__(self):
        return BigFloat._wrap(abs(self.val), self.precision)

    def _cmp_val(self, other):
        if isinstance(other, BigFloat):
            return other.val
        if isinstance(other, (int, Fraction)):
            return _to_mpf(Fraction(other), self.precision)
        return None

    def __eq__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.val == v

    def __lt__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.val < v

    def __le__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.val <= v

    def __gt__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.val > v

    def __ge__(self, other):
        v = self._cmp_val(other)
        return NotImplemented if v is None else self.val >= v

    def __hash__(self):
        return hash(self.val)

    def __float__(self):
        return float(self.val)

    def __repr__(self):
        return f"BigFloat({self.str_digits(min(self.precision, 25))!r}, {self.precision})"

    def to_fraction(self) -> Fraction:
        """The exact rational value of the underlying binary float."""
        sign, man, exp, _ = self.val._mpf_
        if man == 0:
            return Fraction(0)
        f = Fraction(int(man), 1) * Fraction(2) ** exp
        return -f if sign else f

    def str_digits(self, places: int) -> str:
        """Decimal string truncated (not rounded) to ``places`` fractional digits."""
        x = self.to_fraction()
        sign = "-" if x < 0 else ""
        x = abs(x)
        scaled = (x.numerator * 10**places) // x.denominator
        digits = str(scaled).rjust(places + 1, "0")
        return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"


# ----------------------------------------------------------------------
# Polynomials
# ----------------------------------------------------------------------


class Poly:
    """Dense univariate polynomial over the rationals.

    ``coeffs[k]`` is the coefficient of the k-th power; the highest-index
    coefficient is nonzero unless the polynomial is zero (empty tuple).
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RationalLike] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, c: RationalLike) -> "Poly":
        return cls([c])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def __call__(self, x):
        acc = None
        for c in reversed(self.coeffs):
            acc = c if acc is None else acc * x + c
        if acc is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0 * x
        return acc

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [Fraction(0)] * (n - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            a[i] += c
        return Poly(a)

    __radd__ = __add__

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly([c / Fraction(other) for c in self.coeffs])
        return NotImplemented

    def __pow__(self, k: int):
        out = Poly.const(1)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def divmod(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        den = other.coeffs
        q = [Fraction(0)] * max(0, len(rem) - len(den) + 1)
        for i in range(len(rem) - len(den), -1, -1):
            f = rem[i + len(den) - 1] / den[-1]
            if f:
                q[i] = f
                for j, d in enumerate(den):
                    rem[i + j] -= f * d
        return Poly(q), Poly(rem)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic polynomial gcd (Euclid)."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a.divmod(b)[1]
        if a.is_zero:
            return a
        return a / a.leading

    def content(self) -> Fraction:
        """Positive rational c with self/c integer-primitive (0 for the zero poly)."""
        if self.is_zero:
            return Fraction(0)
        num = 0
        den = 1
        for c in self.coeffs:
            num = gcd(num, c.numerator)
            den = lcm(den, c.denominator)
        return Fraction(num, den)

    def primitive(self) -> "Poly":
        """Integer coefficients with content 1 and positive leading coefficient."""
        if self.is_zero:
            return self
        c = self.content()
        if self.leading < 0:
            c = -c
        return self / c

    def taylor_shift(self, a: Fraction) -> "Poly":
        """Coefficients of p(x + a)."""
        if a == 0:
            return self
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * Poly([a, 1]) + Poly.const(c)
        return out

    def reversed(self, degree: int | None = None) -> "Poly":
        """x**d * p(1/x) for d = ``degree`` (defaults to deg p)."""
        d = self.degree if degree is None else degree
        if d < self.degree:
            raise ValueError("reversal degree below polynomial degree")
        cs = [Fraction(0)] * (d + 1)
        for i, c in enumerate(self.coeffs):
            cs[d - i] = c
        return Poly(cs)

    def __repr__(self):
        return f"Poly({poly_to_text(self)!r})"


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<coef>\d+)\s*\*?\s*)?"
    r"(?:(?P<var>[a-zA-Z]\w*)\s*(?:\^\s*(?P<exp>\d+))?)?"
)


def poly_to_text(p: Poly, var: str = "n") -> str:
    """Canonical text form, highest power first, e.g. ``55*n^2 + 33*n + 6``."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0:
            continue
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            x = var if k == 1 else f"{var}^{k}"
            body = x if mag == 1 else f"{mag}*{x}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def poly_from_text(text: str, var: str = "n") -> Poly:
    """Parse the format emitted by :func:`poly_to_text` (integer coefficients).

    Accepts optional ``*`` between coefficient and variable and arbitrary
    spacing; raises ValueError on anything else.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    coeffs: dict[int, Fraction] = {}
    pos = 0
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.end() == pos or (m.group("coef") is None and m.group("var") is None):
            raise ValueError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("sign") is None and pos > 0:
            raise ValueError(f"missing sign between terms in {text!r}")
        coef = Fraction(sign) * (1 if m.group("coef") is None else int(m.group("coef")))
        if m.group("var") is not None:
            if m.group("var") != var:
                raise ValueError(f"unexpected variable {m.group('var')!r} (want {var!r})")
            k = 1 if m.group("exp") is None else int(m.group("exp"))
        else:
            k = 0
        coeffs[k] = coeffs.get(k, Fraction(0)) + coef
        pos = m.end()
    return Poly([coeffs.get(k, Fraction(0)) for k in range(max(coeffs) + 1)])


# ----------------------------------------------------------------------
# Rational functions
# ----------------------------------------------------------------------


class RatFunc:
    """Reduced quotient of two polynomials.

    The denominator is kept integer-primitive with positive leading
    coefficient; numerator and denominator share no nonconstant factor.
    """

    __slots__ = ("numer", "denom")

    def __init__(self, numer: Poly | RationalLike, denom: Poly | RationalLike = 1):
        if not isinstance(numer, Poly):
            numer = Poly.const(numer)
        if not isinstance(denom, Poly):
            denom = Poly.const(denom)
        if denom.is_zero:
            raise ZeroDivisionError("zero denominator in RatFunc")
        if not numer.is_zero:
            g = numer.gcd(denom)
            if g.degree > 0:
                numer = numer.divmod(g)[0]
                denom = denom.divmod(g)[0]
        c = denom.content()
        if denom.leading < 0:
            c = -c
        object.__setattr__(self, "numer", numer / c)
        object.__setattr__(self, "denom", denom / c)

    def __setattr__(self, name, value):
        raise AttributeError("RatFunc is immutable")

    @classmethod
    def const(cls, c: RationalLike) -> "RatFunc":
        return cls(Poly.const(c))

    @property
    def is_polynomial(self) -> bool:
        return self.denom.degree == 0

    def __call__(self, n: RationalLike) -> Fraction:
        n = Fraction(n)
        d = self.denom(n)
        if d == 0:
            raise ZeroDivisionError(f"denominator vanishes at {n}")
        return self.numer(n) / d

    def shift(self, k: RationalLike) -> "RatFunc":
        """The function n -> self(n + k)."""
        k = Fraction(k)
        return RatFunc(self.numer.taylor_shift(k), self.denom.taylor_shift(k))

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return self.numer * other.denom == other.numer * self.denom
        if isinstance(other, (int, Fraction, Poly)):
            return self == RatFunc(other)
        return NotImplemented

    def __hash__(self):
        return hash((self.numer.primitive().coeffs if not self.numer.is_zero else (),
                     self.denom.coeffs))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.numer * other.numer, self.denom * other.denom)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.numer * other.denom, self.denom * other.numer)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.numer * other.denom + other.numer * self.denom,
                       self.denom * other.denom)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.numer, self.denom)

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return f"RatFunc({ratfunc_to_text(self)!r})"


def ratfunc_to_text(f: RatFunc, var: str = "n") -> str:
    """Canonical ``(numer) / (denom)`` with integer polynomials on both sides."""
    if f.numer.is_zero:
        return "0"
    s = f.numer.content()
    if f.numer.leading < 0:
        s = -s
    num = (f.numer / s) * s.numerator
    den = f.denom * s.denominator
    if den == Poly.const(1):
        return poly_to_text(num, var)
    return f"({poly_to_text(num, var)}) / ({poly_to_text(den, var)})"


def ratfunc_from_text(text: str, var: str = "n") -> RatFunc:
    """Parse ``p``, ``p / q``, ``(p) / (q)`` or ``(p) / c`` polynomial quotients."""
    depth = 0
    split = None
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "/" and depth == 0:
            split = i
            break
    if split is None:
        return RatFunc(_poly_from_wrapped(text, var))
    return RatFunc(_poly_from_wrapped(text[:split], var),
                   _poly_from_wrapped(text[split + 1:], var))


def _poly_from_wrapped(text: str, var: str) -> Poly:
    s = text.strip()
    if s.startswith("(") and s.endswith(")"):
        s = s[1:-1]
    return poly_from_text(s, var)


# ----------------------------------------------------------------------
# Truncated series
# ----------------------------------------------------------------------


def _series_divide(num, den, k: int) -> tuple[Fraction, ...]:
    """First k+1 coefficients of num/den as power series (den[0] != 0)."""
    out = []
    for i in range(k + 1):
        acc = num[i] if i < len(num) else Fraction(0)
        for j in range(1, min(i, len(den) - 1) + 1):
            acc -= den[j] * out[i - j]
        out.append(acc / den[0])
    return tuple(out)


def ratfunc_series(f: RatFunc, center, k: int) -> tuple[Fraction, ...]:
    """The coefficients 0..k of ``f`` expanded around a finite center a, in
    powers of (x - a), or around infinity, in powers of 1/x.

    Raises PoleAtCenter if the reduced denominator vanishes at a finite
    center, or if ``f`` grows at infinity (numerator degree exceeds
    denominator degree) when expanding there.
    """
    if k < 0:
        raise ValueError("truncation order must be >= 0")
    if isinstance(center, Infinity):
        m = f.denom.degree - f.numer.degree  # the order of the zero at infinity
        if m < 0:
            raise PoleAtCenter("function grows at infinity")
        return (Fraction(0),) * min(m, k + 1) + _series_divide(
            f.numer.reversed().coeffs, f.denom.reversed().coeffs, k - m)
    a = Fraction(center)
    if f.denom(a) == 0:
        raise PoleAtCenter(f"denominator vanishes at x = {a}")
    return _series_divide(f.numer.taylor_shift(a).coeffs, f.denom.taylor_shift(a).coeffs, k)


# ----------------------------------------------------------------------
# Decimal-to-rational recovery
# ----------------------------------------------------------------------


def rational_from_decimal(v: BigFloat, max_denominator: int) -> Fraction | None:
    """Recover a small rational from a decimal approximation.

    Runs the continued-fraction expansion of ``v``, stopping at the first
    partial quotient above HUGE_QUOTIENT or the first convergent denominator
    above ``max_denominator``; returns that convergent p/q if it matches
    ``v`` within 10**-(precision-10), else None.
    """
    x = v.to_fraction()
    tol = Fraction(10) ** (GUARD_DIGITS - v.precision)
    p_prev, q_prev = 1, 0
    p, q = int(x), 1
    frac = x - int(x)
    while frac != 0:
        frac = 1 / frac
        a = int(frac)
        if a > HUGE_QUOTIENT:
            break
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
        if q > max_denominator:
            p, q = p_prev, q_prev
            break
        frac -= a
    if q == 0 or q > max_denominator:
        return None
    cand = Fraction(p, q)
    return cand if abs(x - cand) < tol else None


# ----------------------------------------------------------------------
# Exact linear algebra
# ----------------------------------------------------------------------


def row_reduce(rows: list[list[Fraction]], width: int
               ) -> tuple[list[int], list[list[Fraction]], Fraction]:
    """Gauss-Jordan elimination over Fraction of the first ``width`` columns.

    A column's pivot is the first row at or below the rank with a nonzero
    entry there; columns past ``width`` (a right-hand side) only follow the
    row operations.  Returns the pivot columns, the reduced rows (pivot rows
    first) and the determinant, 0 when the rank is below the row count.
    """
    a = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    det = Fraction(1)
    for col in range(width):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        det *= a[rank][col]
        inv = 1 / a[rank][col]
        a[rank] = [x * inv for x in a[rank]]
        for r in range(len(a)):
            if r != rank and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        pivots.append(col)
    return pivots, a, det if len(pivots) == len(a) else Fraction(0)


def nullspace(rows: list[list[Fraction]], width: int) -> list[list[Fraction]]:
    """Basis of the vectors v with rows . v = 0: one per free column, 1 there."""
    pivots, reduced, _ = row_reduce(rows, width)
    basis = []
    for free in (c for c in range(width) if c not in pivots):
        v = [Fraction(0)] * width
        v[free] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i][free]
        basis.append(v)
    return basis
