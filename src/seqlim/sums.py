"""Exact evaluators for the built-in binomial-sum families.

Each family is a closed-form summand t(n, k) with its hypergeometric term
ratio t(n, k+1)/t(n, k).  A value is summed by stepping the summand through
that ratio in exact integers, at a rational parameter value or, for the
``*_x`` families, symbolically in x (returning a polynomial).  The module
also carries the known recurrences for the classical families and falls
back to guessing a recurrence from terms for the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Callable

from seqlim.arith import Poly
from seqlim.recurrence import (
    InitialConditions,
    Recurrence,
    SolutionTable,
    guess_recurrence,
)


class InvalidParameter(ValueError):
    pass


class NoRecurrenceFound(Exception):
    """Guessing found no recurrence within its bounds: a computation failure."""


@dataclass(frozen=True)
class FamilySpec:
    """A catalog family together with its parameter values."""

    name: str
    d: int | None = None
    x: Fraction | None = None
    symbolic_x: bool = False

    def __post_init__(self):
        if self.name not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.name!r}")
        fam = FAMILIES[self.name]
        if fam.takes_d:
            if self.d is None or self.d < 1:
                raise InvalidParameter(f"family {self.name!r} needs d >= 1")
        elif self.d is not None:
            raise InvalidParameter(f"family {self.name!r} takes no d parameter")
        if fam.takes_x:
            if self.symbolic_x:
                if self.x is not None:
                    raise InvalidParameter("give either --x or symbolic x, not both")
            elif self.x is None:
                raise InvalidParameter(f"family {self.name!r} needs x (or symbolic x)")
        elif self.x is not None or self.symbolic_x:
            raise InvalidParameter(f"family {self.name!r} takes no x parameter")


@dataclass(frozen=True)
class _Family:
    """A summand t(n, k) with its term ratio t(n, k+1)/t(n, k) = p/q.

    ``summand`` defines the family and gives the first nonzero term, at
    k = ``first(n)`` (0 for the x families, whose Poly starts at x^0);
    every later term is stepped exactly as t * p // q.  A ``symmetric``
    summand satisfies t(n, k) = t(n, n - k).
    """

    summand: Callable  # (n, k) -> coefficient of x^k, or plain term; (n, k, d) if takes_d
    ratio: Callable  # (n, k, d) -> (p, q), integers, q != 0 for first(n) <= k < n
    first: Callable = lambda n: 0
    symmetric: bool = False
    takes_d: bool = False
    takes_x: bool = False


def _delannoy_term(n, k):
    return comb(n, k) * comb(n + k, k)


def _delannoy_ratio(e):
    """The ratio of C(n,k) C(n+k,k)^e."""
    return lambda n, k, d: ((n - k) * (n + k + 1) ** e, (k + 1) ** (e + 1))


FAMILIES = {
    # sum of C(n,k) C(n+k,k), the central Delannoy numbers
    "delannoy": _Family(_delannoy_term, _delannoy_ratio(1)),
    # sum of C(n,k) C(n+k,k) x^k
    "delannoy_x": _Family(_delannoy_term, _delannoy_ratio(1), takes_x=True),
    # sum of C(n,k)^2 C(n+k,k)^2
    "apery3": _Family(lambda n, k: _delannoy_term(n, k) ** 2,
                      lambda n, k, d: (((n - k) * (n + k + 1)) ** 2, (k + 1) ** 4)),
    # sum of C(n,k)^d
    "franel": _Family(lambda n, k, d: comb(n, k) ** d,
                      lambda n, k, d: ((n - k) ** d, (k + 1) ** d),
                      symmetric=True, takes_d=True),
    # sum of C(n,2k) x^k
    "even_binomial_x": _Family(lambda n, k: comb(n, 2 * k),
                               lambda n, k, d: ((n - 2 * k) * (n - 2 * k - 1),
                                                (2 * k + 1) * (2 * k + 2)),
                               takes_x=True),
    # sum of C(n-k,k) x^k (Fibonacci polynomials, shifted)
    "fibonacci_x": _Family(lambda n, k: comb(n - k, k),
                           lambda n, k, d: ((n - 2 * k) * (n - 2 * k - 1), (k + 1) * (n - k)),
                           takes_x=True),
    # sum of C(n,k) C(n-k,k) x^k (trinomial-type)
    "trinomial_x": _Family(lambda n, k: comb(n, k) * comb(n - k, k),
                           lambda n, k, d: ((n - 2 * k) * (n - 2 * k - 1), (k + 1) ** 2),
                           takes_x=True),
    # sum of C(n,k) C(n+k,k)^2 x^k
    "delannoy_sq_x": _Family(lambda n, k: comb(n, k) * comb(n + k, k) ** 2,
                             _delannoy_ratio(2), takes_x=True),
    # sum of C(n,k) C(n+k,k)^3 x^k
    "delannoy_cube_x": _Family(lambda n, k: comb(n, k) * comb(n + k, k) ** 3,
                               _delannoy_ratio(3), takes_x=True),
    # sum of C(n,k)^2 C(3k,n); C(3k,n) vanishes for 3k < n, so the sum starts
    # at k = ceil(n/3), where no factor 3k+j-n of the ratio's q is 0
    "binom_sq_3k": _Family(lambda n, k: comb(n, k) ** 2 * comb(3 * k, n),
                           lambda n, k, d: ((n - k) ** 2 * (3 * k + 3) * (3 * k + 2) * (3 * k + 1),
                                            (k + 1) ** 2 * (3 * k + 3 - n) * (3 * k + 2 - n)
                                            * (3 * k + 1 - n)),
                           first=lambda n: -(-n // 3)),
}


def _summands(fam: _Family, n: int, d: int | None, num: int = 1, den: int = 1) -> list[int]:
    """t(n, k) num^k den^(n-k) from k = first(n), stepped by the term ratio.

    With num = den = 1 these are the summands themselves.  A symmetric
    family stops at the middle term k = n // 2, every family at its first
    zero term, and the ratio is never formed at k = n.
    """
    k = fam.first(n)
    t = fam.summand(n, k, d) if fam.takes_d else fam.summand(n, k)
    t *= num ** k * den ** (n - k)
    last = n // 2 if fam.symmetric else n
    terms = [t]
    ratio = fam.ratio
    while k < last:
        p, q = ratio(n, k, d)
        t = t * (p * num) // (q * den)
        if not t:
            break
        terms.append(t)
        k += 1
    return terms


def eval_family(spec: FamilySpec, n: int):
    """Exact family value at n: a Fraction, or a Poly in x when symbolic."""
    if n < 0:
        raise InvalidParameter(f"family index must be >= 0, got {n}")
    fam = FAMILIES[spec.name]
    if fam.takes_x and not spec.symbolic_x:
        # t_k x^k = t_k num^k den^(n-k) / den^n: integers over one denominator
        x = Fraction(spec.x)
        return Fraction(sum(_summands(fam, n, spec.d, x.numerator, x.denominator)),
                        x.denominator ** n)
    terms = _summands(fam, n, spec.d)
    if spec.symbolic_x:
        return Poly(terms)
    if fam.symmetric:
        # the pairs k, n-k count twice; the middle term of an even n once
        return Fraction(2 * sum(terms) - (terms[-1] if n % 2 == 0 else 0))
    return Fraction(sum(terms))


def family_terms(spec: FamilySpec, upto: int) -> list:
    return [eval_family(spec, n) for n in range(upto + 1)]


def eval_apery_secondary(n: int) -> Fraction:
    """Explicit double sum for the secondary companion of the apery3 family.

    B(n) = (1/6) sum_k C(n,k)^2 C(n+k,k)^2 (sum_{j<=n} 1/j^3
           + sum_{m<=k} (-1)^(m-1) / (2 m^3 C(n,m) C(n+m,m))).
    """
    if n < 0:
        raise InvalidParameter(f"index must be >= 0, got {n}")
    h3 = sum((Fraction(1, j**3) for j in range(1, n + 1)), Fraction(0))
    total = Fraction(0)
    inner = Fraction(0)
    for k in range(n + 1):
        if k >= 1:
            inner += Fraction((-1) ** (k - 1), 2 * k**3 * comb(n, k) * comb(n + k, k))
        total += comb(n, k) ** 2 * comb(n + k, k) ** 2 * (h3 + inner)
    return total / 6


# ----------------------------------------------------------------------
# Recurrences for the catalog
# ----------------------------------------------------------------------


def delannoy_recurrence() -> Recurrence:
    """(n+2) u(n+2) = 3(2n+3) u(n+1) - (n+1) u(n), asserted from n = -1."""
    return Recurrence([Poly([1, 1]), Poly([-9, -6]), Poly([2, 1])], offset=-1)


def delannoy_x_recurrence(x: Fraction) -> Recurrence:
    """Same relation with the middle factor 3 replaced by (2x+1)."""
    x = Fraction(x)
    mid = Poly([-3 * (2 * x + 1), -2 * (2 * x + 1)])
    return Recurrence([Poly([1, 1]), mid, Poly([2, 1])], offset=-1)


def apery3_recurrence() -> Recurrence:
    """(n+2)^3 u(n+2) = (2n+3)(17(n+1)^2 + 17(n+1) + 5) u(n+1) - (n+1)^3 u(n)."""
    mid = -(Poly([3, 2]) * Poly([39, 51, 17]))
    return Recurrence([Poly([1, 1]) ** 3, mid, Poly([2, 1]) ** 3], offset=-1)


def arctan_recurrence() -> Recurrence:
    """(n+2) u(n+2) = (2n+3) u(n+1) + (n+1) u(n): the trinomial family at x = 1/2."""
    return Recurrence([Poly([-1, -1]), Poly([-3, -2]), Poly([2, 1])], offset=-1)


_GUESSED: dict = {}


def guessed_family_recurrence(spec: FamilySpec, max_order: int = 5,
                              max_degree: int = 44) -> Recurrence:
    """Guess (and cache) the minimal recurrence for a family from its terms.

    The bounds cover every built-in family (the deepest case needs order 5
    and degree 41); the guesser exact-checks candidates against all
    generated terms, so a hit is always a true relation for the window.
    """
    key = (spec.name, spec.d, spec.x)
    if key in _GUESSED:
        return _GUESSED[key]
    need = (max_order + 1) * (max_degree + 1) + max_order + 5
    terms = family_terms(spec, need + 10)
    rec = guess_recurrence(terms, max_order, max_degree)
    if rec is None:
        raise NoRecurrenceFound(f"no recurrence found for {spec} within bounds")
    _GUESSED[key] = rec
    return rec


def family_recurrence(spec: FamilySpec) -> Recurrence:
    """The recurrence for a family: closed form when known, guessed otherwise."""
    if spec.name == "delannoy":
        return delannoy_recurrence()
    if spec.name == "delannoy_x" and not spec.symbolic_x:
        return delannoy_x_recurrence(spec.x)
    if spec.name == "apery3":
        return apery3_recurrence()
    if spec.name == "trinomial_x" and spec.x == Fraction(1, 2):
        return arctan_recurrence()
    return guessed_family_recurrence(spec)


def primary_init(spec: FamilySpec, rec: Recurrence) -> InitialConditions:
    """Initial values of the primary solution A of the family's recurrence.

    A recurrence asserted from n = -1 starts from (0, 1) at n = -1; any
    other starts from the family's first ``rec.order`` terms.
    """
    if rec.offset <= -1:
        return InitialConditions(-1, [0, 1])
    return InitialConditions(0, family_terms(spec, rec.order - 1))


def family_pair(spec: FamilySpec) -> tuple[SolutionTable, SolutionTable]:
    """Primary solution A (family values) and secondary B (0, 1 start).

    Only meaningful for families whose recurrence has order 2; higher-order
    secondary construction lives in the limits module.
    """
    rec = family_recurrence(spec)
    if rec.order != 2:
        raise InvalidParameter(
            f"family {spec.name!r} has an order-{rec.order} recurrence; "
            "use the vanishing-initial-condition constructions instead")
    primary = SolutionTable(rec, primary_init(spec, rec))
    secondary = SolutionTable(rec, InitialConditions(0, [0, 1]))
    return primary, secondary


# ----------------------------------------------------------------------
# Symbolic-in-x solution pairs
# ----------------------------------------------------------------------


def delannoy_x_symbolic_pair(upto: int) -> tuple[list[Poly], list[Poly]]:
    """(A_x(n), B_x(n)) as polynomials in x for n = 0..upto.

    A_x comes from the explicit sum; B_x is stepped through the recurrence
    (n+1) u(n+1) = (2x+1)(2n+1) u(n) - n u(n-1) in polynomial arithmetic.
    """
    spec = FamilySpec("delannoy_x", symbolic_x=True)
    a = [eval_family(spec, n) for n in range(upto + 1)]
    two_x_plus_1 = Poly([1, 2])
    b = [Poly(), Poly.const(1)]
    for n in range(1, upto):
        nxt = (two_x_plus_1 * (2 * n + 1) * b[n] - Fraction(n) * b[n - 1]) / Fraction(n + 1)
        b.append(nxt)
    return a, b[: upto + 1]
