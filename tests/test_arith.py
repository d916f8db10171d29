import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seqlim.arith import (
    OO,
    BigFloat,
    PoleAtCenter,
    Poly,
    RatFunc,
    nullspace,
    poly_from_text,
    poly_to_text,
    rational_from_decimal,
    ratfunc_from_text,
    ratfunc_series,
    ratfunc_to_text,
    row_reduce,
)

F = Fraction


class TestPoly:
    def test_eval_quadratic(self):
        p = Poly([6, 33, 55])
        assert p(F(0)) == 6

    def test_eval_zero_poly(self):
        assert Poly()(F(7)) == 0

    def test_eval_recurrence_coefficient(self):
        p = Poly([5, 17, 17])
        assert p(F(1)) == 39

    def test_trailing_zeros_stripped(self):
        assert Poly([1, 2, 0, 0]).degree == 1

    def test_arithmetic(self):
        p = Poly([1, 1])
        assert p * p == Poly([1, 2, 1])
        assert p + 1 == Poly([2, 1])
        assert (p ** 3).coeffs == (1, 3, 3, 1)

    def test_divmod_and_gcd(self):
        a = Poly([1, 2, 1])  # (n+1)^2
        b = Poly([1, 1])
        q, r = a.divmod(b)
        assert q == b and r.is_zero
        assert a.gcd(Poly([0, 1, 1])) == Poly([1, 1])

    def test_primitive(self):
        p = Poly([F(2, 3), F(4, 3)])
        assert p.primitive() == Poly([1, 2])
        assert Poly([-2, -4]).primitive() == Poly([1, 2])

    def test_taylor_shift(self):
        p = Poly([0, 0, 1])  # n^2
        assert p.taylor_shift(F(1)) == Poly([1, 2, 1])

    def test_text_roundtrip(self):
        p = Poly([6, 33, 55])
        text = poly_to_text(p)
        assert text == "55*n^2 + 33*n + 6"
        assert poly_from_text(text) == p
        assert poly_from_text("55 n^2 + 33 n + 6") == p
        assert poly_to_text(Poly([-9, 0, 1])) == "n^2 - 9"
        assert poly_from_text("n^2 - 9") == Poly([-9, 0, 1])
        assert poly_from_text("0") == Poly()

    def test_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            poly_from_text("55x^2", var="n")
        with pytest.raises(ValueError):
            poly_from_text("3 4")


class TestRatFunc:
    def test_reduction(self):
        f = RatFunc(Poly([1, 2, 1]), Poly([1, 1]))
        assert f.numer == Poly([1, 1]) and f.denom == Poly([1])

    def test_denominator_normalized(self):
        f = RatFunc(Poly([0, 1]), Poly([-2, -2]))
        assert f.denom == Poly([1, 1])
        assert f(1) == F(-1, 4)

    def test_shift(self):
        f = RatFunc(Poly([0, 1]), Poly([1, 1]))  # n/(n+1)
        assert f.shift(1)(0) == F(1, 2)

    def test_text_roundtrip(self):
        f = RatFunc(Poly([0, 0, 1]), Poly([4]))
        text = ratfunc_to_text(f)
        assert ratfunc_from_text(text) == f
        assert ratfunc_from_text(ratfunc_to_text(RatFunc(Poly([1, 1])))) == RatFunc(Poly([1, 1]))
        g = RatFunc(Poly([F(1, 2), F(3, 2)]), Poly([0, 1]))
        assert ratfunc_from_text(ratfunc_to_text(g)) == g
        assert ratfunc_to_text(ratfunc_from_text(ratfunc_to_text(g))) == ratfunc_to_text(g)


class TestRatFuncSeries:
    def test_geometric(self):
        f = RatFunc(Poly([1]), Poly([1, -1]))
        assert ratfunc_series(f, 0, 3) == (1, 1, 1, 1)

    def test_expansion_at_infinity(self):
        f = RatFunc(Poly([1]), Poly([1, 2]))
        assert ratfunc_series(f, OO, 3) == (F(0), F(1, 2), F(-1, 4), F(1, 8))

    def test_expansion_at_one(self):
        f = RatFunc(Poly([1]), Poly([1, 2]))
        assert ratfunc_series(f, 1, 1) == (F(1, 3), F(-2, 9))

    def test_pole_detected(self):
        f = RatFunc(Poly([1]), Poly([1, -1]))
        with pytest.raises(PoleAtCenter):
            ratfunc_series(f, 1, 2)
        with pytest.raises(PoleAtCenter):
            ratfunc_series(RatFunc(Poly([0, 0, 1]), Poly([1, 1])), OO, 2)

    @given(st.integers(-3, 3), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_remainder_order(self, a, k):
        # in powers of t = x - a, numer - (sum s_j t^j) denom has a zero of order > k
        f = RatFunc(Poly([1, 0, 2]), Poly([7, 0, 0, 1]))
        a = F(a)
        if f.denom(a) == 0:
            return
        s = ratfunc_series(f, a, k)
        shifted = f.numer.taylor_shift(a) - Poly(s) * f.denom.taylor_shift(a)
        assert all(c == 0 for c in shifted.coeffs[: k + 1])


class TestBigFloat:
    def test_precision_floor(self):
        with pytest.raises(ValueError):
            BigFloat(1, 5)

    def test_min_precision_propagates(self):
        a = BigFloat(1, 50)
        b = BigFloat(2, 30)
        assert (a + b).precision == 30
        assert (a * b).precision == 30

    def test_rational_conversion_exact_to_precision(self):
        x = BigFloat.from_rational(F(1, 3), 60)
        err = abs(x.to_fraction() - F(1, 3))
        assert err < F(1, 10**59)

    def test_str_digits_truncates(self):
        x = BigFloat.from_rational(F(3, 4), 30)
        assert x.str_digits(5) == "0.75000"
        y = BigFloat.from_rational(F(-1, 3), 30)
        assert y.str_digits(4) == "-0.3333"

    def test_double_precision_agreement(self):
        rng = random.Random(7)
        for _ in range(25):
            q = F(rng.randrange(-999, 1000), rng.randrange(1, 1000))
            r = F(rng.randrange(1, 1000), rng.randrange(1, 1000))
            p = 40
            lo = (BigFloat.from_rational(q, p) * BigFloat.from_rational(r, p)
                  + BigFloat.from_rational(q, p)) / BigFloat.from_rational(r, p)
            hi = (BigFloat.from_rational(q, 2 * p) * BigFloat.from_rational(r, 2 * p)
                  + BigFloat.from_rational(q, 2 * p)) / BigFloat.from_rational(r, 2 * p)
            diff = abs(lo.to_fraction() - hi.to_fraction())
            scale = max(F(1), abs(hi.to_fraction()))
            assert diff <= scale / 10 ** (p - 5)


class TestRationalFromDecimal:
    def test_three_quarters(self):
        v = BigFloat.from_rational(F(3, 4), 50)
        assert rational_from_decimal(v, 100) == F(3, 4)

    def test_nine_twenty_sixths(self):
        v = BigFloat.from_rational(F(9, 26), 50)
        assert rational_from_decimal(v, 1000) == F(9, 26)

    def test_irrational_rejected(self):
        # half log 2 to 50 digits has no small-fraction representation
        v = BigFloat("0.34657359027997265470861606072908828403775006718012", 50)
        assert rational_from_decimal(v, 10**6) is None

    def test_denominator_cap(self):
        v = BigFloat.from_rational(F(355, 113), 40)
        assert rational_from_decimal(v, 100) is None
        assert rational_from_decimal(v, 113) == F(355, 113)


@given(st.integers(-10**6, 10**6), st.integers(1, 10**6),
       st.integers(-10**6, 10**6), st.integers(1, 10**6))
@settings(max_examples=1000, deadline=None)
def test_fraction_addition_matches_bruteforce(an, ad, bn, bd):
    # independent path: cross-multiply then reduce with math.gcd
    got = F(an, ad) + F(bn, bd)
    num = an * bd + bn * ad
    den = ad * bd
    g = gcd(num, den)
    if g:
        num //= g
        den //= g
    assert (got.numerator, got.denominator) == (num, den)


# ----------------------------------------------------------------------
# Exact elimination against independent references
# ----------------------------------------------------------------------


def _cofactor_det(m):
    if not m:
        return F(1)
    return sum((-1) ** j * m[0][j] * _cofactor_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)))


def _minor_rank(m, width):
    """Size of the largest nonvanishing minor."""
    for k in range(min(len(m), width), 0, -1):
        for rs in combinations(range(len(m)), k):
            for cs in combinations(range(width), k):
                if _cofactor_det([[m[i][j] for j in cs] for i in rs]) != 0:
                    return k
    return 0


@st.composite
def _fraction_matrices(draw, square=False):
    """Sparse matrices, whose zero pivots force row swaps, or products of
    n x r and r x width factors, so that every rank up to 5 occurs."""
    n = draw(st.integers(1, 5))
    width = n if square else draw(st.integers(1, 5))
    if draw(st.booleans()):
        entry = st.sampled_from([F(0), F(0), F(0), F(1), F(-2), F(1, 3)])
        return draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                             min_size=n, max_size=n)), width
    r = draw(st.integers(0, min(n, width)))
    entry = st.builds(F, st.integers(-6, 6), st.integers(1, 4))
    left = draw(st.lists(st.lists(entry, min_size=r, max_size=r), min_size=n, max_size=n))
    right = draw(st.lists(st.lists(entry, min_size=width, max_size=width),
                          min_size=r, max_size=r))
    return [[sum((row[k] * right[k][j] for k in range(r)), F(0)) for j in range(width)]
            for row in left], width


@given(_fraction_matrices(square=True))
@settings(max_examples=200, deadline=None)
def test_row_reduce_determinant_is_the_cofactor_expansion(case):
    m, n = case
    before = [list(r) for r in m]
    assert row_reduce(m, n)[2] == _cofactor_det(m)
    assert m == before


@given(_fraction_matrices())
@settings(max_examples=200, deadline=None)
def test_nullspace_annihilates_and_has_full_dimension(case):
    m, width = case
    basis = nullspace(m, width)
    assert len(basis) == width - _minor_rank(m, width)
    assert all(sum(a * b for a, b in zip(row, v)) == 0 for row in m for v in basis)
    assert _minor_rank(basis, width) == len(basis)


@given(_fraction_matrices(square=True),
       st.lists(st.builds(F, st.integers(-9, 9), st.integers(1, 5)), min_size=5, max_size=5))
@settings(max_examples=200, deadline=None)
def test_row_reduce_solves_exactly_the_nonsingular_systems(case, rhs):
    m, n = case
    pivots, reduced, _ = row_reduce([r + [b] for r, b in zip(m, rhs)], n)
    assert (len(pivots) == n) == (_cofactor_det(m) != 0)
    if len(pivots) == n:
        x = [r[-1] for r in reduced]
        assert [sum(a * b for a, b in zip(row, x)) for row in m] == rhs[:n]
