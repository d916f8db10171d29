from fractions import Fraction

import pytest

from seqlim.arith import Poly, RatFunc
from seqlim.contfrac import (
    ContinuedFraction,
    NotReducible,
    ZeroDenominatorConvergent,
    arctan_cf,
    cf_from_text,
    cf_to_text,
    convergent,
    convergents,
    from_recurrence,
    log_cf,
    to_recurrence,
)
from seqlim.limits import quotients
from seqlim.recurrence import Recurrence, rescale
from seqlim.sums import FamilySpec, arctan_recurrence, delannoy_recurrence, family_pair

F = Fraction


class TestConvergents:
    def test_arctan_at_two(self):
        assert convergent(arctan_cf(F(1)), 2) == F(3, 4)

    def test_log_at_one(self):
        assert convergent(log_cf(F(1)), 1) == F(1, 3)
        assert convergent(log_cf(F(1)), 3) == F(131, 378)

    def test_constant_only(self):
        cf = ContinuedFraction(b0=F(5), a=(), b=())
        assert convergent(cf, 0) == 5

    def test_zero_denominator_detected(self):
        cf = ContinuedFraction(b0=F(0), a=RatFunc(Poly([1])), b=RatFunc(Poly()))
        with pytest.raises(ZeroDenominatorConvergent):
            convergents(cf, 2)

    @pytest.mark.parametrize("upto", [-1, -2])
    def test_negative_index_is_rejected(self, upto):
        with pytest.raises(ValueError, match="must be >= 0"):
            convergents(log_cf(F(1)), upto)
        with pytest.raises(ValueError, match="must be >= 0"):
            convergent(log_cf(F(1)), upto)

    def test_finite_lists(self):
        cf = ContinuedFraction(b0=F(0), a=(1, 1), b=(1, 1))
        assert convergents(cf, 2) == [0, 1, F(1, 2)]
        with pytest.raises(ValueError):
            convergents(cf, 3)


class TestToRecurrence:
    def test_log_cf_shape(self):
        # u(n) = (2n-1)(2x+1) u(n-1) - (n-1)^2 u(n-2) at x = 1
        rec = to_recurrence(log_cf(F(1)))
        want = Recurrence([Poly([1, 2, 1]), Poly([-9, -6]), Poly([1])], offset=-1)
        assert rec.proportional_to(want)

    def test_arctan_cf_shape(self):
        rec = to_recurrence(arctan_cf(F(1)))
        want = Recurrence([Poly([-1, -2, -1]), Poly([-3, -2]), Poly([1])], offset=-1)
        assert rec.proportional_to(want)

    def test_constant_cf_is_fibonacci(self):
        cf = ContinuedFraction(b0=F(0), a=RatFunc(Poly([1])), b=RatFunc(Poly([1])))
        rec = to_recurrence(cf)
        assert rec.proportional_to(Recurrence([Poly([-1]), Poly([-1]), Poly([1])]))


class TestFromRecurrence:
    def test_delannoy_with_factorial_rescale(self):
        cf = from_recurrence(delannoy_recurrence(), RatFunc(Poly([1, 1])))
        a, b = family_pair(FamilySpec("delannoy"))
        assert convergents(cf, 60) == quotients(a, b, 60)

    def test_rescaling_search(self):
        cf = from_recurrence(arctan_recurrence())
        at, bt = family_pair(FamilySpec("trinomial_x", x=F(1, 2)))
        assert convergents(cf, 60) == quotients(at, bt, 60)

    def test_already_in_form(self):
        fib = Recurrence([Poly([-1]), Poly([-1]), Poly([1])], offset=-1)
        cf = from_recurrence(fib, RatFunc(Poly([1])))
        assert cf.b_at(3) == 1 and cf.a_at(3) == 1 and cf.a_at(1) == 1

    def test_roundtrip_up_to_content(self):
        for rec, ratio in ((delannoy_recurrence(), RatFunc(Poly([1, 1]))),
                           (arctan_recurrence(), RatFunc(Poly([1, 1])))):
            cf = from_recurrence(rec, ratio)
            back = to_recurrence(cf)
            assert back.proportional_to(rescale(rec, ratio))

    def test_not_reducible(self):
        # irrational-growth coefficients admit no factorial-type rescaling
        rec = Recurrence([Poly([1]), Poly([0, 0, 0, 1]), Poly([1, 1])])
        with pytest.raises(NotReducible):
            from_recurrence(rec)


class TestAgainstQuotients:
    @pytest.mark.parametrize("cf,family,x", [
        (log_cf(F(1)), "delannoy", None),
        (arctan_cf(F(1)), "trinomial_x", F(1, 2)),
        (log_cf(F(2)), "delannoy_x", F(2)),
    ])
    def test_convergents_equal_quotients(self, cf, family, x):
        a, b = family_pair(FamilySpec(family, x=x))
        assert convergents(cf, 100) == quotients(a, b, 100)


class TestTextFormat:
    def test_roundtrip(self):
        for cf in (log_cf(F(3, 2)), arctan_cf(F(2, 7))):
            text = cf_to_text(cf)
            back = cf_from_text(text)
            assert back == cf
            assert cf_to_text(back) == text

    def test_rejects_incomplete(self):
        with pytest.raises(ValueError):
            cf_from_text("b0: 1\n")
