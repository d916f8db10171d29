import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import to_rational

from seqlim.arith import GUARD_DIGITS, OO, BigFloat, Poly, to_mpf
from seqlim.limits import (
    _RATIO_WINDOW,
    ConvergenceReport,
    DegenerateSystem,
    NoStabilization,
    NotConverging,
    UnderdeterminedSolution,
    ZeroDenominatorTerm,
    _decimal_places,
    _float_quotient_limits,
    apery_limit,
    difference_identity_check,
    difference_ratio_limit,
    extrapolate_power_tail,
    franel_secondary,
    linear_form_decay,
    quotients,
    series_limit,
    solve_vanishing_init,
    telescoped_partial_sums,
    vanishing_start_solution,
)
from seqlim.recognize import eval_constant
from seqlim.recurrence import InitialConditions, Recurrence, SolutionTable
from seqlim.sums import (
    FamilySpec,
    arctan_recurrence,
    delannoy_x_symbolic_pair,
    family_pair,
    family_terms,
    guessed_family_recurrence,
)

F = Fraction


@pytest.fixture(scope="module")
def delannoy():
    return family_pair(FamilySpec("delannoy"))


@pytest.fixture(scope="module")
def apery():
    return family_pair(FamilySpec("apery3"))


class TestQuotients:
    def test_delannoy_values(self, delannoy):
        assert quotients(*delannoy, 3) == [0, F(1, 3), F(9, 26), F(131, 378)]

    def test_apery_start(self, apery):
        assert quotients(*apery, 1) == [0, F(1, 5)]

    def test_equal_solutions(self, delannoy):
        a, _ = delannoy
        assert quotients(a, a, 5) == [F(1)] * 6

    def test_zero_denominator(self):
        # u(n+2) = u(n+1) - u(n) from 1, 1 hits zero at n = 2
        rec = Recurrence([Poly([1]), Poly([-1]), Poly([1])])
        a = SolutionTable(rec, InitialConditions(0, [1, 1]))
        b = SolutionTable(rec, InitialConditions(0, [0, 1]))
        with pytest.raises(ZeroDenominatorTerm) as err:
            quotients(a, b, 4)
        assert err.value.n == 2


class TestDifferenceIdentity:
    def test_delannoy(self, delannoy):
        assert difference_identity_check(*delannoy, 100)
        q = quotients(*delannoy, 6)
        diffs = [q[n] - q[n - 1] for n in range(1, 7)]
        assert diffs == [F(1, 3), F(1, 78), F(1, 2457), F(1, 80892),
                         F(1, 2701215), F(1, 90770922)]

    def test_delannoy_x_at_two(self):
        x = F(2)
        pair = family_pair(FamilySpec("delannoy_x", x=x))
        assert difference_identity_check(*pair, 50)
        q = quotients(*pair, 2)
        denominator = 2 * (1 + 2 * x) * (1 + 6 * x + 6 * x * x)
        assert q[2] - q[1] == F(1, 1) / denominator

    def test_apery(self, apery):
        assert difference_identity_check(*apery, 50)


class TestTelescoped:
    @pytest.mark.parametrize("x", [F(1), F(2), F(3), F(1, 2)])
    def test_partial_sums_equal_quotients(self, x):
        a, b = family_pair(FamilySpec("delannoy_x", x=x))
        assert telescoped_partial_sums(a.recurrence, a, 100) == quotients(a, b, 100)

    def test_limit_value_at_two(self):
        a, _ = family_pair(FamilySpec("delannoy_x", x=F(2)))
        got = telescoped_partial_sums(a.recurrence, a, 90)[-1]
        with mpmath.workdps(60):
            want = mpmath.ln(mpf(3) / 2) / 2
            assert abs(to_mpf(got) - want) < mpf(10) ** -45


class TestAperyLimit:
    def test_delannoy_digits(self, delannoy):
        rep = apery_limit(*delannoy, 47)
        assert rep.certified_digits >= 47
        assert rep.limit_estimate.str_digits(47) == \
            "0.34657359027997265470861606072908828403775006718"

    @pytest.mark.parametrize("name,d", [("delannoy", None), ("apery3", None),
                                        ("franel", 3)])
    def test_certification_honest_under_doubling(self, name, d):
        a, b = family_pair(FamilySpec(name, d=d))
        rep1 = apery_limit(a, b, 30)
        rep2 = apery_limit(a, b, 60)
        gap = abs(rep1.limit_estimate.to_fraction() - rep2.limit_estimate.to_fraction())
        assert gap < F(1, 10) ** rep1.certified_digits

    def test_digit_agreement_grows(self, apery):
        rep = apery_limit(*apery, 60)
        digits = [d for _, d in rep.digit_agreement]
        assert digits == sorted(digits)
        assert 0 < float(rep.difference_ratio.val) < 1

    def test_not_converging_for_constant_quotient(self, delannoy):
        a, _ = delannoy
        with pytest.raises(NotConverging):
            apery_limit(a, a, 20)


class TestDecimalPlaces:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, 10**30), st.integers(1, 10**30), st.integers(-200, 200))
    def test_brackets_the_value(self, num, den, shift):
        x = F(num, den) * F(2) ** shift  # below and above 1
        k = _decimal_places(x.numerator, x.denominator)
        assert F(1, 10) ** (k + 1) < x <= F(1, 10) ** k

    @pytest.mark.parametrize("k", range(-8, 9))
    def test_exact_powers_of_ten(self, k):
        x = F(1, 10) ** k
        assert _decimal_places(x.numerator, x.denominator) == k
        above = x * F(10**12 + 1, 10**12)
        assert _decimal_places(above.numerator, above.denominator) == k - 1
        below = x * F(10**12 - 1, 10**12)
        assert _decimal_places(below.numerator, below.denominator) == k

    @pytest.mark.parametrize("value,exp_sign", [
        (lambda: mpf(3) / 1024, -1),            # 0.0029...
        (lambda: mpf(12345) * 2**40, 1),        # 1.357e16
        (lambda: mpf(2) ** 100, 1),             # mantissa 1
        (lambda: mpf(10) ** -300, -1),          # the nearest binary value to 1e-300
        (lambda: mpf(10) ** 300, 1),
        (lambda: mpf(7) / 10**9, -1),
    ])
    def test_mpf_inputs(self, value, exp_sign):
        with mpmath.workdps(50):
            x = value()
        assert (x.exp > 0) - (x.exp < 0) == exp_sign
        num, den = to_rational(x._mpf_)
        assert F(num, den) == F(int(x.man)) * F(2) ** int(x.exp)
        with mpmath.workdps(400):
            assert _decimal_places(num, den) == int(mpmath.floor(-mpmath.log10(x)))


def _reference_apery_limit(primary, secondary, target_digits, max_terms=20000):
    """The certificate loop as it was when every retry called quotients()."""
    prec = target_digits + 25
    n = max(24, 2 * _RATIO_WINDOW + 4)
    while True:
        q = quotients(primary, secondary, n)
        with mpmath.workdps(prec + 10):
            diffs = [q[i] - q[i - 1] for i in range(n - _RATIO_WINDOW - 1, n + 1)]
            if any(d == 0 for d in diffs):
                raise NotConverging("zero quotient differences; nothing to extrapolate")
            fd = [mpf(d.numerator) / mpf(d.denominator) for d in diffs]
            ratios = [abs(fd[i + 1] / fd[i]) for i in range(len(fd) - 1)]
            rho = max(ratios[-_RATIO_WINDOW:])
            if rho < 1:
                bound = abs(fd[-1]) * rho / (1 - rho)
                certified = int(mpmath.floor(-mpmath.log(bound, 10)))
                certified = min(certified, prec - GUARD_DIGITS)
                if certified >= target_digits:
                    samples = []
                    with mpmath.workdps(prec + 10):
                        for m in range(max(2, n // 8), n, max(1, n // 8)):
                            gap = abs(q[m] - q[n])
                            agreed = prec if gap == 0 else max(
                                0, int(mpmath.floor(-mpmath.log(
                                    mpf(gap.numerator) / mpf(gap.denominator), 10))))
                            samples.append((m, agreed))
                    return ConvergenceReport(
                        terms_used=n,
                        limit_estimate=BigFloat.from_rational(
                            q[n], certified + GUARD_DIGITS),
                        digit_agreement=tuple(samples),
                        difference_ratio=BigFloat(rho, prec),
                        certified_digits=certified,
                    )
        if n >= max_terms:
            raise NotConverging(f"no certificate after {n} terms")
        n = min(max_terms, max(n + 8, (3 * n) // 2))


def _franel_pair(d):
    rec = guessed_family_recurrence(FamilySpec("franel", d=d))
    primary = SolutionTable(rec, InitialConditions(
        0, family_terms(FamilySpec("franel", d=d), rec.order - 1)))
    return primary, franel_secondary(d, rec.order, rec=rec)


def _arctan_pair():
    rec = arctan_recurrence()
    return (SolutionTable(rec, InitialConditions(-1, [0, 1])),
            SolutionTable(rec, InitialConditions(0, [0, 1])))


# fresh (primary, secondary) makers, as the CLI builds them, and their limits
LIMIT_CASES = {
    "delannoy": (lambda: family_pair(FamilySpec("delannoy")), lambda: mpmath.log(2) / 2),
    "apery3": (lambda: family_pair(FamilySpec("apery3")), lambda: mpmath.zeta(3) / 6),
    "arctan": (_arctan_pair, lambda: mpmath.pi / 4),
    "delannoy_x": (lambda: family_pair(FamilySpec("delannoy_x", x=F(4, 7))),
                   lambda: mpmath.log(mpf(11) / 4) / 2),
    "franel5": (lambda: _franel_pair(5), lambda: mpmath.zeta(2) / 6),
}


class TestAperyLimitMatchesQuotientLoop:
    @pytest.mark.parametrize("target", [30, 57, 130, 400])
    @pytest.mark.parametrize("name", sorted(LIMIT_CASES))
    def test_every_report_field_is_equal(self, name, target):
        make, _ = LIMIT_CASES[name]
        got = apery_limit(*make(), target)
        want = _reference_apery_limit(*make(), target)
        assert got.terms_used == want.terms_used
        assert got.certified_digits == want.certified_digits
        assert got.digit_agreement == want.digit_agreement
        for field in ("limit_estimate", "difference_ratio"):
            g, w = getattr(got, field), getattr(want, field)
            assert (g.val, g.precision) == (w.val, w.precision)

    @pytest.mark.parametrize("root", [5, 30])
    def test_vanishing_primary_raises_at_the_same_index(self, root):
        # u(n+2) - 2u(n+1) + u(n) = 0 has the solutions n - root and 1;
        # A(n) = n - root vanishes below the first ratio window (root 5) or
        # between the first and the second retry (root 30)
        rec = Recurrence([Poly([1]), Poly([-2]), Poly([1])])

        def pair():
            return (SolutionTable(rec, InitialConditions(0, [-root, 1 - root])),
                    SolutionTable(rec, InitialConditions(0, [1, 1])))

        with pytest.raises(ZeroDenominatorTerm) as want:
            quotients(*pair(), 40)
        with pytest.raises(ZeroDenominatorTerm) as got:
            apery_limit(*pair(), 30)
        assert got.value.n == want.value.n == root


    def test_secondary_starting_after_zero_fails_as_quotients_does(self, delannoy):
        a, _ = delannoy
        b = SolutionTable(a.recurrence, InitialConditions(1, [0, 1]))
        for run in (lambda: quotients(a, b, 30), lambda: apery_limit(a, b, 30)):
            with pytest.raises(ValueError, match="term 0 precedes"):
                run()

class TestCertificateMargin:
    @pytest.mark.parametrize("name,target", [
        ("delannoy", 50), ("arctan", 50), ("franel5", 50), ("apery3", 200),
        ("delannoy", 400), ("arctan", 200), ("apery3", 58), ("apery3", 100)])
    def test_certified_digits_are_true_digits(self, name, target):
        make, reference = LIMIT_CASES[name]
        rep = apery_limit(*make(), target)
        with mpmath.workdps(rep.certified_digits + 40):
            err = abs(rep.limit_estimate.val - reference())
            true_digits = int(mpmath.floor(-mpmath.log10(err)))
        assert rep.certified_digits <= true_digits


class TestDifferenceRatio:
    def test_delannoy_matches_root_ratio(self, delannoy):
        got = difference_ratio_limit(*delannoy, 120, 30)
        with mpmath.workdps(40):
            assert abs(got.val - (17 - 12 * mpmath.sqrt(2))) < mpf(10) ** -20

    def test_apery_matches_root_ratio(self, apery):
        got = difference_ratio_limit(*apery, 120, 30)
        with mpmath.workdps(40):
            s = mpmath.sqrt(2)
            want = (17 - 12 * s) / (17 + 12 * s)
            assert abs(got.val - want) < mpf(10) ** -20

    def test_arctan_matches_root_ratio(self):
        pair = family_pair(FamilySpec("trinomial_x", x=F(1, 2)))
        got = difference_ratio_limit(*pair, 120, 30)
        with mpmath.workdps(40):
            s = mpmath.sqrt(2)
            assert abs(got.val - (1 - s) / (1 + s)) < mpf(10) ** -20

    def test_constant_quotient_rejected(self, delannoy):
        a, _ = delannoy
        with pytest.raises(NotConverging):
            difference_ratio_limit(a, a, 40, 20)

    def test_extrapolation_recovers_exact_tail(self):
        vals = [F(3) + F(1, n) + F(7, n * n) for n in range(10, 30)]
        got = extrapolate_power_tail(vals, list(range(10, 30)), 30)
        assert got.to_fraction() == 3  # polynomial tails extrapolate exactly


class TestLinearForm:
    def test_zero_inputs(self, apery):
        vals = linear_form_decay(*apery, BigFloat(0, 30), F(0), 5)
        assert all(v.val == 0 for v in vals)

    def test_apery_form_decays(self, apery):
        z3 = eval_constant("zeta3", 200)
        vals = linear_form_decay(*apery, z3, F(6), 30)
        mags = [abs(v.val) for v in vals]
        assert all(mags[i + 1] < mags[i] for i in range(30))
        # F(n) shrinks like the smallest root to the n-th power, ~10^(-1.53 n)
        assert mags[30] < mpf(10) ** -44


class TestSeriesLimit:
    def test_finite_center_one(self):
        ap, bp = delannoy_x_symbolic_pair(44)
        got = series_limit(ap, bp, 1, 4)
        assert dict(got.coefficients) == {1: F(-1, 4), 2: F(3, 16),
                                          3: F(-7, 48), 4: F(15, 128)}

    def test_infinity_from_three_terms(self):
        ap, bp = delannoy_x_symbolic_pair(3)
        got = series_limit(ap, bp, OO, 6)
        assert [v for _, v in got.coefficients] == [
            0, F(1, 2), F(-1, 4), F(1, 6), F(-1, 8), F(1, 10), F(-1, 12)]
        assert got.stable_through == 6

    def test_center_zero_blows_up(self):
        ap, bp = delannoy_x_symbolic_pair(21)
        with pytest.raises(NoStabilization) as err:
            series_limit(ap, bp, 0, 3)
        table = err.value.coefficient_table
        assert all(v == -n * (n + 1) for n, v in table[1])
        assert all(v == F(n * (n + 1) * (5 * n * n + 5 * n + 6), 8)
                   for n, v in table[2])


class TestFranelSecondary:
    def test_low_power_inits(self):
        b3 = franel_secondary(3, 5)
        assert b3.term(0) == 0 and b3.term(1) == 1

    def test_d5_negative_index_enforcement(self):
        b5 = franel_secondary(5, 5)
        assert b5.term(2) == F(89, 12)
        # the relation at n = -1 holds with the terms below index 0 absent:
        # c0(-1) vanishes, so only u(0), u(1), u(2) enter
        rec = guessed_family_recurrence(FamilySpec("franel", d=5))
        assert rec.coeffs[0](F(-1)) == 0
        total = sum(rec.coeffs[k](F(-1)) * b5.term(k - 1) for k in range(1, 4))
        assert total == 0

    def test_d10_needs_explicit_pin(self):
        b10 = franel_secondary(10, 4)
        assert b10.term(1) == 1 and b10.term(2) == F(381, 4)

    def test_underdetermined_without_pin(self):
        rec = guessed_family_recurrence(FamilySpec("franel", d=10))
        with pytest.raises(UnderdeterminedSolution) as err:
            vanishing_start_solution(rec, 4)
        assert err.value.dim == 2


class TestSolveVanishingInit:
    def test_franel5_tertiary(self):
        rec = guessed_family_recurrence(FamilySpec("franel", d=5))
        a_init = family_terms(FamilySpec("franel", d=5), rec.order - 1)
        got = solve_vanishing_init(rec, a_init, "zeta4", ["zeta2"], 40)
        assert got.free_values == (F(48, 7),)
        assert got.multiple == F(27, 112)

    def test_wrong_kill_count(self):
        rec = guessed_family_recurrence(FamilySpec("franel", d=5))
        a_init = family_terms(FamilySpec("franel", d=5), rec.order - 1)
        with pytest.raises(DegenerateSystem):
            solve_vanishing_init(rec, a_init, "zeta4", ["zeta2", "zeta6"], 30)

    def test_synthetic_fixture_recovers_planted_value(self):
        # compose the half-log recurrence with (S - 2): the kernel picks up a
        # solution growing like 2^n whose quotient limit vanishes, so limits
        # of the order-3 solutions live in span{1, log-limit}
        base = family_pair(FamilySpec("delannoy"))[0].recurrence
        c0, c1, c2 = base.coeffs
        composed = Recurrence([
            -2 * c0,
            c0.taylor_shift(1) - 2 * c1,
            c1.taylor_shift(1) - 2 * c2,
            c2.taylor_shift(1),
        ])
        a_init = [F(1), F(3), F(13)]  # dominant solution: the family itself
        got = solve_vanishing_init(composed, a_init, "ln2", ["one"], 40)
        # verify independently: the returned solution tends to multiple*ln2
        tab = SolutionTable(composed, InitialConditions(0, got.init_values))
        a = SolutionTable(composed, InitialConditions(0, a_init))
        q = quotients(a, tab, 260)[-1]
        with mpmath.workdps(60):
            want = mpmath.ln(2) * mpf(got.multiple.numerator) / mpf(got.multiple.denominator)
            gotv = mpf(q.numerator) / mpf(q.denominator)
            assert abs(gotv - want) < mpf(10) ** -35
        # a perturbed free value must not give a pure ln2 multiple
        bad = SolutionTable(composed, InitialConditions(
            0, [F(0), F(1), got.free_values[0] + 1]))
        qbad = quotients(a, bad, 260)[-1]
        with mpmath.workdps(60):
            ratio = (mpf(qbad.numerator) / mpf(qbad.denominator)) / mpmath.ln(2)
            nearest = mpmath.nint(ratio * 10**6) / 10**6
            assert abs(ratio - nearest) > mpf(10) ** -12


def _mpf_quotient_limits(rec, inits, primary_init, precision, max_terms=6000):
    """The mpf stepper that fixed-point stepping replaced, kept as a reference.

    Every sequence steps in mpf at precision + 40 digits on the integer
    coefficient rows, with the same checkpoints and stopping rule.
    """
    m = rec.order
    with mpmath.workdps(precision + 40):
        a, *us = [[to_mpf(F(v)) for v in values] for values in [primary_init, *inits]]
        last, out = [None] * len(us), [None] * len(us)
        active = list(range(len(us)))
        tol = mpf(10) ** (-(precision + 8))
        n, checkpoint = m - 1, max(2 * m, 12)
        while n < max_terms:
            base = n - m + 1
            cs = rec.coeffs_at(base)
            for seq in [a] + [us[j] for j in active]:
                acc = mpf(0)
                for k in range(m):
                    acc += cs[k] * seq[base + k]
                seq.append(-acc / cs[m])
            n += 1
            if n >= checkpoint:
                for j in list(active):
                    cur = us[j][n] / a[n]
                    if last[j] is not None and abs(cur - last[j]) < tol:
                        out[j] = BigFloat(cur, precision)
                        active.remove(j)
                    last[j] = cur
                if not active:
                    return out
                checkpoint = n + 5
    raise AssertionError("reference stepping did not converge")


def _tertiary_setup(d, factor=None):
    """The franel recurrence (times the polynomial ``factor``), its primary
    start and the basis vectors that solve_vanishing_init steps."""
    rec = guessed_family_recurrence(FamilySpec("franel", d=d))
    if factor is not None:
        rec = Recurrence([factor * c for c in rec.coeffs], offset=rec.offset)
    m = rec.order
    inits = [[F(0), F(1)] + [F(0)] * (m - 2)]
    inits += [[F(int(i == j)) for i in range(m)] for j in range(2, m)]
    return rec, family_terms(FamilySpec("franel", d=d), m - 1), inits


class TestFixedPointQuotientLimits:
    @pytest.mark.parametrize("factor", [None, Poly([-41, 2])], ids=["plain", "times_2n-41"])
    @pytest.mark.parametrize("precision", [30, 70, 110, 150])
    @pytest.mark.parametrize("d", range(3, 11))
    def test_agrees_with_mpf_stepping(self, d, precision, factor):
        # the factor 2n - 41 keeps the solutions and makes c_m(n) < 0 for n <= 20
        rec, a_init, inits = _tertiary_setup(d, factor)
        got = _float_quotient_limits(rec, inits, a_init, precision)
        want = _mpf_quotient_limits(rec, inits, a_init, precision)
        assert len(got) == len(want) == len(inits)
        with mpmath.workdps(precision + 20):
            for g, w in zip(got, want):
                assert g.precision == precision
                assert abs(g.val - w.val) <= mpf(10) ** -(precision + 2) * max(1, abs(w.val))

    def test_mantissas_share_one_bounded_exponent(self, monkeypatch):
        # each step reads the stepper's primary window before stepping it:
        # the common right shift keeps it within twice the mantissa width
        rec, a_init, inits = _tertiary_setup(10)
        coeffs_at = Recurrence.coeffs_at
        seen = []

        def spy(self, n):
            frame = sys._getframe(1)
            if frame.f_code.co_name == "_float_quotient_limits":
                seen.append(max(u.bit_length() for u in frame.f_locals["a"])
                            / frame.f_locals["bits"])
            return coeffs_at(self, n)

        monkeypatch.setattr(Recurrence, "coeffs_at", spy)
        _float_quotient_limits(rec, inits, a_init, 150)
        assert len(seen) > 100 and max(seen) <= 2
