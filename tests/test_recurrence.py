import random
import threading
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mpf

from seqlim.arith import BigFloat, Poly, RatFunc, to_mpf
from seqlim.limits import _float_quotient_limits, telescoped_partial_sums
from seqlim.recurrence import (
    DivergentCoefficient,
    EqualModuli,
    InitialConditions,
    InsufficientTerms,
    Recurrence,
    SingularLeadingCoefficient,
    SolutionTable,
    ZeroDenominatorTerm,
    ZeroTail,
    _GUESS_PRIMES,
    _echelon_mod,
    _null_vector_mod,
    casoratian,
    casoratian_check,
    casoratian_series,
    characteristic_polynomial,
    characteristic_roots,
    guess_recurrence,
    poincare_classify,
    recurrence_from_text,
    recurrence_to_text,
    rescale,
    secondary_from_primary,
)
from seqlim.sums import (
    FamilySpec,
    apery3_recurrence,
    arctan_recurrence,
    delannoy_recurrence,
    delannoy_x_recurrence,
    family_pair,
    family_recurrence,
    family_terms,
    guessed_family_recurrence,
    primary_init,
)

F = Fraction


@pytest.fixture(scope="module")
def delannoy():
    return family_pair(FamilySpec("delannoy"))


@pytest.fixture(scope="module")
def apery():
    return family_pair(FamilySpec("apery3"))


def _catalog_recurrences():
    recs = [delannoy_recurrence(), delannoy_x_recurrence(F(5, 3)),
            apery3_recurrence(), arctan_recurrence()]
    return recs + [guessed_family_recurrence(FamilySpec("franel", d=d))
                   for d in range(3, 9)]


class TestCoefficientKernel:
    def test_matches_poly_evaluation_on_catalog(self):
        for rec in _catalog_recurrences():
            for n in range(-5, 301):
                got = rec.coeffs_at(n)
                assert all(type(c) is int for c in got)
                assert got == [c(F(n)) for c in rec.coeffs]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(st.fractions(-1000, 1000, max_denominator=50),
                             min_size=0, max_size=6),
                    min_size=2, max_size=5),
           st.integers(-40, 40))
    def test_matches_poly_evaluation_on_random_inputs(self, rows, n):
        polys = [Poly(r) for r in rows]
        if polys[-1].is_zero:
            polys[-1] = Poly([1])
        rec = Recurrence(polys)
        got = rec.coeffs_at(n)
        assert all(type(c) is int for c in got)
        assert got == [c(F(n)) for c in rec.coeffs]
        # the stored rows are one fixed rational multiple of the input
        scale = rec.coeffs[-1].leading / polys[-1].leading
        assert got == [scale * p(F(n)) for p in polys]

    @pytest.mark.parametrize("root", [-3, 0, 2, 7])
    def test_singular_leading_step(self, root):
        # order 3 with leading coefficient (n - root)(n + 10)
        lead = Poly([-root, 1]) * Poly([10, 1])
        rec = Recurrence([Poly([1]), Poly([0, 1]), Poly([2]), lead], offset=-5)
        tab = SolutionTable(rec, InitialConditions(-5, [1, 2, 3]))
        with pytest.raises(SingularLeadingCoefficient) as err:
            tab.evaluate(20)
        assert err.value.n == root
        tab.with_term(root + 3, 0)  # the blocked value, supplied explicitly
        assert len(tab.terms(root + 5)) == root + 11


def _one_vector_reference(rec, init, primary_init, precision, max_terms=6000):
    """Quotient limit by stepping one vector with Fraction-Horner coefficients."""
    m = rec.order
    with mpmath.workdps(precision + 40):
        u = [mpf(F(v).numerator) / mpf(F(v).denominator) for v in init]
        a = [mpf(F(v).numerator) / mpf(F(v).denominator) for v in primary_init]
        tol = mpf(10) ** (-(precision + 8))
        n, last, checkpoint = m - 1, None, max(2 * m, 12)
        while n < max_terms:
            cs = [int(c(F(n - m + 1))) for c in rec.coeffs]
            acc_u = acc_a = mpf(0)
            for k in range(m):
                acc_u += cs[k] * u[n - m + 1 + k]
                acc_a += cs[k] * a[n - m + 1 + k]
            u.append(-acc_u / cs[m])
            a.append(-acc_a / cs[m])
            n += 1
            if n >= checkpoint:
                cur = u[n] / a[n]
                if last is not None and abs(cur - last) < tol:
                    return BigFloat(cur, precision)
                last = cur
                checkpoint = n + 5
    raise AssertionError("reference stepping did not converge")


class TestBatchedQuotientLimits:
    @pytest.mark.parametrize("d,precision", [(5, 40), (7, 70), (9, 112)])
    def test_batch_equals_one_vector_runs(self, d, precision):
        rec = guessed_family_recurrence(FamilySpec("franel", d=d))
        m = rec.order
        a_init = family_terms(FamilySpec("franel", d=d), m - 1)
        inits = [[F(0), F(1)] + [F(0)] * (m - 2)]
        inits += [[F(int(i == j)) for i in range(m)] for j in range(2, m)]
        batch = _float_quotient_limits(rec, inits, a_init, precision)
        for init, got in zip(inits, batch):
            alone, = _float_quotient_limits(rec, [init], a_init, precision)
            assert got.val == alone.val and got.precision == alone.precision
            ref = _one_vector_reference(rec, init, a_init, precision)
            assert got.val == ref.val and got.precision == ref.precision


class TestEvaluate:
    def test_delannoy_terms(self, delannoy):
        a, _ = delannoy
        assert a.terms(4) == [0, 1, 3, 13, 63, 321]

    def test_delannoy_secondary(self, delannoy):
        a, b = delannoy
        assert b.term(2) == F(9, 2)
        assert b.term(2) / a.term(2) == F(9, 26)

    def test_apery_terms(self, apery):
        a, _ = apery
        assert [a.term(n) for n in range(3)] == [1, 5, 73]

    def test_reevaluation_idempotent(self, delannoy):
        a, _ = delannoy
        assert a.terms(10) == a.terms(10)

    def test_singular_leading_coefficient(self):
        # leading coefficient (n-1) vanishes when stepping over n = 1
        rec = Recurrence([Poly([1]), Poly([1]), Poly([-1, 1])])
        tab = SolutionTable(rec, InitialConditions(0, [1, 1]))
        tab.term(2)  # relation at n = 0 is fine
        with pytest.raises(SingularLeadingCoefficient) as err:
            tab.term(3)
        assert err.value.n == 1
        tab.with_term(3, 99)  # caller supplies the blocked value explicitly
        assert tab.term(4) == -(99 + 2)  # relation at n = 2: 1*u4 + u3 + u2 = 0


def _fraction_stepping(rec, start, values, upto, supplied=None):
    """u(start..upto) by plain Fraction stepping on Poly-evaluated coefficients."""
    d = rec.order
    supplied = supplied or {}
    terms = [F(v) for v in values]
    for m in range(start + d, upto + 1):
        if m in supplied:
            terms.append(F(supplied[m]))
            continue
        n = m - d
        cs = [c(F(n)) for c in rec.coeffs]
        if cs[d] == 0:
            raise SingularLeadingCoefficient(n)
        terms.append(-sum(cs[k] * terms[n - start + k] for k in range(d)) / cs[d])
    return terms


def _rational_init(rec):
    return [F((-1) ** i * (3 * i + 1), 2 * i + 3) for i in range(rec.order)]


class TestFractionFreeStepping:
    @pytest.mark.parametrize("index", range(len(_catalog_recurrences())))
    def test_matches_fraction_stepping_on_catalog(self, index):
        rec = _catalog_recurrences()[index]
        start = max(rec.offset, 0)
        values = _rational_init(rec)
        tab = SolutionTable(rec, InitialConditions(start, values))
        got = tab.terms(300)
        assert got == _fraction_stepping(rec, start, values, 300)
        assert all(type(t) is F for t in got)

    def test_uneven_chunks(self):
        rec = guessed_family_recurrence(FamilySpec("franel", d=5))
        values = _rational_init(rec)
        want = _fraction_stepping(rec, 0, values, 300)
        tab = SolutionTable(rec, InitialConditions(0, values))
        for upto in (10, 57, 300):
            assert tab.terms(upto) == want[:upto + 1]
            assert tab.term(upto // 2) == want[upto // 2]

    def test_supplied_term_between_extensions(self):
        rec = apery3_recurrence()
        tab = SolutionTable(rec, InitialConditions(0, [1, 5]))
        tab.evaluate(40)
        tab.with_term(41, F(7, 11))
        got = tab.terms(120)
        assert got == _fraction_stepping(rec, 0, [1, 5], 120, {41: F(7, 11)})

    @pytest.mark.parametrize("make", [
        lambda: family_pair(FamilySpec("delannoy"))[1],
        lambda: family_pair(FamilySpec("apery3"))[1],
        lambda: SolutionTable(arctan_recurrence(), InitialConditions(0, [0, 1])),
    ])
    def test_secondary_with_growing_denominators(self, make):
        tab = make()
        start = tab.start_index
        values = tab.init.values
        got = tab.terms(300)
        assert got == _fraction_stepping(tab.recurrence, start, values, 300)
        assert got[-1].denominator > 10**100


class TestLazyReduction:
    K = SolutionTable.GCD_PERIOD

    @pytest.mark.parametrize("make", [
        apery3_recurrence,
        lambda: guessed_family_recurrence(FamilySpec("franel", d=5)),
        # leading coefficient 2n - 33 is negative up to n = 16
        lambda: Recurrence([Poly([1, 1]), Poly([3]), Poly([-33, 2])]),
    ], ids=["apery3", "franel5", "negative_lead"])
    def test_interleaved_reads_at_gcd_boundaries(self, make):
        rec, K = make(), self.K
        values = _rational_init(rec)
        upto = 6 * K + 1
        supplied = {3 * K + 1: F(7, 11)}
        want = _fraction_stepping(rec, 0, values, upto, supplied)
        tab = SolutionTable(rec, InitialConditions(0, values))
        assert tab.term(K - 1) == want[K - 1]
        tab.evaluate(K)
        assert tab.term(K + 1) == want[K + 1]
        tab.evaluate(2 * K - 1)
        assert tab.nonzero(2 * K) == (want[2 * K] != 0)
        assert tab.term(2 * K) == want[2 * K]
        tab.evaluate(3 * K)
        tab.with_term(3 * K + 1, supplied[3 * K + 1])
        assert tab.term(4 * K - 1) == want[4 * K - 1]
        tab.evaluate(4 * K + 1)
        assert tab.term(4 * K) == want[4 * K]
        tab.evaluate(5 * K)
        for j in range(1, 7):
            for n in (j * K - 1, j * K, j * K + 1):
                assert tab.term(n) == want[n]
        got = tab.terms(upto)
        assert got == want
        assert all(type(t) is F for t in got)

    def test_nonzero_reads_the_numerator(self):
        # Legendre polynomials at 0: (n+2) u(n+2) + (n+1) u(n) = 0, zero at odd n
        rec = Recurrence([Poly([1, 1]), Poly(), Poly([2, 1])])
        tab = SolutionTable(rec, InitialConditions(0, [1, 0]))
        upto = 3 * self.K + 2
        tab.evaluate(upto)
        flags = [tab.nonzero(n) for n in range(upto + 1)]
        assert flags == [n % 2 == 0 for n in range(upto + 1)]
        assert flags == [tab.term(n) != 0 for n in range(upto + 1)]
        assert flags == [tab.nonzero(n) for n in range(upto + 1)]
        assert tab.terms(upto) == _fraction_stepping(rec, 0, [1, 0], upto)

    def test_nonzero_before_the_start_is_rejected(self):
        tab = SolutionTable(delannoy_recurrence(), InitialConditions(0, [1, 3]))
        with pytest.raises(ValueError, match="precedes"):
            tab.nonzero(-1)


class TestCasoratian:
    def test_delannoy_at_zero(self, delannoy):
        a, b = delannoy
        assert casoratian(a.recurrence, [a, b], 0) == 1

    def test_delannoy_matches_reciprocal(self, delannoy):
        a, b = delannoy
        assert casoratian(a.recurrence, [a, b], 1) == F(1, 2)
        for n in range(12):
            assert casoratian(a.recurrence, [a, b], n) == F(1, n + 1)

    def test_duplicated_solution_vanishes(self, delannoy):
        a, _ = delannoy
        assert casoratian(a.recurrence, [a, a], 3) == 0

    def test_product_formula_delannoy(self, delannoy):
        a, b = delannoy
        assert casoratian_check(a.recurrence, [a, b], 50)

    def test_product_formula_apery(self, apery):
        a, b = apery
        assert casoratian_check(a.recurrence, [a, b], 50)

    def test_product_formula_degenerate(self, delannoy):
        a, _ = delannoy
        assert casoratian_check(a.recurrence, [a, a], 20)


class TestSecondaryFromPrimary:
    def test_delannoy_recovers_secondary(self, delannoy):
        a, b = delannoy
        u2 = secondary_from_primary(a.recurrence, a, 40)
        assert [u2.term(n) for n in range(41)] == [b.term(n) for n in range(41)]

    def test_apery_recovers_secondary(self, apery):
        a, b = apery
        u2 = secondary_from_primary(a.recurrence, a, 40)
        assert [u2.term(n) for n in range(41)] == [b.term(n) for n in range(41)]

    def test_alternating_partial_sums(self):
        # u(n+2) = u(n) with u1 = 1: secondary is 0,1,0,1,...
        rec = Recurrence([Poly([-1]), Poly(), Poly([1])])
        one = SolutionTable(rec, InitialConditions(0, [1, 1]))
        u2 = secondary_from_primary(rec, one, 10)
        assert [u2.term(n) for n in range(6)] == [0, 1, 0, 1, 0, 1]


def _ratfunc_p0(rec):
    """p_0 = c_0/c_d as a reduced RatFunc, the form the kernel replaced."""
    return RatFunc(rec.coeffs[0], rec.coeffs[-1])


def _ratfunc_casoratian_series(rec, sols, upto):
    p0, sign = _ratfunc_p0(rec), (-1) ** rec.order
    out = [casoratian(rec, sols, 0)]
    for n in range(upto):
        out.append(sign * p0(n) * out[-1])
    return out


def _ratfunc_partial_sums(rec, primary, w, upto):
    p0, acc, out = _ratfunc_p0(rec), F(0), [F(0)]
    for n in range(1, upto + 1):
        acc += w / (primary.term(n - 1) * primary.term(n))
        out.append(acc)
        w *= p0(n - 1)
    return out


_KERNEL_SPECS = [FamilySpec("delannoy"), FamilySpec("delannoy_x", x=F(5, 3)),
                 FamilySpec("apery3"), FamilySpec("trinomial_x", x=F(1, 2))] + \
    [FamilySpec("franel", d=d) for d in range(3, 9)]


class TestCasoratianKernel:
    """The integer-row Casoratian steps give the RatFunc products' values."""

    @pytest.mark.parametrize("spec", _KERNEL_SPECS, ids=lambda s: s.name + (
        f"-d{s.d}" if s.d else "") + (f"-x{s.x}" if s.x else ""))
    def test_matches_ratfunc_products(self, spec):
        rec = family_recurrence(spec)
        primary = SolutionTable(rec, primary_init(spec, rec))
        start = primary.start_index
        sols = [primary] + [SolutionTable(rec, InitialConditions(
            start, [F(i == j, j + 2) for i in range(rec.order)])) for j in range(1, rec.order)]
        assert casoratian_series(rec, sols, 300) == _ratfunc_casoratian_series(rec, sols, 300)
        if rec.order != 2:
            return
        assert telescoped_partial_sums(rec, primary, 300) == \
            _ratfunc_partial_sums(rec, primary, primary.term(0), 300)
        sums = _ratfunc_partial_sums(rec, primary, F(1), 300)
        u2 = secondary_from_primary(rec, primary, 300)
        assert [u2.term(n) for n in range(301)] == \
            [primary.term(n) * s for n, s in enumerate(sums)]

    def test_zero_primary_term_is_reported_by_index(self):
        # u(n+2) = u(n+1) - u(n) from u(-1) = u(0) = 1 vanishes first at n = 1,
        # the third entry of primary.terms()
        rec = Recurrence([Poly([1]), Poly([-1]), Poly([1])], offset=-1)
        primary = SolutionTable(rec, InitialConditions(-1, [1, 1]))
        for build in (telescoped_partial_sums, secondary_from_primary):
            with pytest.raises(ZeroDenominatorTerm) as err:
                build(rec, primary, 10)
            assert err.value.n == 1


class TestCharacteristic:
    def test_delannoy(self):
        assert characteristic_polynomial(delannoy_recurrence()) == Poly([1, -6, 1])

    def test_apery(self):
        assert characteristic_polynomial(apery3_recurrence()) == Poly([1, -34, 1])

    def test_arctan(self):
        assert characteristic_polynomial(arctan_recurrence()) == Poly([-1, -2, 1])

    def test_divergent_coefficient(self):
        rec = Recurrence([Poly([0, 0, 1]), Poly([1]), Poly([1, 1])])
        with pytest.raises(DivergentCoefficient):
            characteristic_polynomial(rec)

    def test_quadratic_roots(self):
        roots = characteristic_roots(Poly([1, -6, 1]), 30)
        with mpmath.workdps(40):
            s = mpmath.sqrt(2)
            assert abs(roots.roots[0] - (3 + 2 * s)) < mpf(10) ** -28
            assert abs(roots.roots[1] - (3 - 2 * s)) < mpf(10) ** -28
        assert not roots.equal_moduli

    def test_equal_moduli_flagged(self):
        roots = characteristic_roots(Poly([-1, 0, 1]), 30)
        assert roots.equal_moduli
        got = sorted(float(z.real) for z in roots.roots)
        assert got == pytest.approx([-1.0, 1.0])

    def test_roots_recompose_polynomial(self):
        p = Poly([1, -34, 1])
        roots = characteristic_roots(p, 40)
        with mpmath.workdps(50):
            prod_c0 = roots.roots[0] * roots.roots[1]
            sum_c1 = roots.roots[0] + roots.roots[1]
            assert abs(prod_c0 - 1) < mpf(10) ** -30
            assert abs(sum_c1 - 34) < mpf(10) ** -30

    @pytest.mark.parametrize("factors, want", [
        ([Poly([-1, 1])] * 3, [1, 1, 1]),
        ([Poly([1, 0, 1])] * 2, [1j, 1j, -1j, -1j]),
        ([Poly([-2, 1])] * 2 + [Poly([3, 1])], [2, 2, -3]),
        ([Poly([F(1, 2), 1])] * 4 + [Poly([-1, 0, 1])] * 2, [-0.5] * 4 + [1, 1, -1, -1]),
    ], ids=["(t-1)^3", "(t^2+1)^2", "(t-2)^2(t+3)", "(t+1/2)^4(t^2-1)^2"])
    @pytest.mark.parametrize("precision", [20, 30, 60])
    def test_repeated_roots_at_full_precision(self, factors, want, precision):
        p = Poly([1])
        for f in factors:
            p = p * f
        roots = characteristic_roots(p, precision)
        assert len(roots.roots) == len(want) == p.degree
        with mpmath.workdps(precision + 10):
            left = [mpmath.mpc(z) for z in roots.roots]
            for w in want:
                # each exact root matches one returned root to full precision
                i = min(range(len(left)), key=lambda k: abs(left[k] - w))
                assert abs(left.pop(i) - w) < mpf(10) ** -precision

    def test_square_free_polynomial_takes_one_polyroots_call(self, monkeypatch):
        calls = []
        polyroots = mpmath.polyroots

        def counted(coeffs, **kwargs):
            calls.append(len(coeffs) - 1)
            return polyroots(coeffs, **kwargs)

        monkeypatch.setattr(mpmath, "polyroots", counted)
        p = characteristic_polynomial(guessed_family_recurrence(FamilySpec("franel", d=10)))
        characteristic_roots(p, 30)
        assert calls == [p.degree]
        calls.clear()
        characteristic_roots(Poly([-2, 1]) ** 2 * Poly([3, 1]), 30)
        assert calls == [1, 1]  # t+3 (simple), then t-2 (double)

    @pytest.mark.parametrize("d", range(3, 11))
    def test_cubic_roots_recompose(self, d):
        rec = guessed_family_recurrence(FamilySpec("franel", d=d))
        p = characteristic_polynomial(rec)
        roots = characteristic_roots(p, 40)
        with mpmath.workdps(55):
            coeffs = [mpmath.mpc(1)]
            for z in roots.roots:
                coeffs = [a - z * b for a, b in
                          zip(coeffs + [mpmath.mpc(0)], [mpmath.mpc(0)] + coeffs)]
            for got, want in zip(reversed(coeffs), p.coeffs):
                wantf = mpf(want.numerator) / mpf(want.denominator)
                assert abs(got - wantf) < mpf(10) ** -30


class TestPoincareClassify:
    def test_delannoy_primary_dominant(self, delannoy):
        a, _ = delannoy
        roots = characteristic_roots(Poly([1, -6, 1]), 30)
        got = poincare_classify(a, roots, 100)
        assert got.root_index == 0
        # the raw ratio carries O(1/n) corrections; only closeness matters
        with mpmath.workdps(35):
            assert abs(got.ratio.val - (3 + 2 * mpmath.sqrt(2))) < mpf("0.05")

    def test_zero_tail(self):
        rec = Recurrence([Poly([-1]), Poly(), Poly([1])])
        zero = SolutionTable(rec, InitialConditions(0, [0, 0]))
        roots = characteristic_roots(Poly([2, -3, 1]), 20)  # roots 1 and 2
        with pytest.raises(ZeroTail):
            poincare_classify(zero, roots, 10)

    def test_equal_moduli_rejected(self, delannoy):
        a, _ = delannoy
        roots = characteristic_roots(Poly([-1, 0, 1]), 20)
        with pytest.raises(EqualModuli):
            poincare_classify(a, roots, 10)

    @pytest.mark.parametrize("kind", ["BigFloat", "mpf", "int"])
    @pytest.mark.parametrize("start", [-1, 0])
    def test_values_classify_as_their_table(self, start, kind):
        # D(-1) = 0, D(0) = 1, D(1) = 3; values are indexed from 0 whatever
        # index the table starts at, and are rounded at the roots' precision
        table = SolutionTable(delannoy_recurrence(),
                              InitialConditions(start, [0, 1, 3][start + 1:start + 3]))
        roots = characteristic_roots(Poly([1, -6, 1]), 30)
        terms = [table.term(n) for n in range(102)]
        convert = {"BigFloat": lambda t: BigFloat(t, 30), "mpf": to_mpf, "int": int}[kind]
        with mpmath.workdps(30):
            values = [convert(t) for t in terms]
        got = poincare_classify(values, roots, 100)
        assert got == poincare_classify(table, roots, 100)
        assert got.root_index == 0

    @pytest.mark.parametrize("values, error", [
        ([0] * 12, ZeroTail),
        ([1] * 10 + [0, 1], ZeroTail),  # u(N) = 0
        ([1] * 11, ValueError),         # no u(N+1)
    ])
    def test_unusable_values(self, values, error):
        roots = characteristic_roots(Poly([2, -3, 1]), 20)
        with pytest.raises(error):
            poincare_classify(values, roots, 10)


class TestGuessRecurrence:
    def test_delannoy_from_25_terms(self):
        terms = family_terms(FamilySpec("delannoy"), 24)
        rec = guess_recurrence(terms, 2, 1)
        assert rec is not None
        assert rec.proportional_to(delannoy_recurrence())

    def test_apery_from_30_terms(self):
        terms = family_terms(FamilySpec("apery3"), 29)
        rec = guess_recurrence(terms, 2, 3)
        assert rec is not None
        assert rec.proportional_to(apery3_recurrence())

    def test_franel5_from_40_terms(self):
        terms = family_terms(FamilySpec("franel", d=5), 39)
        rec = guess_recurrence(terms, 3, 6)
        assert rec is not None and rec.order == 3
        p = Poly([6, 33, 55])
        lead = Poly([3, 1]) ** 4 * p.taylor_shift(1)
        trail = 32 * Poly([1, 1]) ** 4 * p.taylor_shift(2)
        # proportionality up to overall content via cross-multiplication
        assert rec.coeffs[3] * trail == rec.coeffs[0] * lead

    def test_constant_sequence(self):
        rec = guess_recurrence([F(1)] * 20, 1, 0)
        assert rec is not None
        assert rec.coeffs == (Poly([-1]), Poly([1]))

    def test_insufficient_terms(self):
        with pytest.raises(InsufficientTerms) as err:
            guess_recurrence([F(1)] * 10, 2, 3)
        assert err.value.required == 3 * 4 + 2 + 5

    def test_no_recurrence_for_primes(self):
        primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                  53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113]
        assert guess_recurrence(primes, 2, 2) is None

    @pytest.mark.parametrize("name,d", [("delannoy", None), ("apery3", None),
                                        ("franel", 3)])
    def test_roundtrip_on_catalog(self, name, d):
        spec = FamilySpec(name, d=d)
        terms = family_terms(spec, 45)
        rec = guess_recurrence(terms, 3, 4)
        assert rec is not None
        verify = [rec.relation_value(dict(enumerate(terms)), n) == 0
                  for n in range(len(terms) - rec.order)]
        assert all(verify)

    def test_generated_recurrences_come_back_minimal(self):
        # seeded recurrences of order 1..3 and degree 0..3 with 3-, 8- and 30-bit
        # coefficients; a leading coefficient with positive coefficients has no
        # root at n >= 0.  Large coefficients make the first reconstructions
        # wrong fractions, which must be lifted further instead of dropped.
        rng = random.Random(0)
        for _ in range(120):
            order, degree = rng.randint(1, 3), rng.randint(0, 3)
            top = 2 ** rng.choice((3, 8, 30))
            coeffs = [Poly([rng.randint(-top, top) for _ in range(degree + 1)])
                      for _ in range(order)]
            rec = Recurrence(coeffs + [Poly([rng.randint(1, top) for _ in range(degree + 1)])])
            init = [F(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(order)]
            # as many terms as `guess --max-order 3 --max-degree 4` generates
            terms = SolutionTable(rec, InitialConditions(0, init)).terms((3 + 1) * (4 + 1) + 3 + 14)
            got = guess_recurrence(terms, 3, 4)
            assert got is not None
            assert (got.order, max(c.degree for c in got.coeffs)) <= \
                (rec.order, max(c.degree for c in rec.coeffs))

    def test_rational_terms(self):
        # guessing is invariant under a global rational rescaling of the terms
        terms = [t / 7 for t in family_terms(FamilySpec("delannoy"), 24)]
        rec = guess_recurrence(terms, 2, 1)
        assert rec is not None and rec.proportional_to(delannoy_recurrence())


def _reference_nullspace(matrix, p):
    """Pivots and {free column: nullspace vector} from a plain full RREF mod p."""
    a = [[x % p for x in row] for row in matrix]
    cols = len(a[0])
    pivots = []
    for col in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = pow(a[r][col], -1, p)
        a[r] = [x * inv % p for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[r])]
        pivots.append(col)
    vectors = {}
    for f in (c for c in range(cols) if c not in pivots):
        v = [0] * cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -a[i][f] % p
        vectors[f] = v
    return pivots, vectors


def _check_against_reference(matrix, p):
    pivots, ech = _echelon_mod(np.array(matrix, dtype=np.int64), p)
    ref_pivots, ref_vectors = _reference_nullspace(matrix, p)
    assert pivots == ref_pivots
    for f, ref in ref_vectors.items():
        v = _null_vector_mod(ech, pivots, f, p)
        assert v + [0] * (len(ref) - len(v)) == ref
        assert all(sum(x * y for x, y in zip(row, v)) % p == 0 for row in matrix)
    return pivots


def _low_rank(rng, rows, cols, rank, p):
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)]
            for row in left]


#: A prime just below 2**30: (p-1)**2 is near 2**60, so the lazily reduced
#: elimination must reduce its trailing block every 8 steps.
_P30 = 1073741789


class TestModularElimination:
    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([2, 3, 5, 7, 101, _GUESS_PRIMES[0]]),
           st.integers(1, 7), st.integers(1, 7), st.integers(0, 2**32))
    def test_matches_reference_small(self, p, rows, cols, seed):
        rng = random.Random(seed)
        if rng.random() < 0.5:
            matrix = _low_rank(rng, rows, cols, rng.randint(0, min(rows, cols)), p)
        else:
            matrix = [[rng.randrange(-3 * p, 3 * p) for _ in range(cols)]
                      for _ in range(rows)]
        _check_against_reference(matrix, p)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(40, 50), st.integers(0, 2**32))
    def test_periodic_reduction_near_2_30(self, rank, seed):
        # 40+ unreduced steps of products near 2**58 would overflow int64
        rng = random.Random(seed)
        matrix = _low_rank(rng, 60, 56, rank, _P30)
        pivots = _check_against_reference(matrix, _P30)
        # more pivots than the reduction period, so the trailing block was
        # reduced mid-elimination
        assert len(pivots) > (2**63 - _P30 - 1) // (_P30 - 1) ** 2

    @pytest.mark.parametrize("d,order,degree", [
        (3, 2, 2), (4, 2, 3), (5, 3, 6), (6, 3, 9), (7, 4, 16), (8, 4, 21),
        (9, 5, 32), (10, 5, 41)])
    def test_franel_order_and_minimal_degree(self, d, order, degree):
        rec = guessed_family_recurrence(FamilySpec("franel", d=d))
        assert (rec.order, max(c.degree for c in rec.coeffs)) == (order, degree)


class TestRescale:
    def test_delannoy_x_factorial_rescale(self):
        # multiplying solutions by n! turns the x-recurrence into
        # u(n+1) = (2x+1)(2n+1) u(n) - n^2 u(n-1)
        x = F(3, 2)
        rec = rescale(delannoy_x_recurrence(x), RatFunc(Poly([1, 1])))
        txp1 = 2 * x + 1
        # shifted form: u(n+2) = (2x+1)(2n+3) u(n+1) - (n+1)^2 u(n)
        want = Recurrence([Poly([1, 2, 1]), Poly([-3 * txp1, -2 * txp1]), Poly([1])])
        assert rec.proportional_to(want)

    def test_identity_rescale(self):
        rec = rescale(apery3_recurrence(), RatFunc(Poly([1])))
        assert rec.proportional_to(apery3_recurrence())

    def test_arctan_rescale(self):
        rec = rescale(arctan_recurrence(), RatFunc(Poly([1, 1])))
        # shifted form: u(n+2) = (2n+3) u(n+1) + (n+1)^2 u(n)
        want = Recurrence([Poly([-1, -2, -1]), Poly([-3, -2]), Poly([1])])
        assert rec.proportional_to(want)

    @pytest.mark.parametrize("ratio", [RatFunc(Poly([1, 1])),
                                       RatFunc(Poly([1, 1]) ** 2),
                                       RatFunc(Poly([2]))])
    def test_rescaled_solutions_satisfy(self, ratio):
        base = delannoy_recurrence()
        rec = rescale(base, ratio)
        a = SolutionTable(base, InitialConditions(-1, [0, 1]))
        a.evaluate(52)
        f = F(1)
        scaled = {}
        for n in range(rec.offset, 53):
            scaled[n] = f * a.term(n)
            f *= ratio(n)
        for n in range(rec.offset, 50 - rec.order):
            assert rec.relation_value(scaled, n) == 0


class TestConcurrency:
    @pytest.mark.parametrize("call", [lambda tab: tab.with_term(2, 5),
                                      lambda tab: tab.term(1)],
                             ids=["with_term", "term"])
    def test_cache_access_waits_for_the_lock(self, call):
        tab = SolutionTable(delannoy_recurrence(), InitialConditions(0, [1, 3]))
        done = threading.Event()
        worker = threading.Thread(target=lambda: (call(tab), done.set()))
        with tab._lock:
            worker.start()
            assert not done.wait(0.2)
        worker.join(5)
        assert not worker.is_alive() and done.is_set()

    def test_parallel_extension_is_consistent(self):
        import sys

        a = SolutionTable(delannoy_recurrence(), InitialConditions(-1, [0, 1]))
        errors = []

        def extend(step):
            try:
                for n in range(step, 401, step):
                    a.term(n)
                a.evaluate(400)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=extend, args=(s,)) for s in (1, 3, 7, 50, 400)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        fresh = SolutionTable(delannoy_recurrence(), InitialConditions(-1, [0, 1]))
        assert a.terms(400) == fresh.terms(400)


class TestTextFormat:
    def test_roundtrip_bit_exact(self):
        for rec in (delannoy_recurrence(), apery3_recurrence(),
                    delannoy_x_recurrence(F(5, 3))):
            text = recurrence_to_text(rec)
            back = recurrence_from_text(text)
            assert back == rec
            assert recurrence_to_text(back) == text

    def test_rejects_missing_coefficients(self):
        with pytest.raises(ValueError):
            recurrence_from_text("order: 2\nc_0: 1\nc_2: n\n")
