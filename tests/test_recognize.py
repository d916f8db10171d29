import random
from fractions import Fraction
from math import comb, factorial

import mpmath
import pytest
from mpmath import mpf

import seqlim.recognize
from seqlim.arith import GUARD_DIGITS, BigFloat
from seqlim.recognize import (
    CATALOG_NAMES,
    REFERENCE_50,
    DependentRows,
    PrecisionTooLow,
    UnknownConstant,
    _atanh_small,
    eval_constant,
    integer_relation,
    lll_reduce,
    recognize_constant,
)

F = Fraction

# Pinned by an independent arbitrary-precision oracle (truncated, 49 places).
ORACLE_50 = {
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


class TestConstants:
    def test_module_references_match_oracle(self):
        assert REFERENCE_50 == ORACLE_50

    @pytest.mark.parametrize("name", sorted(ORACLE_50))
    def test_evaluator_against_oracle(self, name):
        got = eval_constant(name, 60).str_digits(49)
        assert got == ORACLE_50[name]

    def test_unknown_constant(self):
        with pytest.raises(UnknownConstant):
            eval_constant("feigenbaum", 30)

    def test_doubling_consistency(self):
        for name in CATALOG_NAMES:
            lo = eval_constant(name, 40)
            hi = eval_constant(name, 80)
            assert abs((lo - hi).val) < mpf(10) ** -35

    def test_zeta2_is_pi_squared_over_six(self):
        z2 = eval_constant("zeta2", 60)
        pi = eval_constant("pi", 60)
        assert abs((z2 - pi * pi * F(1, 6)).val) < mpf(10) ** -55

    def test_bernoulli_values(self):
        # zeta(2k) / pi^(2k) = |B_2k| 2^(2k-1) / (2k)!
        b = {2: F(1, 6), 4: F(-1, 30), 6: F(1, 42), 8: F(-1, 30)}
        want = {s: abs(b[s]) * 2 ** (s - 1) / factorial(s) for s in b}
        assert seqlim.recognize._ZETA_EVEN == want

    def test_bernoulli_matches_exact_recurrence(self):
        # B_k = -1/(k+1) * sum_{j<k} C(k+1, j) B_j, with B_1 = -1/2
        b = [F(1)]
        for k in range(1, 9):
            b.append(-sum(comb(k + 1, j) * b[j] for j in range(k)) / (k + 1))
        assert b[1] == F(-1, 2)
        assert all(b[m] == 0 for m in range(3, 9, 2))
        want = {s: abs(b[s]) * 2 ** (s - 1) / factorial(s) for s in (2, 4, 6, 8)}
        assert seqlim.recognize._ZETA_EVEN == want

    @pytest.mark.parametrize("name,reference", [
        ("zeta3", lambda: mpmath.zeta(3)),
        ("catalan", lambda: +mpmath.catalan),
        ("L3", lambda: (mpmath.zeta(2, mpf(1) / 3) - mpmath.zeta(2, mpf(2) / 3)) / 9),
    ])
    def test_euler_maclaurin_constants_to_400_digits(self, name, reference):
        got = eval_constant(name, 400)
        with mpmath.workdps(420):
            assert abs(got.val - reference()) < mpf(10) ** -400

    def test_log_rational(self):
        # ln(3/2) = 2 atanh(1/5), the atanh kernel at a rational outside the catalog
        with mpmath.workdps(60):
            want = mpmath.ln(mpf(3) / 2)
            got = 2 * _atanh_small(F(1, 5), 60)
            assert abs(got - want) < mpf(10) ** -48


def _full_ratio_series(t, dps, alternate):
    """atanh(t), or atan(t), stepping each term by the full-precision mpf t**2."""
    with mpmath.workdps(dps):
        tf = mpf(t.numerator) / mpf(t.denominator)
        t2 = tf * tf
        term, total, k = tf, mpf(0), 0
        floor = mpf(10) ** (-dps)
        while abs(term) > floor:
            total += -term / (2 * k + 1) if alternate and k % 2 else term / (2 * k + 1)
            term *= t2
            k += 1
        return total


def _reference_series_constant(name, digits):
    dps = digits + GUARD_DIGITS + 5
    with mpmath.workdps(dps):
        if name == "ln2":
            value = 2 * _full_ratio_series(F(1, 3), dps, False)
        else:
            value = (16 * _full_ratio_series(F(1, 5), dps, True)
                     - 4 * _full_ratio_series(F(1, 239), dps, True))
    return BigFloat(value, digits)


class TestIntegerRatioSeries:
    @pytest.mark.parametrize("digits", [*range(10, 201, 7), 333, 501, 1000, 2015, 3007])
    @pytest.mark.parametrize("name", ["ln2", "pi"])
    def test_bit_identical_to_full_ratio_series(self, name, digits):
        got = eval_constant(name, digits)
        want = _reference_series_constant(name, digits)
        assert (got.val.man, got.val.exp) == (want.val.man, want.val.exp)

    def test_negative_argument(self):
        # ln(2/7) = 2 atanh(-5/9) runs the series at t < 0
        with mpmath.workdps(80):
            got = 2 * _atanh_small(F(-5, 9), 60)
            assert abs(got - mpmath.ln(mpf(2) / 7)) < mpf(10) ** -58


def _rational_gram_schmidt(rows):
    """Independent exact Gram-Schmidt for checking the LLL conditions."""
    star = []
    mu = []
    for i, row in enumerate(rows):
        v = [F(x) for x in row]
        mu.append([])
        for j in range(i):
            denom = sum(x * x for x in star[j])
            coeff = F(sum(F(a) * b for a, b in zip(row, star[j])), 1) / denom
            mu[i].append(coeff)
            v = [x - coeff * y for x, y in zip(v, star[j])]
        star.append(v)
    return star, mu


def _assert_lll_reduced(rows, delta=F(3, 4)):
    star, mu = _rational_gram_schmidt(rows)
    for i in range(len(rows)):
        for j in range(i):
            assert abs(mu[i][j]) <= F(1, 2), "size reduction violated"
    for k in range(1, len(rows)):
        lhs = sum(x * x for x in star[k]) \
            + mu[k][k - 1] ** 2 * sum(x * x for x in star[k - 1])
        assert lhs >= delta * sum(x * x for x in star[k - 1]), "Lovasz violated"


class TestLLL:
    def test_identity_fixed(self):
        assert lll_reduce([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]

    def test_small_relation_lattice(self):
        reduced = lll_reduce([[1, 0, 1000], [0, 1, 999]])
        # brute-force shortest vector on this instance: c1 r1 + c2 r2
        best = None
        for c1 in range(-6, 7):
            for c2 in range(-6, 7):
                if c1 == c2 == 0:
                    continue
                v = (c1, c2, 1000 * c1 + 999 * c2)
                norm = sum(x * x for x in v)
                if best is None or norm < best[0]:
                    best = (norm, v)
        assert best[1] in ((1, -1, 1), (-1, 1, -1))
        assert any(tuple(r) in ((1, -1, 1), (-1, 1, -1)) for r in reduced)
        _assert_lll_reduced(reduced)

    def test_unimodular_scramble_bound(self):
        rng = random.Random(5)
        basis = [[int(i == j) for j in range(5)] for i in range(5)]
        for _ in range(40):  # random unimodular row operations
            i, j = rng.sample(range(5), 2)
            c = rng.randint(-6, 6)
            basis[i] = [a + c * b for a, b in zip(basis[i], basis[j])]
        reduced = lll_reduce(basis)
        _assert_lll_reduced(reduced)
        bound = 2 ** ((5 - 1) / 2)  # LLL guarantee for the Z^5 lattice
        for row in reduced:
            assert sum(x * x for x in row) ** 0.5 <= bound + 1e-9

    def test_conditions_on_scaled_column_lattice(self):
        v = [eval_constant("ln2", 40), eval_constant("pi", 40)]
        scale = 10 ** 30
        rows = [[1, 0, round(v[0].to_fraction() * scale)],
                [0, 1, round(v[1].to_fraction() * scale)]]
        _assert_lll_reduced(lll_reduce(rows))

    def test_dependent_rows(self):
        with pytest.raises(DependentRows):
            lll_reduce([[1, 2], [2, 4]])


class TestIntegerRelation:
    def test_half_log_two(self):
        half = eval_constant("ln2", 50) * F(1, 2)
        rel = integer_relation([half, eval_constant("ln2", 50)], 100, 50)
        assert rel in ([2, -1], [-2, 1])

    def test_trivial_half(self):
        rel = integer_relation([BigFloat(1, 40), BigFloat(F(1, 2), 40)], 100, 40)
        assert rel in ([1, -2], [-1, 2])

    def test_zeta3_over_six(self):
        v = eval_constant("zeta3", 100) * F(1, 6)
        rel = integer_relation([v, eval_constant("zeta3", 100)], 100, 100)
        assert rel in ([6, -1], [-6, 1])

    def test_precision_floor(self):
        vals = [BigFloat(1, 25), BigFloat(2, 25), BigFloat(3, 25)]
        with pytest.raises(PrecisionTooLow):
            integer_relation(vals, 10, 25)

    def test_no_relation_for_independent_values(self):
        vals = [eval_constant("ln2", 60), eval_constant("pi", 60)]
        assert integer_relation(vals, 10**6, 60) is None


class TestRecognizeConstant:
    def test_half_log_two(self):
        v = eval_constant("ln2", 60) * F(1, 2)
        form = recognize_constant(v, ["ln2"])
        assert dict(form.terms) == {"ln2": F(1, 2)}
        assert form.residual.val < mpf(10) ** -45

    def test_quarter_zeta2(self):
        v = eval_constant("zeta2", 60) * F(1, 4)
        form = recognize_constant(v, ["zeta2"])
        assert dict(form.terms) == {"zeta2": F(1, 4)}

    def test_none_for_shuffled_basis(self):
        v = eval_constant("catalan", 60) * F(7, 3)
        assert recognize_constant(v, ["zeta3"]) is None

    def test_two_element_basis(self):
        v = eval_constant("zeta2", 90) * F(4, 3) + eval_constant("L3", 90) * F(-5, 2)
        form = recognize_constant(v, ["zeta2", "L3"])
        assert dict(form.terms) == {"zeta2": F(4, 3), "L3": F(-5, 2)}

    def test_random_rational_multiples(self):
        rng = random.Random(1234)
        for _ in range(12):
            name = rng.choice(CATALOG_NAMES)
            q = F(rng.randint(-100, 100) or 1, rng.randint(1, 100))
            v = eval_constant(name, 60) * q
            form = recognize_constant(v, [name])
            assert form is not None and dict(form.terms)[name] == q

    def test_each_basis_constant_is_evaluated_once(self, monkeypatch):
        calls = {}

        def counted(name, evaluate):
            def run(dps):
                calls[name] = calls.get(name, 0) + 1
                return evaluate(dps)
            return run

        evaluators = {n: counted(n, f) for n, f in seqlim.recognize._EVALUATORS.items()}
        eval_constant("one", 10)  # run the catalog self-check before counting
        monkeypatch.setattr(seqlim.recognize, "_EVALUATORS", evaluators)
        monkeypatch.setattr(seqlim.recognize, "_CACHE", {})
        with mpmath.workdps(140):
            value = BigFloat(mpmath.zeta(3) / 7 - 2 * mpmath.catalan + 3, 120)
        form = recognize_constant(value, ["zeta3", "catalan", "one"])
        assert dict(form.terms) == {"zeta3": F(1, 7), "catalan": F(-2), "one": F(3)}
        assert calls == {"zeta3": 1, "catalan": 1, "one": 1}


# Independent mpmath routes to every catalog constant.
MPMATH_ROUTES = {
    "one": lambda: mpf(1),
    "ln2": lambda: mpmath.log(2),
    "pi": lambda: +mpmath.pi,
    "zeta2": lambda: mpmath.zeta(2),
    "zeta3": lambda: mpmath.zeta(3),
    "zeta4": lambda: mpmath.zeta(4),
    "zeta6": lambda: mpmath.zeta(6),
    "zeta8": lambda: mpmath.zeta(8),
    "catalan": lambda: +mpmath.catalan,
    "L3": lambda: (mpmath.zeta(2, mpf(1) / 3) - mpmath.zeta(2, mpf(2) / 3)) / 9,
}


class TestSeriesConstants:
    def test_routes_cover_the_catalog(self):
        assert set(MPMATH_ROUTES) == set(CATALOG_NAMES)

    @pytest.mark.parametrize("name", CATALOG_NAMES)
    def test_against_mpmath_to_2000_digits(self, name):
        got = eval_constant(name, 2000)
        with mpmath.workdps(2020):
            assert abs(got.val - MPMATH_ROUTES[name]()) < mpf(10) ** -2000

    def test_no_bernoulli_numbers_or_mpmath_zeta(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("catalog evaluation called into mpmath zeta machinery")

        eval_constant("one", 10)  # run the catalog self-check first
        monkeypatch.setattr(mpmath, "bernfrac", forbidden)
        monkeypatch.setattr(mpmath, "zeta", forbidden)
        monkeypatch.setattr(seqlim.recognize, "_CACHE", {})
        for name in CATALOG_NAMES:
            eval_constant(name, 2000)


def _single_level_relation(values, max_coeff, precision):
    """The relation search as one LLL at the full precision (the reference)."""
    m = len(values)
    scale = 10 ** (precision - GUARD_DIGITS)
    fracs = [v.to_fraction() for v in values]
    rows = [[int(i == j) for j in range(m)] + [round(fracs[i] * scale)]
            for i in range(m)]
    tol = F(10) ** (GUARD_DIGITS - precision)
    best = None
    for row in lll_reduce(rows):
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


def _normalised(rel):
    sign = 1 if next(c for c in rel if c) > 0 else -1
    return [sign * c for c in rel]


WIDE = ["one", "ln2", "pi", "zeta2", "zeta3", "catalan", "L3"]


def _wide_values(terms, digits=501):
    """A combination of catalog constants and the wide basis, at 2/3 of ``digits``."""
    p = 2 * digits // 3
    value = sum((eval_constant(n, digits) * q for n, q in terms.items()),
                BigFloat(0, digits))
    return [BigFloat(value.val, p)] + [BigFloat(eval_constant(n, digits).val, p)
                                       for n in WIDE], p


def _counting_lll(monkeypatch):
    calls = []
    reduce = seqlim.recognize.lll_reduce

    def counted(rows):
        calls.append(len(rows))
        return reduce(rows)

    monkeypatch.setattr(seqlim.recognize, "lll_reduce", counted)
    return calls


class TestMultiLevelRelation:
    @pytest.mark.parametrize("terms", [
        {"ln2": F(1, 2)},
        {"zeta3": F(1, 6)},
        {"pi": F(1)},
        {"zeta3": F(1, 7), "catalan": F(-2), "one": F(3)},
        {"zeta2": F(4, 3), "L3": F(-5, 2)},
    ])
    def test_same_relation_as_pslq(self, terms):
        vals, p = _wide_values(terms)
        rel = integer_relation(vals, 10**12, p)
        with mpmath.workdps(p):
            want = mpmath.pslq([v.val for v in vals], maxcoeff=10**12, maxsteps=10**6)
        assert _normalised(rel) == _normalised(want)

    @pytest.mark.parametrize("terms", [{"ln2": F(1, 2)}, {"zeta3": F(1, 6)}, {"pi": F(1)}])
    def test_same_relation_as_single_level_search(self, terms):
        vals, p = _wide_values(terms)
        assert integer_relation(vals, 10**12, p) == _single_level_relation(vals, 10**12, p)

    def test_large_coefficients_need_a_second_level(self, monkeypatch):
        rng = random.Random(11)
        coeffs = {n: F(rng.randint(-10**15, 10**15), 10**15 + 37) for n in WIDE}
        vals, p = _wide_values(coeffs)
        calls = _counting_lll(monkeypatch)
        rel = integer_relation(vals, 10**20, p)
        assert len(calls) >= 2
        assert _normalised(rel) == _normalised(
            [10**15 + 37] + [-q.numerator for q in coeffs.values()])
        assert rel == _single_level_relation(vals, 10**20, p)

    def test_none_without_relation_after_every_level(self, monkeypatch):
        vals = [BigFloat(eval_constant(n, 200).val, 200)
                for n in ("ln2", "pi", "zeta3", "catalan")]
        calls = _counting_lll(monkeypatch)
        assert integer_relation(vals, 10**12, 200) is None
        assert len(calls) == 3  # 68, 136 and 200 digits
        assert _single_level_relation(vals, 10**12, 200) is None
