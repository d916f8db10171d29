from fractions import Fraction
from math import comb

import pytest

from seqlim.arith import Poly
from seqlim.sums import (
    FAMILIES,
    FamilySpec,
    InvalidParameter,
    apery3_recurrence,
    arctan_recurrence,
    delannoy_recurrence,
    delannoy_x_symbolic_pair,
    eval_apery_secondary,
    eval_family,
    family_pair,
    family_recurrence,
    guessed_family_recurrence,
)

F = Fraction


class TestEvalFamily:
    def test_delannoy(self):
        assert eval_family(FamilySpec("delannoy"), 3) == 63

    def test_franel3(self):
        assert eval_family(FamilySpec("franel", d=3), 3) == 56  # 1+27+27+1

    def test_apery3(self):
        assert eval_family(FamilySpec("apery3"), 2) == 73  # 1+36+36

    def test_delannoy_x_symbolic(self):
        assert eval_family(FamilySpec("delannoy_x", symbolic_x=True), 1) == Poly([1, 2])

    def test_delannoy_x_numeric(self):
        assert eval_family(FamilySpec("delannoy_x", x=F(1, 2)), 2) == 1 + 3 + F(3, 2)

    def test_binom_3k_convention(self):
        # C(3k, n) vanishes for 3k < n
        assert eval_family(FamilySpec("binom_sq_3k"), 1) == 3
        assert eval_family(FamilySpec("binom_sq_3k"), 2) == 27

    def test_squared_and_cubed_variants(self):
        # sum C(n,k) C(n+k,k)^2 x^k and the cubed analogue, by hand at n = 2
        sq = FamilySpec("delannoy_sq_x", x=F(1))
        assert eval_family(sq, 2) == 1 + 2 * 9 + 36  # 55
        cube = FamilySpec("delannoy_cube_x", x=F(2))
        assert eval_family(cube, 2) == 1 + 2 * 27 * 2 + 216 * 4

    @pytest.mark.parametrize("name", [n for n, fam in FAMILIES.items() if fam.takes_x])
    def test_x_families_match_fraction_power_sum(self, name):
        # the integer accumulation equals the Fraction loop acc += t_k x^k
        for x in ("1/2", "2/3", "3/4", "3/5", "4/5", "4/7", "5/6", "5/7", "5/8", "7/9",
                  "-3/2", "0", "5"):
            spec = FamilySpec(name, x=F(x))
            for n in range(61):
                expected, power = F(0), F(1)
                for k in range(n + 1):
                    expected += FAMILIES[name].summand(n, k) * power
                    power *= F(x)
                got = eval_family(spec, n)
                assert type(got) is Fraction and got == expected, (name, x, n)

    def test_parameter_validation(self):
        with pytest.raises(InvalidParameter):
            FamilySpec("franel", d=0)
        with pytest.raises(InvalidParameter):
            FamilySpec("nosuch")
        with pytest.raises(InvalidParameter):
            FamilySpec("delannoy", x=F(1))
        with pytest.raises(InvalidParameter):
            FamilySpec("delannoy_x")  # needs x or symbolic
        with pytest.raises(InvalidParameter):
            eval_family(FamilySpec("delannoy"), -1)


# Each family's summand from math.comb, for k = 0..n: the reference for the
# term-ratio stepping in eval_family.
COMB_SUMMANDS = {
    "delannoy": lambda n, k, d: comb(n, k) * comb(n + k, k),
    "delannoy_x": lambda n, k, d: comb(n, k) * comb(n + k, k),
    "apery3": lambda n, k, d: comb(n, k) ** 2 * comb(n + k, k) ** 2,
    "franel": lambda n, k, d: comb(n, k) ** d,
    "even_binomial_x": lambda n, k, d: comb(n, 2 * k),
    "fibonacci_x": lambda n, k, d: comb(n - k, k),
    "trinomial_x": lambda n, k, d: comb(n, k) * comb(n - k, k),
    "delannoy_sq_x": lambda n, k, d: comb(n, k) * comb(n + k, k) ** 2,
    "delannoy_cube_x": lambda n, k, d: comb(n, k) * comb(n + k, k) ** 3,
    "binom_sq_3k": lambda n, k, d: comb(n, k) ** 2 * comb(3 * k, n),
}

X_VALUES = tuple(F(x) for x in ("1/2", "2/3", "3/4", "3/5", "4/5", "4/7", "5/6", "5/7",
                                "5/8", "7/9", "-3/2", "0", "5"))


def comb_row(name, n, d=None):
    return [COMB_SUMMANDS[name](n, k, d) for k in range(n + 1)]


def check_x_family(name, upto):
    rows = [comb_row(name, n) for n in range(upto + 1)]
    for x in X_VALUES:
        spec, num, den = FamilySpec(name, x=x), x.numerator, x.denominator
        for n, row in enumerate(rows):
            # sum_k row[k] x^k = sum_k row[k] num^k den^(n-k) / den^n, by Horner
            acc, den_power = 0, 1
            for c in reversed(row):
                acc = acc * num + c * den_power
                den_power *= den
            got = eval_family(spec, n)
            assert type(got) is Fraction and got == F(acc, den ** n), (name, x, n)


class TestStepsMatchCombSums:
    def test_every_family_has_a_reference(self):
        assert set(COMB_SUMMANDS) == set(FAMILIES)

    def test_franel(self):
        for n in range(301):
            row = comb_row("franel", n, 1)
            powers = row
            for d in range(1, 13):
                got = eval_family(FamilySpec("franel", d=d), n)
                assert type(got) is Fraction and got == sum(powers), (d, n)
                powers = [p * c for p, c in zip(powers, row)]

    @pytest.mark.parametrize("name", ["delannoy_sq_x", "delannoy_cube_x"])
    def test_delannoy_powers_at_x(self, name):
        check_x_family(name, 300)

    @pytest.mark.parametrize("name", ["delannoy_x", "even_binomial_x", "fibonacci_x",
                                      "trinomial_x"])
    def test_other_x_families(self, name):
        check_x_family(name, 120)

    @pytest.mark.parametrize("name", ["delannoy", "apery3", "binom_sq_3k"])
    def test_plain_families(self, name):
        for n in range(121):
            got = eval_family(FamilySpec(name), n)
            assert type(got) is Fraction and got == sum(comb_row(name, n)), n

    @pytest.mark.parametrize("name", [n for n, fam in FAMILIES.items() if fam.takes_x])
    def test_symbolic_x(self, name):
        spec = FamilySpec(name, symbolic_x=True)
        for n in range(41):
            assert eval_family(spec, n) == Poly(comb_row(name, n)), n


class TestAperySecondary:
    def test_base_cases(self):
        assert eval_apery_secondary(0) == 0
        assert eval_apery_secondary(1) == 1

    def test_matches_recurrence_through_20(self):
        _, b = family_pair(FamilySpec("apery3"))
        for n in range(21):
            assert eval_apery_secondary(n) == b.term(n)


class TestFamilyIdentities:
    def test_delannoy_x_at_one_specializes(self):
        plain = FamilySpec("delannoy")
        atone = FamilySpec("delannoy_x", x=F(1))
        for n in range(101):
            assert eval_family(atone, n) == eval_family(plain, n)

    def test_franel_low_powers(self):
        for n in range(101):
            assert eval_family(FamilySpec("franel", d=1), n) == 2**n
            assert eval_family(FamilySpec("franel", d=2), n) == comb(2 * n, n)

    def test_symbolic_degree_is_n(self):
        spec = FamilySpec("delannoy_x", symbolic_x=True)
        for n in range(30):
            assert eval_family(spec, n).degree == n


class TestFamilyRecurrences:
    def test_known_forms_match_guessed(self):
        guessed = guessed_family_recurrence(FamilySpec("delannoy"), max_order=2,
                                            max_degree=4)
        assert guessed.proportional_to(delannoy_recurrence())

    def test_arctan_matches_guessed_trinomial(self):
        guessed = guessed_family_recurrence(FamilySpec("trinomial_x", x=F(1, 2)),
                                            max_order=2, max_degree=4)
        assert guessed.proportional_to(arctan_recurrence())

    def test_family_recurrence_dispatch(self):
        assert family_recurrence(FamilySpec("apery3")) == apery3_recurrence()
        rec = family_recurrence(FamilySpec("fibonacci_x", x=F(1)))
        assert rec.order == 2

    def test_family_pair_respects_initial_values(self):
        a, b = family_pair(FamilySpec("even_binomial_x", x=F(4)))
        for n in range(20):
            assert a.term(n) == eval_family(FamilySpec("even_binomial_x", x=F(4)), n)
        assert b.term(0) == 0 and b.term(1) == 1


class TestSymbolicPair:
    def test_quotient_matches_telescoped_values(self):
        a, b = delannoy_x_symbolic_pair(6)
        # B_x(2)/A_x(2) at x = 1 must be the plain quotient 9/26
        assert b[2](F(1)) / a[2](F(1)) == F(9, 26)
        # A_x agrees with the direct sum at x = 2 for all computed n
        spec = FamilySpec("delannoy_x", x=F(2))
        for n in range(7):
            assert a[n](F(2)) == eval_family(spec, n)

    def test_secondary_satisfies_recurrence_symbolically(self):
        a, b = delannoy_x_symbolic_pair(12)
        two_x_plus_1 = Poly([1, 2])
        for n in range(1, 11):
            lhs = F(n + 1) * b[n + 1]
            rhs = two_x_plus_1 * (2 * n + 1) * b[n] - F(n) * b[n - 1]
            assert lhs == rhs
