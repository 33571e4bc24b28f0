"""Characteristic polynomials in factor form: algebra, evaluation, invariants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwaspectra.iwalg import (
    CharPoly,
    IwasawaInvariants,
    PrimeMismatch,
    coefficients,
    coefficients_mod,
    eval_point,
    evaluate_valuation,
    format_charpoly,
    invariants_of,
    multiply,
    sphere_charpoly,
)
from iwaspectra.padic import INFINITE, PadicValuation

from oracles import euclid_inverse, evaluate_exact, horner_eval, rational_valuation

odd_primes = st.sampled_from([3, 5, 7, 11])

factor_lists = st.lists(
    st.tuples(st.integers(min_value=-30, max_value=30), st.integers(min_value=1, max_value=3)),
    max_size=5,
)


class TestCharPoly:
    def test_normalizes_factors(self):
        f = CharPoly(3, ((2, 1), (0, 1), (2, 2)))
        assert f.factors == ((0, 1), (2, 3))
        assert f.degree == 4

    def test_one_and_linear(self):
        assert CharPoly.one(5).factors == ()
        assert CharPoly.one(5).degree == 0
        assert CharPoly.linear(5, -3).factors == ((-3, 1),)
        assert CharPoly.linear(5, -3).degree == 1

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            CharPoly(3, ((0, 0),))
        with pytest.raises(ValueError):
            CharPoly(3, ((0, -2),))
        with pytest.raises(ValueError):
            CharPoly(3, ((Fraction(1, 2), 1),))

    def test_polys_at_different_primes_differ(self):
        assert CharPoly.linear(3, 1) != CharPoly.linear(5, 1)


class TestEvalPoint:
    def test_values(self):
        assert eval_point(3, 2) == 15
        assert eval_point(5, 1) == 5
        assert eval_point(5, 2) == 35
        assert eval_point(5, 0) == 0
        assert eval_point(3, -1) == Fraction(-3, 4)


class TestSphereCharpoly:
    def test_contract_examples(self):
        f = sphere_charpoly(3, 2, 0)
        assert f.factors == ((2, 1),)
        assert str(f) == "T - 15"
        assert sphere_charpoly(5, 1, 2) == CharPoly.one(5)
        assert str(sphere_charpoly(5, 1, 2)) == "1"
        assert sphere_charpoly(5, 0, 0) == CharPoly.linear(5, 0)
        assert str(sphere_charpoly(5, 0, 0)) == "T"

    def test_weight_selects_congruence_class(self):
        for p in (3, 5, 7):
            for i in range(-6, 7):
                for j in range(-6, 7):
                    f = sphere_charpoly(p, i, j)
                    if (i - j) % (p - 1) == 0:
                        assert f.factors == ((i, 1),)
                    else:
                        assert f.degree == 0


class TestMultiply:
    def test_contract_examples(self):
        t = CharPoly.linear(3, 0)
        t_minus_15 = CharPoly.linear(3, 2)
        prod = multiply(t, t_minus_15)
        assert coefficients(prod) == (Fraction(0), Fraction(-15), Fraction(1))
        f = CharPoly(3, ((1, 2), (4, 1)))
        assert multiply(CharPoly.one(3), f) == f
        sq = multiply(CharPoly.linear(5, 1), CharPoly.linear(5, 1))
        assert multiply(sq, CharPoly.linear(5, 1)) == CharPoly(5, ((1, 3),))

    def test_operator_form(self):
        assert (CharPoly.linear(3, 0) * CharPoly.linear(3, 2)
                == CharPoly(3, ((0, 1), (2, 1))))

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatch):
            multiply(CharPoly.one(3), CharPoly.one(5))

    @given(p=odd_primes, fs=factor_lists, gs=factor_lists)
    def test_degree_adds(self, p, fs, gs):
        f, g = CharPoly(p, tuple(fs)), CharPoly(p, tuple(gs))
        assert multiply(f, g).degree == f.degree + g.degree


class TestEvaluateValuation:
    def test_contract_examples(self):
        assert evaluate_valuation(CharPoly.linear(3, 2), -2) == PadicValuation(1)
        assert evaluate_valuation(CharPoly.linear(3, 0), 0) == INFINITE
        assert evaluate_valuation(CharPoly.linear(3, 0), -4) == PadicValuation(1)

    def test_rejects_non_integer_point(self):
        with pytest.raises(TypeError):
            evaluate_valuation(CharPoly.one(3), Fraction(1, 2))

    def test_factor_route_matches_exact_route_sweep(self):
        for i in range(-50, 51):
            f = CharPoly.linear(3, i)
            for s in range(-50, 51):
                got = evaluate_valuation(f, s)
                if s == i:
                    assert got == INFINITE
                else:
                    exact = evaluate_exact(f, eval_point(3, s))
                    assert got == PadicValuation(rational_valuation(3, exact)), (i, s)

    @given(p=odd_primes, fs=factor_lists, s=st.integers(min_value=-40, max_value=40))
    @settings(max_examples=150)
    def test_factor_route_matches_exact_route(self, p, fs, s):
        f = CharPoly(p, tuple(fs))
        got = evaluate_valuation(f, s)
        if any(s == i for i, _ in f.factors):
            assert got == INFINITE
        elif not f.factors:
            assert got == PadicValuation(0)
        else:
            exact = evaluate_exact(f, eval_point(p, s))
            assert got == PadicValuation(rational_valuation(p, exact))

    @given(p=odd_primes, fs=factor_lists, gs=factor_lists,
           s=st.integers(min_value=-40, max_value=40))
    @settings(max_examples=150)
    def test_multiplicative_with_infinite_absorbing(self, p, fs, gs, s):
        f, g = CharPoly(p, tuple(fs)), CharPoly(p, tuple(gs))
        assert (evaluate_valuation(multiply(f, g), s)
                == evaluate_valuation(f, s) + evaluate_valuation(g, s))


class TestCoefficients:
    def test_small_cases(self):
        assert coefficients(CharPoly.one(3)) == (Fraction(1),)
        assert coefficients(CharPoly.linear(3, 2)) == (Fraction(-15), Fraction(1))
        assert coefficients(CharPoly.linear(3, -1)) == (Fraction(3, 4), Fraction(1))

    @given(p=odd_primes, fs=factor_lists,
           x=st.fractions(min_value=-5, max_value=5, max_denominator=12))
    @settings(max_examples=150)
    def test_expansion_matches_factored_evaluation(self, p, fs, x):
        f = CharPoly(p, tuple(fs))
        assert horner_eval(coefficients(f), x) == evaluate_exact(f, x)

    def test_monic(self):
        f = CharPoly(5, ((1, 2), (-2, 1)))
        assert coefficients(f)[-1] == 1
        assert len(coefficients(f)) == f.degree + 1


class TestCoefficientsMod:
    def test_integer_coefficients(self):
        assert coefficients_mod(CharPoly.linear(3, 2), precision=3) == [(-15) % 27, 1]

    def test_denominators_are_inverted(self):
        f = CharPoly.linear(3, -1)  # constant term 3/4
        residues = coefficients_mod(f, precision=3)
        assert residues == [3 * euclid_inverse(4, 27) % 27, 1]

    @given(p=odd_primes, fs=factor_lists)
    @settings(max_examples=60)
    def test_residues_clear_denominators(self, p, fs):
        f = CharPoly(p, tuple(fs))
        mod = p ** 6
        for res, c in zip(coefficients_mod(f, precision=6), coefficients(f)):
            assert 0 <= res < mod
            assert (res * c.denominator - c.numerator) % mod == 0


class TestInvariants:
    def test_contract_examples(self):
        f = multiply(CharPoly.linear(3, 0), CharPoly.linear(3, 2))
        assert invariants_of(f) == IwasawaInvariants(lambda_=2, mu=0, charpoly=f)
        assert invariants_of(CharPoly.one(3)).lambda_ == 0
        cube = CharPoly(5, ((1, 3),))
        inv = invariants_of(cube)
        assert (inv.lambda_, inv.mu) == (3, 0)
        assert inv.charpoly == cube

    @given(p=odd_primes, fs=factor_lists)
    def test_lambda_is_degree_mu_is_zero(self, p, fs):
        f = CharPoly(p, tuple(fs))
        inv = invariants_of(f)
        assert inv.lambda_ == f.degree == sum(m for _, m in fs)
        assert inv.mu == 0


class TestFormat:
    def test_rendering(self):
        assert format_charpoly(CharPoly.one(3)) == "1"
        assert format_charpoly(CharPoly.linear(3, 0)) == "T"
        assert format_charpoly(CharPoly.linear(3, 2)) == "T - 15"
        assert format_charpoly(CharPoly(5, ((1, 3),))) == "(T - 5)^3"
        assert format_charpoly(CharPoly(3, ((0, 1), (2, 1)))) == "T * (T - 15)"
        assert format_charpoly(CharPoly.linear(3, -1)) == "T + 3/4"