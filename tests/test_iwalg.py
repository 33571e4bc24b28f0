"""Characteristic polynomials in factor form: normalization, evaluation, invariants."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwaspectra.iwalg import CharPoly, coefficients_mod, evaluate_valuation, format_charpoly
from iwaspectra.padic import INFINITE, PadicValuation

from oracles import (
    coefficients,
    euclid_inverse,
    eval_point,
    evaluate_exact,
    horner_eval,
    rational_valuation,
)

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
        # the constant 1 is the empty product
        assert CharPoly(5).factors == ()
        assert CharPoly(5).degree == 0
        assert CharPoly(5, ((-3, 1),)).degree == 1

    def test_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            CharPoly(3, ((0, 0),))
        with pytest.raises(ValueError):
            CharPoly(3, ((0, -2),))
        with pytest.raises(ValueError):
            CharPoly(3, ((Fraction(1, 2), 1),))

    def test_polys_at_different_primes_differ(self):
        assert CharPoly(3, ((1, 1),)) != CharPoly(5, ((1, 1),))


class TestEvalPoint:
    def test_values(self):
        assert eval_point(3, 2) == 15
        assert eval_point(5, 1) == 5
        assert eval_point(5, 2) == 35
        assert eval_point(5, 0) == 0
        assert eval_point(3, -1) == Fraction(-3, 4)


class TestEvaluateValuation:
    def test_contract_examples(self):
        assert evaluate_valuation(CharPoly(3, ((2, 1),)), -2) == PadicValuation(1)
        assert evaluate_valuation(CharPoly(3, ((0, 1),)), 0) == INFINITE
        assert evaluate_valuation(CharPoly(3, ((0, 1),)), -4) == PadicValuation(1)

    def test_rejects_non_integer_point(self):
        with pytest.raises(TypeError):
            evaluate_valuation(CharPoly(3), Fraction(1, 2))

    def test_factor_route_matches_exact_route_sweep(self):
        for i in range(-50, 51):
            f = CharPoly(3, ((i, 1),))
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

    @given(p=st.sampled_from([3, 5, 7, 101]),
           fs=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 12)), max_size=4),
           data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_int_sums_match_exact_route_at_high_valuation(self, p, fs, data):
        # s - i = u * p^k for one factor i reaches the higher valuation
        # classes, and the multiplicities scale them; |s - i| stays within
        # 3**5, since the exact route forms (1+p)^s
        f = CharPoly(p, tuple(fs))
        i = data.draw(st.sampled_from([i for i, _ in fs] or [0]))
        k = data.draw(st.integers(0, 5).filter(lambda k: p ** k <= 3 ** 5))
        u = data.draw(st.integers(-3 ** 5 // p ** k, 3 ** 5 // p ** k).filter(lambda u: u % p))
        s = i + u * p ** k
        got = evaluate_valuation(f, s)
        if any(s == root for root, _ in f.factors):
            assert got == INFINITE
        else:
            exact = evaluate_exact(f, eval_point(p, s))
            assert got == PadicValuation(rational_valuation(p, exact))

    @given(p=odd_primes, fs=factor_lists, gs=factor_lists,
           s=st.integers(min_value=-40, max_value=40))
    @settings(max_examples=150)
    def test_multiplicative_with_infinite_absorbing(self, p, fs, gs, s):
        # valuations of a product add as plain numbers, math.inf absorbing
        f, g = CharPoly(p, tuple(fs)), CharPoly(p, tuple(gs))
        product = evaluate_valuation(CharPoly(p, f.factors + g.factors), s).value
        assert product == evaluate_valuation(f, s).value + evaluate_valuation(g, s).value
        if any(s == i for i, _ in f.factors + g.factors):
            assert product == math.inf


class TestCoefficients:
    """The exact expansion oracle that TestCoefficientsMod reduces."""

    def test_small_cases(self):
        assert coefficients(CharPoly(3)) == (Fraction(1),)
        assert coefficients(CharPoly(3, ((2, 1),))) == (Fraction(-15), Fraction(1))
        assert coefficients(CharPoly(3, ((-1, 1),))) == (Fraction(3, 4), Fraction(1))

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
        assert coefficients_mod(CharPoly(3, ((2, 1),)), precision=3) == [(-15) % 27, 1]

    def test_denominators_are_inverted(self):
        f = CharPoly(3, ((-1, 1),))  # constant term 3/4
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


    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           fs=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 8)), max_size=4),
           precision=st.integers(1, 40))
    @settings(max_examples=150)
    def test_equals_the_exact_expansion_reduced(self, p, fs, precision):
        f = CharPoly(p, tuple(fs))
        mod = p ** precision
        expected = [c.numerator * euclid_inverse(c.denominator, mod) % mod
                    for c in coefficients(f)]
        assert coefficients_mod(f, precision) == expected


class TestInvariants:
    def test_contract_examples(self):
        f = CharPoly(3, ((0, 1), (2, 1)))
        assert (f.degree, f.mu) == (2, 0)
        assert CharPoly(3).degree == 0
        assert (CharPoly(5, ((1, 3),)).degree, CharPoly(5, ((1, 3),)).mu) == (3, 0)

    @given(p=odd_primes, fs=factor_lists)
    def test_lambda_is_degree_mu_is_zero(self, p, fs):
        f = CharPoly(p, tuple(fs))
        assert f.degree == sum(m for _, m in fs) == len(coefficients(f)) - 1
        assert f.mu == 0


def format_charpoly_fraction(f: CharPoly) -> str:
    """The printed form of f with each root (1+p)^i - 1 formed as an exact
    Fraction and printed by str; format_charpoly prints it from integers."""
    if not f.factors:
        return "1"
    parts = []
    for i, mult in f.factors:
        c = Fraction(1 + f.p) ** i - 1
        if c == 0:
            base = "T"
        elif c > 0:
            base = f"T - {c}"
        else:
            base = f"T + {-c}"
        if mult == 1:
            parts.append(base if (len(f.factors) == 1 or base == "T") else f"({base})")
        else:
            parts.append(f"({base})^{mult}")
    return " * ".join(parts)


class TestFormat:
    @given(p=st.sampled_from([3, 5, 7, 11, 101, 1009, 10007]),
           fs=st.lists(st.tuples(st.integers(-30, 30), st.integers(1, 4)), max_size=6))
    @example(p=10007, fs=[(-30, 4), (-1, 1), (0, 2), (30, 1)])
    @example(p=3, fs=[(-1, 1)])
    @settings(max_examples=300, deadline=None)
    def test_matches_the_fraction_renderer(self, p, fs):
        f = CharPoly(p, tuple(fs))
        assert format_charpoly(f) == format_charpoly_fraction(f)

    def test_rendering(self):
        assert format_charpoly(CharPoly(3)) == "1"
        assert format_charpoly(CharPoly(3, ((0, 1),))) == "T"
        assert format_charpoly(CharPoly(3, ((2, 1),))) == "T - 15"
        assert format_charpoly(CharPoly(5, ((1, 3),))) == "(T - 5)^3"
        assert format_charpoly(CharPoly(3, ((0, 1), (2, 1)))) == "T * (T - 15)"
        assert format_charpoly(CharPoly(3, ((-1, 1),))) == "T + 3/4"