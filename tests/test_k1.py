"""Homotopy group orders: sphere table, wedges, duals of replacements."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from iwaspectra.k1 import (
    TorsionPresent,
    k1_order_of_dual_replacement,
    sphere_order,
    wedge_order,
)
from iwaspectra.padic import INFINITE
from iwaspectra.spectra import FiniteSpectrumData, dual, strip_torsion, wedge

from oracles import (
    bernoulli_denominator_exponent,
    k1_order_adams,
    random_spectrum,
    sphere_exponent_bruteforce,
    wedge_order_scan,
)

CP2 = {0: 1, 2: 1, 4: 1}

odd_primes = st.sampled_from([3, 5, 7])

# each range reaches past 2(p-1)p - 1, the first degree of exponent 2, and
# its negative
SPHERE_DEGREES = [(p, range(-60, 301)) for p in (3, 5, 7)] + [
    (p, range(-2 * (p - 1) * p - 60, 2 * (p - 1) * p + 61)) for p in (11, 101)]


class TestSphereOrder:
    def test_contract_examples(self):
        assert sphere_order(3, 3) == 1
        assert sphere_order(3, 0) == INFINITE
        assert sphere_order(3, 23) == 2

    def test_more_frozen_degrees(self):
        assert sphere_order(3, -1) == INFINITE
        assert sphere_order(3, 11) == 2
        assert sphere_order(3, -5) == 1
        assert sphere_order(5, 39) == 2
        assert sphere_order(7, 83) == 2
        assert sphere_order(3, 2) == 0
        assert sphere_order(3, 5) == 0
        # a trivial degree is the int 0, a Zp-hat degree math.inf
        assert type(sphere_order(3, 2)) is int
        assert type(sphere_order(5, 0)) is float

    def test_matches_bruteforce_search(self):
        for p, degrees in SPHERE_DEGREES:
            for t in degrees:
                assert (sphere_order(p, t)
                        == sphere_exponent_bruteforce(p, t)), (p, t)

    def test_trivial_off_the_congruence(self):
        for p, degrees in SPHERE_DEGREES:
            for t in degrees:
                if t in (-1, 0):
                    continue
                if t % 2 == 0 or (t + 1) % (2 * (p - 1)) != 0:
                    assert sphere_order(p, t) == 0

    @given(p=odd_primes, k=st.integers(min_value=0, max_value=12),
           r=st.integers(min_value=-10 ** 6, max_value=10 ** 6).filter(bool))
    @settings(max_examples=150)
    def test_closed_form_on_the_congruence(self, p, k, r):
        # t = 2(p-1) p^k r - 1 has exponent k + 1 exactly when p does not
        # divide r; this pins the periodicity in the degree
        assume(r % p != 0)
        t = 2 * (p - 1) * p ** k * r - 1
        assert sphere_order(p, t) == k + 1

    def test_matches_bernoulli_denominators(self):
        # the order in degree +-2n - 1 is the p-part of the denominator of
        # B_n / n, the image of J, read off the exact Bernoulli number
        for p in (3, 5, 7, 11, 13):
            for n in range(1, 401):
                e = bernoulli_denominator_exponent(p, n)
                assert sphere_order(p, 2 * n - 1) == sphere_order(p, -2 * n - 1) == e, (p, n)

    def test_rejects_non_integer_degree(self):
        with pytest.raises(TypeError):
            sphere_order(3, 1.5)


class TestWedgeOrder:
    def test_contract_examples(self):
        assert wedge_order(FiniteSpectrumData(3, {0: 1}), 3) == 1
        assert wedge_order(FiniteSpectrumData(3, {0: 1, 2: 1}), 3) == 1
        assert wedge_order(FiniteSpectrumData(3, {0: 2}), 0) == INFINITE

    def test_torsion_rejected(self):
        X = FiniteSpectrumData(3, {0: 1}, {2: "a"})
        with pytest.raises(TorsionPresent):
            wedge_order(X, 3)

    def test_rank_scales_exponent(self):
        assert wedge_order(FiniteSpectrumData(3, {0: 3}), 3) == 3

    def test_empty_spectrum_is_trivial_everywhere(self):
        X = FiniteSpectrumData(5, {})
        for t in range(-10, 10):
            assert wedge_order(X, t) == 0

    def test_multiplicative_in_wedges(self, rng):
        infinite = 0
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p, torsion_prob=0)
            Y = random_spectrum(rng, p, torsion_prob=0)
            t = rng.randint(-40, 40)
            # exponents add as plain numbers, math.inf absorbing
            total = wedge_order(X, t) + wedge_order(Y, t)
            assert wedge_order(wedge(X, Y), t) == total
            infinite += total == math.inf
        assert infinite  # the seeded draws include Zp-hat degrees

    def test_per_cell_bruteforce_oracle(self, rng):
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p, torsion_prob=0)
            t = rng.randint(-40, 40)
            expected = 0
            for d, r in X.betti.items():
                e = sphere_exponent_bruteforce(p, t - d)
                expected = math.inf if math.inf in (e, expected) else expected + r * e
            assert wedge_order(X, t) == expected

    @given(data=st.data(), p=st.sampled_from([3, 5, 7, 11, 101, 10007]),
           betti=st.dictionaries(st.integers(-40, 40), st.integers(1, 4), max_size=8))
    @settings(max_examples=300, deadline=None)
    def test_support_skip_equals_full_scan(self, data, p, betti):
        # t is a plain degree, a cell's own degree or the degree below it
        # (each a Zp-hat), or a degree d + 2(p-1)k - 1 on the support of
        # cell d's sphere
        X = FiniteSpectrumData(p, betti)
        degrees = st.integers(-300, 300)
        if betti:
            cells = st.sampled_from(sorted(betti))
            degrees = degrees | cells | cells.map(lambda d: d - 1) | st.builds(
                lambda d, k: d + 2 * (p - 1) * k - 1, cells, st.integers(-p ** 6, p ** 6))
        t = data.draw(degrees)
        expected = wedge_order_scan(X, t)
        got = wedge_order(X, t)
        # the scan's sum is an int, or math.inf once a term is infinite
        assert got == expected and type(got) is type(expected)

    def test_rejects_non_integer_degree(self):
        with pytest.raises(TypeError):
            wedge_order(FiniteSpectrumData(3, {0: 1}), 1.5)
        with pytest.raises(TypeError):
            wedge_order(FiniteSpectrumData(3, {}), 1.5)


class TestAdamsOracle:
    """The orders read off the psi^g fibre sequence, a route that shares
    nothing with the sphere table."""

    def test_sphere_order_matches(self):
        for p in (3, 5, 7, 11, 101):
            for t in range(-300, 300):
                assert sphere_order(p, t) == k1_order_adams(p, [(0, 1, None)], t), (p, t)

    def test_wedge_order_matches(self, rng):
        for _ in range(300):
            p = rng.choice([3, 5, 7, 11])
            X = random_spectrum(rng, p, max_cells=5, degree_bound=12, max_rank=3,
                                torsion_prob=0)
            summands = [(d, r, None) for d, r in X.betti.items()]
            for t in range(-40, 40):
                assert wedge_order(X, t) == k1_order_adams(p, summands, t), (X, t)

    def test_mod_p_moore_spectrum(self):
        # S/p has order p exactly in the degrees 0 and -1 mod 2(p-1)
        for p in (3, 5, 7):
            for t in range(-100, 100):
                expected = 1 if t % (2 * (p - 1)) in (0, 2 * p - 3) else 0
                assert k1_order_adams(p, [(0, 1, 1)], t) == expected, (p, t)


class TestDualReplacementOrder:
    def test_contract_examples(self):
        assert k1_order_of_dual_replacement(FiniteSpectrumData(3, {0: 1}), [3]) == [1]
        assert (k1_order_of_dual_replacement(FiniteSpectrumData(5, CP2), [9])
                == [0])
        assert (k1_order_of_dual_replacement(FiniteSpectrumData(3, {1: 1}), [-1])
                == [INFINITE])
        assert (k1_order_of_dual_replacement(FiniteSpectrumData(3, {0: 1}), [3, 0, 2, 3])
                == [1, INFINITE, 0, 1])
        assert k1_order_of_dual_replacement(FiniteSpectrumData(3, {0: 1}), []) == []

    def test_torsion_markers_are_ignored(self, rng):
        for _ in range(50):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p)
            bare = FiniteSpectrumData(p, dict(X.betti))
            ts = [rng.randint(-30, 30) for _ in range(rng.randint(0, 8))]
            assert k1_order_of_dual_replacement(X, ts) == k1_order_of_dual_replacement(bare, ts)

    def test_is_wedge_order_at_negated_cells(self, rng):
        for _ in range(50):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p, torsion_prob=0)
            neg = FiniteSpectrumData(p, {-d: r for d, r in X.betti.items()})
            ts = [rng.randint(-30, 30) for _ in range(rng.randint(0, 8))]
            assert k1_order_of_dual_replacement(X, ts) == [wedge_order(neg, t) for t in ts]

    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           betti=st.dictionaries(st.integers(-30, 30), st.integers(1, 4), max_size=8),
           torsion=st.dictionaries(st.integers(-30, 30), st.sampled_from(["a", "b"]),
                                   max_size=3),
           ts=st.lists(st.integers(-400, 400), max_size=12))
    @settings(max_examples=200)
    def test_batch_equals_one_replacement_per_degree(self, p, betti, torsion, ts):
        X = FiniteSpectrumData(p, betti, torsion)
        assert (k1_order_of_dual_replacement(X, ts)
                == [wedge_order(dual(strip_torsion(X)), t) for t in ts])
