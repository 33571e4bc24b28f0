"""Window averages, the growth law, wedge additivity, envelope sequences."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwaspectra.asymptotics import (
    GradedAverage,
    InfiniteOrderInWindow,
    LambdaZero,
    default_skip,
    graded_average,
    growth_ratio,
    ladder,
)
from iwaspectra.k1 import TorsionPresent, sphere_order, wedge_order
from iwaspectra.padic import NotAnOddPrime
from iwaspectra.spectra import FiniteSpectrumData, suspend, total_lambda, wedge

from oracles import (
    exact_average,
    first_infinite_in_window,
    ladder_identity_average,
    random_spectrum,
    sn_closed_form,
    window_average_bruteforce,
    window_average_digits,
)

S0_3 = FiniteSpectrumData(3, {0: 1})
CP2 = {0: 1, 2: 1, 4: 1}


def safe_random_spectrum(rng, p):
    X = random_spectrum(rng, p, torsion_prob=0)
    return X, default_skip(X)


class TestGradedAverage:
    def test_contract_examples(self):
        assert graded_average(S0_3, 0, 4) == GradedAverage(0, 4, -2)
        assert exact_average(graded_average(S0_3, 0, 4)) == Fraction(-1, 2)
        assert exact_average(graded_average(S0_3, 0, 12)) == Fraction(-1)
        with pytest.raises(InfiniteOrderInWindow) as exc:
            graded_average(S0_3, -1, 2)
        assert exc.value.degree in (-1, 0)
        assert exc.value.cell == 0

    def test_window_touching_infinite_degree_names_it(self):
        X = FiniteSpectrumData(3, {4: 2})
        with pytest.raises(InfiniteOrderInWindow) as exc:
            graded_average(X, 2, 5)
        assert exc.value.degree == 3
        assert exc.value.cell == 4

    def test_torsion_rejected(self):
        with pytest.raises(TorsionPresent):
            graded_average(FiniteSpectrumData(3, {0: 1}, {1: "a"}), 0, 4)

    def test_bad_window_rejected(self):
        # a bool is an int to isinstance, but no window length or skip
        for skip, length in ((0.5, 4), (True, 4), (0, True), (0, 4.0)):
            with pytest.raises(TypeError, match="must be an int, got"):
                graded_average(S0_3, skip, length)
        for length in (0, -1):
            with pytest.raises(ValueError, match="window length must be an int >= 1"):
                graded_average(S0_3, 0, length)

    def test_empty_spectrum_averages_zero(self):
        assert exact_average(graded_average(FiniteSpectrumData(3, {}), -5, 17)) == 0

    def test_matches_bruteforce_window_sums(self, rng):
        for _ in range(60):
            p = rng.choice([3, 5, 7])
            X, skip = safe_random_spectrum(rng, p)
            skip += rng.randint(0, 3)
            length = rng.randint(1, 60)
            assert (exact_average(graded_average(X, skip, length))
                    == window_average_bruteforce(p, X.betti, skip, length))

    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           betti=st.dictionaries(st.integers(-40, 40), st.integers(1, 4), max_size=6),
           skip=st.integers(-60, 60), length=st.integers(1, 160))
    @settings(max_examples=400, deadline=None)
    def test_closed_form_equals_literal_scan(self, p, betti, skip, length):
        # windows cross degree 0 and cells sit at negative degrees; where the
        # scan meets a Zp-hat, the error names the same degree and cell
        X = FiniteSpectrumData(p, betti)
        hit = first_infinite_in_window(p, X.betti, skip, length)
        if hit is None:
            assert (exact_average(graded_average(X, skip, length))
                    == window_average_bruteforce(p, X.betti, skip, length))
        else:
            with pytest.raises(InfiniteOrderInWindow) as exc:
                graded_average(X, skip, length)
            assert (exc.value.degree, exc.value.cell) == hit

    def test_far_windows_match_bruteforce(self, rng):
        # windows far from degree 0, some holding a degree 2(p-1)k - 1 with
        # k a high power of p, whose class is far above log_p(length)
        for p in (3, 5, 7):
            for k in (p ** 40, 7 * p ** 55, 10 ** 30):
                X = random_spectrum(rng, p, torsion_prob=0)
                skip = 2 * (p - 1) * k - rng.randint(1, 40)
                length = rng.randint(1, 60)
                assert (exact_average(graded_average(X, skip, length))
                        == window_average_bruteforce(p, X.betti, skip, length)), (p, k)

    def test_negative_windows_work(self):
        # a cell at -6 is safe on windows right of 0
        X = FiniteSpectrumData(3, {-6: 1})
        got = graded_average(X, 0, 4)
        assert exact_average(got) == window_average_bruteforce(3, {-6: 1}, 0, 4)


class TestDigitFormula:
    """graded_average against window_average_digits, which sums each cell's
    special degrees from the base-p digits of the run's ends: windows of any
    length that start at or past default_skip."""

    def test_oracle_matches_bruteforce_on_short_windows(self, rng):
        for p in (3, 5, 7):
            for _ in range(4):
                X, skip = safe_random_spectrum(rng, p)
                for extra in (0, 1, 7):
                    for length in range(1, 4 * (p - 1) * p + 1):
                        assert (window_average_digits(p, X.betti, skip + extra, length)
                                == window_average_bruteforce(p, X.betti, skip + extra, length))

    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           betti=st.dictionaries(st.integers(-40, 40), st.integers(1, 4), max_size=6),
           extra=st.integers(0, 10 ** 30),
           length=st.one_of(st.integers(1, 10 ** 4), st.integers(1, 10 ** 60)))
    @settings(max_examples=400, deadline=None)
    def test_closed_form_equals_digit_formula(self, p, betti, extra, length):
        X = FiniteSpectrumData(p, betti)
        skip = default_skip(X) + extra
        assert (exact_average(graded_average(X, skip, length))
                == window_average_digits(p, X.betti, skip, length))


class TestLadderIdentity:
    @given(p=st.sampled_from([3, 5, 7, 11, 13, 31, 97, 101]), n=st.integers(0, 100),
           betti=st.dictionaries(st.integers(-40, 40), st.integers(1, 4), max_size=6),
           shift=st.one_of(st.integers(0, 10 ** 7),
                           # past a k = c * p^e of high valuation
                           st.tuples(st.integers(1, 50), st.integers(0, 150),
                                     st.integers(-200, 200))),
           below=st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_ladder_windows_obey_the_identity(self, p, n, betti, shift, below):
        # rungs far past any literal window sum; below the cells k_d < 0
        X = FiniteSpectrumData(p, betti)
        block = 2 * (p - 1)
        N = block * p ** n
        if isinstance(shift, tuple):
            c, e, offset = shift
            shift = max(0, block * c * p ** e + offset)
        if below:
            skip = min(X.betti, default=0) - 2 - N - shift
        else:
            skip = default_skip(X) + shift
        assert (exact_average(graded_average(X, skip, N))
                == ladder_identity_average(p, X.betti, skip, n))

    def test_default_skip_gives_the_growth_law(self):
        # k_d = p^n for every cell, so A = -lambda (n+1)/2 exactly
        X = FiniteSpectrumData(5, {0: 1, 2: 1, 4: 1})
        for n in range(6):
            N = 8 * 5 ** n
            assert ladder_identity_average(5, X.betti, 4, n) == Fraction(-3 * (n + 1), 2)
            assert exact_average(graded_average(X, 4, N)) == Fraction(-3 * (n + 1), 2)


class TestSnClosedForm:
    def test_contract_examples(self):
        # S^0 at p = 3 over the windows 1 .. 4 * 3^n
        for n, s_n in ((0, Fraction(-1, 2)), (1, Fraction(-1)), (3, Fraction(-2))):
            assert sn_closed_form(3, n) == s_n
            assert exact_average(graded_average(S0_3, 0, 4 * 3 ** n)) == s_n

    def test_high_rungs_exact(self):
        # rung n and the windows one and two degrees short of it, which drop
        # degree N (trivial, +1) and degree N-1 (order p^(n+1), odd)
        for p in (3, 5, 7, 101):
            S0 = FiniteSpectrumData(p, {0: 1})
            for n in range(41):
                N = 2 * (p - 1) * p ** n
                s_n = sn_closed_form(p, n)
                assert exact_average(graded_average(S0, 0, N)) == s_n, (p, n)
                assert (exact_average(graded_average(S0, 0, N - 1))
                        == (N * s_n - 1) / (N - 1)), (p, n)
                assert (exact_average(graded_average(S0, 0, N - 2))
                        == (N * s_n - 1 + p ** (n + 1)) / (N - 2)), (p, n)


class TestSkipAndLadder:
    def test_default_skip(self):
        assert default_skip(S0_3) == 0
        assert default_skip(FiniteSpectrumData(3, {2: 1})) == 2
        assert default_skip(FiniteSpectrumData(3, {-4: 1})) == 0
        assert default_skip(FiniteSpectrumData(3, {})) == 0

    def test_default_skip_is_safe(self, rng):
        for _ in range(60):
            X, skip = safe_random_spectrum(rng, rng.choice([3, 5, 7]))
            graded_average(X, skip, 30)  # must not raise

    def test_ladder(self):
        assert ladder(3, 2) == [4, 12, 36]
        assert ladder(5, 0) == [8]
        with pytest.raises(ValueError, match="rungs must be an int >= 0, got -1"):
            ladder(3, -1)
        for rungs in (True, 1.0):
            with pytest.raises(TypeError, match="rungs must be an int"):
                ladder(3, rungs)


class TestGrowthRatio:
    def test_contract_example(self):
        ratio = growth_ratio(graded_average(S0_3, 0, 2 * 2 * 3 ** 8 - 1), 1, 3)
        assert abs(ratio - 1) <= 0.15

    def test_negative_lambda_case(self):
        X = FiniteSpectrumData(3, {1: 1})
        ratio = growth_ratio(graded_average(X, default_skip(X), 4 * 3 ** 7), total_lambda(X), 3)
        assert abs(ratio - 1) <= 0.2

    def test_lambda_zero_raises(self):
        X = FiniteSpectrumData(3, {0: 1, 1: 1})
        with pytest.raises(LambdaZero):
            growth_ratio(graded_average(X, 1, 100), total_lambda(X), 3)

    def test_p_must_be_an_odd_prime(self):
        average = graded_average(S0_3, 0, 2 * 2 * 3 ** 4)
        for p in (4, 9, 1, 2, True, 3.0):
            with pytest.raises(NotAnOddPrime):
                growth_ratio(average, 1, p)

    def test_lam_must_be_an_int(self):
        average = graded_average(S0_3, 0, 2 * 2 * 3 ** 4)
        for lam in (True, 1.0, "1", None):
            with pytest.raises(TypeError, match="lam must be an int"):
                growth_ratio(average, lam, 3)

    def test_tiny_window_rejected(self):
        with pytest.raises(ValueError):
            growth_ratio(graded_average(S0_3, 0, 1), 1, 3)

    def test_ratio_tightens_along_the_ladder(self):
        spectra = [S0_3, suspend(S0_3, 2), FiniteSpectrumData(3, CP2)]
        for X in spectra:
            skip = default_skip(X)
            ratios = [growth_ratio(graded_average(X, skip, n), total_lambda(X), 3)
                      for n in ladder(3, 6)[1:]]
            early = max(abs(r - 1) for r in ratios[:3])
            late = max(abs(r - 1) for r in ratios[-3:])
            assert late < early


def wedge_defect(X, Z, skip, length):
    """Average of X v Z minus the sum of the averages, over one window."""
    return (exact_average(graded_average(wedge(X, Z), skip, length))
            - exact_average(graded_average(X, skip, length))
            - exact_average(graded_average(Z, skip, length)))


class TestAdditivity:
    def test_contract_examples(self):
        assert exact_average(graded_average(wedge(S0_3, S0_3), 0, 12)) == -2
        assert wedge_defect(S0_3, S0_3, 0, 12) == 0
        S2, S4 = FiniteSpectrumData(3, {2: 1}), FiniteSpectrumData(3, {4: 1})
        assert wedge_defect(S2, S4, 4, 100) == 0
        assert wedge_defect(S0_3, FiniteSpectrumData(3, {1: 1}), 1, 50) == 0

    def test_random_pairs_exact(self, rng):
        for _ in range(60):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p, torsion_prob=0)
            Z = random_spectrum(rng, p, torsion_prob=0)
            skip = max(default_skip(X), default_skip(Z)) + rng.randint(0, 2)
            assert wedge_defect(X, Z, skip, rng.randint(1, 120)) == 0


class TestTrueOrders:
    @given(p=st.sampled_from([3, 5, 7, 11]), data=st.data(), length=st.integers(1, 400),
           extra=st.integers(0, 40))
    @settings(max_examples=400, deadline=None)
    def test_summed_orders_exceed_true_orders_by_r_minus_1(self, p, data, length, extra):
        # graded_average sums the cells' orders p**e_d per degree (the
        # sphere table route); the group's order is p**wedge_order, their
        # product (the eigenspace route).  A cell's e_d is nonzero only in
        # degrees d - 1 mod 2(p-1), so with rank-1 cells in distinct classes
        # at most one e_d is nonzero per degree and the sum exceeds the
        # product by R - 1, R the number of cells
        block = 2 * (p - 1)
        classes = data.draw(st.sets(st.integers(0, block - 1), min_size=1, max_size=8))
        X = FiniteSpectrumData(p, {c + block * data.draw(st.integers(-3, 3)): 1 for c in classes})
        skip = default_skip(X) + extra
        window = range(skip + 1, skip + length + 1)
        true_total = sum((-1) ** j * p ** wedge_order(X, j) for j in window)
        alternating = sum((-1) ** j for j in window)
        assert (graded_average(X, skip, length).total - true_total
                == (len(classes) - 1) * alternating)


def envelope_sequences(p, max_rung):
    """Average/(log of window length) along two interleaved window families:
    lengths 2(p-1)p^n - 1 (lower family t_n) and 2(p-1)p^n - 2 (upper, u_n)."""
    S0 = FiniteSpectrumData(p, {0: 1})
    t, u = [], []
    for n in range(max_rung + 1):
        full = 2 * (p - 1) * p ** n
        t.append(float(exact_average(graded_average(S0, 0, full - 1))) / math.log(full - 1, p))
        u.append(float(exact_average(graded_average(S0, 0, full - 2))) / math.log(full - 2, p)
                 if full - 2 >= 2 else 0.0)
    return t, u


class TestEnvelopes:
    def test_upper_family_stays_above_limit_and_decreases(self):
        _, u = envelope_sequences(3, 6)
        assert all(x >= -0.5 for x in u)
        assert all(a > b for a, b in zip(u, u[1:]))

    def test_lower_family_crosses_the_limit(self):
        # the lower family starts below -1/2 but crosses it between rung 1
        # and rung 2, so it is not a one-sided envelope
        t, _ = envelope_sequences(3, 6)
        assert t[0] < -0.5 and t[1] < -0.5
        assert t[2] > -0.5
        assert min(t) == t[0]

    def test_both_families_approach_the_limit(self):
        t, u = envelope_sequences(3, 6)
        assert abs(t[-1] + 0.5) < abs(t[0] + 0.5)
        assert abs(u[-1] + 0.5) < abs(u[0] + 0.5)
        assert all(tn <= un for tn, un in zip(t, u))


class TestMaxOrderDensity:
    def test_peaks_sit_at_special_degrees_and_decay(self):
        # |pi_n|/(n log_p n) over the degrees n in [2, 10^6] where the group
        # is nontrivial: the winner is a degree 2(p-1)p^k - 1 and the values
        # at successive such degrees fall
        for p in (3, 5, 7):
            log_p = math.log(p)

            def density(n, exponent):
                return p ** exponent / (n * math.log(n) / log_p)

            block = 2 * (p - 1)
            best, best_degree = 0.0, None
            m = 1
            while block * m - 1 <= 10 ** 6:
                t = block * m - 1
                if t >= 2:
                    e = sphere_order(p, t)
                    if e > 0:
                        d = density(t, e)
                        if d > best:
                            best, best_degree = d, t
                m += 1
            specials = [block * p ** k - 1
                        for k in range(20) if 2 <= block * p ** k - 1 <= 10 ** 6]
            assert best_degree == specials[0]
            peaks = [density(t, sphere_order(p, t)) for t in specials]
            assert all(a > b for a, b in zip(peaks, peaks[1:]))

    def test_special_degrees_beat_every_degree_at_p3(self):
        # at p = 3 the first special degree even wins against the degrees
        # with trivial homotopy, whose density 1/(n log_3 n) peaks at n = 2
        best_trivial = max(1 / (n * math.log(n, 3)) for n in range(2, 20))
        assert 3 / (3 * math.log(3, 3)) > best_trivial