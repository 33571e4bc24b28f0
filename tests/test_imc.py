"""The weak main-conjecture comparison, driven by the two independent routes,
and its sphere case: a spectrum with one even cell."""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from iwaspectra.imc import ImcRecord, verify_weak_imc
from iwaspectra.iwalg import CharPoly
from iwaspectra.padic import INFINITE, PadicValuation
from iwaspectra.spectra import FiniteSpectrumData, degree_window, strip_torsion, suspend

from oracles import (
    evaluate_exact,
    imc_exceptions,
    in_strict_window,
    random_spectrum,
    rational_valuation,
    sphere_exponent_bruteforce,
)

CP2 = {0: 1, 2: 1, 4: 1}
S0_3 = FiniteSpectrumData(3, {0: 1})


def sphere(p, i: int) -> FiniteSpectrumData:
    """S^{2i}, one cell in degree 2i."""
    return FiniteSpectrumData(p, {2 * i: 1})


def odd_side(report) -> list[ImcRecord]:
    """The side-(2m-1) records, where a sphere's comparison holds at every m."""
    return [r for r in report.records if r.side == 2 * r.m - 1]


def record_at(report, m: int, side: int) -> ImcRecord:
    matches = [r for r in report.records if r.m == m and r.side == side]
    assert len(matches) == 1
    return matches[0]


def in_window(X: FiniteSpectrumData, m: int) -> bool:
    """The in_window flag of both of X's records at m, which must agree with
    the oracle's reading of the window statement."""
    flags = {r.in_window for r in verify_weak_imc(X, [m]).records}
    assert flags == {in_strict_window(X, m)}, (X, m)
    return flags.pop()


class TestStrictWindow:
    def test_sphere_window(self):
        # cells only in degree 0: window is m < 0 or m > 0
        assert in_window(S0_3, 4)
        assert in_window(S0_3, -1)
        assert not in_window(S0_3, 0)

    def test_spread_window(self):
        X = FiniteSpectrumData(5, CP2)  # alpha 0, beta 4
        for m in (-3, -4, 1, 2):
            assert in_window(X, m)
        for m in (-2, -1, 0):
            assert not in_window(X, m)

    def test_rationally_trivial_has_no_constraint(self):
        X = FiniteSpectrumData(3, {}, {2: "a"})
        assert all(in_window(X, m) for m in range(-10, 10))

    def test_odd_bottom_cell_shifts_the_upper_branch(self):
        # an odd cell at alpha dualizes to a Zp-hat in degree -alpha, seen by
        # side 2m-1 at m = (1-alpha)/2; that m must not carry a guarantee
        S1 = FiniteSpectrumData(3, {1: 1})
        assert not in_window(S1, 0)
        assert in_window(S1, -1) and in_window(S1, 1)
        X = FiniteSpectrumData(5, {-9: 3, -3: 1, -2: 4, 8: 1})
        assert not in_window(X, 5)
        assert in_window(X, 6)
        assert not in_window(X, 4)  # interior, as before

    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           betti=st.dictionaries(st.integers(-30, 30), st.integers(1, 4), max_size=8),
           torsion=st.dictionaries(st.integers(-30, 30), st.sampled_from(["a", "b"]),
                                   max_size=3),
           a=st.integers(-60, 60), length=st.integers(0, 40))
    @settings(max_examples=200, deadline=None)
    def test_report_window_is_read_once(self, p, betti, torsion, a, length):
        X = FiniteSpectrumData(p, betti, torsion)
        ms = range(a, a + length)
        report = verify_weak_imc(X, ms)
        assert report.window == degree_window(X)
        assert report.window == ((min(betti), max(betti)) if betti else None)
        assert [r.m for r in report.records] == [m for m in ms for _ in range(2)]
        for rec in report.records:
            assert rec.in_window == in_strict_window(X, rec.m)


class TestMismatches:
    def test_contract_examples(self):
        # a cell at d with no cell at d - 1 mismatches on side -d: every cell
        # of S^0, S^1 and CP^2, but the cell at 1 of S^0 v S^1 has one at 0
        assert imc_exceptions({0: 1}) == {(0, 0)}
        assert imc_exceptions({1: 1}) == {(0, -1)}
        assert imc_exceptions(CP2) == {(0, 0), (-1, -2), (-2, -4)}
        assert imc_exceptions({0: 1, 1: 1}) == {(0, 0)}
        assert imc_exceptions({}) == set()
        report = verify_weak_imc(FiniteSpectrumData(5, CP2), range(-4, 5))
        assert {(r.m, r.side) for r in report.records if not r.match} == imc_exceptions(CP2)

    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           betti=st.dictionaries(st.integers(-30, 30), st.integers(1, 4), max_size=8),
           torsion=st.dictionaries(st.integers(-30, 30), st.sampled_from(["a", "b", "zpk"]),
                                   max_size=3),
           a=st.integers(-40, 40), length=st.integers(0, 40))
    @example(p=3, betti={1: 1}, torsion={}, a=-4, length=9)
    @example(p=5, betti={-9: 3, -3: 1, -2: 4, 8: 1}, torsion={0: "a"}, a=-10, length=21)
    @settings(max_examples=300, deadline=None)
    def test_mismatches_are_the_cell_rule(self, p, betti, torsion, a, length):
        ms = range(a, a + length)
        report = verify_weak_imc(FiniteSpectrumData(p, betti, torsion), ms)
        mismatches = {(r.m, r.side) for r in report.records if not r.match}
        assert mismatches == {(m, side) for m, side in imc_exceptions(betti) if m in ms}


class TestWeakImc:
    def test_contract_example_sphere_m4(self):
        report = verify_weak_imc(S0_3, [4])
        rec = record_at(report, 4, 7)
        assert rec.in_window
        assert rec.lhs_valuation == rec.rhs_valuation == PadicValuation(1)
        assert rec.match

    def test_contract_example_sphere_m0(self):
        report = verify_weak_imc(S0_3, [0])
        assert not record_at(report, 0, -1).in_window
        assert not record_at(report, 0, 0).in_window
        # both sides are still emitted; the odd side agrees anyway
        assert record_at(report, 0, -1).lhs_valuation == INFINITE
        assert record_at(report, 0, -1).rhs_valuation == INFINITE
        # ... and the even side disagrees, which is what the window excuses
        rec0 = record_at(report, 0, 0)
        assert rec0.lhs_valuation == INFINITE
        assert rec0.rhs_valuation == PadicValuation(0)
        assert not rec0.match
        assert report.ok

    def test_contract_example_cp2_m_minus3(self):
        report = verify_weak_imc(FiniteSpectrumData(5, CP2), [-3])
        for side in (-7, -6):
            rec = record_at(report, -3, side)
            assert rec.in_window
            assert rec.match

    def test_report_shape(self):
        report = verify_weak_imc(FiniteSpectrumData(5, CP2), range(-4, 5))
        assert report.p == 5
        assert report.window == (0, 4)
        assert len(report.records) == 2 * 9
        assert report.ok

    def test_rationally_trivial_spectrum(self):
        report = verify_weak_imc(FiniteSpectrumData(3, {}), range(-3, 4))
        assert report.window is None
        assert report.ok
        for rec in report.records:
            assert rec.in_window
            assert rec.lhs_valuation == rec.rhs_valuation == PadicValuation(0)

    def test_random_spectra_match_in_window(self, rng):
        for _ in range(30):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p)
            report = verify_weak_imc(X, range(-12, 13))
            assert report.ok, (X, report.in_window_mismatches)

    def test_circle_mismatch_is_flagged_not_guaranteed(self):
        # the degree-(-alpha) breakage for odd alpha, at its smallest: S^1
        report = verify_weak_imc(FiniteSpectrumData(3, {1: 1}), range(-4, 5))
        rec = record_at(report, 0, -1)
        assert rec.lhs_valuation == INFINITE
        assert rec.rhs_valuation == PadicValuation(0)
        assert not rec.match and not rec.in_window
        assert report.ok

    def test_torsion_markers_do_not_change_the_report(self, rng):
        for _ in range(30):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p, torsion_prob=1.0)
            assert verify_weak_imc(X, range(-8, 9)) == verify_weak_imc(
                strip_torsion(X), range(-8, 9))

    def test_even_cells_make_the_even_side_trivial(self, rng):
        # with no odd cells the (-1, j) polynomials are all 1 and the dual
        # replacement has no odd homotopy in even total degree in-window
        for _ in range(20):
            X = random_spectrum(rng, 3, torsion_prob=0)
            even = FiniteSpectrumData(3, {d: r for d, r in X.betti.items() if d % 2 == 0})
            report = verify_weak_imc(even, range(-10, 11))
            for rec in report.records:
                if rec.side % 2 == 0 and rec.in_window:
                    assert rec.lhs_valuation == rec.rhs_valuation == PadicValuation(0)

    def test_suspension_equivariance(self, rng):
        # records of X at m+1 and of its double desuspension... rather:
        # suspending by 2 shifts the comparison index by -1
        for _ in range(20):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p)
            base = verify_weak_imc(X, range(-6, 7))
            lifted = verify_weak_imc(suspend(X, 2), range(-7, 6))
            for rec in base.records:
                partner = record_at(lifted, rec.m - 1, rec.side - 2)
                assert (partner.lhs_valuation, partner.rhs_valuation,
                        partner.in_window, partner.match) == (
                    rec.lhs_valuation, rec.rhs_valuation, rec.in_window, rec.match)


class TestSphereSimc:
    def test_contract_examples(self):
        rec = record_at(verify_weak_imc(sphere(3, 0), [4]), 4, 7)
        assert rec.lhs_valuation == rec.rhs_valuation == PadicValuation(1)

        rec = record_at(verify_weak_imc(sphere(3, 0), [0]), 0, -1)
        assert rec.lhs_valuation == rec.rhs_valuation == INFINITE
        assert rec.match

        rec = record_at(verify_weak_imc(sphere(7, 3), [3]), 3, 5)
        assert rec.lhs_valuation == rec.rhs_valuation == PadicValuation(1)

    def test_small_sweep_all_match(self):
        for p in (3, 5, 7):
            for i in range(-6, 7):
                report = verify_weak_imc(sphere(p, i), range(-51, 50))
                assert report.ok
                records = odd_side(report)
                assert len(records) == 101
                assert all(r.match for r in records), (p, i)

    def test_infinite_case_sits_at_n_equals_1_minus_i(self):
        # n = m + 1 in the sphere's own indexing, so n = 1 - i is m = -i
        for i in range(-3, 4):
            for rec in odd_side(verify_weak_imc(sphere(3, i), range(-11, 10))):
                assert (not rec.lhs_valuation.is_finite) == (rec.m == -i)

    @given(p=st.sampled_from([3, 5, 7, 11, 101]), i=st.integers(-20, 20),
           m=st.integers(-300, 300))
    @example(p=3, i=2, m=-2)
    @example(p=101, i=-20, m=120)
    @settings(max_examples=300, deadline=None)
    def test_sphere_route_matches_bruteforce(self, p, i, m):
        rec = record_at(verify_weak_imc(sphere(p, i), [m]), m, 2 * m - 1)
        assert rec.lhs_valuation.value == sphere_exponent_bruteforce(p, 2 * (m + i) - 1)
        if (i + m) % (p - 1) != 0:
            assert rec.rhs_valuation == PadicValuation(0)
        elif m == -i:
            assert rec.rhs_valuation == INFINITE
        else:
            # the linear factor at i, evaluated at (1+p)^(-m) - 1 exactly
            exact = evaluate_exact(CharPoly(p, ((i, 1),)), Fraction(1 + p) ** -m - 1)
            assert rec.rhs_valuation == PadicValuation(rational_valuation(p, exact))
        assert rec.match
