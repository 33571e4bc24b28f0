"""Spectrum data: duality, torsion handling, eigenspace polynomials, lambda totals."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwaspectra.iwalg import CharPoly, format_charpoly
from iwaspectra.spectra import (
    FiniteSpectrumData,
    PrimeMismatch,
    degree_window,
    dual,
    eigenspace_charpoly,
    eigenspace_keys,
    euler_characteristic,
    strip_torsion,
    suspend,
    total_lambda,
    wedge,
)

from oracles import eigenspace_charpoly_scan, random_spectrum

CP2 = {0: 1, 2: 1, 4: 1}

odd_primes = st.sampled_from([3, 5, 7])

betti_maps = st.dictionaries(
    st.integers(min_value=-10, max_value=10), st.integers(min_value=1, max_value=4),
    max_size=6,
)


def shift_factors(f: CharPoly, k: int) -> CharPoly:
    return CharPoly(f.p, tuple((i + k, m) for i, m in f.factors))


class TestData:
    def test_sorts_maps(self):
        X = FiniteSpectrumData(3, {4: 1, 0: 2}, {3: "a", -1: "b"})
        assert list(X.betti) == [0, 4]
        assert list(X.torsion) == [-1, 3]

    def test_rejects_bad_ranks(self):
        with pytest.raises(ValueError, match="betti rank at degree 0 must be an int >= 1, got 0"):
            FiniteSpectrumData(3, {0: 0})
        with pytest.raises(ValueError):
            FiniteSpectrumData(3, {0: -1})
        with pytest.raises(TypeError, match="betti degree must be an int, got float"):
            FiniteSpectrumData(3, {0.5: 1})
        with pytest.raises(TypeError, match="betti rank at degree 0 must be an int, got bool"):
            FiniteSpectrumData(3, {0: True})
        with pytest.raises(TypeError, match="torsion degree must be an int, got float"):
            FiniteSpectrumData(3, {0: 1}, {1.5: "a"})

    def test_rejects_bad_prime(self):
        from iwaspectra.padic import NotAnOddPrime
        with pytest.raises(NotAnOddPrime):
            FiniteSpectrumData(4, {0: 1})

    def test_maps_are_read_only_copies(self):
        # the eigenspace map is cached on the spectrum, so its cells must
        # not change after construction
        betti, torsion = {0: 1, 2: 1}, {1: "a"}
        X = FiniteSpectrumData(3, betti, torsion)
        with pytest.raises(TypeError):
            X.betti[4] = 1
        with pytest.raises(TypeError):
            X.torsion[1] = "b"
        with pytest.raises(TypeError):
            X.eigenspaces[(0, 0)] = CharPoly(3)
        betti[4] = 1
        torsion[3] = "b"
        assert X == FiniteSpectrumData(3, {0: 1, 2: 1}, {1: "a"})
        assert total_lambda(X) == 2


class TestEulerCharacteristic:
    def test_contract_examples(self):
        assert euler_characteristic(FiniteSpectrumData(3, CP2)) == 3
        assert euler_characteristic(FiniteSpectrumData(3, {})) == 0
        assert euler_characteristic(FiniteSpectrumData(3, {1: 2, 2: 5})) == 3


class TestDual:
    def test_contract_examples(self):
        assert dual(FiniteSpectrumData(3, {0: 1, 2: 1})).betti == {-2: 1, 0: 1}
        assert dual(FiniteSpectrumData(3, {-4: 1, 0: 2})).betti == {0: 2, 4: 1}

    def test_moves_torsion_markers(self):
        X = FiniteSpectrumData(3, {0: 1}, {3: "a"})
        assert dual(X).torsion == {-3: "a"}

    @given(p=odd_primes, betti=betti_maps)
    def test_involution(self, p, betti):
        X = FiniteSpectrumData(p, betti)
        assert dual(dual(X)) == X


def parity_halves(X):
    """The even and odd cells of X as two torsion-free spectra."""
    return (FiniteSpectrumData(X.p, {d: r for d, r in X.betti.items() if d % 2 == 0}),
            FiniteSpectrumData(X.p, {d: r for d, r in X.betti.items() if d % 2 != 0}))


class TestTorsionFree:
    def test_contract_example(self):
        X = FiniteSpectrumData(3, {0: 1, 3: 1}, {1: "a"})
        replacement = strip_torsion(X)
        assert replacement == FiniteSpectrumData(3, {0: 1, 3: 1})
        assert replacement.torsion == {}

    def test_idempotent(self, rng):
        # the replacement is the wedge of its even and odd pieces, and
        # replacing again changes nothing
        for _ in range(50):
            X = random_spectrum(rng, 5)
            even, odd = parity_halves(X)
            assert strip_torsion(X) == wedge(even, odd)
            assert strip_torsion(strip_torsion(X)) == strip_torsion(X)

    def test_strip_torsion(self):
        X = FiniteSpectrumData(3, {0: 1}, {0: "a", 5: "b"})
        assert strip_torsion(X) == FiniteSpectrumData(3, {0: 1})


class TestEigenspaces:
    def test_keys(self):
        keys = eigenspace_keys(5)
        assert len(keys) == 8
        assert keys[0] == (0, 0)
        assert keys[-1] == (-1, 3)
        assert len(eigenspace_keys(3)) == 4

    def test_key_validation(self):
        X = FiniteSpectrumData(3, CP2)
        # False == 0 and 0.0 == 0 are in (0, -1), and would read the degree-0
        # eigenspace
        with pytest.raises(ValueError, match="cohomological degree must be 0 or -1, got 1"):
            eigenspace_charpoly(X, (1, 0))
        for key in [(0, 0.5), (-1, True), (False, 1), (0.0, 1)]:
            with pytest.raises(TypeError, match="must be an int, got"):
                eigenspace_charpoly(X, key)

    def test_contract_examples(self):
        cp2 = FiniteSpectrumData(5, CP2)
        assert format_charpoly(eigenspace_charpoly(cp2, (0, 0))) == "T"
        assert format_charpoly(eigenspace_charpoly(cp2, (0, 1))) == "T - 5"
        two_odd = FiniteSpectrumData(3, {3: 2})
        assert eigenspace_charpoly(two_odd, (-1, 0)) == CharPoly(3, ((2, 2),))
        assert format_charpoly(eigenspace_charpoly(two_odd, (-1, 0))) == "(T - 15)^2"

    def test_weight_reduced_mod_p_minus_1(self):
        cp2 = FiniteSpectrumData(5, CP2)
        for c, j in [(0, 0), (0, 1), (-1, 3)]:
            assert (eigenspace_charpoly(cp2, (c, j))
                    == eigenspace_charpoly(cp2, (c, j + 7 * 4)))

    def test_direct_enumeration_oracle(self, rng):
        # recompute each factor list by brute force over the betti map
        for _ in range(100):
            p = rng.choice([3, 5, 7])
            X = random_spectrum(rng, p)
            for degree, j in eigenspace_keys(p):
                expected = {}
                for d, r in X.betti.items():
                    if d % 2 == 0 and degree == 0:
                        i = d // 2
                    elif d % 2 != 0 and degree == -1:
                        i = (d + 1) // 2
                    else:
                        continue
                    if (i - j) % (p - 1) == 0:
                        expected[i] = expected.get(i, 0) + r
                assert eigenspace_charpoly(X, (degree, j)) == CharPoly(p, tuple(expected.items()))

    @given(p=odd_primes, betti=betti_maps)
    @settings(max_examples=100)
    def test_parity_separation(self, p, betti):
        X = FiniteSpectrumData(p, betti)
        even, odd = parity_halves(X)
        for degree, j in eigenspace_keys(p):
            half = even if degree == 0 else odd
            assert eigenspace_charpoly(X, (degree, j)) == eigenspace_charpoly(half, (degree, j))

    @given(p=odd_primes, a=betti_maps, b=betti_maps)
    @settings(max_examples=100)
    def test_wedge_multiplies_charpolys(self, p, a, b):
        X, Y = FiniteSpectrumData(p, a), FiniteSpectrumData(p, b)
        for key in eigenspace_keys(p):
            f, g = eigenspace_charpoly(X, key), eigenspace_charpoly(Y, key)
            assert eigenspace_charpoly(wedge(X, Y), key) == CharPoly(p, f.factors + g.factors)

    @given(p=odd_primes, betti=betti_maps)
    @settings(max_examples=100)
    def test_double_suspension_shifts_weight_and_exponent(self, p, betti):
        X = FiniteSpectrumData(p, betti)
        for degree, j in eigenspace_keys(p):
            shifted = eigenspace_charpoly(suspend(X, 2), (degree, j + 1))
            assert shifted == shift_factors(eigenspace_charpoly(X, (degree, j)), 1)

    def test_single_suspension_swaps_parity(self):
        # an odd cell 2i-1 and its suspension to 2i carry the same exponent i;
        # an even cell 2i suspends to 2i+1 with exponent i+1
        X = FiniteSpectrumData(5, {1: 1})
        assert eigenspace_charpoly(X, (-1, 1)) == CharPoly(5, ((1, 1),))
        assert eigenspace_charpoly(suspend(X), (0, 1)) == CharPoly(5, ((1, 1),))
        Y = FiniteSpectrumData(5, {2: 1})
        assert eigenspace_charpoly(Y, (0, 1)) == CharPoly(5, ((1, 1),))
        assert eigenspace_charpoly(suspend(Y), (-1, 2)) == CharPoly(5, ((2, 1),))

    def test_suspend_refuses_a_non_int_shift(self):
        X = FiniteSpectrumData(5, {1: 1})
        for k, kind in ((True, "bool"), (1.0, "float")):
            with pytest.raises(TypeError, match=f"^k must be an int, got {kind}$"):
                suspend(X, k)


class TestEigenspaceMap:
    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           betti=st.dictionaries(st.integers(-40, 40), st.integers(1, 4), max_size=8),
           torsion=st.dictionaries(st.integers(-40, 40), st.sampled_from(["a", "b"]),
                                   max_size=3),
           shifts=st.lists(st.integers(-5, 5), min_size=1, max_size=3))
    @settings(max_examples=200)
    def test_lookup_matches_cell_scan(self, p, betti, torsion, shifts):
        X = FiniteSpectrumData(p, betti, torsion)
        before = repr(X)
        one = eigenspace_charpoly(FiniteSpectrumData(p, {}), (0, 0))
        assert one == CharPoly(p)
        long_sum = 0
        for degree, j in eigenspace_keys(p):
            want = eigenspace_charpoly_scan(X, (degree, j))
            long_sum += sum(m for _, m in want) * (1 if degree == 0 else -1)
            for k in shifts:
                f = eigenspace_charpoly(X, (degree, j + k * (p - 1)))
                assert f.factors == want, (degree, j, k)
                if not want:
                    assert f is one
        assert all(f.factors for f in X.eigenspaces.values())
        assert set(X.eigenspaces) <= set(eigenspace_keys(p))
        assert total_lambda(X) == long_sum
        assert X == FiniteSpectrumData(X.p, dict(X.betti), dict(X.torsion))
        assert repr(X) == before


class TestWedge:
    def test_adds_ranks_and_keeps_markers(self):
        X = FiniteSpectrumData(3, {0: 1, 2: 2}, {1: "a"})
        Y = FiniteSpectrumData(3, {2: 3, 5: 1}, {1: "b", 4: "c"})
        W = wedge(X, Y)
        assert W.betti == {0: 1, 2: 5, 5: 1}
        assert W.torsion == {1: "a+b", 4: "c"}

    def test_prime_mismatch(self):
        with pytest.raises(PrimeMismatch):
            wedge(FiniteSpectrumData(3, {}), FiniteSpectrumData(5, {}))


class TestTotalLambda:
    def test_contract_examples(self):
        assert total_lambda(FiniteSpectrumData(3, {0: 1, 2: 1})) == 2
        assert total_lambda(FiniteSpectrumData(3, {1: 1})) == -1
        assert total_lambda(FiniteSpectrumData(3, {0: 3, 1: 1, 2: 2})) == 4

    def test_matches_euler_characteristic(self, rng):
        for _ in range(200):
            X = random_spectrum(rng, rng.choice([3, 5, 7]))
            assert total_lambda(X) == euler_characteristic(X)

    def test_mu_always_zero(self, rng):
        for _ in range(20):
            X = random_spectrum(rng, 3)
            assert all(eigenspace_charpoly(X, key).mu == 0 for key in eigenspace_keys(3))


class TestDegreeWindow:
    def test_contract_examples(self):
        assert degree_window(FiniteSpectrumData(3, CP2)) == (0, 4)
        assert degree_window(FiniteSpectrumData(3, {-3: 1, 0: 2, 5: 1})) == (-3, 5)
        assert degree_window(FiniteSpectrumData(3, {})) is None

    def test_torsion_does_not_widen(self):
        X = FiniteSpectrumData(3, {0: 1}, {7: "a"})
        assert degree_window(X) == (0, 0)