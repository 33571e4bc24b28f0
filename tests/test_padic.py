"""Valuations, the (1+p)^n - 1 identity, primality, and residues mod p**N."""

import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from iwaspectra.iwalg import CharPoly, coefficients_mod
from iwaspectra.padic import (
    DEFAULT_PRECISION,
    INFINITE,
    PRIMALITY_BOUND,
    NotAnOddPrime,
    OddPrime,
    PadicValuation,
    ZeroInput,
    is_odd_prime,
    one_plus_p_pow_minus_one_valuation,
)

from oracles import euclid_inverse, int_valuation, rational_valuation

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

odd_primes = st.sampled_from([3, 5, 7, 11, 13])

# strong pseudoprimes to several small bases, and Carmichael numbers
PSEUDOPRIMES = (2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
                341550071728321, 3825123056546413051, 318665857834031151167461)
CARMICHAEL = (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185)


def expansion_valuation(p, n):
    """nu_p((1+p)^n - 1) from the exact expansion: a big integer, or a
    Fraction when n < 0."""
    return rational_valuation(p, Fraction(1 + p) ** n - 1)


class TestOddPrime:
    def test_accepts_odd_primes(self):
        for p in (3, 5, 7, 97, 101):
            assert OddPrime(p) == p
            assert isinstance(OddPrime(p), int)

    @pytest.mark.parametrize("bad", [2, 1, 0, -3, 4, 9, 15, 91])
    def test_rejects_non_odd_primes(self, bad):
        with pytest.raises(NotAnOddPrime):
            OddPrime(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(NotAnOddPrime):
            OddPrime(3.0)
        with pytest.raises(NotAnOddPrime):
            OddPrime("3")
        with pytest.raises(NotAnOddPrime):
            OddPrime(True)

    def test_idempotent(self):
        p = OddPrime(5)
        assert OddPrime(p) is p

    def test_is_odd_prime_matches_sieve(self):
        limit = 500
        composite = [False] * (limit + 1)
        for i in range(2, limit + 1):
            if not composite[i]:
                for j in range(i * i, limit + 1, i):
                    composite[j] = True
        for n in range(-10, limit + 1):
            expected = n > 2 and n % 2 == 1 and not composite[n]
            assert is_odd_prime(n) == expected
        for n in PSEUDOPRIMES + CARMICHAEL:
            assert not is_odd_prime(n), n
        for n in (1000000000000000003, 1000000000039, 2 ** 61 - 1, 2 ** 64 - 59):
            assert is_odd_prime(n), n
        assert not is_odd_prime(PRIMALITY_BOUND + 1)  # even, so decided anyway
        for n in (PRIMALITY_BOUND, PRIMALITY_BOUND + 2):
            with pytest.raises(NotAnOddPrime, match=str(PRIMALITY_BOUND)):
                is_odd_prime(n)


class TestValuationNumber:
    def test_value_and_finiteness(self):
        # a valuation is a plain int, or INFINITE, which is math.inf
        assert INFINITE == math.inf and type(INFINITE) is float
        assert 4 != INFINITE
        # callers sum and scale valuations as plain numbers; a sum with an
        # infinite term is INFINITE
        assert 7 + 3 * INFINITE == INFINITE

    def test_rejects_bad_values(self):
        # the library builds no PadicValuation, but the class still checks its field
        with pytest.raises(ValueError, match="valuation must be an int >= 0, got -1"):
            PadicValuation(-1)
        for value in (1.5, True, -math.inf):
            with pytest.raises(TypeError, match="valuation must be an int"):
                PadicValuation(value)


class TestOnePlusPPowMinusOne:
    def test_contract_examples(self):
        assert one_plus_p_pow_minus_one_valuation(5, 5) == 2
        assert one_plus_p_pow_minus_one_valuation(3, 2) == 1
        assert one_plus_p_pow_minus_one_valuation(3, -9) == 3
        with pytest.raises(ZeroInput):
            one_plus_p_pow_minus_one_valuation(3, 0)

    def test_int_kernel_refuses_zero_instead_of_looping(self):
        # run in a child, so a kernel that loops on n = 0 fails here in 10 s
        code = ("from iwaspectra.padic import _special_exponent\n"
                "try:\n    _special_exponent(3, 0)\n"
                "except ValueError as exc:\n    print(type(exc).__name__, exc)\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=10)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "ZeroInput (1+p)^0 - 1 = 0 has no finite valuation\n"

    def test_expansion_oracle_agrees_on_example_inputs(self):
        # 6^5 - 1 = 7775 = 5^2 * 311
        assert Fraction(6) ** 5 - 1 == 7775
        for p, n in [(5, 5), (3, 2), (3, -9), (5, -1), (7, 14)]:
            assert one_plus_p_pow_minus_one_valuation(p, n) == expansion_valuation(p, n)

    def test_closed_form_matches_expansion_sweep(self):
        for p in (3, 5, 7):
            for n in range(-200, 201):
                if n == 0:
                    continue
                assert one_plus_p_pow_minus_one_valuation(p, n) == expansion_valuation(p, n), (p, n)

    @given(p=odd_primes, n=st.integers(min_value=-3000, max_value=3000).filter(bool))
    @settings(max_examples=200)
    def test_closed_form_matches_expansion(self, p, n):
        assert one_plus_p_pow_minus_one_valuation(p, n) == expansion_valuation(p, n)

    @given(p=odd_primes, n=st.integers(min_value=1, max_value=10 ** 12))
    def test_symmetric_in_sign(self, p, n):
        assert (one_plus_p_pow_minus_one_valuation(p, n)
                == one_plus_p_pow_minus_one_valuation(p, -n))


class TestPowMod:
    """Powers mod p**N with the builtin pow, the route coefficients_mod takes."""

    def test_inverse_matches_euclid(self):
        for p, base, prec in [(3, 4, 2), (3, 5, 5), (5, 7, 3), (7, 100, 4)]:
            assert pow(base, -1, p ** prec) == euclid_inverse(base, p ** prec)

    def test_default_precision(self):
        f = CharPoly(3, ((-1, 1),))  # constant term 3/4
        mod = 3 ** DEFAULT_PRECISION
        assert coefficients_mod(f)[0] == 3 * euclid_inverse(4, mod) % mod
        assert DEFAULT_PRECISION >= 32

    def test_residue_route_matches_closed_form_identity(self):
        # valuation of (1+p)^n - 1 read off a finite-precision residue agrees
        # with the closed form whenever the precision leaves headroom
        prec = 12
        for p in (3, 5, 7):
            for n in (1, 2, 5, -4, 12, -27):
                residue = (pow(1 + p, n, p ** prec) - 1) % p ** prec
                assert residue != 0
                assert int_valuation(p, residue) == one_plus_p_pow_minus_one_valuation(p, n)
