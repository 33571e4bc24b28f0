"""Exact p-adic valuation arithmetic at an odd prime.

Everything downstream (characteristic polynomials, homotopy group orders,
graded averages) reduces to a handful of valuation facts collected here:

* ``valuation(p, x)`` is the exponent of p in a nonzero rational x whose
  denominator is prime to p.  Valuations are natural numbers together with
  one extra element ``INFINITE``, which serves both as nu_p(0) and as the
  order exponent of a pro-p summand such as Zp-hat.  INFINITE absorbs
  addition and positive scaling.  The order p**e of a finite p-group is
  carried as its exponent e, so orders multiply by adding valuations.
* the special-value identity nu_p((1+p)^n - 1) = 1 + nu_p(n) for n != 0,
  which is symmetric in n <-> -n.  The closed form is the only route here;
  the tests check it against the big-integer expansion.

No floating point is used anywhere in this module except the single inf
sentinel inside PadicValuation.
"""

from __future__ import annotations

import math
from fractions import Fraction

DEFAULT_PRECISION = 64  # p-adic digits of expanded coefficients

# Miller-Rabin with the first 13 prime bases (2 .. 41) is exact for every
# n below this bound (Sorenson and Webster, 2015); the bound itself is a
# strong pseudoprime to all of them.  The first 12 bases stop at the
# smaller bound 318665857834031151167461, a strong pseudoprime to 2 .. 37.
PRIMALITY_BOUND = 3317044064679887385961981
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


class NotAnOddPrime(ValueError):
    """p failed the odd-prime validation."""


class ZeroInput(ValueError):
    """0 has no finite valuation."""


class NegativeValuation(ValueError):
    """The denominator is divisible by p, so the value is not p-integral."""


def is_odd_prime(n) -> bool:
    """Deterministic Miller-Rabin.  Raises NotAnOddPrime for an odd n at or
    above PRIMALITY_BOUND, where the witness set no longer decides."""
    if not isinstance(n, int) or isinstance(n, bool):
        return False
    if n < 3 or n % 2 == 0:
        return False
    if n >= PRIMALITY_BOUND:
        raise NotAnOddPrime(f"primality is decided only below {PRIMALITY_BOUND}, got {n}")
    if n in _WITNESSES:
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class OddPrime(int):
    """An int that has been checked to be an odd prime."""

    def __new__(cls, p):
        if isinstance(p, OddPrime):
            return p
        if not is_odd_prime(p):
            raise NotAnOddPrime(f"p must be an odd prime, got {p!r}")
        return super().__new__(cls, p)


class Immutable:
    """Refuses assignment and deletion on instances.  A value type sets its
    fields once, in __init__, through object.__setattr__, then validates
    and normalizes them in __post_init__."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PadicValuation(Immutable):
    """A natural number or INFINITE.  Addition and scaling never leave the set."""

    __slots__ = ("value",)  # nonnegative int, or math.inf

    def __init__(self, value):
        object.__setattr__(self, "value", value)
        self.__post_init__()

    def __post_init__(self):
        ok = (isinstance(self.value, int) and not isinstance(self.value, bool)
              and self.value >= 0) or self.value == math.inf
        if not ok:
            raise ValueError(f"valuation must be a natural number or infinity, got {self.value!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"PadicValuation(value={self.value!r})"

    @property
    def is_finite(self) -> bool:
        return self.value != math.inf

    def __add__(self, other):
        if isinstance(other, int) and not isinstance(other, bool):
            other = PadicValuation(other)
        if not isinstance(other, PadicValuation):
            return NotImplemented
        if self.is_finite and other.is_finite:
            return PadicValuation(self.value + other.value)
        return INFINITE

    __radd__ = __add__

    def __mul__(self, k):
        # k copies of a factor: multiplicity in a polynomial, rank of a cell
        if not isinstance(k, int) or isinstance(k, bool):
            return NotImplemented
        if k < 1:
            raise ValueError(f"scaling a valuation needs k >= 1, got {k}")
        if not self.is_finite:
            return INFINITE
        return PadicValuation(self.value * k)

    __rmul__ = __mul__

    def __str__(self):
        return "inf" if not self.is_finite else str(self.value)


INFINITE = PadicValuation(math.inf)

ZERO = PadicValuation(0)


def _int_valuation(p: int, n: int) -> int:
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def valuation(p, x) -> PadicValuation:
    """nu_p(x) for nonzero p-integral rational x (int or Fraction).

    Raises ZeroInput on x == 0 and NegativeValuation when p divides the
    denominator of x.
    """
    p = OddPrime(p)
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
    elif isinstance(x, int) and not isinstance(x, bool):
        num, den = x, 1
    else:
        raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")
    if num == 0:
        raise ZeroInput("nu_p(0) is infinite")
    if den % p == 0:
        raise NegativeValuation(f"{x} is not p-integral at p={p}")
    return PadicValuation(_int_valuation(p, num))


def one_plus_p_pow_minus_one_valuation(p, n) -> PadicValuation:
    """nu_p((1+p)^n - 1) = 1 + nu_p(n) for n != 0, by the closed form.

    Symmetric under n <-> -n.  This identity is what makes every
    characteristic-polynomial evaluation in the package a one-liner.
    """
    p = OddPrime(p)
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"exponent must be an int, got {type(n).__name__}")
    if n == 0:
        raise ZeroInput("(1+p)^0 - 1 = 0 has no finite valuation")
    return PadicValuation(_special_exponent(p, n))


def _special_exponent(p: int, n: int) -> int:
    """1 + nu_p(n), which is nu_p((1+p)^n - 1), as a plain int, for a
    checked prime p and a nonzero int n.  The int kernel behind
    one_plus_p_pow_minus_one_valuation, for callers that sum many of these
    exponents and wrap the total once."""
    return 1 + _int_valuation(p, n)
