"""Exact p-adic valuation facts at an odd prime.

Everything downstream (characteristic polynomials, homotopy group orders,
graded averages) reduces to a handful of valuation facts collected here:

* a valuation is a plain int >= 0 or ``INFINITE``, which is ``math.inf``,
  the order exponent of a pro-p summand such as Zp-hat.  The order p**e of
  a finite p-group is carried as its exponent e, so orders multiply by
  adding exponents, where Python's ``int`` and ``math.inf`` already let
  infinity absorb.
* the special-value identity nu_p((1+p)^n - 1) = 1 + nu_p(n) for n != 0,
  which is symmetric in n <-> -n.  The closed form is the only route here;
  the tests check it against the big-integer expansion.

No floating point is used anywhere in this module except ``INFINITE``.
"""

import math

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


def _int(value, what: str, low: int | None = None) -> int:
    """value, when it is an int and not a bool, of at least low if low is
    given: the package's one rule for an int argument.  TypeError for any
    other type, ValueError for an int below low; what names the argument."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    if low is not None and value < low:
        raise ValueError(f"{what} must be an int >= {low}, got {value!r}")
    return value


def _pair(value, what: str) -> tuple:
    """value, when it is a tuple of two; else TypeError, worded like _int's."""
    if not isinstance(value, tuple) or len(value) != 2:
        raise TypeError(f"{what} must be a pair, got {value!r}")
    return value


def _instance(value, cls: type, what: str):
    """value, when it is an instance of cls, such as a spectrum argument X;
    else TypeError, worded like _int's."""
    if not isinstance(value, cls):
        raise TypeError(f"{what} must be a {cls.__name__}, got {type(value).__name__}")
    return value


class OddPrime(int):
    """An int that has been checked to be an odd prime."""

    def __new__(cls, p):
        if isinstance(p, OddPrime):
            return p
        if not is_odd_prime(p):
            raise NotAnOddPrime(f"p must be an odd prime, got {p!r}")
        return super().__new__(cls, p)


class Immutable:
    """The value-type protocol, written once.  A subclass names its fields
    in _fields, and its __init__, which keeps the signature callers use,
    hands their values to _init: each field is set once, through
    object.__setattr__, and then the subclass's own __post_init__ runs
    once, to validate and normalize them.  Instances compare equal only to
    instances of the same class with equal fields, hash by their fields (a
    type with unhashable fields sets __hash__ = None), print as
    Name(field=value, ...), and refuse assignment and deletion."""

    __slots__ = ()

    def _init(self, *values):
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return all(getattr(self, f) == getattr(other, f) for f in self._fields)
        return NotImplemented

    def __hash__(self):
        return hash(tuple(getattr(self, f) for f in self._fields))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# unused by the library; bench/tracing.py still counts its constructions
class PadicValuation(Immutable):
    """A natural number or INFINITE in its one field, validated once."""

    __slots__ = _fields = ("value",)  # nonnegative int, or math.inf

    def __init__(self, value):
        self._init(value)

    def __post_init__(self):
        if self.value != math.inf:
            _int(self.value, "valuation", 0)


INFINITE = math.inf


def one_plus_p_pow_minus_one_valuation(p, n) -> int:
    """nu_p((1+p)^n - 1) = 1 + nu_p(n) for n != 0, by the closed form.

    Symmetric under n <-> -n.  This identity is what makes every
    characteristic-polynomial evaluation in the package a one-liner.
    """
    p = OddPrime(p)
    return _special_exponent(p, _int(n, "exponent"))


def _special_exponent(p: int, n: int) -> int:
    """1 + nu_p(n), which is nu_p((1+p)^n - 1), for a checked prime p and a
    nonzero int n; ZeroInput for n = 0, which has no finite valuation.  The
    kernel of one_plus_p_pow_minus_one_valuation, for callers that sum many
    of these exponents and have checked p and n already."""
    if n == 0:
        raise ZeroInput("(1+p)^0 - 1 = 0 has no finite valuation")
    n, v = abs(n), 1
    while n % p == 0:
        n //= p
        v += 1
    return v
