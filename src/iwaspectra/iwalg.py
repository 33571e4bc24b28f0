"""Characteristic polynomials of Iwasawa modules, kept in linear-factor form.

Every module this package meets has characteristic polynomial a product of
monic linear factors

    f(T) = prod_i (T - (1+p)^i + 1) ** multiplicity_i

so a CharPoly stores the exponent data (i, multiplicity) instead of
coefficients.  The constant polynomial 1 is the empty product.  The Iwasawa
invariants are read straight off a CharPoly: lambda is its degree, and mu is
the class constant 0.

Valuations of special values f((1+p)^s - 1) are computed factor-wise through
the identity nu_p((1+p)^n - 1) = 1 + nu_p(n), so no big numbers are ever
formed on that path.
"""

from .padic import (
    DEFAULT_PRECISION,
    INFINITE,
    Immutable,
    OddPrime,
    _int,
    _special_exponent,
)


def _pair(value, what: str) -> tuple:
    """value, when it is a tuple of two; else TypeError, worded like padic._int's."""
    if not isinstance(value, tuple) or len(value) != 2:
        raise TypeError(f"{what} must be a pair, got {value!r}")
    return value


class CharPoly(Immutable):
    """Monic polynomial prod (T - (1+p)^i + 1)^mult, stored by its factors.

    factors is kept sorted by i with multiplicities >= 1 and no repeats;
    construction normalizes whatever it is handed.
    """

    __slots__ = _fields = ("p", "factors")

    # every factor is monic and linear, so no power of p divides the
    # polynomial: the mu invariant is 0
    mu = 0

    def __init__(self, p: int, factors: tuple[tuple[int, int], ...] = ()):
        self._init(p, factors)

    def __post_init__(self):
        object.__setattr__(self, "p", OddPrime(self.p))
        merged: dict[int, int] = {}
        for factor in self.factors:
            i, mult = _pair(factor, "factor")
            i = _int(i, "factor index")
            merged[i] = merged.get(i, 0) + _int(mult, "factor multiplicity", 1)
        object.__setattr__(self, "factors", tuple(sorted(merged.items())))

    @property
    def degree(self) -> int:
        """The lambda invariant."""
        return sum(mult for _, mult in self.factors)


def evaluate_valuation(f: CharPoly, s: int) -> int | float:
    """nu_p(f((1+p)^s - 1)), factor-wise: the factor at i vanishes when
    s = i (INFINITE), otherwise contributes (1 + nu_p(s - i)) * multiplicity,
    which is the multiplicity unless p divides s - i, summed as ints."""
    _int(s, "evaluation point index")
    p, total = f.p, 0
    for i, mult in f.factors:
        if s == i:
            return INFINITE
        total += mult if (s - i) % p else _special_exponent(p, s - i) * mult
    return total


def coefficients_mod(f: CharPoly, precision: int = DEFAULT_PRECISION) -> list[int]:
    """Expanded coefficients as residues mod p**precision, constant first:
    the exact rational coefficients reduced, which is well defined because
    every coefficient is p-integral.  Expanded in ints mod p**precision, one
    linear factor at a time; the root (1+p)^i - 1 is a residue for negative
    i too, since 1+p is a unit."""
    mod = f.p ** _int(precision, "precision", 1)
    coeffs = [1]
    for i, mult in f.factors:
        root = pow(1 + f.p, i, mod) - 1
        for _ in range(mult):
            # times (T - root): the new k-th coefficient is c[k-1] - root * c[k]
            coeffs = [(hi - root * lo) % mod for hi, lo in zip([0] + coeffs, coeffs + [0])]
    return coeffs


def format_charpoly(f: CharPoly) -> str:
    """f as a product of factors T - root.  With n = (1+p)^|i|, the root is
    n - 1 for i > 0 and -(n - 1)/n, in lowest terms, for i < 0."""
    if not f.factors:
        return "1"
    parts = []
    for i, mult in f.factors:
        n = (1 + f.p) ** abs(i)
        if i == 0:
            base = "T"
        elif i > 0:
            base = f"T - {n - 1}"
        else:
            base = f"T + {n - 1}/{n}"
        if mult == 1:
            parts.append(base if (len(f.factors) == 1 or base == "T") else f"({base})")
        else:
            parts.append(f"({base})^{mult}")
    return " * ".join(parts)
