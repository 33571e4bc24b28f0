"""Characteristic polynomials of Iwasawa modules, kept in linear-factor form.

Every module this package meets has characteristic polynomial a product of
monic linear factors

    f(T) = prod_i (T - (1+p)^i + 1) ** multiplicity_i

so a CharPoly stores the exponent data (i, multiplicity) instead of
coefficients.  The constant polynomial 1 is the empty product.  Degree is the
lambda invariant; mu is identically zero in this regime.

Valuations of special values f((1+p)^s - 1) are computed factor-wise through
the identity nu_p((1+p)^n - 1) = 1 + nu_p(n), so no big numbers are ever
formed on that path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .padic import (
    DEFAULT_PRECISION,
    INFINITE,
    ZERO,
    OddPrime,
    PadicValuation,
    one_plus_p_pow_minus_one_valuation,
)


class PrimeMismatch(ValueError):
    """Polynomials over different primes cannot be combined."""


@dataclass(frozen=True)
class CharPoly:
    """Monic polynomial prod (T - (1+p)^i + 1)^mult, stored by its factors.

    factors is kept sorted by i with multiplicities >= 1 and no repeats;
    construction normalizes whatever it is handed.
    """

    p: int
    factors: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "p", OddPrime(self.p))
        merged: dict[int, int] = {}
        for i, mult in self.factors:
            if not isinstance(i, int) or not isinstance(mult, int) or mult < 1:
                raise ValueError(f"bad factor {(i, mult)!r}: need integer i and multiplicity >= 1")
            merged[i] = merged.get(i, 0) + mult
        object.__setattr__(self, "factors", tuple(sorted(merged.items())))

    @classmethod
    def one(cls, p) -> "CharPoly":
        return cls(p, ())

    @classmethod
    def linear(cls, p, i: int) -> "CharPoly":
        return cls(p, ((i, 1),))

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self.factors)

    def __mul__(self, other):
        if not isinstance(other, CharPoly):
            return NotImplemented
        return multiply(self, other)

    def __str__(self):
        return format_charpoly(self)


@dataclass(frozen=True)
class IwasawaInvariants:
    lambda_: int
    mu: int
    charpoly: "CharPoly"


def sphere_charpoly(p, i: int, j: int) -> CharPoly:
    """Characteristic polynomial of the weight-j eigenspace seen by an
    even cell in degree 2i: linear when i = j mod p-1, else 1."""
    p = OddPrime(p)
    if (i - j) % (p - 1) == 0:
        return CharPoly.linear(p, i)
    return CharPoly.one(p)


def multiply(f: CharPoly, g: CharPoly) -> CharPoly:
    if f.p != g.p:
        raise PrimeMismatch(f"cannot multiply polynomials at p={f.p} and p={g.p}")
    return CharPoly(f.p, f.factors + g.factors)


def invariants_of(f: CharPoly) -> IwasawaInvariants:
    return IwasawaInvariants(lambda_=f.degree, mu=0, charpoly=f)


def eval_point(p, s: int) -> Fraction:
    """(1+p)^s - 1 as an exact rational; a p-adic integer for every s."""
    return Fraction(1 + OddPrime(p)) ** s - 1


def evaluate_valuation(f: CharPoly, s: int) -> PadicValuation:
    """nu_p(f((1+p)^s - 1)), factor-wise: the factor at i vanishes when
    s = i (INFINITE), otherwise contributes (1 + nu_p(s - i)) * multiplicity."""
    if not isinstance(s, int) or isinstance(s, bool):
        raise TypeError(f"evaluation point index must be an int, got {type(s).__name__}")
    total = ZERO
    for i, mult in f.factors:
        if s == i:
            return INFINITE
        total = total + one_plus_p_pow_minus_one_valuation(f.p, s - i) * mult
    return total


def coefficients(f: CharPoly) -> tuple[Fraction, ...]:
    """Expanded coefficients, constant term first, leading coefficient 1.
    Exact rationals; they are p-integral but need not be integers when some
    factor has i < 0."""
    coeffs = [Fraction(1)]
    for i, mult in f.factors:
        root = eval_point(f.p, i)
        for _ in range(mult):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] += c
                nxt[k] -= c * root
            coeffs = nxt
    return tuple(coeffs)


def coefficients_mod(f: CharPoly, precision: int = DEFAULT_PRECISION) -> list[int]:
    """Expanded coefficients as residues mod p**precision, constant first.
    Well defined because every coefficient is p-integral."""
    mod = f.p ** precision
    return [c.numerator * pow(c.denominator, -1, mod) % mod for c in coefficients(f)]


def format_charpoly(f: CharPoly) -> str:
    if not f.factors:
        return "1"
    parts = []
    for i, mult in f.factors:
        c = eval_point(f.p, i)
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
