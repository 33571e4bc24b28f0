"""Orders of homotopy groups of K(1)-localized spectra at an odd prime.

For the K(1)-local sphere, pi_t is: Zp-hat in degrees t = -1 and t = 0;
cyclic of order p**(nu_p(m) + 1) when t is odd and m = (t+1)/(2(p-1)) is a
nonzero integer (negative m included); trivial otherwise.  Every order here
is returned as its exponent, a plain int, with INFINITE (math.inf) encoding
a Zp-hat summand.

For a torsion-free wedge of cells the localized homotopy in each degree is
the direct sum over cells, so orders multiply: exponents add, scaled by the
rank of each cell.  One infinite summand makes the whole degree infinite.
A cell d contributes to degree t only when t - d lies on the sphere's
support: a Zp-hat when d is t or t + 1, and a cyclic group when 2(p-1)
divides t - d + 1.  Those cells are the factors (i, rank) of one
eigenspace (see spectra): d = 2i or 2i - 1 has the parity of t + 1 and
i = (t + 2) // 2 mod p-1.  So wedge_order looks up those two degrees, and
then reads only that entry of the spectrum's eigenspaces map: O(cells /
(p-1) + 1) per degree when the cells spread over the eigenspaces.
"""

from .padic import (
    INFINITE,
    ZERO,
    OddPrime,
    _instance,
    _int,
    _special_exponent,
    one_plus_p_pow_minus_one_valuation,
)
from .spectra import FiniteSpectrumData, dual, strip_torsion


class TorsionPresent(ValueError):
    """wedge_order needs torsion-free data; strip or replace first."""


def _refuse_torsion(X: FiniteSpectrumData) -> None:
    """Raise TorsionPresent when X carries torsion markers."""
    if _instance(X, FiniteSpectrumData, "X").torsion:
        raise TorsionPresent(
            f"torsion markers present at degrees {sorted(X.torsion)}; "
            "apply the torsion-free replacement first")


def sphere_order(p, t: int) -> int | float:
    """Exponent of |pi_t| of the K(1)-local sphere at p, per the table above.
    2(p-1) is even, so it divides t + 1 only for odd t; m != 0 as t != -1."""
    p = OddPrime(p)
    if _int(t, "degree") in (-1, 0):
        return INFINITE
    m, rem = divmod(t + 1, 2 * (p - 1))
    return ZERO if rem else one_plus_p_pow_minus_one_valuation(p, m)


def wedge_order(X: FiniteSpectrumData, t: int) -> int | float:
    """Exponent of |pi_t| of the K(1)-localization of torsion-free X: the sum
    over cells d of rank * sphere_order(p, t - d).  INFINITE when a cell sits
    at t or t + 1; otherwise the sum over the factors (i, r) of the eigenspace
    (t % 2 - 1, s mod p-1), s = (t + 2) // 2: cell d = 2i + t % 2 - 1 sits at
    t - d = 2(p-1)k - 1, k = (s - i)/(p-1) != 0, with exponent 1 + nu_p(k)."""
    _refuse_torsion(X)
    _int(t, "degree")
    if t in X.betti or t + 1 in X.betti:
        return INFINITE
    p, s = X.p, (t + 2) // 2
    f = X.eigenspaces.get((t % 2 - 1, s % (p - 1)))
    if f is None:
        return ZERO
    total = 0
    for i, r in f.factors:
        k = (s - i) // (p - 1)
        total += r if k % p else _special_exponent(p, k) * r
    return total


def k1_order_of_dual_replacement(X: FiniteSpectrumData, degrees) -> list[int | float]:
    """Exponents of |pi_t| of the K(1)-local dual of the torsion-free
    replacement of X, one per t in degrees.  The dual replacement is built
    once for all of them.  This is the homotopy side of every main-conjecture
    comparison."""
    D = dual(strip_torsion(X))
    return [wedge_order(D, t) for t in degrees]
