"""Orders of homotopy groups of K(1)-localized spectra at an odd prime.

For the K(1)-local sphere, pi_t is: Zp-hat in degrees t = -1 and t = 0;
cyclic of order p**(nu_p(m) + 1) when t is odd and m = (t+1)/(2(p-1)) is a
nonzero integer (negative m included); trivial otherwise.  Every order here
is returned as its exponent, a PadicValuation, with INFINITE encoding a
Zp-hat summand.

For a torsion-free wedge of cells the localized homotopy in each degree is
the direct sum over cells, so orders multiply: exponents add, scaled by the
rank of each cell.  One infinite summand makes the whole degree infinite.
"""

from __future__ import annotations

from .padic import INFINITE, ZERO, OddPrime, PadicValuation, one_plus_p_pow_minus_one_valuation
from .spectra import FiniteSpectrumData, dual, strip_torsion


class TorsionPresent(ValueError):
    """wedge_order needs torsion-free data; strip or replace first."""


def sphere_order(p, t: int) -> PadicValuation:
    """Exponent of |pi_t| of the K(1)-local sphere at p, per the table above."""
    p = OddPrime(p)
    if not isinstance(t, int) or isinstance(t, bool):
        raise TypeError(f"degree must be an int, got {type(t).__name__}")
    if t in (-1, 0):
        return INFINITE
    if t % 2 != 0:
        m, rem = divmod(t + 1, 2 * (p - 1))
        if rem == 0 and m != 0:
            # exponent 1 + nu_p(m), which is nu_p((1+p)^m - 1)
            return one_plus_p_pow_minus_one_valuation(p, m)
    return ZERO


def wedge_order(X: FiniteSpectrumData, t: int) -> PadicValuation:
    """Exponent of |pi_t| of the K(1)-localization of torsion-free X: the sum
    over cells d of rank * sphere_order(p, t - d)."""
    if X.torsion:
        raise TorsionPresent(
            f"torsion markers present at degrees {sorted(X.torsion)}; "
            "apply the torsion-free replacement first")
    total = ZERO
    for d, r in X.betti.items():
        e = sphere_order(X.p, t - d)
        if e is not ZERO:  # most degrees are trivial, and ZERO adds nothing
            total = total + e * r
    return total


def k1_order_of_dual_replacement(X: FiniteSpectrumData, degrees) -> list[PadicValuation]:
    """Exponents of |pi_t| of the K(1)-local dual of the torsion-free
    replacement of X, one per t in degrees.  The dual replacement is built
    once for all of them.  This is the homotopy side of every main-conjecture
    comparison."""
    D = dual(strip_torsion(X))
    return [wedge_order(D, t) for t in degrees]
