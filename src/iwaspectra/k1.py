"""Orders of homotopy groups of K(1)-localized spectra at an odd prime.

For the K(1)-local sphere, pi_t is: Zp-hat in degrees t = -1 and t = 0;
cyclic of order p**(nu_p(m) + 1) when t is odd and m = (t+1)/(2(p-1)) is a
nonzero integer (negative m included); trivial otherwise.  Every order here
is returned as its exponent, a PadicValuation, with INFINITE encoding a
Zp-hat summand.

For a torsion-free wedge of cells the localized homotopy in each degree is
the direct sum over cells, so orders multiply: exponents add, scaled by the
rank of each cell.  One infinite summand makes the whole degree infinite.
A cell d contributes to degree t only when t - d lies on the sphere's
support: a Zp-hat when d is t or t + 1, and a cyclic group when 2(p-1)
divides t - d + 1.  So wedge_order looks up those two degrees, and then
only the cells at residue (t + 1) mod 2(p-1) in the spectrum's
cells_by_residue index: O(cells / (p-1) + 1) per degree when the cells
spread over the residues.  Small exponent sums come back as shared
instances.
"""

from __future__ import annotations

from .padic import (
    INFINITE,
    ZERO,
    OddPrime,
    PadicValuation,
    _special_exponent,
    _valuation,
    one_plus_p_pow_minus_one_valuation,
)
from .spectra import FiniteSpectrumData, dual, strip_torsion


class TorsionPresent(ValueError):
    """wedge_order needs torsion-free data; strip or replace first."""


def _refuse_torsion(X: FiniteSpectrumData) -> None:
    """Raise TorsionPresent when X carries torsion markers."""
    if X.torsion:
        raise TorsionPresent(
            f"torsion markers present at degrees {sorted(X.torsion)}; "
            "apply the torsion-free replacement first")


def _special_index(p: int, t: int):
    """The sphere table for a checked prime p and an int t: None in the
    Zp-hat degrees, the nonzero m = (t+1)/(2(p-1)) when pi_t is cyclic of
    exponent 1 + nu_p(m), which is nu_p((1+p)^m - 1), and 0 when pi_t is
    trivial."""
    if t in (-1, 0):
        return None
    if t % 2 != 0:
        m, rem = divmod(t + 1, 2 * (p - 1))
        if rem == 0:
            return m
    return 0


def sphere_order(p, t: int) -> PadicValuation:
    """Exponent of |pi_t| of the K(1)-local sphere at p, per the table above."""
    p = OddPrime(p)
    if not isinstance(t, int) or isinstance(t, bool):
        raise TypeError(f"degree must be an int, got {type(t).__name__}")
    m = _special_index(p, t)
    if m is None:
        return INFINITE
    return one_plus_p_pow_minus_one_valuation(p, m) if m else ZERO


def wedge_order(X: FiniteSpectrumData, t: int) -> PadicValuation:
    """Exponent of |pi_t| of the K(1)-localization of torsion-free X: the sum
    over cells d of rank * sphere_order(p, t - d).  INFINITE when a cell sits
    at t or t + 1; otherwise only the cells at residue (t + 1) mod 2(p-1)
    are read, each a special degree t - d = 2(p-1)k - 1 with k != 0, whose
    exponent 1 + nu_p(k) is 1 unless p divides k.  The exponents are summed
    as ints and wrapped once."""
    _refuse_torsion(X)
    if not isinstance(t, int) or isinstance(t, bool):
        raise TypeError(f"degree must be an int, got {type(t).__name__}")
    if t in X.betti or t + 1 in X.betti:
        return INFINITE
    p = X.p
    period = 2 * (p - 1)
    total = 0
    for d, r in X.cells_by_residue.get((t + 1) % period, ()):
        k = (t + 1 - d) // period
        total += r if k % p else _special_exponent(p, k) * r
    return _valuation(total)


def k1_order_of_dual_replacement(X: FiniteSpectrumData, degrees) -> list[PadicValuation]:
    """Exponents of |pi_t| of the K(1)-local dual of the torsion-free
    replacement of X, one per t in degrees.  The dual replacement is built
    once for all of them.  This is the homotopy side of every main-conjecture
    comparison."""
    D = dual(strip_torsion(X))
    return [wedge_order(D, t) for t in degrees]
