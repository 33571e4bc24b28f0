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
divides t - d + 1.  Those cells d = t + 1 mod 2(p-1) are the factors
(i, rank) of one eigenspace (see spectra): d = 2i + t % 2 - 1, in the
eigenspace f at (t % 2 - 1, s mod p-1) with s = (t + 2) // 2.  So, but
for a cell at t,

    wedge_order(X, t) = nu_p(f((1+p)^s - 1)) = iwalg.evaluate_valuation(f, s).

Proof: each factor (i, r) has s - i = (p-1)k, and p does not divide p-1,
so nu_p(s - i) = nu_p(k) and the factor adds r * (1 + nu_p(k)), the
cell's summand; s = i exactly when the cell sits at t + 1, where both
sides are INFINITE.  A degree reads one entry of the eigenspace map:
O(cells / (p-1) + 1) when the cells spread over the eigenspaces.
"""

from .iwalg import evaluate_valuation
from .padic import INFINITE, OddPrime, _instance, _int, one_plus_p_pow_minus_one_valuation
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
    return 0 if rem else one_plus_p_pow_minus_one_valuation(p, m)


def wedge_order(X: FiniteSpectrumData, t: int) -> int | float:
    """Exponent of |pi_t| of the K(1)-localization of torsion-free X: the sum
    over cells d of rank * sphere_order(p, t - d).  INFINITE when a cell sits
    at t; otherwise the valuation at s = (t + 2) // 2 of the eigenspace
    (t % 2 - 1, s mod p-1), 0 when that eigenspace is zero (see above)."""
    _refuse_torsion(X)
    if _int(t, "degree") in X.betti:
        return INFINITE
    s = (t + 2) // 2
    f = X.eigenspaces.get((t % 2 - 1, s % (X.p - 1)))
    return 0 if f is None else evaluate_valuation(f, s)


def k1_order_of_dual_replacement(X: FiniteSpectrumData, degrees) -> list[int | float]:
    """Exponents of |pi_t| of the K(1)-local dual of the torsion-free
    replacement of X, one per t in degrees.  The dual replacement is built
    once for all of them.  This is the homotopy side of every main-conjecture
    comparison."""
    D = dual(strip_torsion(X))
    return [wedge_order(D, t) for t in degrees]
