"""Weak main-conjecture comparisons: homotopy orders against char values.

For a finite spectrum X with rational cells in degrees [alpha, beta], the
statement checked degree by degree is

    |pi_{2m-1} of the K(1)-local dual of X's torsion-free replacement|
        ~p  f((1+p)^{-m} - 1)   for f the (0, -m mod p-1) eigenspace charpoly
    |pi_{2m}  ...|
        ~p  f((1+p)^{-m} - 1)   for f the (-1, -m mod p-1) eigenspace charpoly

where ~p compares valuations under the extended convention (INFINITE matches
INFINITE).  The guarantee holds on the window 2m < -beta or 2m > -alpha, both
strict, with one extra half-step on the upper branch when alpha is odd: an
odd cell at alpha dualizes to a Zp-hat in homotopy degree -alpha = 2m-1 at
m = (1-alpha)/2, where the even-cell polynomial compared on that side is
blind to it, so that single m is excluded (2m > 1-alpha).  Records outside
the window are still emitted, flagged in_window=false, and are allowed to
mismatch.  A rationally trivial X has an empty window constraint: every m
counts as in-window and both sides are trivial.

Both sides are computed by unrelated routes (sphere homotopy table and AHSS
product on the left, factor-wise polynomial valuation on the right), which is
the point of the check.
"""

from __future__ import annotations

from dataclasses import dataclass

from .iwalg import evaluate_valuation, sphere_charpoly
from .k1 import k1_order_of_dual_replacement, sphere_order
from .padic import OddPrime, PadicValuation
from .spectra import FiniteSpectrumData, degree_window, eigenspace_charpoly


@dataclass(frozen=True)
class ImcRecord:
    m: int
    side: int              # the homotopy degree compared: 2m-1 or 2m
    lhs_valuation: PadicValuation
    rhs_valuation: PadicValuation
    in_window: bool
    match: bool


@dataclass(frozen=True)
class ImcReport:
    p: int
    window: tuple[int, int] | None   # (alpha, beta) of X, None if rationally trivial
    records: tuple[ImcRecord, ...]

    @property
    def in_window_mismatches(self) -> tuple[ImcRecord, ...]:
        return tuple(r for r in self.records if r.in_window and not r.match)

    @property
    def ok(self) -> bool:
        return not self.in_window_mismatches


def in_strict_window(X: FiniteSpectrumData, m: int) -> bool:
    window = degree_window(X)
    if window is None:
        return True
    alpha, beta = window
    # kept in integers; the upper branch steps past 2m = 1 - alpha for odd
    # alpha, the one degree where the guarantee provably fails (see above)
    upper = 1 - alpha if alpha % 2 else -alpha
    return 2 * m < -beta or 2 * m > upper


def verify_weak_imc(X: FiniteSpectrumData, m_range) -> ImcReport:
    """Run the comparison for every m in m_range, both sides per m."""
    records = []
    for m in m_range:
        inside = in_strict_window(X, m)
        for side, cohomological_degree in ((2 * m - 1, 0), (2 * m, -1)):
            lhs = k1_order_of_dual_replacement(X, side)
            f = eigenspace_charpoly(X, (cohomological_degree, -m))
            rhs = evaluate_valuation(f, -m)
            records.append(ImcRecord(m, side, lhs, rhs, inside, lhs == rhs))
    return ImcReport(X.p, degree_window(X), tuple(records))


@dataclass(frozen=True)
class SphereSimcRecord:
    i: int
    j: int
    n: int
    lhs_valuation: PadicValuation
    rhs_valuation: PadicValuation
    match: bool


@dataclass(frozen=True)
class SphereSimcReport:
    p: int
    records: tuple[SphereSimcRecord, ...]

    @property
    def mismatches(self) -> tuple[SphereSimcRecord, ...]:
        return tuple(r for r in self.records if not r.match)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def verify_sphere_simc(p, i_range, n_range) -> SphereSimcReport:
    """Sphere case with no window at all: for every even cell degree 2i and
    every n (which forces the weight j = 1-n mod p-1), compare

        f_{i,j}((1+p)^{1-n} - 1)  ~p  |pi_{2(n+i-1)-1} of the K(1)-local sphere|

    including the INFINITE = INFINITE case at n = 1-i."""
    p = OddPrime(p)
    records = []
    for i in i_range:
        for n in n_range:
            j = (1 - n) % (p - 1)
            lhs = evaluate_valuation(sphere_charpoly(p, i, j), 1 - n)
            rhs = sphere_order(p, 2 * (n + i - 1) - 1)
            records.append(SphereSimcRecord(i, j, n, lhs, rhs, lhs == rhs))
    return SphereSimcReport(p, tuple(records))
