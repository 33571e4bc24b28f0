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
mismatch.  Which records mismatch follows from the cells alone, torsion
markers or not: side 2m-1 exactly when X has a cell at 1-2m and none at
-2m, side 2m exactly when X has a cell at -2m and none at -2m-1.  A
rationally trivial X has an empty window constraint: every m counts as
in-window and both sides are trivial.

The sphere case is the one-cell spectrum X = S^{2i}: its window excludes
only m = -i, where the odd side still compares INFINITE with INFINITE, so
every odd-side record of a sphere matches.

Both sides are computed by unrelated routes (sphere homotopy table and AHSS
product on the left, factor-wise polynomial valuation on the right), which is
the point of the check.
"""

from __future__ import annotations

from collections import namedtuple

from .iwalg import evaluate_valuation
from .k1 import k1_order_of_dual_replacement
from .spectra import FiniteSpectrumData, degree_window, eigenspace_charpoly

# side is the homotopy degree compared, 2m-1 or 2m; the valuations are
# PadicValuations
ImcRecord = namedtuple("ImcRecord", ["m", "side", "lhs_valuation", "rhs_valuation",
                                     "in_window", "match"])


class ImcReport(namedtuple("ImcReport", ["p", "window", "records"])):
    """window is (alpha, beta) of X, None if rationally trivial; records is
    a tuple of ImcRecords."""

    __slots__ = ()

    @property
    def in_window_mismatches(self) -> tuple[ImcRecord, ...]:
        return tuple(r for r in self.records if r.in_window and not r.match)

    @property
    def ok(self) -> bool:
        return not self.in_window_mismatches


def _inside(window, m: int) -> bool:
    """Whether m lies in the strict window of a spectrum whose degree window
    is window, (alpha, beta) or None."""
    if window is None:
        return True
    alpha, beta = window
    # kept in integers; the upper branch steps past 2m = 1 - alpha for odd
    # alpha, the one degree where the guarantee provably fails (see above)
    upper = 1 - alpha if alpha % 2 else -alpha
    return 2 * m < -beta or 2 * m > upper


def verify_weak_imc(X: FiniteSpectrumData, m_range) -> ImcReport:
    """Run the comparison for every m in m_range, both sides per m.  The
    degree window of X is computed once per report."""
    ms = list(m_range)
    sides = [t for m in ms for t in (2 * m - 1, 2 * m)]
    lhs_values = iter(k1_order_of_dual_replacement(X, sides))
    window = degree_window(X)
    records = []
    for m in ms:
        inside = _inside(window, m)
        for side, degree in ((2 * m - 1, 0), (2 * m, -1)):
            lhs = next(lhs_values)
            rhs = evaluate_valuation(eigenspace_charpoly(X, (degree, -m)), -m)
            records.append(ImcRecord(m, side, lhs, rhs, inside, lhs == rhs))
    return ImcReport(X.p, window, tuple(records))
