"""Weak main-conjecture comparisons: homotopy orders against char values.

For a finite spectrum X with rational cells in degrees [alpha, beta], the
statement checked degree by degree is

    |pi_{2m-1} of the K(1)-local dual of X's torsion-free replacement|
        ~p  f((1+p)^{-m} - 1)   for f the (0, -m mod p-1) eigenspace charpoly
    |pi_{2m}  ...|
        ~p  f((1+p)^{-m} - 1)   for f the (-1, -m mod p-1) eigenspace charpoly

where ~p compares valuations under the extended convention (INFINITE matches
INFINITE).  The guarantee holds on the window 2m < -beta or 2m > -alpha, both
strict, but for m = (1-alpha)/2 when alpha is odd.  Records outside the window
are still emitted, flagged in_window=false.  A rationally trivial X has an
empty window constraint: every m counts as in-window and both sides are
trivial.

Exactly these records mismatch, torsion markers or not: side 2m-1 when X has
a cell at 1-2m and none at -2m, side 2m when X has a cell at -2m and none at
-2m-1.  Why: the dual replacement D has a cell at -d for each cell d of X,
so it sends factor i of X's (0, j) eigenspace to factor -i of D's (0, -j),
and factor i of X's (-1, j) to factor 1-i of D's (-1, 1-j).  By the identity
of k1, side t reads D's (0, m) eigenspace at s = m for t = 2m-1, and D's
(-1, m+1) at s = m+1 for t = 2m; for X's factor i, the D factor's s - i is
then m+i, the negative of X's -m-i, with the same valuation.  So each left
side is X's right side at s = -m, except where X has a cell at -t: there
the left side is INFINITE, and the right side is too only when X has an
even cell at -2m (side 2m-1) or an odd cell at -2m-1 (side 2m).  Such a
cell lies in [alpha, beta] with 2m = 1-d or 2m = -d, so no mismatch falls
in the window, and the odd cell at alpha is why the half-step at
m = (1-alpha)/2 is left out of it.

The sphere case is the one-cell spectrum X = S^{2i}: its window excludes
only m = -i, where the odd side still compares INFINITE with INFINITE, so
every odd-side record of a sphere matches.

The left side builds the dual replacement D once and reads k1.wedge_order
per degree; the right side evaluates X's polynomials at s = -m.  Both sum
1 + nu_p per factor in iwalg.evaluate_valuation.
"""

from collections import namedtuple
from itertools import compress, starmap

from .iwalg import evaluate_valuation
from .k1 import k1_order_of_dual_replacement
from .padic import _int
from .spectra import FiniteSpectrumData, degree_window, eigenspace_charpoly

# side is the homotopy degree compared, 2m-1 or 2m; the valuations are
# ints, or INFINITE (math.inf)
ImcRecord = namedtuple("ImcRecord", ["m", "side", "lhs_valuation", "rhs_valuation",
                                     "in_window", "match"])


class ImcReport(namedtuple("ImcReport", ["p", "window", "columns"])):
    """window is (alpha, beta) of X, None if rationally trivial; columns is
    an ImcRecord of equal-length sequences, the records field by field."""

    __slots__ = ()

    @property
    def records(self) -> tuple[ImcRecord, ...]:
        return tuple(map(ImcRecord, *self.columns))

    @property
    def in_window_mismatches(self) -> tuple[ImcRecord, ...]:
        c = self.columns
        flags = [inside and not match for inside, match in zip(c.in_window, c.match)]
        return tuple(starmap(ImcRecord, compress(zip(*c), flags)))

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
    """Run the comparison for every m in m_range, both sides per m: a record
    matches when the two valuations are equal, INFINITE matching INFINITE.
    The degree window of X is computed once per report, and the two
    eigenspace polynomials of each residue of -m mod p-1 are read once; the
    records are built column by column."""
    ms = [_int(m, "m") for m in m_range]
    sides = [t for m in ms for t in (2 * m - 1, 2 * m)]
    lhs = k1_order_of_dual_replacement(X, sides)
    q = X.p - 1
    polys = {j: (eigenspace_charpoly(X, (0, j)), eigenspace_charpoly(X, (-1, j)))
             for j in {-m % q for m in ms}}
    rhs = [evaluate_valuation(f, -m) for m in ms for f in polys[-m % q]]
    window = degree_window(X)
    record_ms = [m for m in ms for _ in (0, 1)]
    inside = [_inside(window, m) for m in record_ms]
    match = [u == v for u, v in zip(lhs, rhs)]
    return ImcReport(X.p, window, ImcRecord(record_ms, sides, lhs, rhs, inside, match))
