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
-2m-1.  Why: the dual replacement has a cell at -d for each cell d of X, and
pi_t of L_K(1) S^{-d} is pi_{t+d} of the sphere, Z/p^(1+nu_p(k)) in degree
2(p-1)k - 1 for k != 0, Zp-hat in degrees 0 and -1, zero elsewhere.  On side
t = 2m-1, t + d = 2(p-1)k - 1 asks for an even cell d = 2i with
m + i = (p-1)k, so i = -m mod p-1: the cells of the (0, -m) eigenspace.
Each, of rank r, adds r * (1 + nu_p(m+i)) to the left valuation (the orders
of wedge summands multiply), and its factor (i, r) adds the same on the
right.  Its k = 0 case, an even cell at -2m, is INFINITE on both sides, as
the factor i = -m vanishes at s = -m.  What is left is the Zp-hat in degree
t + d = 0, from an odd cell at 1-2m, which no factor of that eigenspace
sees: the left side is INFINITE, and the sides part unless an even cell at
-2m makes the right side INFINITE too.  Side 2m is the same with the odd
cells d = 2i-1, the (-1, -m) eigenspace, an odd cell at -2m-1 as the k = 0
case and an even cell at -2m as the unmatched Zp-hat.  Such a cell lies in
[alpha, beta] with 2m = 1-d or 2m = -d, so no mismatch falls in the window,
and the odd cell at alpha is why the half-step at m = (1-alpha)/2 is left
out of it.

The sphere case is the one-cell spectrum X = S^{2i}: its window excludes
only m = -i, where the odd side still compares INFINITE with INFINITE, so
every odd-side record of a sphere matches.

The left side builds the dual replacement D once; k1.wedge_order reads,
per degree, the one eigenspace of D on its support and adds
rank * (1 + nu_p(k)) per factor.  The right side evaluates X's polynomials
at s = -m factor-wise.  Both take 1 + nu_p(n) from padic._special_exponent.
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
