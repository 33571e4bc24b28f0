"""Alternating graded averages of homotopy orders and the lambda growth law.

The quantity averaged over a window of degrees j = m+1 .. m+n is

    (1/n) * sum_j (-1)^j * (sum over cells d of rank_d * p**exponent(j - d))

i.e. per degree the orders of the constituent wedge summands are summed, not
multiplied.  This additive bookkeeping is the invariant the growth law is
about: it makes the average exactly additive in wedges and grow like
(-total_lambda/2) * log_p(n).  The honest order of the full group in a single
degree is the product of the summand orders; that multiplicative quantity
lives in k1.wedge_order and is what the main-conjecture comparisons use.
The two agree whenever at most one summand is nontrivial in a degree.

Windows must avoid the finitely many degrees where some summand contributes
a Zp-hat (degree d or d-1 for a cell at d); the skip protocol puts m past all
of them.

The window sum is taken in closed form, not degree by degree.  Writing
p**e = 1 + (p**e - 1), a cell at d of rank r contributes r * sum_j (-1)^j,
plus a correction at its special degrees j = d + 2(p-1)k - 1 (k != 0), where
(-1)^j = -(-1)^d and the excess p**(1 + nu_p(k)) - 1 depends only on the
valuation class v = nu_p(k).  The k in range with nu_p(k) >= v are counted by
floor divisions until one k is left, whose exponent is read directly, so one
window of length n costs O(cells * log_p n) big-integer steps.  Everything
here is exact integer arithmetic, an average being its window sum over its
length, except the final growth ratio, which divides by a float logarithm.

On a ladder window, of length N = 2(p-1)p^n, the sum has a closed form of
its own.  The window holds p^n consecutive special indices k of each cell d,
so every class nu_p(k) = v < n is full, and one k is left over: k_d, the
only multiple of p^n among them.  With lambda = total_lambda(X) =
sum_d (-1)^d r_d, the average A obeys

    N * (A + lambda*(n+1)/2) = sum_d (-1)^(d+1) r_d (p^(1 + nu_p(k_d)) - p^(n+1))

exactly.  For a skip m >= beta, k_d = p^n for every cell as soon as
N >= m + 2 - alpha, and then A = -lambda*(n+1)/2: the finite form of the
growth law.  tests/oracles.py holds the identity as an independent oracle.
"""

import math
from collections import namedtuple

from .k1 import _refuse_torsion, sphere_order
from .padic import OddPrime, _int
from .spectra import FiniteSpectrumData, degree_window


class InfiniteOrderInWindow(ValueError):
    """The window touches a degree whose homotopy has a Zp-hat summand."""

    def __init__(self, degree: int, cell: int):
        self.degree = degree
        self.cell = cell
        super().__init__(
            f"window degree {degree} has an infinite summand (cell at degree {cell}); "
            "increase the skip")


class LambdaZero(ValueError):
    """total_lambda(X) = 0, so the growth ratio is undefined."""


# the exact average over the window skip+1 .. skip+length: total / length,
# total the integer sum over the window
GradedAverage = namedtuple("GradedAverage", ["skip", "length", "total"])


def _excess_sum(p: int, lo: int, hi: int) -> int:
    """Sum over k in [lo, hi] (1 <= lo) of p**e - 1, where e = 1 + nu_p(k) is
    the exponent of the sphere in degree 2(p-1)k - 1: the excess of the
    class nu_p(k) = v is p**(v+1) - 1, step * p - 1 for step = p**v.  The
    classes run up to log_p(hi - lo + 1)."""
    total, step = 0, 1
    at_least = hi - lo + 1  # the k in range with nu_p(k) >= v, step = p**v
    while at_least > 1:
        above = hi // (step * p) - (lo - 1) // (step * p)
        total += (at_least - above) * (step * p - 1)
        step, at_least = step * p, above
    if at_least == 1:
        # one multiple of p**v is left, and only it reaches the higher
        # classes: read its exponent directly rather than class by class,
        # which would take log_p(hi) steps for a window far from degree 0
        total += p ** sphere_order(p, 2 * (p - 1) * (hi // step * step) - 1) - 1
    return total


def graded_average(X: FiniteSpectrumData, skip: int, length: int) -> GradedAverage:
    """Exact alternating average over the window skip+1 .. skip+length, in
    closed form: O(cells * log_p(length)) big-integer steps."""
    _refuse_torsion(X)
    skip, length = _int(skip, "skip"), _int(length, "window length", 1)
    a, b = skip + 1, skip + length
    # the first degree a scan in window order would hit, cells in degree order
    infinite = min(((j, d) for d in X.betti for j in (d - 1, d) if a <= j <= b), default=None)
    if infinite is not None:
        raise InfiniteOrderInWindow(*infinite)
    p, block = X.p, 2 * (X.p - 1)
    alternating = (b // 2 - (a - 1) // 2) - ((b + 1) // 2 - a // 2)  # sum of (-1)^j
    total = 0
    for d, r in X.betti.items():
        # special degrees j = d + block*k - 1 in [a, b]: k in [lo, hi], k != 0;
        # negative k count as |k|, since the exponent 1 + nu_p(k) is symmetric
        lo, hi = -((d - a - 1) // block), (b - d + 1) // block
        special = _excess_sum(p, max(lo, 1), hi) + _excess_sum(p, max(-hi, 1), -lo)
        total += r * (alternating - special if d % 2 == 0 else alternating + special)
    return GradedAverage(skip, length, total)


def default_skip(X: FiniteSpectrumData) -> int:
    """Smallest safe m under the skip protocol: past every degree with an
    infinite summand (those sit in [alpha-1, beta]), never negative."""
    window = degree_window(X)
    if window is None:
        return 0
    return max(0, window[1])


def ladder(p, rungs: int) -> list[int]:
    """Window lengths 2(p-1)p^k for k = 0..rungs."""
    p = OddPrime(p)
    return [2 * (p - 1) * p ** k for k in range(_int(rungs, "rungs", 0) + 1)]


def growth_ratio(average: GradedAverage, lam: int, p) -> float:
    """Observed value of average, the GradedAverage of a window of some
    spectrum X, divided by the predicted -lam/2 * log_p(length), where lam
    is total_lambda(X).  The one place floats enter; everything upstream is
    exact.  total / length is int true division, correctly rounded, so it
    is float(Fraction(total, length)) and overflows where that does."""
    if not isinstance(average, GradedAverage):
        raise TypeError(f"average must be a GradedAverage, got {type(average).__name__}")
    p = OddPrime(p)
    if _int(lam, "lam") == 0:
        raise LambdaZero("total lambda is 0; the growth ratio is undefined")
    if average.length < 2:
        raise ValueError("growth ratio needs a window of length >= 2")
    return average.total / average.length / (-lam * math.log(average.length, p) / 2)
