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
of them.  Everything here is exact rational arithmetic in a single streaming
pass, except the final growth ratio, which divides by a float logarithm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .k1 import TorsionPresent, sphere_order
from .padic import OddPrime
from .spectra import FiniteSpectrumData, degree_window, total_lambda, wedge


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


@dataclass(frozen=True)
class GradedAverage:
    skip: int    # m: the window is m+1 .. m+n
    length: int  # n
    value: Fraction


def _degree_order_sum(X: FiniteSpectrumData, j: int) -> int:
    total = 0
    for d, r in X.betti.items():
        e = sphere_order(X.p, j - d)
        if not e.is_finite:
            raise InfiniteOrderInWindow(j, d)
        total += r * X.p ** e.value
    return total


def graded_average(X: FiniteSpectrumData, skip: int, length: int) -> GradedAverage:
    """Exact alternating average over the window skip+1 .. skip+length.
    Streams over the window; memory use does not depend on length."""
    if X.torsion:
        raise TorsionPresent(
            f"torsion markers present at degrees {sorted(X.torsion)}; "
            "apply the torsion-free replacement first")
    if not isinstance(length, int) or length < 1:
        raise ValueError(f"window length must be an int >= 1, got {length!r}")
    if not isinstance(skip, int) or isinstance(skip, bool):
        raise ValueError(f"skip must be an int, got {skip!r}")
    total = 0
    for j in range(skip + 1, skip + length + 1):
        term = _degree_order_sum(X, j)
        total += term if j % 2 == 0 else -term
    return GradedAverage(skip, length, Fraction(total, length))


def sn_closed_form(p, n: int) -> Fraction:
    """The sphere's average over the window 1 .. 2(p-1)p^n: exactly (-1-n)/2,
    for every odd prime p."""
    OddPrime(p)
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"rung must be an int >= 0, got {n!r}")
    return Fraction(-1 - n, 2)


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
    if not isinstance(rungs, int) or rungs < 0:
        raise ValueError(f"rungs must be an int >= 0, got {rungs!r}")
    return [2 * (p - 1) * p ** k for k in range(rungs + 1)]


def growth_ratio(X: FiniteSpectrumData, skip: int, length: int) -> float:
    """Observed average divided by the predicted -total_lambda/2 * log_p(length).
    The one place floats enter; everything upstream is exact."""
    lam = total_lambda(X)
    if lam == 0:
        raise LambdaZero("total lambda is 0; the growth ratio is undefined")
    if length < 2:
        raise ValueError("growth ratio needs a window of length >= 2")
    avg = graded_average(X, skip, length)
    predicted = -lam * math.log(length, X.p) / 2
    return float(avg.value) / predicted


@dataclass(frozen=True)
class AdditivityReport:
    whole: GradedAverage       # average of X v Z
    left: GradedAverage        # average of X
    right: GradedAverage       # average of Z
    difference: Fraction       # whole - left - right, exact

    @property
    def is_exact(self) -> bool:
        return self.difference == 0


def additivity_check(X: FiniteSpectrumData, Z: FiniteSpectrumData,
                     skip: int, length: int) -> AdditivityReport:
    """Compare the average of X v Z against the sum of the averages, over one
    shared window.  Exact rational arithmetic end to end; the difference is 0."""
    whole = graded_average(wedge(X, Z), skip, length)
    left = graded_average(X, skip, length)
    right = graded_average(Z, skip, length)
    return AdditivityReport(whole, left, right, whole.value - left.value - right.value)
