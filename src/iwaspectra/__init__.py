"""Iwasawa invariants and K(1)-local homotopy orders of finite spectra at odd primes."""

from .padic import (
    DEFAULT_PRECISION, INFINITE, NegativeValuation, NotAnOddPrime, OddPrime, PadicValuation,
    ZeroInput, is_odd_prime, one_plus_p_pow_minus_one_valuation, valuation,
)
from .iwalg import (
    CharPoly, coefficients, coefficients_mod, eval_point, evaluate_valuation, format_charpoly,
)
from .spectra import (
    FiniteSpectrumData, PrimeMismatch, degree_window, dual, eigenspace_charpoly,
    eigenspace_keys, euler_characteristic, strip_torsion, suspend, total_lambda, wedge,
)
from .k1 import TorsionPresent, k1_order_of_dual_replacement, sphere_order, wedge_order
from .asymptotics import (
    GradedAverage, InfiniteOrderInWindow, LambdaZero, default_skip, graded_average,
    growth_ratio, ladder,
)
from .imc import ImcRecord, ImcReport, in_strict_window, verify_weak_imc

__version__ = "0.1.0"
