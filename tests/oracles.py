"""Independent oracles for the test suite.

Everything here recomputes its answer from first principles (repeated exact
division, extended Euclid, exhaustive search, literal window sums) so the
library's closed forms have something honest to disagree with.  Only the
plain data container is imported from the package; no computation paths,
apart from sphere_order in wedge_order_scan: that oracle checks which cells
wedge_order skips, and sphere_order is held to sphere_exponent_bruteforce on
its own.
"""

from __future__ import annotations

import math
from fractions import Fraction

from iwaspectra import FiniteSpectrumData
from iwaspectra.k1 import sphere_order
from iwaspectra.padic import ZERO


def int_valuation(p: int, n: int) -> int:
    """nu_p of a nonzero integer by repeated exact division."""
    assert n != 0
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def rational_valuation(p: int, x) -> int:
    x = Fraction(x)
    assert x != 0
    return int_valuation(p, x.numerator) - int_valuation(p, x.denominator)


def extended_euclid(a: int, b: int):
    """(g, s, t) with a*s + b*t = g = gcd(a, b)."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def euclid_inverse(a: int, m: int) -> int:
    g, s, _ = extended_euclid(a % m, m)
    assert g == 1, f"{a} is not invertible mod {m}"
    return s % m


def sphere_exponent_bruteforce(p: int, t: int):
    """Exponent of |pi_t| of the K(1)-local sphere by exhaustive search for a
    representation t = 2(p-1) p^k r - 1 with k >= 0 and r a nonzero integer
    prime to p.  math.inf for the Zp-hat degrees t = -1, 0."""
    if t in (-1, 0):
        return math.inf
    if t % 2 == 0:
        return 0
    target = t + 1  # = 2(p-1) p^k r if a representation exists
    base = 2 * (p - 1)
    k = 0
    while base * p ** k <= abs(target):
        block = base * p ** k
        if target % block == 0 and (target // block) % p != 0:
            return k + 1
        k += 1
    return 0


def wedge_order_scan(X, t: int):
    """Exponent of |pi_t| of the K(1)-localization of torsion-free X, with
    sphere_order looked up for every cell and the PadicValuation sum taken
    cell by cell."""
    total = ZERO
    for d, r in X.betti.items():
        e = sphere_order(X.p, t - d)
        if e is not ZERO:
            total = total + e * r
    return total


def evaluate_exact(f, x) -> Fraction:
    """f(x) for a CharPoly f, in exact rational arithmetic at any int or
    Fraction x: the product of (x - (1+p)^i + 1)^mult over its factors, with
    no valuation shortcuts."""
    acc = Fraction(1)
    for i, mult in f.factors:
        acc *= (Fraction(x) - (Fraction(1 + f.p) ** i - 1)) ** mult
    return acc


def eigenspace_charpoly_scan(X, key) -> tuple[tuple[int, int], ...]:
    """Factors (i, multiplicity) of the (degree, j) eigenspace polynomial of X,
    sorted by i, by a scan of every cell for this one key: degree 0 takes
    the even cells, degree -1 the odd ones, and a cell at 2i or 2i-1 lands
    in weight i mod p-1 with multiplicity its rank."""
    degree, j = key
    parity = 0 if degree == 0 else 1
    # (d + 1) // 2 is i both for d = 2i and for d = 2i - 1
    return tuple(sorted(((d + 1) // 2, r) for d, r in X.betti.items()
                        if d % 2 == parity and ((d + 1) // 2 - j) % (X.p - 1) == 0))


def sn_closed_form(p: int, n: int) -> Fraction:
    """The sphere's average over the window 1 .. 2(p-1)p^n: exactly (-1-n)/2,
    for every odd prime p."""
    assert n >= 0, f"rung must be >= 0, got {n}"
    return Fraction(-1 - n, 2)


def ladder_identity_average(p: int, betti: dict, skip: int, n: int) -> Fraction:
    """The average A over the ladder window skip+1 .. skip+N, N = 2(p-1)p^n,
    from the exact identity

        N * (A + lambda*(n+1)/2) = sum_d (-1)^(d+1) r_d (p^(1 + nu_p(k_d)) - p^(n+1))

    with lambda = sum_d (-1)^d r_d.  The window holds p^n consecutive
    special indices k of each cell d (degrees j = d + 2(p-1)k - 1), and k_d
    is the one multiple of p^n among them.  The window must avoid every
    Zp-hat degree d - 1, d."""
    block = 2 * (p - 1)
    N = block * p ** n
    lam = sum(r if d % 2 == 0 else -r for d, r in betti.items())
    total = 0
    for d, r in betti.items():
        assert not skip + 1 <= d <= skip + N + 1, f"window touches the Zp-hat of cell {d}"
        first = -((d - skip - 2) // block)  # least k with j >= skip + 1
        k_d = first + (-first) % p ** n
        sign = 1 if d % 2 else -1
        total += sign * r * (p ** (1 + int_valuation(p, k_d)) - p ** (n + 1))
    return Fraction(total, N) - Fraction(lam * (n + 1), 2)


def horner_eval(coeffs_constant_first, x) -> Fraction:
    """Polynomial evaluation from expanded coefficients; independent of the
    package's factor-wise routes."""
    acc = Fraction(0)
    for c in reversed(coeffs_constant_first):
        acc = acc * Fraction(x) + c
    return acc


def window_average_bruteforce(p: int, betti: dict, skip: int, length: int) -> Fraction:
    """Literal alternating window average, summing the order of each wedge
    summand per degree, with exponents from the brute-force sphere search."""
    total = 0
    for j in range(skip + 1, skip + length + 1):
        term = 0
        for d, r in betti.items():
            e = sphere_exponent_bruteforce(p, j - d)
            assert e != math.inf, f"infinite order at window degree {j}"
            term += r * p ** e
        total += term if j % 2 == 0 else -term
    return Fraction(total, length)


def first_infinite_in_window(p: int, betti: dict, skip: int, length: int):
    """(degree, cell) of the first Zp-hat summand a literal scan of the window
    meets, degrees ascending and cells in the order given; None if there is
    none."""
    for j in range(skip + 1, skip + length + 1):
        for d in betti:
            if sphere_exponent_bruteforce(p, j - d) == math.inf:
                return j, d
    return None


def random_spectrum(rng, p, max_cells: int = 6, degree_bound: int = 10,
                    max_rank: int = 4, torsion_prob: float = 0.4) -> FiniteSpectrumData:
    degrees = rng.sample(range(-degree_bound, degree_bound + 1), rng.randint(0, max_cells))
    betti = {d: rng.randint(1, max_rank) for d in degrees}
    torsion = {}
    if rng.random() < torsion_prob:
        for d in rng.sample(range(-degree_bound, degree_bound + 1), rng.randint(1, 3)):
            torsion[d] = rng.choice(["a", "b", "zpk"])
    return FiniteSpectrumData(p, betti, torsion)
