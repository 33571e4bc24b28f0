"""Independent oracles for the test suite.

Everything here recomputes its answer from first principles (repeated exact
division, extended Euclid, exhaustive search, literal window sums, base-p
digit counts, the Adams operation on K-theory) so the library's closed
forms have something honest to disagree with.  Only the plain value types
are imported from the package; no computation paths, apart from
sphere_order in wedge_order_scan: that oracle checks which cells
wedge_order skips, and sphere_order is held to sphere_exponent_bruteforce
and k1_order_adams on its own.  k1_order_adams uses nothing from the
package at all.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from iwaspectra import FiniteSpectrumData
from iwaspectra.k1 import sphere_order
from iwaspectra.padic import PadicValuation


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


@cache
def primitive_root_mod_p_squared(p: int) -> int:
    """The least g > 1 that generates (Z/p^2)^x, and so topologically
    generates Zp^x: a primitive root mod p (g^((p-1)/q) != 1 mod p for each
    prime q dividing p-1) with g^(p-1) != 1 mod p^2."""
    qs = [q for q in range(2, p) if (p - 1) % q == 0 and all(q % s for s in range(2, q))]
    return next(g for g in range(2, p * p)
                if all(pow(g, (p - 1) // q, p) != 1 for q in qs) and pow(g, p - 1, p * p) != 1)


def unit_power_valuation(p: int, g: int, k: int) -> int:
    """nu_p(g^k - 1) for k != 0, read from g^k mod p^N (a modular inverse
    for k < 0), N doubled until g^k - 1 leaves a nonzero residue."""
    n = 2
    while (pow(g, k, p ** n) - 1) % p ** n == 0:
        n *= 2
    return int_valuation(p, (pow(g, k, p ** n) - 1) % p ** n)


def k1_order_adams(p: int, summands, t: int):
    """Exponent of |pi_t| of the K(1)-localization of a wedge of cells at p,
    from the fibre sequence L Y -> KU_p ^ Y --(psi^g - 1)--> KU_p ^ Y, with
    g a primitive root mod p^2, and no sphere table.  A summand (d, r, None)
    is r copies of S^d, and (d, r, j) is r copies of the Moore spectrum
    S^d/p^j.  KU_p ^ S^d is Zp in the degrees d + 2k (Z/p^j for the Moore
    spectrum), where psi^g acts as g^k, and the long exact sequence gives

        |pi_t| = |coker(psi^g - 1) on pi_(t+1)| * |ker(psi^g - 1) on pi_t|.

    On Zp, g^k - 1 is injective with cokernel of exponent nu_p(g^k - 1) for
    k != 0, and zero, with kernel and cokernel Zp-hat, for k = 0.  On
    Z/p^j, kernel and cokernel both have exponent min(j, nu_p(g^k - 1)),
    which is j at k = 0.  math.inf for a Zp-hat summand."""
    g = primitive_root_mod_p_squared(p)
    total = 0
    for d, r, j in summands:
        for degree, cokernel in ((t + 1, True), (t, False)):
            if (degree - d) % 2:
                continue  # KU_p ^ S^d is zero in the degrees of the other parity
            k = (degree - d) // 2
            if j is None:
                e = math.inf if k == 0 else unit_power_valuation(p, g, k) if cokernel else 0
            else:
                e = j if k == 0 else min(j, unit_power_valuation(p, g, k))
            total += r * e
    return total


def wedge_order_scan(X, t: int):
    """Exponent of |pi_t| of the K(1)-localization of torsion-free X, with
    sphere_order looked up for every cell and the exponents summed cell by
    cell as plain numbers, where math.inf absorbs."""
    total = 0
    for d, r in X.betti.items():
        total += sphere_order(X.p, t - d).value * r
    return PadicValuation(total)


def eval_point(p: int, s: int) -> Fraction:
    """(1+p)^s - 1 as an exact rational, the point at which evaluate_exact
    reads f((1+p)^s - 1); a p-adic integer for every s."""
    return Fraction(1 + p) ** s - 1


def evaluate_exact(f, x) -> Fraction:
    """f(x) for a CharPoly f, in exact rational arithmetic at any int or
    Fraction x: the product of (x - (1+p)^i + 1)^mult over its factors, with
    no valuation shortcuts."""
    acc = Fraction(1)
    for i, mult in f.factors:
        acc *= (Fraction(x) - (Fraction(1 + f.p) ** i - 1)) ** mult
    return acc


def coefficients(f) -> tuple[Fraction, ...]:
    """Expanded coefficients of a CharPoly f, constant term first, leading
    coefficient 1, in exact rational arithmetic: one multiplication by
    (T - root) per copy of each factor, with root = (1+p)^i - 1.  They are
    p-integral but need not be integers when some factor has i < 0."""
    coeffs = [Fraction(1)]
    for i, mult in f.factors:
        root = Fraction(1 + f.p) ** i - 1
        for _ in range(mult):
            nxt = [Fraction(0)] * (len(coeffs) + 1)
            for k, c in enumerate(coeffs):
                nxt[k + 1] += c
                nxt[k] -= c * root
            coeffs = nxt
    return tuple(coeffs)


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


def in_strict_window(X, m: int) -> bool:
    """Whether m carries the weak main conjecture's guarantee for X, read off
    the cells by the statement in the imc docstring: with alpha and beta the
    lowest and highest cell, 2m < -beta or 2m > -alpha, except m = (1-alpha)/2
    when alpha is odd.  Every m counts when X has no cells."""
    if not X.betti:
        return True
    alpha, beta = min(X.betti), max(X.betti)
    if 2 * m < -beta:
        return True
    return 2 * m > -alpha and not (alpha % 2 == 1 and 2 * m == 1 - alpha)


def imc_exceptions(betti) -> set[tuple[int, int]]:
    """The (m, side) records of the weak main-conjecture comparison that
    mismatch, at any m, for a spectrum with these cells: side 2m-1 exactly
    when there is a cell at 1-2m and none at -2m, side 2m exactly when there
    is a cell at -2m and none at -2m-1.  Ranks and torsion play no part."""
    exceptions = set()
    for d in betti:
        if d % 2:  # d = 1 - 2m, compared on side 2m - 1
            m = (1 - d) // 2
            if -2 * m not in betti:
                exceptions.add((m, 2 * m - 1))
        else:  # d = -2m, compared on side 2m
            m = -d // 2
            if -2 * m - 1 not in betti:
                exceptions.add((m, 2 * m))
    return exceptions


def exact_average(average) -> Fraction:
    """The value of a GradedAverage, its integer window sum over its length,
    as the Fraction the oracles below return."""
    return Fraction(average.total, average.length)


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


def prime_power_prefix_sum(p: int, K: int) -> Fraction:
    """sum_{k=1..K} p^nu_p(k), from the base-p digits of K:

        K + (1 - 1/p) * sum_{v=1..floor(log_p K)} (K - (K mod p^v))

    A k counts 1, plus p^v - p^(v-1) for each v from 1 to nu_p(k); and
    K - (K mod p^v) is p^v times the number of k <= K that p^v divides."""
    digits_sum, q = 0, p
    while q <= K:
        digits_sum += K - K % q
        q *= p
    return K + Fraction(p - 1, p) * digits_sum


def window_average_digits(p: int, betti: dict, skip: int, length: int) -> Fraction:
    """The average over the window skip+1 .. skip+length of a window above
    every cell, of any length, from prime_power_prefix_sum.  A cell at d of
    rank r adds r * (-1)^j in every degree j, and on top r * (-1)^j (p^e - 1)
    at its special degrees j = d + 2(p-1)k - 1, k >= 1, where the sphere has
    order p^e with e = 1 + nu_p(k) and (-1)^j = -(-1)^d.  Over k = 1..K the
    excesses p^e - 1 sum to p * prime_power_prefix_sum(p, K) - K."""
    assert all(d <= skip for d in betti), "the window must lie above every cell"
    first, last = skip + 1, skip + length
    block = 2 * (p - 1)
    signs = 0 if length % 2 == 0 else (1 if first % 2 == 0 else -1)  # sum of (-1)^j

    def excess_up_to(K):
        return p * prime_power_prefix_sum(p, K) - K

    total = Fraction(0)
    for d, r in betti.items():
        k_first = -((d - 1 - first) // block)  # least k with d + block*k - 1 >= first
        k_last = (last - d + 1) // block  # k_first - 1 when the run is empty
        excess = excess_up_to(k_last) - excess_up_to(k_first - 1)
        total += r * (signs - excess if d % 2 == 0 else signs + excess)
    return total / length


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
