"""The nine headline checks for this package, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines go by.  Each
check asserts its correctness condition and its wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

from iwaspectra.asymptotics import (
    default_skip,
    graded_average,
    growth_ratio,
    ladder,
)
from iwaspectra.imc import verify_weak_imc
from iwaspectra.iwalg import coefficients_mod
from iwaspectra.k1 import sphere_order
from iwaspectra.padic import DEFAULT_PRECISION, INFINITE, one_plus_p_pow_minus_one_valuation
from iwaspectra.spectra import (
    FiniteSpectrumData,
    eigenspace_charpoly,
    eigenspace_keys,
    euler_characteristic,
    strip_torsion,
    suspend,
    total_lambda,
    wedge,
)

from oracles import (
    exact_average,
    imc_exceptions,
    int_valuation,
    ladder_identity_average,
    random_spectrum,
    sn_closed_form,
    sphere_exponent_bruteforce,
)

PRIMES = (3, 5, 7)


def report(num, label, ok, elapsed, budget=None, detail=""):
    verdict = "PASS" if ok else "FAIL"
    timing = f"{elapsed:.2f}s" + (f" (budget {budget:g}s)" if budget else "")
    print(f"[acceptance {num}] {label}: {verdict} in {timing}{detail}")


def corpus(seed, per_prime, torsion_prob=0.5):
    rng = random.Random(seed)
    return [random_spectrum(rng, p, torsion_prob=torsion_prob)
            for p in PRIMES for _ in range(per_prime)]


def test_01_sphere_table_against_bruteforce():
    start = time.perf_counter()
    checked, bad = 0, []
    for p in PRIMES:
        for t in range(-50, 2 * 2 * (p - 1) * p ** 3 + 1):
            got = sphere_order(p, t)
            want = sphere_exponent_bruteforce(p, t)
            checked += 1
            if got != want:
                bad.append((p, t, got, want))
    elapsed = time.perf_counter() - start
    report(1, f"sphere order table vs brute-force search ({checked} degrees)",
           not bad, elapsed, 1)
    assert not bad, bad[:5]
    assert elapsed < 1

def test_02_valuation_identity_against_expansion():
    start = time.perf_counter()
    bad = []
    for p in PRIMES:
        power = 1
        for n in range(1, 10 ** 4 + 1):
            power *= 1 + p
            if one_plus_p_pow_minus_one_valuation(p, n) != int_valuation(p, power - 1):
                bad.append((p, n))
    elapsed = time.perf_counter() - start
    report(2, "valuation identity vs big-integer expansion (n <= 10^4, three primes)",
           not bad, elapsed, 30)
    assert not bad, bad[:5]
    assert elapsed < 30

def test_03_sphere_simc_sweep():
    start = time.perf_counter()
    total, mismatched, infinite_cases = 0, [], 0
    for p in PRIMES:
        for i in range(-6, 7):
            # the sphere S^{2i}; its side-(2m-1) records hold at every m,
            # n = m + 1 in [-200, 200]
            rep = verify_weak_imc(FiniteSpectrumData(p, {2 * i: 1}), range(-201, 200))
            assert rep.ok
            odd = [r for r in rep.records if r.side == 2 * r.m - 1]
            total += len(odd)
            mismatched.extend(r for r in odd if not r.match)
            for r in odd:
                if r.lhs_valuation == INFINITE:
                    assert r.m == -i and r.rhs_valuation == INFINITE
                    infinite_cases += 1
    elapsed = time.perf_counter() - start
    ok = not mismatched and infinite_cases == 13 * len(PRIMES)
    report(3, f"sphere main conjecture, {total} comparisons incl. {infinite_cases} infinite",
           ok, elapsed, 5)
    assert not mismatched, mismatched[:5]
    assert infinite_cases == 13 * len(PRIMES)
    assert elapsed < 5

def test_04_weak_imc_random_corpus():
    start = time.perf_counter()
    rng = random.Random(41)
    # every record is held to the cell rule of oracles.imc_exceptions,
    # inside the window or not
    mismatches, misplaced, inert_failures = [], [], []
    for p in PRIMES:
        for _ in range(100):
            X = random_spectrum(rng, p, torsion_prob=0.6)
            rep = verify_weak_imc(X, range(-15, 16))
            mismatches.extend(rep.in_window_mismatches)
            found = {(r.m, r.side) for r in rep.records if not r.match}
            expected = {(m, side) for m, side in imc_exceptions(X.betti) if -15 <= m <= 15}
            if found != expected:
                misplaced.append((X, sorted(found ^ expected)))
            if rep != verify_weak_imc(strip_torsion(X), range(-15, 16)):
                inert_failures.append(X)
    elapsed = time.perf_counter() - start
    ok = not mismatches and not misplaced and not inert_failures
    report(4, "weak main conjecture on 300 random spectra, m in [-15, 15]",
           ok, elapsed, 10)
    assert not mismatches, mismatches[:5]
    assert not misplaced, misplaced[:3]
    assert not inert_failures, inert_failures[:2]
    assert elapsed < 10

def test_05_lambda_equals_euler_characteristic():
    start = time.perf_counter()
    spectra = corpus(seed=42, per_prime=334, torsion_prob=0)
    bad_totals = [X for X in spectra if total_lambda(X) != euler_characteristic(X)]
    bad_additivity = []
    by_prime = {p: [X for X in spectra if X.p == p] for p in PRIMES}
    for p in PRIMES:
        group = by_prime[p]
        for X, Y in zip(group[0::2], group[1::2]):
            for key in eigenspace_keys(p):
                lam = eigenspace_charpoly(wedge(X, Y), key).degree
                parts = eigenspace_charpoly(X, key).degree + eigenspace_charpoly(Y, key).degree
                if lam != parts:
                    bad_additivity.append((X, Y, key))
    elapsed = time.perf_counter() - start
    ok = not bad_totals and not bad_additivity
    report(5, f"total lambda = chi on {len(spectra)} spectra + eigenspace additivity",
           ok, elapsed, 1)
    assert not bad_totals, bad_totals[:2]
    assert not bad_additivity, bad_additivity[:2]
    assert elapsed < 1

def test_06_mu_vanishes_everywhere():
    # the Weierstrass reading of the expanded coefficients: mu is the least
    # valuation of a coefficient, lambda the index of the first unit one.
    # mu = 0 and lambda = degree say that f is distinguished, with every
    # root in pZ_p.  A residue 0 mod p^N counts as valuation N.
    start = time.perf_counter()
    spectra = corpus(seed=43, per_prime=100)
    bad = []
    for X in spectra:
        for key in eigenspace_keys(X.p):
            f = eigenspace_charpoly(X, key)
            vals = [int_valuation(X.p, c) if c else DEFAULT_PRECISION
                    for c in coefficients_mod(f)]
            mu = min(vals)
            lam = vals.index(0) if mu == 0 else None
            if mu != 0 or lam != f.degree:
                bad.append((X, key, mu, lam, f.degree))
    elapsed = time.perf_counter() - start
    report(6, f"Weierstrass mu = 0 and lambda = degree for every eigenspace of "
           f"{len(spectra)} corpus spectra", not bad, elapsed)
    assert not bad, bad[:5]

def test_07_closed_form_averages():
    start = time.perf_counter()
    bad = []
    plan = {3: 6, 5: 4, 7: 4}
    for p, top in plan.items():
        S0 = FiniteSpectrumData(p, {0: 1})
        for n in range(top + 1):
            window = 2 * (p - 1) * p ** n
            average = exact_average(graded_average(S0, 0, window))
            # the S^0 closed form, and the ladder identity it is a case of
            if not average == sn_closed_form(p, n) == ladder_identity_average(p, S0.betti, 0, n):
                bad.append((p, n))
    # one tall rung in the millions of terms, same exact equalities
    tall = 12
    tall_window = 2 * 2 * 3 ** tall
    average = exact_average(graded_average(FiniteSpectrumData(3, {0: 1}), 0, tall_window))
    if not average == sn_closed_form(3, tall) == ladder_identity_average(3, {0: 1}, 0, tall):
        bad.append((3, tall))
    # a multi-cell spectrum on every rung, at every skip over one period of
    # 2(p-1)p^2 past its cells: the windows' special indices start on every
    # residue mod p^2, so the leftover k_d takes each valuation class
    windows = 0
    for p, top in plan.items():
        X = FiniteSpectrumData(p, {-3: 2, 0: 1, 2: 1, 5: 3})
        for n in range(top + 1):
            window = 2 * (p - 1) * p ** n
            for skip in range(default_skip(X), default_skip(X) + 2 * (p - 1) * p ** 2):
                windows += 1
                if exact_average(graded_average(X, skip, window)) != ladder_identity_average(
                        p, X.betti, skip, n):
                    bad.append((p, n, skip))
    elapsed = time.perf_counter() - start
    report(7, f"closed-form averages = ladder identity, exact, up to a {tall_window:,}-term "
           f"window, and on {windows} multi-cell ladder windows", not bad, elapsed, 60)
    assert not bad, bad
    assert elapsed < 60

def test_08_growth_law_and_envelopes():
    start = time.perf_counter()
    S0 = FiniteSpectrumData(3, {0: 1})
    spectra = [S0, suspend(S0, 2), FiniteSpectrumData(3, {0: 1, 2: 1, 4: 1})]
    ratio_problems, identity_failures = [], []
    for X in spectra:
        skip = default_skip(X)
        rungs = ladder(3, 8)
        lam = total_lambda(X)
        first = abs(growth_ratio(graded_average(X, skip, rungs[0]), lam, 3) - 1)
        last = abs(growth_ratio(graded_average(X, skip, rungs[-1]), lam, 3) - 1)
        if last > 0.2 or last >= first:
            ratio_problems.append((X.betti, first, last))
        # every rung average the ratios divide, against the ladder identity
        for n, N in enumerate(rungs):
            got = exact_average(graded_average(X, skip, N))
            want = ladder_identity_average(3, X.betti, skip, n)
            if got != want:
                identity_failures.append(f"{sorted(X.betti)} n={n}: A = {got}, identity {want}")

    # S^0 one and two degrees short of rung n, N = 2(p-1)p^n: the shorter
    # windows drop the terms of degrees N (even, trivial homotopy) and N-1
    # (odd, order p^(n+1)), so with s_n = (-1-n)/2
    #   A(N-1) = (N s_n - 1)/(N-1) < s_n < (N s_n - 1 + p^(n+1))/(N-2) = A(N-2).
    # The dropped terms come from the brute-force oracle, not from the library.
    p = 3

    def term(j):
        return (-1) ** j * p ** sphere_exponent_bruteforce(p, j)

    exact_failures, bracket_failures, t_seq, u_seq = [], [], [], []
    for n in range(7):
        full = 2 * (p - 1) * p ** n
        s_n = sn_closed_form(p, n)
        low = exact_average(graded_average(S0, 0, full - 1))
        high = exact_average(graded_average(S0, 0, full - 2))
        want_low = (full * s_n - term(full)) / (full - 1)
        want_high = (full * s_n - term(full) - term(full - 1)) / (full - 2)
        for name, got, want in (("A(N-1)", low, want_low), ("A(N-2)", high, want_high)):
            if got != want:
                exact_failures.append(f"n={n}: {name} = {got} ({float(got):.6f}), "
                                      f"closed form {want} ({float(want):.6f})")
        if not low < s_n < high:
            bracket_failures.append(f"n={n}: A(N-1) = {low} ({float(low):.6f}), "
                                    f"s_n = {s_n}, A(N-2) = {high} ({float(high):.6f})")
        t_seq.append(float(low) / math.log(full - 1, p))
        u_seq.append(float(high) / math.log(full - 2, p))

    # log-normalised families: u_n is a decreasing upper envelope of -1/2;
    # t_n stays below u_n and crosses -1/2 once, between rungs 1 and 2
    envelope_failures = []
    for n, (t, u) in enumerate(zip(t_seq, u_seq)):
        if u < -0.5:
            envelope_failures.append(f"n={n}: u_n = {u:.6f} < -1/2")
        if n and u >= u_seq[n - 1]:
            envelope_failures.append(f"n={n}: u_n = {u:.6f} >= u_{n - 1} = {u_seq[n - 1]:.6f}")
        if t > u:
            envelope_failures.append(f"n={n}: t_n = {t:.6f} > u_n = {u:.6f}")
        if not (t < -0.5 if n < 2 else t > -0.5):
            side = "below" if n < 2 else "above"
            envelope_failures.append(f"n={n}: t_n = {t:.6f} not {side} -1/2")
    for name, seq in (("t", t_seq), ("u", u_seq)):
        if not abs(seq[-1] + 0.5) < abs(seq[0] + 0.5):
            envelope_failures.append(f"{name}_6 = {seq[-1]:.6f} not nearer -1/2 "
                                     f"than {name}_0 = {seq[0]:.6f}")

    elapsed = time.perf_counter() - start
    failures = identity_failures + exact_failures + bracket_failures + envelope_failures
    ok = not ratio_problems and not failures
    detail = f"; first failure {failures[0]}" if failures else ""
    report(8, "growth law ratios + ladder identity + exact off-rung averages, "
           "A(N-1) < s_n < A(N-2), envelopes", ok, elapsed, 120, detail)
    assert not ratio_problems, ratio_problems
    assert elapsed < 120
    assert not identity_failures, "; ".join(identity_failures)
    assert not exact_failures, "; ".join(exact_failures)
    assert not bracket_failures, "; ".join(bracket_failures)
    assert not envelope_failures, "; ".join(envelope_failures)

def test_09_wedge_additivity_of_averages():
    start = time.perf_counter()
    rng = random.Random(44)
    inexact = []
    for _ in range(50):
        p = rng.choice(PRIMES)
        X = random_spectrum(rng, p, torsion_prob=0)
        Z = random_spectrum(rng, p, torsion_prob=0)
        skip = default_skip(wedge(X, Z)) + rng.randint(0, 2)
        length = rng.randint(1, 300)
        difference = (exact_average(graded_average(wedge(X, Z), skip, length))
                      - exact_average(graded_average(X, skip, length))
                      - exact_average(graded_average(Z, skip, length)))
        if difference != 0:
            inexact.append((X.betti, Z.betti, skip, length, difference))
    elapsed = time.perf_counter() - start
    report(9, "graded-average additivity, 50 random wedge pairs, exact",
           not inexact, elapsed, 10)
    assert not inexact, inexact[:3]
    assert elapsed < 10