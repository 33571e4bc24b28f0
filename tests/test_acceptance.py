"""The nine headline checks for this package, one printed verdict line each.

Run `pytest tests/test_acceptance.py -v -s` to watch the lines go by.  Each
check asserts its correctness condition and its wall-clock budget.
"""

import math
import random
import time
from fractions import Fraction

from iwaspectra.asymptotics import (
    additivity_check,
    default_skip,
    graded_average,
    growth_ratio,
    ladder,
    sn_closed_form,
)
from iwaspectra.imc import verify_sphere_simc, verify_weak_imc
from iwaspectra.k1 import sphere_order
from iwaspectra.padic import one_plus_p_pow_minus_one_valuation
from iwaspectra.spectra import (
    FiniteSpectrumData,
    eigenspace_charpoly,
    eigenspace_keys,
    euler_characteristic,
    mu_invariant,
    strip_torsion,
    suspend,
    total_lambda,
    wedge,
)
from iwaspectra.iwalg import invariants_of

from oracles import int_valuation, random_spectrum, sphere_exponent_bruteforce

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
            got = sphere_order(p, t).value
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
            if one_plus_p_pow_minus_one_valuation(p, n).value != int_valuation(p, power - 1):
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
        rep = verify_sphere_simc(p, range(-6, 7), range(-200, 201))
        total += len(rep.records)
        mismatched.extend(rep.mismatches)
        for r in rep.records:
            if not r.lhs_valuation.is_finite:
                assert r.n == 1 - r.i and not r.rhs_valuation.is_finite
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
    mismatches, inert_failures = [], []
    for p in PRIMES:
        for _ in range(100):
            X = random_spectrum(rng, p, torsion_prob=0.6)
            rep = verify_weak_imc(X, range(-15, 16))
            mismatches.extend(rep.in_window_mismatches)
            if rep != verify_weak_imc(strip_torsion(X), range(-15, 16)):
                inert_failures.append(X)
    elapsed = time.perf_counter() - start
    ok = not mismatches and not inert_failures
    report(4, "weak main conjecture on 300 random spectra, m in [-15, 15]",
           ok, elapsed, 10)
    assert not mismatches, mismatches[:5]
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
                lam = invariants_of(eigenspace_charpoly(wedge(X, Y), key)).lambda_
                parts = (invariants_of(eigenspace_charpoly(X, key)).lambda_
                         + invariants_of(eigenspace_charpoly(Y, key)).lambda_)
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
    start = time.perf_counter()
    spectra = corpus(seed=43, per_prime=100)
    nonzero = [(X, key) for X in spectra for key in eigenspace_keys(X.p)
               if mu_invariant(X, key) != 0]
    elapsed = time.perf_counter() - start
    report(6, f"mu = 0 for every eigenspace of {len(spectra)} corpus spectra",
           not nonzero, elapsed)
    assert not nonzero, nonzero[:5]

def test_07_closed_form_averages():
    start = time.perf_counter()
    bad = []
    plan = {3: 6, 5: 4, 7: 4}
    for p, top in plan.items():
        S0 = FiniteSpectrumData(p, {0: 1})
        for n in range(top + 1):
            window = 2 * (p - 1) * p ** n
            if graded_average(S0, 0, window).value != sn_closed_form(p, n):
                bad.append((p, n))
    # one tall rung in the millions of terms, same exact equality
    tall = 12
    window = 2 * 2 * 3 ** tall
    if graded_average(FiniteSpectrumData(3, {0: 1}), 0, window).value != sn_closed_form(3, tall):
        bad.append((3, tall))
    elapsed = time.perf_counter() - start
    report(7, f"closed-form averages, exact, up to a {window:,}-term window",
           not bad, elapsed, 60)
    assert not bad, bad
    assert elapsed < 60

def test_08_growth_law_and_envelopes():
    start = time.perf_counter()
    S0 = FiniteSpectrumData(3, {0: 1})
    spectra = [S0, suspend(S0, 2), FiniteSpectrumData(3, {0: 1, 2: 1, 4: 1})]
    ratio_problems = []
    for X in spectra:
        skip = default_skip(X)
        rungs = ladder(3, 8)
        first = abs(growth_ratio(X, skip, rungs[0]) - 1)
        last = abs(growth_ratio(X, skip, rungs[-1]) - 1)
        if last > 0.2 or last >= first:
            ratio_problems.append((X.betti, first, last))

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
        low = graded_average(S0, 0, full - 1).value
        high = graded_average(S0, 0, full - 2).value
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
    failures = exact_failures + bracket_failures + envelope_failures
    ok = not ratio_problems and not failures
    detail = f"; first failure {failures[0]}" if failures else ""
    report(8, "growth law ratios + exact off-rung averages, A(N-1) < s_n < A(N-2), "
           "envelopes", ok, elapsed, 120, detail)
    assert not ratio_problems, ratio_problems
    assert elapsed < 120
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
        result = additivity_check(X, Z, skip, length)
        if not result.is_exact:
            inexact.append((X.betti, Z.betti, skip, length, result.difference))
    elapsed = time.perf_counter() - start
    report(9, "graded-average additivity, 50 random wedge pairs, exact",
           not inexact, elapsed, 10)
    assert not inexact, inexact[:3]
    assert elapsed < 10