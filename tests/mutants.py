#!/usr/bin/env python3
"""Mutants of src/ that the tests must catch, and a runner that checks it.

    python tests/mutants.py [--timeout S] [NAME ...]

Each mutant is one text replacement in one file, and the ids of the tests
that must fail under it.  For each mutant (all, or the NAMEs given) the
runner copies the repository into a temporary directory, applies the
mutant there, and runs the named tests with pytest under a per-mutant
timeout.  A mutant survives when one of its named tests passes; a run that
outlives the timeout is reported as a hang, which counts as caught.  The
exit code is 1 when any mutant survives or its tests cannot run, else 0.
This takes a few seconds per mutant, so it is not part of the test suite;
tests/test_mutants.py checks only that each old text still occurs exactly
once in its file and that the mutated file still compiles.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

Mutant = namedtuple("Mutant", ["name", "file", "old", "new", "tests"])

CLI = "src/iwaspectra/cli.py"
PADIC = "src/iwaspectra/padic.py"
ENTRY = "tests/test_cli.py::TestEntry::"
SPECTRUM_ARGUMENT = "tests/test_value_types.py::test_every_spectrum_argument_is_checked"
# a Rows in JSON: parsed back, and in every growth-ladder call; the
# hypothesis property of TestRenderJson fails too, but shrinks for 100 s
JSON_ROWS = ("tests/test_cli.py::TestGrowth::test_json_payload",
             "tests/test_cli.py::TestBenchReferences::test_growth_ladder_pool_is_byte_identical")

MUTANTS = (
    Mutant("entry-without-flush", CLI,
           "        code = main()\n        sys.stdout.flush()\n",
           "        code = main()\n",
           (ENTRY + "test_output_is_written_whole[small]",)),
    Mutant("entry-fast-exit-under-profiler", CLI,
           "    if sys.getprofile() is None and sys.gettrace() is None:\n",
           "    if True:\n",
           (ENTRY + "test_profiler_report_still_prints",)),
    Mutant("entry-without-pipe-handler", CLI,
           "    except OSError as exc:\n        # the rest of the output is dropped",
           "    except ArithmeticError as exc:\n        # the rest of the output is dropped",
           tuple(ENTRY + f"test_{case}_is_exit_1[{route}]"
                 for case in ("closed_pipe", "full_disk") for route in ("exit", "traced"))),
    Mutant("entry-keeps-unwritten-output", CLI,
           "        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)\n",
           "",
           (ENTRY + "test_full_disk_is_exit_1[traced]",)),
    Mutant("entry-fast-exit-drops-code", CLI,
           "        os._exit(code)\n",
           "        os._exit(0)\n",
           (ENTRY + "test_each_failure_writes_one_error_line[lambda-zero]",
            ENTRY + "test_each_failure_writes_one_error_line[broken-file]",
            ENTRY + "test_each_failure_writes_one_error_line[bad-prime]")),
    Mutant("entry-without-closed-stdout-check", CLI,
           "        if sys.stdout is None:",
           "        if False:",
           tuple(ENTRY + f"test_closed_stdout_is_exit_1[{r}]" for r in ("exit", "traced"))),
    Mutant("imc-exit-ignores-mismatches", CLI,
           "    return EXIT_FAILED if mismatches else EXIT_OK\n",
           "    return EXIT_OK\n",
           ("tests/test_cli.py::TestImc::test_mismatch_exit_code_wiring",)),
    Mutant("table-key-width-from-max-only", CLI,
           "else (min(values), max(values))",
           "else (max(values),)",
           ("tests/test_cli.py::TestRenderTable::test_matches_the_ljust_renderer",)),
    Mutant("table-keeps-key-padding-of-blank-tails", CLI,
           " if nk and not all(tails) else text\n",
           " if False else text\n",
           ("tests/test_cli.py::TestRenderTable::test_contract_examples",
            "tests/test_cli.py::TestRenderTable::test_matches_the_ljust_renderer")),
    Mutant("lines-ignore-end", CLI,
           "[t + end for t in tails]",
           "[t + \"\\n\" for t in tails]",
           JSON_ROWS),
    Mutant("json-keeps-last-object-separator", CLI,
           "rows, end)[:-len(end)]",
           "rows, end)",
           JSON_ROWS),
    Mutant("json-object-separator-without-comma", CLI,
           "end = len(rows.keys), \"\\n    },\\n",
           "end = len(rows.keys), \"\\n    }\\n",
           JSON_ROWS),
    Mutant("average-text-without-gcd", CLI,
           "    g = math.gcd(total, length)\n",
           "    g = 1\n",
           ("tests/test_cli.py::TestAverageText::test_contract_examples",
            "tests/test_cli.py::TestAverageText::test_average_and_ratio_follow_the_fraction",
            "tests/test_cli.py::TestGrowth::test_sphere_ladder_contract_example",
            "tests/test_cli.py::TestBenchReferences::test_growth_ladder_pool_is_byte_identical")),
    Mutant("average-text-keeps-denominator-1", CLI,
           "str(total // g) if g == length else",
           "str(total // g) if False else",
           ("tests/test_cli.py::TestAverageText::test_contract_examples",
            "tests/test_cli.py::TestAverageText::test_average_and_ratio_follow_the_fraction",
            "tests/test_cli.py::TestGrowth::test_json_payload",
            "tests/test_cli.py::TestBenchReferences::test_growth_ladder_pool_is_byte_identical")),
    Mutant("expansion-width-without-default-precision", CLI,
           "(X.p ** DEFAULT_PRECISION).bit_length() // 64",
           "(X.p ** DEFAULT_PRECISION).bit_length() // 32",
           ("tests/test_cli.py::TestFailureModes::test_expansion_cap_counts_degree_and_width",)),
    Mutant("invariants-lead-keeps-unprintable-name", CLI,
           "repr(name) if name and not name.isprintable() else name or \"-\"",
           "name or \"-\"",
           ("tests/test_cli.py::TestFailureModes::test_unprintable_name_leads_on_one_line",)),
    Mutant("wedge-order-without-cell-at-t", "src/iwaspectra/k1.py",
           "    if _int(t, \"degree\") in X.betti:\n        return INFINITE\n",
           "    _int(t, \"degree\")\n",
           ("tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan",
            "tests/test_k1.py::TestAdamsOracle::test_wedge_order_matches")),
    Mutant("wedge-order-point-off-by-one", "src/iwaspectra/k1.py",
           "    s = (t + 2) // 2\n",
           "    s = (t + 1) // 2\n",
           ("tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan",
            "tests/test_k1.py::TestAdamsOracle::test_wedge_order_matches")),
    # wedge_order summing the eigenspace's factors itself, each at exponent 1
    Mutant("wedge-order-exponent-always-1", "src/iwaspectra/k1.py",
           " else evaluate_valuation(f, s)\n",
           " else INFINITE if s in dict(f.factors) else sum(dict(f.factors).values())\n",
           ("tests/test_k1.py::TestWedgeOrder::test_per_cell_bruteforce_oracle",
            "tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan",
            "tests/test_k1.py::TestAdamsOracle::test_wedge_order_matches")),
    Mutant("wedge-order-float-total", "src/iwaspectra/k1.py",
           "ZERO if f is None else evaluate_valuation",
           "ZERO if f is None else 0.0 + evaluate_valuation",
           ("tests/test_value_types.py::test_every_valuation_is_a_plain_int_or_inf",
            "tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan")),
    Mutant("wedge-order-parity-swapped", "src/iwaspectra/k1.py",
           "X.eigenspaces.get((t % 2 - 1, s % (X.p - 1)))",
           "X.eigenspaces.get((-(t % 2), s % (X.p - 1)))",
           ("tests/test_k1.py::TestWedgeOrder::test_contract_examples",
            "tests/test_k1.py::TestAdamsOracle::test_wedge_order_matches")),
    Mutant("wedge-order-accepts-any-X", "src/iwaspectra/k1.py",
           "    if _instance(X, FiniteSpectrumData, \"X\").torsion:\n",
           "    if X.torsion:\n",
           ("tests/test_value_types.py::test_argument_shapes[wedge_order-dict]",
            "tests/test_value_types.py::test_argument_shapes[graded_average-tuple]",
            SPECTRUM_ARGUMENT + "[wedge_order.X-NoneType]",
            SPECTRUM_ARGUMENT + "[graded_average.X-dict]")),
    Mutant("eigenspaces-odd-cell-exponent", "src/iwaspectra/spectra.py",
           "            i = (d + 1) // 2  # i both for d = 2i and for d = 2i - 1\n",
           "            i = d // 2\n",
           ("tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan",
            "tests/test_k1.py::TestWedgeOrder::test_per_cell_bruteforce_oracle",
            "tests/test_spectra.py::TestEigenspaceMap::test_lookup_matches_cell_scan")),
    # the vanishing factor is also wedge_order's Zp-hat from a cell at t + 1
    Mutant("evaluate-valuation-never-vanishes", "src/iwaspectra/iwalg.py",
           "        if s == i:\n",
           "        if False:\n",
           ("tests/test_iwalg.py::TestEvaluateValuation::test_contract_examples",
            "tests/test_imc.py::TestMismatches::test_contract_examples",
            "tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan",
            "tests/test_k1.py::TestAdamsOracle::test_wedge_order_matches")),
    Mutant("evaluate-valuation-exponent-always-1", "src/iwaspectra/iwalg.py",
           "        total += mult if (s - i) % p else _special_exponent(p, s - i) * mult\n",
           "        total += mult\n",
           ("tests/test_iwalg.py::TestEvaluateValuation::test_factor_route_matches_exact_route",
            "tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan",
            "tests/test_k1.py::TestAdamsOracle::test_wedge_order_matches")),
    Mutant("evaluate-valuation-float-total", "src/iwaspectra/iwalg.py",
           "    p, total = f.p, 0\n",
           "    p, total = f.p, 0.0\n",
           ("tests/test_value_types.py::test_every_valuation_is_a_plain_int_or_inf",
            "tests/test_k1.py::TestWedgeOrder::test_support_skip_equals_full_scan")),
    Mutant("charpoly-accepts-bool-factors", "src/iwaspectra/iwalg.py",
           "            i = _int(i, \"factor index\")\n",
           "",
           ("tests/test_iwalg.py::TestCharPoly::test_rejects_bad_factors",)),
    Mutant("spectrum-accepts-any-cells", "src/iwaspectra/spectra.py",
           "        _instance(self.betti, Mapping, \"betti\")\n"
           "        _instance(self.torsion, Mapping, \"torsion\")\n",
           "",
           ("tests/test_value_types.py::test_argument_shapes[betti-list]",
            "tests/test_value_types.py::test_argument_shapes[torsion-list]")),
    Mutant("total-lambda-accepts-any-X", "src/iwaspectra/spectra.py",
           "_instance(X, FiniteSpectrumData, \"X\").eigenspaces.items()",
           "X.eigenspaces.items()",
           ("tests/test_value_types.py::test_argument_shapes[total_lambda-none]",
            SPECTRUM_ARGUMENT + "[total_lambda.X-dict]")),
    Mutant("imc-eigenspaces-swapped", "src/iwaspectra/imc.py",
           "(eigenspace_charpoly(X, (0, j)), eigenspace_charpoly(X, (-1, j)))",
           "(eigenspace_charpoly(X, (-1, j)), eigenspace_charpoly(X, (0, j)))",
           ("tests/test_imc.py::TestMismatches::test_mismatches_are_the_cell_rule",)),
    Mutant("imc-mismatches-outside-the-window", "src/iwaspectra/imc.py",
           "flags = [inside and not match for",
           "flags = [not match for",
           ("tests/test_imc.py::TestWeakImc::test_random_spectra_match_in_window",)),
    Mutant("imc-accepts-non-int-m", "src/iwaspectra/imc.py",
           "    ms = [_int(m, \"m\") for m in m_range]\n",
           "    ms = list(m_range)\n",
           ("tests/test_imc.py::TestWeakImc::test_m_must_be_an_int",)),
    Mutant("excess-class-one-power-short", "src/iwaspectra/asymptotics.py",
           "(at_least - above) * (step * p - 1)",
           "(at_least - above) * (step - 1)",
           ("tests/test_asymptotics.py::TestGradedAverage::test_contract_examples",
            "tests/test_asymptotics.py::TestGradedAverage::test_matches_bruteforce_window_sums",
            "tests/test_asymptotics.py::TestLadderIdentity::test_default_skip_gives_the_growth_law")),
    Mutant("growth-ratio-accepts-any-p", "src/iwaspectra/asymptotics.py",
           "    p = OddPrime(p)\n    if _int(lam, \"lam\") == 0:",
           "    if _int(lam, \"lam\") == 0:",
           ("tests/test_asymptotics.py::TestGrowthRatio::test_p_must_be_an_odd_prime",)),
    Mutant("graded-average-parity-swapped", "src/iwaspectra/asymptotics.py",
           "(alternating - special if d % 2 == 0 else alternating + special)",
           "(alternating + special if d % 2 == 0 else alternating - special)",
           ("tests/test_asymptotics.py::TestTrueOrders::"
            "test_summed_orders_exceed_true_orders_by_r_minus_1",)),
    Mutant("int-rule-accepts-bool", PADIC,
           "    if not isinstance(value, int) or isinstance(value, bool):\n",
           "    if not isinstance(value, int):\n",
           ("tests/test_value_types.py::test_int_arguments[ladder.rungs-bool]",
            "tests/test_value_types.py::test_int_arguments[FiniteSpectrumData.betti_rank-bool]",
            "tests/test_asymptotics.py::TestGradedAverage::test_bad_window_rejected",
            "tests/test_spectra.py::TestData::test_rejects_bad_ranks")),
    Mutant("instance-rule-accepts-anything", PADIC,
           "    if not isinstance(value, cls):\n",
           "    if False:\n",
           ("tests/test_value_types.py::test_argument_shapes[average-tuple]",
            "tests/test_value_types.py::test_argument_shapes[betti-list]",
            "tests/test_value_types.py::test_argument_shapes[torsion-list]",
            "tests/test_value_types.py::test_argument_shapes[wedge_order-dict]",
            "tests/test_value_types.py::test_argument_shapes[graded_average-tuple]",
            "tests/test_value_types.py::test_argument_shapes[total_lambda-none]",
            SPECTRUM_ARGUMENT + "[dual.X-dict]",
            SPECTRUM_ARGUMENT + "[wedge.Y-NoneType]",
            SPECTRUM_ARGUMENT + "[verify_weak_imc.X-dict]")),
    Mutant("int-rule-ignores-low", PADIC,
           "    if low is not None and value < low:\n",
           "    if False:\n",
           ("tests/test_value_types.py::test_int_arguments[ladder.rungs-below]",
            "tests/test_value_types.py::test_int_arguments[PadicValuation.value-below]",
            "tests/test_asymptotics.py::TestSkipAndLadder::test_ladder",
            "tests/test_padic.py::TestValuationNumber::test_rejects_bad_values",
            "tests/test_spectra.py::TestData::test_rejects_bad_ranks")),
)


def run_mutant(mutant: Mutant, timeout: float) -> tuple[str, str]:
    """(verdict, detail): "caught", "hang", "survived" or "error"."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", "out"))
        target = copy / mutant.file
        text = target.read_text()
        if text.count(mutant.old) != 1:
            return "error", f"old text occurs {text.count(mutant.old)} times in {mutant.file}"
        target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                 *mutant.tests], cwd=copy, env=env, capture_output=True, text=True,
                timeout=timeout)
        except subprocess.TimeoutExpired:
            return "hang", f"still running after {timeout:g} s"
    failed = set(re.findall(r"^(?:FAILED|ERROR) (\S+)", proc.stdout, re.M))
    if proc.returncode not in (0, 1):
        return "error", proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    passed = [t for t in mutant.tests if t not in failed]
    if passed:
        return "survived", "passes: " + ", ".join(passed)
    return "caught", f"{len(failed)} named test(s) failed"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    parser.add_argument("--timeout", type=float, default=120.0,
                        help="seconds per mutant (default %(default)s)")
    args = parser.parse_args(argv)
    known = {m.name: m for m in MUTANTS}
    unknown = [n for n in args.names if n not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    bad = 0
    for mutant in [known[n] for n in args.names] or MUTANTS:
        verdict, detail = run_mutant(mutant, args.timeout)
        bad += verdict in ("survived", "error")
        print(f"{verdict:8s} {mutant.name}: {detail}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
