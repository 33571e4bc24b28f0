"""Self-test of the benchmark: a tiny run of every workload, end to end and
traced, against the recorded references.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))

# Layers each workload is built to exercise, and layers it must bypass.
EXERCISED = {
    "cli-corpus": ("cli.load_spectrum_file", "cli.render", "asymptotics.graded_average",
                   "imc.verify_weak_imc", "spectra.eigenspace_charpoly", "k1.sphere_order"),
    "growth-ladder": ("asymptotics.graded_average", "asymptotics.growth_ratio",
                      "k1.sphere_order", "padic.one_plus_p_pow_minus_one_valuation"),
    "spectra-sweep": ("imc.verify_weak_imc", "k1.k1_order_of_dual_replacement",
                      "k1.wedge_order", "spectra.eigenspace_charpoly", "spectra.total_lambda",
                      "iwalg.evaluate_valuation", "iwalg.coefficients_mod",
                      "iwalg.format_charpoly", "padic.is_odd_prime"),
}
BYPASSED = {
    "growth-ladder": ("imc.verify_weak_imc", "iwalg.coefficients_mod"),
    "spectra-sweep": ("asymptotics.graded_average",),
}


@pytest.fixture(scope="module")
def oracles():
    return checks.load_oracles(run.ROOT)


@pytest.fixture(scope="module")
def references():
    return checks.load_references()


@pytest.fixture(scope="module")
def roadmap(oracles):
    return tracing.roadmap_figures(oracles, window=400, spectra_per_prime=2, wide_prime=101)


def tiny(name, tmp_path):
    """The cheapest call of each (subcommand, format, expected exit) group."""
    calls = workloads.build(name, 7, tmp_path / name, run.ROOT / "corpus")
    cheapest = {}
    for call in sorted(calls, key=lambda c: c.work, reverse=True):
        cheapest[(call.argv[0], call.argv[call.argv.index("--format") + 1], call.expect_exit)] = call
    return list(cheapest.values())


def test_benchmark_json_matches_the_code():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == tracing.PER_LAYER
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_tiny_run(name, tmp_path, references, oracles, roadmap):
    calls = tiny(name, tmp_path)
    metrics, failed, attempted, _ = run.end_to_end(calls, 0, references, oracles)
    assert failed == [] and attempted == len(calls)
    assert {k: v["unit"] for k, v in metrics.items()} == dict(run.END_TO_END)
    assert all(v["value"] > 0 for v in metrics.values())

    metrics, failed, attempted, _ = run.traced(calls, 0, references, oracles, roadmap,
                                               tmp_path / "spans.tsv")
    assert failed == [] and attempted == 2 * len(calls)
    assert {k: v["unit"] for k, v in metrics.items()} == dict(tracing.PER_LAYER)
    for layer in EXERCISED[name]:
        assert metrics[f"{layer}.calls"]["value"] > 0, layer
    for layer in BYPASSED.get(name, ()):
        assert metrics[f"{layer}.calls"]["value"] == 0, layer
    assert (tmp_path / "spans.tsv").read_text().count("\n") > 1


def test_cli_corpus_checks_the_calls_meant_to_fail(tmp_path):
    calls = workloads.build("cli-corpus", 7, tmp_path, run.ROOT / "corpus")
    assert sorted(c.expect_exit for c in calls if c.expect_exit) == [1, 2, 3]


def test_wrong_reference_digest_is_a_failure(tmp_path, references, oracles):
    call = tiny("cli-corpus", tmp_path)[0]
    outcome = run.run_call(call, run.child_env())
    assert run.failures([outcome], references, oracles) == []
    wrong = dict(references)
    wrong[call.key] = [references[call.key][0], "0" * 64]
    assert len(run.failures([outcome], wrong, oracles)) == 1


def test_timeout_is_a_failure(tmp_path, references, oracles):
    call = max(workloads.build("growth-ladder", 7, tmp_path, run.ROOT / "corpus"),
               key=lambda c: c.work)
    outcome = run.run_call(call, run.child_env(), timeout=0.05)
    assert outcome.exit is None
    assert run.failures([outcome], references, oracles)[0].endswith("timed out")


def test_oracle_catches_a_wrong_value(tmp_path, references, oracles):
    call = next(c for c in tiny("growth-ladder", tmp_path) if c.oracle)
    outcome = run.run_call(call, run.child_env())
    payload = json.loads(outcome.stdout)
    payload["rows"][0]["average"] = "12345"
    assert "oracle" in checks._oracle_check(call, json.dumps(payload), oracles)
    unrecorded = dataclasses.replace(call, key="0" * 64)
    assert checks.check(unrecorded, 0, outcome.digest, b"", outcome.stdout,
                        references, oracles) == "no reference recorded for this call"
