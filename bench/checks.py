"""Output checks for benchmark calls.

Every call is held to the exit code and stdout digest recorded for it in
references.json (written by record.py at the seed commit).  Where it is
cheap, the printed values are also re-derived through the independent
oracles in tests/oracles.py: short growth windows by the literal window sum,
and sphere-table rows by exhaustive search.  A call that fails any check is
counted as failed; nothing is dropped.
"""

from __future__ import annotations

import csv
import hashlib
import importlib.util
import io
import json
import math
from fractions import Fraction
from pathlib import Path

REFERENCES = Path(__file__).with_name("references.json")

# Growth rungs up to this many degrees are re-summed by the oracle.
ORACLE_MAX_WINDOW = 1000


def load_oracles(root: Path):
    """tests/oracles.py of the checkout; needs the checkout's src on sys.path."""
    spec = importlib.util.spec_from_file_location("oracles", root / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_references() -> dict:
    """key -> [exit code, sha256 of stdout]."""
    return json.loads(REFERENCES.read_text())["calls"]


def stdout_digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def check(call, exit_code, digest, stderr: bytes, stdout, references, oracles):
    """None when the call behaved as recorded, else the reason it failed.
    exit_code is None for a call that hit the timeout; stdout is the output
    itself for calls with an oracle check, else None."""
    if exit_code is None:
        return "timed out"
    err = stderr.decode("utf-8", "replace")
    if "Traceback" in err:
        return "traceback on stderr"
    if call.expect_exit:
        if exit_code != call.expect_exit:
            return f"exit {exit_code}, expected {call.expect_exit}"
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            return f"expected a one-line error on stderr, got {err!r}"
    ref = references.get(call.key)
    if ref is None:
        return "no reference recorded for this call"
    if exit_code != ref[0]:
        return f"exit {exit_code}, reference {ref[0]}"
    if digest != ref[1]:
        return "stdout differs from the reference"
    if call.oracle:
        return _oracle_check(call, stdout.decode(), oracles)
    return None


def _oracle_check(call, text: str, oracles):
    kind, p = call.oracle[:2]
    if kind == "growth":
        betti = dict(call.oracle[2])
        for row in json.loads(text)["rows"]:
            if row["n"] <= ORACLE_MAX_WINDOW:
                want = oracles.window_average_bruteforce(p, betti, row["skip"], row["n"])
                if Fraction(row["average"]) != want:
                    return f"oracle: average over n = {row['n']} is {want}, printed {row['average']}"
        return None
    for t, exponent, order in _sphere_rows(text, call.argv[call.argv.index("--format") + 1]):
        e = oracles.sphere_exponent_bruteforce(p, t)
        want = ("inf", "inf") if e == math.inf else (str(e), str(p ** e))
        if (exponent, order) != want:
            return f"oracle: sphere row t = {t} is {want}, printed {(exponent, order)}"
    return None


def _sphere_rows(text: str, fmt: str):
    if fmt == "json":
        return [(r["t"], str(r["exponent"]), r["order"]) for r in json.loads(text)["rows"]]
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))[1:]
    else:
        rows = [line.split() for line in text.splitlines()[2:]]
    return [(int(t), e, o) for t, e, o in rows]
