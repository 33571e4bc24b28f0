#!/usr/bin/env python3
"""Run the CLI under several Python interpreters and compare the output.

    python tests/interpreters.py PYTHON [PYTHON ...]

Makes 94 calls of `python -m iwaspectra.cli`, with PYTHONPATH=src: every
corpus/*.json through invariants, imc --m-range=-15..15 and growth
--ladder 4, each in table, csv and json, and sphere-table -p P --format
json for P = 3, 5, 7 and 101.  It makes them under the interpreter that
runs this script and under each PYTHON named (give full paths: a version
manager's shim on PATH may not start), and prints one line for every call
whose exit code or stdout bytes under a named interpreter differ from
those under the running one.  The exit code is 1 when any call differs,
else 0.  Stdlib only; it takes about 5 s per interpreter, so it is not
part of the test suite.
"""

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FORMATS = ("table", "csv", "json")
COMMANDS = (("invariants",), ("imc", "--m-range=-15..15"), ("growth", "--ladder", "4"))


def calls() -> list[tuple[str, ...]]:
    """The CLI argument lists, in the order they run."""
    out = [(*command, f"corpus/{path.name}", "--format", fmt)
           for path in sorted((ROOT / "corpus").glob("*.json"))
           for command in COMMANDS for fmt in FORMATS]
    out += [("sphere-table", "-p", str(p), "--format", "json") for p in (3, 5, 7, 101)]
    return out


def run(python: str, argv: tuple[str, ...]) -> tuple[int, bytes]:
    """(exit code, stdout bytes) of one CLI call under python."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([python, "-m", "iwaspectra.cli", *argv], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
    return proc.returncode, proc.stdout


def version(python: str) -> str:
    """The version python reports, or why it did not start."""
    proc = subprocess.run([python, "-c", "import platform; print(platform.python_version())"],
                          capture_output=True, text=True, timeout=60)
    return proc.stdout.strip() if proc.returncode == 0 else f"exit {proc.returncode}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pythons", nargs="+", metavar="PYTHON",
                        help="interpreters to compare with the running one")
    args = parser.parse_args(argv)
    argvs = calls()
    expected = [run(sys.executable, a) for a in argvs]
    print(f"{sys.executable} ({version(sys.executable)}): {len(argvs)} calls, "
          f"exit codes {sorted(set(code for code, _ in expected))}", flush=True)
    differ = 0
    for python in args.pythons:
        try:
            got = [run(python, a) for a in argvs]
        except OSError as exc:
            print(f"{python}: cannot run: {exc}", flush=True)
            differ += 1
            continue
        bad = [(a, e, g) for a, e, g in zip(argvs, expected, got) if e != g]
        for a, (code, _), (got_code, _) in bad:
            what = "stdout" if code == got_code else f"exit {code} -> {got_code}"
            print(f"  differs under {python}: {' '.join(a)} ({what})", flush=True)
        print(f"{python} ({version(python)}): {len(argvs) - len(bad)} of {len(argvs)} "
              "calls identical", flush=True)
        differ += len(bad)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
