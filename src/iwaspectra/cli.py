"""Command line front end.

Subcommands: invariants, imc, growth, sphere-table.  Output is plain text,
CSV or JSON (--format, default from the IWASPECTRA_FORMAT environment
variable, else table) and is byte-identical across runs.  Exit codes: 0 on
success, 1 when an in-window main-conjecture record mismatches (or a growth
ratio is undefined), 2 on spectrum-file or argument parse errors, 3 on an
invalid prime.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import sys

from .asymptotics import LambdaZero, default_skip, graded_average, growth_ratio, ladder
from .iwalg import coefficients_mod, format_charpoly
from .k1 import sphere_order
from .padic import DEFAULT_PRECISION, NotAnOddPrime, OddPrime, PadicValuation
from .spectra import (
    FiniteSpectrumData,
    degree_window,
    eigenspace_charpoly,
    eigenspace_keys,
    euler_characteristic,
    strip_torsion,
    total_lambda,
)
from .imc import ImcReport, verify_weak_imc

FORMAT_ENV_VAR = "IWASPECTRA_FORMAT"
FORMATS = ("table", "csv", "json")

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_BAD_PRIME = 3

SPECTRUM_FILE_KEYS = {"name", "p", "betti", "torsion"}

# growth --ladder K does O(K**2 * cells) big-integer steps over all rungs;
# 100 rungs of a 20-cell spectrum take 0.3 s at p = 3, 0.6 s at p = 101
MAX_LADDER = 100

# --m-range and --t-range span at most this many steps (b - a); at the cap
# imc prints 200,002 records (10 MB as a table), sphere-table 100,001 rows
MAX_RANGE = 100000


class SpectrumFileError(ValueError):
    pass


DEGREE_KEY = re.compile(r"-?[0-9]+")


def _unique_keys(pairs):
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise SpectrumFileError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def load_spectrum_file(path: str, prime_override=None):
    """Parse a spectrum description file.  Returns (name, FiniteSpectrumData).

    Schema: {"p": odd prime, "betti": {"<degree>": rank >= 1, ...},
    "torsion": [degree, ...] (optional), "name": str (optional)}.
    Degrees are ASCII decimal integers.  Unknown and duplicate keys are
    rejected at every level.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.loads(fh.read(), object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise SpectrumFileError(f"{path}: {exc.strerror or exc}")
    except json.JSONDecodeError as exc:
        raise SpectrumFileError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise SpectrumFileError(f"{path}: JSON nested too deeply")
    except ValueError as exc:  # not UTF-8, a duplicate key, an overlong integer
        raise SpectrumFileError(f"{path}: {exc}")

    if not isinstance(payload, dict):
        raise SpectrumFileError(f"{path}: top level must be a JSON object")
    unknown = sorted(set(payload) - SPECTRUM_FILE_KEYS)
    if unknown:
        raise SpectrumFileError(f"{path}: unknown keys: {', '.join(unknown)}")
    for required in ("p", "betti"):
        if required not in payload:
            raise SpectrumFileError(f"{path}: missing required key '{required}'")

    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise SpectrumFileError(f"{path}: 'name' must be a string")

    p = payload["p"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise SpectrumFileError(f"{path}: 'p' must be an integer")

    raw_betti = payload["betti"]
    if not isinstance(raw_betti, dict):
        raise SpectrumFileError(f"{path}: 'betti' must be an object of degree -> rank")
    betti = {}
    for key, rank in raw_betti.items():
        if not DEGREE_KEY.fullmatch(key):
            raise SpectrumFileError(f"{path}: betti degree {key!r} is not an integer")
        degree = int(key)
        if not isinstance(rank, int) or isinstance(rank, bool) or rank < 1:
            raise SpectrumFileError(
                f"{path}: betti rank at degree {degree} must be an integer >= 1, got {rank!r}")
        if degree in betti:
            raise SpectrumFileError(f"{path}: duplicate betti degree {degree}")
        betti[degree] = rank

    torsion = {}
    raw_torsion = payload.get("torsion", [])
    if not isinstance(raw_torsion, list):
        raise SpectrumFileError(f"{path}: 'torsion' must be a list of degrees")
    for entry in raw_torsion:
        if not isinstance(entry, int) or isinstance(entry, bool):
            raise SpectrumFileError(f"{path}: torsion degree {entry!r} is not an integer")
        torsion[entry] = "*"

    if prime_override is not None:
        p = prime_override
    # prime validity is a separate failure class (exit 3), checked after parsing
    return name, FiniteSpectrumData(OddPrime(p), betti, torsion)


# ---------------------------------------------------------------- rendering

def val_json(v: PadicValuation):
    return v.value if v.is_finite else "inf"


def render_table(headers, rows) -> str:
    """Columns left-justified to their widest cell, two spaces apart, with
    trailing blanks cut from every line."""
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0))
              for i, h in enumerate(headers)]
    line = "  ".join(f"%-{w}s" for w in widths)
    out = [(line % tuple(headers)).rstrip()]
    out += [(line % tuple(r)).rstrip() for r in rows]
    return "\n".join(out) + "\n"


def render_csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def emit(fmt, payload, records, headers, lead) -> None:
    """Write one result to stdout: payload as JSON, or one row per record
    (its values under headers) as CSV or as a table under the lead line(s).
    Booleans print as true/false, everything else as str."""
    if fmt == "json":
        sys.stdout.write(render_json(payload))
        return
    rows = [[str(r[h]).lower() if isinstance(r[h], bool) else str(r[h]) for h in headers]
            for r in records]
    if fmt == "csv":
        sys.stdout.write(render_csv(headers, rows))
    else:
        sys.stdout.write(lead + "\n" + render_table(headers, rows))


# ------------------------------------------------------------- subcommands

def invariants_payload(name, X: FiniteSpectrumData, precision: int) -> dict:
    window = degree_window(X)
    # the fields read off the polynomial are built once per distinct
    # polynomial and shared by its rows: most of the 2(p-1) rows are the
    # constant 1 when p is large
    shared = {}
    eigenspaces = []
    for degree, j in eigenspace_keys(X.p):
        f = eigenspace_charpoly(X, (degree, j))
        fields = shared.get(f.factors)
        if fields is None:
            fields = shared[f.factors] = {
                "lambda": f.degree,
                "mu": f.mu,
                "factors": [[i, mult] for i, mult in f.factors],
                "charpoly": format_charpoly(f),
                "coefficients_mod": coefficients_mod(f, precision),
            }
        eigenspaces.append({"degree": degree, "j": j, **fields})
    return {
        "name": name,
        "p": int(X.p),
        "chi": euler_characteristic(X),
        "total_lambda": total_lambda(X),
        "alpha": None if window is None else window[0],
        "beta": None if window is None else window[1],
        "precision": precision,
        "eigenspaces": eigenspaces,
    }


def cmd_invariants(args) -> int:
    name, X = load_spectrum_file(args.file, args.prime_override)
    payload = invariants_payload(name, X, args.precision)
    window = "empty" if payload["alpha"] is None else f"[{payload['alpha']}, {payload['beta']}]"
    lead = (f"name: {name or '-'}\np = {payload['p']}  chi = {payload['chi']}  "
            f"total_lambda = {payload['total_lambda']}\ndegree window: {window}")
    emit(args.format, payload, payload["eigenspaces"],
         ["degree", "j", "lambda", "mu", "charpoly"], lead)
    return EXIT_OK


def imc_payload(name, report: ImcReport) -> dict:
    return {
        "name": name,
        "p": int(report.p),
        "alpha": None if report.window is None else report.window[0],
        "beta": None if report.window is None else report.window[1],
        "records": [{
            "m": r.m,
            "side": r.side,
            "lhs_val": val_json(r.lhs_valuation),
            "rhs_val": val_json(r.rhs_valuation),
            "in_window": r.in_window,
            "match": r.match,
        } for r in report.records],
        "in_window_mismatches": len(report.in_window_mismatches),
        "ok": report.ok,
    }


def cmd_imc(args) -> int:
    name, X = load_spectrum_file(args.file, args.prime_override)
    a, b = args.m_range
    report = verify_weak_imc(X, range(a, b + 1))
    payload = imc_payload(name, report)
    lead = (f"p = {int(report.p)}  m in [{a}, {b}]  "
            f"in-window mismatches: {len(report.in_window_mismatches)}")
    emit(args.format, payload, payload["records"],
         ["m", "side", "lhs_val", "rhs_val", "in_window", "match"], lead)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_growth(args) -> int:
    name, X = load_spectrum_file(args.file, args.prime_override)
    if X.torsion:
        print(f"note: torsion markers at {sorted(X.torsion)} stripped", file=sys.stderr)
        X = strip_torsion(X)
    lam = total_lambda(X)
    if lam == 0 and not args.average_only:
        raise LambdaZero("total lambda is 0; rerun with --average-only for the bare averages")
    skip = default_skip(X) + args.skip
    records = []
    for k, n in enumerate(ladder(X.p, args.ladder)):
        avg = graded_average(X, skip, n)
        record = {"k": k, "n": n, "skip": skip, "average": str(avg.value)}
        if not args.average_only:
            record["ratio"] = f"{growth_ratio(X, skip, n):.6f}"
        records.append(record)
    headers = ["k", "n", "average"] + ([] if args.average_only else ["ratio"])
    payload = {"name": name, "p": int(X.p), "total_lambda": lam, "skip": skip, "rows": records}
    lead = f"p = {int(X.p)}  total_lambda = {lam}  skip = {skip}"
    emit(args.format, payload, records, headers, lead)
    return EXIT_OK


def cmd_sphere_table(args) -> int:
    p = OddPrime(args.prime)
    a, b = args.t_range
    records = []
    for t in range(a, b + 1):
        e = sphere_order(p, t)
        order = str(p ** e.value) if e.is_finite else "inf"
        records.append({"t": t, "exponent": val_json(e), "order": order})
    emit(args.format, {"p": int(p), "rows": records}, records, ["t", "exponent", "order"],
         f"p = {int(p)}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _ascii_int(text: str) -> int:
    """int(text) under the loader's rule for degree keys (DEGREE_KEY): ASCII
    decimal only, so no '_', padding or other scripts' digits."""
    if not DEGREE_KEY.fullmatch(text):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


def _range_arg(text: str):
    try:
        lo, hi = text.split("..", 1)
        a, b = _ascii_int(lo), _ascii_int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b with integers, got {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    if b - a > MAX_RANGE:
        raise argparse.ArgumentTypeError(f"range {text!r} spans more than {MAX_RANGE}")
    return a, b


def _int_arg(low: int | None = None, high: int | None = None):
    """An argparse type for integers in [low, high] (either end may be open).
    Every failure is an ArgumentTypeError, so the usage error names the flag
    and the range, never this helper."""
    def parse(text: str) -> int:
        try:
            value = _ascii_int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"expected at most {high}, got {text!r}")
        return value
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="iwaspectra",
        description="Iwasawa invariants and K(1)-local homotopy orders of finite spectra.")
    sub = parser.add_subparsers(dest="command", required=True)
    default_format = os.environ.get(FORMAT_ENV_VAR, "table")

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default=default_format,
                       help=f"output format (default from ${FORMAT_ENV_VAR}, else table)")

    p_inv = sub.add_parser("invariants", help="eigenspace lambda/mu and charpolys of a spectrum")
    p_inv.add_argument("file", help="spectrum description JSON")
    p_inv.add_argument("--prime-override", type=_int_arg(), default=None, metavar="P")
    p_inv.add_argument("--precision", type=_int_arg(1), default=DEFAULT_PRECISION, metavar="N",
                       help="p-adic digits for expanded coefficients (default %(default)s)")
    add_format(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_imc = sub.add_parser("imc", help="weak main-conjecture comparison over a range of m")
    p_imc.add_argument("file")
    p_imc.add_argument("--m-range", type=_range_arg, default=(-10, 10), metavar="A..B")
    p_imc.add_argument("--prime-override", type=_int_arg(), default=None, metavar="P")
    add_format(p_imc)
    p_imc.set_defaults(func=cmd_imc)

    p_growth = sub.add_parser("growth", help="graded averages along the window ladder")
    p_growth.add_argument("file")
    p_growth.add_argument("--ladder", type=_int_arg(0, MAX_LADDER), default=6, metavar="K",
                          help="top rung: windows 2(p-1)p^k for k = 0..K, "
                               f"K <= {MAX_LADDER} (default %(default)s)")
    p_growth.add_argument("--skip", type=_int_arg(0), default=0, metavar="M",
                          help="extra degrees to skip beyond the automatic safe offset")
    p_growth.add_argument("--average-only", action="store_true",
                          help="omit ratios (required when total lambda is 0)")
    p_growth.add_argument("--prime-override", type=_int_arg(), default=None, metavar="P")
    add_format(p_growth)
    p_growth.set_defaults(func=cmd_growth)

    p_tab = sub.add_parser("sphere-table", help="orders of K(1)-local sphere homotopy groups")
    p_tab.add_argument("-p", "--prime", type=_int_arg(), required=True)
    p_tab.add_argument("--t-range", type=_range_arg, default=(-10, 50), metavar="A..B")
    add_format(p_tab)
    p_tab.set_defaults(func=cmd_sphere_table)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.format not in FORMATS:
        print(f"error: invalid format {args.format!r} (from ${FORMAT_ENV_VAR}?)", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except SpectrumFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotAnOddPrime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PRIME
    except LambdaZero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
