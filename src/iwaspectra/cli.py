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
from .iwalg import coefficients_mod, format_charpoly, invariants_of
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
    cols = range(len(headers))
    widths = [max(len(headers[i]), max((len(r[i]) for r in rows), default=0)) for i in cols]
    out = ["  ".join(headers[i].ljust(widths[i]) for i in cols).rstrip()]
    for r in rows:
        out.append("  ".join(r[i].ljust(widths[i]) for i in cols).rstrip())
    return "\n".join(out) + "\n"


def render_csv(headers, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


def render_json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def emit(fmt, payload, headers, rows, lead) -> None:
    """Write one result to stdout: payload as JSON, rows as CSV, or the lead
    line(s) over the rows as a table."""
    if fmt == "json":
        sys.stdout.write(render_json(payload))
    elif fmt == "csv":
        sys.stdout.write(render_csv(headers, rows))
    else:
        sys.stdout.write(lead + "\n" + render_table(headers, rows))


# ------------------------------------------------------------- subcommands

def invariants_payload(name, X: FiniteSpectrumData, precision: int) -> dict:
    window = degree_window(X)
    eigenspaces = []
    for key in eigenspace_keys(X.p):
        f = eigenspace_charpoly(X, key)
        inv = invariants_of(f)
        eigenspaces.append({
            "degree": key.cohomological_degree,
            "j": key.j,
            "lambda": inv.lambda_,
            "mu": inv.mu,
            "factors": [[i, mult] for i, mult in f.factors],
            "charpoly": format_charpoly(f),
            "coefficients_mod": coefficients_mod(f, precision),
        })
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
    rows = [[str(e["degree"]), str(e["j"]), str(e["lambda"]), str(e["mu"]), e["charpoly"]]
            for e in payload["eigenspaces"]]
    window = "empty" if payload["alpha"] is None else f"[{payload['alpha']}, {payload['beta']}]"
    lead = (f"name: {name or '-'}\np = {payload['p']}  chi = {payload['chi']}  "
            f"total_lambda = {payload['total_lambda']}\ndegree window: {window}")
    emit(args.format, payload, ["degree", "j", "lambda", "mu", "charpoly"], rows, lead)
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
    rows = [[str(r.m), str(r.side), str(r.lhs_valuation), str(r.rhs_valuation),
             "true" if r.in_window else "false", "true" if r.match else "false"]
            for r in report.records]
    lead = (f"p = {int(report.p)}  m in [{a}, {b}]  "
            f"in-window mismatches: {len(report.in_window_mismatches)}")
    emit(args.format, imc_payload(name, report),
         ["m", "side", "lhs_val", "rhs_val", "in_window", "match"], rows, lead)
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
    rows = []
    records = []
    for k, n in enumerate(ladder(X.p, args.ladder)):
        avg = graded_average(X, skip, n)
        record = {"k": k, "n": n, "skip": skip, "average": str(avg.value)}
        row = [str(k), str(n), str(avg.value)]
        if not args.average_only:
            ratio = growth_ratio(X, skip, n)
            record["ratio"] = f"{ratio:.6f}"
            row.append(f"{ratio:.6f}")
        records.append(record)
        rows.append(row)
    headers = ["k", "n", "average"] + ([] if args.average_only else ["ratio"])
    payload = {"name": name, "p": int(X.p), "total_lambda": lam, "skip": skip, "rows": records}
    lead = f"p = {int(X.p)}  total_lambda = {lam}  skip = {skip}"
    emit(args.format, payload, headers, rows, lead)
    return EXIT_OK


def cmd_sphere_table(args) -> int:
    p = OddPrime(args.prime)
    a, b = args.t_range
    rows = []
    records = []
    for t in range(a, b + 1):
        e = sphere_order(p, t)
        order = str(p ** e.value) if e.is_finite else "inf"
        rows.append([str(t), str(e), order])
        records.append({"t": t, "exponent": val_json(e), "order": order})
    emit(args.format, {"p": int(p), "rows": records}, ["t", "exponent", "order"], rows,
         f"p = {int(p)}")
    return EXIT_OK


# ------------------------------------------------------------------ parser

def _range_arg(text: str):
    try:
        lo, hi = text.split("..", 1)
        a, b = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a..b with integers, got {text!r}")
    if a > b:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return a, b


def _positive_int(text: str):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _nonnegative_int(text: str):
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")
    return value


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
    p_inv.add_argument("--prime-override", type=int, default=None, metavar="P")
    p_inv.add_argument("--precision", type=_positive_int, default=DEFAULT_PRECISION, metavar="N",
                       help="p-adic digits for expanded coefficients (default %(default)s)")
    add_format(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_imc = sub.add_parser("imc", help="weak main-conjecture comparison over a range of m")
    p_imc.add_argument("file")
    p_imc.add_argument("--m-range", type=_range_arg, default=(-10, 10), metavar="A..B")
    p_imc.add_argument("--prime-override", type=int, default=None, metavar="P")
    add_format(p_imc)
    p_imc.set_defaults(func=cmd_imc)

    p_growth = sub.add_parser("growth", help="graded averages along the window ladder")
    p_growth.add_argument("file")
    p_growth.add_argument("--ladder", type=_nonnegative_int, default=6, metavar="K",
                          help="top rung: windows 2(p-1)p^k for k = 0..K (default %(default)s)")
    p_growth.add_argument("--skip", type=_nonnegative_int, default=0, metavar="M",
                          help="extra degrees to skip beyond the automatic safe offset")
    p_growth.add_argument("--average-only", action="store_true",
                          help="omit ratios (required when total lambda is 0)")
    p_growth.add_argument("--prime-override", type=int, default=None, metavar="P")
    add_format(p_growth)
    p_growth.set_defaults(func=cmd_growth)

    p_tab = sub.add_parser("sphere-table", help="orders of K(1)-local sphere homotopy groups")
    p_tab.add_argument("-p", "--prime", type=int, required=True)
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
