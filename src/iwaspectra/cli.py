"""Command line front end.

Subcommands: invariants, imc, growth, sphere-table.  Output is plain text,
CSV or JSON (--format, default table) and depends on the arguments and
the files they name alone, byte for byte.  Exit codes: 0 on
success, 1 when an in-window main-conjecture record mismatches (or a growth
ratio is undefined), 2 on spectrum-file or argument parse errors (among
them an integer of more than MAX_DIGITS digits), on an invariants, imc or
growth call that would print an integer of more than MAX_DIGITS digits, on
an invariants call past 2(MAX_RANGE + 1) rows, on a JSON invariants call
past MAX_EXPANSION and on a growth ratio past the float range, 3 on an
invalid prime.

Every subcommand hands emit the lead line(s) of its table and its JSON
payload, which holds one Rows.  A row is its key, the int cells that
print the same in every format (m, side / degree, j / k, n / t), and the
index of a shared tail holding the rest of its values: an imc call has a
few dozen distinct tails, an invariants call one per distinct polynomial.
Each key column is likewise its values and the position of each row's
value among them, so the 2(p-1) invariants rows lay out 2 degree cells
and p - 1 weight cells.  emit writes them through render_table,
render_csv or render_json, and each lays out every key value and every
distinct tail once.

main() runs one call and returns its exit code.  entry(), behind
`python -m iwaspectra.cli` and the iwaspectra script, runs main(), flushes
stdout and stderr, and ends the process at once with os._exit.
"""

import argparse
import errno
import json
import math
import os
import re
import sys
from collections import namedtuple

from .asymptotics import LambdaZero, default_skip, graded_average, growth_ratio, ladder
from .iwalg import CharPoly, coefficients_mod, format_charpoly
from .k1 import sphere_order
from .padic import DEFAULT_PRECISION, NotAnOddPrime, OddPrime, _int
from .spectra import (
    FiniteSpectrumData,
    degree_window,
    euler_characteristic,
    strip_torsion,
    total_lambda,
)
from .imc import verify_weak_imc

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
# imc prints 200,002 records (10 MB as a table), sphere-table 100,001 rows;
# invariants prints 2(p-1) rows, no more than that imc call: p <= 99991
MAX_RANGE = 100000

# invariants prints no integer of more than this many digits, Python's
# default limit for int-to-str conversion: a cell at degree 2i or 2i - 1
# puts (1+p)^|i| into its charpoly (a residue below p^64 has at most 321
# under the row cap).  main() sets the interpreter's limit to it whatever
# PYTHONINTMAXSTRDIGITS says, so no parse is longer than the guards allow
MAX_DIGITS = 4300
DIGIT_CAP = 10 ** MAX_DIGITS  # the least int of more than MAX_DIGITS digits

# invariants --format json expands an eigenspace polynomial of degree lambda
# in about lambda**2 / 2 products of residues below p^64 (DEFAULT_PRECISION),
# each 7-18 ns * w**2 on a 2-vCPU VM, w = 3 + bit_length(p^64) // 64; the
# sum of lambda**2 * w**2 over the eigenspaces stays at most this, which
# took 0.7-3.6 s at the cap
MAX_EXPANSION = 4 * 10 ** 8


class SpectrumFileError(ValueError):
    pass


class OutputTooLarge(ValueError):
    """A call would form and print an integer of more than MAX_DIGITS digits,
    or expand coefficients past MAX_EXPANSION."""


DEGREE_KEY = re.compile(r"-?[0-9]+")


def _ascii_int(text: str) -> int:
    """int(text) under one rule for degree keys and integer flags: ASCII
    decimal only (DEGREE_KEY), so no '_', padding or other scripts' digits,
    and at most MAX_DIGITS digits; a ValueError otherwise."""
    if not DEGREE_KEY.fullmatch(text):
        raise ValueError(f"not an ASCII decimal integer: {text!r}")
    return int(text)


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
    except RecursionError:
        raise SpectrumFileError(f"{path}: JSON nested too deeply")
    except ValueError as exc:  # bad JSON, not UTF-8, a duplicate key, an overlong integer
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
    if name is not None:
        if not isinstance(name, str):
            raise SpectrumFileError(f"{path}: 'name' must be a string")
        try:
            name.encode()
        except UnicodeEncodeError:  # a lone surrogate, from an escape such as \ud800
            raise SpectrumFileError(f"{path}: 'name' has no UTF-8 form (a lone surrogate)")

    p = payload["p"]
    if not isinstance(p, int) or isinstance(p, bool):
        raise SpectrumFileError(f"{path}: 'p' must be an integer")

    raw_betti = payload["betti"]
    if not isinstance(raw_betti, dict):
        raise SpectrumFileError(f"{path}: 'betti' must be an object of degree -> rank")
    betti = {}
    for key, rank in raw_betti.items():
        try:
            degree = _ascii_int(key)
        except ValueError:
            raise SpectrumFileError(
                f"{path}: betti degree {key!r} is not an integer of at most {MAX_DIGITS} digits")
        if degree in betti:
            raise SpectrumFileError(f"{path}: duplicate betti degree {degree}")
        betti[degree] = rank

    raw_torsion = payload.get("torsion", [])
    if not isinstance(raw_torsion, list):
        raise SpectrumFileError(f"{path}: 'torsion' must be a list of degrees")

    if prime_override is not None:
        p = prime_override
    try:
        # each entry is checked as it becomes a key, since 1, 1.0 and true
        # are one dict key; FiniteSpectrumData checks the cells, then p
        torsion = {_int(entry, "torsion degree"): "*" for entry in raw_torsion}
        return name, FiniteSpectrumData(p, betti, torsion)
    except NotAnOddPrime:
        raise  # a failure class of its own (exit 3)
    except (TypeError, ValueError) as exc:
        raise SpectrumFileError(f"{path}: {exc}")


# ---------------------------------------------------------------- rendering

class Rows(namedtuple("Rows", ["fields", "keys", "tails", "index", "json_only"],
                      defaults=((),))):
    """The rows of a result, each its key and a shared tail.  fields names
    the values of a row in order, the key fields and then the tail fields,
    of which there is at least one.  keys holds, per key field, a pair
    (values, positions): a sequence of ints, and a sequence of the position
    in values of each row's value; tails holds the distinct tails, tuples
    of JSON values; index is a sequence of the position in tails of each
    row's tail.  Table and CSV print every field not in json_only: an int
    or bool as JSON writes it, a str as it is.  Every key value counts
    toward its column's width; a tail that no row uses prints no cell wider
    than its field's name."""

    __slots__ = ()


# the json module's indent-2 encoder, for every value that is not a Rows:
# its nested lines are indented as a top-level value's are
_encode = json.JSONEncoder(indent=2).encode


def val_json(value):
    """A valuation as the output holds it: the int, or "inf"."""
    return "inf" if value == math.inf else value


def fraction_text(total: int, length: int) -> str:
    """total / length (length >= 1) in lowest terms, as str(Fraction) prints
    it: n, or n/d with d > 1 and the sign on n."""
    g = math.gcd(total, length)
    return str(total // g) if g == length else f"{total // g}/{length // g}"


_GAP = "  "


def _columns(widths) -> str:
    """The table layout, the one place it is written: cells left-justified
    to widths, _GAP apart.  A line is this template filled with its cells,
    with the trailing blanks cut."""
    return _GAP.join(f"%-{w}s" for w in widths)


def _printed(rows: Rows):
    """(headers, cells): the names of the fields that table and CSV print,
    and the printed tail cells of each tail."""
    nk = len(rows.keys)
    shown = [i for i, f in enumerate(rows.fields[nk:]) if f not in rows.json_only]
    cells = [tuple(t[i] if t[i].__class__ is str else _encode(t[i]) for i in shown)
             for t in rows.tails]
    return tuple(rows.fields[:nk]) + tuple(rows.fields[nk + i] for i in shown), cells


def _ends(values) -> tuple:
    """The least and the greatest of a nonempty sequence of ints, in either
    order: a range's first and last, without a pass over it."""
    return (values[0], values[-1]) if isinstance(values, range) else (min(values), max(values))


def _cells(fmt: str, values) -> list:
    """fmt applied to each of a sequence of ints, in order, through one %
    over all of them: per value, about half the cost of a % of its own.
    No cell of an int holds the NUL that separates them."""
    return (f"{fmt}\0" * len(values) % tuple(values)).split("\0")


def _lines(header: str, key_formats, tails, rows: Rows, end: str = "\n") -> str:
    """header and a line break, then per row its key cells, each of
    key_formats applied once per value of its key column, and its tail's
    text from tails followed by end.  No row is built as a string of its
    own: each column's cells go into every (nk + 1)-th slot of one list,
    which is joined once."""
    columns = [map(_cells(fmt, values).__getitem__, positions)
               for fmt, (values, positions) in zip(key_formats, rows.keys)]
    columns.append(map([t + end for t in tails].__getitem__, rows.index))
    out = [header + "\n", *[None] * (len(columns) * len(rows.index))]
    for k, column in enumerate(columns, 1):
        out[k::len(columns)] = column
    return "".join(out)


def render_table(rows: Rows) -> str:
    """Columns left-justified to their widest cell, two spaces apart, with
    trailing blanks cut from every line."""
    headers, cells = _printed(rows)
    nk = len(rows.keys)
    # the longest decimal of a column of ints is its least or its greatest,
    # which a range has at its ends
    widths = [max(len(h), *(len("%d" % e) for e in _ends(v))) if v else len(h)
              for h, (v, _) in zip(headers, rows.keys)]
    widths += [max(len(h), max((len(c[i]) for c in cells), default=0))
               for i, h in enumerate(headers[nk:])]
    tail = _columns(widths[nk:])
    tails = [(tail % c).rstrip() for c in cells]
    text = _lines((_columns(widths) % headers).rstrip(), [f"%-{w}d{_GAP}" for w in widths[:nk]],
                  tails, rows)
    # a blank tail leaves the padding of the key cells at the end of its line
    return "\n".join(map(str.rstrip, text.split("\n"))) if nk and not all(tails) else text


def render_csv(rows: Rows) -> str:
    """Cells joined by commas, unquoted: no cell the CLI prints (integers,
    inf, true/false, charpolys, fractions, ratios) holds a comma, a quote
    or a line break."""
    headers, cells = _printed(rows)
    return _lines(",".join(headers), ["%d,"] * len(rows.keys), [",".join(c) for c in cells], rows)


def render_json(payload: dict) -> str:
    """json.dumps(payload, indent=2) + "\n", byte for byte, a Rows written as
    the list of its rows' objects.  payload is a dict with str keys whose
    values are Rows or what the json module encodes; a set or bytes is a
    TypeError.  Every plain value goes through _encode, re-indented at its
    depth."""
    items = [f"  {_encode(k)}: " + (_json_rows(v) if isinstance(v, Rows)
                                    else _encode(v).replace("\n", "\n  "))
             for k, v in payload.items()]
    return "{\n" + ",\n".join(items) + "\n}\n" if items else "{}\n"


def _json_rows(rows: Rows) -> str:
    """The list of rows' objects, at the depth of a payload value, laid out
    by _lines: end closes each object and opens the next, and is cut after
    the last."""
    if not rows.index:
        return "[]"
    nk, end = len(rows.keys), "\n    },\n    {\n"
    names = [f"      {_encode(f)}: " for f in rows.fields]
    tails = [",\n".join(n + _encode(v).replace("\n", "\n      ") for n, v in zip(names[nk:], t))
             for t in rows.tails]
    keys = [n.replace("%", "%%") + "%d,\n" for n in names[:nk]]
    return _lines("[\n    {", keys, tails, rows, end)[:-len(end)] + "\n    }\n  ]"


def emit(fmt: str, lead: str, payload: dict) -> None:
    """Write what a subcommand prints to stdout: payload, a dict whose one
    Rows value is what table and CSV print, as JSON, or its rows as CSV or
    as a table under lead, the table's lead line(s)."""
    if fmt == "json":
        sys.stdout.write(render_json(payload))
        return
    rows = next(v for v in payload.values() if isinstance(v, Rows))
    if fmt == "csv":
        sys.stdout.write(render_csv(rows))
    else:  # the lead written apart, so the whole table is not copied once more
        sys.stdout.write(lead + "\n")
        sys.stdout.write(render_table(rows))


# ------------------------------------------------------------- subcommands

INVARIANTS_FIELDS = ("degree", "j", "lambda", "mu", "factors", "charpoly", "coefficients_mod")


def _digits_above_cap(base: int, exponent: int) -> bool:
    """Whether base**exponent, base one more than an odd prime, has more
    than MAX_DIGITS digits, decided without forming it: it has
    floor(exponent * log10(base)) + 1 digits, as no power of base is a
    power of 10.  The int-to-float comparison is exact for any exponent."""
    return exponent >= MAX_DIGITS / math.log10(base)


def check_invariants_size(path: str, X: FiniteSpectrumData, expand: bool) -> None:
    """Refuse, before any row is built, an invariants call whose 2(p-1)
    rows outnumber the records of an imc call at MAX_RANGE, or whose output
    would need an integer of more than MAX_DIGITS digits, and, when the
    coefficients are to be expanded, one past MAX_EXPANSION."""
    if X.p - 1 > MAX_RANGE + 1:
        raise OutputTooLarge(
            f"p = {X.p}: invariants would print 2(p-1) = {2 * (X.p - 1)} rows, "
            f"more than {2 * (MAX_RANGE + 1)}")
    if abs(total_lambda(X)) >= DIGIT_CAP or any(f.degree >= DIGIT_CAP
                                                for f in X.eigenspaces.values()):
        raise OutputTooLarge(f"{path}: a lambda has more than {MAX_DIGITS} digits")
    for d in X.betti:
        i = (d + 1) // 2  # the factor exponent of a cell at 2i or 2i - 1
        if _digits_above_cap(X.p + 1, abs(i)):
            raise OutputTooLarge(
                f"{path}: cell degree {d} puts {X.p + 1}^{abs(i)} into a charpoly, "
                f"more than {MAX_DIGITS} digits")
    width = 3 + (X.p ** DEFAULT_PRECISION).bit_length() // 64
    if expand and sum(f.degree ** 2 for f in X.eigenspaces.values()) * width ** 2 > MAX_EXPANSION:
        raise OutputTooLarge(f"{path}: expanding the coefficients mod {X.p}^{DEFAULT_PRECISION} "
                             "is past the work cap; use another --format")


def cmd_invariants(args) -> int:
    name, X = load_spectrum_file(args.file, args.prime_override)
    expand = args.format == "json"
    check_invariants_size(args.file, X, expand)
    # one tail per distinct eigenspace polynomial, the constant 1 first, read
    # from the sparse eigenspace map: most of the 2(p-1) rows are 1 when p is
    # large.  The cells of the constant 1, 0, 0 and "1", are narrower than
    # the headers, so they set no width whether or not a row takes them.
    p, known = X.p, {CharPoly(X.p): 0}  # polynomial -> tail position
    index = [0] * (2 * (p - 1))  # degree 0, then degree -1, each j in [0, p-2]
    for (degree, j), f in X.eigenspaces.items():
        index[j - degree * (p - 1)] = known.setdefault(f, len(known))
    tails = [(f.degree, f.mu, [[i, mult] for i, mult in f.factors], format_charpoly(f),
              coefficients_mod(f) if expand else None) for f in known]
    window = degree_window(X)
    chi, lam = euler_characteristic(X), total_lambda(X)
    shown = "empty" if window is None else f"[{window[0]}, {window[1]}]"
    # a name holding a line break or a terminal escape leads as its repr, on one line
    lead_name = repr(name) if name and not name.isprintable() else name or "-"
    emit(args.format,
         f"name: {lead_name}\np = {p}  chi = {chi}  total_lambda = {lam}\n"
         f"degree window: {shown}",
         {"name": name, "p": p, "chi": chi, "total_lambda": lam,
          "alpha": None if window is None else window[0],
          "beta": None if window is None else window[1],
          "precision": DEFAULT_PRECISION,
          # the degree positions as bytes, a sequence of small ints that
          # costs one byte per row
          "eigenspaces": Rows(INVARIANTS_FIELDS,
                              (((0, -1), bytes(p - 1) + b"\1" * (p - 1)),
                               (range(p - 1), [*range(p - 1)] * 2)),
                              tails, index, ("factors", "coefficients_mod"))})
    return EXIT_OK


IMC_FIELDS = ("m", "side", "lhs_val", "rhs_val", "in_window", "match")


def check_imc_size(path: str, X: FiniteSpectrumData, a: int, b: int) -> None:
    """Refuse, before the comparison runs, an imc call that could print an
    integer of more than MAX_DIGITS digits: a side 2m - 1 or 2m, or a
    valuation.  With M the largest |m|, D the largest |cell degree| and R
    the rank sum, each cell of rank r adds r * (1 + nu_p(k)) to a valuation,
    for some 0 < |k| <= 2M + D + 2, so no valuation passes
    R * (1 + bit_length(2M + D + 2))."""
    M = max(abs(a), abs(b))
    if 2 * M + 1 >= DIGIT_CAP:
        raise OutputTooLarge(f"--m-range: a side 2m - 1 or 2m has more than {MAX_DIGITS} digits")
    D = max((abs(d) for d in X.betti), default=0)
    if sum(X.betti.values()) * (1 + (2 * M + D + 2).bit_length()) >= DIGIT_CAP:
        raise OutputTooLarge(f"{path}: a valuation could have more than {MAX_DIGITS} digits")


def cmd_imc(args) -> int:
    name, X = load_spectrum_file(args.file, args.prime_override)
    a, b = args.m_range
    check_imc_size(args.file, X, a, b)
    report = verify_weak_imc(X, range(a, b + 1))
    ms, sides, lhs, rhs, inside, match = report.columns
    known = {}  # (lhs_val, rhs_val, in_window, match) -> tail position: a few over all records
    index = [known.setdefault(tail, len(known)) for tail in zip(lhs, rhs, inside, match)]
    tails = [(val_json(u), val_json(v), i, m) for u, v, i, m in known]
    mismatches = len(report.in_window_mismatches)
    each = range(len(ms))
    emit(args.format,
         f"p = {report.p}  m in [{a}, {b}]  in-window mismatches: {mismatches}",
         {"name": name, "p": report.p,
          "alpha": None if report.window is None else report.window[0],
          "beta": None if report.window is None else report.window[1],
          "records": Rows(IMC_FIELDS, ((ms, each), (sides, each)), tails, index),
          "in_window_mismatches": mismatches, "ok": not mismatches})
    return EXIT_FAILED if mismatches else EXIT_OK


def check_growth_size(path: str, X: FiniteSpectrumData, lam: int, skip: int,
                      lengths, ratios: bool) -> None:
    """Refuse, before any window is computed, a growth call whose output
    could need an integer of more than MAX_DIGITS digits, or whose ratios
    would need total_lambda past the float range.

    The bound on an average comes from the ladder identity (see
    asymptotics).  On a window of length N = 2(p-1)p^n above every cell,
    A = -lam*(n+1)/2 + E/N, where E is a multiple of (p-1)p^(n+1), so 2A is
    an integer; and |E| <= R*p*(skip+N+D+1)/(2(p-1)) for the rank sum R and
    the largest cell degree size D.  The ratio divides by
    lam*log_p(N)/2 < lam*(n+2)/2."""
    if abs(lam) >= DIGIT_CAP:
        raise OutputTooLarge(f"{path}: total_lambda has more than {MAX_DIGITS} digits")
    if skip >= DIGIT_CAP:
        raise OutputTooLarge(
            f"--skip: the top cell degree plus the skip has more than {MAX_DIGITS} digits")
    if ratios and abs(lam) * (len(lengths) + 1) >= 2 ** 1023:
        raise OutputTooLarge(
            f"{path}: total_lambda is too large for a float ratio; rerun with --average-only")
    p, ranks = X.p, sum(X.betti.values())
    reach = skip + max((abs(d) for d in X.betti), default=0) + 1
    for n, N in enumerate(lengths):
        # at least the numerator of A in lowest terms, whose denominator is 1 or 2
        if abs(lam) * (n + 1) + ranks * p * (reach + N) // ((p - 1) * N) + 1 >= DIGIT_CAP:
            raise OutputTooLarge(
                f"{path}: the average at rung {n} could have more than {MAX_DIGITS} digits")


def cmd_growth(args) -> int:
    name, X = load_spectrum_file(args.file, args.prime_override)
    if X.torsion:
        print(f"note: torsion markers at {sorted(X.torsion)} stripped", file=sys.stderr)
        X = strip_torsion(X)
    lam = total_lambda(X)
    if lam == 0 and not args.average_only:
        raise LambdaZero("total lambda is 0; rerun with --average-only for the bare averages")
    skip = default_skip(X) + args.skip
    lengths = ladder(X.p, args.ladder)
    check_growth_size(args.file, X, lam, skip, lengths, not args.average_only)
    tails = []
    for k, n in enumerate(lengths):
        average = graded_average(X, skip, n)
        tail = (skip, fraction_text(average.total, average.length))
        if not args.average_only:
            try:
                ratio = growth_ratio(average, lam, X.p)
            except OverflowError:
                # an average far from the growth law, from a window on a
                # special degree of high valuation
                raise OutputTooLarge(f"{args.file}: the average at rung {k} is too large "
                                     "for a float ratio; rerun with --average-only")
            tail += (f"{ratio:.6f}",)
        tails.append(tail)
    fields = ("k", "n", "skip", "average") + (() if args.average_only else ("ratio",))
    each = range(len(lengths))
    emit(args.format, f"p = {X.p}  total_lambda = {lam}  skip = {skip}",
         {"name": name, "p": X.p, "total_lambda": lam, "skip": skip,
          "rows": Rows(fields, ((range(len(lengths)), each), (lengths, each)), tails, each,
                       ("skip",))})
    return EXIT_OK


def cmd_sphere_table(args) -> int:
    p = OddPrime(args.prime)
    a, b = args.t_range
    known = {}  # exponent -> tail position: a few over the whole range
    index = [known.setdefault(sphere_order(p, t), len(known)) for t in range(a, b + 1)]
    tails = [(val_json(e), "inf" if e == math.inf else str(p ** e)) for e in known]
    emit(args.format, f"p = {p}", {
        "p": p,
        "rows": Rows(("t", "exponent", "order"), ((range(a, b + 1), range(b - a + 1)),), tails,
                     index)})
    return EXIT_OK


# ------------------------------------------------------------------ parser

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

    def add_format(p):
        p.add_argument("--format", choices=FORMATS, default="table", help="output format")

    def add_file(p):
        """The flags of a subcommand that reads a spectrum file, after its own."""
        p.add_argument("file", help="spectrum description JSON")
        p.add_argument("--prime-override", type=_int_arg(), default=None, metavar="P")
        add_format(p)

    p_inv = sub.add_parser("invariants", help="eigenspace lambda/mu and charpolys of a spectrum")
    add_file(p_inv)
    p_inv.set_defaults(func=cmd_invariants)

    p_imc = sub.add_parser("imc", help="weak main-conjecture comparison over a range of m")
    p_imc.add_argument("--m-range", type=_range_arg, default=(-10, 10), metavar="A..B")
    add_file(p_imc)
    p_imc.set_defaults(func=cmd_imc)

    p_growth = sub.add_parser("growth", help="ladder averages of the signed sum of cell rank "
                                             "* summand order per degree, not of group orders")
    p_growth.add_argument("--ladder", type=_int_arg(0, MAX_LADDER), default=6, metavar="K",
                          help="top rung: windows 2(p-1)p^k for k = 0..K, "
                               f"K <= {MAX_LADDER} (default %(default)s)")
    p_growth.add_argument("--skip", type=_int_arg(0), default=0, metavar="M",
                          help="extra degrees to skip beyond the automatic safe offset")
    p_growth.add_argument("--average-only", action="store_true",
                          help="omit ratios (required when total lambda is 0)")
    add_file(p_growth)
    p_growth.set_defaults(func=cmd_growth)

    p_tab = sub.add_parser("sphere-table", help="orders of K(1)-local sphere homotopy groups")
    p_tab.add_argument("-p", "--prime", type=_int_arg(), required=True)
    p_tab.add_argument("--t-range", type=_range_arg, default=(-10, 50), metavar="A..B")
    add_format(p_tab)
    p_tab.set_defaults(func=cmd_sphere_table)
    return parser


def main(argv=None) -> int:
    sys.set_int_max_str_digits(MAX_DIGITS)  # before parse_args: the integer flags
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpectrumFileError, OutputTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotAnOddPrime as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_PRIME
    except LambdaZero as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


def entry():
    """main(), then the end of the process: once stdout and stderr are
    flushed, os._exit skips the interpreter's teardown, of which the CLI
    needs nothing.  A profiler or tracer writes its report at exit, so with
    one active, or when the stderr flush fails, the process ends through
    sys.exit.  A stdout that cannot be written, a pipe whose reader left or
    a full disk, ends the call with exit 1 and one error line, and so does
    a process started with stdout closed, before the call runs."""
    try:
        if sys.stdout is None:  # what Python makes of a closed file descriptor 1
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        code = main()
        sys.stdout.flush()
    except OSError as exc:
        # the rest of the output is dropped: the buffer now drains into
        # /dev/null, so the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), 1)
        code = EXIT_FAILED
        print(f"error: cannot write the output: {exc.strerror or exc}", file=sys.stderr)
    try:
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    if sys.getprofile() is None and sys.gettrace() is None:
        os._exit(code)
    sys.exit(code)


if __name__ == "__main__":
    entry()
