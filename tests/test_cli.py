"""Command line behavior: golden outputs, formats, exit codes, determinism."""

import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import iwaspectra.asymptotics as asymptotics
import iwaspectra.cli as cli
from iwaspectra.asymptotics import default_skip, graded_average, growth_ratio, ladder
from iwaspectra.imc import ImcRecord, ImcReport, verify_weak_imc
from iwaspectra.iwalg import coefficients_mod, format_charpoly
from iwaspectra.k1 import sphere_order
from iwaspectra.padic import INFINITE
from iwaspectra.spectra import (
    FiniteSpectrumData,
    degree_window,
    eigenspace_charpoly,
    eigenspace_keys,
    euler_characteristic,
    strip_torsion,
    total_lambda,
)

from oracles import exact_average, window_average_bruteforce

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"
BENCH = ROOT / "bench"


def run(capsys, *args):
    code = cli.main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def write_spectrum(tmp_path, payload, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestInvariants:
    def test_cp2_table_contract_example(self, capsys):
        code, out, err = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"))
        assert code == 0 and err == ""
        assert "p = 5  chi = 3  total_lambda = 3" in out
        assert "degree window: [0, 4]" in out
        for poly in ("T - 5", "T - 35"):
            assert poly in out

    def test_cp2_csv_golden(self, capsys):
        code, out, _ = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"),
                           "--format", "csv")
        assert code == 0
        assert out == (
            "degree,j,lambda,mu,charpoly\n"
            "0,0,1,0,T\n"
            "0,1,1,0,T - 5\n"
            "0,2,1,0,T - 35\n"
            "0,3,0,0,1\n"
            "-1,0,0,0,1\n"
            "-1,1,0,0,1\n"
            "-1,2,0,0,1\n"
            "-1,3,0,0,1\n"
        )

    def test_json_payload(self, capsys):
        code, out, _ = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["p"] == 5
        assert payload["chi"] == payload["total_lambda"] == 3
        assert (payload["alpha"], payload["beta"]) == (0, 4)
        assert payload["precision"] == 64
        assert len(payload["eigenspaces"]) == 8
        first = payload["eigenspaces"][0]
        assert first["charpoly"] == "T"
        assert first["factors"] == [[0, 1]]
        assert first["coefficients_mod"] == [0, 1]

    def test_precision_flag_is_a_usage_error(self, capsys):
        # the expansion is always mod p^64; no flag sets it
        with pytest.raises(SystemExit) as exc:
            cli.main(["invariants", str(CORPUS / "cp2_p5.json"), "--precision", "3"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("error:") == 1
        assert err.count("unrecognized arguments: --precision 3") == 1

    def test_whole_corpus_loads_and_balances(self, capsys):
        for path in sorted(CORPUS.glob("*.json")):
            code, out, _ = run(capsys, "invariants", str(path), "--format", "json")
            assert code == 0, path.name
            payload = json.loads(out)
            assert payload["chi"] == payload["total_lambda"], path.name

    def test_byte_determinism(self, capsys):
        for fmt in ("table", "csv", "json"):
            runs = [run(capsys, "invariants", str(CORPUS / "mixed_parity_p3.json"),
                        "--format", fmt)[1] for _ in range(2)]
            assert runs[0] == runs[1]


class TestImc:
    def test_sphere_contract_example(self, capsys):
        code, out, _ = run(capsys, "imc", str(CORPUS / "s0_p3.json"),
                           "--m-range=-10..10", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "m,side,lhs_val,rhs_val,in_window,match"
        assert len(lines) == 1 + 2 * 21
        assert "0,-1,inf,inf,false,true" in lines
        assert "0,0,inf,0,false,false" in lines
        assert "4,7,1,1,true,true" in lines

    def test_cp2_contract_example(self, capsys):
        code, out, _ = run(capsys, "imc", str(CORPUS / "cp2_p5.json"),
                           "--m-range=-8..8", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["ok"] is True
        assert payload["in_window_mismatches"] == 0
        rec = next(r for r in payload["records"] if r["m"] == -3 and r["side"] == -7)
        assert rec["in_window"] is True and rec["match"] is True

    def test_default_m_range(self, capsys):
        _, out, _ = run(capsys, "imc", str(CORPUS / "s0_p3.json"), "--format", "csv")
        assert len(out.splitlines()) == 1 + 2 * 21  # -10..10

    def test_table_lead_line(self, capsys):
        _, out, _ = run(capsys, "imc", str(CORPUS / "s0_p3.json"))
        assert out.splitlines()[0] == "p = 3  m in [-10, 10]  in-window mismatches: 0"

    def test_infinite_serialized_as_inf_in_json(self, capsys):
        _, out, _ = run(capsys, "imc", str(CORPUS / "s0_p3.json"), "--format", "json")
        payload = json.loads(out)
        rec = next(r for r in payload["records"] if r["m"] == 0 and r["side"] == -1)
        assert rec["lhs_val"] == "inf" and rec["rhs_val"] == "inf"

    def test_mismatch_exit_code_wiring(self, capsys, monkeypatch):
        bad = ImcReport(3, (0, 0), ImcRecord([0], [-1], [0], [1], [True], [False]))
        monkeypatch.setattr(cli, "verify_weak_imc", lambda X, m_range: bad)
        code, out, _ = run(capsys, "imc", str(CORPUS / "s0_p3.json"), "--format", "csv")
        assert code == 1
        assert "0,-1,0,1,true,false" in out.splitlines()

    def test_mixed_parity_ok(self, capsys):
        code, out, _ = run(capsys, "imc", str(CORPUS / "mixed_parity_p3.json"),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["ok"] is True


class TestGrowth:
    def test_sphere_ladder_contract_example(self, capsys):
        code, out, _ = run(capsys, "growth", str(CORPUS / "s0_p3.json"),
                           "--ladder", "6", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,n,average,ratio"
        averages = [line.split(",")[2] for line in lines[1:]]
        assert averages == ["-1/2", "-1", "-3/2", "-2", "-5/2", "-3", "-7/2"]
        final_ratio = float(lines[-1].split(",")[3])
        assert abs(final_ratio - 1) <= 0.2

    def test_json_payload(self, capsys):
        _, out, _ = run(capsys, "growth", str(CORPUS / "s0_p3.json"),
                        "--ladder", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["p"] == 3 and payload["total_lambda"] == 1
        assert payload["skip"] == 0
        assert [r["n"] for r in payload["rows"]] == [4, 12, 36]
        assert payload["rows"][1]["average"] == "-1"

    def test_extra_skip_is_added(self, capsys):
        _, out, _ = run(capsys, "growth", str(CORPUS / "cp2_p5.json"),
                        "--ladder", "0", "--skip", "3", "--format", "json")
        assert json.loads(out)["skip"] == 4 + 3

    def test_lambda_zero_requires_average_only(self, capsys, tmp_path):
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": 1, "1": 1}})
        code, out, err = run(capsys, "growth", path)
        assert code == 1
        assert "error:" in err and "--average-only" in err
        code, out, err = run(capsys, "growth", path, "--average-only",
                             "--ladder", "3", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,n,average"
        assert len(lines) == 1 + 4

    def test_torsion_is_stripped_with_a_note(self, capsys):
        code, out, err = run(capsys, "growth", str(CORPUS / "torsion_demo_p5.json"),
                             "--ladder", "2")
        assert code == 0
        assert "torsion markers at [1, 3] stripped" in err
        _, bare_out, bare_err = run(capsys, "growth", str(CORPUS / "cp2_p5.json"),
                                    "--ladder", "2")
        assert bare_err == ""
        assert out == bare_out

    def test_odd_cell_spectrum(self, capsys):
        code, out, _ = run(capsys, "growth", str(CORPUS / "s1_p3.json"),
                           "--ladder", "4", "--format", "csv")
        assert code == 0
        final_ratio = float(out.splitlines()[-1].split(",")[3])
        assert abs(final_ratio - 1) <= 0.3

    def test_high_rungs_and_far_windows_answer_fast(self):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))

        def growth(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "iwaspectra.cli", "growth", *args, "--format", "csv"],
                capture_output=True, text=True, env=env, timeout=10)
            assert proc.returncode == 0, proc.stderr
            return [line.split(",") for line in proc.stdout.splitlines()[1:]]

        rows = growth(str(CORPUS / "s0_p3.json"), "--prime-override", "101", "--ladder", "4")
        assert [row[2] for row in rows] == ["-1/2", "-1", "-3/2", "-2", "-5/2"]
        # windows past a 4,000-digit skip
        assert len(growth(str(CORPUS / "cp2_p5.json"), "--skip", "9" * 4000, "--ladder", "6")) == 7

    def test_ladder_is_bounded(self, capsys):
        code, out, _ = run(capsys, "growth", str(CORPUS / "s0_p3.json"),
                           "--ladder", str(cli.MAX_LADDER), "--average-only", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1].split(",")[2] == f"{-1 - cli.MAX_LADDER}/2"
        with pytest.raises(SystemExit) as exc:
            cli.main(["growth", str(CORPUS / "s0_p3.json"), "--ladder", str(cli.MAX_LADDER + 1)])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert "argument --ladder" in err and f"at most {cli.MAX_LADDER}" in err


    def test_each_window_is_summed_once(self, capsys, monkeypatch):
        calls = {"graded_average": 0, "total_lambda": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            return wrapper

        # cli binds both names; asymptotics defines graded_average
        for module, name in ((cli, "graded_average"), (cli, "total_lambda"),
                             (asymptotics, "graded_average")):
            monkeypatch.setattr(module, name, counted(module, name))
        code, out, _ = run(capsys, "growth", str(CORPUS / "s0_p3.json"), "--ladder", "4",
                           "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 1 + 5
        assert calls == {"graded_average": 5, "total_lambda": 1}

    # a rank of 4299 nines, and two cells of 4300 nines, whose total_lambda
    # has 4301 digits
    BIG_RANK = int("9" * 4299)
    OVERSIZED = [
        ({"p": 3, "betti": {"0": BIG_RANK}}, ["--ladder", "100"],
         "total_lambda is too large for a float ratio"),
        ({"p": 3, "betti": {"0": BIG_RANK}}, ["--ladder", "100", "--average-only"],
         "the average at rung 8 could have more than 4300 digits"),
        ({"p": 3, "betti": {"0": 10 * BIG_RANK + 9, "2": 10 * BIG_RANK + 9}},
         ["--ladder", "1", "--average-only"], "total_lambda has more than 4300 digits"),
    ]

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("spec, argv, message", OVERSIZED)
    def test_oversized_output_is_exit_2_before_any_window(self, capsys, monkeypatch, tmp_path,
                                                         fmt, spec, argv, message):
        def never(*_):
            raise AssertionError("an oversized growth call reached a window")

        monkeypatch.setattr(cli, "graded_average", never)
        path = write_spectrum(tmp_path, spec)
        code, out, err = run(capsys, "growth", path, *argv, "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {path}: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_average_next_to_the_cap_prints(self, capsys, tmp_path, fmt):
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": self.BIG_RANK}})
        code, out, err = run(capsys, "growth", path, "--ladder", "0", "--average-only",
                             "--format", fmt)
        assert code == 0 and err == ""
        assert max(map(len, re.findall("[0-9]+", out))) == 4299

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_average_past_the_float_range_is_exit_2(self, capsys, tmp_path, fmt):
        # total_lambda = 1, but the rung-0 window holds the special degree
        # k = 3 of the cell at -8, so its average is -(3 * 10**400 + 1)/2
        big = 10 ** 400
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"-8": big, "-5": big, "0": 1}})
        code, out, err = run(capsys, "growth", path, "--ladder", "2", "--format", fmt)
        assert code == 2 and out == ""
        assert err == (f"error: {path}: the average at rung 0 is too large for a float ratio; "
                       "rerun with --average-only\n")
        code, out, _ = run(capsys, "growth", path, "--ladder", "2", "--average-only",
                           "--format", fmt)
        assert code == 0 and f"-{3 * big + 1}/2" in out


class TestAverageText:
    """cmd_growth prints an average through cli.fraction_text, from the
    integer window sum and length of its GradedAverage; str(Fraction) is
    the oracle."""

    def test_contract_examples(self):
        cases = ((-2, 4, "-1/2"), (-12, 12, "-1"), (0, 5, "0"), (6, 4, "3/2"), (7, 1, "7"),
                 (-3, 1, "-3"), (-10 ** 30 - 1, 10 ** 30, f"{-10 ** 30 - 1}/{10 ** 30}"))
        for total, length, text in cases:
            assert cli.fraction_text(total, length) == text

    @given(total=st.one_of(st.integers(-100, 100), st.integers(-10 ** 40, 10 ** 40)),
           length=st.one_of(st.integers(1, 100), st.integers(1, 10 ** 40)),
           scale=st.integers(1, 10 ** 6))
    @settings(max_examples=300, deadline=None)
    def test_equals_str_of_fraction(self, total, length, scale):
        # scaled, so the pair has a common factor to reduce
        assert cli.fraction_text(total * scale, length * scale) == str(Fraction(total, length))

    @given(p=st.sampled_from([3, 5, 7, 11, 101]),
           betti=st.dictionaries(st.integers(-40, 40), st.integers(1, 4), max_size=6),
           extra=st.one_of(st.integers(0, 40), st.integers(0, 10 ** 30)),
           length=st.one_of(st.integers(1, 60), st.integers(1, 10 ** 30)))
    @example(p=3, betti={}, extra=0, length=5)  # a total of 0
    @example(p=3, betti={0: 1}, extra=0, length=12)  # -1, a reduced denominator of 1
    @example(p=3, betti={0: 1}, extra=0, length=4)  # -1/2
    @example(p=5, betti={1: 2}, extra=0, length=8)  # 3, a positive total
    @settings(max_examples=300, deadline=None)
    def test_average_and_ratio_follow_the_fraction(self, p, betti, extra, length):
        X = FiniteSpectrumData(p, betti)
        average = graded_average(X, default_skip(X) + extra, length)
        exact = exact_average(average)
        assert cli.fraction_text(average.total, average.length) == str(exact)
        if length <= 60 and extra <= 40:
            assert exact == window_average_bruteforce(p, X.betti, average.skip, length)
        lam = total_lambda(X)
        if lam and length >= 2:
            assert (growth_ratio(average, lam, p)
                    == float(exact) / (-lam * math.log(length, p) / 2))


class TestSphereTable:
    def test_golden_table(self, capsys):
        code, out, _ = run(capsys, "sphere-table", "-p", "3", "--t-range=-2..4")
        assert code == 0
        assert out == (
            "p = 3\n"
            "t   exponent  order\n"
            "-2  0         1\n"
            "-1  inf       inf\n"
            "0   inf       inf\n"
            "1   0         1\n"
            "2   0         1\n"
            "3   1         3\n"
            "4   0         1\n"
        )

    def test_csv_and_json_agree(self, capsys):
        _, csv_out, _ = run(capsys, "sphere-table", "-p", "5", "--t-range", "30..40",
                            "--format", "csv")
        _, json_out, _ = run(capsys, "sphere-table", "-p", "5", "--t-range", "30..40",
                             "--format", "json")
        payload = json.loads(json_out)
        csv_rows = [line.split(",") for line in csv_out.splitlines()[1:]]
        assert [r["order"] for r in payload["rows"]] == [row[2] for row in csv_rows]
        assert next(r for r in payload["rows"] if r["t"] == 39)["order"] == "25"


def render_table_ljust(headers, rows) -> str:
    """The table renderer as it was written first, cell by cell with ljust."""
    cols = range(len(headers))
    widths = [max(len(headers[i]), max((len(r[i]) for r in rows), default=0)) for i in cols]
    out = ["  ".join(headers[i].ljust(widths[i]) for i in cols).rstrip()]
    for r in rows:
        out.append("  ".join(r[i].ljust(widths[i]) for i in cols).rstrip())
    return "\n".join(out) + "\n"


ascii_cells = st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12)


@st.composite
def keyed_rows(draw, headers, cells):
    """(Rows, text rows): Rows under headers whose first columns are int keys
    and whose other columns, one or more, come from a few shared tails of
    cells; and each of its rows as the list of the cells it prints.  A key
    column is its values with the row positions, either one value per row
    or each distinct value once."""
    nk = draw(st.integers(0, len(headers) - 1))
    n = draw(st.integers(0, 40))
    columns = [draw(st.lists(st.integers(-10 ** 6, 10 ** 6) | st.sampled_from([0, 7]),
                             min_size=n, max_size=n)) for _ in range(nk)]
    keys = []
    for col in columns:
        if draw(st.booleans()):
            values = list(dict.fromkeys(col))
            keys.append((values, [values.index(v) for v in col]))
        else:
            keys.append((col, range(n)))
    tails = draw(st.lists(st.tuples(*[cells] * (len(headers) - nk)), min_size=1, max_size=5))
    index = draw(st.lists(st.integers(0, len(tails) - 1), min_size=n, max_size=n))
    # a tail that no row uses must print no cell wider than its field's name
    tails = [t if k in index else tuple(c[:len(h)] if isinstance(c, str) else c
                                        for c, h in zip(t, headers[nk:]))
             for k, t in enumerate(tails)]
    text = [[str(col[r]) for col in columns] + list(tails[index[r]]) for r in range(n)]
    return cli.Rows(tuple(headers), tuple(keys), tails, index), text


def tail_rows(headers, rows):
    """Rows with no key: every row its own tail."""
    return cli.Rows(tuple(headers), (), [tuple(r) for r in rows], range(len(rows)))


class TestRenderTable:
    @given(data=st.data(), headers=st.lists(st.text(st.characters(min_codepoint=32,
                                                                  max_codepoint=126),
                                                    max_size=6),
                                            min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_ljust_renderer(self, data, headers):
        # cells run from empty to twice the longest header, spaces and '%' included
        rows, text = data.draw(keyed_rows(headers, ascii_cells))
        assert cli.render_table(rows) == render_table_ljust(headers, text)

    def test_contract_examples(self):
        assert cli.render_table(tail_rows(["a", "bb"], [])) == "a  bb\n"
        assert cli.render_table(tail_rows(["a", "b"], [["xyz", ""], ["", "%s"]])) == (
            "a    b\nxyz\n     %s\n")
        # a blank tail cuts the padding of the key cells before it
        assert cli.render_table(cli.Rows(("k", "v"), (([100, 5], [0, 1]),), [("x",), ("",)],
                                         [0, 1])) == (
            "k    v\n100  x\n5\n")


def render_csv_writer(headers, rows) -> str:
    """The CSV renderer as it was written first, through csv.writer."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return buf.getvalue()


# what CLI cells are made of: digits, signs, inf, true/false, charpolys such
# as "(T - 15)^2 * (T + 3/4)", and %.6f ratios; never a comma, a quote or a
# line break
cli_cells = st.text(st.sampled_from("0123456789-+/.*^() Tinftruefals"), max_size=12)


class TestRenderCsv:
    @given(data=st.data(), width=st.integers(2, 6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_csv_writer(self, data, width):
        # every CLI table has three or more columns; csv.writer would quote
        # a row of one empty cell
        headers = data.draw(st.lists(cli_cells, min_size=width, max_size=width))
        rows, text = data.draw(keyed_rows(headers, cli_cells))
        assert cli.render_csv(rows) == render_csv_writer(headers, text)

    def test_contract_examples(self):
        assert cli.render_csv(tail_rows(("a", "b"), [])) == "a,b\n"
        assert cli.render_csv(tail_rows(("m", "lhs"), [("-1", "inf"), ("0", "")])) == (
            "m,lhs\n-1,inf\n0,\n")
        # a field in json_only is left out; ints and bools print as JSON writes them
        rows = cli.Rows(("m", "skip", "val", "ok"), (([0, -1], [1, 0]),), [(3, 7, True)], [0, 0],
                        ("skip",))
        assert cli.render_csv(rows) == "m,val,ok\n-1,7,true\n0,7,true\n"


# any unicode string: controls, non-ASCII, astral characters and lone surrogates
any_text = st.text(st.characters(exclude_categories=())
                   | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF), max_size=8)
json_scalars = (any_text | st.booleans() | st.none() | st.integers()
                | st.integers(2 ** 64, 2 ** 200) | st.integers(-2 ** 200, -2 ** 64))
json_values = st.recursive(
    json_scalars,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(any_text, inner, max_size=4)),
    max_leaves=12)


class TestRenderJson:
    """render_json of dict payloads against the json module's indent-2
    encoder."""

    @given(payload=st.dictionaries(any_text, json_values, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_matches_json_dumps(self, payload):
        assert cli.render_json(payload) == json.dumps(payload, indent=2) + "\n"

    @given(data=st.data(), head=json_values,
           fields=st.lists(any_text | st.sampled_from(["%", "%s", "a%%b"]), min_size=1,
                           max_size=4, unique=True))
    @settings(max_examples=150, deadline=None)
    def test_rows_match_a_list_of_dicts(self, data, fields, head):
        # tails come from a small pool of values, so rows share them, as the
        # invariants rows of one polynomial do
        pool = data.draw(st.lists(json_values, min_size=1, max_size=3))
        rows, _ = data.draw(keyed_rows(fields, st.sampled_from(pool) | st.integers()))
        dicts = [dict(zip(fields, [*(v[ix[r]] for v, ix in rows.keys), *rows.tails[k]]))
                 for r, k in enumerate(rows.index)]
        for wrap in (lambda v: {"head": head, "rows": v}, lambda v: {"rows": v}):
            assert cli.render_json(wrap(rows)) == json.dumps(wrap(dicts), indent=2) + "\n"

    def test_other_types_are_refused(self):
        for payload in ({"x": {1, 2}}, {"x": [b"x"]}):
            with pytest.raises(TypeError):
                cli.render_json(payload)


class TestFailureModes:
    def test_malformed_json_is_exit_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 3, "betti": {')
        code, _, err = run(capsys, "invariants", str(path))
        assert code == 2
        assert "line 1" in err and "column" in err
        # not UTF-8, and nested past the parser's recursion limit
        for data in (b'\xff\xfe{"p":3}', b"[" * 200000):
            path.write_bytes(data)
            code, _, err = run(capsys, "invariants", str(path))
            assert code == 2, data[:8]
            assert err.startswith("error:") and err.count("\n") == 1, err

    def test_missing_file_is_exit_2(self, capsys, tmp_path):
        code, _, err = run(capsys, "invariants", str(tmp_path / "absent.json"))
        assert code == 2
        assert "error:" in err

    def test_schema_violations_are_exit_2(self, capsys, tmp_path):
        cases = [
            {"betti": {"0": 1}},                          # missing p
            {"p": 3},                                     # missing betti
            {"p": 3, "betti": {"0": 0}},                  # rank < 1
            {"p": 3, "betti": {"x": 1}},                  # non-integer degree
            {"p": 3, "betti": {"0": 1}, "torsion": {"1": "a"}},  # torsion not a list
            {"p": 3, "betti": {"0": 1}, "extra": True},   # unknown key
            {"p": 3, "betti": {"0": 1}, "name": 7},       # non-string name
            {"p": 3, "betti": {"0": 1}, "name": "bad \ud800 name"},  # no UTF-8 for a surrogate
            {"p": "3", "betti": {"0": 1}},                # non-integer p
            {"p": 3, "betti": {"1_0": 1}},                # digit grouping
            {"p": 3, "betti": {" 2 ": 1}},                # padded degree
            {"p": 3, "betti": {"\u0661": 1}},            # Arabic-Indic digit one
            {"p": 3, "betti": {"9" * 4301: 1}},           # past the 4300-digit int limit
            '{"p": 3, "betti": {"0": 1, "0": 2}}',        # duplicate degree
            '{"p": 3, "p": 5, "betti": {"0": 1}}',        # duplicate top-level key
            {"p": 3, "betti": {"0": 1.0}},                # float rank
            {"p": 3, "betti": {"0": True}},               # bool rank
            {"p": 3, "betti": {"0": 1}, "torsion": ["a"]},  # non-integer torsion degrees
            {"p": 3, "betti": {"0": 1}, "torsion": [1.5]},
            {"p": 3, "betti": {"0": 1}, "torsion": [True]},
            {"p": 3, "betti": {"0": 1}, "torsion": [[1]]},
            {"p": 3, "betti": {"0": 1}, "torsion": [1, True]},  # true == 1 as a dict key
            {"p": 9, "betti": {"0": 0}},                  # a bad cell wins over a bad prime
        ]
        for payload in cases:
            if isinstance(payload, str):
                path = tmp_path / "spec.json"
                path.write_text(payload)
            else:
                path = write_spectrum(tmp_path, payload)
            code, _, err = run(capsys, "invariants", str(path))
            assert code == 2, payload
            assert err.startswith(f"error: {path}: ") and err.count("\n") == 1, payload

    def test_unprintable_name_leads_on_one_line(self, capsys, tmp_path):
        # a line break and a terminal escape; JSON escapes them, CSV prints no name
        name = "two\nlines\u001b[31mred"
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": 1}, "name": name})
        code, out, err = run(capsys, "invariants", path)
        assert code == 0 and err == ""
        lines = out.splitlines()
        assert lines[0] == r"name: 'two\nlines\x1b[31mred'" and lines[1].startswith("p = 3")
        assert "\x1b" not in out
        _, out, _ = run(capsys, "invariants", path, "--format", "json")
        assert json.loads(out)["name"] == name
        # a printable name leads as it is, non-ASCII and quotes included
        for shown in ("Moore M(3) \u00e9 'q'", ""):
            path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": 1}, "name": shown})
            _, out, _ = run(capsys, "invariants", path)
            assert out.splitlines()[0] == f"name: {shown or '-'}"

    def test_invalid_prime_is_exit_3(self, capsys, tmp_path):
        path = write_spectrum(tmp_path, {"p": 9, "betti": {"0": 1}})
        code, _, err = run(capsys, "invariants", path)
        assert code == 3
        assert "odd prime" in err

    def test_prime_override_is_validated(self, capsys):
        code, _, err = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"),
                           "--prime-override", "15")
        assert code == 3

    def test_sphere_table_bad_prime(self, capsys):
        code, _, err = run(capsys, "sphere-table", "-p", "4")
        assert code == 3
        code, _, err = run(capsys, "sphere-table", "-p", "-7")
        assert code == 3
        # at the bound of the deterministic primality test: refused, not guessed
        code, _, err = run(capsys, "sphere-table", "-p", "3317044064679887385961981")
        assert code == 3 and "3317044064679887385961981" in err

    def test_bad_range_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["imc", str(CORPUS / "s0_p3.json"), "--m-range", "5..1"])
        assert exc.value.code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, flag", [
        (["imc", str(CORPUS / "s0_p3.json")], "--m-range"),
        (["sphere-table", "-p", "3"], "--t-range"),
    ])
    def test_range_length_is_capped(self, capsys, monkeypatch, argv, flag):
        assert cli.MAX_RANGE == 100000
        args = cli.build_parser().parse_args(argv + [f"{flag}=0..100000"])
        assert getattr(args, flag[2:].replace("-", "_")) == (0, 100000)

        def never(*_):
            raise AssertionError("a refused range reached the computation")

        monkeypatch.setattr(cli, "verify_weak_imc", never)
        monkeypatch.setattr(cli, "sphere_order", never)
        for value in ("0..100001", "0..1000000000"):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv + [f"{flag}={value}"])
            assert exc.value.code == 2
            _, err = capsys.readouterr()
            assert f"argument {flag}" in err and f"more than {cli.MAX_RANGE}" in err
            assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_unprintable_cell_degree_is_exit_2(self, capsys, monkeypatch, tmp_path, fmt):
        # a cell at 2i or 2i - 1 puts (1+p)^|i| into its charpoly; at p = 3,
        # 4^7142 has 4300 digits and 4^7143 has 4301
        for degree, digits in (("14000", 4215), ("14284", 4300), ("-14285", 4300)):
            path = write_spectrum(tmp_path, {"p": 3, "betti": {degree: 1}})
            code, out, err = run(capsys, "invariants", path, "--format", fmt)
            assert code == 0 and err == "", degree
            assert max(map(len, re.findall("[0-9]+", out))) == digits

        def never(*_):
            raise AssertionError("an oversized cell reached the computation")

        monkeypatch.setattr(cli, "format_charpoly", never)
        for degree in ("14285", "-14286", "16000", "200000000", "9" * 4000, "9" * 4300):
            path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": 1, degree: 1}})
            code, out, err = run(capsys, "invariants", path, "--format", fmt)
            assert code == 2 and out == "", degree[:12]
            assert err.startswith("error:") and err.count("\n") == 1
            assert f"cell degree {degree} " in err and "4300 digits" in err

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_unprintable_lambda_is_exit_2(self, capsys, monkeypatch, tmp_path, fmt):
        # two ranks of 4300 nines: in one eigenspace (degrees 0 and 4 at
        # p = 3) lambda has 4301 digits, in two (0 and 2) total_lambda has
        big = int("9" * 4300)

        def never(*_):
            raise AssertionError("an unprintable lambda reached the computation")

        monkeypatch.setattr(cli, "format_charpoly", never)
        for betti in ({"0": big, "4": big}, {"0": big, "2": big}, {"-1": big, "1": big}):
            path = write_spectrum(tmp_path, {"p": 3, "betti": betti})
            code, out, err = run(capsys, "invariants", path, "--format", fmt)
            assert code == 2 and out == "", sorted(betti)
            assert err == f"error: {path}: a lambda has more than 4300 digits\n"

    @pytest.mark.parametrize("fmt", ["table", "csv"])
    def test_lambda_at_the_cap_prints(self, capsys, tmp_path, fmt):
        # lambda of 4300 digits in two eigenspaces, total_lambda 0
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": int("9" * 4300),
                                                           "1": int("9" * 4300)}})
        code, out, err = run(capsys, "invariants", path, "--format", fmt)
        assert code == 0 and err == ""
        assert max(map(len, re.findall("[0-9]+", out))) == 4300

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_unprintable_imc_is_exit_2(self, capsys, monkeypatch, tmp_path, fmt):
        # two ranks of 4300 nines bound the valuations past the cap, and at
        # |m| of 4300 nines the side 2m - 1 has 4301 digits
        big = "9" * 4300

        def never(*_):
            raise AssertionError("an unprintable imc call reached the comparison")

        monkeypatch.setattr(cli, "verify_weak_imc", never)
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": int(big), "4": int(big)}})
        for argv, message in (
                ([path, "--m-range=-5..5"], f"{path}: a valuation could have more than 4300 digits"),
                ([str(CORPUS / "cp2_p3.json"), f"--m-range={big}..{big}"],
                 "--m-range: a side 2m - 1 or 2m has more than 4300 digits"),
                ([str(CORPUS / "cp2_p3.json"), f"--m-range=-{big}..-{big}"],
                 "--m-range: a side 2m - 1 or 2m has more than 4300 digits")):
            code, out, err = run(capsys, "imc", *argv, "--format", fmt)
            assert code == 2 and out == "", argv[0]
            assert err == f"error: {message}\n"

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_imc_next_to_the_cap_prints(self, capsys, tmp_path, fmt):
        # m = 5 * 10**4299 - 1: the sides 2m - 1 and 2m have 4300 digits;
        # a rank of 4299 digits keeps the valuation bound under the cap
        m = 5 * 10 ** 4299 - 1
        code, out, err = run(capsys, "imc", str(CORPUS / "cp2_p3.json"), f"--m-range={m}..{m}",
                             "--format", fmt)
        assert code == 0 and err == ""
        assert str(2 * m) in out and str(2 * m - 1) in out
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"0": 10 ** 4298}})
        code, out, err = run(capsys, "imc", path, "--m-range=-5..5", "--format", fmt)
        assert code == 0 and err == ""
        assert str(10 ** 4298) in out

    def test_json_expansion_is_capped_before_any_expansion(self, capsys, monkeypatch, tmp_path):
        # one cell of rank 10^5 asks for 5 * 10^9 steps of expansion in JSON;
        # the table prints no coefficient, so it is not capped
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"2": 100000}})
        code, out, err = run(capsys, "invariants", path, "--format", "table")
        assert code == 0 and err == ""

        def never(*_):
            raise AssertionError("an expansion past the cap was started")

        monkeypatch.setattr(cli, "coefficients_mod", never)
        code, out, err = run(capsys, "invariants", path, "--format", "json")
        assert code == 2 and out == ""
        assert err == (f"error: {path}: expanding the coefficients mod 3^64 is past the work "
                       "cap; use another --format\n")

    def test_expansion_cap_counts_degree_and_width(self):
        # 3^64 has 102 bits, so a residue takes w = 3 + 102 // 64 = 4 words:
        # lambda^2 * 16 is the cost, and lambda = 5000 is the last degree
        # under the cap
        assert cli.MAX_EXPANSION == 4 * 10 ** 8
        cli.check_invariants_size("x", FiniteSpectrumData(3, {0: 5000}), expand=True)
        X = FiniteSpectrumData(3, {0: 5001})
        cli.check_invariants_size("x", X, expand=False)
        with pytest.raises(cli.OutputTooLarge, match="work cap"):
            cli.check_invariants_size("x", X, expand=True)
        # split over two eigenspaces, the squares add: 2 * 3535^2 <= cap / 16
        # < 2 * 3536^2
        cli.check_invariants_size("x", FiniteSpectrumData(3, {0: 3535, 1: 3535}), expand=True)
        with pytest.raises(cli.OutputTooLarge, match="work cap"):
            cli.check_invariants_size("x", FiniteSpectrumData(3, {0: 3536, 1: 3536}),
                                      expand=True)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_invariants_rows_are_capped(self, capsys, monkeypatch, fmt):
        # 2(p-1) rows, at most the 2(MAX_RANGE + 1) records of the longest
        # imc call: 99991 is the largest prime that answers
        cli.check_invariants_size("x", FiniteSpectrumData(99991, {0: 1}), expand=False)

        def never(*_):
            raise AssertionError("an invariants call past the row cap built its rows")

        monkeypatch.setattr(cli, "format_charpoly", never)
        for p in ("100003", "1000000000039"):
            code, out, err = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"),
                                 "--prime-override", p, "--format", fmt)
            assert code == 2 and out == "", p
            assert err.startswith(f"error: p = {p}: ") and err.count("\n") == 1
            assert f"2(p-1) = {2 * (int(p) - 1)} rows, more than 200002" in err

    @pytest.mark.parametrize("command, flag, value", [
        ("growth", "--ladder", "x"),
        ("growth", "--skip", "z"),
        ("growth", "--skip", "-1"),
    ])
    def test_bad_integer_flag_names_the_flag(self, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, str(CORPUS / "s0_p3.json"), f"{flag}={value}"])
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert f"argument {flag}" in err and repr(value) in err
        assert " _" not in err and "invalid" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["growth", str(CORPUS / "s0_p3.json"), "--skip", "1_0"], "--skip"),
        (["growth", str(CORPUS / "s0_p3.json"), "--skip", " \u0661\u0660 "], "--skip"),
        (["sphere-table", "-p", "1_1"], "-p/--prime"),
        (["invariants", str(CORPUS / "s0_p3.json"), "--prime-override", "\u0663"],
         "--prime-override"),
        (["imc", str(CORPUS / "s0_p3.json"), "--m-range=\u0661..\u0663"], "--m-range"),
    ])
    def test_integer_flags_are_ascii_decimal(self, capsys, argv, flag):
        # the loader's rule for degree keys; int() would read each as a number
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        _, err = capsys.readouterr()
        assert f"argument {flag}" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        capsys.readouterr()


class TestStartCost:
    def test_import_skips_dataclasses_inspect_and_typing(self):
        # -S keeps site-packages .pth files, which may import typing
        # themselves, from hiding a module the package pulls in
        code = ("import sys, iwaspectra.cli; print(sorted({'csv', 'dataclasses', 'decimal', "
                "'fractions', 'inspect', 'typing'} & set(sys.modules)))")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    # fractions pulls in decimal, _decimal and numbers, about 3.6 ms a process
    @pytest.mark.parametrize("flags", [[], ["-S"]], ids=["site", "no-site"])
    def test_calls_skip_fractions_decimal_and_numbers(self, flags):
        # the modules of the three loaded, as the last line of stderr
        probe = ("import sys; print(' '.join(sorted({'decimal', 'fractions', 'numbers'} & "
                 "set(sys.modules))), file=sys.stderr)")
        calls = [["growth", str(CORPUS / "cp2_p5.json"), "--ladder", "3"],
                 ["imc", str(CORPUS / "cp2_p5.json"), "--format", "json"],
                 ["invariants", str(CORPUS / "cp2_p5.json"), "--format", "json"],
                 ["sphere-table", "-p", "3", "--format", "csv"]]
        run_calls = ("import iwaspectra.cli as cli\n"
                     f"assert [cli.main(argv) for argv in {calls!r}] == [0] * {len(calls)}")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        loaded = []
        for program in ("pass", run_calls):
            proc = subprocess.run([sys.executable, *flags, "-c", program + "\n" + probe],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            loaded.append(set(proc.stderr.splitlines()[-1].split()))
        bare, after_calls = loaded
        assert after_calls <= bare, after_calls - bare


class TestIntDigitLimit:
    """main() sets the interpreter's int-to-str limit to MAX_DIGITS, so
    PYTHONINTMAXSTRDIGITS changes neither what parses nor what prints."""

    @staticmethod
    def cli_run(argv, digits=None):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        if digits is not None:
            env["PYTHONINTMAXSTRDIGITS"] = digits
        return subprocess.run([sys.executable, "-m", "iwaspectra.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=60)

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_a_low_limit_prints_what_the_default_prints(self, tmp_path, fmt):
        # the cell at 3000 puts 4^1500, of 904 digits, into its charpoly
        path = write_spectrum(tmp_path, {"p": 3, "betti": {"3000": 1}})
        default = self.cli_run(["invariants", path, "--format", fmt])
        low = self.cli_run(["invariants", path, "--format", fmt], "640")
        assert default.returncode == 0 and default.stderr == ""
        assert low.returncode == 0 and low.stderr == ""
        assert low.stdout == default.stdout and str(4 ** 1500 - 1) in low.stdout

    # written by hand: json.dumps would refuse the 5000-digit number too
    @pytest.mark.parametrize("text", [
        '{"p": 3, "betti": {"0": 1}, "torsion": [%s]}' % ("9" * 5000),
        '{"p": 3, "betti": {"0": %s}}' % ("9" * 5000),
    ], ids=["torsion", "rank"])
    def test_no_limit_still_refuses_long_integers(self, tmp_path, text):
        path = tmp_path / "spec.json"
        path.write_text(text)
        proc = self.cli_run(["invariants", str(path)], "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith(f"error: {path}: ") and proc.stderr.count("\n") == 1
        assert "4300 digits" in proc.stderr

    def test_no_limit_still_refuses_long_integer_flags(self):
        proc = self.cli_run(["invariants", str(CORPUS / "cp2_p5.json"),
                             "--prime-override", "1" * 5000], "0")
        assert proc.returncode == 2 and proc.stdout == ""
        assert "argument --prime-override: expected an integer" in proc.stderr


def child_env() -> dict:
    """The environment of a child interpreter: the package on its path, and
    stdout block-buffered, as it is by default when not a terminal."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    return env


def child(args, **kwargs):
    """`python *args` in a fresh interpreter: a CompletedProcess of bytes."""
    return subprocess.run([sys.executable, *args], env=child_env(), timeout=60, **kwargs)


BIG_TABLE = ["sphere-table", "-p", "3", "--t-range=0..100000"]  # 2 MB of output

# runs the CLI as `python -m iwaspectra.cli` does, under a tracer that sees
# only calls, so that entry() takes its sys.exit path
TRACED = ("import runpy, sys; sys.settrace(lambda *event: None); "
          "sys.argv[0] = 'iwaspectra'; runpy.run_module('iwaspectra.cli', run_name='__main__')")


def assert_one_error_line(stderr: bytes):
    text = stderr.decode()
    assert len(text.splitlines()) == 1 and text.startswith("error: "), text


class TestEntry:
    """entry(), the process path behind `python -m iwaspectra.cli`: it ends
    the process with os._exit after flushing, or through sys.exit under a
    profiler or tracer."""

    # a small output is still in the buffer when main() returns, most of a
    # large one is written through it
    @pytest.mark.parametrize("argv", [["sphere-table", "-p", "3"], BIG_TABLE],
                             ids=["small", "2MB"])
    def test_output_is_written_whole(self, argv):
        proc = child(["-m", "iwaspectra.cli", *argv], capture_output=True)
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout == stdout_of(argv)[1].encode()
        assert len(proc.stdout) > (2 * 10 ** 6 if argv is BIG_TABLE else 0)

    @pytest.mark.parametrize("argv, code", [
        (["growth", "LAMBDA_ZERO"], cli.EXIT_FAILED),
        (["invariants", "BROKEN"], cli.EXIT_PARSE),
        (["imc", str(CORPUS / "s0_p3.json"), "--m-range=3..1"], cli.EXIT_PARSE),
        (["sphere-table", "-p", "9"], cli.EXIT_BAD_PRIME),
    ], ids=["lambda-zero", "broken-file", "usage", "bad-prime"])
    def test_each_failure_writes_one_error_line(self, tmp_path, argv, code):
        files = {"LAMBDA_ZERO": write_spectrum(tmp_path, {"p": 3, "betti": {"0": 1, "1": 1}}),
                 "BROKEN": str(tmp_path / "broken.json")}
        (tmp_path / "broken.json").write_text('{"p": 3, "betti": {"0": 1}')
        proc = child(["-m", "iwaspectra.cli", *(files.get(a, a) for a in argv)],
                     capture_output=True)
        assert proc.returncode == code and proc.stdout == b""
        errors = [line for line in proc.stderr.decode().splitlines() if "error:" in line]
        assert len(errors) == 1 and "Traceback" not in proc.stderr.decode()

    def test_profiler_report_still_prints(self):
        proc = child(["-m", "cProfile", "-m", "iwaspectra.cli", "sphere-table", "-p", "3"],
                     capture_output=True)
        assert proc.returncode == 0 and proc.stderr == b""
        assert proc.stdout.startswith(stdout_of(["sphere-table", "-p", "3"])[1].encode())
        assert b"function calls" in proc.stdout

    @pytest.mark.parametrize("route", ["exit", "traced"])
    def test_closed_pipe_is_exit_1(self, route):
        args = ["-m", "iwaspectra.cli"] if route == "exit" else ["-c", TRACED]
        with subprocess.Popen([sys.executable, *args, *BIG_TABLE], env=child_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            proc.stdout.close()  # the reader leaves before the output is written
            stderr = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.EXIT_FAILED
        assert_one_error_line(stderr)
        assert b"Broken pipe" in stderr

    @pytest.mark.parametrize("route", ["exit", "traced"])
    def test_closed_stdout_is_exit_1(self, route):
        # Python starts with sys.stdout None when file descriptor 1 is closed
        args = ["-m", "iwaspectra.cli"] if route == "exit" else ["-c", TRACED]
        proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, *args,
                               "sphere-table", "-p", "3"],
                              env=child_env(), stderr=subprocess.PIPE, timeout=60)
        assert proc.returncode == cli.EXIT_FAILED
        assert_one_error_line(proc.stderr)
        assert b"Bad file descriptor" in proc.stderr

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("route", ["exit", "traced"])
    def test_full_disk_is_exit_1(self, route):
        args = ["-m", "iwaspectra.cli"] if route == "exit" else ["-c", TRACED]
        with open("/dev/full", "wb") as full:
            proc = child([*args, "sphere-table", "-p", "3"], stdout=full, stderr=subprocess.PIPE)
        assert proc.returncode == cli.EXIT_FAILED
        assert_one_error_line(proc.stderr)
        assert b"No space left on device" in proc.stderr


class TestFormatSelection:
    """--format alone picks the format, table by default: no environment
    variable sets it."""

    @pytest.mark.parametrize("value", ["json", "yaml"])
    def test_env_var_is_ignored(self, capsys, monkeypatch, value):
        monkeypatch.delenv("IWASPECTRA_FORMAT", raising=False)
        code, table, err = run(capsys, "sphere-table", "-p", "3")
        assert code == 0 and err == "" and table.startswith("p = 3\nt ")
        monkeypatch.setenv("IWASPECTRA_FORMAT", value)
        assert run(capsys, "sphere-table", "-p", "3") == (0, table, "")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("IWASPECTRA_FORMAT", "json")
        _, out, _ = run(capsys, "sphere-table", "-p", "3", "--t-range", "0..1",
                        "--format", "csv")
        assert out.splitlines()[0] == "t,exponent,order"


class TestReadmeFlags:
    def test_command_line_section_names_every_flag(self):
        # the long options of every subcommand are the --flags written in
        # README's "Command line" section, so neither can drift alone
        text = (ROOT / "README.md").read_text()
        section = text[text.index("\n## Command line\n"):text.index("\n## Library\n")]
        written = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", section))
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        options = {o for sub in subparsers.choices.values() for a in sub._actions
                   for o in a.option_strings if o.startswith("--")}
        assert written == options

    def test_flags_of_each_subcommand_in_order(self):
        # each subparser's arguments in the order they are declared, which
        # usage and --help follow: a subcommand's own flags come first, then
        # the file flags that invariants, imc and growth share
        subparsers = next(a for a in cli.build_parser()._actions
                          if isinstance(a, argparse._SubParsersAction))
        flags = {name: [tuple(a.option_strings) or a.dest for a in sub._actions[1:]]
                 for name, sub in subparsers.choices.items()}
        shared = ["file", ("--prime-override",), ("--format",)]
        assert flags == {
            "invariants": shared,
            "imc": [("--m-range",), *shared],
            "growth": [("--ladder",), ("--skip",), ("--average-only",), *shared],
            "sphere-table": [("-p", "--prime"), ("--t-range",), ("--format",)],
        }


class TestPrimeOverride:
    def test_reinterprets_the_betti_data(self, capsys):
        _, out, _ = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"),
                        "--prime-override", "7", "--format", "json")
        payload = json.loads(out)
        assert payload["p"] == 7
        assert len(payload["eigenspaces"]) == 12
        assert payload["chi"] == 3


def refuse_float(text):
    raise AssertionError(f"a float in the JSON output: {text}")


class TestBenchReferences:
    """Benchmark calls, in-process, against the exit code and stdout digest
    recorded in bench/references.json."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        return module

    @staticmethod
    def assert_recorded(calls):
        references = json.loads((BENCH / "references.json").read_text())["calls"]
        for call in calls:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(call.argv))
            digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
            assert [code, digest] == references[call.key], call.argv
            if code == 0 and "json" in call.argv:
                # every value is exact: an int, a string or a constant
                json.loads(out.getvalue(), parse_float=refuse_float)

    def test_cli_corpus_pool_is_byte_identical(self, tmp_path, workloads):
        calls = workloads.pool("cli-corpus", tmp_path, CORPUS)
        assert len(calls) == 108
        self.assert_recorded(calls)

    def test_spectra_sweep_slots_are_byte_identical(self, tmp_path, workloads):
        # every variant of every slot: imc over hundreds of m and invariants
        # at p = 1009 and 10007
        calls = workloads.pool("spectra-sweep", tmp_path, CORPUS)
        assert len(calls) == 17 * workloads.POOL_VARIANTS
        self.assert_recorded(calls)

    def test_growth_ladder_pool_is_byte_identical(self, tmp_path, workloads):
        calls = workloads.pool("growth-ladder", tmp_path, CORPUS)
        assert len(calls) == 12 * workloads.POOL_VARIANTS
        self.assert_recorded(calls)


# ------------------------------------------------- the dict-then-emit route

def emit_dicts(fmt, payload, records, headers, lead) -> str:
    """The output route as it was written first: one dict per record, every
    cell through an isinstance test and str (booleans as true/false), table
    and CSV through this file's first renderers, and JSON through the json
    module."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    rows = [[str(r[h]).lower() if isinstance(r[h], bool) else str(r[h]) for h in headers]
            for r in records]
    if fmt == "csv":
        return render_csv_writer(headers, rows)
    return lead + "\n" + render_table_ljust(headers, rows)


def inf_as_text(v):
    return "inf" if v == INFINITE else v


def invariants_by_dicts(path, fmt) -> str:
    name, X = cli.load_spectrum_file(path)
    window = degree_window(X)
    eigenspaces = []
    for degree, j in eigenspace_keys(X.p):
        f = eigenspace_charpoly(X, (degree, j))
        eigenspaces.append({
            "degree": degree, "j": j, "lambda": f.degree, "mu": f.mu,
            "factors": [[i, mult] for i, mult in f.factors],
            "charpoly": format_charpoly(f),
            "coefficients_mod": coefficients_mod(f),
        })
    payload = {
        "name": name, "p": int(X.p), "chi": euler_characteristic(X),
        "total_lambda": total_lambda(X),
        "alpha": None if window is None else window[0],
        "beta": None if window is None else window[1],
        "precision": 64, "eigenspaces": eigenspaces,
    }
    shown = "empty" if window is None else f"[{window[0]}, {window[1]}]"
    lead = (f"name: {name or '-'}\np = {payload['p']}  chi = {payload['chi']}  "
            f"total_lambda = {payload['total_lambda']}\ndegree window: {shown}")
    return emit_dicts(fmt, payload, eigenspaces, ["degree", "j", "lambda", "mu", "charpoly"],
                      lead)


def imc_by_dicts(path, a, b, fmt) -> str:
    name, X = cli.load_spectrum_file(path)
    report = verify_weak_imc(X, range(a, b + 1))
    records = [{
        "m": r.m, "side": r.side,
        "lhs_val": inf_as_text(r.lhs_valuation), "rhs_val": inf_as_text(r.rhs_valuation),
        "in_window": r.in_window, "match": r.match,
    } for r in report.records]
    payload = {
        "name": name, "p": int(report.p),
        "alpha": None if report.window is None else report.window[0],
        "beta": None if report.window is None else report.window[1],
        "records": records,
        "in_window_mismatches": len(report.in_window_mismatches),
        "ok": report.ok,
    }
    lead = (f"p = {int(report.p)}  m in [{a}, {b}]  "
            f"in-window mismatches: {len(report.in_window_mismatches)}")
    return emit_dicts(fmt, payload, records,
                      ["m", "side", "lhs_val", "rhs_val", "in_window", "match"], lead)


def growth_by_dicts(path, rungs, average_only, fmt) -> str:
    name, X = cli.load_spectrum_file(path)
    X = strip_torsion(X)
    lam, skip = total_lambda(X), default_skip(X)
    records = []
    for k, n in enumerate(ladder(X.p, rungs)):
        average = graded_average(X, skip, n)
        record = {"k": k, "n": n, "skip": skip, "average": str(exact_average(average))}
        if not average_only:
            record["ratio"] = f"{growth_ratio(average, lam, X.p):.6f}"
        records.append(record)
    payload = {"name": name, "p": int(X.p), "total_lambda": lam, "skip": skip, "rows": records}
    headers = ["k", "n", "average"] + ([] if average_only else ["ratio"])
    return emit_dicts(fmt, payload, records, headers,
                      f"p = {int(X.p)}  total_lambda = {lam}  skip = {skip}")


def sphere_table_by_dicts(p, a, b, fmt) -> str:
    records = []
    for t in range(a, b + 1):
        e = sphere_order(p, t)
        records.append({"t": t, "exponent": inf_as_text(e),
                        "order": "inf" if e == INFINITE else str(p ** e)})
    return emit_dicts(fmt, {"p": p, "rows": records}, records, ["t", "exponent", "order"],
                      f"p = {p}")


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


spectrum_files = st.fixed_dictionaries(
    {"p": st.sampled_from([3, 5, 7, 101]),
     "betti": st.dictionaries(st.integers(-12, 12).map(str), st.integers(1, 4), max_size=6)},
    optional={"torsion": st.lists(st.integers(-12, 12), min_size=1, max_size=3),
              "name": st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=8)})


class TestRowsMatchTheDictRoute:
    """Every subcommand builds its rows as keys and shared tails; its stdout
    must equal the dict-then-emit route's byte for byte."""

    @given(spec=spectrum_files, a=st.integers(-40, 40), width=st.integers(0, 30),
           rungs=st.integers(0, 6))
    @settings(max_examples=120, deadline=None)
    def test_byte_equal_in_every_format(self, tmp_path_factory, spec, a, width, rungs):
        path = str(tmp_path_factory.mktemp("spec") / "spec.json")
        pathlib.Path(path).write_text(json.dumps(spec))
        _, X = cli.load_spectrum_file(path)
        for fmt in cli.FORMATS:
            assert stdout_of(["invariants", path, "--format", fmt]) == (
                0, invariants_by_dicts(path, fmt))
            code, out = stdout_of(["imc", path, f"--m-range={a}..{a + width}", "--format", fmt])
            assert code == 0 and out == imc_by_dicts(path, a, a + width, fmt)
            growth = ["growth", path, "--ladder", str(rungs), "--format", fmt]
            assert stdout_of(growth + ["--average-only"]) == (
                0, growth_by_dicts(path, rungs, True, fmt))
            if total_lambda(X):
                assert stdout_of(growth) == (0, growth_by_dicts(path, rungs, False, fmt))
            assert stdout_of(["sphere-table", "-p", str(X.p), f"--t-range={a}..{a + width}",
                              "--format", fmt]) == (
                0, sphere_table_by_dicts(X.p, a, a + width, fmt))

    def test_precision_and_corpus(self):
        # the JSON of the dict route expands mod p^64 and prints "precision": 64
        for path in sorted(CORPUS.glob("*.json")):
            for fmt in cli.FORMATS:
                assert stdout_of(["invariants", str(path), "--format", fmt])[1] \
                    == invariants_by_dicts(str(path), fmt)
                for average_only in (True, False):
                    argv = ["growth", str(path), "--format", fmt]
                    assert stdout_of(argv + ["--average-only"] * average_only)[1] \
                        == growth_by_dicts(str(path), 6, average_only, fmt)

    def test_sphere_table_far_range(self):
        # 2001 rows over a few distinct (exponent, order) tails
        for fmt in cli.FORMATS:
            assert stdout_of(["sphere-table", "-p", "5", "--t-range=-1000..1000",
                              "--format", fmt]) == (0, sphere_table_by_dicts(5, -1000, 1000, fmt))


# --------------------------------------------------------------- CLI fuzz

PRIMES = st.sampled_from(["3", "5", "7", "11", "101", "2", "9", "1", "0", "-7", "15",
                          "1000000000039"])
BAD_INTS = st.sampled_from(["", "x", "1_0", " 3", "\u0663", "3.0", "+3", "-", "99999999999999999999"])
small_ints = st.integers(-60, 60).map(str)
ranges = st.one_of(
    st.tuples(st.integers(-60, 60), st.integers(0, 120)).map(lambda t: f"{t[0]}..{t[0] + t[1]}"),
    st.sampled_from(["5..1", "a..b", "1..", "..", "0..100001", "1", "\u0661..\u0663"]))
formats = st.sampled_from(list(cli.FORMATS) + ["yaml"])


def flags(draw, *pairs):
    """Each flag with a value drawn from its strategy (None for a switch),
    or left out."""
    argv = []
    for flag, values in pairs:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


@st.composite
def spectrum_bytes(draw):
    """A well-formed spectrum file two times in three, and otherwise one
    with hostile values; either is sometimes replaced by broken text."""
    if draw(st.integers(0, 2)) < 2:
        spec = draw(spectrum_files)
    else:
        degree_keys = st.one_of(st.integers(-20, 20).map(str),
                                st.sampled_from(["x", "1_0", " 2", "\u0663", "-0", "007",
                                                 "9" * 4301]))
        ranks = st.one_of(st.integers(-1, 5), st.booleans(), st.just("1"), st.just(1.5))
        spec = draw(st.fixed_dictionaries(
            {"p": st.one_of(st.sampled_from([3, 5, 7, 11, 2, 9, -3]), st.just("3"),
                            st.just(True)),
             "betti": st.dictionaries(degree_keys, ranks, max_size=6)},
            optional={"torsion": st.lists(st.one_of(st.integers(-20, 20), st.just("a")),
                                          max_size=3),
                      "name": st.one_of(st.text(max_size=5), st.integers(0, 9)),
                      "extra": st.just(1)}))
    text = json.dumps(spec)
    if draw(st.integers(0, 3)) == 3:
        text = draw(st.sampled_from([
            text[:-1], "[]", "", "null", '{"p": 3, "betti": {"0": 1, "0": 2}}',
            '{"p": 3, "betti": {"0": 1}, "p": 5}', "[" * 3000]))
    return text.encode() + draw(st.sampled_from([b"", b"", b"\xff", b" "]))


@st.composite
def cli_argv(draw, path):
    ints = st.one_of(small_ints, BAD_INTS)
    command = draw(st.sampled_from(["invariants", "imc", "growth", "sphere-table"]))
    if command == "sphere-table":
        argv = [command, "-p", draw(PRIMES)] + flags(draw, ("--t-range", ranges))
    else:
        argv = [command, path]
        argv += flags(draw, ("--prime-override", PRIMES))
        if command == "imc":
            argv += flags(draw, ("--m-range", ranges))
        else:
            ladder = st.one_of(st.integers(0, cli.MAX_LADDER).map(str), ints)
            argv += flags(draw, ("--ladder", ladder), ("--skip", ints), ("--average-only", None))
    return argv + flags(draw, ("--format", formats))


class TestFuzz:
    """Bounded fuzz over argv and spectrum files, inside the caps: small
    primes and ranks (and one 13-digit prime), ranges and ladders no longer
    than MAX_RANGE and MAX_LADDER.  Every run ends in a documented exit code, with no traceback,
    and quickly."""

    @given(data=st.data(), content=spectrum_bytes())
    @settings(max_examples=250, deadline=None)
    def test_exit_codes_and_no_traceback(self, tmp_path_factory, data, content):
        path = tmp_path_factory.mktemp("fuzz") / "spec.json"
        path.write_bytes(content)
        argv = data.draw(cli_argv(str(path)))
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        assert time.perf_counter() - start < 10, argv
        assert code in (0, 1, 2, 3), (argv, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if code:
            assert "error" in err.getvalue(), argv
