"""Command line behavior: golden outputs, formats, exit codes, determinism."""

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import iwaspectra.cli as cli
from iwaspectra.imc import ImcRecord, ImcReport
from iwaspectra.padic import INFINITE, PadicValuation

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

    def test_precision_flag_changes_residues(self, capsys):
        _, out, _ = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"),
                        "--precision", "2", "--format", "json")
        payload = json.loads(out)
        assert payload["precision"] == 2
        eps1 = payload["eigenspaces"][1]
        assert eps1["coefficients_mod"] == [(-5) % 25, 1]

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
        bad = ImcReport(3, (0, 0), (
            ImcRecord(0, -1, PadicValuation(0), PadicValuation(1), True, False),))
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


class TestRenderTable:
    @given(data=st.data(), headers=st.lists(st.text(st.characters(min_codepoint=32,
                                                                  max_codepoint=126),
                                                    max_size=6),
                                            min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_matches_the_ljust_renderer(self, data, headers):
        # cells run from empty to twice the longest header, spaces and '%' included
        rows = data.draw(st.lists(st.lists(ascii_cells, min_size=len(headers),
                                           max_size=len(headers)), max_size=50))
        assert cli.render_table(headers, rows) == render_table_ljust(headers, rows)

    def test_contract_examples(self):
        assert cli.render_table(["a", "bb"], []) == "a  bb\n"
        assert cli.render_table(["a", "b"], [["xyz", ""], ["", "%s"]]) == (
            "a    b\nxyz\n     %s\n")


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
            {"p": "3", "betti": {"0": 1}},                # non-integer p
            {"p": 3, "betti": {"1_0": 1}},                # digit grouping
            {"p": 3, "betti": {" 2 ": 1}},                # padded degree
            {"p": 3, "betti": {"\u0661": 1}},            # Arabic-Indic digit one
            '{"p": 3, "betti": {"0": 1, "0": 2}}',        # duplicate degree
            '{"p": 3, "p": 5, "betti": {"0": 1}}',        # duplicate top-level key
        ]
        for payload in cases:
            if isinstance(payload, str):
                path = tmp_path / "spec.json"
                path.write_text(payload)
            else:
                path = write_spectrum(tmp_path, payload)
            code, _, err = run(capsys, "invariants", str(path))
            assert code == 2, payload
            assert err.startswith("error:") and err.count("\n") == 1, payload

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

    @pytest.mark.parametrize("command, flag, value", [
        ("growth", "--ladder", "x"),
        ("invariants", "--precision", "y"),
        ("growth", "--skip", "z"),
        ("invariants", "--precision", "0"),
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


class TestFormatSelection:
    def test_env_var_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        _, out, _ = run(capsys, "sphere-table", "-p", "3", "--t-range", "0..1")
        json.loads(out)  # must be valid JSON

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "json")
        _, out, _ = run(capsys, "sphere-table", "-p", "3", "--t-range", "0..1",
                        "--format", "csv")
        assert out.splitlines()[0] == "t,exponent,order"

    def test_invalid_env_value_is_exit_2(self, capsys, monkeypatch):
        monkeypatch.setenv(cli.FORMAT_ENV_VAR, "yaml")
        code, _, err = run(capsys, "sphere-table", "-p", "3")
        assert code == 2
        assert "invalid format" in err


class TestPrimeOverride:
    def test_reinterprets_the_betti_data(self, capsys):
        _, out, _ = run(capsys, "invariants", str(CORPUS / "cp2_p5.json"),
                        "--prime-override", "7", "--format", "json")
        payload = json.loads(out)
        assert payload["p"] == 7
        assert len(payload["eigenspaces"]) == 12
        assert payload["chi"] == 3

class TestBenchReferences:
    """Benchmark calls, in-process, against the exit code and stdout digest
    recorded in bench/references.json."""

    @pytest.fixture
    def workloads(self, monkeypatch):
        spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
        monkeypatch.delenv(cli.FORMAT_ENV_VAR, raising=False)
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

    def test_cli_corpus_pool_is_byte_identical(self, tmp_path, workloads):
        calls = workloads.pool("cli-corpus", tmp_path, CORPUS)
        assert len(calls) == 108
        self.assert_recorded(calls)

    def test_spectra_sweep_slots_are_byte_identical(self, tmp_path, workloads):
        # the pool is variant-major, so its first slice is variant 0 of every
        # slot: imc over hundreds of m and invariants at p = 1009 and 10007
        calls = workloads.pool("spectra-sweep", tmp_path, CORPUS)
        slots = len(calls) // workloads.POOL_VARIANTS
        assert slots == 17
        self.assert_recorded(calls[:slots])
