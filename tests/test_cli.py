"""Command-line contract: exit codes, formats, determinism, fixture pin."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import circulant3
from circulant3 import boundary, cli, sos, tables

FIXTURE_SHA256 = "81ff8a027ef62e78bc516f8848d53a01412598b6812fdc519e4fb632d5b982a3"


def test_fixture_hash_is_pinned():
    digest = hashlib.sha256(tables.fixture_text().encode("utf-8")).hexdigest()
    assert digest == FIXTURE_SHA256


def test_fixture_loads_61_rows_with_expected_flags():
    rows = tables.load_fixture()
    assert len(rows) == 61
    assert sorted({r.table for r in rows}) == list(range(1, 10))
    flagged = {(r.table, r.u) for r in rows if r.flagged}
    assert (9, "-58366/683") in flagged
    assert (9, "-60") in flagged
    kinks = [r for r in rows if r.u == "45/16"]
    assert len(kinks) == 1 and kinks[0].exact_n


def test_eval_prints_form_value(capsys):
    rc = cli.main(
        ["eval", "--m", "6", "--d", "1", "--u", "0", "--c", "0", "--x", "1,1,1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "f(x) = 3" in out
    assert "A x^(m-1) = (1, 1, 1)" in out


def test_eval_rejects_malformed_vector(capsys):
    rc = cli.main(["eval", "--m", "6", "--d", "1", "--u", "0", "--c", "0", "--x", "1,2"])
    assert rc == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_analyze_exact_point_is_confirmed(capsys):
    rc = cli.main(
        ["analyze", "--m", "6", "--u", "-1", "--c", "0", "--no-certificate"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: CONFIRMED" in out
    assert "N = 62.0" in out


def test_analyze_json_format_round_trips(capsys):
    rc = cli.main(
        [
            "analyze", "--m", "6", "--u", "-1", "--c", "-1",
            "--no-certificate", "--format", "json",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["report"]["confirmed"] is True
    assert doc["report"]["m_value"] == 242.0
    assert doc["config"]["format"] == "json"


def test_analyze_usage_errors(capsys):
    assert cli.main(["analyze", "--m", "7", "--u", "1", "--c", "0"]) == 2
    assert cli.main(["analyze", "--m", "6", "--u", "1", "--c", "2"]) == 2
    assert cli.main(["analyze", "--m", "16", "--u", "1", "--c", "0"]) == 2
    capsys.readouterr()


def test_analyze_maps_unconfirmed_and_failed_reports_to_exit_codes(
    monkeypatch, capsys
):
    real = boundary.analyze(6, -1, 0, with_certificate=False)
    stub_unconfirmed = boundary.BoundaryReport(
        **{**{f: getattr(real, f) for f in real.__dataclass_fields__},
           "confirmed": False}
    )
    monkeypatch.setattr(boundary, "analyze", lambda *a, **k: stub_unconfirmed)
    assert cli.main(["analyze", "--m", "6", "--u", "-1", "--c", "0"]) == 3
    stub_failed = boundary.BoundaryReport(
        **{**{f: getattr(real, f) for f in real.__dataclass_fields__},
           "confirmed": False, "errors": ("eigenpair residual too large",)}
    )
    monkeypatch.setattr(boundary, "analyze", lambda *a, **k: stub_failed)
    assert cli.main(["analyze", "--m", "6", "--u", "-1", "--c", "0"]) == 4
    capsys.readouterr()


def test_config_sos_tol_decides_analyze_and_certify(monkeypatch, tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text("sos_tol = 1e-6\n")
    tols = []
    real = sos.is_sos

    def spy(t, tol=sos.DEFAULT_SOS_TOL):
        tols.append(tol)
        return real(t, tol)

    monkeypatch.setattr(sos, "is_sos", spy)
    assert cli.main(["analyze", "--m", "6", "--u", "5", "--c", "-1", "--config", str(path)]) == 0
    assert cli.main(["certify", "--m", "6", "--u", "-1", "--c", "-1", "--config", str(path)]) == 0
    capsys.readouterr()
    assert tols and set(tols) == {1e-6}


def _shape(doc):
    """Nested key structure of a JSON document; a list maps to its items' distinct shapes."""
    if isinstance(doc, dict):
        return {k: _shape(v) for k, v in doc.items()}
    if isinstance(doc, list):
        shapes = []
        for item in map(_shape, doc):
            if item not in shapes:
                shapes.append(item)
        return shapes
    return None


CONFIG_SHAPE = dict.fromkeys(
    ("eigen_tol", "format", "max_m", "n_starts", "out", "seed", "sos_tol", "tol_d")
)
BREAKPOINT_SHAPE = dict.fromkeys(("kind", "lambda_residual", "m", "value", "value_float", "verified"))
BUNDLE_SHAPE = {
    **dict.fromkeys(("c", "critical_value", "m", "minimizer_residual", "minimizer_value",
                     "seed", "status", "tol_d", "u")),
    "certificate": {
        **dict.fromkeys(("half_degree", "min_eig", "reconstruction_error")),
        "basis": [[None]],
        "gram_lower_triangle": [None],
    },
    "minimizer": [None],
}
REPORT_SHAPE = {
    **dict.fromkeys(("c", "confirmed", "gap", "m", "m_method", "m_value", "n_guard", "n_tag",
                     "n_value", "seed", "tol_d", "u")),
    "breakpoint": BREAKPOINT_SHAPE,
    "bundle": BUNDLE_SHAPE,
    "errors": [],
}
ROW_SHAPE = dict.fromkeys(
    ("M_computed", "M_expected", "N_computed", "N_expected", "c", "m", "pass", "table", "u")
)


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["analyze", "--m", "6", "--u", "2", "--c", "-1", "--format", "json"],
         {"config": CONFIG_SHAPE, "report": REPORT_SHAPE}),
        (["certify", "--m", "6", "--u", "-1", "--c", "-1"],
         {"config": CONFIG_SHAPE, "bundle": BUNDLE_SHAPE}),
        (["breakpoints", "--m", "6", "--format", "json"],
         {"config": CONFIG_SHAPE, "breakpoints": [BREAKPOINT_SHAPE]}),
        (["table", "--table", "2", "--format", "json"],
         {"config": CONFIG_SHAPE, "rows": [ROW_SHAPE]}),
        (["eval", "--m", "6", "--d", "1", "--u", "0", "--c", "0", "--x", "1,2,3",
          "--format", "json"],
         {"config": CONFIG_SHAPE, "f": None, "power": [None]}),
    ],
    ids=["analyze", "certify", "breakpoints", "table", "eval"],
)
def test_json_outputs_keep_their_key_sets(argv, expected, capsys):
    assert cli.main(argv) == 0
    assert _shape(json.loads(capsys.readouterr().out)) == expected


def test_table_csv_schema_and_all_pass(tmp_path, capsys):
    out = tmp_path / "t2.csv"
    rc = cli.main(["table", "--table", "2", "--format", "csv", "--out", str(out)])
    capsys.readouterr()
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == tables.CSV_HEADER
    assert len(lines) == 8  # header + seven rows
    assert all(line.endswith(",true") for line in lines[1:])


GOLDEN_TABLE = Path(__file__).with_name("table_all.csv")
GOLDEN_TABLE_MD5 = "ddb9737319f2cac98a3475b0692055b4"


def test_pretty_table_with_out_writes_the_csv_and_reports_on_stdout(tmp_path, capsys):
    out = tmp_path / "t1.csv"
    assert cli.main(["table", "--table", "1", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[0] == tables.CSV_HEADER
    assert len(lines) > 1 and all(line.endswith(",true") for line in lines[1:])
    assert captured.out.endswith(f"rows pass\ncsv written to {out}\n")
    assert captured.out.startswith("[pass] table 1 ")
    assert captured.err == ""


def test_table_all_reproduces_the_golden_csv(tmp_path, capsys):
    golden = GOLDEN_TABLE.read_bytes()
    assert hashlib.md5(golden).hexdigest() == GOLDEN_TABLE_MD5
    out = tmp_path / "table.csv"
    assert cli.main(["table", "--all", "--format", "csv", "--out", str(out)]) == 0
    assert out.read_bytes() == golden
    capsys.readouterr()


def test_table_requires_selection():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["table"])
    assert exc_info.value.code == 2


def test_table_range_checked(capsys):
    assert cli.main(["table", "--table", "12"]) == 2
    capsys.readouterr()


def test_table_missing_fixture_exits_5(monkeypatch, capsys):
    def boom(*a, **k):
        raise FileNotFoundError("tables.csv")

    monkeypatch.setattr(tables, "run_tables", boom)
    assert cli.main(["table", "--table", "2"]) == 5
    capsys.readouterr()


def test_table_failing_row_exits_1(monkeypatch, capsys):
    rows = [r for r in tables.load_fixture() if r.table == 2][:1]
    failing = [
        tables.RowResult(
            row=rows[0], m_computed=math.nan, n_computed=math.nan,
            m_ok=False, n_ok=False, error="solver failure",
        )
    ]
    monkeypatch.setattr(tables, "run_tables", lambda *a, **k: failing)
    rc = cli.main(["table", "--table", "2"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out
    assert "0/1 rows pass" in out


def test_breakpoints_prints_exact_rationals(capsys):
    rc = cli.main(["breakpoints", "--m", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "45/16" in out
    assert "-70/11" in out
    assert out.count("verified") == 2


def test_breakpoints_odd_order_is_usage_error(capsys):
    assert cli.main(["breakpoints", "--m", "7"]) == 2
    capsys.readouterr()


def test_breakpoints_honours_max_m(tmp_path, capsys):
    # above the cap the smallest eigenvalue at a kink is float noise, and at
    # m = 1000 dd_bound overflows
    for m in ("16", "40", "1000"):
        assert cli.main(["breakpoints", "--m", m]) == 2
        assert f"error: m = {m} exceeds configured max_m = 14" in capsys.readouterr().err
    cfg = tmp_path / "cfg"
    cfg.write_text("max_m = 16\n")
    assert cli.main(["--config", str(cfg), "breakpoints", "--m", "16"]) == 0
    assert capsys.readouterr().out.count("verified") == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--m", "6", "--u", "1/0", "--c", "1"],
        ["eval", "--m", "6", "--d", "1", "--u", "1", "--c", "1", "--x", "1/0,1,1"],
        ["analyze", "--m", "6", "--u", "1e400", "--c", "-1"],
        ["certify", "--m", "6", "--u", "1e400", "--c", "1"],
        ["analyze", "--m", "14", "--u=-1e305", "--c", "-1"],
    ],
    ids=["zero-denominator", "eval-zero-denominator", "u-overflow", "certify-u-overflow",
         "closed-form-n-overflow"],
)
def test_scalars_that_are_not_finite_floats_are_usage_errors(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert captured.out == ""


def test_a_form_whose_coefficients_overflow_is_a_usage_error_naming_u(capsys):
    # N at u = 1e308 is a finite float, but the form's coefficients at d = N
    # overflow one; the error used to be the Gram problem's "constraint
    # data must be finite", which names no input
    argv = ["analyze", "--m", "6", "--u", "1e308", "--c", "1", "--no-certificate"]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "m = 6" in captured.err and "u = 1e+308" in captured.err
    assert captured.out == ""


def test_certify_writes_confirmed_bundle(tmp_path, capsys):
    out = tmp_path / "bundle.json"
    rc = cli.main(
        ["certify", "--m", "6", "--u", "-1", "--c", "-1", "--out", str(out)]
    )
    capsys.readouterr()
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["bundle"]["status"] == "CONFIRMED"
    assert doc["bundle"]["critical_value"] == 242.0
    assert doc["bundle"]["certificate"]["min_eig"] >= 0.0
    assert len(doc["bundle"]["minimizer"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--m", "4", "--d", "1", "--u", "0", "--c", "0", "--x", "1,1,1"],
        ["analyze", "--m", "6", "--u", "-1", "--c", "-1", "--no-certificate"],
        ["table", "--table", "2"],
        ["breakpoints", "--m", "4"],
        ["certify", "--m", "6", "--u", "-1", "--c", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_unwritable_out_is_a_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "out.txt"
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.out == ""


@pytest.mark.parametrize("fmt", ["pretty", "json"])
def test_eval_of_an_exact_value_too_long_for_text_is_a_usage_error(fmt, capsys):
    # f(2, 3, 5) at m = 10000 is an integer of about 10,000 digits, past
    # the limit of Python's int-to-str conversion; printing it ended in a
    # traceback with exit 1
    if not hasattr(sys, "get_int_max_str_digits"):
        pytest.skip("this Python converts integers of any length to text")
    argv = ["eval", "--m", "10000", "--d", "1", "--u", "1", "--c", "1", "--x", "2,3,5",
            "--format", fmt]
    assert cli.main(argv) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: the exact value cannot be written as text")
    assert captured.out == ""


def test_certify_unnormalized_c_is_usage_error(capsys):
    # the message states the scaling itself, not a library call
    assert cli.main(["certify", "--m", "6", "--u", "2", "--c", "3"]) == 2
    err = capsys.readouterr().err
    assert "divide d, u and c by |c|" in err
    assert "normalize" not in err


def test_config_file_sets_defaults_and_rejects_unknown_keys(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("seed = 7\nformat = json\n# comment\n\nmax_m = 8\n")
    rc = cli.main(
        ["--config", str(good), "analyze", "--m", "6", "--u", "-1", "--c", "0",
         "--no-certificate"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["config"]["seed"] == 7
    assert doc["config"]["max_m"] == 8
    bad = tmp_path / "bad.cfg"
    bad.write_text("not_a_key = 1\n")
    assert cli.main(["--config", str(bad), "breakpoints", "--m", "6"]) == 2
    assert cli.main(["--config", str(tmp_path / "absent.cfg"),
                     "breakpoints", "--m", "6"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed 7", "{path}:1: expected 'key = value', got 'seed 7'"),
        ("format = xml", "{path}: format must be one of ('pretty', 'json', 'csv')"),
        ("seed = abc", "config key 'seed': invalid literal for int() with base 10: 'abc'"),
    ],
    ids=["no-equals", "format", "seed"],
)
def test_malformed_config_lines_are_usage_errors(line, message, tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text(line + "\n")
    assert cli.main(["--config", str(cfg), "breakpoints", "--m", "6"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: " + message.format(path=cfg) + "\n"
    assert captured.out == ""


def test_jobs_is_no_longer_a_flag_or_a_config_key(tmp_path, capsys):
    # table runs its rows in one process, so there is no worker count to set
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["table", "--table", "6", "--jobs", "2"])
    assert exc_info.value.code == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""
    cfg = tmp_path / "cfg"
    cfg.write_text("jobs = 2\n")
    assert cli.main(["--config", str(cfg), "table", "--table", "6"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert "unknown config key 'jobs'" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--m", "4", "--d", "1", "--u", "0", "--c", "0", "--x", "1,1,1"],
        ["analyze", "--m", "6", "--u", "-1", "--c", "-1", "--no-certificate"],
        ["breakpoints", "--m", "4"],
        ["certify", "--m", "6", "--u", "-1", "--c", "-1"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_format_outside_table_is_a_usage_error(argv, tmp_path, capsys):
    # these commands have no csv output, and a format they would ignore is
    # refused rather than silently replaced
    assert cli.main(argv + ["--format", "csv"]) == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == f"error: --format csv is for table only, not {argv[0]}\n"
    assert captured.out == ""
    cfg = tmp_path / "cfg"
    cfg.write_text("format = csv\n")
    assert cli.main(["--config", str(cfg)] + argv) == cli.EXIT_USAGE
    assert capsys.readouterr().out == ""


def test_nonpositive_or_non_finite_settings_are_usage_errors(tmp_path, capsys):
    for subcommand in (["table", "--table", "6"], ["breakpoints", "--m", "6"],
                       ["analyze", "--m", "6", "--u", "-1", "--c", "0"]):
        for tol_d in ("0", "-1e-7", "nan", "inf"):
            assert cli.main(subcommand + [f"--tol-d={tol_d}", "--format", "csv"]) == 2
            captured = capsys.readouterr()
            assert "tol_d must be finite and > 0" in captured.err
            assert captured.out == ""
    # a negative seed reached numpy's default_rng and exited 1 with a traceback
    assert cli.main(["table", "--table", "6", "--seed", "-1", "--format", "csv"]) == 2
    captured = capsys.readouterr()
    assert "seed must be >= 0" in captured.err
    assert captured.out == ""
    for line, message in (("tol_d = 0", "tol_d must be finite and > 0"),
                          ("sos_tol = nan", "sos_tol must be finite and > 0"),
                          ("eigen_tol = 0", "eigen_tol must be finite and > 0"),
                          ("eigen_tol = inf", "eigen_tol must be finite and > 0"),
                          ("n_starts = 0", "n_starts must be >= 1"),
                          ("n_starts = 1000000000", "n_starts must be <= 4096"),
                          ("seed = -1", "seed must be >= 0")):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        assert cli.main(["--config", str(cfg), "table", "--table", "6"]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""


def test_flag_overrides_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("seed = 7\n")
    rc = cli.main(
        ["--config", str(cfg), "--seed", "9", "analyze", "--m", "6", "--u", "-1",
         "--c", "0", "--no-certificate", "--format", "json"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["config"]["seed"] == 9


def test_config_file_sets_every_key(tmp_path, capsys):
    # the reader rejects unknown keys, so renaming a setting would turn
    # existing config files into usage errors
    out = tmp_path / "report.json"
    expected = {"tol_d": 2e-7, "sos_tol": 3e-7, "eigen_tol": 4e-9, "n_starts": 8, "seed": 5,
                "max_m": 8, "format": "json", "out": str(out)}
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{key} = {value}\n" for key, value in expected.items()))
    argv = ["--config", str(path), "analyze", "--m", "6", "--u", "-1", "--c", "0",
            "--no-certificate"]
    cfg = cli.resolve_config(cli.build_parser().parse_args(argv))
    assert cfg.to_json_dict() == expected
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["config"] == expected
    assert doc["report"]["tol_d"] == 2e-7 and doc["report"]["seed"] == 5


def test_global_flags_accepted_after_subcommand(capsys):
    rc = cli.main(
        ["analyze", "--m", "6", "--u", "-1", "--c", "0", "--no-certificate",
         "--format", "json", "--seed", "3"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert doc["config"]["seed"] == 3


def test_unknown_arguments_exit_2():
    with pytest.raises(SystemExit) as exc_info:
        cli.main(["eval", "--bogus"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit) as exc_info:
        cli.main([])
    assert exc_info.value.code == 2


def test_console_entry_point_runs():
    # the child imports the package this suite imports, installed or not
    src = str(Path(circulant3.__file__).resolve().parent.parent)
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-m", "circulant3.cli", "--help"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert out.returncode == 0
    for name in ("eval", "analyze", "table", "breakpoints", "certify"):
        assert name in out.stdout
